/**
 * @file
 * A generic set-associative tag array used for the L1I, L1D, L2 and
 * LLC. The simulator is latency-based, so caches track tags and
 * replacement state only; data never moves.
 */

#ifndef FDIP_CACHE_CACHE_H_
#define FDIP_CACHE_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/schema.h"
#include "obs/stat_registry.h"
#include "util/hotpath.h"
#include "util/rng.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/** Replacement policy selection. */
enum class ReplacementPolicy : std::uint8_t
{
    kLru,
    kRandom,
};

/** Cache geometry. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned lineBytes = kCacheLineBytes;
    ReplacementPolicy replacement = ReplacementPolicy::kLru;
};

/**
 * A set-associative tag array.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    FDIP_HOT_PATH const CacheConfig &config() const { return cfg_; }

    /** Line-aligns an address. */
    FDIP_HOT_PATH Addr
    lineOf(Addr addr) const FDIP_HOT_NOEXCEPT
    {
        return addr & ~static_cast<Addr>(cfg_.lineBytes - 1);
    }

    /**
     * Tag probe without replacement update (the FTQ's I-cache tag
     * lookup). Returns the hitting way, if any. Counted as a tag
     * access.
     */
    std::optional<unsigned> probe(Addr addr) FDIP_HOT_NOEXCEPT;

    /**
     * Full access: probe plus LRU touch on hit. Counted as a tag
     * access. Returns the hitting way, if any.
     */
    std::optional<unsigned> access(Addr addr) FDIP_HOT_NOEXCEPT;

    /**
     * access(addr) that checks way @p way_hint (< ways) of the line's
     * set before scanning the set: same result, counters and LRU
     * update, cheaper when the caller's guess (say, the way of its
     * last hit or fill) is often right.
     */
    std::optional<unsigned> access(Addr addr,
                                   unsigned way_hint) FDIP_HOT_NOEXCEPT;

    /** LRU touch of a known-resident line (no tag access counted). */
    void touch(Addr addr) FDIP_HOT_NOEXCEPT;

    /**
     * Fills the line for @p addr, evicting the replacement victim.
     * Returns the evicted line address (kNoAddr if the way was empty),
     * and the way filled via @p way_out when non-null.
     */
    Addr fill(Addr addr,
              unsigned *way_out = nullptr) FDIP_HOT_NOEXCEPT;

    /** True if the line is resident (no stats, no LRU update). */
    bool contains(Addr addr) const FDIP_HOT_NOEXCEPT;

    /** Removes the line if resident. */
    void invalidate(Addr addr) FDIP_HOT_NOEXCEPT;

    /** Removes everything (testing). */
    void reset();

    unsigned numSets() const { return numSets_; }

    /**
     * Modeled storage in bits for @p cfg: data plus a 48-bit-address
     * tag array (tag = addr bits above set+offset), valid bits, and
     * replacement state (a per-line LRU rank under kLru, the victim
     * LFSR under kRandom). Equals storageSchemaFor(cfg).totalBits().
     */
    static std::uint64_t storageBitsFor(const CacheConfig &cfg);

    /** Exact per-field storage declaration for @p cfg. */
    static StorageSchema storageSchemaFor(const CacheConfig &cfg);

    /** Modeled storage in bits of this instance. */
    std::uint64_t storageBits() const { return storageBitsFor(cfg_); }

    /** Exact per-field storage declaration of this instance. */
    StorageSchema storageSchema() const { return storageSchemaFor(cfg_); }

    /// @{ Statistics.
    FDIP_HOT_PATH std::uint64_t tagAccesses() const { return tagAccesses_; }
    FDIP_HOT_PATH std::uint64_t hits() const { return hits_; }
    FDIP_HOT_PATH std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    void resetStats();

    /** Registers this cache's counters under @p prefix (e.g.
     *  "frontend.l1i" -> "frontend.l1i.hits"). */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;
    /// @}

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    std::uint32_t setOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    FDIP_STATE_MICRO CacheConfig cfg_;
    FDIP_STATE_MICRO unsigned numSets_;
    FDIP_STATE_MICRO unsigned lineShift_;
    FDIP_STATE_ARCH(data, tag, valid, lru) std::vector<Line> lines_;
    FDIP_STATE_MICRO std::uint64_t lruClock_ = 0;
    FDIP_STATE_ARCH(victim_lfsr) Rng rng_;

    FDIP_STATE_MICRO std::uint64_t tagAccesses_ = 0;
    FDIP_STATE_MICRO std::uint64_t hits_ = 0;
    FDIP_STATE_MICRO std::uint64_t misses_ = 0;
    FDIP_STATE_MICRO std::uint64_t evictions_ = 0;
};

} // namespace fdip

#endif // FDIP_CACHE_CACHE_H_
