/**
 * @file
 * The Branch Target Buffer.
 *
 * Matches the paper's Section IV-B: 16B-indexed (all branches in the
 * same 16-byte chunk map to the same set), set-associative with LRU,
 * and a configurable allocation policy (taken-only under THR, or
 * all-branch for the basic-block-style GHR1/GHR3 configurations).
 */

#ifndef FDIP_BPU_BTB_H_
#define FDIP_BPU_BTB_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/schema.h"
#include "obs/stat_registry.h"
#include "trace/inst.h"
#include "util/bits.h"
#include "util/hotpath.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/** BTB sizing and policy. */
struct BtbConfig
{
    unsigned numEntries = 8192; ///< Total entries (paper default 8K).
    unsigned ways = 4;
    /** Allocate entries only for taken branches (THR-style). When
     *  false, not-taken conditional branches are allocated too. */
    bool allocateTakenOnly = true;
    /** Modeled bytes per entry (paper: ~7B per branch, Section VI-D). */
    unsigned bytesPerEntry = 7;
};

/** Branch-kind field width (InstClass has 5 branch kinds). */
inline constexpr unsigned kBtbKindBits = 3;
/** Compressed-target field width (paper VI-D: ~7B entries store
 *  partial tags and compressed targets, not full 48-bit pairs). */
inline constexpr unsigned kBtbTargetBits = 34;

/** Per-entry bits; the paper's bytes-per-entry label, exactly. */
constexpr std::uint64_t
btbEntryBits(const BtbConfig &cfg)
{
    return std::uint64_t{cfg.bytesPerEntry} * 8;
}

/**
 * Exact modeled BTB storage. Single source of truth for
 * Btb::storageBits() and the compile-time pins in check/budget.h.
 */
constexpr std::uint64_t
btbStorageBitsFor(const BtbConfig &cfg)
{
    return std::uint64_t{cfg.numEntries} * btbEntryBits(cfg);
}

/** A BTB hit. */
struct BtbHit
{
    InstClass kind = InstClass::kCondDirect;
    Addr target = kNoAddr; ///< Stale for indirects; ITTAGE overrides.
};

/**
 * Set-associative, 16B-indexed BTB.
 */
class Btb
{
  public:
    explicit Btb(const BtbConfig &cfg);

    /** Looks up the branch at @p pc, updating LRU on hit. */
    std::optional<BtbHit> lookup(Addr pc);

    /** Looks up without disturbing the replacement state. */
    std::optional<BtbHit> peek(Addr pc) const;

    /**
     * Installs or updates the branch at @p pc. @p taken is the resolved
     * direction (allocation may be skipped under taken-only policy);
     * existing entries always have their target refreshed.
     */
    void install(Addr pc, InstClass kind, Addr target, bool taken);

    /** Removes the entry for @p pc if present (testing/invalidation). */
    void invalidate(Addr pc);

    FDIP_HOT_PATH const BtbConfig &config() const { return cfg_; }

    /** The set the branch at @p pc maps to (16B-indexed; for tests). */
    std::uint32_t setIndexOf(Addr pc) const { return setOf(pc); }

    unsigned numSets() const { return numSets_; }

    /** Modeled storage in bytes. */
    std::uint64_t storageBytes() const
    {
        return std::uint64_t{cfg_.numEntries} * cfg_.bytesPerEntry;
    }

    /** Modeled storage in bits; equals storageSchema().totalBits(). */
    std::uint64_t storageBits() const { return btbStorageBitsFor(cfg_); }

    /**
     * Exact per-field storage declaration. The per-entry budget is
     * bytesPerEntry x 8 bits, decomposed as valid + kind + per-way LRU
     * rank + compressed target + partial tag (the tag takes whatever
     * the other fields leave; 16 bits at the paper's 7B/4-way point).
     * @p structure names the schema ("BTB" for the main level, the
     * hierarchy passes "L1-BTB" for its filter).
     */
    StorageSchema storageSchema(const std::string &structure = "BTB") const;

    /// @{ Statistics.
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Registers BTB counters under @p prefix ("bpu.btb.hits", ...). */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;
    /// @}

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = kNoAddr;
        InstClass kind = InstClass::kCondDirect;
        Addr target = kNoAddr;
        std::uint64_t lru = 0;
    };

    std::uint32_t setOf(Addr pc) const;
    Entry *find(Addr pc);
    const Entry *find(Addr pc) const;

    FDIP_STATE_MICRO BtbConfig cfg_;
    FDIP_STATE_MICRO unsigned numSets_;
    FDIP_STATE_MICRO unsigned setBits_; ///< log2(numSets_), for setOf().
    FDIP_STATE_ARCH(valid, kind, lru, target, tag)
    std::vector<Entry> entries_; ///< sets x ways, row-major.
    FDIP_STATE_MICRO std::uint64_t lruClock_ = 0;

    FDIP_STATE_MICRO std::uint64_t lookups_ = 0;
    FDIP_STATE_MICRO std::uint64_t hits_ = 0;
    FDIP_STATE_MICRO std::uint64_t allocations_ = 0;
    FDIP_STATE_MICRO std::uint64_t evictions_ = 0;
};

} // namespace fdip

#endif // FDIP_BPU_BTB_H_
