/**
 * @file
 * The Entangling Instruction Prefetcher (Ros & Jimborean; IPC-1
 * winner, paper [18]). A destination miss line is "entangled" with a
 * source line accessed far enough in the past to hide the miss
 * latency; when the source is seen again, the destinations are
 * prefetched just in time.
 *
 * Two sizings from the paper: EIP-128KB (the original, 34-way) and
 * EIP-27KB (a realistic 8-way budget).
 */

#ifndef FDIP_PREFETCH_EIP_H_
#define FDIP_PREFETCH_EIP_H_

#include <array>
#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"
#include "util/hotpath.h"
#include "util/state.h"

namespace fdip
{

/** EIP sizing. EipPrefetcher refuses a geometry outside the noted
 *  ranges: its arrays could not hold it or its masks index it. */
struct EipConfig
{
    unsigned sets = 256;          ///< A power of two.
    unsigned ways = 34;           ///< At least 1.
    unsigned destsPerEntry = 4;   ///< 1..EipPrefetcher::kMaxDests.
    unsigned historyDepth = 64;   ///< Source ring; a power of two.
    unsigned entangleLatency = 80; ///< Cycles of lead to hide.
    unsigned chainDepth = 3;      ///< Follow entangled chains this deep.

    /** The paper's two configurations. */
    static EipConfig sized128KB();
    static EipConfig sized27KB();
};

/**
 * The entangling prefetcher.
 */
class EipPrefetcher final : public InstPrefetcher
{
  public:
    explicit EipPrefetcher(const EipConfig &cfg = EipConfig::sized128KB(),
                           const char *name = "EIP");

    /** Destinations one entry can hold. */
    static constexpr unsigned kMaxDests = 4;

    const char *name() const override { return name_; }
    std::uint64_t storageBits() const override;

    void onDemandLookup(Addr line_addr, bool hit,
                        Cycle now) FDIP_HOT_NOEXCEPT override;

  private:
    struct Entry
    {
        bool valid = false;
        Addr srcLine = kNoAddr;
        std::array<Addr, kMaxDests> dests{};
        std::uint8_t numDests = 0;
        std::uint8_t nextVictim = 0;
        std::uint64_t lru = 0;
    };

    struct HistoryRecord
    {
        Addr line = kNoAddr;
        Cycle when = 0;
    };

    std::uint32_t setOf(Addr line) const;
    Entry *find(Addr line);
    Entry &allocate(Addr line);
    void entangle(Addr src, Addr dst);
    void prefetchChain(Addr line_addr);

    FDIP_STATE_MICRO const char *name_;
    FDIP_STATE_MICRO EipConfig cfg_;
    FDIP_STATE_MICRO std::vector<Entry> table_;
    FDIP_STATE_MICRO std::vector<HistoryRecord> history_;
    FDIP_STATE_MICRO std::size_t histPos_ = 0;
    FDIP_STATE_MICRO std::uint64_t lruClock_ = 0;
    FDIP_STATE_MICRO Addr lastLine_ = kNoAddr;
};

} // namespace fdip

#endif // FDIP_PREFETCH_EIP_H_
