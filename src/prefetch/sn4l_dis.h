/**
 * @file
 * Divide-and-Conquer frontend prefetching (Ansari et al., ISCA 2020;
 * paper [13]), comprising three cooperating predictors:
 *
 *  - SN4L: selective-next-4-line — among the next four lines, prefetch
 *    only those that proved useful before (per-line usefulness bits).
 *  - Dis: discontinuity prediction — records jumps between I-cache
 *    miss lines and prefetches across them.
 *  - BTB prefetching — on I-cache fills, pre-decode the line and
 *    install its PC-relative branches into the BTB unconditionally
 *    (the paper's Section VI-E shows this can pollute large BTBs).
 */

#ifndef FDIP_PREFETCH_SN4L_DIS_H_
#define FDIP_PREFETCH_SN4L_DIS_H_

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"
#include "util/hotpath.h"
#include "util/state.h"

namespace fdip
{

class Bpu;
class ProgramImage;

/** Divide-and-Conquer sizing / component selection. */
struct Sn4lDisConfig
{
    unsigned logSn4lEntries = 13; ///< Usefulness vectors (4 bits each).
    unsigned logDisEntries = 12;  ///< Discontinuity table entries.
    bool btbPrefetch = true;      ///< Enable the BTB-prefetch component.
};

/**
 * The SN4L + Dis (+ BTB prefetch) prefetcher.
 */
class Sn4lDisPrefetcher final : public InstPrefetcher
{
  public:
    explicit Sn4lDisPrefetcher(const Sn4lDisConfig &cfg = Sn4lDisConfig());

    const char *name() const override
    {
        return cfg_.btbPrefetch ? "SN4L+Dis+BTB" : "SN4L+Dis";
    }
    std::uint64_t storageBits() const override;

    void bind(Bpu &bpu, const ProgramImage &image) override;

    void onDemandLookup(Addr line_addr, bool hit,
                        Cycle now) FDIP_HOT_NOEXCEPT override;
    void onFillComplete(Addr line_addr, bool was_prefetch,
                        Cycle now) FDIP_HOT_NOEXCEPT override;

    void
    registerStats(StatRegistry &reg,
                  const std::string &prefix) const override
    {
        InstPrefetcher::registerStats(reg, prefix);
        reg.addCounter(prefix + ".btb_installs",
                       [this] { return btbInstalls_; },
                       "branches installed by BTB prefetching");
    }

  private:
    struct DisEntry
    {
        std::uint32_t tag = 0;
        Addr target = kNoAddr;
    };

    std::uint32_t sn4lIndex(Addr line) const;
    std::uint32_t disIndex(Addr line) const;
    std::uint32_t disTag(Addr line) const;

    FDIP_STATE_MICRO Sn4lDisConfig cfg_;
    FDIP_STATE_MICRO std::vector<std::uint8_t> useful_; ///< 4 bits/line.
    FDIP_STATE_MICRO std::vector<DisEntry> dis_;

    FDIP_STATE_MICRO Addr lastMissLine_ = kNoAddr;
    FDIP_STATE_MICRO Addr lastAccessLine_ = kNoAddr;

    FDIP_STATE_MICRO Bpu *bpu_ = nullptr;
    FDIP_STATE_MICRO const ProgramImage *image_ = nullptr;
    /** BTB installs by the BTB-prefetch component (a stat). */
    FDIP_STATE_MICRO std::uint64_t btbInstalls_ = 0;
};

} // namespace fdip

#endif // FDIP_PREFETCH_SN4L_DIS_H_
