/**
 * @file
 * A TAGE conditional branch direction predictor (Seznec), operating on
 * the shared BranchHistory (so the history-management policies of the
 * paper directly affect its accuracy).
 */

#ifndef FDIP_BPU_TAGE_H_
#define FDIP_BPU_TAGE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "bpu/history.h"
#include "check/schema.h"
#include "util/bits.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/sat_counter.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/** TAGE sizing parameters. */
struct TageConfig
{
    unsigned numTables = 12;     ///< Tagged tables.
    unsigned minHistory = 4;     ///< Shortest history (events).
    unsigned maxHistory = 260;   ///< Longest history (events), paper V.
    unsigned logEntries = 10;    ///< log2 entries per tagged table.
    unsigned tagBits = 10;       ///< Partial tag width.
    unsigned counterBits = 3;    ///< Prediction counter width.
    unsigned usefulBits = 2;     ///< Usefulness counter width.
    unsigned logBaseEntries = 13; ///< log2 bimodal entries.
    std::uint32_t usefulResetPeriod = 1 << 18; ///< Allocations per u-reset.

    /**
     * Paper-named variants (Fig. 12): 9KB, 18KB (baseline), 36KB.
     * constexpr so the budget layer can static_assert the exact storage
     * of each variant; other sizes are a runtime fatal error.
     */
    static constexpr TageConfig
    sized(unsigned kilobytes)
    {
        TageConfig cfg;
        switch (kilobytes) {
          case 9:
            cfg.logEntries = 9;
            cfg.logBaseEntries = 12;
            break;
          case 18:
            cfg.logEntries = 10;
            cfg.logBaseEntries = 13;
            break;
          case 36:
            cfg.logEntries = 11;
            cfg.logBaseEntries = 14;
            break;
          default:
            fdip_fatal("unsupported TAGE size %u KB (use 9/18/36)",
                       kilobytes);
        }
        return cfg;
    }
};

/** Width of the single "use alt on new alloc" counter. */
inline constexpr unsigned kTageUseAltOnNaBits = 4;
/** Allocation-tiebreak LFSR state (modeled by the 64-bit Rng). */
inline constexpr unsigned kTageAllocRngBits = 64;
/** Bimodal base counter width (construction uses SatCounter(2, 1)). */
inline constexpr unsigned kTageBaseCtrBits = 2;

/** Bits of one tagged-table entry under @p cfg. */
constexpr std::uint64_t
tageTaggedEntryBits(const TageConfig &cfg)
{
    return std::uint64_t{cfg.counterBits} + cfg.tagBits + cfg.usefulBits;
}

/**
 * Exact modeled storage of a Tage built from @p cfg: tagged tables,
 * bimodal base, and the mutable side state (use-alt counter, useful
 * reset tick, allocation LFSR). Single source of truth for
 * Tage::storageBits(), Tage::storageSchema(), and the compile-time
 * pins in check/budget.h.
 */
constexpr std::uint64_t
tageStorageBits(const TageConfig &cfg)
{
    return cfg.numTables * (std::uint64_t{1} << cfg.logEntries) *
               tageTaggedEntryBits(cfg) +
           (std::uint64_t{1} << cfg.logBaseEntries) * kTageBaseCtrBits +
           kTageUseAltOnNaBits + ceilLog2(cfg.usefulResetPeriod) +
           kTageAllocRngBits;
}

/**
 * Prediction metadata threaded from predict() to update() so training
 * uses exactly the indices/tags computed at prediction time. predict()
 * writes the index and tag of the configured tables only; the rest of
 * the arrays is never read, so it is left uninitialised.
 */
struct TagePrediction
{
    static constexpr unsigned kMaxTables = 16;

    bool taken = false;         ///< Final prediction.
    bool providerPred = false;  ///< Prediction of the provider component.
    bool altPred = false;       ///< Alternate (next-longest) prediction.
    int provider = -1;          ///< Provider table; -1 = bimodal base.
    int altProvider = -1;       ///< Alternate table; -1 = bimodal base.
    bool providerWeak = false;  ///< Provider counter in a weak state.
    bool usedAlt = false;       ///< Alt overrode a newly-allocated entry.
    std::uint32_t baseIndex = 0;
    std::array<std::uint32_t, kMaxTables> indices; ///< Per-table index.
    std::array<std::uint32_t, kMaxTables> tags;    ///< Per-table tag.
};

/**
 * The TAGE predictor.
 */
class Tage
{
  public:
    /**
     * @param cfg  sizing.
     * @param hist shared global history; folded views are registered on
     *             it here, so one Tage binds to one BranchHistory.
     */
    Tage(const TageConfig &cfg, BranchHistory &hist);

    /** Predicts the direction of the branch at @p pc. */
    bool predict(Addr pc, TagePrediction &meta) const;

    /** Trains with the resolved direction using prediction-time @p meta. */
    void update(Addr pc, bool taken, const TagePrediction &meta);

    /** Modeled storage in bits; equals storageSchema().totalBits(). */
    std::uint64_t storageBits() const;

    /** Exact per-field storage declaration. */
    StorageSchema storageSchema() const;

    const TageConfig &config() const { return cfg_; }

    /** History length (in events) of tagged table @p t. */
    unsigned historyLength(unsigned t) const { return histLens_[t]; }

  private:
    struct Entry
    {
        SignedSatCounter ctr;
        std::uint16_t tag = 0;
        SatCounter useful;

        Entry() : ctr(3, 0), useful(2, 0) {}
    };

    using FoldIds = std::array<std::uint8_t, TagePrediction::kMaxTables>;

    FDIP_STATE_MICRO TageConfig cfg_;
    FDIP_STATE_MICRO BranchHistory &hist_;
    FDIP_STATE_MICRO std::vector<unsigned> histLens_; ///< Per-table lengths.
    FDIP_STATE_MICRO FoldIds idxFold_{};  ///< Fold ids: index.
    FDIP_STATE_MICRO FoldIds tagFoldA_{}; ///< Fold ids: tag A.
    FDIP_STATE_MICRO FoldIds tagFoldB_{}; ///< Fold ids: tag B.
    /** One allocation per table. A single table-major array (144 KiB
     *  for TAGE-18KB) simulated no faster and, through glibc's
     *  allocator, slowed the eip-client benchmark's set-up by ~14%. */
    FDIP_STATE_ARCH(tagged.ctr, tagged.tag, tagged.useful)
    std::vector<std::vector<Entry>> tables_;
    FDIP_STATE_ARCH(base.ctr)
    std::vector<SatCounter> base_;         ///< Bimodal base predictor.
    FDIP_STATE_ARCH(use_alt_on_na)
    SignedSatCounter useAltOnNa_;          ///< "Use alt on new alloc".
    FDIP_STATE_ARCH(useful_reset_tick) std::uint32_t allocCount_ = 0;
    FDIP_STATE_ARCH(alloc_lfsr) Rng rng_;
};

} // namespace fdip

#endif // FDIP_BPU_TAGE_H_
