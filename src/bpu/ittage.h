/**
 * @file
 * An ITTAGE indirect branch target predictor (Seznec, CBP-3 style),
 * sharing the frontend BranchHistory like TAGE.
 */

#ifndef FDIP_BPU_ITTAGE_H_
#define FDIP_BPU_ITTAGE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "bpu/history.h"
#include "check/schema.h"
#include "util/rng.h"
#include "util/sat_counter.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/** ITTAGE sizing parameters. */
struct IttageConfig
{
    unsigned numTables = 6;
    unsigned minHistory = 4;    ///< Events.
    unsigned maxHistory = 260;  ///< Events (paper: 260-bit like TAGE).
    unsigned logEntries = 9;    ///< log2 entries per tagged table.
    unsigned tagBits = 9;
    unsigned logBaseEntries = 11; ///< Last-target base table.
};

/** Confidence counter width (construction uses SatCounter(2, 0)). */
inline constexpr unsigned kIttageConfBits = 2;
/** Usefulness counter width (construction uses SatCounter(1, 0)). */
inline constexpr unsigned kIttageUsefulBits = 1;
/** Allocation-tiebreak LFSR state (modeled by the 64-bit Rng). */
inline constexpr unsigned kIttageAllocRngBits = 64;

/** Bits of one tagged-table entry: tag + valid + target + conf + u. */
constexpr std::uint64_t
ittageTaggedEntryBits(const IttageConfig &cfg)
{
    return std::uint64_t{cfg.tagBits} + 1 + kSchemaAddrBits +
           kIttageConfBits + kIttageUsefulBits;
}

/**
 * Exact modeled storage of an Ittage built from @p cfg. Single source
 * of truth for Ittage::storageBits(), Ittage::storageSchema(), and the
 * compile-time pin in check/budget.h.
 */
constexpr std::uint64_t
ittageStorageBits(const IttageConfig &cfg)
{
    return cfg.numTables * (std::uint64_t{1} << cfg.logEntries) *
               ittageTaggedEntryBits(cfg) +
           (std::uint64_t{1} << cfg.logBaseEntries) * kSchemaAddrBits +
           kIttageAllocRngBits;
}

/** Prediction metadata threaded to the update. predict() writes the
 *  index and tag of the configured tables only; the rest of the arrays
 *  is never read, so it is left uninitialised. */
struct IttagePrediction
{
    static constexpr unsigned kMaxTables = 8;

    Addr target = kNoAddr;     ///< Final predicted target.
    int provider = -1;         ///< -1 = base table.
    bool providerConfident = false;
    std::uint32_t baseIndex = 0;
    std::array<std::uint32_t, kMaxTables> indices; ///< Per-table index.
    std::array<std::uint32_t, kMaxTables> tags;    ///< Per-table tag.
};

/**
 * The ITTAGE predictor.
 */
class Ittage
{
  public:
    Ittage(const IttageConfig &cfg, BranchHistory &hist);

    /**
     * Predicts the target of the indirect branch at @p pc. Returns
     * kNoAddr if no component has any target yet.
     */
    Addr predict(Addr pc, IttagePrediction &meta) const;

    /** Trains with the resolved @p target. */
    void update(Addr pc, Addr target, const IttagePrediction &meta);

    /** Modeled storage in bits; equals storageSchema().totalBits(). */
    std::uint64_t storageBits() const;

    /** Exact per-field storage declaration. */
    StorageSchema storageSchema() const;

    /** History length (in events) of tagged table @p t. */
    unsigned historyLength(unsigned t) const { return histLens_[t]; }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        bool valid = false;
        Addr target = kNoAddr;
        SatCounter conf;
        SatCounter useful;

        Entry() : conf(2, 0), useful(1, 0) {}
    };

    std::uint32_t tableIndex(Addr pc, unsigned t) const;
    std::uint16_t tableTag(Addr pc, unsigned t) const;

    FDIP_STATE_MICRO IttageConfig cfg_;
    FDIP_STATE_MICRO BranchHistory &hist_;
    FDIP_STATE_MICRO std::vector<unsigned> histLens_;
    FDIP_STATE_MICRO std::vector<unsigned> idxFold_;
    FDIP_STATE_MICRO std::vector<unsigned> tagFoldA_;
    FDIP_STATE_MICRO std::vector<unsigned> tagFoldB_;
    FDIP_STATE_ARCH(tagged.tag, tagged.valid, tagged.target, tagged.conf,
                    tagged.useful)
    std::vector<std::vector<Entry>> tables_;
    FDIP_STATE_ARCH(base.target) std::vector<Addr> base_; ///< Last-target table.
    FDIP_STATE_ARCH(alloc_lfsr) Rng rng_;
};

} // namespace fdip

#endif // FDIP_BPU_ITTAGE_H_
