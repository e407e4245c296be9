/**
 * @file
 * Global branch history with pluggable management policy.
 *
 * This implements the paper's central history mechanisms (Section
 * III-A, Table V):
 *
 *  - THR  : taken-only branch *target* history. Only predicted-taken
 *           branches push events (a hash of PC and target), so BTB-miss
 *           not-taken branches cannot disturb the history.
 *  - GHR  : all-branch *direction* history. Every detected branch
 *           pushes its predicted direction. Whether BTB-miss not-taken
 *           branches are later fixed up (GHR2/3) or silently lost
 *           (GHR0/1) is decided by the frontend, not here.
 *  - Ideal: direction history updated by an oracle for every branch.
 *
 * The history is a bit ring-buffer plus a set of incrementally-folded
 * images (Seznec-style) registered by the TAGE/ITTAGE tables. Views with
 * the same window length and width share one fold, and folds with the
 * same window length read the window's outgoing bit once per push.
 *
 * A snapshot is only the ring head and the plain recent-bit register
 * (16 bytes). Restoring one on a pipeline flush, PFC redirect or GHR
 * fixup rewinds every fold by undoing, newest first, each bit pushed
 * since: a fold update is invertible given the bit that entered and the
 * bit that left the window, and both are still in the ring. That holds
 * while the ring slots the rewind reads have not been reused, i.e.
 * while (furthest head reached - snapshot head) + longest window fits
 * in the 4096-bit ring; restore() panics otherwise. It also needs the
 * bits before the snapshot head to be the ones pushed before it was
 * taken, which the frontend guarantees: every restore discards all
 * younger snapshots (it truncates or clears the FTQ), and the one
 * snapshot that may survive, a pending divergence's, is older than the
 * restore point.
 *
 * Note on Eq. (3): the paper folds the full-width target hash into the
 * shifted history. Like the public gem5/ChampSim FDIP implementations,
 * we push a fixed number of hash bits per taken branch instead, which
 * keeps the shift-register model (and incremental folding) exact.
 */

#ifndef FDIP_BPU_HISTORY_H_
#define FDIP_BPU_HISTORY_H_

#include <array>
#include <cstdint>
#include <vector>

#include "check/schema.h"
#include "util/hotpath.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/** History management policy (paper Table V). */
enum class HistoryPolicy : std::uint8_t
{
    kTargetHistory, ///< THR: taken-only branch target history.
    kDirectionHistory, ///< GHR: all-(detected-)branch direction history.
    kIdealDirectionHistory, ///< Oracle direction history (no BTB needs).
};

/** Human-readable policy name. */
const char *historyPolicyName(HistoryPolicy p);

/**
 * A folded (compressed) image of the most recent @c origLen history
 * bits, XOR-folded down to @c compLen bits and maintained
 * incrementally as bits are pushed: the bit of age a (0 = newest) lands
 * in bit (a mod compLen).
 */
struct FoldedHistory
{
    unsigned origLen = 0;   ///< Window length in history bits.
    unsigned compLen = 0;   ///< Folded width in bits.
    unsigned outShift = 0;  ///< origLen % compLen: the outgoing bit's slot.
    std::uint32_t mask = 0; ///< The low compLen bits.
    std::uint32_t comp = 0; ///< Current folded value.

    /** Shifts @p new_bit in and the window's outgoing @p out_bit out. */
    FDIP_HOT_PATH void
    update(unsigned new_bit, unsigned out_bit)
    {
        comp = (comp << 1) | new_bit;
        comp ^= static_cast<std::uint32_t>(out_bit) << outShift;
        comp ^= comp >> compLen;
        comp &= mask;
    }

    /** Exact inverse of update(@p new_bit, @p out_bit). */
    FDIP_HOT_PATH void
    undo(unsigned new_bit, unsigned out_bit)
    {
        const std::uint32_t u =
            comp ^ (static_cast<std::uint32_t>(out_bit) << outShift);
        const std::uint32_t wrapped = (u & 1) ^ new_bit;
        comp = (u >> 1) | (wrapped << (compLen - 1));
    }
};

/**
 * Checkpoint of the speculative history: restoring one rewinds the
 * history to the snapshot point exactly (see the file comment for the
 * precondition). Fixed-size so per-block snapshots never allocate.
 */
struct HistorySnapshot
{
    std::uint64_t headPos = 0;    ///< Bit-ring head position.
    std::uint64_t recentBits = 0; ///< Plain recent-bit register.
};

/**
 * The global history register with registered folded views.
 */
class BranchHistory
{
  public:
    /**
     * @param policy        management policy.
     * @param bits_per_event history bits pushed per event (1 for
     *                      direction history, typically 2 for THR).
     */
    explicit BranchHistory(HistoryPolicy policy, unsigned bits_per_event = 0);

    HistoryPolicy policy() const { return policy_; }
    unsigned bitsPerEvent() const { return bitsPerEvent_; }

    /** Maximum registered folded views (TAGE + ITTAGE register 54). */
    static constexpr std::size_t kMaxFolds = 64;

    /**
     * Registers a folded view over the last @p length_bits history bits
     * compressed to @p folded_bits. Returns a fold id for folded(). A
     * view with the (length, width) of an earlier one shares its fold.
     */
    unsigned registerFold(unsigned length_bits, unsigned folded_bits);

    /** Current folded value of view @p fold_id. */
    FDIP_HOT_PATH std::uint32_t
    folded(unsigned fold_id) const
    {
        return folds_[viewFold_[fold_id]].comp;
    }

    /** The last 64 raw history bits (newest in bit 0). */
    std::uint64_t recentBits() const { return recentBits_; }

    /**
     * Pushes one branch event.
     *
     * Under a direction policy this pushes 1 bit (@p taken). Under the
     * target policy, events are pushed only for taken branches and
     * consist of bitsPerEvent() bits hashed from @p pc and @p target.
     */
    void pushBranch(Addr pc, Addr target, bool taken);

    /** True if this policy records an event for this outcome. */
    bool
    recordsEvent(bool taken) const
    {
        return policy_ != HistoryPolicy::kTargetHistory || taken;
    }

    /** Captures the speculative state (ring head + recent bits). */
    FDIP_HOT_PATH HistorySnapshot
    snapshot() const
    {
        return HistorySnapshot{headPos_, recentBits_};
    }

    /**
     * Restores a snapshot taken earlier on this object by rewinding
     * every fold over the bits pushed since. Panics if the snapshot is
     * ahead of the head or the rewind would read overwritten ring bits.
     */
    void restore(const HistorySnapshot &snap);

    /** Total events pushed since construction (monotonic). */
    std::uint64_t numEvents() const { return numEvents_; }

    /** Number of registered folded views. */
    std::size_t numFolds() const { return numViews_; }

    /** Number of distinct folds the views share (one per (length,
     *  width)); each pushed bit updates this many. */
    std::size_t numDistinctFolds() const { return folds_.size(); }

    /**
     * Modeled storage in bits: the exact sum of the registered folded
     * views' widths. The folds are the only history state the
     * predictors read at prediction time; the 4Kb ring and the plain
     * recent-bit register are simulator conveniences (the ring replays
     * out-bits that real hardware keeps inside each fold's shift
     * window) and are not charged. Views sharing one simulated fold are
     * each charged, so the budget does not depend on that host-side
     * saving. Equals storageSchema().totalBits().
     */
    std::uint64_t storageBits() const;

    /**
     * Exact per-field storage declaration: one field per distinct view
     * width (in registration order), counting the views of that width.
     */
    StorageSchema storageSchema() const;

    /** Ring capacity in history bits. */
    static constexpr unsigned kRingBits = 4096;
    /** Ring bits a window must leave free, so a snapshot this many
     *  bits old can still be rewound. */
    static constexpr unsigned kRewindSlackBits = 512;

  private:
    void pushBit(unsigned bit);

    FDIP_HOT_PATH unsigned
    bitAt(std::uint64_t pos) const
    {
        return (ring_[(pos / 64) % kRingWords] >> (pos % 64)) & 1;
    }

    /** The bit leaving a window of @p len bits when the bit at @p pos
     *  enters it (0 until the window has filled). */
    FDIP_HOT_PATH unsigned
    outBitAt(std::uint64_t pos, unsigned len) const
    {
        return pos >= len ? bitAt(pos - len) : 0;
    }

    static constexpr std::size_t kRingWords = kRingBits / 64;

    FDIP_STATE_MICRO HistoryPolicy policy_;
    FDIP_STATE_MICRO unsigned bitsPerEvent_;
    FDIP_STATE_MICRO std::uint64_t headPos_ = 0; ///< Next bit position to write.
    /** Furthest head reached before the latest restore: ring slots are
     *  reused from there, which bounds how far back a rewind may read. */
    FDIP_STATE_MICRO std::uint64_t highWater_ = 0;
    FDIP_STATE_MICRO std::uint64_t recentBits_ = 0;
    FDIP_STATE_MICRO std::uint64_t numEvents_ = 0;
    FDIP_STATE_MICRO std::uint64_t ring_[kRingWords] = {};
    /** Distinct folds, sorted by window length. */
    FDIP_STATE_ARCH(fold...) std::vector<FoldedHistory> folds_;
    /** Fold id (registration order) -> index into folds_. */
    FDIP_STATE_MICRO std::array<std::uint8_t, kMaxFolds> viewFold_{};
    FDIP_STATE_MICRO unsigned numViews_ = 0;
};

} // namespace fdip

#endif // FDIP_BPU_HISTORY_H_
