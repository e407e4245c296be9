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
 * The history is a ring of the last 4096 pushed bits plus a set of
 * incrementally-folded images (Seznec-style) registered by the
 * TAGE/ITTAGE tables. Views with the same window length and width share
 * one fold. The ring stores one bit per byte, and its first 8 bytes are
 * mirrored past its end, so the 8 bits at any position are one
 * unaligned 8-byte load that never wraps. A fold step is shift-free: it
 * uses the fold's precomputed out-bit slot and width mask, and a push
 * applies all of an event's bits to a fold before moving to the next.
 * A slot the head has not reached yet reads 0, which is the out-bit of
 * a window that has not filled; the ring-slack rule below keeps every
 * position before the first push on such a slot.
 *
 * A snapshot is only the ring head and the plain recent-bit register
 * (16 bytes). Restoring one on a pipeline flush, PFC redirect or GHR
 * fixup rewinds every fold by undoing, newest first, the bits pushed
 * since: a fold update is invertible given the bits that entered and
 * the bits that left the window, and both are still in the ring. The
 * rewind undoes up to min(8, narrowest fold width) bits per fold step:
 * it packs the 8 ring bytes of the entering bits, and of each window's
 * leaving bits, into one byte with a multiply, and rotates the fold
 * back by the chunk length. That holds while the ring slots the rewind
 * reads have not been reused, i.e. while (furthest head reached -
 * snapshot head) + longest window fits in the 4096-bit ring; restore()
 * panics otherwise. It also needs the bits before the snapshot head to
 * be the ones pushed before it was taken, which the frontend
 * guarantees: every restore discards all younger snapshots (it
 * truncates or clears the FTQ), and the one snapshot that may survive,
 * a pending divergence's, is older than the restore point.
 *
 * Note on Eq. (3): the paper folds the full-width target hash into the
 * shifted history. Like the public gem5/ChampSim FDIP implementations,
 * we push a fixed number of hash bits per taken branch instead, which
 * keeps the shift-register model (and incremental folding) exact.
 */

#ifndef FDIP_BPU_HISTORY_H_
#define FDIP_BPU_HISTORY_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
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
    unsigned origLen = 0;     ///< Window length in history bits.
    unsigned compLen = 0;     ///< Folded width in bits.
    std::uint32_t outBit = 0; ///< 1 << (origLen % compLen): the out-bit's slot.
    std::uint32_t mask = 0;   ///< The low compLen bits.
    std::uint32_t comp = 0;   ///< Current folded value.

    /** Shifts @p new_bit in and the window's outgoing @p out_bit out
     *  (both 0 or 1), with no variable-count shift. */
    FDIP_HOT_PATH void
    update(std::uint32_t new_bit, std::uint32_t out_bit)
    {
        // Rotate left by one within compLen bits: a top bit shifted out
        // to bit compLen is cleared there and set in bit 0.
        const std::uint32_t shifted = comp << 1;
        const std::uint32_t rotated =
            shifted > mask ? shifted ^ (mask + 2) : shifted;
        comp = rotated ^ new_bit ^ out_bit * outBit;
    }

    /**
     * Exact inverse of @p k update() calls, 1 <= k <= min(8, compLen).
     * @p new_bits and @p out_bits hold their new and outgoing bits, the
     * last call's in bit 0.
     */
    FDIP_HOT_PATH void
    undo(unsigned k, std::uint32_t new_bits, std::uint32_t out_bits)
    {
        // k updates rotated the fold left by k, XORed the new bits in at
        // the bottom, and the out-bits in at outBit's slot, rotated on
        // from there: XOR both back out, then rotate right by k.
        const std::uint64_t out = std::uint64_t{out_bits} * outBit;
        const std::uint32_t x =
            comp ^ new_bits ^
            static_cast<std::uint32_t>((out & mask) | (out >> compLen));
        // x * (mask + 2) is x twice over, side by side.
        comp = static_cast<std::uint32_t>(
                   (std::uint64_t{x} * (std::uint64_t{mask} + 2)) >> k) &
               mask;
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
    /** History bits a THR event pushes (Eq. (2)'s hash, truncated). */
    static constexpr unsigned kThrBitsPerEvent = 2;

    explicit BranchHistory(HistoryPolicy policy);

    HistoryPolicy policy() const { return policy_; }

    /** History bits per event: kThrBitsPerEvent under THR, else 1. */
    unsigned
    bitsPerEvent() const
    {
        return policy_ == HistoryPolicy::kTargetHistory ? kThrBitsPerEvent
                                                        : 1;
    }

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
    /** Ring bytes mirrored past its end: the widest read is 8 bits. */
    static constexpr unsigned kMirrorBytes = 8;

    /** Pushes the low N (<= kMirrorBytes) bits of @p bits, bit 0
     *  first, stepping each fold over all of them in turn. */
    template <unsigned N>
    void pushBits(std::uint64_t bits);

    /** Ring slot of history position @p pos. A position before the
     *  first push wraps to a slot the head has not reached. */
    FDIP_HOT_PATH static constexpr std::size_t
    slotOf(std::uint64_t pos)
    {
        return static_cast<std::size_t>(pos % kRingBits);
    }

    /** The history bits at positions @p pos .. @p pos + 7 packed into
     *  one byte, the bit at pos + 7 (the newest) in bit 0. */
    FDIP_HOT_PATH std::uint32_t
    packed8(std::uint64_t pos) const
    {
        static_assert(std::endian::native == std::endian::little,
                      "ring byte i must load into bits 8i..8i+7");
        std::uint64_t bytes = 0;
        std::memcpy(&bytes, &ring_[slotOf(pos)], sizeof(bytes));
        // Each byte is 0 or 1, and byte i's bit lands alone in bit
        // 63 - i of the product.
        return static_cast<std::uint32_t>(
            (bytes * 0x8040201008040201ULL) >> 56);
    }

    FDIP_STATE_MICRO HistoryPolicy policy_;
    FDIP_STATE_MICRO std::uint64_t headPos_ = 0; ///< Next bit position to write.
    /** Furthest head reached before the latest restore: ring slots are
     *  reused from there, which bounds how far back a rewind may read. */
    FDIP_STATE_MICRO std::uint64_t highWater_ = 0;
    FDIP_STATE_MICRO std::uint64_t recentBits_ = 0;
    FDIP_STATE_MICRO std::uint64_t numEvents_ = 0;
    /** One history bit per byte; the last kMirrorBytes bytes mirror
     *  the first ones. */
    FDIP_STATE_MICRO std::uint8_t ring_[kRingBits + kMirrorBytes] = {};
    /** Distinct folds, in registration order. */
    FDIP_STATE_ARCH(fold...) std::vector<FoldedHistory> folds_;
    /** Bits a rewind undoes per fold step: min(8, narrowest fold). */
    FDIP_STATE_MICRO unsigned undoChunk_ = kMirrorBytes;
    FDIP_STATE_MICRO unsigned longestWindow_ = 0; ///< Longest fold window.
    /** Fold id (registration order) -> index into folds_. */
    FDIP_STATE_MICRO std::array<std::uint8_t, kMaxFolds> viewFold_{};
    FDIP_STATE_MICRO unsigned numViews_ = 0;
};

} // namespace fdip

#endif // FDIP_BPU_HISTORY_H_
