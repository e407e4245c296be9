/**
 * @file
 * The Fetch Target Queue.
 *
 * Each entry covers one 32-byte-aligned instruction block and carries
 * exactly the architectural fields of the paper's Table III (65 bits,
 * 195 bytes for 24 entries). The entry additionally carries
 * simulator-side bookkeeping (snapshots for repair, oracle trace
 * positions, fill-tracking) that models no extra hardware.
 */

#ifndef FDIP_CORE_FTQ_H_
#define FDIP_CORE_FTQ_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "bpu/history.h"
#include "bpu/ras.h"
#include "util/invariant.h"
#include "check/schema.h"
#include "obs/stat_registry.h"
#include "trace/inst.h"
#include "util/circular_queue.h"
#include "util/hotpath.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/** FTQ entry state machine (paper Section IV-A). */
enum class FtqState : std::uint8_t
{
    kInvalid = 0,
    kPredicted = 1,  ///< Prediction done; ready for address translation.
    kFilling = 2,    ///< Translated; waiting for the I-cache fill.
    kReady = 3,      ///< Line resident; ready to feed the decode queue.
};

/**
 * One branch-history/RAS event recorded while predicting a block, kept
 * so redirects (mispredict resolution, PFC, GHR fixups) can replay the
 * block prefix exactly.
 */
struct BlockEvent
{
    Addr pc = kNoAddr;
    Addr target = kNoAddr;
    std::uint8_t offset = 0;  ///< Instruction offset within the block.
    InstClass kind = InstClass::kAlu;
    bool taken = false;
    bool pushedHistory = false; ///< Whether it pushed a history event.
};

/**
 * The fields of an FtqEntry other than its event log: starting a new
 * block in a reused queue slot resets exactly these.
 */
struct FtqBlockFields
{
    /// @{ Architectural fields (Table III; 65 bits total).
    Addr startAddr = kNoAddr;     ///< 48-bit instruction start address.
    bool predictedTaken = false;  ///< Block ends in a predicted-taken br.
    std::uint8_t termOffset = 7;  ///< Offset of the last instruction.
    std::uint8_t icacheWay = 0;   ///< Way to fetch without a tag re-probe.
    FtqState state = FtqState::kInvalid; ///< 2-bit state.
    std::uint8_t dirHints = 0;    ///< 1 direction-hint bit per inst.
    /// @}

    /// @{ Prediction-time context for repair (models checkpointing).
    HistorySnapshot histSnap;     ///< History before this block.
    RasSnapshot rasSnap;          ///< RAS recovery state before block.
    std::uint8_t numEvents = 0;   ///< Recorded events (FtqEntry::events).
    std::uint8_t detectedMask = 0; ///< BTB-hit bitmap (for GHR fixup).
    /// @}

    /// @{ Simulator bookkeeping.
    std::uint64_t seq = 0;        ///< Monotonic block sequence number.
    InstSeq traceIdx = 0;         ///< Trace index of first inst (correct path).
    bool onCorrectPath = false;
    Cycle readyAt = 0;            ///< When prediction-pipeline latency elapses.
    Addr lineAddr = kNoAddr;      ///< I-cache line covering the block.
    Cycle deliverableAt = 0;      ///< Data-array/pipe latency gate.
    std::uint8_t nextDeliverOffset = 0; ///< Next inst offset to deliver.
    bool predecoded = false;      ///< PFC/fixup scan done for this entry.
    /** Offset of the instruction where the predicted stream diverged
     *  from the trace (255 = none); later offsets are wrong-path. */
    std::uint8_t divergeOffset = 255;
    /// @}
};

/**
 * An FTQ entry: one 32B-aligned instruction block.
 */
struct FtqEntry : FtqBlockFields
{
    /** Branch events recorded while predicting the block, for repair
     *  replay. Only the first numEvents are meaningful. */
    std::array<BlockEvent, kInstsPerBlock> events{};

    /**
     * Starts a new block at @p start in this (possibly reused) entry:
     * every field but the event log returns to its default, and the
     * log's stale events lie beyond numEvents = 0, where nothing reads.
     */
    FDIP_HOT_PATH void
    startBlock(Addr start)
    {
        static_cast<FtqBlockFields &>(*this) = FtqBlockFields{};
        startAddr = start;
        nextDeliverOffset = startOffset();
    }

    /** Offset of @p pc within this 32B block. */
    FDIP_HOT_PATH static std::uint8_t
    offsetOf(Addr pc)
    {
        return static_cast<std::uint8_t>((pc % kFetchBlockBytes) /
                                         kInstBytes);
    }

    /** 32B block base address. */
    FDIP_HOT_PATH Addr
    blockBase() const
    {
        return startAddr & ~static_cast<Addr>(kFetchBlockBytes - 1);
    }

    /** First instruction offset within the block. */
    FDIP_HOT_PATH std::uint8_t startOffset() const { return offsetOf(startAddr); }

    /** PC of the instruction at block @p offset. */
    FDIP_HOT_PATH Addr
    pcAt(std::uint8_t offset) const
    {
        return blockBase() + static_cast<Addr>(offset) * kInstBytes;
    }

    /** Direction hint of the instruction at @p offset. */
    FDIP_HOT_PATH bool
    hintAt(std::uint8_t offset) const
    {
        return ((dirHints >> offset) & 1) != 0;
    }

    /** Number of instructions this entry will deliver. */
    unsigned
    numInsts() const
    {
        return termOffset - startOffset() + 1;
    }

    /** Architectural storage of one entry in bits (Table III). */
    static constexpr unsigned kArchBitsPerEntry =
        48 + 1 + 3 + 3 + 2 + 8;
};

/**
 * The FTQ proper: a bounded FIFO of FtqEntry.
 */
class Ftq
{
  public:
    explicit Ftq(unsigned entries) : q_(entries) {}

    FDIP_HOT_PATH bool full() const { return q_.full(); }
    FDIP_HOT_PATH bool empty() const { return q_.empty(); }
    FDIP_HOT_PATH std::size_t size() const { return q_.size(); }
    FDIP_HOT_PATH std::size_t capacity() const { return q_.capacity(); }

    /**
     * Appends the tail slot as it stands and returns it, for the caller
     * to build the new entry in place (FtqEntry::startBlock). The FTQ
     * must not be full.
     */
    FDIP_HOT_PATH FtqEntry &
    pushSlot() FDIP_HOT_NOEXCEPT
    {
        FDIP_CHECK(!q_.full(),
                   "FTQ overflow: occupancy %zu at capacity %zu", q_.size(),
                   q_.capacity());
        return q_.pushSlot();
    }
    /** Appends @p e. The FTQ must not be full. */
    FDIP_HOT_PATH void
    push(FtqEntry &&e) FDIP_HOT_NOEXCEPT
    {
        pushSlot() = std::move(e);
    }
    FDIP_HOT_PATH void
    popHead() FDIP_HOT_NOEXCEPT
    {
        q_.popFront();
        if (probed_ > 0)
            --probed_;
    }
    FDIP_HOT_PATH FtqEntry &at(std::size_t i) FDIP_HOT_NOEXCEPT
    {
        return q_.at(i);
    }
    FDIP_HOT_PATH const FtqEntry &at(std::size_t i) const
        FDIP_HOT_NOEXCEPT
    {
        return q_.at(i);
    }
    FDIP_HOT_PATH FtqEntry &head() FDIP_HOT_NOEXCEPT
    {
        return q_.front();
    }

    /** Discards every entry younger than position @p keep_count - 1. */
    FDIP_HOT_PATH void
    truncateAfter(std::size_t keep_count) FDIP_HOT_NOEXCEPT
    {
        q_.resizeTo(keep_count);
        probed_ = std::min(probed_, keep_count);
    }

    FDIP_HOT_PATH void
    clear()
    {
        q_.clear();
        probed_ = 0;
    }

    /**
     * The probe cursor: a count of head entries known to be past
     * kPredicted, where the fill stage's scan for entries to probe
     * starts. It stays exact because entry states only move forward
     * (kPredicted, kFilling, kReady) and entries join at the tail;
     * popHead, truncateAfter and clear keep it within the queue.
     */
    FDIP_HOT_PATH std::size_t probed() const { return probed_; }

    /** Moves the probe cursor past the entry at it, which the caller
     *  has seen past kPredicted. */
    FDIP_HOT_PATH void advanceProbed() { ++probed_; }

    /** Calls @p f on every entry, head first (CircularQueue::forEach). */
    template <typename F>
    FDIP_HOT_PATH void
    forEach(F &&f) const FDIP_HOT_NOEXCEPT
    {
        q_.forEach(std::forward<F>(f));
    }

    /** Total architectural storage in bytes (Table III: 195B for 24). */
    std::uint64_t
    archStorageBytes() const
    {
        return (q_.capacity() * FtqEntry::kArchBitsPerEntry + 7) / 8;
    }

    /** Architectural storage in bits (budget-accounting interface). */
    std::uint64_t
    storageBits() const
    {
        return q_.capacity() * FtqEntry::kArchBitsPerEntry;
    }

    /** Exact per-field declaration of the Table III entry fields. */
    StorageSchema
    storageSchema() const
    {
        const std::uint64_t n = q_.capacity();
        StorageSchema s("FTQ");
        s.add("start_addr", kSchemaAddrBits, n)
            .add("predicted_taken", 1, n)
            .add("term_offset", 3, n)
            .add("icache_way", 3, n)
            .add("state", 2, n)
            .add("dir_hints", 8, n);
        return s;
    }

    /** Registers FTQ stats under @p prefix ("frontend.ftq.capacity");
     *  the occupancy *histogram* is sampled and registered by the
     *  owning Frontend. */
    void
    registerStats(StatRegistry &reg, const std::string &prefix) const
    {
        reg.addCounter(prefix + ".capacity",
                       [this] { return std::uint64_t{q_.capacity()}; },
                       "configured FTQ entries");
        reg.addCounter(prefix + ".size",
                       [this] { return std::uint64_t{q_.size()}; },
                       "current occupancy");
        reg.addCounter(prefix + ".storage_bits",
                       [this] { return storageBits(); },
                       "architectural storage (Table III)");
    }

  private:
    FDIP_STATE_ARCH(start_addr, predicted_taken, term_offset, icache_way,
                    state, dir_hints)
    CircularQueue<FtqEntry> q_;
    FDIP_STATE_MICRO std::size_t probed_ = 0; ///< See probed().
};

} // namespace fdip

#endif // FDIP_CORE_FTQ_H_
