/**
 * @file
 * The decoupled frontend: branch-prediction pipeline, FTQ, instruction
 * fetch pipeline with PFC, prefetch-queue drain, and all redirect /
 * repair machinery (paper Sections III and IV).
 *
 * Oracle convention: the frontend follows the committed trace. While
 * the predicted stream matches the trace ("on the correct path"),
 * predictions are checked against the trace at prediction time;
 * training happens there too (ChampSim-style immediate update). On a
 * divergence, the frontend keeps running down the *predicted* wrong
 * path — polluting the I-cache and FTQ realistically — until the
 * diverging instruction executes (backend callback) or PFC repairs the
 * stream early at pre-decode.
 */

#ifndef FDIP_CORE_FRONTEND_H_
#define FDIP_CORE_FRONTEND_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "bpu/bpu.h"
#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "core/backend.h"
#include "core/core_config.h"
#include "core/ftq.h"
#include "core/sim_stats.h"
#include "obs/cycle_account.h"
#include "obs/stat_registry.h"
#include "obs/tick_profiler.h"
#include "obs/trace_events.h"
#include "prefetch/prefetcher.h"
#include "trace/trace_gen.h"
#include "util/fixed_vector.h"
#include "util/flat_map.h"
#include "util/hotpath.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/**
 * The frontend pipeline complex.
 */
class Frontend
{
  public:
    Frontend(const CoreConfig &cfg, const Trace &trace, Bpu &bpu,
             Backend &backend, MemoryHierarchy &mem,
             InstPrefetcher &prefetcher, SimStats &stats);

    /** Advances the frontend one cycle (fills, fetch, predict). */
    void tick(Cycle now) FDIP_HOT_NOEXCEPT;

    /** Backend callback: a divergence-carrying instruction executed. */
    void onResolve(std::uint64_t token, std::uint64_t seq, Cycle now);

    const Ftq &ftq() const { return ftq_; }
    Cache &l1i() { return l1i_; }

    /** Lines tracked for prefetch-usefulness accounting. Stays bounded
     *  by the L1I/prefetch-buffer capacity (regression guard: entries
     *  are dropped on eviction). */
    std::size_t prefetchTrackingEntries() const
    {
        return linePrefetched_.size();
    }

    /** Attaches (or detaches, nullptr) the run's trace sink. */
    void attachTrace(TraceWriter *w) { tracer_.attach(w); }

    /** Attaches (or detaches, nullptr) the host tick-phase profiler;
     *  tick() then brackets its predict/I-cache/prefetch sub-phases. */
    void attachProfiler(TickProfiler *p) { profiler_ = p; }

    /** The fetch-side cycle-accounting signals as of the end of this
     *  tick (Core::run adds the backend's view and classifies). Pure
     *  read of frontend state — observation never mutates the model. */
    CycleSignals cycleSignals(Cycle now) const FDIP_HOT_NOEXCEPT;

    /** Registers the frontend's stats tree under @p prefix: the FTQ
     *  (plus its occupancy histogram), L1I, ITLB, optional prefetch
     *  buffer, and the demand-fill latency histogram. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    /** Outcome of scanning one instruction in the predict stage. */
    struct ScanResult
    {
        bool predTaken = false;
        Addr target = kNoAddr;
    };

    /// @{ Cycle phases.
    void processFills(Cycle now);
    void fetchCycle(Cycle now);
    void predictCycle(Cycle now);
    void drainPrefetchQueue(Cycle now);
    /// @}

    /// @{ Prediction helpers.
    ScanResult scanInst(FtqEntry &entry, std::uint8_t offset, Cycle now);
    /** Records a prediction-time divergence at trace position
     *  tracePos_: the owning block's checkpoints, its event prefix and
     *  the corrected event, replayed when the divergence resolves. */
    void recordDivergence(FtqEntry &entry, std::uint8_t offset, Addr pc,
                          const StaticInst &si, std::uint8_t cause);
    /// @}

    /// @{ Fetch helpers.
    void probeEntry(FtqEntry &entry, std::size_t pos, Cycle now);
    void deliverFromHead(Cycle now);
    /** PFC / GHR-fixup scan; true if a redirect was triggered. */
    bool predecodeEntry(FtqEntry &entry, Cycle now);
    void triggerPfc(FtqEntry &entry, std::uint8_t offset,
                    const StaticInst &si, Cycle now);
    void triggerGhrFixup(FtqEntry &entry, std::uint8_t offset, Cycle now);
    /// @}

    /// @{ Repair machinery.
    /** Restores speculative history + RAS to just before the
     *  instruction at @p offset of @p entry (snapshot + replay). */
    void rewindToPrefix(const FtqEntry &entry, std::uint8_t offset);
    /** Replays one recorded block event onto the speculative state. */
    void replayEvent(const BlockEvent &ev);
    /** Pushes one (possibly corrected) branch event onto the
     *  speculative history per the active policy. */
    void pushHistoryEvent(Addr pc, Addr target, bool taken);
    /// @}

    /**
     * An execute-time divergence resolution record. Repair state is
     * rebuilt lazily at resolution: restore the owning block's
     * snapshots, replay the recorded event prefix, then apply the
     * corrected event. (The corrected state cannot be checkpointed
     * eagerly: its history bits never enter the ring, where the wrong
     * path pushes its own.)
     */
    struct PendingDivergence
    {
        std::uint64_t token = 0;
        InstSeq traceIdx = 0;
        Addr correctNext = kNoAddr;
        std::uint8_t cause = 0;
        HistorySnapshot blockHistSnap;
        RasSnapshot blockRasSnap;
        std::array<BlockEvent, kInstsPerBlock> prefix{};
        std::uint8_t numPrefix = 0;
        BlockEvent corrected; ///< The diverging branch's actual outcome.
        bool delivered = false; ///< Instruction handed to the backend.
    };

    /** Mispredict cause buckets. */
    static constexpr std::uint8_t kCauseCondDir = 0;
    static constexpr std::uint8_t kCauseBtbMissTaken = 1;
    static constexpr std::uint8_t kCauseTarget = 2;
    static constexpr std::uint8_t kCausePfcMisfire = 3;

    /** An in-flight L1I fill. */
    struct InflightFill
    {
        Addr line = kNoAddr;
        Cycle ready = 0;
        Cycle issued = 0; ///< Issue cycle (latency histogram / tracing).
        bool isPrefetch = false;
        bool demandTouched = false; ///< A demand probe needs this line.
        bool wasHeadStart = false;  ///< Demand touch happened at FTQ head.
        /** A starved cycle was observed while this fill blocked the
         *  FTQ head (the paper's exposure criterion). */
        bool starvedWhileBlocking = false;
    };

    /// @{ Wiring.
    FDIP_STATE_MICRO const CoreConfig &cfg_;
    FDIP_STATE_MICRO const Trace &trace_;
    FDIP_STATE_MICRO const ProgramImage &image_;
    FDIP_STATE_MICRO Bpu &bpu_;
    FDIP_STATE_MICRO Backend &backend_;
    FDIP_STATE_MICRO MemoryHierarchy &mem_;
    FDIP_STATE_MICRO InstPrefetcher &prefetcher_;
    FDIP_STATE_MICRO SimStats &stats_;
    /// @}

    /// @{ Structures.
    FDIP_STATE_ARCH(sub) Ftq ftq_;
    FDIP_STATE_ARCH(sub) Cache l1i_;
    FDIP_STATE_ARCH(sub) Cache itlb_;
    /** Way of the last ITLB hit or fill, which the next ITLB access
     *  checks first (see probeEntry). */
    FDIP_STATE_MICRO unsigned itlbWay_ = 0;
    FDIP_STATE_ARCH(sub)
    std::unique_ptr<Cache> prefetchBuffer_; ///< Optional (original FDP).
    /** In-flight fills; capacity = the modeled MSHR count. */
    FDIP_STATE_MICRO FixedVector<InflightFill> fills_;
    /// @}

    /// @{ Observability. Histograms are sampled unconditionally (they
    /// are cheap and read-only); trace events go through tracer_ and
    /// cost one branch when no writer is attached.
    FDIP_STATE_MICRO Tracer tracer_;
    FDIP_STATE_MICRO StatHistogram ftqOccupancy_; ///< Per-tick occupancy.
    FDIP_STATE_MICRO StatHistogram fillLatency_;  ///< Fill latencies.
    FDIP_STATE_MICRO std::size_t lastTracedOccupancy_ =
        static_cast<std::size_t>(-1);
    FDIP_STATE_HOST TickProfiler *profiler_ = nullptr; ///< Core's sink.
    /// @}

    /// @{ Prediction stream state.
    FDIP_STATE_MICRO Addr predPc_;
    FDIP_STATE_MICRO InstSeq tracePos_ = 0;
    FDIP_STATE_MICRO InstSeq trainedUpTo_ = 0; ///< Train-once guard.
    FDIP_STATE_MICRO bool onCorrectPath_ = true;
    FDIP_STATE_MICRO std::uint64_t blockSeq_ = 0;
    FDIP_STATE_MICRO std::uint64_t instSeq_ = 0;
    FDIP_STATE_MICRO std::optional<PendingDivergence> pending_;
    FDIP_STATE_MICRO std::uint64_t nextToken_ = 1;
    FDIP_STATE_MICRO Cycle predStallUntil_ = 0; ///< Redirect bubble.
    FDIP_STATE_MICRO unsigned l2BtbBubble_ = 0; ///< L2-BTB re-steer bubble.
    /// @}

    /// @{ Cycle-accounting signal state (observation-only: consumed by
    /// cycleSignals(), never read back by the model).
    FDIP_STATE_MICRO Cycle itlbStallUntil_ = 0; ///< Head ITLB refill wait.
    FDIP_STATE_MICRO Cycle redirectShadowUntil_ = 0; ///< Post-redirect window.
    /// @}

    /** Whether the last fill of a line was a prefetch (usefulness).
     *  Entries are erased when the line leaves the L1I so the map stays
     *  bounded by the cache's line count; the ctor preallocates for
     *  that bound so steady-state puts never allocate. */
    FDIP_STATE_MICRO FlatMap<Addr, bool> linePrefetched_;

    /** Drops usefulness tracking for an evicted line (kNoAddr ok). */
    void forgetEvicted(Addr evicted_line);

    /** Structural invariants verified at the end of every tick();
     *  compiled out when invariant checks are disabled. */
    void checkTickInvariants(Cycle now);

    FDIP_STATE_MICRO Cycle lastTickPlus1_ = 0; ///< Monotone-tick watermark.
};

} // namespace fdip

#endif // FDIP_CORE_FRONTEND_H_
