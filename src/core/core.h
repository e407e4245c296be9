/**
 * @file
 * The top-level simulated core: BPU + decoupled frontend + memory
 * hierarchy + backend, driven over one trace.
 */

#ifndef FDIP_CORE_CORE_H_
#define FDIP_CORE_CORE_H_

#include <memory>
#include <vector>

#include "bpu/bpu.h"
#include "cache/hierarchy.h"
#include "core/backend.h"
#include "core/core_config.h"
#include "core/frontend.h"
#include "core/sim_stats.h"
#include "obs/heartbeat.h"
#include "obs/stat_registry.h"
#include "obs/tick_profiler.h"
#include "obs/trace_events.h"
#include "prefetch/prefetcher.h"
#include "trace/trace_gen.h"
#include "util/state.h"

namespace fdip
{

/**
 * Registers the "core.*" slice of @p s: every raw SimStats counter,
 * the core.cycles.* accounting buckets, and the derived metrics. This
 * is the SimStats-only subtree of Core::registerStats, exposed as a
 * free function so reports can synthesize a stat dump from bare
 * SimStats (campaign-spool cache hits carry counters but no registry
 * snapshot). @p s must outlive any snapshot of @p reg.
 */
void registerCoreSimStats(StatRegistry &reg, const SimStats &s);

/**
 * One simulated core instance, bound to a trace.
 */
class Core
{
  public:
    /**
     * @param cfg        core configuration (copied).
     * @param trace      the committed-path trace to run (borrowed; must
     *                   outlive the core).
     * @param prefetcher the L1I prefetcher (owned).
     */
    Core(const CoreConfig &cfg, const Trace &trace,
         std::unique_ptr<InstPrefetcher> prefetcher);

    /**
     * Runs until every trace instruction has committed; the first
     * @p warmup_insts commits do not count toward the statistics.
     * Returns the post-warmup statistics.
     */
    SimStats run(std::uint64_t warmup_insts = 0);

    /** Statistics (valid during/after run()). */
    const SimStats &stats() const { return stats_; }

    const CoreConfig &config() const { return cfg_; }
    Bpu &bpu() { return bpu_; }
    Frontend &frontend() { return frontend_; }
    MemoryHierarchy &memory() { return mem_; }

    /**
     * Heartbeat time series recorded by run() when
     * cfg.obs.heartbeatInterval is non-zero: one sample each time the
     * post-warmup committed-instruction count crosses a multiple of the
     * interval (at most one per cycle — the commit width can step past
     * several multiples at once).
     */
    const std::vector<HeartbeatSample> &heartbeats() const
    {
        return heartbeats_;
    }

    /** Attaches (or detaches, nullptr) a Chrome-trace sink; events are
     *  emitted by the frontend while run() executes. */
    void attachTrace(TraceWriter *w) { frontend_.attachTrace(w); }

    /** Host tick-phase profile accumulated by run() when
     *  cfg.obs.profileInterval is non-zero (host telemetry only; see
     *  obs/tick_profiler.h). */
    const TickProfile &hostProfile() const { return profiler_.profile(); }

    /** Registers the whole core's stats tree: "core.*" (the SimStats
     *  counters and derived metrics), "frontend.*", "bpu.*", "mem.*",
     *  and "pf.<prefetcher>.*". */
    void registerStats(StatRegistry &reg) const;

  private:
    FDIP_STATE_MICRO CoreConfig cfg_;
    FDIP_STATE_MICRO const Trace &trace_;
    FDIP_STATE_MICRO SimStats stats_;
    FDIP_STATE_ARCH(sub) Bpu bpu_;
    FDIP_STATE_ARCH(sub) MemoryHierarchy mem_;
    FDIP_STATE_ARCH(sub) std::unique_ptr<InstPrefetcher> prefetcher_;
    FDIP_STATE_ARCH(sub) Backend backend_;
    FDIP_STATE_ARCH(sub) Frontend frontend_;
    FDIP_STATE_MICRO std::vector<HeartbeatSample> heartbeats_;
    FDIP_STATE_HOST TickProfiler profiler_; ///< Never touches stats_.
};

} // namespace fdip

#endif // FDIP_CORE_CORE_H_
