/**
 * @file
 * The experiment harness: runs one core configuration across a
 * workload suite and aggregates metrics the way the paper does
 * (geometric-mean IPC speedups, arithmetic-mean MPKI).
 */

#ifndef FDIP_SIM_EXPERIMENT_H_
#define FDIP_SIM_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/core.h"
#include "core/core_config.h"
#include "core/sim_stats.h"
#include "obs/heartbeat.h"
#include "obs/stat_registry.h"
#include "obs/tick_profiler.h"
#include "prefetch/prefetcher.h"
#include "trace/suite.h"

namespace fdip
{

/** Builds a prefetcher instance for one trace. */
using PrefetcherFactory =
    std::function<std::unique_ptr<InstPrefetcher>(const Trace &)>;

/** A factory for the null prefetcher. */
PrefetcherFactory noPrefetcher();

/** Result of one (config, workload) simulation. */
struct RunResult
{
    std::string workload;
    SimStats stats;

    /** Heartbeat time series (empty unless cfg.obs.heartbeatInterval
     *  was set; see Core::heartbeats()). */
    std::vector<HeartbeatSample> heartbeats;

    /** Full stat-registry snapshot (empty unless cfg.obs.collectStats
     *  was set). */
    std::vector<StatSample> statDump;

    /** Host tick-phase profile (all-zero unless cfg.obs.profileInterval
     *  was set). Host telemetry only — never architectural. */
    TickProfile hostPhases;
};

/** Result of one configuration across the suite. */
struct SuiteResult
{
    std::string label;
    std::vector<RunResult> runs;

    /** Geometric-mean IPC across workloads. */
    double geomeanIpc() const;
    /** Arithmetic-mean branch MPKI. */
    double meanMpki() const;
    /** Arithmetic-mean starvation cycles per kilo-instruction. */
    double meanStarvationPerKi() const;
    /** Arithmetic-mean L1I tag accesses per kilo-instruction. */
    double meanTagAccessesPerKi() const;

    /** Geomean speedup of this result over @p base (1.0 = equal). */
    double speedupOver(const SuiteResult &base) const;
};

/**
 * Runs one (config, workload) pair: the unit of work shared by the
 * serial and parallel experiment engines. @p cfg must already have had
 * applyHistoryScheme() called; the trace is borrowed read-only, so many
 * concurrent runs may share one decoded trace. Fills host wall-clock
 * telemetry (SimStats::hostWallSeconds) as a side effect.
 */
RunResult runOne(const CoreConfig &cfg, const SuiteEntry &entry,
                 const PrefetcherFactory &make_prefetcher,
                 double warmup_fraction);

/**
 * Runs @p cfg over every trace in @p suite.
 *
 * @param label          display label.
 * @param cfg            core configuration (historyScheme is applied).
 * @param suite          the traces.
 * @param make_prefetcher per-trace prefetcher factory.
 * @param warmup_fraction fraction of each trace treated as warmup.
 */
SuiteResult runSuite(const std::string &label, CoreConfig cfg,
                     const std::vector<SuiteEntry> &suite,
                     const PrefetcherFactory &make_prefetcher,
                     double warmup_fraction = 0.2);

/** Default suite sizing for bench binaries: FDIP_SIM_INSTRS override,
 *  FDIP_SUITE=small override, defaults to @p default_insts / full. */
std::vector<SuiteEntry> benchSuite(std::size_t default_insts = 1000000);

/// @{ Manifest hashing: the content-addressing layer the campaign
/// spool (sim/campaign_store.h) is keyed by. Purely functional over
/// explicit inputs — no clocks, no pointers, no environment — so the
/// same experiment hashes identically on any host, which is what lets
/// independent workers share one spool and lets finished work be
/// skipped byte-verifiably.

/**
 * Canonical text serialization of every *architectural* knob of
 * @p cfg (observability options are excluded by design: they never
 * affect simulated state). One "key=value\n" line per field, in a
 * fixed order, prefixed with a format-version line, so the digest is
 * stable across rebuilds and hosts.
 *
 * When adding a CoreConfig field, add its line here: the
 * sim_campaign_store_test digest-sensitivity tests are the reminder.
 */
std::string canonicalConfigText(const CoreConfig &cfg);

/** FNV-1a 64 digest of canonicalConfigText(). */
std::uint64_t configDigest(const CoreConfig &cfg);

/**
 * FNV-1a 64 digest of a suite entry's full simulation input: the
 * workload name, the program image (base address + every static
 * instruction), and the committed dynamic-instruction stream (each
 * record's DynInst values as their v1 16-byte form, head word then
 * info, whatever layout the trace keeps them in). The seed and
 * instruction count are covered transitively: they determine this
 * content.
 */
std::uint64_t traceDigest(const SuiteEntry &entry);
/// @}

} // namespace fdip

#endif // FDIP_SIM_EXPERIMENT_H_
