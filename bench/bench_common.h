/**
 * @file
 * Shared scaffolding for the per-figure bench binaries: suite
 * construction, labeled campaign runs, and table output with the
 * paper's reported values alongside the measured ones.
 *
 * Every bench honours:
 *   FDIP_SIM_INSTRS  dynamic instructions per trace (default per bench)
 *   FDIP_SUITE=small reduced 3-workload suite
 *   FDIP_JOBS        parallel worker threads (default: all cores;
 *                    1 = exact serial execution). Results are
 *                    bit-identical for any value.
 */

#ifndef FDIP_BENCH_BENCH_COMMON_H_
#define FDIP_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "prefetch/factory.h"
#include "sim/campaign_store.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "util/io.h"
#include "util/table.h"

namespace fdip::bench
{

/** Builds the bench suite with a per-bench default sizing. */
inline std::vector<SuiteEntry>
suite(std::size_t default_insts)
{
    std::fprintf(stderr, "building workload suite...\n");
    return benchSuite(default_insts);
}

/** Factory adapter for named prefetchers. */
inline PrefetcherFactory
prefetcher(const std::string &name)
{
    return [name](const Trace &) { return makePrefetcher(name); };
}

/** Formats a speedup fraction as "+41.0%". */
inline std::string
speedupStr(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", (ratio - 1.0) * 100.0);
    return buf;
}

/** Prints the standard bench banner. */
inline void
banner(const char *experiment, const char *description)
{
    std::printf("=============================================================\n");
    std::printf("%s\n", experiment);
    std::printf("%s\n", description);
    std::printf("=============================================================\n");
}

/** Bench-summary schema version. v2: labels are JSON-escaped, the
 *  version is explicit, and summaries carry hostPhaseBreakdown when
 *  the tick-phase profiler sampled anything (tools/bench_trend.py and
 *  tools/perf_gate.py validate this schema). v1 files have no
 *  schemaVersion key. */
inline constexpr int kBenchJsonSchemaVersion = 2;

/**
 * Writes a machine-readable bench summary to BENCH_<name>.json: one
 * entry per configuration (label + geomean IPC) plus host throughput
 * and, when profiling sampled any tick, the merged host tick-phase
 * breakdown — so CI and plotting scripts can diff bench output
 * without scraping the human-readable tables. FDIP_BENCH_JSON_DIR
 * overrides the output directory (default: current directory);
 * FDIP_BENCH_JSON=0 disables.
 */
inline void
writeBenchJson(const char *bench_name,
               const std::vector<SuiteResult> &results, unsigned jobs,
               double elapsed_seconds, double host_insts_per_second)
{
    const char *toggle = std::getenv("FDIP_BENCH_JSON");
    if (toggle != nullptr && std::string(toggle) == "0")
        return;
    std::string path = "BENCH_" + std::string(bench_name) + ".json";
    if (const char *dir = std::getenv("FDIP_BENCH_JSON_DIR")) {
        if (*dir != '\0')
            path = std::string(dir) + "/" + path;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"schemaVersion\": %d,\n"
                 "  \"jobs\": %u,\n"
                 "  \"elapsedSeconds\": %.3f,\n"
                 "  \"hostInstrsPerSecond\": %.0f,\n  \"results\": [\n",
                 jsonEscape(bench_name).c_str(),
                 kBenchJsonSchemaVersion, jobs, elapsed_seconds,
                 host_insts_per_second);
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::fprintf(f, "    {\"label\": \"%s\", \"geomeanIpc\": %.6f}%s\n",
                     jsonEscape(results[i].label).c_str(),
                     results[i].geomeanIpc(),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]");

    TickProfile merged;
    for (const SuiteResult &r : results)
        for (const RunResult &run : r.runs)
            merged.merge(run.hostPhases);
    if (merged.sampledTicks > 0) {
        std::fprintf(f,
                     ",\n  \"hostPhaseBreakdown\": {\n"
                     "    \"interval\": %llu, \"sampledTicks\": %llu, "
                     "\"totalTicks\": %llu,\n    \"phases\": {",
                     static_cast<unsigned long long>(merged.interval),
                     static_cast<unsigned long long>(merged.sampledTicks),
                     static_cast<unsigned long long>(merged.totalTicks));
        for (std::size_t i = 0; i < kTickPhaseCount; ++i) {
            std::fprintf(
                f, "%s\"%s\": %.6f", i == 0 ? "" : ", ",
                kTickPhaseName[i],
                merged.fraction(static_cast<TickPhase>(i)));
        }
        std::fprintf(f, "}\n  }");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
}

/**
 * Runs a campaign and prints engine telemetry: worker count, elapsed
 * wall-clock vs. the summed per-run core time (their ratio is the
 * effective parallel speedup), and simulated-instruction throughput.
 * When @p bench_name is given, also writes BENCH_<name>.json (see
 * writeBenchJson).
 *
 * With FDIP_SPOOL set, the campaign drains through the
 * content-addressed result spool (sim/campaign_store.h): completed
 * runs are cache hits, a killed bench resumes where it stopped, and
 * re-running a finished bench re-simulates nothing. Results are
 * bit-identical either way.
 */
inline std::vector<SuiteResult>
runTimed(const Campaign &campaign, std::size_t suite_size,
         const char *bench_name = nullptr)
{
    const unsigned jobs = jobsFromEnv();
    const std::string spool = spoolFromEnv();
    // Benches self-profile by default (every 64th tick; ~1.5% sample
    // rate keeps the hot loop honest) so BENCH_*.json always carries a
    // host phase breakdown; an explicit FDIP_PROFILE (including 0)
    // wins. Architecturally invisible — sim_determinism_test pins it.
    ::setenv("FDIP_PROFILE", "64", /*overwrite=*/0);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<SuiteResult> results;
    if (!spool.empty()) {
        SpoolOptions options;
        options.spoolDir = spool;
        options.warmupFraction = campaign.warmupFraction();
        options.jobs = jobs;
        // A bench re-run after a crash is the resume case; claims of
        // live sibling processes are still never touched.
        options.reclaimDeadClaims = true;
        SpoolSummary summary;
        results = runCampaignSpooled(campaign.entries(),
                                     campaign.suite(), options,
                                     &summary);
        std::fprintf(stderr,
                     "spool: %s: %zu runs, %zu simulated, %zu cached, "
                     "%zu claimed elsewhere, %zu quarantined, %s\n",
                     spool.c_str(), summary.totalRuns,
                     summary.simulated, summary.cacheHits,
                     summary.claimedElsewhere, summary.quarantined,
                     summary.complete ? "complete" : "incomplete");
    } else {
        results = campaign.run(jobs);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(t1 - t0).count();

    double core_seconds = 0.0;
    double insts = 0.0;
    for (const auto &r : results) {
        for (const auto &run : r.runs) {
            core_seconds += run.stats.hostWallSeconds;
            insts += static_cast<double>(run.stats.committedInsts);
        }
    }
    std::fprintf(stderr,
                 "engine: %zu runs (%zu configs x %zu workloads), "
                 "jobs=%u, %.2fs elapsed, %.2fs core time "
                 "(%.2fx), %.2f Minst/s\n",
                 campaign.size() * suite_size, campaign.size(), suite_size,
                 jobs, elapsed, core_seconds,
                 elapsed > 0 ? core_seconds / elapsed : 0.0,
                 elapsed > 0 ? insts / elapsed / 1e6 : 0.0);
    if (bench_name != nullptr) {
        writeBenchJson(bench_name, results, jobs, elapsed,
                       elapsed > 0 ? insts / elapsed : 0.0);
    }
    return results;
}

} // namespace fdip::bench

#endif // FDIP_BENCH_BENCH_COMMON_H_
