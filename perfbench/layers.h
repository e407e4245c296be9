/**
 * @file
 * Layer replays for the benchmark's traced mode.
 *
 * Each replay feeds one simulator layer, through its public functions
 * only, the calls the timing model makes on the trace's committed
 * stream, and times them from outside:
 *
 *  - replayBpu: a standalone Bpu receives what Frontend::predictCycle
 *    and Frontend::scanInst send it (BTB lookup per slot, direction and
 *    indirect predict/update, RAS push/pop, BTB insert, history push,
 *    one history + RAS snapshot per fetch block), then a 24-entry Ftq
 *    receives push/popHead of entries carrying those real snapshots.
 *  - replayL1i: a standalone L1I Cache, MemoryHierarchy::fetchInstLine
 *    and the workload's InstPrefetcher receive the trace's line stream.
 *    The stream is recorded once, then each layer's calls are replayed
 *    in their own timed loop on fresh objects, so no clock read sits
 *    between two calls being timed.
 *
 * The replays follow the committed path only (no wrong path, fills
 * complete at once); the timing model's own figures come from
 * Core::run.
 */
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "core/core_config.h"
#include "trace/trace_gen.h"

namespace perfbench
{

/** Counts and times from replayBpu (summable across traces). */
struct BpuReplay
{
    std::uint64_t insts = 0;
    std::uint64_t blocks = 0;      ///< Fetch blocks (snapshot pairs).
    std::uint64_t branches = 0;
    std::uint64_t btbBranchHits = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t dirCorrect = 0;
    std::uint64_t indirects = 0;
    std::uint64_t indirectCorrect = 0;
    double seconds = 0;         ///< The whole per-slot replay loop.
    double snapshotSeconds = 0; ///< `blocks` history+RAS snapshot pairs.
    double ftqSeconds = 0;      ///< `blocks` FTQ push/popHead pairs.

    void add(const BpuReplay &o);
};

/** Counts and times from replayL1i (summable across traces). */
struct L1iReplay
{
    std::uint64_t insts = 0;
    std::uint64_t demandAccesses = 0; ///< Demand line lookups.
    std::uint64_t demandHits = 0;
    std::uint64_t fills = 0;          ///< Demand + prefetch fills.
    std::uint64_t cacheCalls = 0;     ///< probe/touch/fill calls.
    std::uint64_t branches = 0;
    std::uint64_t pfIssued = 0;
    std::uint64_t pfRedundant = 0;
    double cacheSeconds = 0;    ///< L1I Cache calls.
    double fillSeconds = 0;     ///< MemoryHierarchy::fetchInstLine.
    double lookupSeconds = 0;   ///< Prefetcher lookup/fill hooks + drain.
    double branchSeconds = 0;   ///< Prefetcher onBranch hook.

    void add(const L1iReplay &o);
};

/** Replays @p trace through a Bpu built from @p cfg.bpu, then an
 *  Ftq of @p cfg.ftqEntries (cfg must be history-scheme resolved). */
BpuReplay replayBpu(const fdip::CoreConfig &cfg, const fdip::Trace &trace);

/** Replays @p trace's line stream through @p cfg's L1I, memory
 *  hierarchy and the prefetcher named @p prefetcher. */
L1iReplay replayL1i(const fdip::CoreConfig &cfg,
                    const std::string &prefetcher,
                    const fdip::Trace &trace);

/** Bytes of one FTQ entry as the simulator stores it. */
std::uint64_t ftqEntryBytes();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H_
