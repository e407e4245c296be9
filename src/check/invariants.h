/**
 * @file
 * Structure-level invariant checkers for the simulator's hardware
 * models. Each function throws InvariantViolation (via FDIP_CHECK) on
 * the first violated property and is a no-op in builds with checks
 * compiled out.
 *
 * Two kinds of properties are verified:
 *
 *  - *Legality*: a configuration describes buildable hardware (way
 *    counts divide entry counts, power-of-two set counts, non-zero
 *    bandwidths). These are the machine-checked versions of the
 *    paper's Table III/IV constraints.
 *  - *Conservation*: counters that must agree by construction
 *    (tag accesses = hits + misses, mispredicts = sum of cause
 *    buckets, FTQ occupancy <= capacity). A violated conservation law
 *    means the simulator is silently corrupting the statistics every
 *    figure is derived from.
 *
 * Header-only so fdip_core can call these from the frontend hot loop
 * without a dependency on the fdip_check library (which links against
 * fdip_core for the budget accounting).
 */

#ifndef FDIP_CHECK_INVARIANTS_H_
#define FDIP_CHECK_INVARIANTS_H_

#include "bpu/btb.h"
#include "bpu/ras.h"
#include "cache/cache.h"
#include "core/core_config.h"
#include "core/ftq.h"
#include "core/sim_stats.h"
#include "util/bits.h"
#include "util/hotpath.h"
#include "util/invariant.h"

namespace fdip
{

/** BTB geometry legality (way count, set count, entry cost). */
inline void
checkBtbConfig(const BtbConfig &cfg)
{
    InvariantScope scope("checkBtbConfig");
    FDIP_CHECK(cfg.ways > 0, "BTB must have at least one way");
    FDIP_CHECK(cfg.numEntries > 0, "BTB must have at least one entry");
    FDIP_CHECK(cfg.numEntries % cfg.ways == 0,
               "BTB entries %u not divisible by ways %u", cfg.numEntries,
               cfg.ways);
    FDIP_CHECK(isPowerOf2(cfg.numEntries / cfg.ways),
               "BTB set count %u must be a power of two",
               cfg.numEntries / cfg.ways);
    FDIP_CHECK(cfg.ways <= cfg.numEntries,
               "BTB ways %u exceed entries %u", cfg.ways, cfg.numEntries);
    FDIP_CHECK(cfg.bytesPerEntry > 0, "BTB entry cost must be non-zero");
}

/** Cache geometry legality. */
inline void
checkCacheConfig(const CacheConfig &cfg)
{
    InvariantScope scope("checkCacheConfig");
    FDIP_CHECK(cfg.ways > 0, "%s: must have at least one way",
               cfg.name.c_str());
    FDIP_CHECK(isPowerOf2(cfg.lineBytes),
               "%s: line size %u must be a power of two", cfg.name.c_str(),
               cfg.lineBytes);
    FDIP_CHECK(cfg.sizeBytes >= std::uint64_t{cfg.lineBytes} * cfg.ways,
               "%s: size %llu smaller than one set (%u ways x %u B lines)",
               cfg.name.c_str(),
               static_cast<unsigned long long>(cfg.sizeBytes), cfg.ways,
               cfg.lineBytes);
    const std::uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    FDIP_CHECK(lines % cfg.ways == 0,
               "%s: %llu lines not divisible by %u ways", cfg.name.c_str(),
               static_cast<unsigned long long>(lines), cfg.ways);
    FDIP_CHECK(isPowerOf2(lines / cfg.ways),
               "%s: set count %llu must be a power of two",
               cfg.name.c_str(),
               static_cast<unsigned long long>(lines / cfg.ways));
}

/** Whole-core configuration legality (Table IV shape constraints). */
inline void
checkCoreConfig(const CoreConfig &cfg)
{
    InvariantScope scope("checkCoreConfig");
    FDIP_CHECK(cfg.ftqEntries >= 2,
               "FTQ needs >= 2 entries (2 disables FDP), got %u",
               cfg.ftqEntries);
    FDIP_CHECK(cfg.predictBandwidth > 0, "predict bandwidth must be > 0");
    FDIP_CHECK(cfg.maxTakenPerCycle > 0,
               "at least one taken branch per cycle required");
    FDIP_CHECK(cfg.fetchBandwidth > 0, "fetch bandwidth must be > 0");
    FDIP_CHECK(cfg.fetchProbesPerCycle > 0,
               "at least one FTQ probe per cycle required");
    FDIP_CHECK(cfg.l1iMshrs > 0, "L1I needs at least one MSHR");
    FDIP_CHECK(cfg.itlbEntries > 0, "ITLB must have entries");
    FDIP_CHECK(cfg.decodeQueueEntries > 0, "decode queue must have entries");
    FDIP_CHECK(cfg.robEntries > 0, "ROB must have entries");
    FDIP_CHECK(cfg.commitWidth > 0, "commit width must be > 0");
    FDIP_CHECK(cfg.bpu.rasDepth > 0, "RAS depth must be > 0");
    FDIP_CHECK(!cfg.usePrefetchBuffer || cfg.prefetchBufferLines > 0,
               "prefetch buffer enabled with zero lines");
    checkBtbConfig(cfg.bpu.btb);
    checkCacheConfig(cfg.l1i);
    checkCacheConfig(cfg.mem.l1d);
    checkCacheConfig(cfg.mem.l2);
    checkCacheConfig(cfg.mem.llc);
}

/** One FTQ entry's internal consistency. */
FDIP_HOT_PATH inline void
checkFtqEntry(const FtqEntry &e)
{
    FDIP_CHECK(e.termOffset < kInstsPerBlock,
               "FTQ entry terminates at offset %u beyond the %u-inst block",
               e.termOffset, kInstsPerBlock);
    FDIP_CHECK(e.startOffset() <= e.termOffset,
               "FTQ entry starts (%u) after it terminates (%u)",
               e.startOffset(), e.termOffset);
    FDIP_CHECK(e.numEvents <= kInstsPerBlock,
               "FTQ entry records %u events for a %u-inst block",
               e.numEvents, kInstsPerBlock);
    FDIP_CHECK(e.state != FtqState::kInvalid,
               "queued FTQ entry in the invalid state");
    for (unsigned i = 1; i < e.numEvents; ++i) {
        FDIP_CHECK(e.events[i - 1].offset < e.events[i].offset,
                   "FTQ entry events not strictly ordered by offset");
    }
}

/**
 * FTQ integrity: occupancy within capacity, entries well-formed, block
 * sequence numbers strictly increasing from head to tail, and no entry
 * before the probe cursor still kPredicted.
 */
FDIP_HOT_PATH inline void
checkFtqIntegrity(const Ftq &ftq)
{
    InvariantScope scope("checkFtqIntegrity");
    FDIP_CHECK(ftq.size() <= ftq.capacity(),
               "FTQ occupancy %zu exceeds capacity %zu", ftq.size(),
               ftq.capacity());
    FDIP_CHECK(ftq.probed() <= ftq.size(),
               "FTQ probe cursor %zu beyond occupancy %zu", ftq.probed(),
               ftq.size());
    std::size_t i = 0;
    std::uint64_t prev_seq = 0;
    ftq.forEach([&](const FtqEntry &e) {
        checkFtqEntry(e);
        if (i > 0) {
            FDIP_CHECK(prev_seq < e.seq,
                       "FTQ block sequence not monotone at position %zu", i);
        }
        FDIP_CHECK(i >= ftq.probed() || e.state != FtqState::kPredicted,
                   "FTQ entry %zu is unprobed but before the probe cursor "
                   "%zu",
                   i, ftq.probed());
        prev_seq = e.seq;
        ++i;
    });
}

/** Tag-access conservation: every probe hits or misses, never both. */
FDIP_HOT_PATH inline void
checkCacheConservation(const Cache &cache)
{
    InvariantScope scope("checkCacheConservation");
    FDIP_CHECK(cache.hits() + cache.misses() == cache.tagAccesses(),
               "%s: hits %llu + misses %llu != tag accesses %llu",
               cache.config().name.c_str(),
               static_cast<unsigned long long>(cache.hits()),
               static_cast<unsigned long long>(cache.misses()),
               static_cast<unsigned long long>(cache.tagAccesses()));
}

/** RAS structural sanity and snapshot bounds. */
inline void
checkRasSnapshot(const RasSnapshot &snap, const Ras &ras)
{
    InvariantScope scope("checkRasSnapshot");
    FDIP_CHECK(snap.topIndex < ras.depth(),
               "RAS snapshot index %u out of bounds (depth %u)",
               snap.topIndex, ras.depth());
    FDIP_CHECK(snap.liveCount <= ras.depth(),
               "RAS snapshot live count %u exceeds depth %u",
               snap.liveCount, ras.depth());
}

/**
 * Statistics conservation laws. Only identities that survive the
 * warmup-boundary stats reset are checked here (counters zeroed
 * together and incremented together).
 */
FDIP_HOT_PATH inline void
checkSimStats(const SimStats &s)
{
    InvariantScope scope("checkSimStats");
    FDIP_CHECK(s.mispredicts == s.mispredictsCondDir +
                                    s.mispredictsBtbMissTaken +
                                    s.mispredictsTarget +
                                    s.mispredictsPfcMisfire,
               "mispredict cause buckets do not sum to the total");
    FDIP_CHECK(s.pfcFires >= s.pfcCorrect + s.pfcWrong,
               "more PFC outcomes than PFC fires");
    FDIP_CHECK(s.l1iDemandMisses <= s.l1iDemandAccesses,
               "more L1I demand misses than demand accesses");
    FDIP_CHECK(s.l1iDemandAccesses <= s.l1iTagAccesses,
               "more L1I demand accesses than total tag accesses");
}

/**
 * Full end-of-run statistics check. Valid only for runs without a
 * warmup reset (fills spanning the boundary break these identities);
 * used by the test suites on warmup-free runs.
 */
inline void
checkSimStatsFinal(const SimStats &s)
{
    InvariantScope scope("checkSimStatsFinal");
    checkSimStats(s);
    FDIP_CHECK(s.missFullyExposed + s.missPartiallyExposed +
                       s.missCovered <=
                   s.l1iDemandMisses,
               "more classified demand misses than demand misses");
    FDIP_CHECK(s.prefetchesRedundant <= s.prefetchesIssued,
               "more redundant prefetches than issued prefetches");
    FDIP_CHECK(s.prefetchesUseful <= s.prefetchesIssued,
               "more useful prefetches than issued prefetches");
    FDIP_CHECK(s.committedInsts <= s.deliveredInsts,
               "more committed than delivered correct-path instructions");
    // Cycle accounting (obs/cycle_account.h). Not valid mid-run or
    // across a warmup reset: the backend counts starvationCycles from
    // tick 0, but buckets are charged only once warm — Core::run
    // checks the post-warmup per-tick form itself.
    FDIP_CHECK(s.stallCycleSum() == s.starvationCycles,
               "stall buckets do not sum to starvation cycles");
    FDIP_CHECK(s.cycleBucketSum() == s.cycles,
               "cycle buckets do not sum to total cycles");
}

} // namespace fdip

#endif // FDIP_CHECK_INVARIANTS_H_
