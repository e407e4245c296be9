/**
 * @file
 * Per-run simulation statistics, covering every metric the paper's
 * figures report (IPC, branch MPKI, starvation cycles/KI, I-cache tag
 * accesses/KI, exposed/covered miss classification, PFC and fixup
 * event counts), and kSimStatsCounters, the one table that names each
 * counter for equality, the spool checksum and records, and the
 * `core.*` stats.
 */

#ifndef FDIP_CORE_SIM_STATS_H_
#define FDIP_CORE_SIM_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "obs/cycle_account.h"
#include "util/hotpath.h"
#include "util/state.h"

namespace fdip
{

/** Statistics for one simulation run (collected post-warmup). Every
 *  uint64_t member is an architectural counter and has one row in
 *  kSimStatsCounters below. */
struct SimStats
{
    /// @{ Progress.
    FDIP_STATE_MICRO std::uint64_t cycles = 0;
    FDIP_STATE_MICRO std::uint64_t committedInsts = 0;
    /// @}

    /// @{ Branches (committed, correct path).
    FDIP_STATE_MICRO std::uint64_t condBranches = 0;
    FDIP_STATE_MICRO std::uint64_t takenBranches = 0;
    FDIP_STATE_MICRO std::uint64_t indirectBranches = 0;
    FDIP_STATE_MICRO std::uint64_t returns = 0;
    /// @}

    /// @{ Mispredictions = execute-time pipeline flushes, by cause.
    FDIP_STATE_MICRO std::uint64_t mispredicts = 0;
    FDIP_STATE_MICRO std::uint64_t mispredictsCondDir = 0;   ///< Direction wrong.
    FDIP_STATE_MICRO std::uint64_t mispredictsBtbMissTaken = 0; ///< Undetected taken br.
    FDIP_STATE_MICRO std::uint64_t mispredictsTarget = 0;    ///< Indirect/return target.
    FDIP_STATE_MICRO std::uint64_t mispredictsPfcMisfire = 0; ///< PFC re-steered wrongly.
    /// @}

    /// @{ PFC / history fixups.
    FDIP_STATE_MICRO std::uint64_t pfcFires = 0;
    FDIP_STATE_MICRO std::uint64_t pfcCorrect = 0;   ///< Redirect matched the oracle path.
    FDIP_STATE_MICRO std::uint64_t pfcWrong = 0;     ///< Misfire (became a mispredict).
    FDIP_STATE_MICRO std::uint64_t ghrFixups = 0;    ///< GHR2/3 pre-decode history flushes.
    /// @}

    /// @{ Frontend delivery.
    FDIP_STATE_MICRO std::uint64_t starvationCycles = 0; ///< Decode queue < decode width.
    FDIP_STATE_MICRO std::uint64_t deliveredInsts = 0;
    FDIP_STATE_MICRO std::uint64_t wrongPathDelivered = 0;
    /// @}

    /// @{ L1I behaviour.
    FDIP_STATE_MICRO std::uint64_t l1iDemandAccesses = 0;
    FDIP_STATE_MICRO std::uint64_t l1iDemandMisses = 0;
    FDIP_STATE_MICRO std::uint64_t l1iTagAccesses = 0; ///< Demand + prefetch probes.
    FDIP_STATE_MICRO std::uint64_t prefetchesIssued = 0;
    FDIP_STATE_MICRO std::uint64_t prefetchesRedundant = 0; ///< Probe hit: dropped.
    FDIP_STATE_MICRO std::uint64_t prefetchesUseful = 0;    ///< Later hit by demand.
    FDIP_STATE_MICRO std::uint64_t itlbMisses = 0;
    /// @}

    /// @{ Demand-miss exposure classification (paper Fig. 14).
    FDIP_STATE_MICRO std::uint64_t missFullyExposed = 0;   ///< Initiated at FTQ head.
    FDIP_STATE_MICRO std::uint64_t missPartiallyExposed = 0; ///< Starved before fill.
    FDIP_STATE_MICRO std::uint64_t missCovered = 0;        ///< Fill beat any starvation.
    /// @}

    /// @{ BTB.
    FDIP_STATE_MICRO std::uint64_t btbLookups = 0;
    FDIP_STATE_MICRO std::uint64_t btbHits = 0;
    /// @}

    /// @{ Top-down cycle accounting: every post-warmup cycle is
    /// charged to exactly one of these leaf buckets (one-hot, fixed
    /// precedence; see obs/cycle_account.h and docs/OBSERVABILITY.md).
    /// Invariants, FDIP_CHECKed every tick: the six starved-slot
    /// buckets sum to starvationCycles, and all eight sum to cycles.
    FDIP_STATE_MICRO std::uint64_t cyclesBaseCommitted = 0;      ///< Decode fed; no stall.
    FDIP_STATE_MICRO std::uint64_t cyclesBackendBackpressure = 0; ///< ROB full blocked dispatch.
    FDIP_STATE_MICRO std::uint64_t cyclesRecoveryFlushRestart = 0; ///< Post-flush predict restart.
    FDIP_STATE_MICRO std::uint64_t cyclesFetchL1iMiss = 0;       ///< Head waiting on a fill.
    FDIP_STATE_MICRO std::uint64_t cyclesFetchItlbMiss = 0;      ///< Head waiting on the ITLB.
    FDIP_STATE_MICRO std::uint64_t cyclesFetchFtqEmptyBtbMiss = 0; ///< BTB-miss wrong path.
    FDIP_STATE_MICRO std::uint64_t cyclesFetchFtqEmptyRedirect = 0; ///< Redirect refill shadow.
    FDIP_STATE_MICRO std::uint64_t cyclesFetchPipeline = 0;      ///< Residual fetch stall.
    /// @}

    /// @{ Host-side telemetry. Measured on the machine running the
    /// simulator, NOT part of the simulated architectural state: two
    /// runs of the same (config, trace) are the same experiment even
    /// when their wall-clock differs, so these fields are excluded
    /// from architecturallyEqual().
    FDIP_STATE_HOST
    double hostWallSeconds = 0.0; ///< Wall-clock time of Core::run().

    /** Simulated (committed) instructions per host wall-clock second. */
    [[nodiscard]] double
    hostInstrsPerSecond() const
    {
        return hostWallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(committedInsts) / hostWallSeconds;
    }
    /// @}

    /**
     * True when every architectural counter matches @p o bit for bit.
     * This is the determinism contract the parallel experiment engine
     * is tested against: serial and parallel execution must agree here
     * exactly, not approximately.
     */
    [[nodiscard]] bool architecturallyEqual(const SimStats &o) const;

    /// @{ Derived metrics.
    [[nodiscard]] double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(committedInsts) /
                                 static_cast<double>(cycles);
    }

    /** Branch mispredictions per kilo-instruction. */
    [[nodiscard]] double
    branchMpki() const
    {
        return committedInsts == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(mispredicts) /
                         static_cast<double>(committedInsts);
    }

    /** Starvation cycles per kilo-instruction. */
    [[nodiscard]] double
    starvationPerKi() const
    {
        return committedInsts == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(starvationCycles) /
                         static_cast<double>(committedInsts);
    }

    /** L1I tag accesses per kilo-instruction. */
    [[nodiscard]] double
    tagAccessesPerKi() const
    {
        return committedInsts == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(l1iTagAccesses) /
                         static_cast<double>(committedInsts);
    }

    /** L1I demand misses per kilo-instruction. */
    [[nodiscard]] double
    l1iMpki() const
    {
        return committedInsts == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(l1iDemandMisses) /
                         static_cast<double>(committedInsts);
    }

    /** Fraction of issued prefetches later hit by a demand access. */
    [[nodiscard]] double
    prefetchAccuracy() const
    {
        return prefetchesIssued == 0
                   ? 0.0
                   : static_cast<double>(prefetchesUseful) /
                         static_cast<double>(prefetchesIssued);
    }

    /** Fraction of would-be demand misses the prefetcher covered:
     *  useful / (useful + remaining demand misses). */
    [[nodiscard]] double
    prefetchCoverage() const
    {
        const std::uint64_t base = prefetchesUseful + l1iDemandMisses;
        return base == 0 ? 0.0
                         : static_cast<double>(prefetchesUseful) /
                               static_cast<double>(base);
    }

    /** Fraction of issued prefetches dropped as already resident or
     *  in flight. */
    [[nodiscard]] double
    prefetchRedundantRate() const
    {
        return prefetchesIssued == 0
                   ? 0.0
                   : static_cast<double>(prefetchesRedundant) /
                         static_cast<double>(prefetchesIssued);
    }
    /// @}

    /// @{ Cycle-accounting sums (the conservation laws the per-tick
    /// FDIP_CHECK in Core::run and checkSimStats() both enforce).

    /** Sum of the six starved-slot buckets; must equal
     *  starvationCycles. */
    [[nodiscard]] FDIP_HOT_PATH std::uint64_t
    stallCycleSum() const
    {
        return cyclesRecoveryFlushRestart + cyclesFetchL1iMiss +
               cyclesFetchItlbMiss + cyclesFetchFtqEmptyBtbMiss +
               cyclesFetchFtqEmptyRedirect + cyclesFetchPipeline;
    }

    /** Sum of all eight leaf buckets; must equal cycles. */
    [[nodiscard]] FDIP_HOT_PATH std::uint64_t
    cycleBucketSum() const
    {
        return cyclesBaseCommitted + cyclesBackendBackpressure +
               stallCycleSum();
    }
    /// @}
};

/**
 * One architectural counter: its member, its key in a spool record's
 * "stats" object, and its stat-registry name. A cycle bucket's name is
 * its kCycleBucketName leaf under `core.cycles.`; every other
 * counter's is statName under `core.`.
 */
struct SimStatsCounter
{
    constexpr SimStatsCounter(std::uint64_t SimStats::*m, const char *key,
                              const char *stat)
        : member(m), recordKey(key), statName(stat)
    {
    }

    constexpr SimStatsCounter(std::uint64_t SimStats::*m, const char *key,
                              CycleBucket b)
        : member(m), recordKey(key),
          statName(kCycleBucketName[static_cast<std::size_t>(b)]),
          bucket(static_cast<std::size_t>(b))
    {
    }

    [[nodiscard]] constexpr bool
    isCycleBucket() const
    {
        return bucket < kCycleBucketCount;
    }

    std::uint64_t SimStats::*member;
    const char *recordKey;
    const char *statName;
    std::size_t bucket = kCycleBucketCount; ///< CycleBucket, if one.
};

/** Every architectural counter, in record and checksum order. Host
 *  telemetry stays out. */
inline constexpr SimStatsCounter kSimStatsCounters[] = {
    {&SimStats::cycles, "cycles", "cycles"},
    {&SimStats::committedInsts, "committedInsts", "committed_insts"},
    {&SimStats::condBranches, "condBranches", "cond_branches"},
    {&SimStats::takenBranches, "takenBranches", "taken_branches"},
    {&SimStats::indirectBranches, "indirectBranches", "indirect_branches"},
    {&SimStats::returns, "returns", "returns"},
    {&SimStats::mispredicts, "mispredicts", "mispredicts"},
    {&SimStats::mispredictsCondDir, "mispredictsCondDir", "mispredicts_cond_dir"},
    {&SimStats::mispredictsBtbMissTaken, "mispredictsBtbMissTaken", "mispredicts_btb_miss_taken"},
    {&SimStats::mispredictsTarget, "mispredictsTarget", "mispredicts_target"},
    {&SimStats::mispredictsPfcMisfire, "mispredictsPfcMisfire", "mispredicts_pfc_misfire"},
    {&SimStats::pfcFires, "pfcFires", "pfc_fires"},
    {&SimStats::pfcCorrect, "pfcCorrect", "pfc_correct"},
    {&SimStats::pfcWrong, "pfcWrong", "pfc_wrong"},
    {&SimStats::ghrFixups, "ghrFixups", "ghr_fixups"},
    {&SimStats::starvationCycles, "starvationCycles", "starvation_cycles"},
    {&SimStats::deliveredInsts, "deliveredInsts", "delivered_insts"},
    {&SimStats::wrongPathDelivered, "wrongPathDelivered", "wrong_path_delivered"},
    {&SimStats::l1iDemandAccesses, "l1iDemandAccesses", "l1i_demand_accesses"},
    {&SimStats::l1iDemandMisses, "l1iDemandMisses", "l1i_demand_misses"},
    {&SimStats::l1iTagAccesses, "l1iTagAccesses", "l1i_tag_accesses"},
    {&SimStats::prefetchesIssued, "prefetchesIssued", "prefetches_issued"},
    {&SimStats::prefetchesRedundant, "prefetchesRedundant", "prefetches_redundant"},
    {&SimStats::prefetchesUseful, "prefetchesUseful", "prefetches_useful"},
    {&SimStats::itlbMisses, "itlbMisses", "itlb_misses"},
    {&SimStats::missFullyExposed, "missFullyExposed", "miss_fully_exposed"},
    {&SimStats::missPartiallyExposed, "missPartiallyExposed", "miss_partially_exposed"},
    {&SimStats::missCovered, "missCovered", "miss_covered"},
    {&SimStats::btbLookups, "btbLookups", "btb_lookups"},
    {&SimStats::btbHits, "btbHits", "btb_hits"},
    {&SimStats::cyclesBaseCommitted, "cyclesBaseCommitted", CycleBucket::kBaseCommitted},
    {&SimStats::cyclesBackendBackpressure, "cyclesBackendBackpressure", CycleBucket::kBackendBackpressure},
    {&SimStats::cyclesRecoveryFlushRestart, "cyclesRecoveryFlushRestart", CycleBucket::kRecoveryFlushRestart},
    {&SimStats::cyclesFetchL1iMiss, "cyclesFetchL1iMiss", CycleBucket::kFetchL1iMiss},
    {&SimStats::cyclesFetchItlbMiss, "cyclesFetchItlbMiss", CycleBucket::kFetchItlbMiss},
    {&SimStats::cyclesFetchFtqEmptyBtbMiss, "cyclesFetchFtqEmptyBtbMiss", CycleBucket::kFetchFtqEmptyBtbMiss},
    {&SimStats::cyclesFetchFtqEmptyRedirect, "cyclesFetchFtqEmptyRedirect", CycleBucket::kFetchFtqEmptyRedirect},
    {&SimStats::cyclesFetchPipeline, "cyclesFetchPipeline", CycleBucket::kFetchPipeline},
};

/** True when no two rows of kSimStatsCounters name the same member. */
constexpr bool
simStatsCountersDistinct()
{
    for (std::size_t i = 0; i < std::size(kSimStatsCounters); ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (kSimStatsCounters[i].member == kSimStatsCounters[j].member)
                return false;
    return true;
}

static_assert(simStatsCountersDistinct() &&
                  std::size(kSimStatsCounters) * sizeof(std::uint64_t) +
                          sizeof(double) ==
                      sizeof(SimStats),
              "kSimStatsCounters must name every SimStats counter "
              "exactly once");

inline bool
SimStats::architecturallyEqual(const SimStats &o) const
{
    for (const SimStatsCounter &c : kSimStatsCounters)
        if (this->*c.member != o.*c.member)
            return false;
    return true;
}

/** Bucket -> SimStats field, in CycleBucket order: the table's bucket
 *  rows. */
inline constexpr std::array<std::uint64_t SimStats::*, kCycleBucketCount>
    kCycleBucketField = [] {
        std::array<std::uint64_t SimStats::*, kCycleBucketCount> out{};
        for (const SimStatsCounter &c : kSimStatsCounters)
            if (c.isCycleBucket())
                out[c.bucket] = c.member;
        return out;
    }();

/** Charges one cycle to @p bucket. Hot path: one indexed increment. */
FDIP_HOT_PATH inline void
chargeCycle(SimStats &s, CycleBucket bucket) noexcept
{
    ++(s.*kCycleBucketField[static_cast<std::size_t>(bucket)]);
}

/** Value of @p bucket's counter in @p s. */
[[nodiscard]] inline std::uint64_t
cycleBucket(const SimStats &s, CycleBucket bucket) noexcept
{
    return s.*kCycleBucketField[static_cast<std::size_t>(bucket)];
}

} // namespace fdip

#endif // FDIP_CORE_SIM_STATS_H_
