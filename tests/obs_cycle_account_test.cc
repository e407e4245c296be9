/**
 * @file
 * Cycle-accounting contract tests: the top-down fetch-slot buckets
 * (src/obs/cycle_account.h) are one-hot with a fixed precedence, and
 * over any real run — every factory prefetcher, FDP on or off — they
 * conserve cycles exactly: the eight buckets sum to the post-warmup
 * cycle count, the six starved-slot buckets sum to starvationCycles,
 * and every heartbeat interval's bucket deltas sum to its dCycles.
 * (Core::run FDIP_CHECKs the two laws every tick; this test re-proves
 * them end-to-end through the public API and pins the classifier's
 * precedence order against accidental reordering.)
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/core.h"
#include "core/sim_stats.h"
#include "obs/stat_registry.h"
#include "prefetch/factory.h"
#include "trace/suite.h"

namespace fdip
{
namespace
{

/** Every name prefetch/factory.cc accepts. */
const char *const kAllPrefetchers[] = {
    "none",   "nl1",  "fnl+mma",  "d-jolt",       "eip-128",
    "eip-27", "rdip", "sn4l+dis", "sn4l+dis+btb",
};

Trace
testTrace(std::uint64_t seed = 909, std::size_t insts = 40000)
{
    WorkloadSpec s = serverSpec("cycacct", seed);
    s.numFunctions = 72;
    auto wl = std::make_shared<Workload>(buildWorkload(s));
    return generateTrace(wl, insts);
}

// --- classifier unit tests --------------------------------------------

TEST(ClassifyCycle, UnstarvedCyclesSplitOnBackpressure)
{
    CycleSignals sig;
    sig.starved = false;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kBaseCommitted);
    sig.dispatchBlocked = true;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kBackendBackpressure);
    // Fetch-side signals are irrelevant while decode is fed: the
    // frontend kept up regardless of what it was doing internally.
    sig.flushRestart = true;
    sig.l1iWait = true;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kBackendBackpressure);
}

TEST(ClassifyCycle, StarvedPrecedenceIsFixed)
{
    // All signals raised: precedence resolves flush-restart first,
    // then BTB-miss wrong path, L1I wait, ITLB wait, redirect shadow.
    CycleSignals sig;
    sig.starved = true;
    sig.flushRestart = true;
    sig.btbMissWrongPath = true;
    sig.l1iWait = true;
    sig.itlbWait = true;
    sig.redirectShadow = true;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kRecoveryFlushRestart);
    sig.flushRestart = false;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kFetchFtqEmptyBtbMiss);
    sig.btbMissWrongPath = false;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kFetchL1iMiss);
    sig.l1iWait = false;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kFetchItlbMiss);
    sig.itlbWait = false;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kFetchFtqEmptyRedirect);
    sig.redirectShadow = false;
    EXPECT_EQ(classifyCycle(sig), CycleBucket::kFetchPipeline);
}

TEST(ClassifyCycle, EverySignalCombinationYieldsExactlyOneBucket)
{
    // One-hot by exhaustion: all 2^7 signal combinations classify, and
    // chargeCycle() moves exactly one counter by exactly one.
    for (unsigned bits = 0; bits < (1u << 7); ++bits) {
        CycleSignals sig;
        sig.starved = (bits & 1u) != 0;
        sig.dispatchBlocked = (bits & 2u) != 0;
        sig.flushRestart = (bits & 4u) != 0;
        sig.btbMissWrongPath = (bits & 8u) != 0;
        sig.itlbWait = (bits & 16u) != 0;
        sig.l1iWait = (bits & 32u) != 0;
        sig.redirectShadow = (bits & 64u) != 0;
        const CycleBucket bucket = classifyCycle(sig);
        ASSERT_LT(static_cast<std::size_t>(bucket), kCycleBucketCount);
        SimStats s;
        chargeCycle(s, bucket);
        EXPECT_EQ(s.cycleBucketSum(), 1u) << "bits=" << bits;
        EXPECT_EQ(cycleBucket(s, bucket), 1u) << "bits=" << bits;
    }
}

TEST(CycleBucketTables, FieldAndNameTablesFollowEnumOrder)
{
    // kCycleBucketField[i] must address the bucket the enum value i
    // names — the heartbeat deltas, CSV columns, and campaign records
    // all index through it.
    for (std::size_t i = 0; i < kCycleBucketCount; ++i) {
        SimStats s;
        s.*kCycleBucketField[i] = 7;
        EXPECT_EQ(cycleBucket(s, static_cast<CycleBucket>(i)), 7u)
            << "field table out of order at " << kCycleBucketName[i];
        EXPECT_EQ(s.cycleBucketSum(), 7u);
    }
}

// --- end-to-end conservation ------------------------------------------

/** Runs (cfg, prefetcher) with warmup + heartbeats and asserts the
 *  conservation laws on the final stats and every heartbeat. */
void
expectConservation(CoreConfig cfg, const Trace &trace,
                   const std::string &prefetcher, const char *what)
{
    cfg.applyHistoryScheme();
    cfg.obs.heartbeatInterval = 2000;
    Core core(cfg, trace, makePrefetcher(prefetcher));
    const SimStats s = core.run(trace.size() / 5);

    EXPECT_GT(s.committedInsts, 0u) << what;
    EXPECT_EQ(s.cycleBucketSum(), s.cycles)
        << what << ": buckets do not cover every post-warmup cycle";
    EXPECT_EQ(s.stallCycleSum(), s.starvationCycles)
        << what << ": stall buckets disagree with starvationCycles";

    ASSERT_FALSE(core.heartbeats().empty()) << what;
    for (std::size_t i = 0; i < core.heartbeats().size(); ++i) {
        const HeartbeatSample &hb = core.heartbeats()[i];
        std::uint64_t dsum = 0;
        for (std::size_t b = 0; b < kCycleBucketCount; ++b)
            dsum += hb.cycleBuckets[b];
        EXPECT_EQ(dsum, hb.dCycles)
            << what << ": heartbeat " << i
            << " bucket deltas do not sum to dCycles";
    }
}

TEST(CycleAccounting, ConservesCyclesForEveryPrefetcher)
{
    const Trace trace = testTrace();
    for (const char *pf : kAllPrefetchers)
        expectConservation(paperBaselineConfig(), trace, pf, pf);
}

TEST(CycleAccounting, ConservesCyclesWithoutFdp)
{
    const Trace trace = testTrace();
    expectConservation(noFdpConfig(), trace, "none", "no-FDP");
    expectConservation(noFdpConfig(), trace, "eip-27", "no-FDP+eip27");
}

TEST(CycleAccounting, ConservesCyclesInPerfectModes)
{
    const Trace trace = testTrace();
    CoreConfig perfect_ic = paperBaselineConfig();
    perfect_ic.perfectICache = true;
    expectConservation(perfect_ic, trace, "none", "perfect I-cache");
    CoreConfig perfect_btb = paperBaselineConfig();
    perfect_btb.bpu.perfectBtb = true;
    expectConservation(perfect_btb, trace, "none", "perfect BTB");
}

// --- registry surface -------------------------------------------------

TEST(CycleAccounting, RegistryExposesBucketsAndFractions)
{
    const Trace trace = testTrace(5151, 30000);
    CoreConfig cfg = paperBaselineConfig();
    cfg.applyHistoryScheme();
    Core core(cfg, trace, makePrefetcher("none"));
    const SimStats s = core.run(trace.size() / 5);

    StatRegistry reg;
    core.registerStats(reg);
    double frac_sum = 0.0;
    std::uint64_t bucket_sum = 0;
    for (std::size_t b = 0; b < kCycleBucketCount; ++b) {
        const std::string name =
            std::string("core.cycles.") + kCycleBucketName[b];
        ASSERT_TRUE(reg.contains(name)) << name << " not registered";
        EXPECT_EQ(reg.counterValue(name),
                  cycleBucket(s, static_cast<CycleBucket>(b)));
        bucket_sum += reg.counterValue(name);
        ASSERT_TRUE(reg.contains(name + ".frac"))
            << name << ".frac not registered";
        frac_sum += reg.value(name + ".frac");
    }
    EXPECT_EQ(bucket_sum, s.cycles);
    EXPECT_NEAR(frac_sum, 1.0, 1e-9)
        << "bucket fractions do not partition the run";
}

} // namespace
} // namespace fdip
