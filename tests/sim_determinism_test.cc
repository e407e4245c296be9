/**
 * @file
 * Simulator-wide determinism tests: running the same (config, trace)
 * twice back-to-back in one process must produce bit-identical
 * SimStats. Any hidden global or static mutable state in predictors,
 * prefetchers, caches, or the trace machinery shows up here as a
 * first-run/second-run divergence — before parallel execution can
 * amplify it into a heisenbug.
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/core.h"
#include "prefetch/factory.h"
#include "sim/experiment.h"

namespace fdip
{
namespace
{

Trace
tinyTrace(std::uint64_t seed = 4242, std::size_t insts = 30000)
{
    WorkloadSpec s = serverSpec("det", seed);
    s.numFunctions = 64;
    auto wl = std::make_shared<Workload>(buildWorkload(s));
    return generateTrace(wl, insts);
}

SimStats
runOnce(const CoreConfig &cfg, const Trace &trace,
        const std::string &prefetcher)
{
    Core core(cfg, trace, makePrefetcher(prefetcher));
    return core.run(/*warmup_insts=*/5000);
}

/** Runs (cfg, trace, prefetcher) twice and asserts identical stats. */
void
expectRepeatable(CoreConfig cfg, const Trace &trace,
                 const std::string &prefetcher, const char *what)
{
    cfg.applyHistoryScheme();
    const SimStats first = runOnce(cfg, trace, prefetcher);
    const SimStats second = runOnce(cfg, trace, prefetcher);
    EXPECT_GT(first.committedInsts, 0u) << what;
    EXPECT_TRUE(first.architecturallyEqual(second))
        << "back-to-back runs diverged for " << what
        << " — hidden global/static state reachable from Core::run";
}

TEST(Determinism, BaselineConfigsRepeatExactly)
{
    const Trace trace = tinyTrace();
    expectRepeatable(paperBaselineConfig(), trace, "none", "FDP baseline");
    expectRepeatable(noFdpConfig(), trace, "none", "no-FDP baseline");
}

TEST(Determinism, HistorySchemesRepeatExactly)
{
    const Trace trace = tinyTrace();
    for (HistoryScheme s :
         {HistoryScheme::kThr, HistoryScheme::kGhr0, HistoryScheme::kGhr1,
          HistoryScheme::kGhr2, HistoryScheme::kGhr3,
          HistoryScheme::kIdeal}) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.historyScheme = s;
        expectRepeatable(cfg, trace, "none", historySchemeName(s));
    }
}

TEST(Determinism, EveryPrefetcherRepeatsExactly)
{
    const Trace trace = tinyTrace();
    for (const char *pf : {"none", "nl1", "fnl+mma", "d-jolt", "eip-27",
                           "eip-128", "rdip", "sn4l+dis", "sn4l+dis+btb"}) {
        expectRepeatable(paperBaselineConfig(), trace, pf, pf);
    }
}

TEST(Determinism, PerfectModesRepeatExactly)
{
    const Trace trace = tinyTrace();
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.perfectPrefetch = true;
        expectRepeatable(cfg, trace, "none", "perfect prefetch");
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.perfectBtb = true;
        expectRepeatable(cfg, trace, "none", "perfect BTB");
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.perfectICache = true;
        expectRepeatable(cfg, trace, "none", "perfect I-cache");
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.usePrefetchBuffer = true;
        expectRepeatable(cfg, trace, "nl1", "prefetch buffer");
    }
}

/** The host tick-phase profiler reads the wall clock, so determinism
 *  rests entirely on it never feeding simulated state: profiling on
 *  (any interval) vs. off must be architecturally bit-identical, and
 *  a profiled run must actually have sampled (the comparison is not
 *  vacuous). */
TEST(Determinism, ProfilerOnVsOffIsArchitecturallyInvisible)
{
    const Trace trace = tinyTrace();
    for (const char *pf : {"none", "eip-27", "sn4l+dis+btb"}) {
        CoreConfig off = paperBaselineConfig();
        off.applyHistoryScheme();
        Core core_off(off, trace, makePrefetcher(pf));
        const SimStats s_off = core_off.run(/*warmup_insts=*/5000);

        CoreConfig on = off;
        on.obs.profileInterval = 7; // Odd, to hit varied tick phases.
        Core core_on(on, trace, makePrefetcher(pf));
        const SimStats s_on = core_on.run(/*warmup_insts=*/5000);

        EXPECT_GT(core_on.hostProfile().sampledTicks, 0u)
            << pf << ": profiler never sampled — comparison is vacuous";
        EXPECT_TRUE(s_off.architecturallyEqual(s_on))
            << pf << ": host profiling changed architectural results";
        EXPECT_EQ(core_off.hostProfile().sampledTicks, 0u)
            << pf << ": disabled profiler sampled anyway";
    }
}

TEST(Determinism, TraceIsNotMutatedByARun)
{
    const Trace trace = tinyTrace(777, 20000);
    std::vector<DynInst> before;
    trace.insts.forEach([&](const DynInst &d) { before.push_back(d); });
    (void)runOnce(paperBaselineConfig(), trace, "eip-27");
    ASSERT_EQ(before.size(), trace.insts.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        ASSERT_EQ(before[i].staticIndex, trace.insts[i].staticIndex)
            << "trace mutated at dynamic instruction " << i;
    }
}

TEST(Determinism, RunSuiteTwiceIsBitIdentical)
{
    std::vector<SuiteEntry> suite;
    SuiteEntry e;
    e.name = "det";
    e.trace = tinyTrace(31337, 25000);
    suite.push_back(std::move(e));

    const SuiteResult a =
        runSuite("x", paperBaselineConfig(), suite, noPrefetcher());
    const SuiteResult b =
        runSuite("x", paperBaselineConfig(), suite, noPrefetcher());
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i)
        EXPECT_TRUE(a.runs[i].stats.architecturallyEqual(b.runs[i].stats));
    EXPECT_DOUBLE_EQ(a.geomeanIpc(), b.geomeanIpc());
}

TEST(Determinism, TraceGenerationRepeatsExactly)
{
    const Trace a = tinyTrace(555, 15000);
    const Trace b = tinyTrace(555, 15000);
    ASSERT_EQ(a.insts.size(), b.insts.size());
    for (std::size_t i = 0; i < a.insts.size(); ++i)
        ASSERT_EQ(a.insts[i].staticIndex, b.insts[i].staticIndex);
}

} // namespace
} // namespace fdip
