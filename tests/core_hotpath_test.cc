/** @file Runtime ground truth for the hot-path allocation contract:
 *  steady-state Core::run performs ZERO heap allocations, for every
 *  named configuration x every factory prefetcher.
 *
 *  tools/lint/check_hotgraph.py is the static half (it names the
 *  offending line along the call chain); this test is the dynamic
 *  half (it catches what a static scan cannot: a call it cannot
 *  resolve, a std container growing past its preallocation, a
 *  library call that mallocs). The two layers fail independently, so
 *  a regression has to slip past both.
 *
 *  Method: tests/hotpath_alloc_interposer.h replaces the global
 *  operator new/delete with counting versions. A first throwaway run
 *  warms every process-lifetime lazy structure (libstdc++/gtest
 *  internals; the InvariantScope stack is a fixed-size array and needs
 *  no warming); each measured run then constructs its Core
 *  (construction may allocate freely), snapshots the counter, runs to
 *  completion, and asserts the counter did not move.
 */

#include "hotpath_alloc_interposer.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/core.h"
#include "prefetch/factory.h"
#include "trace/suite.h"

namespace fdip
{
namespace
{

/** Every name prefetch/factory.cc accepts. */
const char *const kAllPrefetchers[] = {
    "none",   "nl1",      "fnl+mma",      "d-jolt", "eip-128",
    "eip-27", "rdip",     "sn4l+dis",     "sn4l+dis+btb",
};

/** A reduced server-like trace shared across measurements. */
const Trace &
sharedTrace()
{
    static const Trace trace = [] {
        WorkloadSpec s = serverSpec("hotpath", 77);
        s.numFunctions = 90;
        s.numRootFunctions = 12;
        auto wl = std::make_shared<Workload>(buildWorkload(s));
        return generateTrace(wl, 60000);
    }();
    return trace;
}

/** Normalizes a config for measurement (heartbeats off: the series
 *  preallocation is charged to run() setup, which we measure around
 *  separately in HeartbeatSeriesAllocatesOnlyInSetup). */
CoreConfig
measured(CoreConfig cfg)
{
    cfg.applyHistoryScheme();
    cfg.obs.heartbeatInterval = 0;
    return cfg;
}

/** One full run to warm process-lifetime lazies before any counting. */
void
warmProcessOnce()
{
    static const bool warmed = [] {
        Core core(measured(paperBaselineConfig()), sharedTrace(),
                  makePrefetcher("none"));
        core.run(sharedTrace().size() / 5);
        return true;
    }();
    (void)warmed;
}

/** Heap allocations performed by core.run() itself. */
std::uint64_t
runAllocDelta(const CoreConfig &cfg, const char *prefetcher)
{
    warmProcessOnce();
    const Trace &trace = sharedTrace();
    Core core(cfg, trace, makePrefetcher(prefetcher));
    const std::uint64_t before = test::allocCalls();
    core.run(trace.size() / 5);
    return test::allocCalls() - before;
}

/** The interposer is actually interposed: a unique_ptr round-trip
 *  moves both counters. Guards against a build silently linking the
 *  default allocator, which would make every zero-assertion vacuous. */
TEST(HotpathInterposer, CountsAllocationAndDeallocation)
{
    const std::uint64_t a0 = test::allocCalls();
    const std::uint64_t d0 = test::deallocCalls();
    const std::uint64_t b0 = test::allocBytes();
    {
        auto p = std::make_unique<std::uint64_t>(42);
        ASSERT_EQ(*p, 42u);
    }
    EXPECT_GT(test::allocCalls(), a0);
    EXPECT_GT(test::deallocCalls(), d0);
    EXPECT_GE(test::allocBytes(), b0 + sizeof(std::uint64_t));
}

TEST(HotpathInterposer, CountsArrayAndNothrowForms)
{
    const std::uint64_t a0 = test::allocCalls();
    delete[] new int[8];
    void *p = operator new(16, std::nothrow);
    operator delete(p, std::nothrow);
    EXPECT_EQ(test::allocCalls(), a0 + 2);
}

/** The core claim: zero steady-state allocations for every named
 *  config x every factory prefetcher. A failure here means a per-tick
 *  structure lost its preallocation (or a new one was added without
 *  one) -- find the line with tools/lint/check_hotgraph.py, or bisect
 *  with the byte counter. */
TEST(CoreHotpath, BaselineRunsWithoutHeapAllocation)
{
    const CoreConfig cfg = measured(paperBaselineConfig());
    for (const char *pf : kAllPrefetchers)
        EXPECT_EQ(runAllocDelta(cfg, pf), 0u)
            << "paperBaselineConfig x " << pf
            << " allocated during Core::run";
}

TEST(CoreHotpath, NoFdpRunsWithoutHeapAllocation)
{
    const CoreConfig cfg = measured(noFdpConfig());
    for (const char *pf : kAllPrefetchers)
        EXPECT_EQ(runAllocDelta(cfg, pf), 0u)
            << "noFdpConfig x " << pf << " allocated during Core::run";
}

TEST(CoreHotpath, TwoLevelBtbRunsWithoutHeapAllocation)
{
    const CoreConfig cfg = measured(twoLevelBtbConfig());
    for (const char *pf : kAllPrefetchers)
        EXPECT_EQ(runAllocDelta(cfg, pf), 0u)
            << "twoLevelBtbConfig x " << pf
            << " allocated during Core::run";
}

/** Feature knobs that change the tick path's shape stay alloc-free. */
TEST(CoreHotpath, FeatureVariantsRunWithoutHeapAllocation)
{
    CoreConfig buffer = paperBaselineConfig();
    buffer.usePrefetchBuffer = true;

    CoreConfig perfect_pf = paperBaselineConfig();
    perfect_pf.perfectPrefetch = true;

    CoreConfig perfect_ic = paperBaselineConfig();
    perfect_ic.perfectICache = true;

    CoreConfig ghr3 = paperBaselineConfig();
    ghr3.historyScheme = HistoryScheme::kGhr3;

    EXPECT_EQ(runAllocDelta(measured(buffer), "fnl+mma"), 0u)
        << "prefetch buffer path allocated";
    EXPECT_EQ(runAllocDelta(measured(perfect_pf), "fnl+mma"), 0u)
        << "perfect-prefetch path allocated";
    EXPECT_EQ(runAllocDelta(measured(perfect_ic), "none"), 0u)
        << "perfect-I-cache path allocated";
    EXPECT_EQ(runAllocDelta(measured(ghr3), "none"), 0u)
        << "GHR3 fixup path allocated";
}

/** The tick-phase profiler's per-tick work is fixed arrays plus a
 *  clock read on sampled ticks — with it armed (even at interval 1,
 *  every tick sampled), Core::run must still not allocate. */
TEST(CoreHotpath, ProfilerRunsWithoutHeapAllocation)
{
    for (std::uint64_t interval : {std::uint64_t{1}, std::uint64_t{64}}) {
        CoreConfig cfg = measured(paperBaselineConfig());
        cfg.obs.profileInterval = interval;
        EXPECT_EQ(runAllocDelta(cfg, "none"), 0u)
            << "profiler at interval " << interval
            << " allocated during Core::run";
    }
}

/** With heartbeats ON, run() may allocate only the preallocated
 *  sample series -- a bounded, O(1)-count setup cost outside the tick
 *  loop -- and the per-tick sampling itself must stay alloc-free.
 *  vector::resize allocates at most once here. */
TEST(CoreHotpath, HeartbeatSeriesAllocatesOnlyInSetup)
{
    warmProcessOnce();
    CoreConfig cfg = measured(paperBaselineConfig());
    cfg.obs.heartbeatInterval = 1000;
    const Trace &trace = sharedTrace();
    Core core(cfg, trace, makePrefetcher("none"));
    const std::uint64_t before = test::allocCalls();
    core.run(trace.size() / 5);
    const std::uint64_t delta = test::allocCalls() - before;
    EXPECT_LE(delta, 1u) << "heartbeat sampling allocated per-tick";
    EXPECT_GT(core.heartbeats().size(), 10u)
        << "heartbeat series was not actually recorded";
}

} // namespace
} // namespace fdip
