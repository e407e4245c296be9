/** @file Semantic tests for the trace executor. */

#include "trace/trace_gen.h"

#include <map>

#include <gtest/gtest.h>

namespace fdip
{
namespace
{

std::shared_ptr<const Workload>
smallWorkload(std::uint64_t seed = 5)
{
    WorkloadSpec s = clientSpec("t", seed);
    s.numFunctions = 40;
    s.numRootFunctions = 8;
    s.rootRotationLength = 4;
    return std::make_shared<Workload>(buildWorkload(s));
}

TEST(TraceGen, ProducesRequestedLength)
{
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 50000);
    EXPECT_EQ(t.size(), 50000u);
}

TEST(TraceGen, DeterministicPerWorkload)
{
    auto wl = smallWorkload();
    const Trace a = generateTrace(wl, 20000);
    const Trace b = generateTrace(wl, 20000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.insts[i].staticIndex, b.insts[i].staticIndex) << i;
        EXPECT_EQ(a.insts[i].taken, b.insts[i].taken) << i;
        EXPECT_EQ(a.insts[i].info, b.insts[i].info) << i;
    }
}

TEST(TraceGen, ControlFlowIsConsistent)
{
    // nextPc(i) must equal pcOf(i+1) for every instruction: the
    // trace is a connected path through the image.
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 50000);
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        ASSERT_EQ(t.nextPc(i), t.pcOf(i + 1))
            << "discontinuity after dyn inst " << i;
    }
}

TEST(TraceGen, StartsAtDispatcher)
{
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 100);
    EXPECT_EQ(t.pcOf(0), wl->entryPc);
}

TEST(TraceGen, BranchSemantics)
{
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 50000);
    for (std::size_t i = 0; i < t.size(); ++i) {
        const StaticInst &s = t.staticOf(i);
        const DynInst &d = t.insts[i];
        if (isUnconditional(s.cls)) {
            EXPECT_EQ(d.taken, 1) << "uncond branch NT at " << i;
        }
        if (!isBranch(s.cls)) {
            EXPECT_EQ(d.taken, 0);
        }
        if (isBranch(s.cls) && isDirect(s.cls) && d.taken &&
            s.cls != InstClass::kCondDirect) {
            EXPECT_EQ(d.info, s.target);
        }
        if (s.cls == InstClass::kCondDirect && d.taken) {
            EXPECT_EQ(d.info, s.target);
        }
    }
}

TEST(TraceGen, CallsAndReturnsBalance)
{
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 50000);
    long depth = 0;
    long max_depth = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const StaticInst &s = t.staticOf(i);
        if (isCall(s.cls))
            ++depth;
        if (isReturn(s.cls))
            --depth;
        max_depth = std::max(max_depth, depth);
        ASSERT_GE(depth, 0) << "return without call at " << i;
    }
    EXPECT_GT(max_depth, 1);
}

TEST(TraceGen, ReturnsGoToCallSites)
{
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 50000);
    std::vector<Addr> stack;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const StaticInst &s = t.staticOf(i);
        if (isCall(s.cls))
            stack.push_back(t.pcOf(i) + kInstBytes);
        if (isReturn(s.cls)) {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(t.insts[i].info, stack.back()) << i;
            stack.pop_back();
        }
    }
}

TEST(TraceGen, LoopBranchesIterate)
{
    // Every loop back-edge must be taken (param-1) times per entry:
    // check that at least one loop branch shows both outcomes.
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 100000);
    std::map<std::uint32_t, std::pair<int, int>> outcomes;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const StaticInst &s = t.staticOf(i);
        if (s.behavior == BranchBehavior::kLoop) {
            auto &o = outcomes[t.insts[i].staticIndex];
            if (t.insts[i].taken)
                ++o.first;
            else
                ++o.second;
        }
    }
    ASSERT_FALSE(outcomes.empty());
    int both = 0;
    for (const auto &kv : outcomes) {
        if (kv.second.first > 0 && kv.second.second > 0)
            ++both;
    }
    EXPECT_GT(both, 0);
}

TEST(TraceGen, LoopTripCountsMatchParam)
{
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 200000);
    // For each loop branch, consecutive takens between not-takens must
    // equal param - 1 once in steady state.
    std::map<std::uint32_t, int> runLength;
    std::map<std::uint32_t, std::vector<int>> runs;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const StaticInst &s = t.staticOf(i);
        if (s.behavior != BranchBehavior::kLoop)
            continue;
        const std::uint32_t idx = t.insts[i].staticIndex;
        if (t.insts[i].taken) {
            ++runLength[idx];
        } else {
            runs[idx].push_back(runLength[idx]);
            runLength[idx] = 0;
        }
    }
    int checked = 0;
    for (const auto &kv : runs) {
        const StaticInst &s = wl->image.inst(kv.first);
        // Interior runs (not truncated by trace start/end) must be
        // exactly param - 1 takens followed by the exit.
        for (std::size_t r = 1; r + 1 < kv.second.size(); ++r) {
            EXPECT_EQ(kv.second[r], s.param - 1)
                << "loop at " << kv.first;
            ++checked;
        }
    }
    EXPECT_GT(checked, 10);
}

TEST(TraceGen, MemoryAddressesPresent)
{
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 20000);
    std::size_t mem = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const StaticInst &s = t.staticOf(i);
        if (s.cls == InstClass::kLoad || s.cls == InstClass::kStore) {
            ++mem;
            EXPECT_NE(t.insts[i].info, kNoAddr) << i;
        }
    }
    EXPECT_GT(mem, t.size() / 10);
}

TEST(TraceGen, DispatcherRotates)
{
    auto wl = smallWorkload();
    const Trace t = generateTrace(wl, 100000);
    std::map<Addr, int> roots;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t.insts[i].staticIndex == wl->dispatchCallIndex)
            ++roots[t.insts[i].info];
    }
    EXPECT_GT(roots.size(), 2u) << "dispatcher never rotated roots";
}

} // namespace
} // namespace fdip
