/** @file Structural tests for the synthetic workload generator. */

#include "trace/workload.h"

#include <gtest/gtest.h>

namespace fdip
{
namespace
{

/** Parameterized across the three workload families. */
class WorkloadFamily : public ::testing::TestWithParam<int>
{
  protected:
    WorkloadSpec
    spec() const
    {
        switch (GetParam()) {
          case 0: return serverSpec("srv", 11);
          case 1: return clientSpec("clt", 22);
          default: return specCpuSpec("spec", 33);
        }
    }
};

TEST_P(WorkloadFamily, DeterministicPerSeed)
{
    const Workload a = buildWorkload(spec());
    const Workload b = buildWorkload(spec());
    ASSERT_EQ(a.image.numInsts(), b.image.numInsts());
    for (std::uint32_t i = 0; i < a.image.numInsts(); ++i) {
        EXPECT_EQ(a.image.inst(i).cls, b.image.inst(i).cls) << i;
        EXPECT_EQ(a.image.inst(i).target, b.image.inst(i).target) << i;
    }
    EXPECT_EQ(a.entryPc, b.entryPc);
    EXPECT_EQ(a.rootSchedule, b.rootSchedule);
}

TEST_P(WorkloadFamily, DifferentSeedsDiffer)
{
    WorkloadSpec s1 = spec();
    WorkloadSpec s2 = spec();
    s2.seed += 1;
    const Workload a = buildWorkload(s1);
    const Workload b = buildWorkload(s2);
    // Sizes almost surely differ; at minimum some instruction differs.
    bool differ = a.image.numInsts() != b.image.numInsts();
    if (!differ) {
        for (std::uint32_t i = 0; i < a.image.numInsts(); ++i) {
            if (a.image.inst(i).cls != b.image.inst(i).cls ||
                a.image.inst(i).target != b.image.inst(i).target) {
                differ = true;
                break;
            }
        }
    }
    EXPECT_TRUE(differ);
}

TEST_P(WorkloadFamily, AllBranchTargetsInsideImage)
{
    const Workload wl = buildWorkload(spec());
    // Every target is a slot index: nothing lands in the side list.
    EXPECT_EQ(wl.image.numFarTargets(), 0u);
    for (std::uint32_t i = 0; i < wl.image.numInsts(); ++i) {
        const StaticInst &s = wl.image.inst(i);
        if (isBranch(s.cls) && isDirect(s.cls)) {
            EXPECT_TRUE(wl.image.contains(s.target))
                << "inst " << i << " target " << std::hex << s.target;
        }
    }
}

TEST_P(WorkloadFamily, ConditionalBranchesHaveBehavior)
{
    const Workload wl = buildWorkload(spec());
    for (std::uint32_t i = 0; i < wl.image.numInsts(); ++i) {
        const StaticInst &s = wl.image.inst(i);
        if (isConditional(s.cls)) {
            EXPECT_NE(s.behavior, BranchBehavior::kNone) << i;
        }
    }
}

TEST_P(WorkloadFamily, CallGraphIsAcyclic)
{
    // Every call target (direct or indirect candidate) points to a
    // strictly later address: recursion is impossible by construction.
    const Workload wl = buildWorkload(spec());
    for (std::uint32_t i = 0; i < wl.image.numInsts(); ++i) {
        const StaticInst &s = wl.image.inst(i);
        if (s.cls == InstClass::kCallDirect) {
            EXPECT_GT(s.target, wl.image.pcOf(i)) << "call at " << i;
        }
    }
    for (const auto &kv : wl.indirectTargets) {
        if (kv.first == wl.dispatchCallIndex)
            continue;
        for (Addr t : kv.second)
            EXPECT_GT(t, wl.image.pcOf(kv.first));
    }
}

TEST_P(WorkloadFamily, IndirectSitesHaveTargets)
{
    const Workload wl = buildWorkload(spec());
    for (std::uint32_t i = 0; i < wl.image.numInsts(); ++i) {
        const StaticInst &s = wl.image.inst(i);
        if (isIndirect(s.cls)) {
            const auto it = wl.indirectTargets.find(i);
            ASSERT_NE(it, wl.indirectTargets.end()) << "site " << i;
            EXPECT_FALSE(it->second.empty());
            for (Addr t : it->second)
                EXPECT_TRUE(wl.image.contains(t));
        }
    }
}

TEST_P(WorkloadFamily, EveryFunctionEndsInReturn)
{
    const Workload wl = buildWorkload(spec());
    ASSERT_FALSE(wl.image.functions().empty());
    // Skip the dispatcher (function 0), which loops forever.
    for (std::size_t f = 1; f < wl.image.functions().size(); ++f) {
        const FunctionInfo &fi = wl.image.functions()[f];
        const StaticInst &last =
            wl.image.inst(fi.firstIndex + fi.numInsts - 1);
        EXPECT_EQ(last.cls, InstClass::kReturn) << "function " << f;
    }
}

TEST_P(WorkloadFamily, DispatcherSchedulePointsAtFunctionEntries)
{
    const Workload wl = buildWorkload(spec());
    ASSERT_FALSE(wl.rootSchedule.empty());
    for (const auto &phase : wl.rootSchedule) {
        ASSERT_FALSE(phase.empty());
        for (Addr root : phase) {
            bool is_entry = false;
            for (const auto &fi : wl.image.functions()) {
                if (wl.image.pcOf(fi.firstIndex) == root) {
                    is_entry = true;
                    break;
                }
            }
            EXPECT_TRUE(is_entry) << std::hex << root;
        }
    }
}

TEST_P(WorkloadFamily, FootprintExceedsL1I)
{
    // The paper's workload-selection rule needs instruction footprints
    // well beyond the 32KB L1I.
    const Workload wl = buildWorkload(spec());
    EXPECT_GT(wl.image.footprintBytes(), 64u * 1024);
}

INSTANTIATE_TEST_SUITE_P(Families, WorkloadFamily,
                         ::testing::Values(0, 1, 2));

TEST(Workload, RejectsTooFewFunctions)
{
    WorkloadSpec s = serverSpec("bad", 1);
    s.numFunctions = s.numRootFunctions; // Too few.
    EXPECT_DEATH({ buildWorkload(s); }, "too few functions");
}

} // namespace
} // namespace fdip
