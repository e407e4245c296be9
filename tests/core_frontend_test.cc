/** @file Deterministic frontend-mechanism tests on micro-programs:
 *  PFC cases 1 and 2, GHR fixups, RAS recovery, divergence
 *  resolution, ITLB behaviour, and FTQ runahead. */

#include "core/core.h"

#include <gtest/gtest.h>

#include "prefetch/prefetcher.h"
#include "micro_program.h"

namespace fdip
{
namespace
{

using test::MicroProgram;

SimStats
runTrace(const Trace &trace, CoreConfig cfg)
{
    cfg.applyHistoryScheme();
    Core core(cfg, trace, std::make_unique<NullPrefetcher>());
    return core.run(0);
}

/**
 * A loop of straight-line code: `n` ALU slots then a backward jump.
 */
Trace
straightLineLoop(MicroProgram &mp, unsigned body, std::size_t n)
{
    const Addr top = mp.pcOfNext();
    for (unsigned i = 0; i < body; ++i)
        mp.alu();
    mp.jump(top);
    return mp.run(n);
}

TEST(Frontend, StraightLineLoopCommitsEverything)
{
    MicroProgram mp;
    const Trace t = straightLineLoop(mp, 63, 20000);
    const SimStats s = runTrace(t, paperBaselineConfig());
    EXPECT_EQ(s.committedInsts, 20000u);
    EXPECT_GT(s.ipc(), 1.0);
}

TEST(Frontend, TinyLoopFitsInICache)
{
    MicroProgram mp;
    const Trace t = straightLineLoop(mp, 63, 20000);
    const SimStats s = runTrace(t, paperBaselineConfig());
    // 64 insts = 256B = 4 lines: after the cold misses, no more.
    EXPECT_LE(s.missFullyExposed + s.missPartiallyExposed +
                  s.missCovered,
              20u);
}

TEST(Frontend, BackwardJumpLearnsViaBtb)
{
    MicroProgram mp;
    const Trace t = straightLineLoop(mp, 30, 20000);
    const SimStats s = runTrace(t, paperBaselineConfig());
    // The single jump mispredicts only while the BTB is cold.
    EXPECT_LE(s.mispredicts, 3u);
}

TEST(Frontend, PfcCaseOne_UncondJumpBtbMiss)
{
    // Many distinct always-taken jumps cycling through a BTB far too
    // small to hold them: every encounter is a BTB-miss unconditional
    // branch — exactly PFC case 1.
    MicroProgram mp;
    const unsigned kJumps = 600;
    // Layout: jump j at slot 8*j jumps to slot 8*(j+1); last wraps.
    for (unsigned j = 0; j < kJumps; ++j) {
        for (int a = 0; a < 7; ++a)
            mp.alu();
        // Non-sequential target: falling through must be WRONG so a
        // BTB miss visibly diverges the stream.
        const Addr next_block =
            mp.workload().image.baseAddr() +
            ((j + 7) % kJumps) * 8 * kInstBytes;
        mp.jump(next_block);
    }
    const Trace t = mp.run(60000);

    CoreConfig on = paperBaselineConfig();
    on.bpu.btb.numEntries = 256; // Way below 600 jumps.
    CoreConfig off = on;
    off.pfcEnabled = false;

    const SimStats s_on = runTrace(t, on);
    const SimStats s_off = runTrace(t, off);

    EXPECT_GT(s_on.pfcFires, 1000u);
    EXPECT_GT(s_on.pfcCorrect, 1000u);
    EXPECT_EQ(s_on.pfcWrong, 0u) << "uncond PFC cannot misfire";
    EXPECT_LT(s_on.mispredicts, s_off.mispredicts / 2)
        << "PFC must convert most BTB-miss flushes";
    EXPECT_GT(s_on.ipc(), s_off.ipc());
}

TEST(Frontend, PfcCaseTwo_CondBtbMissTaken)
{
    // Distinct always-taken conditionals, BTB too small: once TAGE
    // learns taken, pre-decode re-steers (case 2).
    MicroProgram mp;
    const unsigned kBranches = 600;
    for (unsigned j = 0; j < kBranches; ++j) {
        for (int a = 0; a < 7; ++a)
            mp.alu();
        // Non-sequential target so BTB misses visibly diverge.
        const Addr next_block =
            mp.workload().image.baseAddr() +
            ((j + 7) % kBranches) * 8 * kInstBytes;
        mp.cond(next_block);
    }
    const Trace t = mp.run(
        80000, [](std::uint32_t, std::uint64_t) { return true; });

    CoreConfig on = paperBaselineConfig();
    on.bpu.btb.numEntries = 256;
    CoreConfig off = on;
    off.pfcEnabled = false;

    const SimStats s_on = runTrace(t, on);
    const SimStats s_off = runTrace(t, off);
    EXPECT_GT(s_on.pfcFires, 500u);
    EXPECT_LT(s_on.mispredicts, s_off.mispredicts)
        << "case-2 PFC must help always-taken BTB-miss conditionals";
}

TEST(Frontend, PfcDisabledForConditionalsWhenUncondOnly)
{
    MicroProgram mp;
    const unsigned kBranches = 600;
    for (unsigned j = 0; j < kBranches; ++j) {
        for (int a = 0; a < 7; ++a)
            mp.alu();
        // Non-sequential target so BTB misses visibly diverge.
        const Addr next_block =
            mp.workload().image.baseAddr() +
            ((j + 7) % kBranches) * 8 * kInstBytes;
        mp.cond(next_block);
    }
    const Trace t = mp.run(
        40000, [](std::uint32_t, std::uint64_t) { return true; });

    CoreConfig cfg = paperBaselineConfig();
    cfg.bpu.btb.numEntries = 256;
    cfg.pfcUnconditionalOnly = true;
    const SimStats s = runTrace(t, cfg);
    EXPECT_EQ(s.pfcFires, 0u)
        << "no unconditional branches here, so restricted PFC is idle";
}

TEST(Frontend, NeverTakenBranchesNeedNoPfc)
{
    // Never-taken conditionals stay out of the BTB (taken-only
    // allocation) and must not trigger PFC under an accurate TAGE.
    MicroProgram mp;
    const Addr top = mp.pcOfNext();
    for (int a = 0; a < 10; ++a)
        mp.alu();
    mp.cond(mp.workload().image.baseAddr()); // Never taken.
    for (int a = 0; a < 4; ++a)
        mp.alu();
    mp.jump(top);
    const Trace t = mp.run(
        30000, [](std::uint32_t, std::uint64_t) { return false; });

    const SimStats s = runTrace(t, paperBaselineConfig());
    EXPECT_LE(s.pfcWrong, 2u);
    EXPECT_LE(s.mispredicts, 4u);
}

TEST(Frontend, GhrFixupFiresForBtbMissNotTaken)
{
    // GHR2: never-taken branch is never allocated -> a fixup flush on
    // (nearly) every visit. GHR3 allocates it at the first fixup, so
    // only a handful of fixups happen.
    MicroProgram mp;
    const Addr top = mp.pcOfNext();
    for (int a = 0; a < 10; ++a)
        mp.alu();
    mp.cond(mp.workload().image.baseAddr());
    for (int a = 0; a < 4; ++a)
        mp.alu();
    mp.jump(top);
    const Trace t = mp.run(
        16000, [](std::uint32_t, std::uint64_t) { return false; });

    CoreConfig ghr2 = paperBaselineConfig();
    ghr2.historyScheme = HistoryScheme::kGhr2;
    ghr2.pfcEnabled = false;
    CoreConfig ghr3 = ghr2;
    ghr3.historyScheme = HistoryScheme::kGhr3;
    CoreConfig thr = ghr2;
    thr.historyScheme = HistoryScheme::kThr;

    const SimStats s2 = runTrace(t, ghr2);
    const SimStats s3 = runTrace(t, ghr3);
    const SimStats st = runTrace(t, thr);

    EXPECT_GT(s2.ghrFixups, 500u) << "GHR2 pays a flush per visit";
    EXPECT_LT(s3.ghrFixups, 20u) << "GHR3 allocates and stops flushing";
    EXPECT_EQ(st.ghrFixups, 0u) << "THR needs no fixups";
    EXPECT_GT(st.ipc(), s2.ipc());
}

TEST(Frontend, CallReturnPredictedByRas)
{
    // main loop calls one function; returns must be RAS-predicted.
    MicroProgram mp;
    // Function body at a known location after main.
    const Addr main_top = mp.pcOfNext();
    for (int a = 0; a < 6; ++a)
        mp.alu();
    const std::uint32_t call_idx = mp.call(0); // Patched below.
    mp.alu();
    mp.jump(main_top);
    // Callee.
    const Addr callee = mp.pcOfNext();
    for (int a = 0; a < 10; ++a)
        mp.alu();
    mp.ret();
    StaticInst call = mp.workload().image.inst(call_idx);
    call.target = callee;
    mp.workload().image.set(call_idx, call);

    const Trace t = mp.run(30000);
    const SimStats s = runTrace(t, paperBaselineConfig());
    EXPECT_LE(s.mispredictsTarget, 3u)
        << "returns must be predicted from the RAS after warmup";
    EXPECT_GT(s.returns, 1000u);
}

TEST(Frontend, BiasedBranchResolvesAtExecute)
{
    // A taken-1-in-8 branch in a loop: mispredictions happen; each is
    // resolved and the core recovers (commit count is exact).
    MicroProgram mp;
    const Addr top = mp.pcOfNext();
    for (int a = 0; a < 6; ++a)
        mp.alu();
    const std::uint32_t br = mp.cond(0); // Patched to skip 4 ALUs.
    for (int a = 0; a < 4; ++a)
        mp.alu();
    const Addr join = mp.pcOfNext();
    for (int a = 0; a < 4; ++a)
        mp.alu();
    mp.jump(top);
    StaticInst cond = mp.workload().image.inst(br);
    cond.target = join;
    mp.workload().image.set(br, cond);

    const Trace t = mp.run(40000, [](std::uint32_t, std::uint64_t v) {
        return v % 8 == 7;
    });
    const SimStats s = runTrace(t, paperBaselineConfig());
    EXPECT_EQ(s.committedInsts, 40000u);
    EXPECT_GT(s.mispredicts, 10u);
    EXPECT_GT(s.wrongPathDelivered, 100u);
}

TEST(Frontend, IndirectCallPredictedByIttage)
{
    // An indirect call alternating between two targets in a fixed
    // period-2 pattern: ITTAGE must learn it.
    MicroProgram mp;
    const Addr main_top = mp.pcOfNext();
    for (int a = 0; a < 6; ++a)
        mp.alu();
    const std::uint32_t icall = mp.indirectCall({});
    mp.alu();
    mp.jump(main_top);
    const Addr f1 = mp.pcOfNext();
    for (int a = 0; a < 6; ++a)
        mp.alu();
    mp.ret();
    const Addr f2 = mp.pcOfNext();
    for (int a = 0; a < 6; ++a)
        mp.alu();
    mp.ret();
    mp.workload().indirectTargets[icall] = {f1, f2};

    const Trace t = mp.run(
        40000, nullptr,
        [&](std::uint32_t, std::uint64_t v) { return v % 2 ? f2 : f1; });
    const SimStats s = runTrace(t, paperBaselineConfig());
    const double target_mpki =
        1000.0 * static_cast<double>(s.mispredictsTarget) /
        static_cast<double>(s.committedInsts);
    EXPECT_LT(target_mpki, 2.0);
}

TEST(Frontend, ItlbMissesOnLargeStrides)
{
    // Jump chain spanning many 4KB pages: the 64-entry ITLB must miss.
    MicroProgram mp;
    const unsigned kPages = 200;
    for (unsigned p = 0; p < kPages; ++p) {
        // 1024 insts per page; jump at the first slot of each page to
        // the next page's start.
        const Addr next = mp.workload().image.baseAddr() +
                          ((p + 1) % kPages) * 4096;
        mp.jump(next);
        for (int a = 0; a < 1023; ++a)
            mp.alu();
    }
    const Trace t = mp.run(30000);
    const SimStats s = runTrace(t, paperBaselineConfig());
    EXPECT_GT(s.itlbMisses, 20u);
}

TEST(Frontend, FtqDepthEnablesRunahead)
{
    // Code footprint >> L1I: deeper FTQ must reduce starvation.
    MicroProgram mp;
    const unsigned kBlocks = 4096; // 128KB of straight-line code.
    for (unsigned b = 0; b < kBlocks - 1; ++b) {
        for (int a = 0; a < 8; ++a)
            mp.alu();
    }
    for (int a = 0; a < 7; ++a)
        mp.alu();
    mp.jump(mp.workload().image.baseAddr());
    const Trace t = mp.run(60000);

    CoreConfig shallow = paperBaselineConfig();
    shallow.ftqEntries = 2;
    CoreConfig deep = paperBaselineConfig();
    deep.ftqEntries = 24;
    const SimStats s_shallow = runTrace(t, shallow);
    const SimStats s_deep = runTrace(t, deep);
    EXPECT_GT(s_deep.ipc(), s_shallow.ipc() * 1.2);
    EXPECT_LT(s_deep.starvationCycles, s_shallow.starvationCycles);
}

TEST(Frontend, PerfectICacheNeverMisses)
{
    MicroProgram mp;
    const Trace t = straightLineLoop(mp, 200, 20000);
    CoreConfig cfg = paperBaselineConfig();
    cfg.perfectICache = true;
    const SimStats s = runTrace(t, cfg);
    EXPECT_EQ(s.l1iDemandMisses, 0u);
}

} // namespace
} // namespace fdip
