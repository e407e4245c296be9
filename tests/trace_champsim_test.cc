/** @file Tests for the ChampSim trace-format interchange. */

#include "trace/champsim.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "trace/workload.h"

namespace fdip
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

Trace
synthTrace(std::size_t n = 40000)
{
    WorkloadSpec s = clientSpec("champ", 99);
    s.numFunctions = 50;
    auto wl = std::make_shared<Workload>(buildWorkload(s));
    return generateTrace(wl, n);
}

TEST(ChampSim, RecordLayoutIsStable)
{
    EXPECT_EQ(sizeof(ChampSimRecord), 64u);
    EXPECT_EQ(offsetof(ChampSimRecord, ip), 0u);
    EXPECT_EQ(offsetof(ChampSimRecord, isBranch), 8u);
    EXPECT_EQ(offsetof(ChampSimRecord, branchTaken), 9u);
    EXPECT_EQ(offsetof(ChampSimRecord, destRegisters), 10u);
    EXPECT_EQ(offsetof(ChampSimRecord, sourceRegisters), 12u);
    EXPECT_EQ(offsetof(ChampSimRecord, destinationMemory), 16u);
    EXPECT_EQ(offsetof(ChampSimRecord, sourceMemory), 32u);
}

TEST(ChampSim, ClassifierMatchesTaxonomy)
{
    ChampSimRecord r;
    r.isBranch = 1;

    // Conditional: reads FLAGS, writes IP.
    r.sourceRegisters[0] = kChampSimRegFlags;
    r.destRegisters[0] = kChampSimRegInstructionPointer;
    EXPECT_EQ(classifyChampSimBranch(r), ChampSimBranch::kConditional);

    // Direct jump: writes IP only.
    r = ChampSimRecord{};
    r.isBranch = 1;
    r.destRegisters[0] = kChampSimRegInstructionPointer;
    EXPECT_EQ(classifyChampSimBranch(r), ChampSimBranch::kDirectJump);

    // Indirect jump: reads a GPR, writes IP.
    r.sourceRegisters[0] = 3;
    EXPECT_EQ(classifyChampSimBranch(r), ChampSimBranch::kIndirectJump);

    // Direct call: reads/writes IP and SP.
    r = ChampSimRecord{};
    r.isBranch = 1;
    r.sourceRegisters[0] = kChampSimRegInstructionPointer;
    r.sourceRegisters[1] = kChampSimRegStackPointer;
    r.destRegisters[0] = kChampSimRegInstructionPointer;
    r.destRegisters[1] = kChampSimRegStackPointer;
    EXPECT_EQ(classifyChampSimBranch(r), ChampSimBranch::kDirectCall);

    // Indirect call: direct call + other source.
    r.sourceRegisters[2] = 3;
    EXPECT_EQ(classifyChampSimBranch(r), ChampSimBranch::kIndirectCall);

    // Return: reads SP (not IP), writes IP.
    r = ChampSimRecord{};
    r.isBranch = 1;
    r.sourceRegisters[0] = kChampSimRegStackPointer;
    r.destRegisters[0] = kChampSimRegInstructionPointer;
    r.destRegisters[1] = kChampSimRegStackPointer;
    EXPECT_EQ(classifyChampSimBranch(r), ChampSimBranch::kReturn);

    // Non-branch.
    r = ChampSimRecord{};
    EXPECT_EQ(classifyChampSimBranch(r), ChampSimBranch::kNotBranch);
}

TEST(ChampSim, ExportImportRoundTripPreservesStream)
{
    const Trace original = synthTrace();
    const std::string path = tempPath("roundtrip.champsim");
    ASSERT_TRUE(writeChampSimTrace(path, original));

    Trace imported;
    ASSERT_TRUE(readChampSimTrace(path, 0, imported));
    ASSERT_EQ(imported.size(), original.size());

    // The renormalized image must preserve instruction classes and
    // branch outcomes record by record.
    std::size_t class_mismatch = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
        if (imported.staticOf(i).cls != original.staticOf(i).cls)
            ++class_mismatch;
        EXPECT_EQ(imported.insts[i].taken != 0,
                  original.insts[i].taken != 0)
            << "at " << i;
    }
    // Classes are identical because our exporter encodes them exactly.
    EXPECT_EQ(class_mismatch, 0u);
    // Every discovered target is a slot of the image.
    EXPECT_EQ(imported.image().numFarTargets(), 0u);
    std::remove(path.c_str());
}

TEST(ChampSim, ImportedTraceIsControlFlowConsistent)
{
    const Trace original = synthTrace();
    const std::string path = tempPath("consistent.champsim");
    ASSERT_TRUE(writeChampSimTrace(path, original));
    Trace imported;
    ASSERT_TRUE(readChampSimTrace(path, 0, imported));
    for (std::size_t i = 0; i + 1 < imported.size(); ++i) {
        ASSERT_EQ(imported.nextPc(i), imported.pcOf(i + 1))
            << "discontinuity after record " << i;
    }
    std::remove(path.c_str());
}

TEST(ChampSim, ImportRespectsMaxInsts)
{
    const Trace original = synthTrace(5000);
    const std::string path = tempPath("capped.champsim");
    ASSERT_TRUE(writeChampSimTrace(path, original));
    Trace imported;
    ASSERT_TRUE(readChampSimTrace(path, 1234, imported));
    EXPECT_EQ(imported.size(), 1234u);
    std::remove(path.c_str());
}

TEST(ChampSim, ImportRejectsMissingOrEmpty)
{
    Trace imported;
    EXPECT_FALSE(readChampSimTrace("/nonexistent/x.trace", 0, imported));
    const std::string path = tempPath("empty.champsim");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fclose(f);
    EXPECT_FALSE(readChampSimTrace(path, 0, imported));
    std::remove(path.c_str());
}

TEST(ChampSim, MemoryAddressesSurviveRoundTrip)
{
    const Trace original = synthTrace(20000);
    const std::string path = tempPath("mem.champsim");
    ASSERT_TRUE(writeChampSimTrace(path, original));
    Trace imported;
    ASSERT_TRUE(readChampSimTrace(path, 0, imported));
    std::size_t checked = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
        const InstClass c = original.staticOf(i).cls;
        if ((c == InstClass::kLoad || c == InstClass::kStore) &&
            imported.staticOf(i).cls == c) {
            EXPECT_EQ(imported.insts[i].info, original.insts[i].info);
            ++checked;
        }
    }
    EXPECT_GT(checked, 1000u);
    std::remove(path.c_str());
}

} // namespace
} // namespace fdip
