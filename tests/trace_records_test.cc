/**
 * @file
 * The packed record store in lockstep with the records its builders
 * appended (trace_lockstep.h), over every record of generated,
 * hand-built, micro-program and ChampSim-imported traces.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "micro_program.h"
#include "sim/experiment.h"
#include "trace/champsim.h"
#include "trace/suite.h"
#include "trace/workload.h"
#include "trace_digest_reference.h"
#include "trace_lockstep.h"

namespace fdip
{
namespace
{

using test::expectLockstep;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceRecords, SmallSuiteReadsBackInLockstep)
{
    const std::size_t n = 60000;
    const std::vector<SuiteEntry> suite = buildStandardSuite(n, true);
    const WorkloadSpec specs[] = {serverSpec("srv-a", 101),
                                  clientSpec("clt-a", 201),
                                  specCpuSpec("spec-a", 301)};
    ASSERT_EQ(suite.size(), std::size(specs));
    for (std::size_t k = 0; k < suite.size(); ++k) {
        std::vector<DynInst> kept;
        const Trace t = generateTrace(
            std::make_shared<Workload>(buildWorkload(specs[k])), n, &kept);
        expectLockstep(t, kept);
        // The suite's own trace is this one.
        EXPECT_EQ(traceDigest({suite[k].name, t}), traceDigest(suite[k]));

        // Only memory records and differing infos are stored, none in
        // the side list, and the trace is built at its exact size.
        EXPECT_EQ(t.insts.numSideRecords(), 0u) << suite[k].name;
        std::size_t memory = 0;
        for (std::size_t i = 0; i < t.size(); ++i) {
            const InstClass c = t.staticOf(i).cls;
            memory += c == InstClass::kLoad || c == InstClass::kStore;
        }
        EXPECT_GE(t.insts.numStoredInfos(), memory) << suite[k].name;
        EXPECT_LE(t.insts.numStoredInfos(), memory + 1) << suite[k].name;
        const double bytes_per_record =
            static_cast<double>(t.insts.footprintBytes()) /
            static_cast<double>(t.size());
        EXPECT_LT(bytes_per_record, 8.0) << suite[k].name;
    }
}

TEST(TraceRecords, MicroProgramReadsBackInLockstep)
{
    // A loop of every class: a load, a store-free ALU run, a call to a
    // leaf with an indirect jump, and a biased conditional back edge.
    test::MicroProgram mp;
    const Addr base = mp.workload().image.baseAddr();
    mp.load();
    mp.alu();
    const std::uint32_t call = mp.call(0);
    mp.cond(base);
    mp.jump(base);
    const std::uint32_t leaf = mp.alu();
    const std::uint32_t ijump = mp.indirectCall({});
    const std::uint32_t tail = mp.ret();
    StaticInst c = mp.workload().image.inst(call);
    c.target = mp.pc(leaf);
    mp.workload().image.set(call, c);
    StaticInst ij = mp.workload().image.inst(ijump);
    ij.cls = InstClass::kJumpIndirect;
    mp.workload().image.set(ijump, ij);

    std::vector<DynInst> kept;
    const Trace t = mp.run(
        5000,
        [](std::uint32_t, std::uint64_t visit) { return visit % 3 != 0; },
        [&](std::uint32_t, std::uint64_t) { return mp.pc(tail); }, &kept);
    expectLockstep(t, kept);
    EXPECT_EQ(t.insts.numSideRecords(), 0u);
}

TEST(TraceRecords, ChampSimRoundTripsReadBackInLockstep)
{
    for (const WorkloadSpec &spec :
         {serverSpec("rt-srv", 41), clientSpec("rt-clt", 42)}) {
        const Trace original = generateTrace(
            std::make_shared<Workload>(buildWorkload(spec)), 40000);
        const std::string path = tempPath("records_roundtrip.champsim");
        ASSERT_TRUE(writeChampSimTrace(path, original));
        Trace imported;
        std::vector<DynInst> kept;
        ASSERT_TRUE(readChampSimTrace(path, 0, imported, &kept));
        std::remove(path.c_str());
        expectLockstep(imported, kept);
    }
}

/** An image of @p n ALU slots with a load, a conditional, a jump and an
 *  indirect jump at the given indices. */
std::shared_ptr<Workload>
edgeImage()
{
    auto wl = std::make_shared<Workload>();
    ProgramImage &img = wl->image;
    for (unsigned i = 0; i < 16; ++i)
        img.append(StaticInst{});
    StaticInst ld;
    ld.cls = InstClass::kLoad;
    img.set(1, ld);
    StaticInst br;
    br.cls = InstClass::kCondDirect;
    br.target = img.pcOf(8);
    img.set(2, br);
    StaticInst jmp;
    jmp.cls = InstClass::kJumpDirect;
    jmp.target = img.pcOf(12);
    img.set(3, jmp);
    StaticInst ind;
    ind.cls = InstClass::kJumpIndirect;
    img.set(4, ind);
    return wl;
}

DynInst
rec(std::uint32_t index, std::uint8_t taken, Addr info)
{
    DynInst d;
    d.staticIndex = index;
    d.taken = taken;
    d.info = info;
    return d;
}

/** Builds @p records over @p wl and checks them in lockstep, plus the
 *  digest against its byte-serial reference. */
Trace
built(const std::shared_ptr<Workload> &wl,
      const std::vector<DynInst> &records)
{
    Trace t(wl, records);
    expectLockstep(t, records);
    const SuiteEntry e{"edge", t};
    EXPECT_EQ(traceDigest(e), test::referenceTraceDigest(e));
    return t;
}

TEST(TraceRecords, EmptyAndOneRecordTraces)
{
    const auto wl = edgeImage();
    const Trace empty = built(wl, {});
    EXPECT_EQ(empty.size(), 0u);
    std::size_t visited = 0;
    empty.insts.forEach([&](const DynInst &) { ++visited; });
    EXPECT_EQ(visited, 0u);

    const Trace alu = built(wl, {rec(0, 0, kNoAddr)});
    EXPECT_EQ(alu.insts.numStoredInfos(), 0u);
    const Trace load = built(wl, {rec(1, 0, 0x1234)});
    EXPECT_EQ(load.insts.numStoredInfos(), 1u);
}

TEST(TraceRecords, TakenLastRecordKeepsItsInfo)
{
    const auto wl = edgeImage();
    const Addr pc12 = wl->image.pcOf(12);
    // A taken jump with no successor, alone and after others.
    const Trace alone = built(wl, {rec(3, 1, pc12)});
    EXPECT_EQ(alone.insts.numStoredInfos(), 1u);
    const Trace last =
        built(wl, {rec(0, 0, kNoAddr), rec(3, 1, pc12), rec(12, 0, kNoAddr),
                   rec(3, 1, pc12)});
    EXPECT_EQ(last.nextPc(3), pc12);
    // The middle jump derives from its successor; the last one cannot.
    EXPECT_EQ(last.insts.numStoredInfos(), 1u);
}

TEST(TraceRecords, TakenRecordBeforeASideListRecord)
{
    const auto wl = edgeImage();
    const Addr pc12 = wl->image.pcOf(12);
    DynInst padded = rec(12, 0, kNoAddr);
    padded.pad[1] = 7;
    const Trace t = built(wl, {rec(3, 1, pc12), padded, rec(13, 0, kNoAddr)});
    EXPECT_EQ(t.insts.numSideRecords(), 1u);
    EXPECT_EQ(t.nextPc(0), pc12);
}

TEST(TraceRecords, SideListRecordsReadBackWhole)
{
    const auto wl = edgeImage();
    const std::uint32_t size = static_cast<std::uint32_t>(
        wl->image.numInsts());
    DynInst padded = rec(0, 0, kNoAddr);
    padded.pad[2] = 0x80;
    const std::vector<DynInst> records = {
        rec(0, 0, kNoAddr),
        rec(size, 0, kNoAddr),              // Index = numInsts().
        rec(size, 1, 0x9999),
        rec(0x80000000u, 0, 0x42),          // Index >= 2^31.
        rec(0x7fffffffu, 1, kNoAddr),       // The sentinel's index.
        rec(0xffffffffu, 0xff, kNoAddr),
        rec(2, 2, wl->image.pcOf(8)),       // Taken 2 and 0xff.
        rec(2, 0xff, wl->image.pcOf(5)),
        padded,                              // Nonzero padding.
        rec(0, 1, wl->image.pcOf(10)),       // A taken ALU.
        rec(9, 0, 0x5555),                   // Info differs: stored.
        rec(2, 0, 0x6666),                   // Not the static target.
        rec(4, 0, 0x7777),                   // Indirect, not kNoAddr.
        rec(3, 1, wl->image.pcOf(7)),        // Not the successor's PC.
        rec(1, 1, 0xabcd),                   // A taken load.
        rec(5, 0, kNoAddr),
    };
    const Trace t = built(wl, records);
    EXPECT_EQ(t.insts.numSideRecords(), 8u);
    // Stored: the taken ALU and the jump, whose successors are
    // elsewhere, the three infos that differ from their slots', and
    // the load.
    EXPECT_EQ(t.insts.numStoredInfos(), 6u);
}

TEST(TraceRecords, SpansRankBlocks)
{
    // Stored and derived infos on both sides of several 64-record
    // block edges, so each rank reads its block's count.
    const auto wl = edgeImage();
    std::vector<DynInst> records;
    for (unsigned i = 0; i < 300; ++i) {
        switch (i % 7) {
          case 0: records.push_back(rec(1, 0, 0x1000 + i)); break;
          case 1: records.push_back(rec(0, 0, kNoAddr)); break;
          case 2:
            records.push_back(rec(2, 0, wl->image.pcOf(8)));
            break;
          case 3:
            records.push_back(rec(3, 1, wl->image.pcOf(12)));
            records.push_back(rec(12, 0, kNoAddr));
            break;
          default:
            records.push_back(rec(1, 0, 0x2000 + i));
            break;
        }
    }
    built(wl, records);
}

/** One ChampSim record at @p ip. */
ChampSimRecord
champsim(std::uint64_t ip, std::uint64_t load_addr)
{
    ChampSimRecord r;
    r.ip = ip;
    r.sourceMemory[0] = load_addr;
    return r;
}

TEST(TraceRecords, ImporterReclassesALoadAfterItsRecords)
{
    // The load at 0x1000 falls through to 0x1004 twice, then is
    // followed by 0x2000: the importer re-classes its slot to an
    // indirect jump after two load records of it were appended. Those
    // records keep their stored addresses.
    const std::vector<ChampSimRecord> recs = {
        champsim(0x1000, 0xaaa0), champsim(0x1004, 0),
        champsim(0x1000, 0xbbb0), champsim(0x1004, 0),
        champsim(0x1000, 0xccc0), champsim(0x2000, 0),
        champsim(0x2004, 0),
    };
    const std::string path = tempPath("reclass.champsim");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(recs.data(), sizeof(ChampSimRecord), recs.size(),
                          f),
              recs.size());
    std::fclose(f);
    Trace t;
    std::vector<DynInst> kept;
    ASSERT_TRUE(readChampSimTrace(path, 0, t, &kept));
    std::remove(path.c_str());

    expectLockstep(t, kept);
    EXPECT_EQ(t.staticOf(0).cls, InstClass::kJumpIndirect);
    EXPECT_EQ(t.memAddr(0), 0xaaa0u);
    EXPECT_EQ(t.memAddr(2), 0xbbb0u);
    EXPECT_TRUE(t.taken(4));
    EXPECT_EQ(t.nextPc(4), t.pcOf(5));
}

} // namespace
} // namespace fdip
