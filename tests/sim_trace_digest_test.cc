/**
 * @file
 * The trace digest against its byte-serial reference model
 * (trace_digest_reference.h), on generated, imported and hand-built
 * traces. The FNV-1a identities it rests on are tested with the other
 * FNV tests in sim_campaign_store_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "trace/champsim.h"
#include "trace/suite.h"
#include "trace/workload.h"
#include "trace_digest_reference.h"
#include "trace_lockstep.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

using test::referenceTraceDigest;

SuiteEntry
generated(const WorkloadSpec &spec, std::size_t insts)
{
    auto wl = std::make_shared<Workload>(buildWorkload(spec));
    return {spec.name, generateTrace(wl, insts)};
}

TEST(TraceDigest, MatchesTheReferenceOnGeneratedTraces)
{
    for (const WorkloadSpec &spec :
         {serverSpec("srv", 7), clientSpec("clt", 8),
          specCpuSpec("spec", 9)}) {
        const SuiteEntry e = generated(spec, 40000);
        EXPECT_EQ(traceDigest(e), referenceTraceDigest(e)) << e.name;

        // Both paths of both loops run: some records are targetless
        // (or kNoAddr words) and some are not.
        const ProgramImage &image = e.trace.image();
        std::size_t targetless = 0;
        for (std::uint32_t i = 0; i < image.numInsts(); ++i) {
            const StaticInst &si = image.inst(i);
            targetless += si.param == 0 && si.target == kNoAddr;
        }
        std::size_t no_addr = 0;
        e.trace.insts.forEach(
            [&](const DynInst &d) { no_addr += d.info == kNoAddr; });
        EXPECT_GT(targetless, 0u) << e.name;
        EXPECT_LT(targetless, image.numInsts()) << e.name;
        EXPECT_GT(no_addr, 0u) << e.name;
        EXPECT_LT(no_addr, e.trace.size()) << e.name;
    }
}

TEST(TraceDigest, MatchesTheReferenceOnAChampSimRoundTrip)
{
    const SuiteEntry original = generated(clientSpec("clt", 12), 30000);
    const std::string path =
        std::string(::testing::TempDir()) + "/digest_roundtrip.champsim";
    ASSERT_TRUE(writeChampSimTrace(path, original.trace));
    SuiteEntry imported;
    imported.name = "imported";
    ASSERT_TRUE(readChampSimTrace(path, 0, imported.trace));
    std::remove(path.c_str());
    ASSERT_EQ(imported.trace.size(), original.trace.size());
    EXPECT_EQ(traceDigest(imported), referenceTraceDigest(imported));
}

StaticInst
staticInst(unsigned cls, std::uint16_t param, Addr target)
{
    StaticInst si;
    si.cls = static_cast<InstClass>(cls);
    si.param = param;
    si.target = target;
    return si;
}

DynInst
dynInst(std::uint32_t static_index, std::uint8_t taken, std::uint8_t pad,
        Addr info)
{
    DynInst d;
    d.staticIndex = static_index;
    d.taken = taken;
    d.pad[0] = d.pad[1] = d.pad[2] = pad;
    d.info = info;
    return d;
}

TEST(TraceDigest, MatchesTheReferenceOnRecordsThatMissTheFastPaths)
{
    auto wl = std::make_shared<Workload>();
    ProgramImage &image = wl->image;
    // Every class targetless, then each near miss of that record: a
    // parameter, a target, zero and all-0xFF words, and classes
    // outside the enum, which have no table.
    for (unsigned cls = 0; cls < 12; ++cls) {
        image.append(staticInst(cls, 0, kNoAddr));
        image.append(staticInst(cls, 1, kNoAddr));
        image.append(staticInst(cls, 0xffff, kNoAddr));
        image.append(staticInst(cls, 0x100, kNoAddr));
        image.append(staticInst(cls, 0, kNoAddr - 1));
        image.append(staticInst(cls, 0, 0));
        image.append(staticInst(cls, 0, 0x400100));
        image.append(staticInst(cls, 0xffff, 0));
    }
    image.append(staticInst(255, 0, kNoAddr));
    image.append(staticInst(255, 0xffff, kNoAddr));

    std::vector<DynInst> insts = {
        dynInst(0, 0, 0, 0),                   // Zero words.
        dynInst(0xffffffff, 0xff, 0xff, kNoAddr), // All-0xFF words.
        dynInst(0xffffffff, 0xff, 0xff, kNoAddr - 1),
        dynInst(0, 0, 0, kNoAddr),
        dynInst(1u << 24, 0, 0, 0x1234),       // staticIndex >= 2^24.
        dynInst((1u << 24) + 7, 1, 0, kNoAddr),
        dynInst(0xffffff, 1, 0, 0xff),
        dynInst(5, 0, 1, std::uint64_t{0xff} << 48),
        dynInst(5, 1, 0x80, std::uint64_t{1} << 63),
        dynInst(0x100, 0, 0, kNoAddr >> 8),
    };

    // Then random records drawn mostly from the same edge values.
    Rng rng(22);
    const Addr addrs[] = {0, kNoAddr, kNoAddr - 1, 0x400000, 0xff,
                          std::uint64_t{1} << 40};
    const auto pick_addr = [&] {
        return rng.below(4) == 0 ? rng.next() : addrs[rng.below(6)];
    };
    for (int n = 0; n < 3000; ++n) {
        image.append(staticInst(
            static_cast<unsigned>(rng.below(4) == 0 ? rng.below(256)
                                                    : rng.below(9)),
            static_cast<std::uint16_t>(rng.below(3) == 0 ? rng.below(65536)
                                                         : 0),
            pick_addr()));
        insts.push_back(dynInst(
            static_cast<std::uint32_t>(
                rng.below(2) == 0 ? rng.below(1u << 17) : rng.next()),
            static_cast<std::uint8_t>(rng.below(3) == 0 ? rng.below(256)
                                                        : rng.below(2)),
            static_cast<std::uint8_t>(rng.below(8) == 0 ? rng.below(256)
                                                        : 0),
            pick_addr()));
    }

    const SuiteEntry e{"hand-built", Trace{wl, insts}};
    EXPECT_EQ(traceDigest(e), referenceTraceDigest(e));
    // The reference hashes what the store reads back, so the records
    // must read back as they were built.
    test::expectLockstep(e.trace, insts);

    // Empty name, empty stream, empty image.
    const SuiteEntry no_insts{"", Trace{wl, {}}};
    EXPECT_EQ(traceDigest(no_insts), referenceTraceDigest(no_insts));
    const SuiteEntry empty{"empty",
                           Trace{std::make_shared<Workload>(), {}}};
    EXPECT_EQ(traceDigest(empty), referenceTraceDigest(empty));
}

} // namespace
} // namespace fdip
