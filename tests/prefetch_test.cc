/** @file Tests for the instruction prefetchers. */

#include "prefetch/prefetcher.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "prefetch/djolt.h"
#include "prefetch/eip.h"
#include "prefetch/factory.h"
#include "prefetch/fnl_mma.h"
#include "prefetch/next_line.h"
#include "prefetch/rdip.h"
#include "prefetch/sn4l_dis.h"
#include "prefetch_reference.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

constexpr Addr kL = kCacheLineBytes;

std::vector<Addr>
drain(InstPrefetcher &p)
{
    std::vector<Addr> out;
    for (Addr a = p.popPrefetch(); a != kNoAddr; a = p.popPrefetch())
        out.push_back(a);
    return out;
}

TEST(NullPrefetcher, NeverPrefetches)
{
    NullPrefetcher p;
    p.onDemandLookup(0x1000, false, 0);
    EXPECT_EQ(p.popPrefetch(), kNoAddr);
    EXPECT_EQ(p.storageBits(), 0u);
}

TEST(NextLine, PrefetchesOnMissOnly)
{
    NextLinePrefetcher p(1);
    p.onDemandLookup(0x1000, true, 0);
    EXPECT_EQ(p.popPrefetch(), kNoAddr);
    p.onDemandLookup(0x1000, false, 0);
    EXPECT_EQ(p.popPrefetch(), 0x1000 + kL);
    EXPECT_EQ(p.popPrefetch(), kNoAddr);
}

TEST(NextLine, DegreeN)
{
    NextLinePrefetcher p(3);
    p.onDemandLookup(0x2000, false, 0);
    const auto out = drain(p);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0x2000 + kL);
    EXPECT_EQ(out[2], 0x2000 + 3 * kL);
}

TEST(PrefetchQueue, Deduplicates)
{
    NextLinePrefetcher p(1);
    p.onDemandLookup(0x1000, false, 0);
    p.onDemandLookup(0x1000, false, 1);
    EXPECT_EQ(drain(p).size(), 1u);
}

TEST(FnlMma, LearnsSequentialStream)
{
    FnlMmaPrefetcher p;
    // Train: a sequential stream of lines.
    for (int rep = 0; rep < 4; ++rep) {
        for (Addr l = 0; l < 16; ++l)
            p.onDemandLookup(0x10000 + l * kL, true, l);
        drain(p);
    }
    // Now a fresh access to the stream head prefetches ahead.
    p.onDemandLookup(0x10000, true, 1000);
    const auto out = drain(p);
    EXPECT_FALSE(out.empty());
    EXPECT_EQ(out[0], 0x10000 + kL);
}

TEST(FnlMma, MmaJumpsAcrossMisses)
{
    FnlMmaPrefetcher p;
    // A repeating discontiguous miss sequence.
    const Addr seq[] = {0x10000, 0x30000, 0x50000, 0x70000,
                        0x90000, 0xb0000};
    for (int rep = 0; rep < 6; ++rep) {
        for (Addr a : seq)
            p.onDemandLookup(a, false, 0);
        drain(p);
    }
    // A miss on seq[0] should prefetch a line ~mmaDistance ahead.
    p.onDemandLookup(seq[0], false, 0);
    const auto out = drain(p);
    bool found_ahead = false;
    for (Addr a : out) {
        if (a == seq[4])
            found_ahead = true;
    }
    EXPECT_TRUE(found_ahead);
}

TEST(Djolt, TrainsOnCallPathRecurrence)
{
    DjoltPrefetcher p;
    // Simulate: calls A,B then misses X,Y; recurrence of calls A,B
    // should prefetch X and Y.
    auto run_path = [&p](bool observe) {
        p.onBranch(0x100, InstClass::kCallDirect, 0x1000, true);
        p.onBranch(0x200, InstClass::kCallDirect, 0x2000, true);
        if (!observe) {
            p.onDemandLookup(0x8000, false, 0);
            p.onDemandLookup(0x9000, false, 0);
        }
        return drain(p);
    };
    run_path(false); // Train.
    run_path(false);
    const auto out = run_path(true);
    bool has_x = false;
    bool has_y = false;
    for (Addr a : out) {
        has_x = has_x || a == 0x8000;
        has_y = has_y || a == 0x9000;
    }
    EXPECT_TRUE(has_x);
    EXPECT_TRUE(has_y);
}

TEST(Djolt, IgnoresNonCallBranches)
{
    DjoltPrefetcher p;
    p.onBranch(0x100, InstClass::kCondDirect, 0x200, true);
    p.onBranch(0x300, InstClass::kReturn, 0x400, true);
    EXPECT_EQ(drain(p).size(), 0u);
}

TEST(Eip, EntanglesSourceWithDestination)
{
    EipPrefetcher p(EipConfig::sized128KB());
    // Access S at t=0 (recorded), miss D at t=100 -> entangle S->D.
    p.onDemandLookup(0x10000, true, 0);
    p.onDemandLookup(0x20000, false, 100);
    drain(p);
    // Re-access S: D must be prefetched.
    p.onDemandLookup(0x10000, true, 200);
    const auto out = drain(p);
    bool has_d = false;
    for (Addr a : out)
        has_d = has_d || a == 0x20000;
    EXPECT_TRUE(has_d);
}

TEST(Eip, NextLineOnMiss)
{
    EipPrefetcher p(EipConfig::sized27KB(), "EIP-27KB");
    p.onDemandLookup(0x30000, false, 0);
    const auto out = drain(p);
    bool has_next = false;
    for (Addr a : out)
        has_next = has_next || a == 0x30000 + kL;
    EXPECT_TRUE(has_next);
    EXPECT_STREQ(p.name(), "EIP-27KB");
}

TEST(Eip, BudgetsDiffer)
{
    EipPrefetcher big(EipConfig::sized128KB());
    EipPrefetcher small(EipConfig::sized27KB());
    EXPECT_GT(big.storageBits(), 3 * small.storageBits());
    // ~128KB and ~27KB within slack.
    EXPECT_NEAR(static_cast<double>(big.storageBits()) / 8 / 1024, 128,
                16);
    EXPECT_NEAR(static_cast<double>(small.storageBits()) / 8 / 1024, 27,
                6);
}

TEST(Sn4l, LearnsUsefulDistances)
{
    Sn4lDisConfig cfg;
    cfg.btbPrefetch = false;
    Sn4lDisPrefetcher p(cfg);
    // Access pattern L, L+2 repeatedly: distance 2 stays useful, and
    // the initial optimistic bits for other distances stay until decay
    // (no decay modeled -> all four fire initially).
    p.onDemandLookup(0x10000, true, 0);
    const auto first = drain(p);
    EXPECT_FALSE(first.empty());
}

TEST(Sn4l, DisRecordsDiscontinuity)
{
    Sn4lDisConfig cfg;
    cfg.btbPrefetch = false;
    Sn4lDisPrefetcher p(cfg);
    // Misses at A then far-away B create a discontinuity A->B.
    p.onDemandLookup(0x10000, false, 0);
    p.onDemandLookup(0x80000, false, 10);
    drain(p);
    // Re-access A: B must be prefetched.
    p.onDemandLookup(0x10000, false, 100);
    const auto out = drain(p);
    bool has_b = false;
    for (Addr a : out)
        has_b = has_b || a == 0x80000;
    EXPECT_TRUE(has_b);
}

TEST(Factory, KnownNames)
{
    for (const char *n : {"none", "nl1", "fnl+mma", "d-jolt", "eip-128",
                          "eip-27", "rdip", "sn4l+dis",
                          "sn4l+dis+btb"}) {
        auto p = makePrefetcher(n);
        ASSERT_NE(p, nullptr) << n;
        EXPECT_NE(p->name(), nullptr);
    }
}

TEST(Factory, UnknownNameIsFatal)
{
    EXPECT_DEATH({ makePrefetcher("bogus"); }, "unknown prefetcher");
}

TEST(PrefetchQueue, BoundedDepth)
{
    NextLinePrefetcher p(200); // Degree beyond the queue bound.
    p.onDemandLookup(0, false, 0);
    EXPECT_LE(p.pendingPrefetches(), 64u);
}

TEST(Eip, RefusesConfigsItsArraysCannotHold)
{
    auto make = [](void (*edit)(EipConfig &)) {
        EipConfig cfg = EipConfig::sized27KB();
        edit(cfg);
        EipPrefetcher p(cfg);
    };
    EXPECT_DEATH(make([](EipConfig &c) { c.destsPerEntry = 5; }),
                 "destsPerEntry 5 must be 1..4");
    EXPECT_DEATH(make([](EipConfig &c) { c.destsPerEntry = 0; }),
                 "destsPerEntry 0 must be 1..4");
    EXPECT_DEATH(make([](EipConfig &c) { c.sets = 0; }),
                 "set count 0 must be a power of two");
    EXPECT_DEATH(make([](EipConfig &c) { c.sets = 96; }),
                 "set count 96 must be a power of two");
    EXPECT_DEATH(make([](EipConfig &c) { c.historyDepth = 0; }),
                 "history depth 0 must be a power of two");
    EXPECT_DEATH(make([](EipConfig &c) { c.historyDepth = 48; }),
                 "history depth 48 must be a power of two");
    EXPECT_DEATH(make([](EipConfig &c) { c.ways = 0; }),
                 "at least one way");
}

TEST(Eip, AcceptsEdgeConfigs)
{
    EipConfig cfg = EipConfig::sized27KB();
    cfg.destsPerEntry = 1;
    cfg.sets = 1;
    cfg.ways = 1;
    cfg.historyDepth = 1;
    EipPrefetcher p(cfg);
    p.onDemandLookup(0x10000, true, 0);
    p.onDemandLookup(0x20000, false, 100);
    EXPECT_EQ(drain(p), std::vector<Addr>{0x20000 + kL});
}

struct LockstepParam
{
    const char *name;
    std::unique_ptr<InstPrefetcher> (*real)();
    std::unique_ptr<test::ReferencePrefetcher> (*reference)();
};

void
PrintTo(const LockstepParam &p, std::ostream *os)
{
    *os << p.name;
}

class PrefetchLockstep : public ::testing::TestWithParam<LockstepParam>
{
};

TEST_P(PrefetchLockstep, MatchesReference)
{
    // Code-like demand streams: runs of one line, sequential steps,
    // jumps within 512 hot lines (8 per dedup bucket) and within 16K
    // cold ones (enough sources to evict from EIP), hits and misses,
    // time steps both shorter and longer than EIP's entangle latency,
    // and 0-4 pops per lookup. Repeat-heavy phases let the queue drain
    // after miss-heavy ones fill it. Every popped candidate and the
    // queue depth must match the reference at every step.
    const auto real = GetParam().real();
    const auto ref = GetParam().reference();
    Rng rng(19);
    Addr line = 0x400000;
    Cycle now = 0;
    std::size_t full_steps = 0;
    std::size_t drained_after_full = 0;
    std::uint64_t pops = 0;
    bool was_full = false;

    for (int step = 0; step < 30000; ++step) {
        const bool draining = (step / 400) % 3 == 2;
        const std::uint64_t move = rng.below(draining ? 64 : 8);
        if (move == 1)
            line = 0x400000 + rng.below(512) * kL;
        else if (move == 2)
            line = 0x800000 + rng.below(16384) * kL;
        else if (move > 2 && move < 8)
            line += kL;
        const bool hit = rng.below(draining ? 64 : 3) != 0;
        now += rng.below(4) == 0 ? rng.below(200) : rng.below(4);
        real->onDemandLookup(line, hit, now);
        ref->onDemandLookup(line, hit, now);
        ASSERT_EQ(real->pendingPrefetches(), ref->pendingPrefetches())
            << "step " << step;

        const std::uint64_t n = rng.below(5);
        for (std::uint64_t k = 0; k < n; ++k) {
            const Addr want = ref->popPrefetch();
            ASSERT_EQ(real->popPrefetch(), want)
                << "step " << step << " pop " << k;
            pops += want != kNoAddr ? 1 : 0;
        }
        ASSERT_EQ(real->pendingPrefetches(), ref->pendingPrefetches())
            << "step " << step;

        const std::size_t depth = ref->pendingPrefetches();
        full_steps += depth == 64 ? 1 : 0;
        was_full = was_full || depth == 64;
        if (was_full && depth == 0) {
            ++drained_after_full;
            was_full = false;
        }
    }
    // The stream must fill the queue, drain it and wrap the ring.
    EXPECT_GT(full_steps, 100u);
    EXPECT_GT(drained_after_full, 10u);
    EXPECT_GT(pops, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Prefetchers, PrefetchLockstep,
    ::testing::Values(
        LockstepParam{
            "eip_128KB",
            [] { return makePrefetcher("eip-128"); },
            []() -> std::unique_ptr<test::ReferencePrefetcher> {
                return std::make_unique<test::ReferenceEip>(
                    EipConfig::sized128KB());
            }},
        LockstepParam{
            "eip_27KB",
            [] { return makePrefetcher("eip-27"); },
            []() -> std::unique_ptr<test::ReferencePrefetcher> {
                return std::make_unique<test::ReferenceEip>(
                    EipConfig::sized27KB());
            }},
        LockstepParam{
            "next_line_200",
            []() -> std::unique_ptr<InstPrefetcher> {
                return std::make_unique<NextLinePrefetcher>(200);
            },
            []() -> std::unique_ptr<test::ReferencePrefetcher> {
                return std::make_unique<test::ReferenceNextLine>(200);
            }}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace fdip

namespace fdip
{
namespace
{

TEST(Rdip, TrainsOnContextRecurrence)
{
    RdipPrefetcher p;
    // Context A (after calling f): misses X, Y; returning and
    // re-calling f must prefetch X and Y.
    auto enter_and_miss = [&p](bool observe) {
        p.onBranch(0x100, InstClass::kCallDirect, 0x1000, true);
        std::vector<Addr> out;
        for (Addr a = p.popPrefetch(); a != kNoAddr; a = p.popPrefetch())
            out.push_back(a);
        if (!observe) {
            p.onDemandLookup(0x8000, false, 0);
            p.onDemandLookup(0x9000, false, 0);
        }
        p.onBranch(0x1010, InstClass::kReturn, 0x104, true);
        for (Addr a = p.popPrefetch(); a != kNoAddr; a = p.popPrefetch())
            out.push_back(a);
        return out;
    };
    enter_and_miss(false);
    enter_and_miss(false);
    const auto out = enter_and_miss(true);
    bool has_x = false;
    bool has_y = false;
    for (Addr a : out) {
        has_x = has_x || a == 0x8000;
        has_y = has_y || a == 0x9000;
    }
    EXPECT_TRUE(has_x);
    EXPECT_TRUE(has_y);
}

TEST(Rdip, IgnoresConditionals)
{
    RdipPrefetcher p;
    p.onBranch(0x100, InstClass::kCondDirect, 0x200, true);
    EXPECT_EQ(p.popPrefetch(), kNoAddr);
}

} // namespace
} // namespace fdip
