/** @file Unit tests for trace/program.h and trace/inst.h. */

#include "trace/program.h"

#include <gtest/gtest.h>

#include <vector>

namespace fdip
{
namespace
{

TEST(InstClass, Predicates)
{
    EXPECT_FALSE(isBranch(InstClass::kAlu));
    EXPECT_FALSE(isBranch(InstClass::kLoad));
    EXPECT_TRUE(isBranch(InstClass::kCondDirect));
    EXPECT_TRUE(isConditional(InstClass::kCondDirect));
    EXPECT_FALSE(isConditional(InstClass::kJumpDirect));
    EXPECT_TRUE(isUnconditional(InstClass::kReturn));
    EXPECT_TRUE(isDirect(InstClass::kCallDirect));
    EXPECT_FALSE(isDirect(InstClass::kCallIndirect));
    EXPECT_TRUE(isIndirect(InstClass::kJumpIndirect));
    EXPECT_TRUE(isCall(InstClass::kCallIndirect));
    EXPECT_FALSE(isCall(InstClass::kReturn));
    EXPECT_TRUE(isReturn(InstClass::kReturn));
}

TEST(InstClass, NamesAreDistinct)
{
    EXPECT_STREQ(instClassName(InstClass::kAlu), "alu");
    EXPECT_STREQ(instClassName(InstClass::kReturn), "ret");
    EXPECT_STRNE(instClassName(InstClass::kCondDirect),
                 instClassName(InstClass::kJumpDirect));
}

TEST(ProgramImage, PcIndexRoundTrip)
{
    ProgramImage img(0x400000);
    for (int i = 0; i < 100; ++i) {
        StaticInst s;
        s.cls = InstClass::kAlu;
        img.append(s);
    }
    for (std::uint32_t i = 0; i < 100; ++i) {
        const Addr pc = img.pcOf(i);
        EXPECT_TRUE(img.contains(pc));
        EXPECT_EQ(img.indexOf(pc), i);
    }
}

TEST(ProgramImage, ContainsBoundaries)
{
    ProgramImage img(0x400000);
    StaticInst s;
    img.append(s);
    img.append(s);
    EXPECT_TRUE(img.contains(0x400000));
    EXPECT_TRUE(img.contains(0x400004));
    EXPECT_FALSE(img.contains(0x400008));
    EXPECT_FALSE(img.contains(0x3ffffc));
    EXPECT_FALSE(img.contains(0x400001)); // Misaligned.
}

/** Field-by-field equality of two static instructions. */
::testing::AssertionResult
sameInst(const StaticInst &got, const StaticInst &want)
{
    if (got.cls == want.cls && got.behavior == want.behavior &&
        got.param == want.param && got.target == want.target) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "got (cls " << unsigned(got.cls) << ", behavior "
           << unsigned(got.behavior) << ", param " << got.param
           << ", target " << std::hex << got.target << std::dec
           << "), want (cls " << unsigned(want.cls) << ", behavior "
           << unsigned(want.behavior) << ", param " << want.param
           << ", target " << std::hex << want.target << ")";
}

/**
 * Every combination of class (all 256 byte values, as the digest tests
 * build), behaviour, parameter and target edge for an image of
 * @p slots instructions at @p base, @p slots of them in all.
 */
std::vector<StaticInst>
edgeInsts(Addr base, std::size_t slots)
{
    const std::uint16_t params[] = {0, 1, 0x100, 0xffff};
    const Addr last_near = base + kInstBytes * (Addr{0xffffffff} - 2);
    const Addr targets[] = {
        kNoAddr,
        base,
        base + kInstBytes * (slots - 1), // The last slot.
        last_near,                       // The last encodable index.
        last_near + kInstBytes,          // Index of the far sentinel.
        base + 2,                        // Unaligned.
        base - kInstBytes,               // Below the image.
        0,
        kNoAddr - 1,
    };
    std::vector<StaticInst> out;
    for (unsigned cls = 0; cls < 256; ++cls) {
        for (unsigned b = 0; b <= unsigned(BranchBehavior::kDirCorrelated);
             ++b) {
            for (std::uint16_t param : params) {
                for (Addr target : targets) {
                    StaticInst si;
                    si.cls = static_cast<InstClass>(cls);
                    si.behavior = static_cast<BranchBehavior>(b);
                    si.param = param;
                    si.target = target;
                    out.push_back(si);
                }
            }
        }
    }
    EXPECT_EQ(out.size(), slots);
    return out;
}

constexpr std::size_t kEdgeSlots = 256 * 5 * 4 * 9;

TEST(ProgramImage, EverySlotFieldRoundTrips)
{
    const Addr base = 0x400000;
    const std::vector<StaticInst> want = edgeInsts(base, kEdgeSlots);
    ProgramImage img(base);
    img.reserve(want.size(), 0);
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(img.append(want[i]), i);
    ASSERT_EQ(img.numInsts(), want.size());
    // Unaligned, below-base, zero, kNoAddr-1 and sentinel-index
    // targets live in the side list: 5 of the 9 target edges.
    EXPECT_EQ(img.numFarTargets(), want.size() / 9 * 5);
    for (std::uint32_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(sameInst(img.inst(i), want[i])) << "slot " << i;
        ASSERT_TRUE(sameInst(img.instAt(img.pcOf(i)), want[i]))
            << "slot " << i;
    }
}

TEST(ProgramImage, SetRewritesEverySlotField)
{
    // Classes 0, kReturn and 255 with every other field edge, written
    // by set() from the last slot down (each side-list entry lands in
    // front of the ones already there), then overwritten by the
    // neighbour's value in a second pass.
    const Addr base = 0x400000;
    const std::vector<StaticInst> all = edgeInsts(base, kEdgeSlots);
    std::vector<StaticInst> want;
    for (const StaticInst &si : all) {
        const unsigned cls = unsigned(si.cls);
        if (cls == 0 || si.cls == InstClass::kReturn || cls == 255)
            want.push_back(si);
    }
    ProgramImage img(base);
    for (std::size_t i = 0; i < want.size(); ++i)
        img.append(StaticInst{});
    for (std::size_t i = want.size(); i-- > 0;)
        img.set(static_cast<std::uint32_t>(i), want[i]);
    for (std::uint32_t i = 0; i < want.size(); ++i)
        ASSERT_TRUE(sameInst(img.inst(i), want[i])) << "slot " << i;
    EXPECT_EQ(img.numFarTargets(), want.size() / 9 * 5);

    for (std::uint32_t i = 0; i < want.size(); ++i)
        img.set(i, want[(i + 1) % want.size()]);
    for (std::uint32_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(sameInst(img.instAt(img.pcOf(i)),
                             want[(i + 1) % want.size()]))
            << "slot " << i;
    }
    EXPECT_EQ(img.numFarTargets(), want.size() / 9 * 5);
}

TEST(ProgramImage, SetMovesATargetBetweenSlotAndSideList)
{
    ProgramImage img(0x400000);
    StaticInst far0;
    far0.cls = InstClass::kJumpDirect;
    far0.target = 0x100;
    StaticInst far2 = far0;
    far2.target = 0x400002;
    img.append(far0);
    img.append(StaticInst{});
    img.append(far2);
    ASSERT_EQ(img.numFarTargets(), 2u);

    StaticInst br;
    br.cls = InstClass::kCondDirect;
    br.target = 0x3ffff0; // Below the base: far.
    img.set(1, br);
    EXPECT_EQ(img.numFarTargets(), 3u);
    EXPECT_TRUE(sameInst(img.inst(1), br));

    br.target = img.pcOf(2); // Near: the side entry goes.
    img.set(1, br);
    EXPECT_EQ(img.numFarTargets(), 2u);
    EXPECT_TRUE(sameInst(img.inst(1), br));

    br.target = 0x7; // Far again, at a new address.
    img.set(1, br);
    EXPECT_EQ(img.numFarTargets(), 3u);
    EXPECT_TRUE(sameInst(img.inst(1), br));

    img.set(1, StaticInst{});
    EXPECT_EQ(img.numFarTargets(), 2u);
    EXPECT_TRUE(sameInst(img.inst(0), far0));
    EXPECT_TRUE(sameInst(img.inst(1), StaticInst{}));
    EXPECT_TRUE(sameInst(img.inst(2), far2));
}

TEST(ProgramImage, OutOfImageFetchIsFiller)
{
    ProgramImage img(0x400000);
    StaticInst s;
    s.cls = InstClass::kReturn;
    img.append(s);
    img.append(s);
    for (Addr pc : {Addr{0x500000}, Addr{0x400008}, Addr{0x3ffffc},
                    Addr{0x400002}, Addr{0}, kNoAddr}) {
        EXPECT_TRUE(sameInst(img.instAt(pc), StaticInst{})) << pc;
    }
    EXPECT_EQ(StaticInst{}.cls, InstClass::kAlu);
    EXPECT_TRUE(sameInst(img.instAt(0x400004), s));
}

TEST(ProgramImage, FunctionAccounting)
{
    ProgramImage img;
    StaticInst s;
    for (int i = 0; i < 10; ++i)
        img.append(s);
    img.addFunction(0, 4);
    img.addFunction(4, 6);
    ASSERT_EQ(img.functions().size(), 2u);
    EXPECT_EQ(img.functions()[1].firstIndex, 4u);
    EXPECT_EQ(img.functions()[1].numInsts, 6u);
}

TEST(ProgramImage, BranchCounting)
{
    ProgramImage img;
    StaticInst alu;
    StaticInst br;
    br.cls = InstClass::kCondDirect;
    br.behavior = BranchBehavior::kBiased;
    br.param = 500;
    StaticInst never;
    never.cls = InstClass::kCondDirect;
    never.behavior = BranchBehavior::kBiased;
    never.param = 2;
    img.append(alu);
    img.append(br);
    img.append(never);
    EXPECT_EQ(img.numBranches(), 2u);
    // The almost-never-taken branch is not "likely taken".
    EXPECT_EQ(img.numLikelyTakenBranches(), 1u);
}

TEST(ProgramImage, FootprintBytes)
{
    ProgramImage img;
    StaticInst s;
    for (int i = 0; i < 8; ++i)
        img.append(s);
    EXPECT_EQ(img.footprintBytes(), 8 * kInstBytes);
}

} // namespace
} // namespace fdip
