/** @file Tests for the FTQ and its Table III storage accounting. */

#include "core/ftq.h"

#include <gtest/gtest.h>

namespace fdip
{
namespace
{

TEST(FtqEntry, TableIIIFieldWidths)
{
    // 48b start address + 1b predicted-taken + 3b termination offset +
    // 3b I-cache way + 2b state + 8b direction hints = 65 bits.
    EXPECT_EQ(FtqEntry::kArchBitsPerEntry, 65u);
}

TEST(Ftq, PaperStorageIs195Bytes)
{
    // The paper's headline: a 24-entry FTQ costs 195 bytes (Table III).
    Ftq ftq(24);
    EXPECT_EQ(ftq.archStorageBytes(), 195u);
}

TEST(Ftq, TwoEntryVariantStorage)
{
    Ftq ftq(2);
    EXPECT_EQ(ftq.archStorageBytes(), (2u * 65 + 7) / 8);
}

TEST(FtqEntry, BlockGeometry)
{
    FtqEntry e;
    e.startAddr = 0x1008; // Offset 2 within the 32B block at 0x1000.
    EXPECT_EQ(e.blockBase(), 0x1000u);
    EXPECT_EQ(e.startOffset(), 2u);
    EXPECT_EQ(e.pcAt(5), 0x1014u);
    EXPECT_EQ(FtqEntry::offsetOf(0x101c), 7u);
}

TEST(FtqEntry, NumInstsFromOffsets)
{
    FtqEntry e;
    e.startAddr = 0x1008;
    e.termOffset = 6; // Fig. 5's example: start 2, end 6.
    EXPECT_EQ(e.numInsts(), 5u);
}

TEST(FtqEntry, DirectionHints)
{
    FtqEntry e;
    e.dirHints = 0b01000100;
    EXPECT_TRUE(e.hintAt(2));
    EXPECT_TRUE(e.hintAt(6));
    EXPECT_FALSE(e.hintAt(0));
    EXPECT_FALSE(e.hintAt(7));
}

TEST(Ftq, FifoAndTruncate)
{
    Ftq ftq(4);
    for (int i = 0; i < 3; ++i) {
        FtqEntry e;
        e.seq = static_cast<std::uint64_t>(i);
        ftq.push(std::move(e));
    }
    EXPECT_EQ(ftq.size(), 3u);
    EXPECT_EQ(ftq.head().seq, 0u);
    ftq.truncateAfter(1);
    EXPECT_EQ(ftq.size(), 1u);
    EXPECT_EQ(ftq.head().seq, 0u);
    ftq.popHead();
    EXPECT_TRUE(ftq.empty());
}

TEST(Ftq, ProbeCursorStaysWithinTheQueue)
{
    // The cursor counts probed head entries: a pop moves it down with
    // the head, a truncation clamps it to what is kept, and a flush
    // zeroes it.
    Ftq ftq(8);
    for (int i = 0; i < 5; ++i) {
        FtqEntry e;
        ftq.push(std::move(e));
    }
    EXPECT_EQ(ftq.probed(), 0u);
    for (int i = 0; i < 4; ++i)
        ftq.advanceProbed();
    EXPECT_EQ(ftq.probed(), 4u);
    ftq.popHead();
    EXPECT_EQ(ftq.probed(), 3u);
    ftq.truncateAfter(1);
    EXPECT_EQ(ftq.probed(), 1u);
    ftq.popHead();
    EXPECT_EQ(ftq.probed(), 0u);
    for (int i = 0; i < 3; ++i) {
        FtqEntry e;
        ftq.push(std::move(e));
    }
    ftq.popHead(); // An unprobed head: the cursor stays at 0.
    EXPECT_EQ(ftq.probed(), 0u);
    ftq.advanceProbed();
    ftq.clear();
    EXPECT_EQ(ftq.probed(), 0u);
}

TEST(FtqEntry, RepairCheckpointsStaySmall)
{
    // An entry carries a 16-byte history checkpoint (ring head + recent
    // bits), not a copy of every fold; the FTQ is walked every tick.
    static_assert(sizeof(FtqEntry) <= 320, "FTQ entry grew unexpectedly");
    SUCCEED();
}

TEST(Ftq, StateEnumMatchesPaperEncoding)
{
    // Paper Section IV-A: 0 invalid, 1 predicted, 2 filling, 3 ready.
    EXPECT_EQ(static_cast<int>(FtqState::kInvalid), 0);
    EXPECT_EQ(static_cast<int>(FtqState::kPredicted), 1);
    EXPECT_EQ(static_cast<int>(FtqState::kFilling), 2);
    EXPECT_EQ(static_cast<int>(FtqState::kReady), 3);
}

/** FTQ size sweep used by Fig. 14. */
class FtqSizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FtqSizes, CapacityIsRespected)
{
    Ftq ftq(GetParam());
    for (unsigned i = 0; i < GetParam(); ++i) {
        EXPECT_FALSE(ftq.full());
        FtqEntry e;
        ftq.push(std::move(e));
    }
    EXPECT_TRUE(ftq.full());
}

INSTANTIATE_TEST_SUITE_P(Sweep, FtqSizes,
                         ::testing::Values(2, 4, 8, 12, 16, 24, 32));

} // namespace
} // namespace fdip
