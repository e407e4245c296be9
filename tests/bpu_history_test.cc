/** @file Tests for the global history and its folded views. */

#include "bpu/history.h"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "bpu/bpu.h"
#include "bpu/ittage.h"
#include "bpu/tage.h"
#include "core/core_config.h"
#include "history_reference.h"
#include "util/bits.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

using test::appendEventBits;
using test::naiveFold;
using test::naiveRecent;

TEST(History, PolicyNames)
{
    EXPECT_STREQ(historyPolicyName(HistoryPolicy::kTargetHistory), "THR");
    EXPECT_STREQ(historyPolicyName(HistoryPolicy::kDirectionHistory),
                 "GHR");
    EXPECT_STREQ(
        historyPolicyName(HistoryPolicy::kIdealDirectionHistory), "Ideal");
}

TEST(History, TargetPolicyIgnoresNotTaken)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned fold = h.registerFold(32, 10);
    const std::uint32_t before = h.folded(fold);
    h.pushBranch(0x1000, 0x2000, false);
    EXPECT_EQ(h.folded(fold), before);
    h.pushBranch(0x1000, 0x2000, true);
    EXPECT_NE(h.recentBits(), 0u);
}

TEST(History, DirectionPolicyRecordsBoth)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    h.pushBranch(0x1000, 0x2000, true);
    h.pushBranch(0x1000, 0x2000, false);
    h.pushBranch(0x1000, 0x2000, true);
    EXPECT_EQ(h.recentBits() & 0b111, 0b101u);
}

TEST(History, RecordsEventPredicate)
{
    BranchHistory thr(HistoryPolicy::kTargetHistory);
    EXPECT_TRUE(thr.recordsEvent(true));
    EXPECT_FALSE(thr.recordsEvent(false));
    BranchHistory ghr(HistoryPolicy::kDirectionHistory);
    EXPECT_TRUE(ghr.recordsEvent(true));
    EXPECT_TRUE(ghr.recordsEvent(false));
}

TEST(History, SnapshotRestoreExact)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned f1 = h.registerFold(64, 11);
    const unsigned f2 = h.registerFold(260, 9);
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        h.pushBranch(rng.next(), rng.next(), true);

    const HistorySnapshot snap = h.snapshot();
    const std::uint32_t v1 = h.folded(f1);
    const std::uint32_t v2 = h.folded(f2);
    const std::uint64_t recent = h.recentBits();

    for (int i = 0; i < 50; ++i)
        h.pushBranch(rng.next(), rng.next(), true);
    EXPECT_NE(h.folded(f1), v1); // Almost surely changed.

    h.restore(snap);
    EXPECT_EQ(h.folded(f1), v1);
    EXPECT_EQ(h.folded(f2), v2);
    EXPECT_EQ(h.recentBits(), recent);
}

TEST(History, RestoreThenReplayMatches)
{
    // Restoring and replaying the same events must land in the same
    // state as never having diverged (the repair-path invariant).
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned f = h.registerFold(128, 12);
    Rng rng(17);
    for (int i = 0; i < 60; ++i)
        h.pushBranch(rng.next(), rng.next(), true);

    const HistorySnapshot snap = h.snapshot();
    const Addr pc1 = 0x1234, t1 = 0x5678;
    const Addr pc2 = 0x9abc, t2 = 0xdef0;
    h.pushBranch(pc1, t1, true);
    h.pushBranch(pc2, t2, true);
    const std::uint32_t expected = h.folded(f);
    const std::uint64_t expected_bits = h.recentBits();

    // Diverge: push garbage, then repair via restore + replay.
    for (int i = 0; i < 30; ++i)
        h.pushBranch(rng.next(), rng.next(), true);
    h.restore(snap);
    h.pushBranch(pc1, t1, true);
    h.pushBranch(pc2, t2, true);
    EXPECT_EQ(h.folded(f), expected);
    EXPECT_EQ(h.recentBits(), expected_bits);
}

TEST(History, FoldedMatchesFreshReplay)
{
    // Property: after any event sequence, the folded state equals that
    // of a fresh history fed the same events (no hidden state).
    Rng rng(29);
    for (int trial = 0; trial < 5; ++trial) {
        BranchHistory a(HistoryPolicy::kDirectionHistory);
        BranchHistory b(HistoryPolicy::kDirectionHistory);
        const unsigned fa = a.registerFold(100, 10);
        const unsigned fb = b.registerFold(100, 10);
        std::vector<std::pair<Addr, bool>> events;
        for (int i = 0; i < 500; ++i)
            events.push_back({rng.next(), (rng.next() & 1) != 0});
        for (const auto &e : events)
            a.pushBranch(e.first, e.first + 4, e.second);
        for (const auto &e : events)
            b.pushBranch(e.first, e.first + 4, e.second);
        EXPECT_EQ(a.folded(fa), b.folded(fb));
        EXPECT_EQ(a.recentBits(), b.recentBits());
    }
}

TEST(History, FoldedStaysInRange)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    const unsigned f = h.registerFold(260, 9);
    Rng rng(31);
    for (int i = 0; i < 2000; ++i) {
        h.pushBranch(rng.next(), rng.next(), true);
        EXPECT_LE(h.folded(f), mask(9));
    }
}

TEST(History, OldEventsLeaveTheWindow)
{
    // Two histories that differ only in ancient events must converge
    // once the differing bits age out of every fold window.
    BranchHistory a(HistoryPolicy::kDirectionHistory);
    BranchHistory b(HistoryPolicy::kDirectionHistory);
    const unsigned fa = a.registerFold(32, 8);
    const unsigned fb = b.registerFold(32, 8);
    a.pushBranch(0x1111, 0, true); // Only in 'a'.
    Rng rng(37);
    for (int i = 0; i < 200; ++i) {
        const Addr pc = rng.next();
        const bool t = (rng.next() & 1) != 0;
        a.pushBranch(pc, pc + 4, t);
        b.pushBranch(pc, pc + 4, t);
    }
    EXPECT_EQ(a.folded(fa), b.folded(fb));
}

TEST(History, TooManyFoldsIsFatal)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    for (std::size_t i = 0; i < BranchHistory::kMaxFolds; ++i)
        h.registerFold(16, 8);
    EXPECT_DEATH({ h.registerFold(16, 8); }, "folded history");
}

TEST(History, SnapshotIsCheap)
{
    // Snapshots hold only the ring head and the recent-bit register;
    // restore() rewinds the folds instead of copying them.
    static_assert(sizeof(HistorySnapshot) <= 16,
                  "snapshot grew unexpectedly");
    SUCCEED();
}

TEST(History, SameGeometryViewsShareOneFold)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    const unsigned a = h.registerFold(40, 10);
    const unsigned b = h.registerFold(40, 9);
    const unsigned c = h.registerFold(12, 10);
    const unsigned d = h.registerFold(40, 10);
    EXPECT_EQ(h.numFolds(), 4u);
    EXPECT_EQ(h.numDistinctFolds(), 3u);
    // Every view is still charged.
    EXPECT_EQ(h.storageBits(), 39u);
    EXPECT_EQ(h.storageSchema().totalBits(), 39u);
    Rng rng(41);
    std::vector<std::uint8_t> bits;
    for (int i = 0; i < 300; ++i) {
        bits.push_back(rng.next() & 1);
        h.pushBranch(0, 0, bits.back() != 0);
    }
    EXPECT_EQ(h.folded(a), naiveFold(bits, 40, 10));
    EXPECT_EQ(h.folded(b), naiveFold(bits, 40, 9));
    EXPECT_EQ(h.folded(c), naiveFold(bits, 12, 10));
    EXPECT_EQ(h.folded(d), h.folded(a));
}

TEST(History, BaselineBpuSharesFolds)
{
    // TAGE-18KB's index and tag-A folds have the same geometry, as do
    // ITTAGE's 9-bit index and tag-A folds, and TAGE and ITTAGE share
    // three window lengths: 54 views need 33 folds.
    const Bpu bpu(paperBaselineConfig().bpu);
    EXPECT_EQ(bpu.history().numFolds(), 54u);
    EXPECT_EQ(bpu.history().numDistinctFolds(), 33u);
}

TEST(History, RegisteringAfterPushIsFatal)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    h.registerFold(16, 8);
    h.pushBranch(0x1000, 0x2000, true);
    EXPECT_DEATH({ h.registerFold(16, 8); }, "before the first push");
}

TEST(History, WindowWithoutRewindRoomIsFatal)
{
    BranchHistory h(HistoryPolicy::kTargetHistory);
    h.registerFold(BranchHistory::kRingBits -
                       BranchHistory::kRewindSlackBits,
                   10);
    EXPECT_DEATH(
        {
            h.registerFold(BranchHistory::kRingBits -
                               BranchHistory::kRewindSlackBits + 1,
                           10);
        },
        "exceeds ring capacity");
}

TEST(History, RewindsFoldsNarrowerThanTheChunk)
{
    // A rewind undoes min(8, narrowest width) bits per fold step: with
    // folds of width 1 to 9, every rewind distance still lands exactly.
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    std::vector<unsigned> widths;
    for (unsigned w = 1; w <= 9; ++w) {
        h.registerFold(5 * w + 3, w);
        widths.push_back(w);
    }
    Rng rng(53);
    std::vector<std::uint8_t> bits;
    for (unsigned step = 0; step < 300; ++step) {
        const HistorySnapshot snap = h.snapshot();
        const std::size_t len = bits.size();
        for (unsigned e = 0; e <= step % 21; ++e)
            h.pushBranch(0, 0, (rng.next() & 1) != 0);
        h.restore(snap);
        const bool taken = (rng.next() & 1) != 0;
        h.pushBranch(0, 0, taken);
        bits.resize(len);
        bits.push_back(taken ? 1 : 0);
        for (unsigned id = 0; id < widths.size(); ++id) {
            ASSERT_EQ(h.folded(id),
                      naiveFold(bits, 5 * widths[id] + 3, widths[id]))
                << "step " << step << " width " << widths[id];
        }
    }
}

/** Pushes @p n direction bits drawn from @p rng. */
void
pushRandomBits(BranchHistory &h, Rng &rng, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        h.pushBranch(0, 0, (rng.next() & 1) != 0);
}

TEST(History, RewindPastOverwrittenBitsPanics)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    h.registerFold(520, 10);
    Rng rng(43);
    pushRandomBits(h, rng, 600);
    const HistorySnapshot snap = h.snapshot();
    pushRandomBits(h, rng, BranchHistory::kRingBits - 520);
    {
        // Exactly at the limit: every bit the rewind reads survives.
        BranchHistory copy = h;
        copy.restore(snap);
    }
    pushRandomBits(h, rng, 1);
    EXPECT_DEATH({ h.restore(snap); }, "overwritten ring bits");
}

TEST(History, RewindCountsTheFurthestHeadReached)
{
    // A later, shorter rewind does not make the older snapshot safe
    // again: the ring slots written before it are still reused.
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    h.registerFold(520, 10);
    Rng rng(47);
    pushRandomBits(h, rng, 600);
    const HistorySnapshot old_snap = h.snapshot();
    pushRandomBits(h, rng, 1000);
    const HistorySnapshot young_snap = h.snapshot();
    pushRandomBits(h, rng, 2700);
    h.restore(young_snap); // 2700 + 520 bits: fine.
    EXPECT_DEATH({ h.restore(old_snap); }, "overwritten ring bits");
}

TEST(History, RestoringAFutureSnapshotPanics)
{
    BranchHistory h(HistoryPolicy::kDirectionHistory);
    h.registerFold(32, 8);
    const HistorySnapshot start = h.snapshot();
    h.pushBranch(0, 0, true);
    const HistorySnapshot later = h.snapshot();
    h.restore(start);
    EXPECT_DEATH({ h.restore(later); }, "ahead of the head");
}

/**
 * Reference model: every folded view equals a naive recomputation from
 * the raw pushed-bit sequence, through random pushes mixed with the
 * frontend's snapshot/restore pattern, across ring wrap-around.
 */
struct FoldPopulation
{
    HistoryPolicy policy;
    unsigned tageKilobytes;
};

void
PrintTo(const FoldPopulation &p, std::ostream *os)
{
    *os << historyPolicyName(p.policy) << "_tage" << p.tageKilobytes
        << "kb";
}

class HistoryReferenceModel
    : public ::testing::TestWithParam<FoldPopulation>
{
};

/**
 * The real predictors' fold population over one history, duplicates
 * included: per table an index fold, then tag folds of tagBits and
 * tagBits - 1, over the table's history length. The test owns each
 * view's expected (length, width).
 */
struct RegisteredViews
{
    struct View
    {
        unsigned len;
        unsigned width;
    };

    explicit RegisteredViews(const FoldPopulation &pop)
        : hist(pop.policy),
          tageCfg(TageConfig::sized(pop.tageKilobytes)),
          tage(tageCfg, hist),
          ittage(ittageCfg, hist)
    {
        for (unsigned t = 0; t < tageCfg.numTables; ++t) {
            const unsigned len = tage.historyLength(t) * hist.bitsPerEvent();
            views.push_back({len, tageCfg.logEntries});
            views.push_back({len, tageCfg.tagBits});
            views.push_back({len, tageCfg.tagBits - 1});
        }
        for (unsigned t = 0; t < ittageCfg.numTables; ++t) {
            const unsigned len =
                ittage.historyLength(t) * hist.bitsPerEvent();
            views.push_back({len, ittageCfg.logEntries});
            views.push_back({len, ittageCfg.tagBits});
            views.push_back({len, ittageCfg.tagBits - 1});
        }
    }

    /** Every view and the recent bits match a naive recomputation from
     *  @p bits, the raw sequence pushed so far. */
    ::testing::AssertionResult
    matches(const std::vector<std::uint8_t> &bits) const
    {
        if (hist.snapshot().headPos != bits.size()) {
            return ::testing::AssertionFailure()
                   << "head " << hist.snapshot().headPos << " vs "
                   << bits.size() << " bits";
        }
        if (hist.recentBits() != naiveRecent(bits))
            return ::testing::AssertionFailure() << "recent bits differ";
        for (unsigned id = 0; id < views.size(); ++id) {
            const std::uint32_t want =
                naiveFold(bits, views[id].len, views[id].width);
            if (hist.folded(id) != want) {
                return ::testing::AssertionFailure()
                       << "view " << id << " (" << views[id].len
                       << " bits -> " << views[id].width << "): "
                       << hist.folded(id) << " vs " << want;
            }
        }
        return ::testing::AssertionSuccess();
    }

    BranchHistory hist;
    const TageConfig tageCfg;
    const IttageConfig ittageCfg;
    const Tage tage;
    const Ittage ittage;
    std::vector<View> views;
};

TEST_P(HistoryReferenceModel, FoldsMatchNaiveRecomputation)
{
    const FoldPopulation pop = GetParam();
    RegisteredViews r(pop);
    BranchHistory &h = r.hist;
    ASSERT_EQ(h.numFolds(), r.views.size());
    ASSERT_LT(h.numDistinctFolds(), h.numFolds());

    // One checkpoint per predicted block, oldest first, as in the FTQ;
    // `pending` is the diverging block's checkpoint, kept until it
    // resolves even after its block leaves the queue.
    struct Checkpoint
    {
        HistorySnapshot snap;
        std::size_t len = 0; ///< Naive bit count at the snapshot.
        std::uint64_t seq = 0;
    };
    constexpr std::size_t kFtqEntries = 24;
    std::deque<Checkpoint> ftq;
    std::optional<Checkpoint> pending;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bits;
    Rng rng(pop.tageKilobytes * 131 + static_cast<unsigned>(pop.policy));

    const auto push_events = [&](unsigned n) {
        for (unsigned e = 0; e < n; ++e) {
            const bool taken = (rng.next() & 1) != 0;
            h.pushBranch(rng.next(), rng.next(), taken);
            if (h.recordsEvent(taken))
                appendEventBits(bits, h.recentBits(), h.bitsPerEvent());
        }
    };
    const auto rewind_to = [&](const Checkpoint &cp) {
        h.restore(cp.snap);
        bits.resize(cp.len);
    };

    // Run until the ring has wrapped three times.
    for (int step = 0; bits.size() < 3 * BranchHistory::kRingBits;
         ++step) {
        ASSERT_LT(step, 100000) << "the history stopped growing";
        // Keep the pending divergence within the ring's rewind reach,
        // as the ROB bounds it in the core.
        const bool force_resolve =
            pending && bits.size() - pending->len > 1024;
        const unsigned op =
            force_resolve ? 7 : static_cast<unsigned>(rng.below(12));
        if (op <= 3 || op >= 8) {
            // Predict a block: checkpoint, then its branch events.
            if (ftq.size() == kFtqEntries)
                ftq.pop_front();
            ftq.push_back({h.snapshot(), bits.size(), seq++});
            push_events(static_cast<unsigned>(rng.below(9)));
        } else if (op == 4) {
            if (!ftq.empty())
                ftq.pop_front(); // The head block is delivered.
        } else if (op == 5) {
            if (!pending && !ftq.empty())
                pending = ftq.back(); // The newest block diverged.
        } else if (op == 6) {
            // PFC / GHR fixup at the head: rewind to the head block,
            // replay its prefix, drop everything younger. A pending
            // divergence younger than the head is repaired with it.
            if (ftq.empty())
                continue;
            const Checkpoint head = ftq.front();
            rewind_to(head);
            ftq.resize(1);
            if (pending && pending->seq > head.seq)
                pending.reset();
            push_events(1 + static_cast<unsigned>(rng.below(4)));
        } else if (pending) {
            // The divergence resolves: flush, rewind, corrected path.
            rewind_to(*pending);
            pending.reset();
            ftq.clear();
            push_events(1 + static_cast<unsigned>(rng.below(4)));
        }

        ASSERT_TRUE(r.matches(bits)) << "step " << step;
    }
}

TEST_P(HistoryReferenceModel, EveryRewindOfAWalkAcrossTheRingEnd)
{
    // Walk the head one event at a time from the first push to past
    // the ring's end; at every step push 1-19 events past a snapshot
    // and rewind to it. The rewinds cover every length modulo the
    // 8-bit undo chunk, rewinds to within 8 bits of the start of
    // history (their 8-byte reads start before position 0), and, for
    // the head and then for every window's out-bits, 8-byte reads that
    // straddle the end of the ring.
    const FoldPopulation pop = GetParam();
    RegisteredViews r(pop);
    BranchHistory &h = r.hist;
    std::vector<std::uint8_t> bits;
    Rng rng(pop.tageKilobytes * 7 + static_cast<unsigned>(pop.policy));
    // Taken only, so every event pushes under either policy.
    const auto push_event = [&] {
        h.pushBranch(rng.next(), rng.next(), true);
        appendEventBits(bits, h.recentBits(), h.bitsPerEvent());
    };

    for (unsigned step = 0; bits.size() < BranchHistory::kRingBits + 64;
         ++step) {
        const HistorySnapshot snap = h.snapshot();
        const std::size_t len = bits.size();
        for (unsigned e = 0; e <= step % 19; ++e)
            push_event();
        h.restore(snap);
        bits.resize(len);
        ASSERT_TRUE(r.matches(bits)) << "step " << step;
        push_event();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Populations, HistoryReferenceModel,
    ::testing::Values(
        FoldPopulation{HistoryPolicy::kTargetHistory, 9},
        FoldPopulation{HistoryPolicy::kTargetHistory, 18},
        FoldPopulation{HistoryPolicy::kTargetHistory, 36},
        FoldPopulation{HistoryPolicy::kDirectionHistory, 9},
        FoldPopulation{HistoryPolicy::kDirectionHistory, 18},
        FoldPopulation{HistoryPolicy::kDirectionHistory, 36}));

} // namespace
} // namespace fdip
