/** @file Behavioural tests for the TAGE direction predictor. */

#include "bpu/tage.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bpu/ittage.h"
#include "history_reference.h"
#include "util/bits.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

struct TageHarness
{
    // Direction history so single-branch microtests have observable
    // context (under THR a lone branch's iterations all hash alike;
    // real code interleaves other taken branches).
    BranchHistory hist{HistoryPolicy::kDirectionHistory};
    Tage tage;

    explicit TageHarness(unsigned kb = 18)
        : tage(TageConfig::sized(kb), hist)
    {
    }

    bool
    step(Addr pc, bool taken)
    {
        TagePrediction meta;
        const bool pred = tage.predict(pc, meta);
        tage.update(pc, taken, meta);
        hist.pushBranch(pc, pc ^ 0x40, taken);
        return pred;
    }
};

TEST(Tage, LearnsAlwaysTaken)
{
    TageHarness h;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (h.step(0x1000, true) != true && i > 10)
            ++wrong;
    }
    EXPECT_LE(wrong, 2);
}

TEST(Tage, LearnsAlwaysNotTaken)
{
    TageHarness h;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (h.step(0x2000, false) != false && i > 10)
            ++wrong;
    }
    EXPECT_LE(wrong, 2);
}

TEST(Tage, LearnsAlternatingPattern)
{
    // T/NT alternation is trivially captured with 1 bit of history.
    TageHarness h;
    int wrong = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = (i % 2) == 0;
        if (h.step(0x3000, taken) != taken && i > 500)
            ++wrong;
    }
    EXPECT_LT(wrong, 50);
}

TEST(Tage, LearnsLoopExit)
{
    // Taken 7 times then not-taken, repeating: the longer-history
    // tables must capture the exit.
    TageHarness h;
    int wrong = 0;
    int total = 0;
    for (int rep = 0; rep < 600; ++rep) {
        for (int i = 0; i < 8; ++i) {
            const bool taken = i < 7;
            const bool pred = h.step(0x4000, taken);
            if (rep > 100) {
                ++total;
                if (pred != taken)
                    ++wrong;
            }
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.05);
}

TEST(Tage, LearnsHistoryCorrelatedBranch)
{
    // Branch B's outcome equals branch A's most recent direction.
    TageHarness h;
    Rng rng(5);
    int wrong = 0;
    int total = 0;
    for (int i = 0; i < 6000; ++i) {
        const bool a_taken = (rng.next() & 1) != 0;
        h.step(0x5000, a_taken);
        const bool pred = h.step(0x6000, a_taken);
        if (i > 1500) {
            ++total;
            if (pred != a_taken)
                ++wrong;
        }
    }
    EXPECT_LT(static_cast<double>(wrong) / total, 0.08);
}

TEST(Tage, RandomBranchGetsBiasRate)
{
    // A p=0.9 random branch cannot be predicted much better than 90%,
    // but must not be much worse either.
    TageHarness h;
    Rng rng(7);
    int wrong = 0;
    int total = 0;
    for (int i = 0; i < 8000; ++i) {
        const bool taken = rng.below(10) != 0; // p(taken)=0.9
        const bool pred = h.step(0x7000, taken);
        if (i > 1000) {
            ++total;
            if (pred != taken)
                ++wrong;
        }
    }
    const double rate = static_cast<double>(wrong) / total;
    EXPECT_LT(rate, 0.18);
}

TEST(Tage, SizesScaleStorage)
{
    BranchHistory h9(HistoryPolicy::kTargetHistory);
    BranchHistory h18(HistoryPolicy::kTargetHistory);
    BranchHistory h36(HistoryPolicy::kTargetHistory);
    Tage t9(TageConfig::sized(9), h9);
    Tage t18(TageConfig::sized(18), h18);
    Tage t36(TageConfig::sized(36), h36);
    EXPECT_LT(t9.storageBits(), t18.storageBits());
    EXPECT_LT(t18.storageBits(), t36.storageBits());
    EXPECT_NEAR(static_cast<double>(t36.storageBits()) /
                    static_cast<double>(t18.storageBits()),
                2.0, 0.2);
}

TEST(Tage, RejectsUnknownSize)
{
    EXPECT_DEATH({ TageConfig::sized(17); }, "unsupported TAGE size");
}

TEST(Tage, HistoryLengthsAreGeometric)
{
    BranchHistory hist(HistoryPolicy::kTargetHistory);
    Tage t(TageConfig::sized(18), hist);
    const TageConfig &cfg = t.config();
    EXPECT_EQ(t.historyLength(0), cfg.minHistory);
    EXPECT_EQ(t.historyLength(cfg.numTables - 1), cfg.maxHistory);
    for (unsigned i = 1; i < cfg.numTables; ++i)
        EXPECT_GT(t.historyLength(i), t.historyLength(i - 1));
}

TEST(Tage, DistinctBranchesDoNotDestructivelyAlias)
{
    // Two opposite-biased branches must both be predictable.
    TageHarness h;
    int wrong = 0;
    for (int i = 0; i < 3000; ++i) {
        if (h.step(0x8000, true) != true && i > 100)
            ++wrong;
        if (h.step(0x9000, false) != false && i > 100)
            ++wrong;
    }
    EXPECT_LT(wrong, 60);
}

/**
 * Reference model: every table's index and tag recomputed from the raw
 * pushed-bit sequence (a naive XOR fold of the table's window plus the
 * pc terms), compared with TagePrediction through random pushes,
 * snapshots and restores. The real ITTAGE registers its folds on the
 * same history, as in the BPU.
 */
class TageReferenceModel
    : public ::testing::TestWithParam<std::tuple<HistoryPolicy, unsigned>>
{
};

TEST_P(TageReferenceModel, IndicesAndTagsMatchNaiveHashes)
{
    const auto [policy, kilobytes] = GetParam();
    BranchHistory hist(policy);
    Tage tage(TageConfig::sized(kilobytes), hist);
    const Ittage ittage(IttageConfig{}, hist);
    const TageConfig &cfg = tage.config();
    const unsigned k = hist.bitsPerEvent();

    std::vector<std::uint8_t> bits;
    struct Checkpoint
    {
        HistorySnapshot snap;
        std::size_t len;
    };
    std::vector<Checkpoint> checkpoints; // Oldest first.
    Rng rng(kilobytes * 17 + static_cast<unsigned>(policy));

    for (int step = 0; step < 4000; ++step) {
        const Addr pc = 0x400000 + rng.below(1 << 16) * 4;
        TagePrediction meta;
        tage.predict(pc, meta);
        ASSERT_EQ(meta.baseIndex,
                  ((pc >> 2) ^ (pc >> (2 + cfg.logBaseEntries))) &
                      mask(cfg.logBaseEntries));
        for (unsigned t = 0; t < cfg.numTables; ++t) {
            const unsigned len = tage.historyLength(t) * k;
            const std::uint64_t index =
                ((pc >> 2) ^ (pc >> (2 + cfg.logEntries)) ^
                 test::naiveFold(bits, len, cfg.logEntries) ^
                 (std::uint64_t{t} << 3)) &
                mask(cfg.logEntries);
            const std::uint64_t tag =
                ((pc >> 2) ^ test::naiveFold(bits, len, cfg.tagBits) ^
                 (std::uint64_t{test::naiveFold(bits, len,
                                                cfg.tagBits - 1)}
                  << 1)) &
                mask(cfg.tagBits);
            ASSERT_EQ(meta.indices[t], index)
                << "step " << step << " table " << t;
            ASSERT_EQ(meta.tags[t], tag)
                << "step " << step << " table " << t;
        }
        tage.update(pc, (rng.next() & 3) != 0, meta);

        // Drop checkpoints the ring can no longer rewind to.
        while (!checkpoints.empty() &&
               bits.size() - checkpoints.front().len > 2048) {
            checkpoints.erase(checkpoints.begin());
        }
        const unsigned op = static_cast<unsigned>(rng.below(10));
        if (op < 6) {
            const bool taken = (rng.next() & 1) != 0;
            hist.pushBranch(pc, rng.next(), taken);
            if (hist.recordsEvent(taken))
                test::appendEventBits(bits, hist.recentBits(), k);
        } else if (op < 8) {
            checkpoints.push_back({hist.snapshot(), bits.size()});
        } else if (!checkpoints.empty()) {
            // Rewind to any live checkpoint; younger ones die with the
            // bits they covered.
            const std::size_t i = rng.below(checkpoints.size());
            hist.restore(checkpoints[i].snap);
            bits.resize(checkpoints[i].len);
            checkpoints.resize(i + 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSizes, TageReferenceModel,
    ::testing::Combine(::testing::Values(HistoryPolicy::kTargetHistory,
                                         HistoryPolicy::kDirectionHistory),
                       ::testing::Values(9u, 18u, 36u)),
    [](const auto &info) {
        return std::string(historyPolicyName(std::get<0>(info.param))) +
               "_tage" + std::to_string(std::get<1>(info.param)) + "kb";
    });

} // namespace
} // namespace fdip
