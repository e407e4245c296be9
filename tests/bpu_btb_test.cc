/** @file Tests for the 16B-indexed BTB. */

#include "bpu/btb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "util/bits.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

BtbConfig
smallConfig(bool taken_only = true)
{
    BtbConfig cfg;
    cfg.numEntries = 64;
    cfg.ways = 4;
    cfg.allocateTakenOnly = taken_only;
    return cfg;
}

TEST(Btb, MissOnEmpty)
{
    Btb btb(smallConfig());
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    EXPECT_EQ(btb.lookups(), 1u);
    EXPECT_EQ(btb.hits(), 0u);
}

TEST(Btb, InsertThenHit)
{
    Btb btb(smallConfig());
    btb.install(0x1000, InstClass::kJumpDirect, 0x2000, true);
    const auto hit = btb.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->kind, InstClass::kJumpDirect);
    EXPECT_EQ(hit->target, 0x2000u);
}

TEST(Btb, TakenOnlyPolicySkipsNotTaken)
{
    Btb btb(smallConfig(true));
    btb.install(0x1000, InstClass::kCondDirect, 0x2000, false);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    btb.install(0x1000, InstClass::kCondDirect, 0x2000, true);
    EXPECT_TRUE(btb.lookup(0x1000).has_value());
}

TEST(Btb, AllBranchPolicyAllocatesNotTaken)
{
    Btb btb(smallConfig(false));
    btb.install(0x1000, InstClass::kCondDirect, 0x2000, false);
    EXPECT_TRUE(btb.lookup(0x1000).has_value());
}

TEST(Btb, ExistingEntryRefreshesEvenWhenNotTaken)
{
    // Indirect branches update their last target on every resolve.
    Btb btb(smallConfig(true));
    btb.install(0x1000, InstClass::kJumpIndirect, 0x2000, true);
    btb.install(0x1000, InstClass::kJumpIndirect, 0x3000, true);
    const auto hit = btb.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->target, 0x3000u);
}

/** Collects @p n distinct branch PCs mapping to the same BTB set. */
std::vector<Addr>
sameSetPcs(const Btb &btb, unsigned n)
{
    std::vector<Addr> pcs;
    const std::uint32_t target_set = btb.setIndexOf(0x1000);
    for (Addr pc = 0x1000; pcs.size() < n; pc += 16) {
        if (btb.setIndexOf(pc) == target_set)
            pcs.push_back(pc);
    }
    return pcs;
}

TEST(Btb, PeekDoesNotTouchLru)
{
    Btb btb(smallConfig());
    const auto pcs = sameSetPcs(btb, 5);
    for (unsigned i = 0; i < 4; ++i)
        btb.install(pcs[i], InstClass::kJumpDirect, 0x9000, true);
    // Refresh entry 0 via lookup, then insert a 5th: victim must not
    // be entry 0.
    EXPECT_TRUE(btb.lookup(pcs[0]).has_value());
    btb.install(pcs[4], InstClass::kJumpDirect, 0x9000, true);
    EXPECT_TRUE(btb.peek(pcs[0]).has_value());
}

TEST(Btb, LruEvictsOldest)
{
    Btb btb(smallConfig());
    const auto pcs = sameSetPcs(btb, 5);
    for (unsigned i = 0; i < 5; ++i)
        btb.install(pcs[i], InstClass::kJumpDirect, 0x9000, true);
    // Entry 0 was the LRU victim.
    EXPECT_FALSE(btb.peek(pcs[0]).has_value());
    EXPECT_TRUE(btb.peek(pcs[4]).has_value());
    EXPECT_EQ(btb.evictions(), 1u);
}

TEST(Btb, SixteenByteIndexing)
{
    // Branches in the same 16B chunk share a set but are separate
    // entries.
    Btb btb(smallConfig());
    btb.install(0x1000, InstClass::kCondDirect, 0x2000, true);
    btb.install(0x1004, InstClass::kCondDirect, 0x3000, true);
    btb.install(0x1008, InstClass::kJumpDirect, 0x4000, true);
    EXPECT_EQ(btb.lookup(0x1000)->target, 0x2000u);
    EXPECT_EQ(btb.lookup(0x1004)->target, 0x3000u);
    EXPECT_EQ(btb.lookup(0x1008)->target, 0x4000u);
}

TEST(Btb, Invalidate)
{
    Btb btb(smallConfig());
    btb.install(0x1000, InstClass::kJumpDirect, 0x2000, true);
    btb.invalidate(0x1000);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
}

TEST(Btb, StorageBytesFollowsPaperEstimate)
{
    BtbConfig cfg;
    cfg.numEntries = 8192;
    Btb btb(cfg);
    // Paper Section VI-D: ~7 bytes per branch.
    EXPECT_EQ(btb.storageBytes(), 8192u * 7);
}

TEST(Btb, RejectsBadGeometry)
{
    BtbConfig cfg;
    cfg.numEntries = 65;
    cfg.ways = 4;
    EXPECT_DEATH({ Btb b(cfg); }, "divisible");
}

/** Capacity sweep: a working set within capacity must be fully held. */
class BtbCapacity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BtbCapacity, HoldsWorkingSetWithinCapacity)
{
    BtbConfig cfg;
    cfg.numEntries = GetParam();
    Btb btb(cfg);
    // Insert 1/2 capacity distinct branches spread over 16B chunks.
    const unsigned n = cfg.numEntries / 2;
    for (unsigned i = 0; i < n; ++i)
        btb.install(0x10000 + i * 16, InstClass::kJumpDirect, 0x9000,
                   true);
    unsigned hits = 0;
    for (unsigned i = 0; i < n; ++i)
        if (btb.peek(0x10000 + i * 16).has_value())
            ++hits;
    EXPECT_EQ(hits, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BtbCapacity,
                         ::testing::Values(1024, 2048, 8192, 32768));

/**
 * Reference model: a list-LRU BTB. Each set is a list of its resident
 * branches, most recently used first, searched by a linear scan. The
 * set is the documented 16-byte-chunk hash: the chunk number pc >> 4
 * XOR-ed with itself shifted right by log2(sets), modulo the set count.
 */
class ListLruBtb
{
  public:
    explicit ListLruBtb(const BtbConfig &cfg)
        : cfg_(cfg), sets_(cfg.numEntries / cfg.ways)
    {
    }

    std::size_t
    setOf(Addr pc) const
    {
        const std::uint64_t chunk = pc >> 4;
        return (chunk ^ (chunk >> floorLog2(sets_.size()))) %
               sets_.size();
    }

    /** A hit moves the branch to the front. */
    std::optional<BtbHit>
    lookup(Addr pc)
    {
        ++lookups;
        std::list<Entry> &set = sets_[setOf(pc)];
        const auto it = find(set, pc);
        if (it == set.end())
            return std::nullopt;
        ++hits;
        set.splice(set.begin(), set, it);
        return it->hit;
    }

    std::optional<BtbHit>
    peek(Addr pc) const
    {
        const std::list<Entry> &set = sets_[setOf(pc)];
        const auto it = std::find_if(
            set.begin(), set.end(),
            [pc](const Entry &e) { return e.pc == pc; });
        if (it == set.end())
            return std::nullopt;
        return it->hit;
    }

    void
    install(Addr pc, InstClass kind, Addr target, bool taken)
    {
        std::list<Entry> &set = sets_[setOf(pc)];
        const auto it = find(set, pc);
        if (it != set.end()) {
            it->hit = BtbHit{kind, target};
            set.splice(set.begin(), set, it);
            return;
        }
        if (cfg_.allocateTakenOnly && !taken)
            return;
        ++allocations;
        if (set.size() == cfg_.ways) {
            ++evictions;
            set.pop_back();
        }
        set.push_front(Entry{pc, BtbHit{kind, target}});
    }

    void
    invalidate(Addr pc)
    {
        std::list<Entry> &set = sets_[setOf(pc)];
        const auto it = find(set, pc);
        if (it != set.end())
            set.erase(it);
    }

    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t allocations = 0;
    std::uint64_t evictions = 0;

  private:
    struct Entry
    {
        Addr pc;
        BtbHit hit;
    };

    static std::list<Entry>::iterator
    find(std::list<Entry> &set, Addr pc)
    {
        return std::find_if(set.begin(), set.end(),
                            [pc](const Entry &e) { return e.pc == pc; });
    }

    BtbConfig cfg_;
    std::vector<std::list<Entry>> sets_;
};

struct BtbLockstepParam
{
    const char *name;
    unsigned ways;
    bool takenOnly;
};

void
PrintTo(const BtbLockstepParam &p, std::ostream *os)
{
    *os << p.name;
}

class BtbLockstep : public ::testing::TestWithParam<BtbLockstepParam>
{
};

/** Same hit or miss, and on a hit the same kind and target. */
::testing::AssertionResult
sameHit(const std::optional<BtbHit> &got, const std::optional<BtbHit> &want)
{
    if (got.has_value() != want.has_value()) {
        return ::testing::AssertionFailure()
               << (got ? "hit" : "miss") << ", reference "
               << (want ? "hit" : "miss");
    }
    if (got && (got->kind != want->kind || got->target != want->target)) {
        return ::testing::AssertionFailure()
               << "kind " << unsigned(got->kind) << " target " << std::hex
               << got->target << ", reference kind "
               << unsigned(want->kind) << " target " << want->target;
    }
    return ::testing::AssertionSuccess();
}

TEST_P(BtbLockstep, MatchesListLruReference)
{
    // Random lookup/peek/install/invalidate streams over branches
    // crowded into three sets (twice the ways plus two per set, whole
    // 16-byte chunks among them), so sets overflow and evict all the
    // time. Every hit's kind and target and every counter must match
    // the reference after every step.
    BtbConfig cfg;
    cfg.numEntries = 64;
    cfg.ways = GetParam().ways;
    cfg.allocateTakenOnly = GetParam().takenOnly;
    Btb btb(cfg);
    ListLruBtb ref(cfg);

    const std::size_t crowded[] = {1, 2, btb.numSets() - 1};
    std::vector<Addr> pcs;
    for (std::size_t set : crowded) {
        std::size_t n = 0;
        for (Addr pc = 0x400000; n < 2 * cfg.ways + 2; pc += 4) {
            ASSERT_EQ(btb.setIndexOf(pc), ref.setOf(pc)) << std::hex << pc;
            if (ref.setOf(pc) == set) {
                pcs.push_back(pc);
                ++n;
            }
        }
    }

    Rng rng(cfg.ways * 2 + cfg.allocateTakenOnly);
    for (int step = 0; step < 20000; ++step) {
        const Addr pc = pcs[rng.below(pcs.size())];
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2:
            ASSERT_TRUE(sameHit(btb.lookup(pc), ref.lookup(pc)))
                << "lookup, step " << step;
            break;
          case 3:
            ASSERT_TRUE(sameHit(btb.peek(pc), ref.peek(pc)))
                << "peek, step " << step;
            break;
          case 4:
          case 5:
          case 6: {
            const auto kind = static_cast<InstClass>(
                unsigned(InstClass::kCondDirect) + rng.below(6));
            const Addr target = 0x500000 + rng.below(1 << 16) * 4;
            const bool taken = rng.below(2) == 0;
            btb.install(pc, kind, target, taken);
            ref.install(pc, kind, target, taken);
            break;
          }
          default:
            btb.invalidate(pc);
            ref.invalidate(pc);
            break;
        }
        ASSERT_EQ(btb.lookups(), ref.lookups) << "step " << step;
        ASSERT_EQ(btb.hits(), ref.hits) << "step " << step;
        ASSERT_EQ(btb.allocations(), ref.allocations) << "step " << step;
        ASSERT_EQ(btb.evictions(), ref.evictions) << "step " << step;
    }
    EXPECT_GT(ref.evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BtbLockstep,
    ::testing::Values(BtbLockstepParam{"direct_taken_only", 1, true},
                      BtbLockstepParam{"direct_all_branch", 1, false},
                      BtbLockstepParam{"four_way_taken_only", 4, true},
                      BtbLockstepParam{"four_way_all_branch", 4, false},
                      BtbLockstepParam{"eight_way_taken_only", 8, true},
                      BtbLockstepParam{"eight_way_all_branch", 8, false}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace fdip
