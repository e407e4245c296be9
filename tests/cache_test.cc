/** @file Tests for the generic set-associative cache. */

#include "cache/cache.h"

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fdip
{
namespace
{

CacheConfig
tiny(unsigned size_kb = 1, unsigned ways = 2,
     ReplacementPolicy repl = ReplacementPolicy::kLru)
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.sizeBytes = size_kb * 1024ull;
    cfg.ways = ways;
    cfg.replacement = repl;
    return cfg;
}

TEST(Cache, MissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.probe(0x1000).has_value());
    c.fill(0x1000);
    EXPECT_TRUE(c.probe(0x1000).has_value());
    EXPECT_TRUE(c.probe(0x1020).has_value()); // Same 64B line.
    EXPECT_FALSE(c.probe(0x1040).has_value()); // Next line.
}

TEST(Cache, LineAlignment)
{
    Cache c(tiny());
    EXPECT_EQ(c.lineOf(0x1234), 0x1200u);
    EXPECT_EQ(c.lineOf(0x1240), 0x1240u);
}

TEST(Cache, StatsCount)
{
    Cache c(tiny());
    c.probe(0x1000);
    c.fill(0x1000);
    c.access(0x1000);
    EXPECT_EQ(c.tagAccesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    c.resetStats();
    EXPECT_EQ(c.tagAccesses(), 0u);
}

TEST(Cache, LruEviction)
{
    // 1KB, 2-way, 64B lines -> 8 sets. Same set: stride 8*64 = 512B.
    Cache c(tiny());
    c.fill(0x0000);
    c.fill(0x0200);
    c.access(0x0000); // Refresh.
    c.fill(0x0400); // Evicts 0x0200.
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x0200));
    EXPECT_TRUE(c.contains(0x0400));
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Cache, InsertReturnsVictim)
{
    Cache c(tiny());
    EXPECT_EQ(c.fill(0x0000), kNoAddr);
    EXPECT_EQ(c.fill(0x0200), kNoAddr);
    const Addr victim = c.fill(0x0400);
    EXPECT_EQ(victim, 0x0000u);
}

TEST(Cache, ReinsertIsRefreshNotEviction)
{
    Cache c(tiny());
    c.fill(0x0000);
    EXPECT_EQ(c.fill(0x0000), kNoAddr);
    EXPECT_EQ(c.evictions(), 0u);
}

TEST(Cache, WayReporting)
{
    Cache c(tiny());
    unsigned w0 = 99;
    unsigned w1 = 99;
    c.fill(0x0000, &w0);
    c.fill(0x0200, &w1);
    EXPECT_NE(w0, w1);
    EXPECT_LT(w0, 2u);
    EXPECT_LT(w1, 2u);
    const auto probe = c.probe(0x0000);
    ASSERT_TRUE(probe.has_value());
    EXPECT_EQ(*probe, w0);
}

TEST(Cache, InvalidateAndReset)
{
    Cache c(tiny());
    c.fill(0x1000);
    c.fill(0x2000);
    c.invalidate(0x1000);
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x2000));
    c.reset();
    EXPECT_FALSE(c.contains(0x2000));
}

TEST(Cache, RejectsBadGeometry)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1000; // Not divisible into pow2 sets.
    cfg.ways = 3;
    EXPECT_DEATH({ Cache c(cfg); }, "");
}

/** Property: cache contents are always a subset of inserted lines and
 *  never exceed capacity, for several geometries and policies. */
struct GeomParam
{
    unsigned sizeKb;
    unsigned ways;
    ReplacementPolicy repl;
    /** Explicit, zeroed padding: gtest prints the raw bytes into the
     *  test name, which implicit padding made vary between builds. */
    std::uint8_t pad[3] = {};
};

class CacheGeometry : public ::testing::TestWithParam<GeomParam>
{
};

TEST_P(CacheGeometry, InclusionAndCapacityInvariant)
{
    const GeomParam p = GetParam();
    Cache c(tiny(p.sizeKb, p.ways, p.repl));
    std::set<Addr> inserted;
    Rng rng(p.sizeKb * 1000 + p.ways);

    for (int i = 0; i < 20000; ++i) {
        const Addr line = rng.below(4096) * kCacheLineBytes;
        if (rng.below(2) == 0) {
            c.fill(line);
            inserted.insert(line);
        } else {
            const bool hit = c.access(line).has_value();
            if (hit) {
                EXPECT_TRUE(inserted.count(line)) << std::hex << line;
            }
        }
    }
    // Spot-check capacity: resident lines <= total lines.
    const std::uint64_t capacity_lines =
        p.sizeKb * 1024ull / kCacheLineBytes;
    std::uint64_t resident = 0;
    for (Addr line = 0; line < 4096 * kCacheLineBytes;
         line += kCacheLineBytes) {
        if (c.contains(line))
            ++resident;
    }
    EXPECT_LE(resident, capacity_lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(GeomParam{1, 2, ReplacementPolicy::kLru},
                      GeomParam{2, 4, ReplacementPolicy::kLru},
                      GeomParam{4, 8, ReplacementPolicy::kLru},
                      GeomParam{1, 2, ReplacementPolicy::kRandom},
                      GeomParam{4, 16, ReplacementPolicy::kRandom}));

/**
 * Reference model: a list-LRU cache. Each set is a list of its
 * resident line addresses, most recently used first, searched by a
 * linear scan.
 */
class ListLruCache
{
  public:
    explicit ListLruCache(const CacheConfig &cfg)
        : lineBytes_(cfg.lineBytes),
          ways_(cfg.ways),
          sets_(cfg.sizeBytes / cfg.lineBytes / cfg.ways)
    {
    }

    Addr lineOf(Addr addr) const { return addr - addr % lineBytes_; }

    bool
    contains(Addr addr) const
    {
        const std::list<Addr> &s = setOf(addr);
        return std::find(s.begin(), s.end(), lineOf(addr)) != s.end();
    }

    /** A hit moves the line to the front. */
    bool
    access(Addr addr)
    {
        std::list<Addr> &s = setOf(addr);
        const auto it = std::find(s.begin(), s.end(), lineOf(addr));
        if (it == s.end())
            return false;
        s.splice(s.begin(), s, it);
        return true;
    }

    /** Returns the evicted line (kNoAddr if none). */
    Addr
    fill(Addr addr)
    {
        if (access(addr))
            return kNoAddr;
        std::list<Addr> &s = setOf(addr);
        Addr evicted = kNoAddr;
        if (s.size() == ways_) {
            evicted = s.back();
            s.pop_back();
        }
        s.push_front(lineOf(addr));
        return evicted;
    }

    void invalidate(Addr addr) { setOf(addr).remove(lineOf(addr)); }

  private:
    std::list<Addr> &
    setOf(Addr addr)
    {
        return sets_[(addr / lineBytes_) % sets_.size()];
    }
    const std::list<Addr> &
    setOf(Addr addr) const
    {
        return sets_[(addr / lineBytes_) % sets_.size()];
    }

    Addr lineBytes_;
    std::size_t ways_;
    std::vector<std::list<Addr>> sets_;
};

struct LockstepParam
{
    const char *name;
    CacheConfig cfg;
};

void
PrintTo(const LockstepParam &p, std::ostream *os)
{
    *os << p.name;
}

class CacheLockstep : public ::testing::TestWithParam<LockstepParam>
{
};

TEST_P(CacheLockstep, MatchesListLruReference)
{
    // Random access/probe/touch/fill/invalidate/contains streams over
    // twice the capacity, in runs of one line (code-like locality, so
    // a hinted access's guess of the last hit or fill way is often
    // right). Every hit, eviction and counter must match the
    // reference, and a hit must report the way the line was filled
    // into.
    const CacheConfig cfg = GetParam().cfg;
    Cache c(cfg);
    ListLruCache ref(cfg);
    std::map<Addr, unsigned> way_of;
    const std::uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    Rng rng(lines * 31 + cfg.ways);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    unsigned last_way = 0;
    Addr addr = 0;

    for (int step = 0; step < 40000; ++step) {
        if (rng.below(3) == 0) {
            addr = rng.below(2 * lines) * cfg.lineBytes +
                   rng.below(cfg.lineBytes);
        }
        const Addr line = ref.lineOf(addr);
        const std::uint64_t op = rng.below(6);
        switch (op) {
          case 0:
          case 1: {
            // Op 1 passes a way hint: the way of the last hit or fill,
            // or now and then any way.
            const unsigned hint = rng.below(4) == 0
                                      ? static_cast<unsigned>(
                                            rng.below(cfg.ways))
                                      : last_way;
            const auto way = op == 0 ? c.access(addr) : c.access(addr, hint);
            ASSERT_EQ(way.has_value(), ref.access(addr)) << "step " << step;
            if (way.has_value()) {
                ++hits;
                ASSERT_EQ(*way, way_of.at(line)) << "step " << step;
                last_way = *way;
            } else {
                ++misses;
            }
            break;
          }
          case 2: {
            const auto way = c.probe(addr);
            ASSERT_EQ(way.has_value(), ref.contains(addr))
                << "step " << step;
            if (way.has_value()) {
                ++hits;
                ASSERT_EQ(*way, way_of.at(line)) << "step " << step;
            } else {
                ++misses;
            }
            break;
          }
          case 3:
            c.touch(addr);
            ref.access(addr);
            break;
          case 4: {
            unsigned way = 0;
            const Addr evicted = c.fill(addr, &way);
            ASSERT_EQ(evicted, ref.fill(addr)) << "step " << step;
            way_of.erase(evicted);
            way_of[line] = way;
            last_way = way;
            break;
          }
          default:
            if (rng.below(4) == 0) {
                c.invalidate(addr);
                ref.invalidate(addr);
                way_of.erase(line);
            } else {
                ASSERT_EQ(c.contains(addr), ref.contains(addr))
                    << "step " << step;
            }
            break;
        }
        ASSERT_EQ(c.hits(), hits);
        ASSERT_EQ(c.misses(), misses);
    }
}

CacheConfig
lockstepConfig(const char *name, unsigned lines, unsigned ways,
               unsigned line_bytes)
{
    CacheConfig cfg;
    cfg.name = name;
    cfg.lineBytes = line_bytes;
    cfg.ways = ways;
    cfg.sizeBytes = std::uint64_t{lines} * line_bytes;
    return cfg;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheLockstep,
    ::testing::Values(
        LockstepParam{"fully_assoc_16", lockstepConfig("fa", 16, 16, 64)},
        LockstepParam{"itlb_64_way", lockstepConfig("itlb", 64, 64, 4096)},
        LockstepParam{"set_assoc_4x4", lockstepConfig("sa", 16, 4, 64)}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace fdip
