/** @file Tests for the generic set-associative cache. */

#include "cache/cache.h"

#include <cstdint>
#include <set>

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

} // namespace
} // namespace fdip
