/** @file
 * Contract tests for SimStats: every row of kSimStatsCounters reaches
 * every consumer built on the table (equality, the spool checksum and
 * record, the `core.*` stats), and stat registration cannot mutate
 * simulated state.
 */

#include "core/sim_stats.h"

#include <iterator>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "bpu/bpu.h"
#include "bpu/btb.h"
#include "bpu/btb_hierarchy.h"
#include "bpu/ras.h"
#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "core/core.h"
#include "core/frontend.h"
#include "core/ftq.h"
#include "obs/stat_registry.h"
#include "prefetch/prefetcher.h"
#include "sim/campaign_store.h"

namespace fdip
{
namespace
{

// ---------------------------------------------------------------------
// Observation purity: every registerStats() path must take the
// component through a *const* reference, so registration (and the
// getters it captures) cannot mutate simulated state. A component
// whose registerStats loses its const qualifier stops satisfying
// these assertions and fails here at compile time.
// ---------------------------------------------------------------------

template <typename T>
inline constexpr bool kRegistersConst =
    std::is_invocable_v<decltype(&T::registerStats), const T &,
                        StatRegistry &, const std::string &>;

static_assert(kRegistersConst<Frontend>,
              "Frontend::registerStats must be const");
static_assert(kRegistersConst<Ftq>, "Ftq::registerStats must be const");
static_assert(kRegistersConst<Bpu>, "Bpu::registerStats must be const");
static_assert(kRegistersConst<Btb>, "Btb::registerStats must be const");
static_assert(kRegistersConst<BtbHierarchy>,
              "BtbHierarchy::registerStats must be const");
static_assert(kRegistersConst<Ras>, "Ras::registerStats must be const");
static_assert(kRegistersConst<Cache>,
              "Cache::registerStats must be const");
static_assert(kRegistersConst<MemoryHierarchy>,
              "MemoryHierarchy::registerStats must be const");
static_assert(kRegistersConst<InstPrefetcher>,
              "InstPrefetcher::registerStats must be const");
static_assert(
    std::is_invocable_v<decltype(&Core::registerStats), const Core &,
                        StatRegistry &>,
    "Core::registerStats must be const");

// Row k addresses the k-th counter member, and a SimStats that differs
// from a baseline only in that member must compare unequal, checksum
// differently, round-trip through a spool record with that value, and
// read it back from the registry under the row's `core.*` name.
TEST(SimStatsContract, EveryCounterRowReachesEveryConsumer)
{
    SimStats base;
    for (std::size_t k = 0; k < std::size(kSimStatsCounters); ++k)
        base.*kSimStatsCounters[k].member = 1000 + k;
    constexpr std::uint64_t kMoved = 7;

    for (std::size_t k = 0; k < std::size(kSimStatsCounters); ++k) {
        const SimStatsCounter &c = kSimStatsCounters[k];
        SCOPED_TRACE(c.recordKey);
        // Table order is declaration order: two rows with swapped
        // members would swap record keys and stat names.
        EXPECT_EQ(static_cast<std::size_t>(
                      reinterpret_cast<const char *>(&(base.*c.member)) -
                      reinterpret_cast<const char *>(&base)),
                  k * sizeof(std::uint64_t));
        SimStats s = base;
        s.*c.member = kMoved;
        EXPECT_FALSE(s.architecturallyEqual(base));
        EXPECT_NE(architecturalChecksum(s), architecturalChecksum(base));

        CampaignRecord record;
        record.hash = "0123456789abcdef";
        record.stats = s;
        CampaignRecord parsed;
        std::string error;
        ASSERT_TRUE(
            parseCampaignRecord(campaignRecordJson(record), &parsed, &error))
            << error;
        EXPECT_EQ(parsed.stats.*c.member, kMoved);
        EXPECT_TRUE(parsed.stats.architecturallyEqual(s));

        StatRegistry reg;
        registerCoreSimStats(reg, s);
        const std::string name =
            std::string(c.isCycleBucket() ? "core.cycles." : "core.") +
            c.statName;
        EXPECT_EQ(reg.counterValue(name), kMoved) << name;
    }
}

TEST(SimStatsContract, EqualityTracksEveryCounter)
{
    SimStats a;
    a.cycles = 100;
    a.committedInsts = 250;
    SimStats b = a;
    EXPECT_TRUE(a.architecturallyEqual(b));

    // Host wall-clock is telemetry, not architecture.
    b.hostWallSeconds = 99.0;
    EXPECT_TRUE(a.architecturallyEqual(b));

    b.btbHits = 1;
    EXPECT_FALSE(a.architecturallyEqual(b));
}

TEST(SimStatsContract, DerivedPrefetchMetrics)
{
    SimStats s;
    EXPECT_DOUBLE_EQ(s.prefetchAccuracy(), 0.0);
    EXPECT_DOUBLE_EQ(s.prefetchCoverage(), 0.0);
    EXPECT_DOUBLE_EQ(s.prefetchRedundantRate(), 0.0);

    s.prefetchesIssued = 100;
    s.prefetchesUseful = 40;
    s.prefetchesRedundant = 25;
    s.l1iDemandMisses = 60;
    EXPECT_DOUBLE_EQ(s.prefetchAccuracy(), 0.4);
    EXPECT_DOUBLE_EQ(s.prefetchCoverage(), 0.4);
    EXPECT_DOUBLE_EQ(s.prefetchRedundantRate(), 0.25);
}

} // namespace
} // namespace fdip
