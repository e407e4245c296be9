/** @file Unit tests for util/state.h.
 *
 * The FDIP_STATE_* annotations are a contract for the static auditor
 * (tools/lint/check_hotgraph.py), not code: they must expand to
 * nothing on every compiler, leaving layout, size, and initialization
 * of annotated classes untouched. These tests pin that — an annotated
 * struct is byte-identical to its unannotated twin — and check the
 * annotated SimStats still honors its own layout static_asserts by
 * merely compiling.
 */

#include "util/state.h"

#include <cstdint>
#include <type_traits>

#include <gtest/gtest.h>

#include "core/sim_stats.h"

namespace fdip
{
namespace
{

struct Plain
{
    std::uint64_t table = 0;
    std::uint32_t top = 0;
    bool armed = false;
    double wall = 0.0;
};

struct Annotated
{
    FDIP_STATE_ARCH(table) std::uint64_t table = 0;
    FDIP_STATE_ARCH(top_ptr)
    std::uint32_t top = 0;
    FDIP_STATE_MICRO bool armed = false;
    FDIP_STATE_HOST double wall = 0.0;
};

TEST(State, MacrosCompileAway)
{
    // Identical layout: the annotations contribute no bytes, no
    // alignment, no members.
    static_assert(sizeof(Annotated) == sizeof(Plain));
    static_assert(alignof(Annotated) == alignof(Plain));
    static_assert(offsetof(Annotated, table) == offsetof(Plain, table));
    static_assert(offsetof(Annotated, top) == offsetof(Plain, top));
    static_assert(offsetof(Annotated, armed) == offsetof(Plain, armed));
    static_assert(offsetof(Annotated, wall) == offsetof(Plain, wall));
    static_assert(std::is_trivially_copyable_v<Annotated>);

    Annotated a;
    EXPECT_EQ(a.table, 0u);
    EXPECT_EQ(a.top, 0u);
    EXPECT_FALSE(a.armed);
    EXPECT_EQ(a.wall, 0.0);
}

TEST(State, AnnotatedSimStatsKeepsItsLayoutContract)
{
    // SimStats carries FDIP_STATE_MICRO on all 38 architectural
    // counters and FDIP_STATE_HOST on hostWallSeconds; its counter
    // table's coverage check still holds, and architectural equality
    // still excludes host telemetry.
    SimStats s;
    s.hostWallSeconds = 42.0;
    SimStats t;
    EXPECT_TRUE(s.architecturallyEqual(t));
}

} // namespace
} // namespace fdip
