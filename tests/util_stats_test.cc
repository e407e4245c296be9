/** @file Unit tests for util/stats.h and util/table.h. */

#include "util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/table.h"

namespace fdip
{
namespace
{

TEST(Means, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geometricMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_NEAR(geometricMean({3.0}), 3.0, 1e-12);
}

TEST(Means, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Means, GeomeanOfSpeedupsMatchesPaperConvention)
{
    // Speedups 1.1 and 1.3 -> geomean ~1.196, not 1.2.
    const double g = geometricMean({1.1, 1.3});
    EXPECT_NEAR(g, std::sqrt(1.1 * 1.3), 1e-12);
}

TEST(TextTable, FormatsNumbers)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
    EXPECT_EQ(TextTable::pct(0.41, 1), "41.0%");
}

TEST(TextTable, RendersRows)
{
    TextTable t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    // Render into a temp file and check content survives.
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    t.print(f);
    long size = std::ftell(f);
    EXPECT_GT(size, 0);
    std::fclose(f);
}

} // namespace
} // namespace fdip
