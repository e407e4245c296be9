/** @file Round-trip tests for trace serialization. */

#include "trace/trace_io.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "trace/trace_gen.h"
#include "trace/workload.h"

namespace fdip
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceIo, RoundTripEmpty)
{
    const std::string path = tempPath("empty.fdiptrace");
    std::vector<DynInst> in;
    ASSERT_TRUE(writeTraceFile(path, in));
    std::vector<DynInst> out;
    ASSERT_TRUE(readTraceFile(path, out));
    EXPECT_TRUE(out.empty());
    std::remove(path.c_str());
}

TEST(TraceIo, RoundTripContent)
{
    const std::string path = tempPath("content.fdiptrace");
    WorkloadSpec s = specCpuSpec("io", 77);
    s.numFunctions = 40;
    auto wl = std::make_shared<Workload>(buildWorkload(s));
    const Trace t = generateTrace(wl, 10000);

    ASSERT_TRUE(writeTraceFile(path, t.insts));
    std::vector<DynInst> out;
    ASSERT_TRUE(readTraceFile(path, out));
    ASSERT_EQ(out.size(), t.insts.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].staticIndex, t.insts[i].staticIndex);
        EXPECT_EQ(out[i].taken, t.insts[i].taken);
        EXPECT_EQ(out[i].info, t.insts[i].info);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile)
{
    std::vector<DynInst> out;
    EXPECT_FALSE(readTraceFile("/nonexistent/path/x.trace", out));
}

TEST(TraceIo, RejectsBadMagic)
{
    const std::string path = tempPath("bad.fdiptrace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[32] = "not a trace file at all";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
    std::vector<DynInst> out;
    EXPECT_FALSE(readTraceFile(path, out));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncatedBody)
{
    const std::string path = tempPath("trunc.fdiptrace");
    std::vector<DynInst> in(100);
    ASSERT_TRUE(writeTraceFile(path, in));
    // Truncate the file body.
    ASSERT_EQ(truncate(path.c_str(), 16 + 50 * sizeof(DynInst)), 0);
    std::vector<DynInst> out;
    EXPECT_FALSE(readTraceFile(path, out));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsOversizedCount)
{
    // A header claiming more instructions than the file holds is
    // refused before anything is allocated for them: 2^44 would throw
    // std::bad_alloc, and a count near 2^28 would zero-fill 4 GiB.
    const std::string path = tempPath("oversized.fdiptrace");
    std::vector<DynInst> in(3);
    ASSERT_TRUE(writeTraceFile(path, in));
    for (const std::uint64_t count :
         {std::uint64_t{1} << 44, std::uint64_t{1} << 28, std::uint64_t{4},
          ~std::uint64_t{0}, std::uint64_t{2}}) {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0); // The count field.
        ASSERT_EQ(std::fwrite(&count, sizeof(count), 1, f), 1u);
        std::fclose(f);
        std::vector<DynInst> out;
        EXPECT_FALSE(readTraceFile(path, out)) << "count " << count;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace fdip
