/**
 * @file
 * Deterministic byte-mutation test of the two parsers that read
 * untrusted bytes: the spool record parser (parseCampaignRecord) and
 * the ChampSim importer (readChampSimTrace). Every mutant must be
 * accepted or rejected and never crash; under the asan and ubsan
 * presets a stray read or an undefined operation fails the run as
 * well. No fuzzer is needed: the mutants are enumerated (records) or
 * drawn from a fixed seed (trace files), so every run checks the same
 * inputs.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/campaign_store.h"
#include "trace/champsim.h"
#include "trace/workload.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

/** What each mutated position is overwritten with. */
constexpr unsigned char kMutantBytes[] = {0x00, 0xff, 0x7f, 0x80, 0x01,
                                          '"',  '}',  '9',  '-',  ','};

/** A fresh, unique temp directory under gtest's TempDir. */
std::string
tempDir()
{
    std::string tmpl = ::testing::TempDir() + "mutationXXXXXX";
    char *raw = ::mkdtemp(tmpl.data());
    EXPECT_NE(raw, nullptr);
    return tmpl;
}

std::string
slurp(const std::string &path)
{
    std::string out;
    std::string err;
    EXPECT_TRUE(readFileToString(path, &out, &err)) << path << ": " << err;
    return out;
}

void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** A few hundred instructions: enough for every record kind. */
Trace
smallTrace()
{
    WorkloadSpec s = clientSpec("mut", 5);
    s.numFunctions = 50;
    auto wl = std::make_shared<Workload>(buildWorkload(s));
    return generateTrace(wl, 300);
}

/**
 * Calls @p visit with every file mutant of @p original: its first
 * @p head bytes and 64 seeded positions, each overwritten with every
 * kMutantBytes value, then its truncations to 1, 63, 64, 65 and n-1
 * bytes.
 */
template <typename Visit>
void
forEachFileMutant(const std::string &original, std::size_t head,
                  Visit visit)
{
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < std::min(head, original.size()); ++i)
        positions.push_back(i);
    Rng rng(0x6d757461ull);
    for (int k = 0; k < 64; ++k)
        positions.push_back(rng.below(original.size()));
    for (const std::size_t pos : positions) {
        for (const unsigned char b : kMutantBytes) {
            std::string m = original;
            m[pos] = static_cast<char>(b);
            visit(m);
        }
    }
    for (const std::size_t len : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  original.size() - 1})
        visit(original.substr(0, len));
}

/** A record whose every counter holds a distinct nonzero value. */
CampaignRecord
sampleRecord()
{
    CampaignRecord r;
    r.hash = "0123456789abcdef";
    r.label = "fdp+eip";
    r.workload = "srv-a";
    r.prefetcher = "eip-128";
    r.configDigestHex = "fedcba9876543210";
    r.stats.hostWallSeconds = 1.25;
    std::uint64_t v = 7;
    for (const SimStatsCounter &c : kSimStatsCounters) {
        r.stats.*c.member = v;
        v = v * 31 + 11;
    }
    return r;
}

bool
sameRecord(const CampaignRecord &a, const CampaignRecord &b)
{
    return a.hash == b.hash && a.label == b.label &&
           a.workload == b.workload && a.prefetcher == b.prefetcher &&
           a.configDigestHex == b.configDigestHex &&
           a.stats.hostWallSeconds == b.stats.hostWallSeconds &&
           a.stats.architecturallyEqual(b.stats);
}

/**
 * [begin, end) byte spans of the values the checksum leaves out by
 * design: hash (the spool scan checks it against the file name),
 * label, workload, prefetcher and configDigest (descriptive), and
 * hostWallSeconds (host telemetry).
 */
std::vector<std::pair<std::size_t, std::size_t>>
uncheckedSpans(const std::string &line)
{
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    for (const char *key : {"hash", "label", "workload", "prefetcher",
                            "configDigest", "hostWallSeconds"}) {
        // From the colon on: the reader skips blanks before a value.
        const std::string needle = std::string("\"") + key + "\":";
        const std::size_t at = line.find(needle);
        EXPECT_NE(at, std::string::npos) << key;
        const std::size_t begin = at + needle.size();
        spans.emplace_back(begin, line.find(',', begin));
    }
    return spans;
}

TEST(ParserMutation, SpoolRecordKeepsItsCountersOrIsRejected)
{
    const CampaignRecord original = sampleRecord();
    const std::string line = campaignRecordJson(original);
    const auto spans = uncheckedSpans(line);
    const auto inUncheckedField = [&](std::size_t pos) {
        return std::any_of(spans.begin(), spans.end(), [&](const auto &s) {
            return s.first <= pos && pos < s.second;
        });
    };

    std::size_t inputs = 0;
    std::size_t accepted = 0;
    // @p pos is the mutated byte, or line.size() for a truncation.
    const auto check = [&](const std::string &mutant, std::size_t pos) {
        ++inputs;
        CampaignRecord out;
        std::string err;
        if (!parseCampaignRecord(mutant, &out, &err)) {
            EXPECT_FALSE(err.empty()) << "a rejection names its reason";
            return;
        }
        ++accepted;
        // An accepted mutant is the original record, reformatted, or
        // differs from it only inside a field the checksum leaves out.
        EXPECT_TRUE(original.stats.architecturallyEqual(out.stats))
            << "byte " << pos << ": " << mutant;
        if (!inUncheckedField(pos)) {
            EXPECT_TRUE(sameRecord(original, out))
                << "byte " << pos << ": " << mutant;
        }
    };

    for (std::size_t pos = 0; pos < line.size(); ++pos) {
        for (const unsigned char b : kMutantBytes) {
            std::string m = line;
            m[pos] = static_cast<char>(b);
            check(m, pos);
        }
        check(line.substr(0, pos) + line.substr(pos + 1), pos);
        check(line.substr(0, pos), line.size());
    }
    EXPECT_EQ(inputs, line.size() * (std::size(kMutantBytes) + 2));
    // Blanks, the unchecked fields and the dropped final newline admit
    // a few percent; a parser accepting more has stopped being strict.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, inputs / 10);
}

TEST(ParserMutation, ChampSimIsReadWholeOrRejected)
{
    const Trace trace = smallTrace();
    const std::string dir = tempDir();
    ASSERT_TRUE(writeChampSimTrace(dir + "/orig.champsim", trace));
    const std::string original = slurp(dir + "/orig.champsim");
    ASSERT_EQ(original.size(), trace.size() * sizeof(ChampSimRecord));
    const std::string path = dir + "/mutant.champsim";

    std::size_t accepted = 0;
    // ChampSim has no file header: mutate the whole first record.
    forEachFileMutant(original, sizeof(ChampSimRecord),
                      [&](const std::string &m) {
                          writeRaw(path, m);
                          Trace out;
                          const bool ok = readChampSimTrace(path, 0, out);
                          // A torn last record is a truncated file.
                          if (m.size() % sizeof(ChampSimRecord) != 0) {
                              EXPECT_FALSE(ok)
                                  << "truncated to " << m.size()
                                  << " bytes";
                          }
                          if (!ok)
                              return;
                          ++accepted;
                          EXPECT_EQ(out.size(),
                                    m.size() / sizeof(ChampSimRecord))
                              << "an accepted file is read whole";
                      });
    EXPECT_GT(accepted, 0u);
}

} // namespace
} // namespace fdip
