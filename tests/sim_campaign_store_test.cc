/**
 * @file
 * Unit tests for the campaign store's building blocks: FNV-1a content
 * hashing, the spool record format (round-trip, checksum, version and
 * corruption detection), manifest digest sensitivity, and the
 * crash-safe file primitives of util/atomic_file.h.
 */

#include "sim/campaign_store.h"

#include <bit>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "trace_digest_reference.h"
#include "util/atomic_file.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

/** A fresh, unique temp directory under gtest's TempDir. */
std::string
tempDir()
{
    std::string tmpl = ::testing::TempDir() + "campaignXXXXXX";
    char *raw = ::mkdtemp(tmpl.data());
    EXPECT_NE(raw, nullptr);
    return tmpl;
}

TEST(Fnv, MatchesPublishedVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), kFnvOffsetBasis);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

static_assert(fnv1aMix(0x0012345600789abcull, kFnvOffsetBasis) ==
              test::referenceFnv1aMix(0x0012345600789abcull,
                                      kFnvOffsetBasis));
static_assert(FnvConstantRun("fdip")(kFnvOffsetBasis) == fnv1a64("fdip"));

TEST(Fnv, MixEqualsByteWiseLittleEndian)
{
    const std::uint64_t v = 0x0123456789abcdefull;
    EXPECT_EQ(fnv1aMix(v, kFnvOffsetBasis),
              test::referenceFnv1aMix(v, kFnvOffsetBasis));

    // fnv1aMix folds a value's zero high bytes into one multiply: check
    // every count of them, with random, zero or zero-low bytes below
    // the highest nonzero one, from random states.
    Rng rng(20);
    for (unsigned zero_high = 0; zero_high <= 8; ++zero_high) {
        const unsigned bytes = 8 - zero_high;
        const std::uint64_t below_top =
            bytes <= 1 ? 0 : (std::uint64_t{1} << (8 * (bytes - 1))) - 1;
        for (int n = 0; n < 3000; ++n) {
            std::uint64_t value = 0;
            if (bytes > 0) {
                value = (rng.next() & below_top) |
                        rng.range(1, 255) << (8 * (bytes - 1));
                if (n % 3 == 0)
                    value &= ~below_top;
                else if (n % 3 == 1)
                    value &= ~(below_top & 0xff);
            }
            ASSERT_EQ(static_cast<unsigned>(std::countl_zero(value)) / 8,
                      zero_high);
            const std::uint64_t h = n % 3 == 0 ? kFnvOffsetBasis : rng.next();
            ASSERT_EQ(fnv1aMix(value, h), test::referenceFnv1aMix(value, h))
                << "value " << std::hex << value << ", state " << h;
        }
    }
}

TEST(Fnv, ConstantRunEqualsByteWise)
{
    // One multiply and one table load stand for a fixed string: check
    // every low state byte under zero, all-ones and random high bytes.
    Rng rng(21);
    std::string random_bytes(37, '\0');
    for (char &c : random_bytes)
        c = static_cast<char>(rng.below(256));
    std::string targetless_call(24, '\0');
    targetless_call[0] = static_cast<char>(InstClass::kCallIndirect);
    targetless_call.replace(16, 8, 8, '\xff');
    const std::string strings[] = {
        std::string(),          std::string(1, '\0'),
        std::string(8, '\xff'), targetless_call,
        random_bytes,           std::string(64, '\0'),
    };
    for (const std::string &bytes : strings) {
        const FnvConstantRun run(bytes);
        for (std::uint64_t low = 0; low < 256; ++low) {
            for (int n = 0; n < 16; ++n) {
                const std::uint64_t high =
                    n == 0 ? 0 : n == 1 ? ~std::uint64_t{0} : rng.next();
                const std::uint64_t h = (high & ~std::uint64_t{0xff}) | low;
                ASSERT_EQ(run(h), fnv1a64(bytes, h))
                    << bytes.size() << "-byte string, state " << std::hex
                    << h;
            }
        }
    }
}

TEST(Fnv, Hex16RoundTripsAndRejectsBadInput)
{
    for (std::uint64_t v : {0ull, 1ull, 0xdeadbeefcafef00dull,
                            ~0ull}) {
        const std::string hex = toHex16(v);
        EXPECT_EQ(hex.size(), 16u);
        std::uint64_t back = 0;
        ASSERT_TRUE(fromHex16(hex, &back)) << hex;
        EXPECT_EQ(back, v);
    }
    std::uint64_t sink = 0;
    EXPECT_FALSE(fromHex16("", &sink));
    EXPECT_FALSE(fromHex16("0123456789abcde", &sink));   // 15 chars.
    EXPECT_FALSE(fromHex16("0123456789abcdef0", &sink)); // 17 chars.
    EXPECT_FALSE(fromHex16("0123456789ABCDEF", &sink));  // Uppercase.
    EXPECT_FALSE(fromHex16("0123456789abcdeg", &sink));  // Non-hex.
}

/** A fully-populated record with distinctive counter values. */
CampaignRecord
sampleRecord()
{
    CampaignRecord r;
    r.hash = toHex16(0x1122334455667788ull);
    r.label = "FDP+EIP-27KB";
    r.workload = "srv-1";
    r.prefetcher = "eip-27";
    r.configDigestHex = toHex16(0x99aabbccddeeff00ull);
    std::uint64_t seed = 3;
    // Give every architectural counter a distinct nonzero value.
    for (std::uint64_t *p :
         {&r.stats.cycles, &r.stats.committedInsts, &r.stats.condBranches,
          &r.stats.takenBranches, &r.stats.indirectBranches,
          &r.stats.returns, &r.stats.mispredicts}) {
        *p = seed;
        seed = seed * 7 + 1;
    }
    r.stats.cycles = 123456789;
    r.stats.committedInsts = 1000000;
    r.stats.hostWallSeconds = 1.25;
    return r;
}

TEST(CampaignRecord, JsonRoundTripPreservesEverythingArchitectural)
{
    const CampaignRecord in = sampleRecord();
    const std::string line = campaignRecordJson(in);
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1) << "must be one line";

    CampaignRecord out;
    std::string err;
    ASSERT_TRUE(parseCampaignRecord(line, &out, &err)) << err;
    EXPECT_EQ(out.hash, in.hash);
    EXPECT_EQ(out.label, in.label);
    EXPECT_EQ(out.workload, in.workload);
    EXPECT_EQ(out.prefetcher, in.prefetcher);
    EXPECT_EQ(out.configDigestHex, in.configDigestHex);
    EXPECT_TRUE(out.stats.architecturallyEqual(in.stats));
    EXPECT_EQ(architecturalChecksum(out.stats),
              architecturalChecksum(in.stats));
}

TEST(CampaignRecord, EscapedLabelRoundTrips)
{
    CampaignRecord in = sampleRecord();
    in.label = "odd \"label\" with \\ backslash";
    CampaignRecord out;
    std::string err;
    ASSERT_TRUE(parseCampaignRecord(campaignRecordJson(in), &out, &err))
        << err;
    EXPECT_EQ(out.label, in.label);
}

TEST(CampaignRecord, ChecksumExcludesHostTelemetry)
{
    CampaignRecord r = sampleRecord();
    const std::uint64_t before = architecturalChecksum(r.stats);
    r.stats.hostWallSeconds *= 17.0;
    EXPECT_EQ(architecturalChecksum(r.stats), before);
    r.stats.cycles += 1;
    EXPECT_NE(architecturalChecksum(r.stats), before);
}

TEST(CampaignRecord, TamperedCounterFailsChecksum)
{
    const std::string line = campaignRecordJson(sampleRecord());
    const std::string needle = "\"cycles\": 123456789";
    const std::size_t pos = line.find(needle);
    ASSERT_NE(pos, std::string::npos);
    std::string tampered = line;
    tampered.replace(pos, needle.size(), "\"cycles\": 123456788");

    CampaignRecord out;
    std::string err;
    EXPECT_FALSE(parseCampaignRecord(tampered, &out, &err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST(CampaignRecord, TruncationAndGarbageAreRejectedNotFatal)
{
    const std::string line = campaignRecordJson(sampleRecord());
    CampaignRecord out;
    std::string err;
    // Every proper prefix must fail cleanly.
    for (std::size_t len : {0ul, 1ul, 10ul, line.size() / 2,
                            line.size() - 2}) {
        EXPECT_FALSE(
            parseCampaignRecord(line.substr(0, len), &out, &err))
            << "prefix length " << len;
    }
    EXPECT_FALSE(parseCampaignRecord(line + "trailing", &out, &err));
    EXPECT_FALSE(parseCampaignRecord("not json at all", &out, &err));
}

TEST(CampaignRecord, UnknownVersionIsRejectedWithClearReason)
{
    std::string line = campaignRecordJson(sampleRecord());
    const std::string v =
        "\"fdipCampaignRecord\": " + std::to_string(kCampaignRecordVersion);
    const std::size_t pos = line.find(v);
    ASSERT_NE(pos, std::string::npos);
    line.replace(pos, v.size(), "\"fdipCampaignRecord\": 999");

    CampaignRecord out;
    std::string err;
    EXPECT_FALSE(parseCampaignRecord(line, &out, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

/** Two distinct tiny workloads for manifest tests. */
std::vector<SuiteEntry>
twoWorkloads()
{
    std::vector<SuiteEntry> suite;
    for (std::uint64_t seed : {11ull, 12ull}) {
        auto wl = std::make_shared<Workload>(
            buildWorkload(specCpuSpec("m", seed)));
        SuiteEntry e;
        e.name = "m-" + std::to_string(seed);
        e.trace = generateTrace(wl, 5000);
        suite.push_back(std::move(e));
    }
    return suite;
}

TEST(Manifest, StableAcrossCallsAndOrderedByCampaign)
{
    const auto suite = twoWorkloads();
    std::vector<CampaignEntry> entries;
    entries.push_back(
        CampaignEntry{"a", paperBaselineConfig(), noPrefetcher(), {}});
    entries.push_back(CampaignEntry{"b", noFdpConfig(), noPrefetcher(), {}});

    const auto m1 = buildManifest(entries, suite, 0.2);
    const auto m2 = buildManifest(entries, suite, 0.2);
    ASSERT_EQ(m1.size(), 4u);
    for (std::size_t i = 0; i < m1.size(); ++i) {
        EXPECT_EQ(m1[i].hash, m2[i].hash);
        EXPECT_EQ(m1[i].entryIdx, i / suite.size());
        EXPECT_EQ(m1[i].workloadIdx, i % suite.size());
        std::uint64_t sink = 0;
        EXPECT_TRUE(fromHex16(m1[i].hash, &sink)) << m1[i].hash;
    }
    // All four (config, workload) pairs are distinct experiments.
    for (std::size_t i = 0; i < m1.size(); ++i)
        for (std::size_t j = i + 1; j < m1.size(); ++j)
            EXPECT_NE(m1[i].hash, m1[j].hash);
}

TEST(Manifest, HashIsSensitiveToEveryAddressedInput)
{
    const auto suite = twoWorkloads();
    std::vector<CampaignEntry> base;
    base.push_back(
        CampaignEntry{"a", paperBaselineConfig(), noPrefetcher(), {}});
    const std::string h0 = buildManifest(base, suite, 0.2)[0].hash;

    // Any architectural config knob changes the hash.
    {
        std::vector<CampaignEntry> mod = base;
        mod[0].cfg.ftqEntries += 1;
        EXPECT_NE(buildManifest(mod, suite, 0.2)[0].hash, h0);
    }
    {
        std::vector<CampaignEntry> mod = base;
        mod[0].cfg.bpu.btb.numEntries *= 2;
        EXPECT_NE(buildManifest(mod, suite, 0.2)[0].hash, h0);
    }
    // The prefetcher identity changes the hash; the display label
    // alone does not (an empty id falls back to the label, so give
    // both variants an explicit id to isolate the label).
    {
        std::vector<CampaignEntry> mod = base;
        mod[0].prefetcherId = "eip-27";
        EXPECT_NE(buildManifest(mod, suite, 0.2)[0].hash, h0);
    }
    {
        std::vector<CampaignEntry> a = base;
        std::vector<CampaignEntry> b = base;
        a[0].prefetcherId = "none";
        b[0].prefetcherId = "none";
        b[0].label = "renamed";
        EXPECT_EQ(buildManifest(a, suite, 0.2)[0].hash,
                  buildManifest(b, suite, 0.2)[0].hash);
    }
    // Warmup fraction is part of the experiment.
    EXPECT_NE(buildManifest(base, suite, 0.25)[0].hash, h0);
    // The workload (its trace content) is part of the experiment:
    // entry 0 x workload 0 vs entry 0 x workload 1.
    const auto m = buildManifest(base, suite, 0.2);
    EXPECT_NE(m[0].hash, m[1].hash);
}

TEST(Manifest, SeedAndLengthChangeTheTraceDigest)
{
    auto wlA = std::make_shared<Workload>(
        buildWorkload(specCpuSpec("m", 11)));
    auto wlB = std::make_shared<Workload>(
        buildWorkload(specCpuSpec("m", 12)));
    SuiteEntry a;
    a.name = "same-name";
    a.trace = generateTrace(wlA, 5000);
    SuiteEntry b;
    b.name = "same-name";
    b.trace = generateTrace(wlB, 5000);
    // Same name, different seed: content addressing must see through.
    EXPECT_NE(traceDigest(a), traceDigest(b));

    SuiteEntry longer;
    longer.name = "same-name";
    longer.trace = generateTrace(wlA, 6000);
    EXPECT_NE(traceDigest(a), traceDigest(longer));

    // And it is a pure content function: rebuilt identically, hashes
    // identically.
    SuiteEntry again;
    again.name = "same-name";
    auto wlA2 = std::make_shared<Workload>(
        buildWorkload(specCpuSpec("m", 11)));
    again.trace = generateTrace(wlA2, 5000);
    EXPECT_EQ(traceDigest(a), traceDigest(again));
}

TEST(AtomicFile, WriteReadRoundTrip)
{
    const std::string dir = tempDir();
    const std::string path = dir + "/file.txt";
    std::string err;
    ASSERT_TRUE(writeFileAtomic(path, "hello\n", &err)) << err;
    std::string back;
    ASSERT_TRUE(readFileToString(path, &back, &err)) << err;
    EXPECT_EQ(back, "hello\n");

    // Overwrite is atomic replacement, and no temp files survive.
    ASSERT_TRUE(writeFileAtomic(path, "second\n", &err)) << err;
    ASSERT_TRUE(readFileToString(path, &back, &err)) << err;
    EXPECT_EQ(back, "second\n");
    EXPECT_EQ(listDirectory(dir).size(), 1u);
}

TEST(AtomicFile, ExclusiveCreateAdmitsExactlyOneWinner)
{
    const std::string dir = tempDir();
    const std::string path = dir + "/claim";
    EXPECT_EQ(createFileExclusive(path, "one\n"),
              ExclusiveCreate::kCreated);
    EXPECT_EQ(createFileExclusive(path, "two\n"),
              ExclusiveCreate::kExists);
    std::string back;
    ASSERT_TRUE(readFileToString(path, &back));
    EXPECT_EQ(back, "one\n") << "loser must not clobber the claim";

    std::string err;
    EXPECT_EQ(createFileExclusive(dir + "/no/such/dir/claim", "x", &err),
              ExclusiveCreate::kError);
    EXPECT_FALSE(err.empty());
}

TEST(AtomicFile, EnsureDirectoryIsMkdirP)
{
    const std::string dir = tempDir();
    std::string err;
    ASSERT_TRUE(ensureDirectory(dir + "/a/b/c", &err)) << err;
    ASSERT_TRUE(ensureDirectory(dir + "/a/b/c", &err)) << err; // Idempotent.
    ASSERT_TRUE(writeFileAtomic(dir + "/a/b/c/f", "x\n", &err)) << err;

    // An existing regular file is not a directory.
    EXPECT_FALSE(ensureDirectory(dir + "/a/b/c/f", &err));
}

TEST(AtomicFile, ListRemoveAndExistSemantics)
{
    const std::string dir = tempDir();
    ASSERT_TRUE(writeFileAtomic(dir + "/b", "1"));
    ASSERT_TRUE(writeFileAtomic(dir + "/a", "2"));
    ASSERT_TRUE(ensureDirectory(dir + "/sub"));

    const auto names = listDirectory(dir);
    ASSERT_EQ(names.size(), 2u) << "directories are not listed";
    EXPECT_EQ(names[0], "a") << "sorted order";
    EXPECT_EQ(names[1], "b");

    EXPECT_TRUE(fileExists(dir + "/a"));
    EXPECT_FALSE(fileExists(dir + "/sub"));
    EXPECT_TRUE(removeFile(dir + "/a"));
    EXPECT_TRUE(removeFile(dir + "/a")) << "absent is success";
    EXPECT_FALSE(fileExists(dir + "/a"));
    EXPECT_TRUE(listDirectory(dir + "/nonexistent").empty());
}

} // namespace
} // namespace fdip
