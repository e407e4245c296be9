/**
 * @file
 * Crash/fault-injection tests for the spooled campaign service: a
 * campaign killed mid-flight (missing tail records, a torn record, a
 * stale claim, an orphaned temp file) must resume to a merged result
 * byte-identical to one uninterrupted serial run; a finished campaign
 * must re-run with zero simulations; corrupt spool data must be
 * quarantined and recomputed, never trusted and never fatal; and a
 * claim owned by a live process must never be stolen.
 */

#include "sim/campaign_store.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/report.h"
#include "util/atomic_file.h"
#include "util/sync.h"

namespace fdip
{
namespace
{

std::string
tempDir()
{
    std::string tmpl = ::testing::TempDir() + "resumeXXXXXX";
    char *raw = ::mkdtemp(tmpl.data());
    EXPECT_NE(raw, nullptr);
    return tmpl;
}

/** 2 configs x 2 tiny workloads: a 4-run campaign. */
struct TinyCampaign
{
    std::vector<SuiteEntry> suite;
    std::vector<CampaignEntry> entries;

    TinyCampaign()
    {
        for (std::uint64_t seed : {21ull, 22ull}) {
            auto wl = std::make_shared<Workload>(
                buildWorkload(specCpuSpec("r", seed)));
            SuiteEntry e;
            e.name = "r-" + std::to_string(seed);
            e.trace = generateTrace(wl, 12000);
            suite.push_back(std::move(e));
        }
        entries.push_back(
            CampaignEntry{"fdp", paperBaselineConfig(), noPrefetcher(), {}});
        entries.push_back(
            CampaignEntry{"nofdp", noFdpConfig(), noPrefetcher(), {}});
    }
};

void
expectArchEqual(const std::vector<SuiteResult> &a,
                const std::vector<SuiteResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
        EXPECT_EQ(a[c].label, b[c].label);
        ASSERT_EQ(a[c].runs.size(), b[c].runs.size());
        for (std::size_t w = 0; w < a[c].runs.size(); ++w) {
            EXPECT_EQ(a[c].runs[w].workload, b[c].runs[w].workload);
            EXPECT_TRUE(a[c].runs[w].stats.architecturallyEqual(
                b[c].runs[w].stats))
                << a[c].label << " x " << a[c].runs[w].workload;
        }
    }
}

/** Reads a whole file; fails the test if missing. */
std::string
slurp(const std::string &path)
{
    std::string out;
    std::string err;
    EXPECT_TRUE(readFileToString(path, &out, &err)) << path << ": " << err;
    return out;
}

/** Writes raw bytes non-atomically (to fabricate torn/corrupt files). */
void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

TEST(CampaignResume, SpooledColdRunMatchesSerialGolden)
{
    const TinyCampaign tc;
    const auto golden =
        runCampaign(tc.entries, tc.suite, 0.2, /*jobs=*/1);

    SpoolOptions options;
    options.spoolDir = tempDir();
    options.jobs = 4;
    SpoolSummary summary;
    const auto spooled =
        runCampaignSpooled(tc.entries, tc.suite, options, &summary);

    EXPECT_TRUE(summary.complete);
    EXPECT_EQ(summary.totalRuns, 4u);
    EXPECT_EQ(summary.simulated, 4u);
    EXPECT_EQ(summary.cacheHits, 0u);
    EXPECT_EQ(summary.quarantined, 0u);
    expectArchEqual(golden, spooled);

    // The spool now holds one verified record per run and no claims.
    const auto names = listDirectory(options.spoolDir);
    EXPECT_EQ(names.size(), 4u);
    for (const auto &n : names)
        EXPECT_NE(n.find(".json"), std::string::npos) << n;
}

TEST(CampaignResume, FinishedCampaignRerunSimulatesNothing)
{
    const TinyCampaign tc;
    SpoolOptions options;
    options.spoolDir = tempDir();
    runCampaignSpooled(tc.entries, tc.suite, options);

    // Interposer-style run counter: any actual simulation trips it.
    Atomic<std::size_t> simulations{0};
    options.jobs = 4;
    options.onSimulate = [&](std::size_t, std::size_t) {
        simulations.fetchAdd(1, std::memory_order_relaxed);
    };
    SpoolSummary summary;
    const auto rerun =
        runCampaignSpooled(tc.entries, tc.suite, options, &summary);

    EXPECT_EQ(simulations.load(std::memory_order_relaxed), 0u)
        << "a finished campaign must re-simulate nothing";
    EXPECT_EQ(summary.simulated, 0u);
    EXPECT_EQ(summary.cacheHits, 4u);
    EXPECT_TRUE(summary.complete);
    expectArchEqual(runCampaign(tc.entries, tc.suite, 0.2, 1), rerun);
}

TEST(CampaignResume, KilledCampaignResumesToByteIdenticalReport)
{
    const TinyCampaign tc;
    const std::string spool = tempDir();

    // The uninterrupted serial reference, reported to JSON and CSV.
    const auto golden =
        runCampaign(tc.entries, tc.suite, 0.2, /*jobs=*/1);
    const std::string golden_json = spool + "/../golden.json";
    const std::string golden_csv = spool + "/../golden.csv";
    ASSERT_TRUE(writeSuiteResultsJson(golden_json, golden));
    ASSERT_TRUE(writeSuiteResultsCsv(golden_csv, golden));

    // Complete the campaign once, then fabricate a mid-campaign kill:
    SpoolOptions options;
    options.spoolDir = spool;
    ASSERT_TRUE([&] {
        SpoolSummary s;
        runCampaignSpooled(tc.entries, tc.suite, options, &s);
        return s.complete;
    }());
    const auto manifest = buildManifest(tc.entries, tc.suite, 0.2);
    ASSERT_EQ(manifest.size(), 4u);
    //  - one run never finished (its record is missing, and the dead
    //    worker's claim file is still in place),
    ASSERT_TRUE(removeFile(spool + "/" + manifest[1].hash + ".json"));
    writeRaw(spool + "/" + manifest[1].hash + ".claim",
             "fdip-claim-v1\npid=999999999\nhost=" + [] {
                 char h[256] = {0};
                 ::gethostname(h, sizeof(h) - 1);
                 return std::string(h);
             }() + "\n");
    //  - the tail record is torn mid-line (as if the filesystem lost
    //    the tail of a non-atomic writer),
    const std::string tail = spool + "/" + manifest[3].hash + ".json";
    const std::string full = slurp(tail);
    writeRaw(tail, full.substr(0, full.size() / 2));
    //  - and an orphaned atomic-write temp file survived the kill.
    writeRaw(spool + "/" + manifest[2].hash + ".json.tmp.999999999",
             "partial");

    // Resume: reclaim the dead claim, quarantine the torn record,
    // recompute exactly the missing tail.
    Atomic<std::size_t> simulations{0};
    options.reclaimDeadClaims = true;
    options.onSimulate = [&](std::size_t, std::size_t) {
        simulations.fetchAdd(1, std::memory_order_relaxed);
    };
    SpoolSummary summary;
    const auto resumed =
        runCampaignSpooled(tc.entries, tc.suite, options, &summary);

    EXPECT_TRUE(summary.complete);
    EXPECT_EQ(summary.reclaimed, 1u);
    EXPECT_EQ(summary.quarantined, 1u);
    EXPECT_EQ(summary.simulated, 2u) << "only the lost runs recompute";
    EXPECT_EQ(simulations.load(std::memory_order_relaxed), 2u);
    EXPECT_EQ(summary.cacheHits, 2u);
    EXPECT_FALSE(
        fileExists(spool + "/" + manifest[2].hash + ".json.tmp.999999999"))
        << "orphaned temp files are removed on resume";

    // The resumed, merged result is byte-identical to the golden run,
    // through both report writers.
    expectArchEqual(golden, resumed);
    const std::string resumed_json = spool + "/../resumed.json";
    const std::string resumed_csv = spool + "/../resumed.csv";
    ASSERT_TRUE(writeSuiteResultsJson(resumed_json, resumed));
    ASSERT_TRUE(writeSuiteResultsCsv(resumed_csv, resumed));
    EXPECT_EQ(slurp(golden_json), slurp(resumed_json));
    EXPECT_EQ(slurp(golden_csv), slurp(resumed_csv));

    // And a further merge-only pass reproduces the same bytes again.
    std::vector<SuiteResult> merged;
    SpoolSummary merge_summary;
    std::string merge_error;
    ASSERT_TRUE(mergeCampaignSpool(tc.entries, tc.suite, spool, 0.2,
                                   &merged, &merge_summary, &merge_error))
        << merge_error;
    const std::string merged_json = spool + "/../merged.json";
    ASSERT_TRUE(writeSuiteResultsJson(merged_json, merged));
    EXPECT_EQ(slurp(golden_json), slurp(merged_json));
}

TEST(CampaignResume, CorruptRecordsAreQuarantinedAndRecomputed)
{
    const TinyCampaign tc;
    const std::string spool = tempDir();
    SpoolOptions options;
    options.spoolDir = spool;
    runCampaignSpooled(tc.entries, tc.suite, options);
    const auto manifest = buildManifest(tc.entries, tc.suite, 0.2);

    // Four distinct corruptions, one per record:
    //  [0] flipped checksum digit,
    const std::string p0 = spool + "/" + manifest[0].hash + ".json";
    std::string r0 = slurp(p0);
    const std::size_t cs = r0.find("\"statsChecksum\": \"");
    ASSERT_NE(cs, std::string::npos);
    const std::size_t digit = cs + std::string("\"statsChecksum\": \"").size();
    r0[digit] = r0[digit] == '0' ? '1' : '0';
    writeRaw(p0, r0);
    //  [1] unknown (future) record version,
    const std::string p1 = spool + "/" + manifest[1].hash + ".json";
    std::string r1 = slurp(p1);
    const std::string vkey = "\"fdipCampaignRecord\": " +
                             std::to_string(kCampaignRecordVersion);
    const std::size_t vp = r1.find(vkey);
    ASSERT_NE(vp, std::string::npos);
    r1.replace(vp, vkey.size(), "\"fdipCampaignRecord\": 999");
    writeRaw(p1, r1);
    //  [2] a valid record filed under the wrong key (duplicate),
    const std::string p3 = spool + "/" + manifest[3].hash + ".json";
    writeRaw(spool + "/" + manifest[2].hash + ".json", slurp(p3));
    //  [3] truncated to one byte.
    writeRaw(p3, "{");

    Atomic<std::size_t> simulations{0};
    options.onSimulate = [&](std::size_t, std::size_t) {
        simulations.fetchAdd(1, std::memory_order_relaxed);
    };
    SpoolSummary summary;
    const auto recovered =
        runCampaignSpooled(tc.entries, tc.suite, options, &summary);

    EXPECT_TRUE(summary.complete);
    EXPECT_EQ(summary.quarantined, 4u);
    EXPECT_EQ(summary.simulated, 4u)
        << "nothing corrupt may be served from cache";
    EXPECT_EQ(simulations.load(std::memory_order_relaxed), 4u);
    EXPECT_EQ(summary.cacheHits, 0u);
    expectArchEqual(runCampaign(tc.entries, tc.suite, 0.2, 1),
                    recovered);

    // Quarantined copies are kept for postmortem.
    std::size_t quarantined_files = 0;
    for (const auto &n : listDirectory(spool)) {
        if (n.size() > 12 &&
            n.compare(n.size() - 12, 12, ".quarantined") == 0)
            ++quarantined_files;
    }
    EXPECT_EQ(quarantined_files, 4u);
}

TEST(CampaignResume, LiveClaimIsNeverStolenEvenOnResume)
{
    const TinyCampaign tc;
    const std::string spool = tempDir();
    const auto manifest = buildManifest(tc.entries, tc.suite, 0.2);

    // A claim owned by a *live* process: this one.
    char host[256] = {0};
    ::gethostname(host, sizeof(host) - 1);
    writeRaw(spool + "/" + manifest[0].hash + ".claim",
             "fdip-claim-v1\npid=" +
                 std::to_string(static_cast<long>(::getpid())) +
                 "\nhost=" + host + "\n");

    SpoolOptions options;
    options.spoolDir = spool;
    options.reclaimDeadClaims = true;
    SpoolSummary summary;
    runCampaignSpooled(tc.entries, tc.suite, options, &summary);

    EXPECT_FALSE(summary.complete)
        << "the claimed run belongs to the (live) claimant";
    EXPECT_EQ(summary.reclaimed, 0u);
    EXPECT_EQ(summary.simulated, 3u);
    EXPECT_EQ(summary.claimedElsewhere, 1u);
    EXPECT_TRUE(fileExists(spool + "/" + manifest[0].hash + ".claim"));
}

TEST(CampaignResume, DeadClaimBlocksWithoutResumeFlag)
{
    const TinyCampaign tc;
    const std::string spool = tempDir();
    const auto manifest = buildManifest(tc.entries, tc.suite, 0.2);

    char host[256] = {0};
    ::gethostname(host, sizeof(host) - 1);
    writeRaw(spool + "/" + manifest[2].hash + ".claim",
             "fdip-claim-v1\npid=999999999\nhost=" + std::string(host) +
                 "\n");

    // Without --resume the claim is honored (it could be a live remote
    // worker); the drain completes everything else and reports
    // incomplete.
    SpoolOptions options;
    options.spoolDir = spool;
    SpoolSummary summary;
    runCampaignSpooled(tc.entries, tc.suite, options, &summary);
    EXPECT_FALSE(summary.complete);
    EXPECT_EQ(summary.claimedElsewhere, 1u);
    EXPECT_EQ(summary.reclaimed, 0u);

    // With --resume the dead claim is reaped and the campaign
    // completes.
    options.reclaimDeadClaims = true;
    SpoolSummary resumed;
    const auto results =
        runCampaignSpooled(tc.entries, tc.suite, options, &resumed);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.reclaimed, 1u);
    EXPECT_EQ(resumed.simulated, 1u);
    EXPECT_EQ(resumed.cacheHits, 3u);
    expectArchEqual(runCampaign(tc.entries, tc.suite, 0.2, 1), results);
}

TEST(CampaignMerge, MergeFailsClearlyWhenRecordsAreMissing)
{
    const TinyCampaign tc;
    const std::string spool = tempDir();
    SpoolOptions options;
    options.spoolDir = spool;
    runCampaignSpooled(tc.entries, tc.suite, options);
    const auto manifest = buildManifest(tc.entries, tc.suite, 0.2);
    ASSERT_TRUE(removeFile(spool + "/" + manifest[2].hash + ".json"));

    std::vector<SuiteResult> merged;
    SpoolSummary summary;
    std::string error;
    EXPECT_FALSE(mergeCampaignSpool(tc.entries, tc.suite, spool, 0.2,
                                    &merged, &summary, &error));
    EXPECT_FALSE(summary.complete);
    EXPECT_EQ(summary.cacheHits, 3u);
    EXPECT_NE(error.find(manifest[2].hash), std::string::npos)
        << "error must name the missing hash: " << error;
}

TEST(CampaignMerge, WarmupFractionIsPartOfTheAddress)
{
    // A spool filled at warmup 0.2 must not satisfy a 0.3 campaign:
    // same configs, same workloads, different experiment.
    const TinyCampaign tc;
    const std::string spool = tempDir();
    SpoolOptions options;
    options.spoolDir = spool;
    options.warmupFraction = 0.2;
    runCampaignSpooled(tc.entries, tc.suite, options);

    std::vector<SuiteResult> merged;
    SpoolSummary summary;
    std::string error;
    EXPECT_FALSE(mergeCampaignSpool(tc.entries, tc.suite, spool, 0.3,
                                    &merged, &summary, &error));
    EXPECT_EQ(summary.cacheHits, 0u);
}

TEST(CampaignMerge, EditedWorkloadFieldNeverReachesTheReport)
{
    // The record's workload string is outside the counter checksum, so
    // a record whose name was edited still verifies. The report must
    // take the name from the manifest entry the hash addressed.
    const TinyCampaign tc;
    const std::string spool = tempDir();
    SpoolOptions options;
    options.spoolDir = spool;
    runCampaignSpooled(tc.entries, tc.suite, options);
    const std::string golden_json = spool + ".golden.json";
    ASSERT_TRUE(writeSuiteResultsJson(
        golden_json, runCampaign(tc.entries, tc.suite, 0.2, 1)));

    const auto manifest = buildManifest(tc.entries, tc.suite, 0.2);
    const std::string path = spool + "/" + manifest[1].hash + ".json";
    std::string record = slurp(path);
    const std::string field =
        "\"workload\": \"" + tc.suite[manifest[1].workloadIdx].name + "\"";
    const std::size_t at = record.find(field);
    ASSERT_NE(at, std::string::npos);
    record.replace(at, field.size(), "\"workload\": \"r-X\"");
    writeRaw(path, record);

    // Both fill paths: a merge, and a drain that finds every record.
    std::vector<SuiteResult> merged;
    SpoolSummary summary;
    std::string error;
    ASSERT_TRUE(mergeCampaignSpool(tc.entries, tc.suite, spool, 0.2,
                                   &merged, &summary, &error))
        << error;
    EXPECT_EQ(summary.quarantined, 0u) << "the edited record verifies";
    const std::string merged_json = spool + ".merged.json";
    ASSERT_TRUE(writeSuiteResultsJson(merged_json, merged));
    EXPECT_EQ(slurp(golden_json), slurp(merged_json));

    SpoolSummary rerun_summary;
    const auto rerun =
        runCampaignSpooled(tc.entries, tc.suite, options, &rerun_summary);
    EXPECT_EQ(rerun_summary.cacheHits, 4u);
    const std::string rerun_json = spool + ".rerun.json";
    ASSERT_TRUE(writeSuiteResultsJson(rerun_json, rerun));
    EXPECT_EQ(slurp(golden_json), slurp(rerun_json));
}

} // namespace
} // namespace fdip
