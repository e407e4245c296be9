/**
 * @file
 * Cross-commit architectural fingerprint. Every other bit-identity
 * test compares one binary with itself (serial vs parallel, profiler on
 * vs off); this one compares the simulator with the committed golden
 * tests/data/arch_fingerprint.golden.json, so a change that silently
 * moves simulated behaviour fails here.
 *
 * Each (config, trace) pair is one architecturalChecksum over all
 * SimStats counters. The configs span the history schemes, direction
 * predictors, FTQ depths, PFC, the two-level BTB and a prefetcher; the
 * traces are the small suite's server, client and SPEC-like programs.
 *
 * The same file pins the spool's content addresses against
 * tests/data/content_address.golden.json: traceDigest of the small
 * suite's traces and of a ChampSim round trip, and the smoke and
 * prefetchers manifest hashes over them. A speed change to the
 * digests must leave them passing, or every spooled record misses.
 *
 * And it pins the counters' external names against
 * tests/data/counter_names.golden.json: the spool record line and the
 * `core.*` stat names, each with the counter value it carries.
 *
 * A deliberate change replaces a golden with the JSON its test prints
 * on a mismatch, and says why in the commit.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/core.h"
#include "core/core_config.h"
#include "obs/stat_registry.h"
#include "prefetch/factory.h"
#include "sim/campaign_presets.h"
#include "sim/campaign_store.h"
#include "sim/experiment.h"
#include "trace/champsim.h"
#include "trace/suite.h"
#include "util/fnv.h"

namespace fdip
{
namespace
{

constexpr std::size_t kInstsPerTrace = 60000;
constexpr double kWarmupFraction = 0.2;

struct FingerprintConfig
{
    std::string name;
    CoreConfig cfg;
    std::string prefetcher = "none";
};

std::vector<FingerprintConfig>
fingerprintConfigs()
{
    std::vector<FingerprintConfig> out;
    const auto add = [&](const std::string &name, CoreConfig cfg,
                         const std::string &prefetcher = "none") {
        cfg.applyHistoryScheme();
        out.push_back({name, cfg, prefetcher});
    };
    for (HistoryScheme s :
         {HistoryScheme::kThr, HistoryScheme::kGhr0, HistoryScheme::kGhr1,
          HistoryScheme::kGhr2, HistoryScheme::kGhr3,
          HistoryScheme::kIdeal}) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.historyScheme = s;
        add(std::string("history-") + historySchemeName(s), cfg);
    }
    for (unsigned kb : {9u, 36u}) {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.tageKilobytes = kb;
        add("tage-" + std::to_string(kb) + "kb", cfg);
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.direction = DirectionPredictorKind::kGshare;
        add("gshare", cfg);
        cfg.bpu.direction = DirectionPredictorKind::kPerceptron;
        add("perceptron", cfg);
    }
    add("no-fdp", noFdpConfig());
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.pfcEnabled = false;
        add("pfc-off", cfg);
    }
    add("two-level-btb", twoLevelBtbConfig());
    add("eip-128", paperBaselineConfig(), "eip-128");
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.ftqEntries = 64;
        add("ftq-64", cfg);
    }
    return out;
}

/** Ordered key -> 16-digit hex value table that one golden pins. */
using GoldenTable = std::vector<std::pair<std::string, std::string>>;

GoldenTable
computeFingerprint()
{
    const std::vector<SuiteEntry> suite =
        buildStandardSuite(kInstsPerTrace, /*small=*/true);
    GoldenTable fp;
    for (const FingerprintConfig &c : fingerprintConfigs()) {
        const std::string pf = c.prefetcher;
        const PrefetcherFactory make = [pf](const Trace &) {
            return makePrefetcher(pf);
        };
        for (const SuiteEntry &entry : suite) {
            const RunResult r = runOne(c.cfg, entry, make, kWarmupFraction);
            fp.emplace_back(c.name + "/" + entry.name,
                            toHex16(architecturalChecksum(r.stats)));
        }
    }
    return fp;
}

/**
 * The spool's content addresses: traceDigest of each small-suite trace
 * and of the first one round-tripped through the ChampSim exporter and
 * importer, then every manifest hash of the smoke and prefetchers
 * presets over the small suite.
 */
GoldenTable
computeContentAddresses()
{
    const std::vector<SuiteEntry> suite =
        buildStandardSuite(kInstsPerTrace, /*small=*/true);
    GoldenTable out;
    for (const SuiteEntry &entry : suite)
        out.emplace_back("trace/" + entry.name,
                         toHex16(traceDigest(entry)));

    const std::string path =
        std::string(::testing::TempDir()) + "/content_address.champsim";
    SuiteEntry imported;
    imported.name = "champsim-" + suite.front().name;
    EXPECT_TRUE(writeChampSimTrace(path, suite.front().trace));
    EXPECT_TRUE(readChampSimTrace(path, 0, imported.trace));
    std::remove(path.c_str());
    out.emplace_back("trace/" + imported.name,
                     toHex16(traceDigest(imported)));

    for (const char *campaign : {"smoke", "prefetchers"}) {
        const std::vector<CampaignEntry> entries =
            buildCampaignEntries(campaign);
        for (const ManifestEntry &m :
             buildManifest(entries, suite, kWarmupFraction)) {
            out.emplace_back(std::string("manifest/") + campaign + "/" +
                                 entries[m.entryIdx].label + "/" +
                                 suite[m.workloadIdx].name,
                             m.hash);
        }
    }
    return out;
}

std::string
goldenJson(const char *format, const char *table_name,
           const GoldenTable &table)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"format\": \"" << format << "\",\n"
        << "  \"insts_per_trace\": " << kInstsPerTrace << ",\n"
        << "  \"warmup_fraction\": " << kWarmupFraction << ",\n"
        << "  \"" << table_name << "\": {\n";
    for (std::size_t i = 0; i < table.size(); ++i) {
        out << "    \"" << table[i].first << "\": \"" << table[i].second
            << "\"" << (i + 1 < table.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    return out.str();
}

/** The "key/...": "hex" lines of a golden JSON document. */
std::map<std::string, std::string>
parseTable(const std::string &json)
{
    std::map<std::string, std::string> out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t k0 = line.find('"');
        const std::size_t k1 = line.find("\": \"", k0 + 1);
        if (k0 == std::string::npos || k1 == std::string::npos)
            continue;
        const std::string key = line.substr(k0 + 1, k1 - k0 - 1);
        const std::size_t v0 = k1 + 4;
        const std::size_t v1 = line.find('"', v0);
        if (key.find('/') != std::string::npos && v1 != std::string::npos)
            out[key] = line.substr(v0, v1 - v0);
    }
    return out;
}

/**
 * The names a spool record and a stats dump give the counters, for a
 * SimStats whose k-th counter holds k + 1. Returns one entry per
 * `"key": value` pair of the campaignRecordJson line (stored in
 * @p record_line) and per stat registerCoreSimStats registers, so a
 * renamed key, a moved value or a reordered checksum each name the
 * entry they move.
 */
GoldenTable
computeCounterNames(std::string *record_line)
{
    // The counters are SimStats' members before hostWallSeconds, in
    // table order, and SimStats is trivially copyable, so they can be
    // set as one block.
    static_assert(std::is_trivially_copyable_v<SimStats>);
    std::uint64_t counters[offsetof(SimStats, hostWallSeconds) /
                           sizeof(std::uint64_t)];
    for (std::size_t k = 0; k < std::size(counters); ++k)
        counters[k] = k + 1;
    CampaignRecord record;
    std::memcpy(static_cast<void *>(&record.stats), counters,
                sizeof(counters));
    record.stats.hostWallSeconds = 1.5;
    record.hash = "0123456789abcdef";
    record.label = "names";
    record.workload = "srv-a";
    record.prefetcher = "eip-128";
    record.configDigestHex = "fedcba9876543210";
    *record_line = campaignRecordJson(record);

    // The line's `"key": value` pairs; "stats" opens the nested object.
    GoldenTable out;
    const std::string &line = *record_line;
    for (std::size_t k0 = line.find('"'); k0 != std::string::npos;) {
        const std::size_t k1 = line.find("\": ", k0 + 1);
        std::size_t v0 = k1 + 3;
        if (line[v0] == '{') {
            k0 = line.find('"', v0);
            continue;
        }
        const bool quoted = line[v0] == '"';
        v0 += quoted ? 1 : 0;
        const std::size_t v1 =
            quoted ? line.find('"', v0) : line.find_first_of(",}", v0);
        out.emplace_back("record/" + line.substr(k0 + 1, k1 - k0 - 1),
                         line.substr(v0, v1 - v0));
        k0 = line.find('"', v1 + 1);
    }

    StatRegistry reg;
    registerCoreSimStats(reg, record.stats);
    for (const StatSample &s : reg.snapshot()) {
        char value[32];
        if (s.kind == StatKind::kCounter)
            std::snprintf(value, sizeof(value), "%llu",
                          static_cast<unsigned long long>(s.intValue));
        else
            std::snprintf(value, sizeof(value), "%.17g", s.value);
        out.emplace_back("stat/" + s.name, value);
    }
    return out;
}

/** The counter-names golden: the record line, JSON-escaped, then the
 *  entry table. */
std::string
counterNamesJson(const std::string &record_line, const GoldenTable &table)
{
    std::string escaped;
    for (char c : record_line.substr(0, record_line.find('\n'))) {
        if (c == '"' || c == '\\')
            escaped.push_back('\\');
        escaped.push_back(c);
    }
    std::ostringstream out;
    out << "{\n"
        << "  \"format\": \"fdip-counter-names-v1\",\n"
        << "  \"record\": \"" << escaped << "\",\n"
        << "  \"names\": {\n";
    for (std::size_t i = 0; i < table.size(); ++i) {
        out << "    \"" << table[i].first << "\": \"" << table[i].second
            << "\"" << (i + 1 < table.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    return out.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Fails unless @p json is byte-identical to tests/data/@p file. The
 * failure names every moved entry (@p what: what the table pins, @p
 * unit: what one entry is) and prints the JSON to commit; @p advice
 * says when committing it is right.
 */
void
expectMatchesGolden(const std::string &file, const GoldenTable &table,
                    const std::string &json, const char *what,
                    const char *unit, const char *advice)
{
    const std::string golden_path =
        std::string(FDIP_SOURCE_DIR) + "/tests/data/" + file;
    const std::string golden = readFile(golden_path);
    if (json == golden)
        return;

    const std::map<std::string, std::string> want = parseTable(golden);
    const std::map<std::string, std::string> got(table.begin(),
                                                 table.end());
    std::ostringstream moved;
    std::size_t n_moved = 0;
    for (const auto &[key, hex] : got) {
        const auto it = want.find(key);
        if (it == want.end() || it->second != hex) {
            moved << "  " << key << ": golden "
                  << (it == want.end() ? "(none)" : it->second) << ", now "
                  << hex << "\n";
            ++n_moved;
        }
    }
    for (const auto &[key, hex] : want) {
        if (got.count(key) == 0) {
            moved << "  " << key << ": golden " << hex
                  << ", now not computed\n";
            ++n_moved;
        }
    }
    ADD_FAILURE() << golden_path << " ("
                  << (golden.empty() ? "missing or empty" : "stale")
                  << ") does not match the " << what << "; " << n_moved
                  << " " << unit << " moved:\n"
                  << moved.str() << advice << ", commit this as "
                  << golden_path << ":\n"
                  << json;
}

TEST(ArchFingerprint, MatchesTheCommittedGolden)
{
    const GoldenTable fp = computeFingerprint();
    expectMatchesGolden(
        "arch_fingerprint.golden.json", fp,
        goldenJson("fdip-arch-fingerprint-v1", "checksums", fp),
        "architectural fingerprint", "(config, trace) pair(s)",
        "If the behaviour change is intended");
}

/**
 * Content addresses are the spool's cache keys: a digest that moves
 * turns every record spooled by an earlier build into a miss. A change
 * that means to move them bumps the "-v1" format tags the digests
 * start from.
 */
TEST(ContentAddress, MatchesTheCommittedGolden)
{
    const GoldenTable ca = computeContentAddresses();
    expectMatchesGolden(
        "content_address.golden.json", ca,
        goldenJson("fdip-content-address-v1", "digests", ca),
        "content addresses", "digest(s)",
        "If the format-version bump is intended");
}

/**
 * Record keys and `core.*` stat names are read by every spool and
 * every analysis script: a counter renamed or moved here strands them.
 */
TEST(CounterNames, MatchTheCommittedGolden)
{
    std::string record_line;
    const GoldenTable names = computeCounterNames(&record_line);
    expectMatchesGolden("counter_names.golden.json", names,
                        counterNamesJson(record_line, names),
                        "counter names", "name(s)",
                        "If the rename is intended and the spool record "
                        "version is bumped");
}

} // namespace
} // namespace fdip
