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
 * A deliberate behaviour change replaces the golden with the JSON this
 * test prints on a mismatch, and says why in the commit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/core_config.h"
#include "prefetch/factory.h"
#include "sim/campaign_store.h"
#include "sim/experiment.h"
#include "trace/suite.h"

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

/** "config/trace" -> 16-digit hex checksum, in run order. */
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

Fingerprint
computeFingerprint()
{
    const std::vector<SuiteEntry> suite =
        buildStandardSuite(kInstsPerTrace, /*small=*/true);
    Fingerprint fp;
    for (const FingerprintConfig &c : fingerprintConfigs()) {
        const std::string pf = c.prefetcher;
        const PrefetcherFactory make = [pf](const Trace &) {
            return makePrefetcher(pf);
        };
        for (const SuiteEntry &entry : suite) {
            const RunResult r = runOne(c.cfg, entry, make, kWarmupFraction);
            char hex[17];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(
                              architecturalChecksum(r.stats)));
            fp.emplace_back(c.name + "/" + entry.name, hex);
        }
    }
    return fp;
}

std::string
fingerprintJson(const Fingerprint &fp)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"format\": \"fdip-arch-fingerprint-v1\",\n"
        << "  \"insts_per_trace\": " << kInstsPerTrace << ",\n"
        << "  \"warmup_fraction\": " << kWarmupFraction << ",\n"
        << "  \"checksums\": {\n";
    for (std::size_t i = 0; i < fp.size(); ++i) {
        out << "    \"" << fp[i].first << "\": \"" << fp[i].second << "\""
            << (i + 1 < fp.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    return out.str();
}

/** The "config/trace": "hex" lines of a fingerprint JSON document. */
std::map<std::string, std::string>
parseChecksums(const std::string &json)
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(ArchFingerprint, MatchesTheCommittedGolden)
{
    const std::string golden_path = std::string(FDIP_SOURCE_DIR) +
                                    "/tests/data/" +
                                    "arch_fingerprint.golden.json";
    const std::string golden = readFile(golden_path);
    const Fingerprint fp = computeFingerprint();
    const std::string json = fingerprintJson(fp);
    if (json == golden)
        return;

    const std::map<std::string, std::string> want = parseChecksums(golden);
    const std::map<std::string, std::string> got(fp.begin(), fp.end());
    std::ostringstream moved;
    std::size_t n_moved = 0;
    for (const auto &[pair, hex] : got) {
        const auto it = want.find(pair);
        if (it == want.end() || it->second != hex) {
            moved << "  " << pair << ": golden "
                  << (it == want.end() ? "(none)" : it->second) << ", now "
                  << hex << "\n";
            ++n_moved;
        }
    }
    for (const auto &[pair, hex] : want) {
        if (got.count(pair) == 0) {
            moved << "  " << pair << ": golden " << hex
                  << ", now not run\n";
            ++n_moved;
        }
    }
    ADD_FAILURE() << "architectural fingerprint differs from "
                  << golden_path << " ("
                  << (golden.empty() ? "missing or empty" : "stale")
                  << "); " << n_moved << " (config, trace) pair(s) moved:\n"
                  << moved.str()
                  << "If the behaviour change is intended, commit this as "
                  << golden_path << ":\n"
                  << json;
}

} // namespace
} // namespace fdip
