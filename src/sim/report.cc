#include "sim/report.h"

#include <cstdio>
#include <memory>

#include "core/core.h"
#include "obs/heartbeat.h"
#include "util/io.h"

namespace fdip
{

namespace
{

/**
 * Fallback stat dump for runs that carry only SimStats (campaign
 * cache hits, and `--campaign` runs generally, never snapshot a live
 * registry): synthesize the "core.*" subtree — all raw counters, the
 * cycle buckets, and the derived metrics — from the counters alone.
 * Subsystem trees (frontend.*, bpu.*, ...) need live components and
 * are necessarily absent here.
 */
std::vector<StatSample>
synthesizeStatDump(const SimStats &s)
{
    StatRegistry reg;
    registerCoreSimStats(reg, s);
    return reg.snapshot();
}

} // namespace

bool
writeSuiteResultsJson(const std::string &path,
                      const std::vector<SuiteResult> &results)
{
    FileHandle f(std::fopen(path.c_str(), "w"));
    if (!f)
        return false;
    std::fprintf(f.get(), "{\n  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SuiteResult &r = results[i];
        std::fprintf(f.get(),
                     "    {\"label\": \"%s\", \"geomeanIpc\": %.6f, "
                     "\"meanMpki\": %.4f, \"runs\": [\n",
                     jsonEscape(r.label).c_str(), r.geomeanIpc(),
                     r.meanMpki());
        for (std::size_t j = 0; j < r.runs.size(); ++j) {
            const RunResult &run = r.runs[j];
            const SimStats &s = run.stats;
            std::fprintf(
                f.get(),
                "      {\"workload\": \"%s\", \"ipc\": %.6f, "
                "\"mpki\": %.4f, \"starvationPerKi\": %.3f, "
                "\"tagAccessesPerKi\": %.3f, \"l1iMpki\": %.4f, "
                "\"pfcFires\": %llu, \"ghrFixups\": %llu",
                jsonEscape(run.workload).c_str(), s.ipc(), s.branchMpki(),
                s.starvationPerKi(), s.tagAccessesPerKi(), s.l1iMpki(),
                static_cast<unsigned long long>(s.pfcFires),
                static_cast<unsigned long long>(s.ghrFixups));
            std::fprintf(f.get(), ", \"cycleBuckets\": {");
            for (std::size_t b = 0; b < kCycleBucketCount; ++b)
                std::fprintf(f.get(), "%s\"%s\": %llu",
                             b == 0 ? "" : ", ", kCycleBucketName[b],
                             static_cast<unsigned long long>(
                                 s.*kCycleBucketField[b]));
            std::fprintf(f.get(), "}");
            if (!run.heartbeats.empty()) {
                std::fprintf(f.get(), ", \"heartbeats\": [");
                for (std::size_t k = 0; k < run.heartbeats.size(); ++k) {
                    std::string hb;
                    appendHeartbeatJson(hb, run.heartbeats[k]);
                    std::fprintf(f.get(), "%s%s",
                                 k == 0 ? "" : ", ", hb.c_str());
                }
                std::fprintf(f.get(), "]");
            }
            std::fprintf(f.get(), "}%s\n",
                         j + 1 < r.runs.size() ? "," : "");
        }
        std::fprintf(f.get(), "    ]}%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f.get(), "  ]\n}\n");
    return true;
}

bool
writeSuiteResultsCsv(const std::string &path,
                     const std::vector<SuiteResult> &results)
{
    FileHandle f(std::fopen(path.c_str(), "w"));
    if (!f)
        return false;
    // Cycle-accounting columns sit between the counter block and the
    // derived prefetch metrics; their names come from the bucket table
    // ("." -> "_", "cycles_" prefix) so the column set can never drift
    // from the buckets themselves.
    std::fprintf(f.get(),
                 "label,workload,ipc,mpki,starvation_per_ki,"
                 "tag_accesses_per_ki,l1i_mpki,pfc_fires,ghr_fixups,");
    for (std::size_t b = 0; b < kCycleBucketCount; ++b) {
        std::string col = std::string("cycles_") + kCycleBucketName[b];
        for (char &c : col)
            if (c == '.')
                c = '_';
        std::fprintf(f.get(), "%s,", col.c_str());
    }
    std::fprintf(f.get(), "prefetch_accuracy,prefetch_coverage,"
                          "prefetch_redundant_rate\n");
    for (const SuiteResult &r : results) {
        for (const RunResult &run : r.runs) {
            const SimStats &s = run.stats;
            std::fprintf(
                f.get(), "%s,%s,%.6f,%.4f,%.3f,%.3f,%.4f,%llu,%llu,",
                r.label.c_str(), run.workload.c_str(), s.ipc(),
                s.branchMpki(), s.starvationPerKi(),
                s.tagAccessesPerKi(), s.l1iMpki(),
                static_cast<unsigned long long>(s.pfcFires),
                static_cast<unsigned long long>(s.ghrFixups));
            for (std::size_t b = 0; b < kCycleBucketCount; ++b)
                std::fprintf(f.get(), "%llu,",
                             static_cast<unsigned long long>(
                                 s.*kCycleBucketField[b]));
            std::fprintf(f.get(), "%.4f,%.4f,%.4f\n",
                         s.prefetchAccuracy(), s.prefetchCoverage(),
                         s.prefetchRedundantRate());
        }
    }
    return true;
}

bool
writeHeartbeatsJsonl(const std::string &path,
                     const std::vector<SuiteResult> &results)
{
    FileHandle f(std::fopen(path.c_str(), "w"));
    if (!f)
        return false;
    for (const SuiteResult &r : results) {
        for (const RunResult &run : r.runs) {
            for (const HeartbeatSample &s : run.heartbeats) {
                std::string hb;
                appendHeartbeatJson(hb, s);
                std::fprintf(f.get(),
                             "{\"label\": \"%s\", \"workload\": \"%s\", "
                             "\"heartbeat\": %s}\n",
                             jsonEscape(r.label).c_str(),
                             jsonEscape(run.workload).c_str(), hb.c_str());
            }
        }
    }
    return true;
}

bool
writeStatDumpsJson(const std::string &path,
                   const std::vector<SuiteResult> &results)
{
    FileHandle f(std::fopen(path.c_str(), "w"));
    if (!f)
        return false;
    std::fprintf(f.get(), "{\n  \"results\": [\n");
    bool first_run = true;
    for (const SuiteResult &r : results) {
        for (const RunResult &run : r.runs) {
            std::fprintf(f.get(),
                         "%s    {\"label\": \"%s\", \"workload\": "
                         "\"%s\", \"stats\": {",
                         first_run ? "" : ",\n", jsonEscape(r.label).c_str(),
                         jsonEscape(run.workload).c_str());
            first_run = false;
            std::vector<StatSample> synth;
            if (run.statDump.empty())
                synth = synthesizeStatDump(run.stats);
            const std::vector<StatSample> &dump =
                run.statDump.empty() ? synth : run.statDump;
            for (std::size_t i = 0; i < dump.size(); ++i) {
                const StatSample &s = dump[i];
                if (s.kind == StatKind::kCounter)
                    std::fprintf(f.get(), "%s\"%s\": %llu",
                                 i == 0 ? "" : ", ",
                                 jsonEscape(s.name).c_str(),
                                 static_cast<unsigned long long>(
                                     s.intValue));
                else
                    std::fprintf(f.get(), "%s\"%s\": %.6f",
                                 i == 0 ? "" : ", ",
                                 jsonEscape(s.name).c_str(), s.value);
            }
            std::fprintf(f.get(), "}}");
        }
    }
    std::fprintf(f.get(), "\n  ]\n}\n");
    return true;
}

} // namespace fdip
