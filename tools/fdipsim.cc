/**
 * @file
 * The fdipsim command-line driver: run any frontend configuration over
 * the synthetic suite, a single workload class, or an imported
 * ChampSim trace, with optional JSON/CSV reports.
 *
 * Run `fdipsim --help` for the full flag list.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "check/certify.h"
#include "prefetch/factory.h"
#include "sim/campaign_presets.h"
#include "sim/campaign_store.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "trace/champsim.h"
#include "util/log.h"
#include "util/table.h"

namespace
{

using namespace fdip;

struct Options
{
    std::string workload = "suite-small";
    std::uint64_t seed = 1;
    std::size_t insts = 1000000;
    double warmupFrac = 0.2;
    std::string prefetcher = "none";
    std::string champsimTrace;
    std::string jsonPath;
    std::string csvPath;
    std::string heartbeatJsonlPath;
    std::string dumpStatsPath;
    bool compareBaseline = false;
    CoreConfig cfg = paperBaselineConfig();

    /** The first flag given that only configures a single run. */
    std::string singleRunFlag;
    /** The first flag given that only configures a campaign. */
    std::string campaignFlag;

    // Campaign mode (see sim/campaign_store.h).
    std::string campaign;
    std::string spoolDir;
    unsigned jobs = 0;
    bool resume = false;
    bool merge = false;
};

void
usage()
{
    std::printf(
        "usage: fdipsim [options]\n"
        "\n"
        "workload selection:\n"
        "  --workload W       srv | clt | spec | suite-small | suite\n"
        "  --seed N           workload seed (default 1)\n"
        "  --insts N          dynamic instructions per trace (1e6)\n"
        "  --warmup-frac F    warmup fraction (0.2)\n"
        "  --champsim-trace P import a ChampSim trace instead\n"
        "\n"
        "frontend configuration:\n"
        "  --ftq N            FTQ entries (24; 2 disables FDP)\n"
        "  --btb N            BTB entries (8192)\n"
        "  --scheme S         thr|ghr0|ghr1|ghr2|ghr3|ideal (thr)\n"
        "  --pfc on|off       post-fetch correction (on)\n"
        "  --dirpred P        tage9|tage18|tage36|gshare|perceptron|"
        "perfect\n"
        "  --prefetcher P     none|nl1|fnl+mma|d-jolt|eip-27|eip-128|"
        "rdip|sn4l+dis|sn4l+dis+btb\n"
        "  --two-level-btb    enable the L1/L2 BTB hierarchy\n"
        "  --loop-predictor   enable the loop-exit predictor\n"
        "  --prefetch-buffer  put the L1I prefetcher's fills in a side "
        "buffer, not the L1I\n"
        "                     (needs --prefetcher other than none)\n"
        "  --perfect-icache   every L1I access hits\n"
        "  --perfect-prefetch instantaneous prefetching (with traffic)\n"
        "  --perfect-btb      oracle branch detection\n"
        "\n"
        "campaign mode (sharded, resumable, content-addressed; see\n"
        "docs/CAMPAIGN.md — env: FDIP_SPOOL, FDIP_JOBS):\n"
        "  --campaign NAME    drain a named campaign through a spool:\n"
        "                     prefetchers | ftq | history |\n"
        "                     stall_accounting | smoke\n"
        "  --spool DIR        spool directory (default: $FDIP_SPOOL)\n"
        "  --resume           reclaim claims left by dead local workers\n"
        "  --merge            assemble + verify the report from spool\n"
        "                     records only (no simulation); exit 1 if\n"
        "                     any manifest entry lacks a record\n"
        "  --jobs N           worker threads for --campaign (FDIP_JOBS)\n"
        "  Campaign workloads come from --workload suite|suite-small,\n"
        "  --insts, and --warmup-frac; reports from --json/--csv,\n"
        "  --heartbeat-jsonl and --dump-stats. The preset fixes the\n"
        "  configs, so the single-run flags (--seed, the config flags,\n"
        "  --compare-baseline, --heartbeat, --profile, --trace) are\n"
        "  refused; set observability through the env instead.\n"
        "  Without --campaign or --merge, --spool, --resume and --jobs\n"
        "  are refused.\n"
        "\n"
        "output:\n"
        "  --compare-baseline also run the no-FDP baseline\n"
        "  --json PATH        write a JSON report\n"
        "  --csv PATH         write a CSV report\n"
        "  --certify          print the iso-storage budget certificate\n"
        "                     (JSON) and exit; status 1 if over budget\n"
        "\n"
        "observability (env: FDIP_HEARTBEAT, FDIP_TRACE, "
        "FDIP_PROFILE):\n"
        "  --heartbeat N      sample telemetry every N committed "
        "instructions\n"
        "  --profile N        sample host tick-phase timings every N "
        "ticks and print the phase breakdown (host telemetry only; "
        "architecturally invisible)\n"
        "  --heartbeat-jsonl P write heartbeat samples as JSON Lines\n"
        "  --trace PATH       write a Chrome trace-event file "
        "(chrome://tracing, Perfetto); used verbatim for a single "
        "run, label/workload woven in otherwise\n"
        "  --dump-stats PATH  write the full stat-registry snapshot "
        "per run\n");
}

HistoryScheme
parseScheme(const std::string &s)
{
    if (s == "thr")
        return HistoryScheme::kThr;
    if (s == "ghr0")
        return HistoryScheme::kGhr0;
    if (s == "ghr1")
        return HistoryScheme::kGhr1;
    if (s == "ghr2")
        return HistoryScheme::kGhr2;
    if (s == "ghr3")
        return HistoryScheme::kGhr3;
    if (s == "ideal")
        return HistoryScheme::kIdeal;
    fdip_fatal("unknown history scheme '%s'", s.c_str());
}

void
parseDirPred(const std::string &s, CoreConfig &cfg)
{
    if (s == "tage9" || s == "tage18" || s == "tage36") {
        cfg.bpu.direction = DirectionPredictorKind::kTage;
        cfg.bpu.tageKilobytes =
            static_cast<unsigned>(std::atoi(s.c_str() + 4));
    } else if (s == "gshare") {
        cfg.bpu.direction = DirectionPredictorKind::kGshare;
    } else if (s == "perceptron") {
        cfg.bpu.direction = DirectionPredictorKind::kPerceptron;
    } else if (s == "perfect") {
        cfg.bpu.direction = DirectionPredictorKind::kPerfect;
    } else {
        fdip_fatal("unknown direction predictor '%s'", s.c_str());
    }
}

/** Flags that configure the single run; a campaign runs its preset's
 *  configs over the standard suite, so it would ignore them. */
constexpr std::string_view kSingleRunFlags[] = {
    "--seed", "--champsim-trace", "--ftq", "--btb", "--scheme", "--pfc",
    "--dirpred", "--prefetcher", "--two-level-btb", "--loop-predictor",
    "--prefetch-buffer", "--perfect-icache", "--perfect-prefetch",
    "--perfect-btb", "--compare-baseline", "--heartbeat", "--profile",
    "--trace",
};

/** Flags that configure a campaign's drain; a single run would
 *  ignore them. */
constexpr std::string_view kCampaignFlags[] = {"--spool", "--jobs",
                                               "--resume"};

/**
 * The value of numeric flag @p flag. The whole of @p text must be one
 * unsigned decimal number, with no sign or space, in [lo, hi] for an
 * integer flag or in [lo, hi) for a fractional one; anything else is
 * refused with one line, exit 1.
 */
template <typename T>
T
parseNumber(const std::string &flag, const char *text, T lo,
            T hi = std::numeric_limits<T>::max())
{
    const bool unsigned_token =
        std::isdigit(static_cast<unsigned char>(text[0])) != 0 ||
        (std::is_floating_point_v<T> && text[0] == '.');
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_floating_point_v<T>) {
        const double v = std::strtod(text, &end);
        if (!unsigned_token || *end != '\0' || errno != 0 || !(v >= lo) ||
            !(v < hi)) {
            fdip_fatal("%s wants a number in [%g, %g), not '%s'",
                       flag.c_str(), lo, hi, text);
        }
        return v;
    } else {
        const unsigned long long v = std::strtoull(text, &end, 10);
        if (!unsigned_token || *end != '\0' || errno != 0 || v < lo ||
            v > hi) {
            fdip_fatal("%s wants an integer in [%llu, %llu], not '%s'",
                       flag.c_str(), static_cast<unsigned long long>(lo),
                       static_cast<unsigned long long>(hi), text);
        }
        return static_cast<T>(v);
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fdip_fatal("flag %s needs a value", argv[i]);
        return argv[++i];
    };
    // Keeps the first flag of @p flags given, for main's mode checks.
    const auto note = [](const std::string &a, const auto &flags,
                         std::string &first) {
        if (first.empty() && std::find(std::begin(flags), std::end(flags),
                                       a) != std::end(flags)) {
            first = a;
        }
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        note(a, kSingleRunFlags, opt.singleRunFlag);
        note(a, kCampaignFlags, opt.campaignFlag);
        if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else if (a == "--certify") {
            // Pure static analysis: no workload is run, so act
            // immediately like --help does.
            std::fputs(budgetCertificateJson().c_str(), stdout);
            std::exit(budgetCertificateOk() ? 0 : 1);
        } else if (a == "--workload") {
            opt.workload = need(i);
        } else if (a == "--seed") {
            opt.seed = parseNumber<std::uint64_t>(a, need(i), 0);
        } else if (a == "--insts") {
            opt.insts = parseNumber<std::size_t>(a, need(i), 1);
        } else if (a == "--warmup-frac") {
            opt.warmupFrac = parseNumber(a, need(i), 0.0, 1.0);
        } else if (a == "--champsim-trace") {
            opt.champsimTrace = need(i);
        } else if (a == "--ftq") {
            // checkCoreConfig's floor: 2 entries is the no-FDP FTQ.
            opt.cfg.ftqEntries = parseNumber(a, need(i), 2u);
        } else if (a == "--btb") {
            opt.cfg.bpu.btb.numEntries = parseNumber(a, need(i), 0u);
        } else if (a == "--scheme") {
            opt.cfg.historyScheme = parseScheme(need(i));
        } else if (a == "--pfc") {
            opt.cfg.pfcEnabled = std::strcmp(need(i), "off") != 0;
        } else if (a == "--dirpred") {
            parseDirPred(need(i), opt.cfg);
        } else if (a == "--prefetcher") {
            opt.prefetcher = need(i);
        } else if (a == "--two-level-btb") {
            opt.cfg.bpu.btbHierarchy.enabled = true;
        } else if (a == "--loop-predictor") {
            opt.cfg.bpu.useLoopPredictor = true;
        } else if (a == "--prefetch-buffer") {
            opt.cfg.usePrefetchBuffer = true;
        } else if (a == "--perfect-icache") {
            opt.cfg.perfectICache = true;
        } else if (a == "--perfect-prefetch") {
            opt.cfg.perfectPrefetch = true;
        } else if (a == "--perfect-btb") {
            opt.cfg.bpu.perfectBtb = true;
        } else if (a == "--campaign") {
            opt.campaign = need(i);
        } else if (a == "--spool") {
            opt.spoolDir = need(i);
        } else if (a == "--resume") {
            opt.resume = true;
        } else if (a == "--merge") {
            opt.merge = true;
        } else if (a == "--jobs") {
            opt.jobs = parseNumber(a, need(i), 1u, kMaxJobs);
        } else if (a == "--compare-baseline") {
            opt.compareBaseline = true;
        } else if (a == "--json") {
            opt.jsonPath = need(i);
        } else if (a == "--csv") {
            opt.csvPath = need(i);
        } else if (a == "--heartbeat") {
            opt.cfg.obs.heartbeatInterval =
                parseNumber<std::uint64_t>(a, need(i), 0);
        } else if (a == "--profile") {
            opt.cfg.obs.profileInterval =
                parseNumber<std::uint64_t>(a, need(i), 0);
        } else if (a == "--heartbeat-jsonl") {
            opt.heartbeatJsonlPath = need(i);
        } else if (a == "--trace") {
            opt.cfg.obs.tracePath = need(i);
        } else if (a == "--dump-stats") {
            opt.dumpStatsPath = need(i);
            opt.cfg.obs.collectStats = true;
        } else {
            usage();
            fdip_fatal("unknown flag '%s'", a.c_str());
        }
    }
    return opt;
}

std::vector<SuiteEntry>
buildInputs(const Options &opt)
{
    std::vector<SuiteEntry> suite;
    if (!opt.champsimTrace.empty()) {
        SuiteEntry e;
        e.name = opt.champsimTrace;
        if (!readChampSimTrace(opt.champsimTrace, opt.insts, e.trace))
            fdip_fatal("cannot import '%s'", opt.champsimTrace.c_str());
        suite.push_back(std::move(e));
        return suite;
    }
    if (opt.workload == "suite" || opt.workload == "suite-small")
        return buildStandardSuite(opt.insts,
                                  opt.workload == "suite-small");

    WorkloadSpec spec =
        opt.workload == "clt"
            ? clientSpec("clt", opt.seed)
            : opt.workload == "spec" ? specCpuSpec("spec", opt.seed)
                                     : serverSpec("srv", opt.seed);
    if (opt.workload != "srv" && opt.workload != "clt" &&
        opt.workload != "spec") {
        fdip_fatal("unknown workload '%s'", opt.workload.c_str());
    }
    auto wl = std::make_shared<Workload>(buildWorkload(spec));
    SuiteEntry e;
    e.name = opt.workload;
    e.trace = generateTrace(wl, opt.insts);
    suite.push_back(std::move(e));
    return suite;
}

/**
 * `fdipsim --campaign`: drains (or, with --merge, assembles) a named
 * campaign through the content-addressed spool. Exit status 0 only
 * when every manifest entry ended with a verified record.
 */
int
campaignMain(const Options &opt)
{
    if (opt.workload != "suite" && opt.workload != "suite-small") {
        fdip_fatal("--campaign needs --workload suite|suite-small, "
                   "not '%s'",
                   opt.workload.c_str());
    }
    const std::vector<CampaignEntry> entries =
        buildCampaignEntries(opt.campaign);
    const std::vector<SuiteEntry> suite =
        buildStandardSuite(opt.insts, opt.workload == "suite-small");
    const std::string spool =
        opt.spoolDir.empty() ? spoolFromEnv() : opt.spoolDir;

    SpoolSummary summary;
    std::vector<SuiteResult> results;
    std::string merge_error;
    if (opt.merge) {
        mergeCampaignSpool(entries, suite, spool, opt.warmupFrac,
                           &results, &summary, &merge_error);
    } else {
        SpoolOptions options;
        options.spoolDir = spool;
        options.warmupFraction = opt.warmupFrac;
        options.jobs = opt.jobs;
        options.reclaimDeadClaims = opt.resume;
        results = runCampaignSpooled(entries, suite, options, &summary);
    }

    std::printf("campaign '%s': %zu runs, %zu simulated, %zu cached, "
                "%zu claimed elsewhere, %zu reclaimed, %zu quarantined, "
                "%s\n",
                opt.campaign.c_str(), summary.totalRuns,
                summary.simulated, summary.cacheHits,
                summary.claimedElsewhere, summary.reclaimed,
                summary.quarantined,
                summary.complete ? "complete" : "incomplete");
    if (!summary.complete) {
        std::fprintf(stderr, "campaign: incomplete%s%s\n",
                     merge_error.empty() ? "" : ": ",
                     merge_error.c_str());
        return 1;
    }

    if (!opt.jsonPath.empty() &&
        !writeSuiteResultsJson(opt.jsonPath, results)) {
        fdip_fatal("cannot write %s", opt.jsonPath.c_str());
    }
    if (!opt.csvPath.empty() &&
        !writeSuiteResultsCsv(opt.csvPath, results)) {
        fdip_fatal("cannot write %s", opt.csvPath.c_str());
    }
    // Cache-hit runs carry only counters (no heartbeats, no registry
    // snapshot); writeStatDumpsJson synthesizes the core.* dump from
    // SimStats, so a fully-cached campaign still yields a complete
    // per-run stats file.
    if (!opt.heartbeatJsonlPath.empty() &&
        !writeHeartbeatsJsonl(opt.heartbeatJsonlPath, results)) {
        fdip_fatal("cannot write %s", opt.heartbeatJsonlPath.c_str());
    }
    if (!opt.dumpStatsPath.empty() &&
        !writeStatDumpsJson(opt.dumpStatsPath, results)) {
        fdip_fatal("cannot write %s", opt.dumpStatsPath.c_str());
    }
    return 0;
}

/** Prints the merged host tick-phase breakdown of @p results. */
void
printHostProfile(const std::vector<SuiteResult> &results)
{
    TickProfile merged;
    for (const SuiteResult &r : results)
        for (const RunResult &run : r.runs)
            merged.merge(run.hostPhases);
    if (merged.sampledTicks == 0)
        return;
    std::printf("\nhost tick-phase profile (every %llu ticks, "
                "%llu of %llu sampled):\n",
                static_cast<unsigned long long>(merged.interval),
                static_cast<unsigned long long>(merged.sampledTicks),
                static_cast<unsigned long long>(merged.totalTicks));
    TextTable t({"phase", "share", "ns/sampled-tick"});
    for (std::size_t i = 0; i < kTickPhaseCount; ++i) {
        const auto phase = static_cast<TickPhase>(i);
        t.addRow({kTickPhaseName[i],
                  TextTable::num(100.0 * merged.fraction(phase), 1) +
                      "%",
                  TextTable::num(
                      static_cast<double>(merged.exclusiveNs(phase)) /
                          static_cast<double>(merged.sampledTicks),
                      1)});
    }
    t.print();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (!opt.campaign.empty() || opt.merge) {
        if (!opt.singleRunFlag.empty()) {
            fdip_fatal("%s does not apply to --campaign, which runs its "
                       "preset's configs",
                       opt.singleRunFlag.c_str());
        }
        return campaignMain(opt);
    }
    if (!opt.campaignFlag.empty())
        fdip_fatal("%s applies only to --campaign", opt.campaignFlag.c_str());
    // Only an L1I prefetcher's fills go to the buffer (the FTQ's are
    // demand fills), so without one it would stay empty.
    if (opt.cfg.usePrefetchBuffer && opt.prefetcher == "none")
        fdip_fatal("--prefetch-buffer needs --prefetcher other than none");
    const auto suite = buildInputs(opt);

    // With one run there is nothing to clobber, so honor the trace
    // path verbatim; campaigns get label/workload woven in.
    opt.cfg.obs.traceExactPath =
        suite.size() == 1 && !opt.compareBaseline;

    std::vector<SuiteResult> results;
    results.push_back(runSuite(
        "config", opt.cfg, suite,
        [&](const Trace &) { return makePrefetcher(opt.prefetcher); },
        opt.warmupFrac));
    if (opt.compareBaseline) {
        CoreConfig base = noFdpConfig();
        base.obs = opt.cfg.obs;
        results.push_back(runSuite("baseline", base, suite,
                                   noPrefetcher(), opt.warmupFrac));
    }

    TextTable t({"result", "workload", "IPC", "MPKI", "starv/KI",
                 "tags/KI"});
    for (const auto &r : results) {
        for (const auto &run : r.runs) {
            t.addRow({r.label, run.workload,
                      TextTable::num(run.stats.ipc(), 3),
                      TextTable::num(run.stats.branchMpki()),
                      TextTable::num(run.stats.starvationPerKi(), 1),
                      TextTable::num(run.stats.tagAccessesPerKi(), 1)});
        }
    }
    t.print();
    printHostProfile(results);
    std::printf("\ngeomean IPC: %.3f\n", results[0].geomeanIpc());
    if (opt.compareBaseline) {
        std::printf("speedup over no-FDP baseline: %+.1f%%\n",
                    100.0 * (results[0].speedupOver(results[1]) - 1.0));
    }

    if (!opt.jsonPath.empty() &&
        !writeSuiteResultsJson(opt.jsonPath, results)) {
        fdip_fatal("cannot write %s", opt.jsonPath.c_str());
    }
    if (!opt.csvPath.empty() &&
        !writeSuiteResultsCsv(opt.csvPath, results)) {
        fdip_fatal("cannot write %s", opt.csvPath.c_str());
    }
    if (!opt.heartbeatJsonlPath.empty() &&
        !writeHeartbeatsJsonl(opt.heartbeatJsonlPath, results)) {
        fdip_fatal("cannot write %s", opt.heartbeatJsonlPath.c_str());
    }
    if (!opt.dumpStatsPath.empty() &&
        !writeStatDumpsJson(opt.dumpStatsPath, results)) {
        fdip_fatal("cannot write %s", opt.dumpStatsPath.c_str());
    }
    return 0;
}
