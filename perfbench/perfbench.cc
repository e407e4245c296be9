/**
 * @file
 * fdip_perfbench: the workload program behind perfbench/run.py.
 *
 *   fdip_perfbench --workload fdp-server|eip-client|campaign
 *                  --seed N --seconds S --trace 0|1 [--insts N]
 *                  [--out DIR] [--inject KIND]
 *
 * Builds its traces from the workload seed, sets up several times
 * (set-up time is the median), runs a closed loop of simulations for
 * --seconds, checks every result, and prints one JSON object as the
 * last line of stdout: {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics from a separate traced run and writes its spans
 * as Chrome trace-event JSON under --out. See perfbench/README.md.
 */

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "core/core.h"
#include "core/core_config.h"
#include "layers.h"
#include "obs/cycle_account.h"
#include "prefetch/factory.h"
#include "sim/campaign_presets.h"
#include "sim/campaign_store.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "spans.h"
#include "trace/trace_gen.h"
#include "trace/workload.h"
#include "util/stats.h"

namespace perfbench
{
namespace
{

using namespace fdip;

constexpr double kWarmupFraction = 0.2;
/** Host tick-profiler sampling interval in the traced run. */
constexpr std::uint64_t kProfileInterval = 64;
/** Worker threads of the campaign drain (half of a 4-vCPU host). */
constexpr const char *kCampaignJobs = "2";
/** How often the campaign samples host speed while a pass runs. */
constexpr std::chrono::milliseconds kSamplePeriod{200};
/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetups = 5;
/** Simulations per trace, at least, whatever --seconds says. */
constexpr unsigned kMinPasses = 2;
/** Passes the traced run makes at least; each simulates every trace
 *  plain and then profiled (obs.trace_overhead_frac compares the two). */
constexpr unsigned kTracedPasses = 1;

// ---------------------------------------------------------------------
// Options and workload definitions.

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::size_t insts = 0; ///< Instructions per trace; 0 = default.
    std::string outDir = ".bench_build/perfbench-out";
    std::string inject; ///< "", "tamper-record" or "checksum-mismatch".
};

/** Trace classes, numbered as the workload seeds are (class*100+seed,
 *  so seed 1 gives buildStandardSuite's 101/201/301). */
enum TraceClass : unsigned
{
    kServer = 1,
    kClient = 2,
    kSpecCpu = 3,
};

struct WorkloadDef
{
    const char *name;
    std::size_t defaultInsts; ///< Per trace.
    /** Trace classes simulated, and programs drawn per class. */
    std::vector<TraceClass> classes;
    unsigned programsPerClass;
    /** Single-run workloads: the L1I prefetcher. The campaign runs the
     *  `prefetchers` preset instead. */
    const char *prefetcher;
    bool campaign;
};

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"fdp-server", 300000, {kServer}, 20, "none", false},
        {"eip-client", 300000, {kClient}, 20, "eip-128", false},
        {"campaign", 100000, {kServer, kClient, kSpecCpu}, 5, "", true},
    };
    return defs;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "fdip_perfbench: %s\n"
                 "usage: fdip_perfbench --workload fdp-server|eip-client|"
                 "campaign --seed N --seconds S --trace 0|1\n"
                 "       [--insts N] [--out DIR]\n"
                 "       [--inject tamper-record|checksum-mismatch]\n",
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0' || *v == '-')
        usage(flag + " wants a non-negative integer, got '" + v + "'");
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *v = argv[++i];
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(flag, v);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseUnsigned(flag, v));
        } else if (flag == "--trace") {
            o.trace = parseUnsigned(flag, v) != 0;
        } else if (flag == "--insts") {
            o.insts = parseUnsigned(flag, v);
        } else if (flag == "--out") {
            o.outDir = v;
        } else if (flag == "--inject") {
            o.inject = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (o.insts != 0 && o.insts < 10000)
        usage("--insts must be at least 10000");
    if (!o.inject.empty() && o.inject != "tamper-record" &&
        o.inject != "checksum-mismatch")
        usage("unknown --inject kind '" + o.inject + "'");
    return o;
}

/** Program @p j of class @p cls: generator seed 100*cls + seed +
 *  1000*j, so program 0 of seed 1 is buildStandardSuite's trace. */
WorkloadSpec
specFor(TraceClass cls, std::uint64_t seed, unsigned j)
{
    const std::uint64_t s =
        100 * static_cast<std::uint64_t>(cls) + seed + 1000 * j;
    const std::string n = std::to_string(j);
    switch (cls) {
    case kServer:
        return serverSpec("srv" + n, s);
    case kClient:
        return clientSpec("clt" + n, s);
    case kSpecCpu:
    default:
        return specCpuSpec("spec" + n, s);
    }
}

// ---------------------------------------------------------------------
// Output: operations, checksums, metrics.

/** Counts operations (one per simulation and per re-drained record)
 *  and prints one line for each, so a crash leaves a count behind. */
class Ops
{
  public:
    void
    record(bool ok, const std::string &what, const std::string &why = {})
    {
        ++attempted_;
        if (!ok)
            ++failed_;
        std::printf("op %s %s%s%s\n", ok ? "ok" : "FAILED", what.c_str(),
                    why.empty() ? "" : ": ", why.c_str());
        std::fflush(stdout);
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value))
            value = 0.0;
        list_.push_back({name, value, unit});
    }
    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < list_.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%.10g", list_[i].value);
            out += (i == 0 ? "\"" : ", \"") + list_[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   list_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    std::vector<Metric> list_;
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Prints the checksum of one (config, workload) pair. */
void
printChecksum(const std::string &config, const std::string &workload,
              std::uint64_t checksum)
{
    std::printf("checksum %s %s %s\n", config.c_str(), workload.c_str(),
                hex16(checksum).c_str());
}

/** The output checks every simulation must pass; empty when it does. */
std::string
checkStats(const SimStats &s)
{
    if (s.cycleBucketSum() != s.cycles)
        return "cycle buckets sum to " + std::to_string(s.cycleBucketSum()) +
               ", cycles " + std::to_string(s.cycles);
    if (s.stallCycleSum() != s.starvationCycles)
        return "stall buckets sum to " + std::to_string(s.stallCycleSum()) +
               ", starvation cycles " + std::to_string(s.starvationCycles);
    if (s.committedInsts == 0 || s.cycles == 0)
        return "empty run";
    return {};
}

// ---------------------------------------------------------------------
// Host descriptor and pinned environment.

/** Sets or clears every FDIP_* knob that changes what is measured, so
 *  the caller's environment cannot: no profiler, heartbeat, trace
 *  file, spool or suite override, and two campaign workers (read back
 *  through jobsFromEnv, as the benches do). */
void
pinEnvironment()
{
    for (const char *name : {"FDIP_PROFILE", "FDIP_HEARTBEAT", "FDIP_TRACE",
                             "FDIP_SPOOL", "FDIP_SIM_INSTRS", "FDIP_SUITE"})
        ::unsetenv(name);
    ::setenv("FDIP_JOBS", kCampaignJobs, 1);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out + "\"";
}

/** The CPU's brand string, read with CPUID (x86 only). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = 0;
    unsigned unused = 0;
    if (__get_cpuid(0x80000000u, &max_leaf, &unused, &unused, &unused) &&
        max_leaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[sizeof(regs) + 1] = {};
        std::memcpy(brand, regs, sizeof(regs));
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

std::string
hostDescriptor()
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"fdip_checks\": " << FDIP_ENABLE_CHECKS
       << ", \"fdip_tracing\": " << FDIP_ENABLE_TRACING
       << ", \"campaign_jobs\": " << jobsFromEnv(1) << "}";
    return os.str();
}

double
peakRssMiB()
{
    struct rusage ru
    {
    };
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

// ---------------------------------------------------------------------
// Host-speed normalization (calibrate.h).

/** One timed simulation (or set-up) and the calibration kernel's time
 *  measured right before it. */
struct Timed
{
    double seconds;
    double calibration;
};

/**
 * Host-speed-normalized total of @p v: each time scaled by
 * kReferenceKernelSeconds over the calibration next to it, i.e. the
 * time it would have taken on a host running the kernel in the
 * reference time.
 */
double
normalizedSeconds(const std::vector<Timed> &v)
{
    double total = 0;
    for (const Timed &t : v)
        total += t.calibration > 0
                     ? t.seconds * kReferenceKernelSeconds / t.calibration
                     : t.seconds;
    return total;
}

// ---------------------------------------------------------------------
// Set-up: workload synthesis and trace generation.

struct SetupTimes
{
    /** Each set-up's steps (one per trace, and the manifest build on
     *  campaign), each with the calibration timed right before it. */
    std::vector<std::vector<Timed>> setups;
    std::vector<double> buildMs;      ///< Per buildWorkload call.
    std::vector<double> genNsPerInst; ///< Per generated instruction.
    std::vector<double> manifestMs;   ///< Campaign only.
};

/** setup_s: the median set-up time, each step normalized for host
 *  speed like a simulation (the measured median is printed beside it). */
void
addSetupMetric(Metrics &m, const SetupTimes &setup)
{
    std::vector<double> measured;
    std::vector<double> normalized;
    for (const std::vector<Timed> &steps : setup.setups) {
        double sum = 0;
        for (const Timed &t : steps)
            sum += t.seconds;
        measured.push_back(sum);
        normalized.push_back(normalizedSeconds(steps));
    }
    std::printf("unnormalized setup_s %.10g s\n", median(measured));
    m.add("setup_s", median(normalized), "s");
}

std::size_t
traceCount(const WorkloadDef &def)
{
    return def.programsPerClass * def.classes.size();
}

/** Builds trace @p n of the workload: programsPerClass of each class,
 *  the classes taken in turn. Times its two steps into @p times. */
SuiteEntry
buildTrace(const Options &opt, const WorkloadDef &def, std::size_t n,
           SpanLog &spans, SetupTimes *times)
{
    const std::size_t insts = opt.insts != 0 ? opt.insts : def.defaultInsts;
    const std::size_t classes = def.classes.size();
    const WorkloadSpec spec = specFor(def.classes[n % classes], opt.seed,
                                      static_cast<unsigned>(n / classes));
    const std::int64_t t0 = nowNs();
    std::shared_ptr<const Workload> wl;
    {
        ScopedSpan s(spans, "buildWorkload", "trace");
        wl = std::make_shared<const Workload>(buildWorkload(spec));
    }
    const std::int64_t t1 = nowNs();
    SuiteEntry entry;
    entry.name = spec.name;
    {
        ScopedSpan s(spans, "generateTrace", "trace");
        entry.trace = generateTrace(wl, insts);
    }
    const std::int64_t t2 = nowNs();
    times->buildMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
    times->genNsPerInst.push_back(static_cast<double>(t2 - t1) /
                                  static_cast<double>(insts));
    return entry;
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

std::uint64_t
warmupOf(const Trace &trace)
{
    return static_cast<std::uint64_t>(static_cast<double>(trace.size()) *
                                      kWarmupFraction);
}

std::uint64_t
totalInsts(const std::vector<SuiteEntry> &suite)
{
    std::uint64_t n = 0;
    for (const SuiteEntry &e : suite)
        n += e.trace.size();
    return n;
}

// ---------------------------------------------------------------------
// Per-layer metrics shared by every workload's traced run.

/** Post-warmup model counters summed over runs (ratio of sums). */
void
addCoreModelMetrics(Metrics &m, const SimStats &s)
{
    const double ki = static_cast<double>(s.committedInsts) / 1000.0;
    m.add("core.branch_mpki", ratio(static_cast<double>(s.mispredicts), ki),
          "1/kinst");
    m.add("core.l1i_mpki", ratio(static_cast<double>(s.l1iDemandMisses), ki),
          "1/kinst");
    m.add("core.starvation_pki",
          ratio(static_cast<double>(s.starvationCycles), ki), "cycle/kinst");
    m.add("core.pf_accuracy", s.prefetchAccuracy(), "frac");
    m.add("core.pf_coverage", s.prefetchCoverage(), "frac");
    for (std::size_t b = 0; b < kCycleBucketCount; ++b) {
        m.add(std::string("core.cpi.") + kCycleBucketName[b],
              ratio(static_cast<double>(s.*kCycleBucketField[b]),
                    static_cast<double>(s.committedInsts)),
              "cycle/inst");
    }
}

/** @p sim_cycles: simulated cycles (warmup included) of the runs that
 *  took @p host_seconds. */
void
addCoreHostMetrics(Metrics &m, const TickProfile &profile,
                   double host_seconds, double sim_cycles,
                   const BpuReplay &bpu)
{
    m.add("core.host_ns_per_sim_cycle", ratio(host_seconds * 1e9, sim_cycles),
          "ns/cycle");
    for (std::size_t p = 0; p < kTickPhaseCount; ++p) {
        m.add(std::string("core.phase.") + kTickPhaseName[p] + "_frac",
              profile.fraction(static_cast<TickPhase>(p)), "frac");
    }
    m.add("core.ftq_push_pop_ns",
          ratio(bpu.ftqSeconds * 1e9, static_cast<double>(bpu.blocks)),
          "ns/op");
    m.add("core.ftq_entry_bytes", static_cast<double>(ftqEntryBytes()),
          "B");
}

void
addReplayMetrics(Metrics &m, const BpuReplay &bpu, const L1iReplay &l1i)
{
    m.add("bpu.ns_per_inst",
          ratio(bpu.seconds * 1e9, static_cast<double>(bpu.insts)),
          "ns/inst");
    m.add("bpu.snapshot_ns",
          ratio(bpu.snapshotSeconds * 1e9, static_cast<double>(bpu.blocks)),
          "ns/op");
    m.add("bpu.btb_branch_hit_rate",
          ratio(static_cast<double>(bpu.btbBranchHits),
                static_cast<double>(bpu.branches)),
          "frac");
    m.add("bpu.dir_accuracy",
          ratio(static_cast<double>(bpu.dirCorrect),
                static_cast<double>(bpu.condBranches)),
          "frac");
    m.add("bpu.indirect_accuracy",
          ratio(static_cast<double>(bpu.indirectCorrect),
                static_cast<double>(bpu.indirects)),
          "frac");

    m.add("cache.l1i_ns_per_access",
          ratio(l1i.cacheSeconds * 1e9, static_cast<double>(l1i.cacheCalls)),
          "ns/op");
    m.add("cache.fill_ns",
          ratio(l1i.fillSeconds * 1e9, static_cast<double>(l1i.fills)),
          "ns/op");
    m.add("cache.l1i_hit_rate",
          ratio(static_cast<double>(l1i.demandHits),
                static_cast<double>(l1i.demandAccesses)),
          "frac");

    m.add("prefetch.ns_per_lookup",
          ratio(l1i.lookupSeconds * 1e9,
                static_cast<double>(l1i.demandAccesses)),
          "ns/op");
    m.add("prefetch.ns_per_branch",
          ratio(l1i.branchSeconds * 1e9, static_cast<double>(l1i.branches)),
          "ns/op");
    m.add("prefetch.issued_per_kinst",
          ratio(static_cast<double>(l1i.pfIssued) * 1000.0,
                static_cast<double>(l1i.insts)),
          "1/kinst");
    m.add("prefetch.redundant_frac",
          ratio(static_cast<double>(l1i.pfRedundant),
                static_cast<double>(l1i.pfIssued)),
          "frac");
}

/** The sim layer's metrics; all zero on the single-run workloads,
 *  where that layer does no work. */
struct SimLayer
{
    double manifestMs = 0;
    double coldDrainS = 0;
    double redrainMs = 0;
    double mergeMs = 0;
    double parallelEfficiency = 0;
    double runP50 = 0;
    double runMax = 0;
    double recordsWritten = 0;
    double cacheHits = 0;
    double quarantined = 0;
    double fdpSpeedup = 0;
};

void
addSimMetrics(Metrics &m, const SimLayer &s)
{
    m.add("sim.manifest_ms", s.manifestMs, "ms");
    m.add("sim.cold_drain_s", s.coldDrainS, "s");
    m.add("sim.redrain_ms", s.redrainMs, "ms");
    m.add("sim.merge_ms", s.mergeMs, "ms");
    m.add("sim.parallel_efficiency", s.parallelEfficiency, "frac");
    m.add("sim.run_s.p50", s.runP50, "s");
    m.add("sim.run_s.max", s.runMax, "s");
    m.add("sim.records_written", s.recordsWritten, "count");
    m.add("sim.cache_hits", s.cacheHits, "count");
    m.add("sim.quarantined", s.quarantined, "count");
    m.add("sim.fdp_speedup", s.fdpSpeedup, "x");
}

void
addTraceLayerMetrics(Metrics &m, const SetupTimes &t)
{
    m.add("trace.build_workload_ms", median(t.buildMs), "ms");
    m.add("trace.generate_ns_per_inst", median(t.genNsPerInst), "ns/inst");
}

/** Runs the layer replays over every trace of @p suite. */
void
replayLayers(const CoreConfig &cfg, const std::string &prefetcher,
             const std::vector<SuiteEntry> &suite, SpanLog &spans,
             BpuReplay *bpu, L1iReplay *l1i)
{
    for (const SuiteEntry &e : suite) {
        {
            ScopedSpan s(spans, "replay.bpu+ftq", "bpu");
            bpu->add(replayBpu(cfg, e.trace));
        }
        {
            ScopedSpan s(spans, "replay.l1i+prefetch", "cache");
            l1i->add(replayL1i(cfg, prefetcher, e.trace));
        }
    }
}

/** One simulation on a fresh Core, recorded as one operation. */
struct Sim
{
    double seconds = 0;
    SimStats stats;
    TickProfile profile;
};

/**
 * Simulates @p entry and checks the result: the cycle-accounting laws,
 * and the architectural checksum against @p checksum (set, and
 * printed under @p label, by the first simulation of the trace).
 * @p corrupt flips the checksum (the self-test's forced mismatch).
 */
Sim
simulate(const CoreConfig &cfg, const std::string &prefetcher,
         const SuiteEntry &entry, const std::string &label,
         std::optional<std::uint64_t> *checksum, bool corrupt,
         SpanLog &spans, Ops &ops)
{
    const bool profiled = cfg.obs.profileInterval != 0;
    Sim out;
    std::string why;
    try {
        Core core(cfg, entry.trace, makePrefetcher(prefetcher));
        ScopedSpan s(spans, profiled ? "Core::run[profiled]" : "Core::run",
                     profiled ? "obs" : "core");
        const std::int64_t t0 = nowNs();
        out.stats = core.run(warmupOf(entry.trace));
        out.seconds = secondsSince(t0);
        out.profile = core.hostProfile();
        why = checkStats(out.stats);
        const std::uint64_t sum =
            architecturalChecksum(out.stats) ^ (corrupt ? 1 : 0);
        if (!checksum->has_value()) {
            *checksum = sum;
            printChecksum(label, entry.name, sum);
        } else if (why.empty() && sum != **checksum) {
            why = "checksum " + hex16(sum) + " != " + hex16(**checksum);
        }
    } catch (const std::exception &ex) {
        why = ex.what();
    }
    ops.record(why.empty(),
               std::string(profiled ? "profiled run " : "run ") + label +
                   " " + entry.name,
               why);
    return out;
}

/** Prints the measured throughput beside the normalized one. */
void
printUnnormalized(double insts, double seconds, double normalized)
{
    std::printf("unnormalized sim_instr_per_s %.10g instr/s (host speed "
                "factor %.4f)\n",
                ratio(insts, seconds), ratio(seconds, normalized));
}

/** What the closed loop of simulations measured. */
struct Loop
{
    std::vector<SimStats> first; ///< First simulation of each trace.
    double plainSeconds = 0;
    /** Every plain simulation, per trace. */
    std::vector<std::vector<Timed>> plain;
    double profiledSeconds = 0;  ///< Traced run only.
    TickProfile profile;         ///< Traced run only.
};

/**
 * The measured phase: a closed loop of simulations, one at a time on
 * a fresh Core, round-robin over the first @p n traces of @p suite,
 * for at least @p min_passes passes and until --seconds have passed
 * (stopping mid-pass). Traced, every plain simulation is followed by
 * one with the tick profiler on, so the two can be compared.
 */
Loop
simulateLoop(const CoreConfig &cfg, const std::string &prefetcher,
             const std::vector<SuiteEntry> &suite, std::size_t n,
             const std::string &label, const Options &opt,
             unsigned min_passes, SpanLog &spans, Ops &ops)
{
    CoreConfig profiled = cfg;
    profiled.obs.profileInterval = kProfileInterval;
    Loop loop;
    loop.first.resize(n);
    loop.plain.resize(n);
    std::vector<std::optional<std::uint64_t>> checksum(n);
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    for (unsigned pass = 0;; ++pass) {
        for (std::size_t j = 0; j < n; ++j) {
            if (pass >= min_passes && nowNs() >= deadline)
                return loop;
            const bool corrupt =
                opt.inject == "checksum-mismatch" && pass == 1 && j == 0;
            const double calibration = calibrationSeconds();
            const Sim r = simulate(cfg, prefetcher, suite[j], label,
                                   &checksum[j], corrupt, spans, ops);
            if (pass == 0)
                loop.first[j] = r.stats;
            if (r.seconds > 0) {
                loop.plainSeconds += r.seconds;
                loop.plain[j].push_back({r.seconds, calibration});
            }
            if (opt.trace) {
                const Sim p = simulate(profiled, prefetcher, suite[j], label,
                                       &checksum[j], false, spans, ops);
                loop.profiledSeconds += p.seconds;
                loop.profile.merge(p.profile);
            }
        }
    }
}

/** Sums the counters the model metrics read, over @p runs. */
SimStats
pooled(const std::vector<SimStats> &runs)
{
    SimStats total;
    for (const SimStats &s : runs) {
        for (std::size_t b = 0; b < kCycleBucketCount; ++b)
            total.*kCycleBucketField[b] += s.*kCycleBucketField[b];
        total.cycles += s.cycles;
        total.committedInsts += s.committedInsts;
        total.mispredicts += s.mispredicts;
        total.l1iDemandMisses += s.l1iDemandMisses;
        total.starvationCycles += s.starvationCycles;
        total.prefetchesIssued += s.prefetchesIssued;
        total.prefetchesUseful += s.prefetchesUseful;
    }
    return total;
}

// ---------------------------------------------------------------------
// Single-run workloads: fdp-server and eip-client.

void
runSingle(const Options &opt, const WorkloadDef &def, SpanLog &spans,
          Ops &ops, Metrics &m)
{
    CoreConfig cfg = paperBaselineConfig();
    cfg.applyHistoryScheme();
    const std::string pf = def.prefetcher;

    // Set-up, repeated: per trace, synthesis, trace generation and Core
    // construction, timed as one step.
    SetupTimes setup;
    std::vector<SuiteEntry> suite;
    for (unsigned r = 0; r < kSetups; ++r) {
        ScopedSpan s(spans, "setup", "bench");
        suite.clear();
        suite.shrink_to_fit();
        std::vector<Timed> steps;
        for (std::size_t n = 0; n < traceCount(def); ++n) {
            const double calibration = calibrationSeconds();
            const std::int64_t t0 = nowNs();
            suite.push_back(buildTrace(opt, def, n, spans, &setup));
            {
                ScopedSpan c(spans, "Core::Core", "core");
                Core core(cfg, suite.back().trace, makePrefetcher(pf));
            }
            steps.push_back({secondsSince(t0), calibration});
        }
        setup.setups.push_back(std::move(steps));
    }

    const Loop loop =
        simulateLoop(cfg, pf, suite, suite.size(), def.name, opt,
                     opt.trace ? kTracedPasses : kMinPasses, spans, ops);
    const SimStats total = pooled(loop.first);
    if (!opt.trace) {
        // Every trace weighs the same, however many times the deadline
        // let it run: its mean time, measured and normalized.
        double insts = 0;
        double measured = 0;
        double normalized = 0;
        for (std::size_t j = 0; j < suite.size(); ++j) {
            const auto count = static_cast<double>(loop.plain[j].size());
            double sum = 0;
            for (const Timed &t : loop.plain[j])
                sum += t.seconds;
            insts += static_cast<double>(suite[j].trace.size());
            measured += ratio(sum, count);
            normalized += ratio(normalizedSeconds(loop.plain[j]), count);
        }
        printUnnormalized(insts, measured, normalized);
        m.add("sim_instr_per_s", ratio(insts, normalized), "instr/s");
        addSetupMetric(m, setup);
        m.add("ipc", total.ipc(), "instr/cycle");
        return;
    }

    BpuReplay bpu;
    L1iReplay l1i;
    replayLayers(cfg, pf, suite, spans, &bpu, &l1i);
    addTraceLayerMetrics(m, setup);
    addReplayMetrics(m, bpu, l1i);
    addCoreHostMetrics(m, loop.profile, loop.plainSeconds,
                       static_cast<double>(loop.profile.totalTicks), bpu);
    addCoreModelMetrics(m, total);
    m.add("obs.trace_overhead_frac",
          ratio(loop.profiledSeconds, loop.plainSeconds) - 1.0, "frac");
    addSimMetrics(m, SimLayer{});
}

// ---------------------------------------------------------------------
// The campaign workload.

/** Rewrites one counter of the first spool record, so its checksum no
 *  longer verifies (the self-test's tampered record). */
void
tamperFirstRecord(const std::string &spool)
{
    std::vector<std::filesystem::path> records;
    for (const auto &f : std::filesystem::directory_iterator(spool)) {
        if (f.path().extension() == ".json")
            records.push_back(f.path());
    }
    if (records.empty())
        return;
    std::sort(records.begin(), records.end());
    std::string text;
    {
        std::ifstream in(records.front());
        std::getline(in, text);
    }
    const std::string key = "\"cycles\": ";
    const auto at = text.find(key);
    if (at == std::string::npos)
        return;
    char &digit = text[at + key.size()];
    digit = digit == '9' ? '1' : static_cast<char>(digit + 1);
    std::ofstream(records.front()) << text << "\n";
}

std::size_t
countRecords(const std::string &spool)
{
    std::size_t n = 0;
    for (const auto &f : std::filesystem::directory_iterator(spool))
        n += f.path().extension() == ".json" ? 1 : 0;
    return n;
}

/** What one pass of the campaign measured. */
struct CampaignPass
{
    double drainS = 0;
    double redrainS = 0;
    double mergeS = 0;
    std::size_t recordsWritten = 0;
    SpoolSummary cold;
    SpoolSummary redrain;
    std::vector<SuiteResult> results; ///< From the cold drain.
};

/**
 * One pass over a fresh spool: drain, re-drain, merge. Records one
 * operation per run of the drain (its checks, and its checksum against
 * @p reference once that is set) and one per re-drained record (it
 * must verify without re-simulation, and match the drain, re-drained
 * and merged). Sets @p reference on the first pass.
 */
CampaignPass
campaignPass(const std::vector<CampaignEntry> &entries,
             const std::vector<SuiteEntry> &suite, const Options &opt,
             unsigned pass, std::vector<std::uint64_t> *reference,
             SpanLog &spans, Ops &ops)
{
    const std::size_t W = suite.size();
    const std::size_t runs = entries.size() * W;
    const auto pairName = [&](std::size_t p) {
        return entries[p / W].label + " " + suite[p % W].name;
    };
    const std::string spool = opt.outDir + "/spool-" +
                              std::to_string(::getpid()) + "-" +
                              std::to_string(pass);
    std::filesystem::remove_all(spool);
    CampaignPass cp;
    SpoolOptions so;
    so.spoolDir = spool;
    so.warmupFraction = kWarmupFraction;
    so.jobs = jobsFromEnv(1);
    std::int64_t t0 = nowNs();
    {
        ScopedSpan s(spans, "runCampaignSpooled[cold]", "sim");
        cp.results = runCampaignSpooled(entries, suite, so, &cp.cold);
    }
    cp.drainS = secondsSince(t0);
    cp.recordsWritten = countRecords(spool);

    std::vector<std::uint64_t> drained(runs);
    for (std::size_t p = 0; p < runs; ++p) {
        const SimStats &st = cp.results[p / W].runs[p % W].stats;
        drained[p] = architecturalChecksum(st);
        if (reference->empty())
            printChecksum(entries[p / W].label, suite[p % W].name,
                          drained[p]);
        std::string why = checkStats(st);
        if (why.empty() && !reference->empty() &&
            drained[p] != (*reference)[p])
            why = "checksum " + hex16(drained[p]) + " != " +
                  hex16((*reference)[p]);
        if (why.empty() && cp.cold.simulated != runs)
            why = "cold drain simulated " +
                  std::to_string(cp.cold.simulated) + " of " +
                  std::to_string(runs);
        ops.record(why.empty(), "run " + pairName(p), why);
    }
    if (reference->empty())
        *reference = drained;

    if (opt.inject == "tamper-record" && pass == 0)
        tamperFirstRecord(spool);

    // Re-drain: every record must verify and nothing re-simulate.
    std::vector<unsigned char> resimulated(runs, 0);
    so.onSimulate = [&resimulated, W](std::size_t c, std::size_t w) {
        resimulated[c * W + w] = 1;
    };
    std::vector<SuiteResult> again;
    t0 = nowNs();
    {
        ScopedSpan s(spans, "runCampaignSpooled[redrain]", "sim");
        again = runCampaignSpooled(entries, suite, so, &cp.redrain);
    }
    cp.redrainS = secondsSince(t0);

    std::vector<SuiteResult> merged;
    SpoolSummary merge_summary;
    std::string merge_error;
    bool merged_ok = false;
    t0 = nowNs();
    {
        ScopedSpan s(spans, "mergeCampaignSpool", "sim");
        merged_ok = mergeCampaignSpool(entries, suite, spool, kWarmupFraction,
                                       &merged, &merge_summary, &merge_error);
    }
    cp.mergeS = secondsSince(t0);

    for (std::size_t p = 0; p < runs; ++p) {
        std::string why;
        std::uint64_t redrained =
            architecturalChecksum(again[p / W].runs[p % W].stats);
        if (opt.inject == "checksum-mismatch" && pass == 0 && p == 0)
            redrained ^= 1;
        if (resimulated[p] != 0)
            why = "re-simulated on re-drain (record did not verify)";
        else if (redrained != drained[p])
            why = "re-drained checksum " + hex16(redrained) + " != " +
                  hex16(drained[p]);
        else if (!merged_ok)
            why = "merge failed: " + merge_error;
        else if (architecturalChecksum(merged[p / W].runs[p % W].stats) !=
                 drained[p])
            why = "merged checksum differs from the drain";
        ops.record(why.empty(), "record " + pairName(p), why);
    }
    std::filesystem::remove_all(spool);
    return cp;
}

/** Index of the entry labeled @p label (the preset names its configs). */
std::size_t
entryIndex(const std::vector<CampaignEntry> &entries,
           const std::string &label)
{
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].label == label)
            return i;
    }
    fdip_fatal("campaign preset has no '%s' entry", label.c_str());
}

void
runCampaignWorkload(const Options &opt, const WorkloadDef &def,
                    SpanLog &spans, Ops &ops, Metrics &m)
{
    const std::vector<CampaignEntry> entries =
        buildCampaignEntries("prefetchers");

    // Set-up, repeated: each trace, then the manifest, timed as steps.
    SetupTimes setup;
    std::vector<SuiteEntry> suite;
    for (unsigned r = 0; r < kSetups; ++r) {
        ScopedSpan s(spans, "setup", "bench");
        suite.clear();
        suite.shrink_to_fit();
        std::vector<Timed> steps;
        for (std::size_t n = 0; n < traceCount(def); ++n) {
            const double calibration = calibrationSeconds();
            const std::int64_t t0 = nowNs();
            suite.push_back(buildTrace(opt, def, n, spans, &setup));
            steps.push_back({secondsSince(t0), calibration});
        }
        const double calibration = calibrationSeconds();
        const std::int64_t t0 = nowNs();
        {
            ScopedSpan mf(spans, "buildManifest", "sim");
            (void)buildManifest(entries, suite, kWarmupFraction);
        }
        steps.push_back({secondsSince(t0), calibration});
        setup.manifestMs.push_back(steps.back().seconds * 1e3);
        setup.setups.push_back(std::move(steps));
    }

    // Measured phase: passes over a fresh spool until --seconds passed.
    std::vector<std::uint64_t> reference;
    std::uint64_t insts = 0;
    double seconds = 0;
    double normalized = 0;
    CampaignPass last;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    const unsigned min_passes = opt.trace ? kTracedPasses : kMinPasses;
    for (unsigned pass = 0; pass < min_passes || nowNs() < deadline;
         ++pass) {
        // Host speed while the pass runs, sampled off the workers.
        KernelSampler sampler(kSamplePeriod);
        last = campaignPass(entries, suite, opt, pass, &reference, spans, ops);
        const double calibration = sampler.stop();
        const double wall = last.drainS + last.redrainS + last.mergeS;
        insts += totalInsts(suite) * entries.size();
        seconds += wall;
        normalized += normalizedSeconds({{wall, calibration}});
    }

    std::vector<SimStats> stats;
    std::vector<double> ipcs;
    std::vector<double> run_s;
    for (const SuiteResult &r : last.results) {
        for (const RunResult &run : r.runs) {
            stats.push_back(run.stats);
            ipcs.push_back(run.stats.ipc());
            run_s.push_back(run.stats.hostWallSeconds);
        }
    }

    if (!opt.trace) {
        printUnnormalized(static_cast<double>(insts), seconds, normalized);
        m.add("sim_instr_per_s", ratio(static_cast<double>(insts), normalized),
              "instr/s");
        addSetupMetric(m, setup);
        m.add("ipc", geometricMean(ipcs), "instr/cycle");
        return;
    }

    // Traced run extras, one thread: a plain and a profiled simulation
    // of every trace under FDP (the core host metrics, as on the
    // single-run workloads), and the layer replays under FDP+EIP-27KB.
    const std::size_t base = entryIndex(entries, "baseline");
    const std::size_t fdp = entryIndex(entries, "FDP");
    const std::size_t fdp_eip = entryIndex(entries, "FDP+EIP-27KB");
    CoreConfig fdp_cfg = entries[fdp].cfg;
    fdp_cfg.obs = ObsConfig{};
    fdp_cfg.applyHistoryScheme();
    Options once = opt; // The campaign passes used up --seconds.
    once.seconds = 0;
    const Loop loop = simulateLoop(fdp_cfg, entries[fdp].prefetcherId, suite,
                                   suite.size(), entries[fdp].label, once,
                                   kTracedPasses, spans, ops);
    CoreConfig eip_cfg = entries[fdp_eip].cfg;
    eip_cfg.obs = ObsConfig{};
    eip_cfg.applyHistoryScheme();
    BpuReplay bpu;
    L1iReplay l1i;
    replayLayers(eip_cfg, entries[fdp_eip].prefetcherId, suite, spans, &bpu,
                 &l1i);

    double run_sum = 0;
    for (double s : run_s)
        run_sum += s;
    SimLayer sim;
    sim.manifestMs = median(setup.manifestMs);
    sim.coldDrainS = last.drainS;
    sim.redrainMs = last.redrainS * 1e3;
    sim.mergeMs = last.mergeS * 1e3;
    sim.parallelEfficiency = ratio(run_sum, last.drainS * jobsFromEnv(1));
    sim.runP50 = median(run_s);
    sim.runMax = *std::max_element(run_s.begin(), run_s.end());
    sim.recordsWritten = static_cast<double>(last.recordsWritten);
    sim.cacheHits = static_cast<double>(last.redrain.cacheHits);
    sim.quarantined =
        static_cast<double>(last.cold.quarantined + last.redrain.quarantined);
    sim.fdpSpeedup = last.results[fdp].speedupOver(last.results[base]);

    addTraceLayerMetrics(m, setup);
    addReplayMetrics(m, bpu, l1i);
    addCoreHostMetrics(m, loop.profile, loop.plainSeconds,
                       static_cast<double>(loop.profile.totalTicks), bpu);
    addCoreModelMetrics(m, pooled(stats));
    m.add("obs.trace_overhead_frac",
          ratio(loop.profiledSeconds, loop.plainSeconds) - 1.0, "frac");
    addSimMetrics(m, sim);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloads()) {
        if (opt.workload == d.name)
            def = &d;
    }
    if (def == nullptr)
        usage("unknown --workload '" + opt.workload + "'");
    if (opt.inject == "tamper-record" && !def->campaign)
        usage("--inject tamper-record needs the campaign workload");

    pinEnvironment();
    std::filesystem::create_directories(opt.outDir);
    const std::string host = hostDescriptor();
    std::printf("host %s\n", host.c_str());
    std::fflush(stdout);

    SpanLog spans(opt.trace, static_cast<std::uint64_t>(::getpid()));
    Ops ops;
    Metrics metrics;
    {
        ScopedSpan root(spans, opt.workload, "bench");
        if (def->campaign)
            runCampaignWorkload(opt, *def, spans, ops, metrics);
        else
            runSingle(opt, *def, spans, ops, metrics);
    }
    if (!opt.trace)
        metrics.add("peak_rss_mb", peakRssMiB(), "MiB");

    if (opt.trace) {
        const std::string path = opt.outDir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".json";
        const std::string other = "{\"workload\": " +
                                  jsonString(opt.workload) +
                                  ", \"seed\": " + std::to_string(opt.seed) +
                                  ", \"host\": " + host + "}";
        if (spans.writeChromeTrace(path, other))
            std::printf("spans %s\n", path.c_str());
        else
            std::fprintf(stderr, "fdip_perfbench: cannot write %s\n",
                         path.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ops.failed() == 0 && ops.attempted() > 0 ? "true" : "false",
                static_cast<unsigned long long>(ops.attempted()),
                static_cast<unsigned long long>(ops.failed()),
                metrics.json().c_str());
    return 0;
}
