#include "sim/experiment.h"

#include <array>
#include <chrono>
#include <cstddef>
#include <string_view>

#include "obs/obs_config.h"
#include "obs/trace_events.h"
#include "util/fnv.h"
#include "util/log.h"
#include "util/stats.h"

namespace fdip
{

PrefetcherFactory
noPrefetcher()
{
    return [](const Trace &) { return std::make_unique<NullPrefetcher>(); };
}

double
SuiteResult::geomeanIpc() const
{
    std::vector<double> v;
    v.reserve(runs.size());
    for (const auto &r : runs)
        v.push_back(r.stats.ipc());
    return geometricMean(v);
}

double
SuiteResult::meanMpki() const
{
    std::vector<double> v;
    v.reserve(runs.size());
    for (const auto &r : runs)
        v.push_back(r.stats.branchMpki());
    return arithmeticMean(v);
}

double
SuiteResult::meanStarvationPerKi() const
{
    std::vector<double> v;
    v.reserve(runs.size());
    for (const auto &r : runs)
        v.push_back(r.stats.starvationPerKi());
    return arithmeticMean(v);
}

double
SuiteResult::meanTagAccessesPerKi() const
{
    std::vector<double> v;
    v.reserve(runs.size());
    for (const auto &r : runs)
        v.push_back(r.stats.tagAccessesPerKi());
    return arithmeticMean(v);
}

double
SuiteResult::speedupOver(const SuiteResult &base) const
{
    if (runs.size() != base.runs.size())
        fdip_fatal("speedupOver: mismatched suite sizes %zu vs %zu",
                   runs.size(), base.runs.size());
    std::vector<double> v;
    v.reserve(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        v.push_back(runs[i].stats.ipc() / base.runs[i].stats.ipc());
    return geometricMean(v);
}

RunResult
runOne(const CoreConfig &cfg, const SuiteEntry &entry,
       const PrefetcherFactory &make_prefetcher, double warmup_fraction)
{
    Core core(cfg, entry.trace, make_prefetcher(entry.trace));

    // Per-run trace sink: one file per (label, workload), opened and
    // owned here so parallel runs never share a writer.
    std::unique_ptr<TraceWriter> trace_writer;
    const std::string trace_path = tracePathForRun(cfg.obs, entry.name);
    if (!trace_path.empty()) {
        trace_writer = std::make_unique<TraceWriter>(trace_path);
        if (trace_writer->ok())
            core.attachTrace(trace_writer.get());
    }

    const auto warmup = static_cast<std::uint64_t>(
        static_cast<double>(entry.trace.size()) * warmup_fraction);
    RunResult run;
    run.workload = entry.name;
    const auto t0 = std::chrono::steady_clock::now();
    run.stats = core.run(warmup);
    const auto t1 = std::chrono::steady_clock::now();
    run.stats.hostWallSeconds =
        std::chrono::duration<double>(t1 - t0).count();

    run.heartbeats = core.heartbeats();
    if (cfg.obs.profileInterval != 0)
        run.hostPhases = core.hostProfile();
    if (cfg.obs.collectStats) {
        StatRegistry reg;
        core.registerStats(reg);
        run.statDump = reg.snapshot();
    }
    return run;
}

SuiteResult
runSuite(const std::string &label, CoreConfig cfg,
         const std::vector<SuiteEntry> &suite,
         const PrefetcherFactory &make_prefetcher, double warmup_fraction)
{
    cfg.applyHistoryScheme();
    cfg.obs = resolveObsEnv(cfg.obs);
    if (cfg.obs.traceLabel.empty())
        cfg.obs.traceLabel = label;
    SuiteResult result;
    result.label = label;
    result.runs.reserve(suite.size());
    for (const auto &entry : suite)
        result.runs.push_back(
            runOne(cfg, entry, make_prefetcher, warmup_fraction));
    return result;
}

std::vector<SuiteEntry>
benchSuite(std::size_t default_insts)
{
    return buildStandardSuite(suiteInstsFromEnv(default_insts),
                              suiteSmallFromEnv());
}

namespace
{

/** Appends one canonical "key=value\n" line. Integral and bool knobs
 *  all serialize through uint64 (bool as 0/1), so every width of
 *  config field spells its value exactly one way. */
template <typename T>
void
kv(std::string &out, const char *key, T value)
{
    out += key;
    out += '=';
    out += std::to_string(static_cast<std::uint64_t>(value));
    out += '\n';
}

/** One cache geometry as canonical lines under a @p prefix. */
void
kvCache(std::string &out, const std::string &prefix,
        const CacheConfig &c)
{
    kv(out, (prefix + ".sizeBytes").c_str(), c.sizeBytes);
    kv(out, (prefix + ".ways").c_str(), c.ways);
    kv(out, (prefix + ".lineBytes").c_str(), c.lineBytes);
    kv(out, (prefix + ".replacement").c_str(),
       static_cast<std::uint64_t>(c.replacement));
}

} // namespace

std::string
canonicalConfigText(const CoreConfig &cfg)
{
    std::string out = "fdip-config-v1\n";

    kv(out, "ftqEntries", cfg.ftqEntries);
    kv(out, "predictBandwidth", cfg.predictBandwidth);
    kv(out, "maxTakenPerCycle", cfg.maxTakenPerCycle);
    kv(out, "fetchBandwidth", cfg.fetchBandwidth);
    kv(out, "btbLatency", cfg.btbLatency);
    kv(out, "fetchProbesPerCycle", cfg.fetchProbesPerCycle);

    kv(out, "pfcEnabled", cfg.pfcEnabled);
    kv(out, "pfcUnconditionalOnly", cfg.pfcUnconditionalOnly);
    kv(out, "historyScheme",
       static_cast<std::uint64_t>(cfg.historyScheme));

    kv(out, "decodeQueueEntries", cfg.decodeQueueEntries);
    kv(out, "decodeLatency", cfg.decodeLatency);
    kv(out, "commitWidth", cfg.commitWidth);
    kv(out, "robEntries", cfg.robEntries);
    kv(out, "branchResolveLatency", cfg.branchResolveLatency);

    kvCache(out, "l1i", cfg.l1i);
    kv(out, "l1iHitLatency", cfg.l1iHitLatency);
    kv(out, "l1iMshrs", cfg.l1iMshrs);
    kv(out, "itlbEntries", cfg.itlbEntries);
    kv(out, "itlbMissPenalty", cfg.itlbMissPenalty);
    kvCache(out, "mem.l1d", cfg.mem.l1d);
    kvCache(out, "mem.l2", cfg.mem.l2);
    kvCache(out, "mem.llc", cfg.mem.llc);
    kv(out, "mem.l1dLatency", cfg.mem.l1dLatency);
    kv(out, "mem.l2Latency", cfg.mem.l2Latency);
    kv(out, "mem.llcLatency", cfg.mem.llcLatency);
    kv(out, "mem.dramLatency", cfg.mem.dramLatency);
    kv(out, "mem.dramOccupancy", cfg.mem.dramOccupancy);

    kv(out, "bpu.historyPolicy",
       static_cast<std::uint64_t>(cfg.bpu.historyPolicy));
    kv(out, "bpu.direction",
       static_cast<std::uint64_t>(cfg.bpu.direction));
    kv(out, "bpu.tageKilobytes", cfg.bpu.tageKilobytes);
    kv(out, "bpu.directionHistoryBits", cfg.bpu.directionHistoryBits);
    kv(out, "bpu.btb.numEntries", cfg.bpu.btb.numEntries);
    kv(out, "bpu.btb.ways", cfg.bpu.btb.ways);
    kv(out, "bpu.btb.allocateTakenOnly", cfg.bpu.btb.allocateTakenOnly);
    kv(out, "bpu.btb.bytesPerEntry", cfg.bpu.btb.bytesPerEntry);
    kv(out, "bpu.btbHierarchy.enabled", cfg.bpu.btbHierarchy.enabled);
    kv(out, "bpu.btbHierarchy.l1Entries", cfg.bpu.btbHierarchy.l1Entries);
    kv(out, "bpu.btbHierarchy.l1Ways", cfg.bpu.btbHierarchy.l1Ways);
    kv(out, "bpu.btbHierarchy.l2ExtraLatency",
       cfg.bpu.btbHierarchy.l2ExtraLatency);
    kv(out, "bpu.ittage.numTables", cfg.bpu.ittage.numTables);
    kv(out, "bpu.ittage.minHistory", cfg.bpu.ittage.minHistory);
    kv(out, "bpu.ittage.maxHistory", cfg.bpu.ittage.maxHistory);
    kv(out, "bpu.ittage.logEntries", cfg.bpu.ittage.logEntries);
    kv(out, "bpu.ittage.tagBits", cfg.bpu.ittage.tagBits);
    kv(out, "bpu.ittage.logBaseEntries", cfg.bpu.ittage.logBaseEntries);
    kv(out, "bpu.rasDepth", cfg.bpu.rasDepth);
    kv(out, "bpu.useLoopPredictor", cfg.bpu.useLoopPredictor);
    kv(out, "bpu.loopPredictor.logEntries",
       cfg.bpu.loopPredictor.logEntries);
    kv(out, "bpu.loopPredictor.ways", cfg.bpu.loopPredictor.ways);
    kv(out, "bpu.loopPredictor.confidenceMax",
       cfg.bpu.loopPredictor.confidenceMax);
    kv(out, "bpu.loopPredictor.maxTrip", cfg.bpu.loopPredictor.maxTrip);
    kv(out, "bpu.perfectBtb", cfg.bpu.perfectBtb);
    kv(out, "bpu.perfectIndirect", cfg.bpu.perfectIndirect);

    kv(out, "perfectPrefetch", cfg.perfectPrefetch);
    kv(out, "perfectICache", cfg.perfectICache);
    kv(out, "prefetchesPerCycle", cfg.prefetchesPerCycle);
    kv(out, "usePrefetchBuffer", cfg.usePrefetchBuffer);
    kv(out, "prefetchBufferLines", cfg.prefetchBufferLines);

    return out;
}

std::uint64_t
configDigest(const CoreConfig &cfg)
{
    return fnv1a64(canonicalConfigText(cfg));
}

namespace
{

/** The 24 bytes of a static instruction of class @p cls with parameter
 *  0 and no target, as traceDigest hashes its three fields. */
constexpr FnvConstantRun
targetlessRecord(std::size_t cls)
{
    std::array<char, 24> bytes{};
    bytes[0] = static_cast<char>(cls);
    for (std::size_t i = 16; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(0xff);
    return FnvConstantRun(std::string_view(bytes.data(), bytes.size()));
}

/** targetlessRecord of every InstClass, indexed by class. */
constexpr auto kTargetlessRecord = [] {
    std::array<FnvConstantRun,
               static_cast<std::size_t>(InstClass::kReturn) + 1>
        runs;
    for (std::size_t cls = 0; cls < runs.size(); ++cls)
        runs[cls] = targetlessRecord(cls);
    return runs;
}();

/** The 8 bytes of a kNoAddr word. */
constexpr FnvConstantRun kNoAddrWord(
    std::string_view("\xff\xff\xff\xff\xff\xff\xff\xff", 8));

} // namespace

std::uint64_t
traceDigest(const SuiteEntry &entry)
{
    std::uint64_t h = fnv1a64("fdip-trace-v1\n");
    h = fnv1a64(entry.name, h);
    h = fnv1aByte(0, h); // Name/content separator.

    // Each static instruction hashes as three 64-bit words; the common
    // targetless record (class, 0, kNoAddr) is one constant run.
    const ProgramImage &image = entry.trace.image();
    h = fnv1aMix(image.baseAddr(), h);
    h = fnv1aMix(image.numInsts(), h);
    for (std::uint32_t i = 0; i < image.numInsts(); ++i) {
        const StaticInst &si = image.inst(i);
        const auto cls = static_cast<std::size_t>(si.cls);
        if (si.param == 0 && si.target == kNoAddr &&
            cls < kTargetlessRecord.size()) {
            h = kTargetlessRecord[cls](h);
            continue;
        }
        h = fnv1aMix(cls, h);
        h = fnv1aMix(si.param, h);
        h = fnv1aMix(si.target, h);
    }

    // Each record hashes as the two little-endian words of its v1
    // 16-byte form: the head (static index, taken byte, padding), then
    // info. The walk reads stored infos in order, by cursor.
    h = fnv1aMix(entry.trace.insts.size(), h);
    entry.trace.insts.forEach([&h](const DynInst &d) {
        const std::uint64_t head =
            d.staticIndex | std::uint64_t{d.taken} << 32 |
            std::uint64_t{d.pad[0]} << 40 | std::uint64_t{d.pad[1]} << 48 |
            std::uint64_t{d.pad[2]} << 56;
        h = fnv1aMix(head, h);
        h = d.info == kNoAddr ? kNoAddrWord(h) : fnv1aMix(d.info, h);
    });
    return h;
}

} // namespace fdip
