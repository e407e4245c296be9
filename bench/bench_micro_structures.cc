/**
 * @file
 * Google-benchmark microbenchmarks of the core structures: TAGE
 * prediction/update, BTB lookup, history push/snapshot and rewind,
 * cache and ITLB access, the EIP prefetcher's demand lookup, FTQ
 * operations, end-to-end simulated instruction throughput, trace
 * generation, program-image reads and the campaign manifest's trace
 * digest.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "bpu/bpu.h"
#include "cache/cache.h"
#include "core/core.h"
#include "core/core_config.h"
#include "core/ftq.h"
#include "prefetch/eip.h"
#include "prefetch/factory.h"
#include "sim/experiment.h"
#include "trace/suite.h"
#include "util/rng.h"

namespace fdip
{
namespace
{

void
BM_TagePredictUpdate(benchmark::State &state)
{
    BranchHistory hist(HistoryPolicy::kTargetHistory);
    Tage tage(TageConfig::sized(18), hist);
    Rng rng(1);
    Addr pc = 0x400000;
    for (auto _ : state) {
        TagePrediction meta;
        const bool pred = tage.predict(pc, meta);
        benchmark::DoNotOptimize(pred);
        const bool taken = (rng.next() & 3) != 0;
        tage.update(pc, taken, meta);
        hist.pushBranch(pc, pc ^ 0x40, taken);
        pc = 0x400000 + (rng.next() & 0xffff) * 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagePredictUpdate);

void
BM_BtbLookup(benchmark::State &state)
{
    BtbConfig cfg;
    cfg.numEntries = static_cast<unsigned>(state.range(0));
    Btb btb(cfg);
    Rng rng(2);
    for (unsigned i = 0; i < cfg.numEntries; ++i)
        btb.install(0x400000 + i * 8, InstClass::kJumpDirect, 0x9000,
                   true);
    for (auto _ : state) {
        const Addr pc = 0x400000 + (rng.next() % (cfg.numEntries)) * 8;
        benchmark::DoNotOptimize(btb.lookup(pc));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtbLookup)->Arg(1024)->Arg(8192)->Arg(32768);

void
BM_HistoryPushSnapshot(benchmark::State &state)
{
    // The simulator's own fold population: TAGE-18KB + ITTAGE under THR
    // (54 views over 33 shared folds).
    Bpu bpu(paperBaselineConfig().bpu);
    BranchHistory &hist = bpu.history();
    Rng rng(3);
    for (auto _ : state) {
        hist.pushBranch(rng.next(), rng.next(), true);
        benchmark::DoNotOptimize(hist.snapshot());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryPushSnapshot);

void
BM_HistoryRestore(benchmark::State &state)
{
    // One flush-style repair: push 10 THR events (20 bits, the mean
    // rewind distance of fdp-server seed 1) past a snapshot, then
    // rewind every fold back to it.
    Bpu bpu(paperBaselineConfig().bpu);
    BranchHistory &hist = bpu.history();
    Rng rng(5);
    for (int i = 0; i < 400; ++i)
        hist.pushBranch(rng.next(), rng.next(), true); // Fill windows.
    for (auto _ : state) {
        const HistorySnapshot snap = hist.snapshot();
        for (int i = 0; i < 10; ++i)
            hist.pushBranch(rng.next(), rng.next(), true);
        hist.restore(snap);
        benchmark::DoNotOptimize(hist.folded(0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryRestore);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    cfg.ways = 8;
    Cache cache(cfg);
    Rng rng(4);
    for (auto _ : state) {
        const Addr line = (rng.next() & 0xfff) * kCacheLineBytes;
        if (!cache.access(line).has_value())
            cache.fill(line);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_ItlbAccess(benchmark::State &state)
{
    // The frontend's ITLB probe (access, fill on a miss) on the 64-way
    // fully associative ITLB, over the pages of a server trace's
    // fetched lines (one probe per change of line). hint:1 passes the
    // way of the last hit or fill, as Frontend::probeEntry does;
    // hint:0 scans.
    const bool hint = state.range(0) != 0;
    const auto wl = std::make_shared<Workload>(
        buildWorkload(serverSpec("itlb", 1)));
    const Trace trace = generateTrace(wl, 200000);
    std::vector<Addr> pages;
    Addr line = kNoAddr;
    for (std::size_t k = 0; k < trace.size(); ++k) {
        const Addr pc = trace.pcOf(k);
        if ((pc & ~Addr{63}) != line) {
            line = pc & ~Addr{63};
            pages.push_back(pc & ~Addr{4095});
        }
    }
    Cache itlb(itlbCacheConfig(64));
    unsigned way = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr page = pages[i];
        i = i + 1 == pages.size() ? 0 : i + 1;
        const auto hit = hint ? itlb.access(page, way) : itlb.access(page);
        benchmark::DoNotOptimize(hit);
        if (hit.has_value())
            way = *hit;
        else
            itlb.fill(page, &way);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ItlbAccess)->ArgName("hint")->Arg(0)->Arg(1);

void
BM_EipDemandLookup(benchmark::State &state)
{
    // EIP-128KB on the demand stream the frontend gives it: one lookup
    // per change of fetched line of a client trace, hit or miss from a
    // 32 KB 8-way L1I (filled on a miss), then up to 4 pops, as
    // Frontend::drainPrefetchQueue takes per cycle. Time advances one
    // cycle per instruction.
    const auto wl = std::make_shared<Workload>(
        buildWorkload(clientSpec("eip", 1)));
    const Trace trace = generateTrace(wl, 200000);
    std::vector<Addr> lines;
    std::vector<Cycle> gaps;
    std::size_t last_change = 0;
    for (std::size_t k = 0; k < trace.size(); ++k) {
        const Addr line = trace.pcOf(k) & ~Addr{63};
        if (lines.empty() || line != lines.back()) {
            lines.push_back(line);
            gaps.push_back(k - last_change);
            last_change = k;
        }
    }
    gaps[0] = 1;
    Cache l1i(CoreConfig{}.l1i);
    EipPrefetcher eip(EipConfig::sized128KB());
    Cycle now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr line = lines[i];
        now += gaps[i];
        i = i + 1 == lines.size() ? 0 : i + 1;
        const bool hit = l1i.access(line).has_value();
        if (!hit)
            l1i.fill(line);
        eip.onDemandLookup(line, hit, now);
        for (int n = 0; n < 4; ++n)
            benchmark::DoNotOptimize(eip.popPrefetch());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EipDemandLookup);

void
BM_FtqPushPop(benchmark::State &state)
{
    // Entries carry the repair checkpoints Frontend::predictCycle takes.
    Bpu bpu(paperBaselineConfig().bpu);
    Rng rng(6);
    for (int i = 0; i < 400; ++i)
        bpu.history().pushBranch(rng.next(), rng.next(), true);
    Ftq ftq(24);
    std::uint64_t seq = 0;
    for (auto _ : state) {
        while (!ftq.full()) {
            FtqEntry e;
            e.seq = seq++;
            e.histSnap = bpu.history().snapshot();
            e.rasSnap = bpu.ras().snapshot();
            ftq.push(std::move(e));
        }
        while (!ftq.empty())
            ftq.popHead();
    }
    state.SetItemsProcessed(state.iterations() * 24);
}
BENCHMARK(BM_FtqPushPop);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    WorkloadSpec s = specCpuSpec("micro", 55);
    s.numFunctions = 48;
    auto wl = std::make_shared<Workload>(buildWorkload(s));
    const Trace trace = generateTrace(wl, 50000);
    CoreConfig cfg = paperBaselineConfig();
    for (auto _ : state) {
        Core core(cfg, trace, makePrefetcher("none"));
        benchmark::DoNotOptimize(core.run(0).cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadSpec s = clientSpec("micro", 66);
    s.numFunctions = 60;
    auto wl = std::make_shared<Workload>(buildWorkload(s));
    for (auto _ : state) {
        const Trace t = generateTrace(wl, 100000);
        benchmark::DoNotOptimize(t.insts.size());
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void
BM_ImageInstAt(benchmark::State &state)
{
    // One instAt per iteration over a server trace's PCs in trace
    // order, the pattern Frontend::scanInst reads the image in. The
    // sink sums each instruction's class and target so no read is
    // elided.
    const auto wl =
        std::make_shared<Workload>(buildWorkload(serverSpec("srv", 101)));
    const Trace trace = generateTrace(wl, 200000);
    std::vector<Addr> pcs(trace.size());
    for (std::size_t k = 0; k < trace.size(); ++k)
        pcs[k] = trace.pcOf(k);
    const ProgramImage &image = trace.image();
    Addr sink = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const StaticInst &si = image.instAt(pcs[i]);
        sink += static_cast<Addr>(si.cls) + si.target;
        i = i + 1 == pcs.size() ? 0 : i + 1;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImageInstAt);

void
BM_TraceDigest(benchmark::State &state)
{
    // The campaign benchmark's 15 traces (programs 0-4 of the server,
    // client and SPEC-like classes, workload seed 1, 100K instructions
    // each), hashed as buildManifest hashes them. The counter is host
    // time per byte the digest covers: 24 per static instruction (its
    // class, parameter and target as 64-bit words) plus 16 per dynamic
    // one.
    static const std::vector<SuiteEntry> suite = [] {
        std::vector<SuiteEntry> out;
        for (unsigned j = 0; j < 5; ++j) {
            const std::string n = std::to_string(j);
            for (const WorkloadSpec &spec :
                 {serverSpec("srv" + n, 101 + 1000 * j),
                  clientSpec("clt" + n, 201 + 1000 * j),
                  specCpuSpec("spec" + n, 301 + 1000 * j)}) {
                auto wl = std::make_shared<Workload>(buildWorkload(spec));
                out.push_back({spec.name, generateTrace(wl, 100000)});
            }
        }
        return out;
    }();
    double bytes = 0;
    for (const SuiteEntry &e : suite) {
        bytes += 24.0 * static_cast<double>(e.trace.image().numInsts()) +
                 16.0 * static_cast<double>(e.trace.size());
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        for (const SuiteEntry &e : suite)
            benchmark::DoNotOptimize(traceDigest(e));
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - t0;
    state.counters["ns_per_byte"] =
        elapsed.count() / (bytes * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TraceDigest)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace fdip

BENCHMARK_MAIN();
