#include "layers.h"

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "bpu/bpu.h"
#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "core/ftq.h"
#include "prefetch/factory.h"
#include "spans.h"

namespace perfbench
{

using namespace fdip;

namespace
{

double
secondsBetween(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** Ring of real snapshots taken during the BPU replay; the FTQ replay
 *  cycles through them so its entries carry live history state. */
constexpr std::size_t kSnapRing = 64;

struct SnapPair
{
    HistorySnapshot hist;
    RasSnapshot ras;
};

/** One recorded event of the L1I line stream. */
struct LineEvent
{
    enum Kind : std::uint8_t
    {
        kLookup,  ///< Demand probe (+ touch on hit); then `pops` drains.
        kPfProbe, ///< Prefetch candidate probe.
        kFill,    ///< L1I fill (demand or prefetch).
        kBranch,  ///< Committed branch (prefetcher onBranch).
    };
    Kind kind = kLookup;
    bool flag = false; ///< kLookup: hit; kFill: prefetch; kBranch: taken.
    InstClass cls = InstClass::kAlu;
    std::uint8_t pops = 0; ///< kLookup: prefetch candidates drained.
    Addr addr = kNoAddr;   ///< Line (or branch pc).
    Addr target = kNoAddr; ///< kBranch only.
    Cycle now = 0;
};

} // namespace

void
BpuReplay::add(const BpuReplay &o)
{
    insts += o.insts;
    blocks += o.blocks;
    branches += o.branches;
    btbBranchHits += o.btbBranchHits;
    condBranches += o.condBranches;
    dirCorrect += o.dirCorrect;
    indirects += o.indirects;
    indirectCorrect += o.indirectCorrect;
    seconds += o.seconds;
    snapshotSeconds += o.snapshotSeconds;
    ftqSeconds += o.ftqSeconds;
}

void
L1iReplay::add(const L1iReplay &o)
{
    insts += o.insts;
    demandAccesses += o.demandAccesses;
    demandHits += o.demandHits;
    fills += o.fills;
    cacheCalls += o.cacheCalls;
    branches += o.branches;
    pfIssued += o.pfIssued;
    pfRedundant += o.pfRedundant;
    cacheSeconds += o.cacheSeconds;
    fillSeconds += o.fillSeconds;
    lookupSeconds += o.lookupSeconds;
    branchSeconds += o.branchSeconds;
}

std::uint64_t
ftqEntryBytes()
{
    return sizeof(FtqEntry);
}

BpuReplay
replayBpu(const CoreConfig &cfg, const Trace &trace)
{
    BpuReplay out;
    Bpu bpu(cfg.bpu);
    std::vector<SnapPair> ring(kSnapRing);
    const std::size_t n = trace.size();
    out.insts = n;

    // Per slot, the calls Frontend::scanInst makes on the correct path;
    // per fetch block (32B-aligned, ended early by a taken branch), the
    // snapshot pair Frontend::predictCycle stores in the FTQ entry.
    Addr block_base = kNoAddr;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < n; ++i) {
        const Addr pc = trace.pcOf(i);
        const StaticInst &si = trace.staticOf(i);
        const DynInst &d = trace.insts[i];
        const bool taken = d.taken != 0;

        const Addr base = pc & ~static_cast<Addr>(kFetchBlockBytes - 1);
        if (base != block_base) {
            SnapPair &slot = ring[out.blocks % kSnapRing];
            slot.hist = bpu.history().snapshot();
            slot.ras = bpu.ras().snapshot();
            ++out.blocks;
            block_base = base;
        }

        const auto hit = bpu.lookupBranch(pc);
        if (!isBranch(si.cls))
            continue;
        ++out.branches;
        if (hit.has_value())
            ++out.btbBranchHits;

        if (isConditional(si.cls)) {
            ++out.condBranches;
            const DirectionPrediction dir = bpu.predictDirection(pc, taken);
            if (dir.taken == taken)
                ++out.dirCorrect;
            bpu.updateDirection(pc, taken, dir);
        }
        if (isIndirect(si.cls)) {
            ++out.indirects;
            IttagePrediction meta;
            if (bpu.predictIndirect(pc, meta) == d.info)
                ++out.indirectCorrect;
            bpu.updateIndirect(pc, d.info, meta);
        }
        if (isCall(si.cls))
            bpu.ras().push(pc + kInstBytes);
        else if (isReturn(si.cls))
            (void)bpu.ras().pop();

        bpu.insertBranch(pc, si.cls, taken ? d.info : si.target, taken);
        if (bpu.history().recordsEvent(taken))
            bpu.history().pushBranch(pc, taken ? d.info : pc + kInstBytes,
                                     taken);
        if (taken)
            block_base = kNoAddr; // A taken branch ends the fetch block.
    }
    const std::int64_t t1 = nowNs();
    out.seconds = secondsBetween(t0, t1);

    // Snapshot cost on its own: one pair per fetch block.
    const std::int64_t t2 = nowNs();
    for (std::uint64_t b = 0; b < out.blocks; ++b) {
        SnapPair &slot = ring[b % kSnapRing];
        slot.hist = bpu.history().snapshot();
        slot.ras = bpu.ras().snapshot();
    }
    const std::int64_t t3 = nowNs();
    out.snapshotSeconds = secondsBetween(t2, t3);

    // FTQ replay: one push (and, once full, one popHead) per block, each
    // entry built the way predictCycle builds it.
    Ftq ftq(cfg.ftqEntries);
    const std::int64_t t4 = nowNs();
    for (std::uint64_t b = 0; b < out.blocks; ++b) {
        if (ftq.full())
            ftq.popHead();
        const SnapPair &slot = ring[b % kSnapRing];
        FtqEntry e;
        e.startAddr = static_cast<Addr>(b) * kFetchBlockBytes;
        e.state = FtqState::kPredicted;
        e.seq = b;
        e.histSnap = slot.hist;
        e.rasSnap = slot.ras;
        ftq.push(std::move(e));
    }
    const std::int64_t t5 = nowNs();
    out.ftqSeconds = secondsBetween(t4, t5);
    return out;
}

L1iReplay
replayL1i(const CoreConfig &cfg, const std::string &prefetcher,
          const Trace &trace)
{
    L1iReplay out;
    const std::size_t n = trace.size();
    out.insts = n;

    // Record pass: the demand line stream, prefetch drains (up to
    // prefetchesPerCycle candidates per demand lookup) and fills, with
    // the instruction index as the clock (fills complete at once).
    std::vector<LineEvent> events;
    events.reserve(n / 2);
    {
        Bpu bpu(cfg.bpu);
        Cache l1i(cfg.l1i);
        MemoryHierarchy mem(cfg.mem);
        std::unique_ptr<InstPrefetcher> pf = makePrefetcher(prefetcher);
        pf->bind(bpu, trace.image());
        Addr last_line = kNoAddr;
        for (std::size_t i = 0; i < n; ++i) {
            const Addr pc = trace.pcOf(i);
            const Cycle now = i;
            const Addr line = l1i.lineOf(pc);
            if (line != last_line) {
                last_line = line;
                const bool hit = l1i.probe(line).has_value();
                ++out.demandAccesses;
                const std::size_t lookup_idx = events.size();
                events.push_back({LineEvent::kLookup, hit, InstClass::kAlu,
                                  0, line, kNoAddr, now});
                pf->onDemandLookup(line, hit, now);
                if (hit) {
                    ++out.demandHits;
                    l1i.touch(line);
                } else {
                    const FillResult r = mem.fetchInstLine(line, now);
                    l1i.fill(line);
                    events.push_back({LineEvent::kFill, false,
                                      InstClass::kAlu, 0, line, kNoAddr,
                                      r.ready});
                    pf->onFillComplete(line, false, r.ready);
                }
                for (unsigned k = 0; k < cfg.prefetchesPerCycle; ++k) {
                    const Addr p = pf->popPrefetch();
                    if (p == kNoAddr)
                        break;
                    ++events[lookup_idx].pops;
                    ++out.pfIssued;
                    const bool resident = l1i.probe(p).has_value();
                    events.push_back({LineEvent::kPfProbe, resident,
                                      InstClass::kAlu, 0, p, kNoAddr, now});
                    if (resident) {
                        ++out.pfRedundant;
                        continue;
                    }
                    const FillResult r = mem.fetchInstLine(p, now);
                    l1i.fill(p);
                    events.push_back({LineEvent::kFill, true,
                                      InstClass::kAlu, 0, p, kNoAddr,
                                      r.ready});
                    pf->onFillComplete(p, true, r.ready);
                }
            }
            const StaticInst &si = trace.staticOf(i);
            if (isBranch(si.cls)) {
                const DynInst &d = trace.insts[i];
                const bool taken = d.taken != 0;
                const Addr target = taken ? d.info : si.target;
                ++out.branches;
                events.push_back({LineEvent::kBranch, taken, si.cls, 0, pc,
                                  target, now});
                pf->onBranch(pc, si.cls, target, taken);
            }
        }
    }

    // L1I alone: every probe, touch and fill the stream made.
    {
        Cache l1i(cfg.l1i);
        std::uint64_t calls = 0;
        const std::int64_t t0 = nowNs();
        for (const LineEvent &e : events) {
            switch (e.kind) {
            case LineEvent::kLookup:
                if (l1i.probe(e.addr).has_value()) {
                    l1i.touch(e.addr);
                    ++calls;
                }
                ++calls;
                break;
            case LineEvent::kPfProbe:
                (void)l1i.probe(e.addr);
                ++calls;
                break;
            case LineEvent::kFill:
                (void)l1i.fill(e.addr);
                ++out.fills;
                ++calls;
                break;
            case LineEvent::kBranch:
                break;
            }
        }
        const std::int64_t t1 = nowNs();
        out.cacheSeconds = secondsBetween(t0, t1);
        out.cacheCalls = calls;
    }

    // The hierarchy below the L1I: one fetchInstLine per fill.
    {
        MemoryHierarchy mem(cfg.mem);
        const std::int64_t t0 = nowNs();
        for (const LineEvent &e : events) {
            if (e.kind == LineEvent::kFill)
                (void)mem.fetchInstLine(e.addr, e.now);
        }
        const std::int64_t t1 = nowNs();
        out.fillSeconds = secondsBetween(t0, t1);
    }

    // The prefetcher's L1I-side hooks (lookup, fill completion, queue
    // drain), then its branch hook, each on a fresh instance.
    {
        Bpu bpu(cfg.bpu);
        std::unique_ptr<InstPrefetcher> pf = makePrefetcher(prefetcher);
        pf->bind(bpu, trace.image());
        const std::int64_t t0 = nowNs();
        for (const LineEvent &e : events) {
            if (e.kind == LineEvent::kLookup) {
                pf->onDemandLookup(e.addr, e.flag, e.now);
                for (unsigned k = 0; k < e.pops; ++k)
                    (void)pf->popPrefetch();
            } else if (e.kind == LineEvent::kFill) {
                pf->onFillComplete(e.addr, e.flag, e.now);
            }
        }
        const std::int64_t t1 = nowNs();
        out.lookupSeconds = secondsBetween(t0, t1);
    }
    {
        Bpu bpu(cfg.bpu);
        std::unique_ptr<InstPrefetcher> pf = makePrefetcher(prefetcher);
        pf->bind(bpu, trace.image());
        const std::int64_t t0 = nowNs();
        for (const LineEvent &e : events) {
            if (e.kind == LineEvent::kBranch)
                pf->onBranch(e.addr, e.cls, e.target, e.flag);
        }
        const std::int64_t t1 = nowNs();
        out.branchSeconds = secondsBetween(t0, t1);
    }
    return out;
}

} // namespace perfbench
