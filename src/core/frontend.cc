#include "core/frontend.h"

#include <algorithm>

#include "util/invariant.h"
#include "check/invariants.h"
#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Frontend::Frontend(const CoreConfig &cfg, const Trace &trace, Bpu &bpu,
                   Backend &backend, MemoryHierarchy &mem,
                   InstPrefetcher &prefetcher, SimStats &stats)
    : cfg_(cfg),
      trace_(trace),
      image_(trace.image()),
      bpu_(bpu),
      backend_(backend),
      mem_(mem),
      prefetcher_(prefetcher),
      stats_(stats),
      ftq_(cfg.ftqEntries),
      l1i_(cfg.l1i),
      itlb_(itlbCacheConfig(cfg.itlbEntries)),
      fills_(cfg.l1iMshrs),
      ftqOccupancy_(cfg.ftqEntries + 1, 1),
      fillLatency_(64, 8),
      predPc_(trace.workload->entryPc),
      // Usefulness tracking is bounded by the lines that can carry the
      // "prefetched" mark: L1I residency + the optional prefetch buffer
      // + in-flight fills. Preallocate for that bound.
      linePrefetched_(cfg.l1i.sizeBytes / cfg.l1i.lineBytes +
                      cfg.prefetchBufferLines + cfg.l1iMshrs)
{
    if constexpr (kInvariantChecksEnabled)
        checkCoreConfig(cfg_);
    if (cfg_.usePrefetchBuffer) {
        prefetchBuffer_ = std::make_unique<Cache>(
            prefetchBufferConfig(cfg_.prefetchBufferLines));
    }
}

FDIP_HOT_PATH void
Frontend::tick(Cycle now) FDIP_HOT_NOEXCEPT
{
    // Exposure accounting (Fig. 14): when the decode queue is starved
    // while the head FTQ entry waits on a fill, that fill's miss is
    // (at least partially) exposed.
    if (!ftq_.empty() &&
        backend_.decodeQueueSize() < cfg_.fetchBandwidth) {
        const FtqEntry &h = ftq_.at(0);
        if (h.state == FtqState::kFilling) {
            for (auto &f : fills_) {
                if (f.line == h.lineAddr) {
                    f.starvedWhileBlocking = true;
                    break;
                }
            }
        }
    }

    if (profiler_ != nullptr)
        profiler_->begin(TickPhase::kIcache);
    processFills(now);
    fetchCycle(now);
    if (profiler_ != nullptr) {
        profiler_->end(TickPhase::kIcache);
        profiler_->begin(TickPhase::kPrefetcher);
    }
    drainPrefetchQueue(now);
    if (profiler_ != nullptr) {
        profiler_->end(TickPhase::kPrefetcher);
        profiler_->begin(TickPhase::kBpu);
    }
    predictCycle(now);
    if (profiler_ != nullptr)
        profiler_->end(TickPhase::kBpu);

    ftqOccupancy_.add(ftq_.size());
    if (tracer_.on() && ftq_.size() != lastTracedOccupancy_) {
        lastTracedOccupancy_ = ftq_.size();
        tracer_.writer()->counter("ftq", now, "occupancy",
                                  lastTracedOccupancy_);
    }

    if constexpr (kInvariantChecksEnabled)
        checkTickInvariants(now);
}

FDIP_HOT_PATH CycleSignals
Frontend::cycleSignals(Cycle now) const FDIP_HOT_NOEXCEPT
{
    CycleSignals sig;
    // A redirect bubble (flush restart, PFC/fixup re-steer, or an
    // L2-BTB re-steer) holds the predict stage; that is the classic
    // recovery shadow.
    sig.flushRestart = now < predStallUntil_;
    // An unresolved divergence whose cause was an undetected taken
    // branch: the frontend is running down a BTB-miss wrong path, so
    // any fetch stall until resolution is the BTB's fault.
    sig.btbMissWrongPath =
        pending_.has_value() && pending_->cause == kCauseBtbMissTaken;
    sig.itlbWait = now < itlbStallUntil_;
    sig.l1iWait =
        !ftq_.empty() && ftq_.at(0).state == FtqState::kFilling;
    sig.redirectShadow = now < redirectShadowUntil_;
    return sig;
}

void
Frontend::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    ftq_.registerStats(reg, prefix + ".ftq");
    reg.addHistogram(prefix + ".ftq.occupancy", &ftqOccupancy_,
                     "FTQ occupancy sampled every cycle");
    reg.addHistogram(prefix + ".fill_latency", &fillLatency_,
                     "issue-to-fill latency of demand-touched L1I fills");
    l1i_.registerStats(reg, prefix + ".l1i");
    itlb_.registerStats(reg, prefix + ".itlb");
    if (prefetchBuffer_)
        prefetchBuffer_->registerStats(reg, prefix + ".pfb");
    reg.addCounter(prefix + ".prefetch_tracking_entries",
                   [this] {
                       return std::uint64_t{prefetchTrackingEntries()};
                   },
                   "lines tracked for usefulness accounting");
}

FDIP_HOT_PATH void
Frontend::checkTickInvariants(Cycle now)
{
    InvariantScope scope("Frontend::tick");
    FDIP_CHECK(now >= lastTickPlus1_,
               "tick at cycle %llu after cycle %llu (time ran backwards)",
               static_cast<unsigned long long>(now),
               static_cast<unsigned long long>(lastTickPlus1_ - 1));
    lastTickPlus1_ = now + 1;
    FDIP_CHECK(fills_.size() <= cfg_.l1iMshrs,
               "%zu in-flight fills exceed %u MSHRs", fills_.size(),
               cfg_.l1iMshrs);
    checkFtqIntegrity(ftq_);
    checkCacheConservation(l1i_);
    checkSimStats(stats_);
}

FDIP_HOT_PATH void
Frontend::forgetEvicted(Addr evicted_line)
{
    if (evicted_line != kNoAddr)
        linePrefetched_.erase(evicted_line);
}

// ---------------------------------------------------------------------
// Prediction pipeline.
// ---------------------------------------------------------------------

FDIP_HOT_PATH void
Frontend::pushHistoryEvent(Addr pc, Addr target, bool taken)
{
    bpu_.history().pushBranch(pc, target, taken);
}

FDIP_HOT_PATH void
Frontend::predictCycle(Cycle now)
{
    if (now < predStallUntil_)
        return;

    unsigned budget = cfg_.predictBandwidth;
    unsigned taken_budget = cfg_.maxTakenPerCycle;
    bool stop = false;

    while (budget > 0 && !stop) {
        if (ftq_.full())
            break;
        if (onCorrectPath_ && tracePos_ >= trace_.size())
            break; // Whole trace predicted; drain only.

        // Build the block in the FTQ's tail slot: nothing reads the
        // queue until this tick's checks, after the block is complete.
        FtqEntry &e = ftq_.pushSlot();
        e.startBlock(predPc_);
        e.state = FtqState::kPredicted;
        e.readyAt = now + cfg_.btbLatency;
        e.seq = blockSeq_++;
        e.traceIdx = tracePos_;
        e.onCorrectPath = onCorrectPath_;
        e.histSnap = bpu_.history().snapshot();
        e.rasSnap = bpu_.ras().snapshot();
        e.lineAddr = l1i_.lineOf(e.startAddr);

        std::uint8_t off = e.startOffset();
        for (;;) {
            const ScanResult r = scanInst(e, off, now);
            --budget;

            if (r.predTaken) {
                e.predictedTaken = true;
                e.termOffset = off;
                predPc_ = r.target;
                if (l2BtbBubble_ > 0) {
                    // The late L2-BTB re-steer ends the cycle and
                    // bubbles the prediction pipeline.
                    predStallUntil_ = now + l2BtbBubble_;
                    l2BtbBubble_ = 0;
                    stop = true;
                } else if (--taken_budget == 0) {
                    stop = true;
                }
                break;
            }
            if (onCorrectPath_ && tracePos_ >= trace_.size()) {
                e.termOffset = off;
                predPc_ = e.pcAt(off) + kInstBytes;
                stop = true;
                break;
            }
            if (off == kInstsPerBlock - 1) {
                e.termOffset = off;
                predPc_ = e.blockBase() + kFetchBlockBytes;
                break;
            }
            if (budget == 0) {
                e.termOffset = off;
                predPc_ = e.pcAt(off) + kInstBytes;
                stop = true;
                break;
            }
            ++off;
        }
        FDIP_TRACE_EVENT(tracer_,
                         instant("ftq_enqueue", "ftq", kTraceTidPredict,
                                 now,
                                 {{"addr", e.startAddr},
                                  {"seq", e.seq},
                                  {"insts", e.numInsts()}}));
    }
}

FDIP_HOT_PATH Frontend::ScanResult
Frontend::scanInst(FtqEntry &entry, std::uint8_t offset, Cycle now)
{
    (void)now;
    const Addr pc = entry.pcAt(offset);
    const StaticInst &si = image_.instAt(pc);
    const bool have_oracle = onCorrectPath_;

    // Sanity: the correct-path stream must match the trace.
    if (have_oracle && trace_.pcOf(tracePos_) != pc) {
        fdip_panic("correct-path scan at %#llx but trace[%llu] is %#llx",
                   static_cast<unsigned long long>(pc),
                   static_cast<unsigned long long>(tracePos_),
                   static_cast<unsigned long long>(trace_.pcOf(tracePos_)));
    }

    // ---- BTB (or oracle branch detection under a perfect BTB).
    bool detected = false;
    bool from_l2_btb = false;
    BtbHit hit;
    if (cfg_.bpu.perfectBtb) {
        if (isBranch(si.cls)) {
            detected = true;
            hit.kind = si.cls;
            hit.target = si.target;
        }
    } else {
        const auto h = bpu_.lookupBranch(pc);
        if (h.has_value()) {
            detected = true;
            hit = h->hit;
            from_l2_btb = h->fromL2;
        }
    }
    if (detected)
        entry.detectedMask |= static_cast<std::uint8_t>(1u << offset);

    // Oracle outcome (correct path only).
    bool actual_taken = false;
    Addr actual_next = pc + kInstBytes;
    if (have_oracle) {
        actual_taken = trace_.taken(tracePos_);
        if (isBranch(si.cls) && actual_taken)
            actual_next = trace_.nextPc(tracePos_);
    }

    // ---- Direction hint (EV8-style: hints exist for every slot; we
    // only compute them for real conditional branches — hints of
    // non-branches are never consulted). On the first correct-path
    // visit the prediction trains right here, under the train-once
    // guard of the oracle bookkeeping below: nothing in between reads
    // the direction predictor.
    bool hint;
    if (isConditional(si.cls)) {
        const DirectionPrediction dir =
            bpu_.predictDirection(pc, actual_taken);
        hint = dir.taken;
        if (have_oracle && tracePos_ >= trainedUpTo_)
            bpu_.updateDirection(pc, actual_taken, dir);
    } else {
        hint = isBranch(si.cls);
    }
    if (hint)
        entry.dirHints |= static_cast<std::uint8_t>(1u << offset);

    // ---- Block-termination decision and target computation.
    ScanResult r;
    IttagePrediction itt_meta;
    bool used_ittage = false;
    if (detected) {
        r.predTaken = isConditional(hit.kind) ? hint : true;
        if (r.predTaken) {
            if (isIndirect(hit.kind)) {
                if (cfg_.bpu.perfectIndirect && have_oracle) {
                    r.target = actual_taken ? actual_next : pc + kInstBytes;
                } else {
                    const Addr t = bpu_.predictIndirect(pc, itt_meta);
                    used_ittage = true;
                    r.target = t != kNoAddr ? t : hit.target;
                }
            } else if (isReturn(hit.kind)) {
                r.target = bpu_.ras().pop();
                if (r.target == kNoAddr)
                    r.target = hit.target;
            } else {
                r.target = hit.target;
            }
            if (r.target == kNoAddr)
                r.target = pc + kInstBytes;
            if (isCall(hit.kind))
                bpu_.ras().push(pc + kInstBytes);
        }
    }

    // ---- Oracle bookkeeping: training (once per trace position) and
    // divergence detection.
    if (have_oracle) {
        const bool first_visit = tracePos_ >= trainedUpTo_;
        if (first_visit) {
            trainedUpTo_ = tracePos_ + 1;
            if (isIndirect(si.cls)) {
                if (!used_ittage)
                    bpu_.predictIndirect(pc, itt_meta);
                bpu_.updateIndirect(pc, trace_.insts.info(tracePos_),
                                    itt_meta);
            }
            // A taken branch's info is where the committed path went.
            const Addr target = actual_taken ? actual_next : si.target;
            if (isBranch(si.cls) && !cfg_.bpu.perfectBtb)
                bpu_.insertBranch(pc, si.cls, target, actual_taken);
            if (isBranch(si.cls))
                prefetcher_.onBranch(pc, si.cls, target, actual_taken);
        }

        const Addr frontend_next =
            r.predTaken ? r.target : pc + kInstBytes;
        if (frontend_next != actual_next) {
            std::uint8_t cause;
            if (!detected) {
                cause = kCauseBtbMissTaken;
            } else if (isConditional(hit.kind) &&
                       r.predTaken != actual_taken) {
                cause = kCauseCondDir;
            } else {
                cause = kCauseTarget;
            }
            recordDivergence(entry, offset, pc, si, cause);
        } else {
            ++tracePos_;
        }
    }

    // ---- Modeled history update (per policy) + block event record.
    bool pushed = false;
    bool event_taken = r.predTaken;
    switch (bpu_.history().policy()) {
      case HistoryPolicy::kTargetHistory:
        if (detected && r.predTaken) {
            pushHistoryEvent(pc, r.target, true);
            pushed = true;
            event_taken = true;
        }
        break;
      case HistoryPolicy::kDirectionHistory:
        if (detected) {
            pushHistoryEvent(pc, r.target, r.predTaken);
            pushed = true;
        }
        break;
      case HistoryPolicy::kIdealDirectionHistory:
        if (have_oracle) {
            // Oracle detection: every actual branch updates history.
            if (isBranch(si.cls)) {
                pushHistoryEvent(pc, r.target, actual_taken);
                pushed = true;
                event_taken = actual_taken;
            }
        } else if (detected) {
            pushHistoryEvent(pc, r.target, r.predTaken);
            pushed = true;
        }
        break;
    }

    // A taken re-steer served from the L2 BTB arrives late: charge the
    // prediction pipeline the configured bubble (two-level extension).
    if (detected && r.predTaken && from_l2_btb &&
        cfg_.bpu.btbHierarchy.enabled) {
        l2BtbBubble_ = cfg_.bpu.btbHierarchy.l2ExtraLatency;
    }

    if (pushed || (detected && r.predTaken &&
                   (isCall(hit.kind) || isReturn(hit.kind)))) {
        BlockEvent ev;
        ev.pc = pc;
        ev.target = r.target;
        ev.offset = offset;
        ev.kind = detected ? hit.kind : si.cls;
        ev.taken = event_taken;
        ev.pushedHistory = pushed;
        entry.events[entry.numEvents++] = ev;
    }

    return r;
}

FDIP_HOT_PATH void
Frontend::recordDivergence(FtqEntry &entry, std::uint8_t offset, Addr pc,
                           const StaticInst &si, std::uint8_t cause)
{
    const bool actual_taken = trace_.taken(tracePos_);
    const Addr target =
        actual_taken ? trace_.insts.info(tracePos_) : si.target;

    PendingDivergence p;
    p.token = nextToken_++;
    p.traceIdx = tracePos_;
    p.correctNext = actual_taken ? target : pc + kInstBytes;
    p.cause = cause;

    // Repair context: the owning block's snapshots plus the event
    // prefix recorded so far (all strictly before this instruction),
    // plus the corrected event itself.
    p.blockHistSnap = entry.histSnap;
    p.blockRasSnap = entry.rasSnap;
    p.numPrefix = entry.numEvents;
    for (unsigned i = 0; i < entry.numEvents; ++i)
        p.prefix[i] = entry.events[i];

    const HistoryPolicy pol = bpu_.history().policy();
    p.corrected.pc = pc;
    p.corrected.target = target;
    p.corrected.offset = offset;
    p.corrected.kind = si.cls;
    p.corrected.taken = actual_taken;
    p.corrected.pushedHistory =
        (pol == HistoryPolicy::kTargetHistory && actual_taken) ||
        (pol != HistoryPolicy::kTargetHistory && isBranch(si.cls));

    entry.divergeOffset = offset;
    onCorrectPath_ = false;
    pending_ = p;
}

// ---------------------------------------------------------------------
// Fetch pipeline.
// ---------------------------------------------------------------------

FDIP_HOT_PATH void
Frontend::processFills(Cycle now)
{
    for (std::size_t i = 0; i < fills_.size();) {
        InflightFill &f = fills_[i];
        if (f.ready > now) {
            ++i;
            continue;
        }
        unsigned way = 0;
        if (prefetchBuffer_ && f.isPrefetch && !f.demandTouched) {
            // Original-FDP mode: untouched prefetches land in the
            // side buffer and only enter the L1I on a demand hit.
            prefetchBuffer_->fill(f.line);
        } else {
            forgetEvicted(l1i_.fill(f.line, &way));
        }
        linePrefetched_.put(f.line, f.isPrefetch && !f.demandTouched);

        // Wake FTQ entries waiting on this line.
        for (std::size_t q = 0; q < ftq_.size(); ++q) {
            FtqEntry &e = ftq_.at(q);
            if (e.state == FtqState::kFilling && e.lineAddr == f.line) {
                e.state = FtqState::kReady;
                e.icacheWay = static_cast<std::uint8_t>(way);
                e.deliverableAt = now + 1; // Fill data forwards directly.
            }
        }

        // Exposure classification for demand-touched transactions
        // (paper Fig. 14): fully exposed when the request only started
        // at the FTQ head; partially exposed when starvation was
        // observed while the fill blocked the head; covered otherwise.
        if (f.demandTouched) {
            if (f.wasHeadStart) {
                ++stats_.missFullyExposed;
            } else if (f.starvedWhileBlocking) {
                ++stats_.missPartiallyExposed;
            } else {
                ++stats_.missCovered;
            }
        }

        if (f.demandTouched)
            fillLatency_.add(now - f.issued);
        FDIP_TRACE_EVENT(tracer_,
                         asyncEnd(f.isPrefetch ? "prefetch_fill"
                                               : "demand_fill",
                                  "mem", f.line, now));

        prefetcher_.onFillComplete(f.line, f.isPrefetch, now);
        fills_.removeSwap(i);
    }
}

FDIP_HOT_PATH void
Frontend::probeEntry(FtqEntry &entry, std::size_t pos, Cycle now)
{
    // ITLB first (4KB pages). Consecutive FTQ entries mostly stay on one
    // page (over 90% of ITLB accesses hit the last way hit or filled),
    // so that way is checked before the scan of the ITLB.
    const Addr page = entry.startAddr & ~static_cast<Addr>(4095);
    const std::optional<unsigned> itlb_way = itlb_.access(page, itlbWay_);
    if (!itlb_way.has_value()) {
        itlb_.fill(page, &itlbWay_);
        ++stats_.itlbMisses;
        entry.readyAt = now + cfg_.itlbMissPenalty;
        // Cycle-accounting signal: a head-blocking ITLB refill is a
        // distinct stall cause (observation-only; never read back).
        if (pos == 0 && entry.readyAt > itlbStallUntil_)
            itlbStallUntil_ = entry.readyAt;
        return;
    }
    itlbWay_ = *itlb_way;

    // Perfect-prefetch mode: the line is always resident by the time
    // the demand probe happens, but the request still generates
    // traffic (paper [32]).
    if (cfg_.perfectPrefetch && !cfg_.perfectICache &&
        !l1i_.contains(entry.lineAddr)) {
        mem_.fetchInstLine(entry.lineAddr, now);
        forgetEvicted(l1i_.fill(entry.lineAddr));
    }

    // L1I tag probe.
    ++stats_.l1iDemandAccesses;
    ++stats_.l1iTagAccesses;
    if (cfg_.perfectICache) {
        entry.state = FtqState::kReady;
        entry.icacheWay = 0;
        entry.deliverableAt = now + cfg_.l1iHitLatency;
        return;
    }

    const auto way = l1i_.probe(entry.lineAddr);
    prefetcher_.onDemandLookup(entry.lineAddr, way.has_value(), now);
    if (way.has_value()) {
        if (bool *was_pf = linePrefetched_.find(entry.lineAddr);
            was_pf != nullptr && *was_pf) {
            ++stats_.prefetchesUseful;
            *was_pf = false;
        }
        l1i_.touch(entry.lineAddr);
        entry.state = FtqState::kReady;
        entry.icacheWay = static_cast<std::uint8_t>(*way);
        entry.deliverableAt = now + cfg_.l1iHitLatency;
        return;
    }

    // Prefetch-buffer probe (parallel with the L1I tags).
    if (prefetchBuffer_ && prefetchBuffer_->access(entry.lineAddr)) {
        prefetchBuffer_->invalidate(entry.lineAddr);
        forgetEvicted(l1i_.fill(entry.lineAddr));
        if (bool *was_pf = linePrefetched_.find(entry.lineAddr);
            was_pf != nullptr && *was_pf) {
            ++stats_.prefetchesUseful;
            *was_pf = false;
        }
        entry.state = FtqState::kReady;
        entry.icacheWay = 0;
        entry.deliverableAt = now + cfg_.l1iHitLatency;
        return;
    }

    ++stats_.l1iDemandMisses;

    // Merge with an in-flight fill if one covers this line.
    for (auto &f : fills_) {
        if (f.line == entry.lineAddr) {
            entry.state = FtqState::kFilling;
            if (!f.demandTouched) {
                f.demandTouched = true;
                f.wasHeadStart = pos == 0;
                FDIP_TRACE_EVENT(
                    tracer_,
                    instant("demand_merge", "mem", kTraceTidMemory, now,
                            {{"line", f.line},
                             {"into_prefetch", f.isPrefetch ? 1u : 0u}}));
            }
            return;
        }
    }

    // Allocate an MSHR and issue the fill.
    if (fills_.size() >= cfg_.l1iMshrs)
        return; // Retry next cycle (entry stays kPredicted).

    const FillResult r = mem_.fetchInstLine(entry.lineAddr, now);
    InflightFill f;
    f.line = entry.lineAddr;
    f.ready = r.ready;
    f.issued = now;
    f.isPrefetch = false;
    f.demandTouched = true;
    f.wasHeadStart = pos == 0;
    fills_.pushBack(f);
    entry.state = FtqState::kFilling;
    FDIP_TRACE_EVENT(tracer_,
                     asyncBegin("demand_fill", "mem", entry.lineAddr, now,
                                {{"line", entry.lineAddr},
                                 {"head_start", pos == 0 ? 1u : 0u}}));
}

FDIP_HOT_PATH void
Frontend::fetchCycle(Cycle now)
{
    // ---- I-cache fill stage: the two oldest translation-ready entries
    // probe the ITLB and L1I tags. No entry before the probe cursor is
    // kPredicted, so the scan starts there.
    unsigned probes = cfg_.fetchProbesPerCycle;
    for (std::size_t q = ftq_.probed(); q < ftq_.size() && probes > 0;
         ++q) {
        FtqEntry &e = ftq_.at(q);
        if (e.state == FtqState::kPredicted && e.readyAt <= now) {
            probeEntry(e, q, now);
            --probes;
        }
        if (q == ftq_.probed() && e.state != FtqState::kPredicted)
            ftq_.advanceProbed();
    }

    deliverFromHead(now);
}

FDIP_HOT_PATH void
Frontend::deliverFromHead(Cycle now)
{
    unsigned budget = cfg_.fetchBandwidth;
    while (budget > 0 && !ftq_.empty()) {
        FtqEntry &h = ftq_.at(0);
        if (h.state != FtqState::kReady || h.deliverableAt > now)
            break;

        if (!h.predecoded) {
            h.predecoded = true;
            predecodeEntry(h, now);
            // Even when PFC/fixup truncated the entry, the surviving
            // prefix still delivers this cycle.
        }

        while (budget > 0 && h.nextDeliverOffset <= h.termOffset) {
            if (backend_.decodeQueueSpace() == 0)
                return;
            const std::uint8_t off = h.nextDeliverOffset;
            const Addr pc = h.pcAt(off);
            const StaticInst &si = image_.instAt(pc);

            DeliveredInst d;
            d.seq = instSeq_++;
            d.cls = si.cls;
            d.deliverCycle = now;
            d.onCorrectPath = h.onCorrectPath && off <= h.divergeOffset;
            if (d.onCorrectPath) {
                d.traceIdx =
                    h.traceIdx + (off - h.startOffset());
                d.taken = trace_.taken(d.traceIdx);
                if (si.cls == InstClass::kLoad ||
                    si.cls == InstClass::kStore) {
                    d.memAddr = trace_.memAddr(d.traceIdx);
                }
                if (pending_.has_value() && !pending_->delivered &&
                    pending_->traceIdx == d.traceIdx) {
                    d.resolveToken = pending_->token;
                    pending_->delivered = true;
                }
                ++stats_.deliveredInsts;
            } else {
                ++stats_.wrongPathDelivered;
            }
            backend_.deliver(d);
            ++h.nextDeliverOffset;
            --budget;
        }

        if (h.nextDeliverOffset > h.termOffset) {
            FDIP_TRACE_EVENT(tracer_,
                             instant("ftq_dequeue", "ftq", kTraceTidFetch,
                                     now,
                                     {{"addr", h.startAddr},
                                      {"seq", h.seq}}));
            ftq_.popHead();
        } else {
            break;
        }
    }
}

FDIP_HOT_PATH bool
Frontend::predecodeEntry(FtqEntry &entry, Cycle now)
{
    // Scan instructions before the block-termination offset — plus the
    // terminating slot itself when the block ended sequentially (a
    // branch there that the predictor missed also steers the next
    // block wrong). Any branch the prediction pipeline should have
    // ended the block at is a PFC/fixup candidate (paper Fig. 5).
    for (std::uint8_t o = entry.startOffset(); o <= entry.termOffset;
         ++o) {
        if (o == entry.termOffset && entry.predictedTaken)
            break; // Block correctly ends in a predicted-taken branch.
        const Addr pc = entry.pcAt(o);
        const StaticInst &si = image_.instAt(pc);
        if (!isBranch(si.cls))
            continue;
        const bool detected =
            (entry.detectedMask >> o) & 1;
        if (detected)
            continue; // The predictor saw it and chose fall-through.

        if (isUnconditional(si.cls)) {
            // PFC case 1: an undetected unconditional branch. The
            // pre-decoder can recover PC-relative and return targets;
            // register-indirect targets must wait for execution.
            if (cfg_.pfcEnabled &&
                (isDirect(si.cls) || isReturn(si.cls))) {
                triggerPfc(entry, o, si, now);
                return true;
            }
        } else {
            // Conditional, undetected.
            if (cfg_.pfcEnabled && !cfg_.pfcUnconditionalOnly &&
                entry.hintAt(o)) {
                // PFC case 2: direction predictor says taken.
                triggerPfc(entry, o, si, now);
                return true;
            }
            if (cfg_.ghrFixup() &&
                bpu_.history().policy() ==
                    HistoryPolicy::kDirectionHistory) {
                triggerGhrFixup(entry, o, now);
                return true;
            }
        }
    }
    return false;
}

FDIP_HOT_PATH void
Frontend::replayEvent(const BlockEvent &ev)
{
    if (ev.pushedHistory)
        pushHistoryEvent(ev.pc, ev.target, ev.taken);
    if (ev.taken && isCall(ev.kind))
        bpu_.ras().push(ev.pc + kInstBytes);
    else if (ev.taken && isReturn(ev.kind))
        bpu_.ras().pop();
}

FDIP_HOT_PATH void
Frontend::rewindToPrefix(const FtqEntry &entry, std::uint8_t offset)
{
    bpu_.history().restore(entry.histSnap);
    bpu_.ras().restore(entry.rasSnap);
    for (unsigned i = 0; i < entry.numEvents; ++i) {
        const BlockEvent &ev = entry.events[i];
        if (ev.offset >= offset)
            break;
        replayEvent(ev);
    }
}

FDIP_HOT_PATH void
Frontend::triggerPfc(FtqEntry &entry, std::uint8_t offset,
                     const StaticInst &si, Cycle now)
{
    ++stats_.pfcFires;
    const Addr pc = entry.pcAt(offset);

    // Rebuild speculative state to just before the PFC branch, then
    // apply the PFC belief: this branch is taken.
    rewindToPrefix(entry, offset);

    Addr target;
    if (isReturn(si.cls)) {
        target = bpu_.ras().pop();
        if (target == kNoAddr)
            target = pc + kInstBytes;
    } else {
        target = si.target;
    }
    if (isCall(si.cls))
        bpu_.ras().push(pc + kInstBytes);
    pushHistoryEvent(pc, target, true);

    FDIP_TRACE_EVENT(tracer_,
                     instant("pfc_fire", "pfc", kTraceTidFetch, now,
                             {{"pc", pc}, {"target", target}}));

    // Truncate this entry at the PFC branch and flush younger entries.
    entry.termOffset = offset;
    entry.predictedTaken = true;

    // Find this entry's position (it is the head during pre-decode).
    ftq_.truncateAfter(1);

    predPc_ = target;
    predStallUntil_ = now + 1;
    redirectShadowUntil_ = now + cfg_.btbLatency + 1;

    // Oracle accounting.
    const bool inst_correct =
        entry.onCorrectPath && offset <= entry.divergeOffset;
    if (inst_correct) {
        const InstSeq j = entry.traceIdx + (offset - entry.startOffset());
        const bool actual_taken = trace_.taken(j);
        const Addr actual_next =
            actual_taken ? trace_.insts.info(j) : pc + kInstBytes;
        if (pending_.has_value() && !pending_->delivered)
            pending_.reset();
        if (actual_taken && actual_next == target) {
            ++stats_.pfcCorrect;
            onCorrectPath_ = true;
            tracePos_ = j + 1;
            // The PFC branch itself resolved early: clear any stale
            // divergence bookkeeping on this entry.
            if (entry.divergeOffset == offset)
                entry.divergeOffset = 255;
        } else {
            ++stats_.pfcWrong;
            onCorrectPath_ = false;
            // The PFC mis-steered a branch whose fall-through (or a
            // different target) was correct: execute-time resolution.
            PendingDivergence p;
            p.token = nextToken_++;
            p.traceIdx = j;
            p.correctNext = actual_next;
            p.cause = kCausePfcMisfire;
            p.blockHistSnap = entry.histSnap;
            p.blockRasSnap = entry.rasSnap;
            p.numPrefix = 0;
            for (unsigned i = 0; i < entry.numEvents; ++i) {
                if (entry.events[i].offset >= offset)
                    break;
                p.prefix[p.numPrefix++] = entry.events[i];
            }
            const HistoryPolicy pol = bpu_.history().policy();
            p.corrected.pc = pc;
            p.corrected.target = actual_taken ? actual_next : si.target;
            p.corrected.offset = offset;
            p.corrected.kind = si.cls;
            p.corrected.taken = actual_taken;
            p.corrected.pushedHistory =
                (pol == HistoryPolicy::kTargetHistory && actual_taken) ||
                pol != HistoryPolicy::kTargetHistory;
            entry.divergeOffset = offset;
            pending_ = p;
        }
    }
    // Wrong-path PFC: the redirect happened above; the pending
    // divergence (whose instruction is older and already delivered)
    // remains in force.

    // Record the PFC action as this entry's terminal event so later
    // repairs replay it correctly.
    BlockEvent ev;
    ev.pc = pc;
    ev.target = target;
    ev.offset = offset;
    ev.kind = si.cls;
    ev.taken = true;
    ev.pushedHistory = true;
    // Drop any recorded events at or beyond the truncation point.
    while (entry.numEvents > 0 &&
           entry.events[entry.numEvents - 1].offset >= offset) {
        --entry.numEvents;
    }
    entry.events[entry.numEvents++] = ev;
}

FDIP_HOT_PATH void
Frontend::triggerGhrFixup(FtqEntry &entry, std::uint8_t offset, Cycle now)
{
    ++stats_.ghrFixups;
    const Addr pc = entry.pcAt(offset);
    const StaticInst &si = image_.instAt(pc);
    const bool hint = entry.hintAt(offset);

    FDIP_TRACE_EVENT(tracer_,
                     instant("ghr_fixup", "pfc", kTraceTidFetch, now,
                             {{"pc", pc}, {"hint", hint ? 1u : 0u}}));

    // Restore to the prefix, add the missing branch's direction bit.
    rewindToPrefix(entry, offset);
    pushHistoryEvent(pc, si.target, hint);

    // Under all-branch allocation (GHR3 / basic-block-style BTBs), the
    // pre-decoder installs the newly discovered branch into the BTB.
    if (!cfg_.bpu.btb.allocateTakenOnly && !cfg_.bpu.perfectBtb)
        bpu_.btb().install(pc, si.cls, si.target, false);

    // Truncate: everything after the fixed branch is re-predicted with
    // the corrected history.
    entry.termOffset = offset;
    entry.predictedTaken = false;
    while (entry.numEvents > 0 &&
           entry.events[entry.numEvents - 1].offset > offset) {
        --entry.numEvents;
    }
    BlockEvent ev;
    ev.pc = pc;
    ev.target = si.target;
    ev.offset = offset;
    ev.kind = si.cls;
    ev.taken = hint;
    ev.pushedHistory = true;
    entry.events[entry.numEvents++] = ev;

    ftq_.truncateAfter(1);
    predPc_ = pc + kInstBytes;
    predStallUntil_ = now + 1;
    redirectShadowUntil_ = now + cfg_.btbLatency + 1;

    // Resume the correct path only when this instruction is strictly
    // before any divergence: a fixup branch *at* the divergence offset
    // is a BTB-miss branch that is actually taken — the sequential
    // resume stays wrong-path and the pending execute-time resolution
    // must remain in force.
    const bool inst_correct =
        entry.onCorrectPath && offset < entry.divergeOffset;
    if (inst_correct) {
        const InstSeq j = entry.traceIdx + (offset - entry.startOffset());
        if (pending_.has_value() && !pending_->delivered)
            pending_.reset();
        onCorrectPath_ = true;
        tracePos_ = j + 1;
    }
}

// ---------------------------------------------------------------------
// Divergence resolution (backend callback).
// ---------------------------------------------------------------------

FDIP_HOT_PATH void
Frontend::onResolve(std::uint64_t token, std::uint64_t seq, Cycle now)
{
    if (!pending_.has_value() || pending_->token != token)
        return; // Stale: the divergence was repaired earlier (PFC).

    const PendingDivergence p = *pending_;
    pending_.reset();

    ++stats_.mispredicts;
    switch (p.cause) {
      case kCauseCondDir: ++stats_.mispredictsCondDir; break;
      case kCauseBtbMissTaken: ++stats_.mispredictsBtbMissTaken; break;
      case kCauseTarget: ++stats_.mispredictsTarget; break;
      case kCausePfcMisfire: ++stats_.mispredictsPfcMisfire; break;
      default: break;
    }

    FDIP_TRACE_EVENT(tracer_,
                     instant("pipeline_flush", "flush", kTraceTidFetch,
                             now,
                             {{"cause", p.cause},
                              {"trace_idx", p.traceIdx},
                              {"redirect", p.correctNext}}));

    backend_.flushYoungerThan(seq);
    // In-flight fills are NOT cancelled: the lines still arrive and
    // install (realistic wrong-path pollution).
    ftq_.clear();

    // Rebuild the speculative state: block snapshot, event prefix,
    // then the corrected outcome of the diverging branch.
    bpu_.history().restore(p.blockHistSnap);
    bpu_.ras().restore(p.blockRasSnap);
    for (unsigned i = 0; i < p.numPrefix; ++i)
        replayEvent(p.prefix[i]);
    replayEvent(p.corrected);

    predPc_ = p.correctNext;
    tracePos_ = p.traceIdx + 1;
    onCorrectPath_ = true;
    predStallUntil_ = now + 1;
    redirectShadowUntil_ = now + cfg_.btbLatency + 1;
}

// ---------------------------------------------------------------------
// Prefetch queue drain.
// ---------------------------------------------------------------------

FDIP_HOT_PATH void
Frontend::drainPrefetchQueue(Cycle now)
{
    for (unsigned n = 0; n < cfg_.prefetchesPerCycle; ++n) {
        const Addr line = prefetcher_.popPrefetch();
        if (line == kNoAddr)
            return;
        ++stats_.prefetchesIssued;

        // Prefetches probe the I-cache tag array (paper Section VI-D).
        ++stats_.l1iTagAccesses;
        if (cfg_.perfectICache || l1i_.probe(line).has_value() ||
            (prefetchBuffer_ && prefetchBuffer_->contains(line))) {
            ++stats_.prefetchesRedundant;
            continue;
        }

        bool in_flight = false;
        for (const auto &f : fills_) {
            if (f.line == line) {
                in_flight = true;
                break;
            }
        }
        if (in_flight) {
            ++stats_.prefetchesRedundant;
            continue;
        }

        if (fills_.size() >= cfg_.l1iMshrs)
            return; // No MSHR: drop remaining prefetches this cycle.

        const FillResult r = mem_.fetchInstLine(line, now);
        InflightFill f;
        f.line = line;
        f.ready = r.ready;
        f.issued = now;
        f.isPrefetch = true;
        fills_.pushBack(f);
        FDIP_TRACE_EVENT(tracer_,
                         instant("prefetch_issue", "prefetch",
                                 kTraceTidPrefetch, now,
                                 {{"line", line}}));
        FDIP_TRACE_EVENT(tracer_,
                         asyncBegin("prefetch_fill", "mem", line, now,
                                    {{"line", line}}));
    }
}

} // namespace fdip
