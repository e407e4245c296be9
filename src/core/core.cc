#include "core/core.h"

#include "util/hotpath.h"
#include "util/log.h"

namespace fdip
{

Core::Core(const CoreConfig &cfg, const Trace &trace,
           std::unique_ptr<InstPrefetcher> prefetcher)
    : cfg_(cfg),
      trace_(trace),
      bpu_(cfg_.bpu),
      mem_(cfg_.mem),
      prefetcher_(std::move(prefetcher)),
      backend_(cfg_, mem_, stats_),
      frontend_(cfg_, trace_, bpu_, backend_, mem_, *prefetcher_, stats_),
      profiler_(cfg_.obs.profileInterval)
{
    backend_.setResolveCallback(
        [this](std::uint64_t token, std::uint64_t seq, Cycle now) {
            frontend_.onResolve(token, seq, now);
        });
    prefetcher_->bind(bpu_, trace_.image());
    if (profiler_.enabled())
        frontend_.attachProfiler(&profiler_);
}

SimStats
Core::run(std::uint64_t warmup_insts)
{
    const std::uint64_t total = trace_.size();
    if (warmup_insts >= total)
        fdip_fatal("warmup %llu >= trace length %llu",
                   static_cast<unsigned long long>(warmup_insts),
                   static_cast<unsigned long long>(total));

    Cycle now = 0;
    bool warm = warmup_insts == 0;
    Cycle warm_start_cycle = 0;

    // External counters snapshotted at the warmup boundary.
    std::uint64_t btb_lookups0 = 0;
    std::uint64_t btb_hits0 = 0;

    std::uint64_t last_commit = 0;
    Cycle last_progress = 0;

    // Heartbeat bookkeeping: a sample fires when the post-warmup commit
    // count crosses the next interval multiple. Deltas come from the
    // live stats_ fields (which the frontend/backend increment in
    // place); committedInsts/cycles are derived here because stats_
    // only materializes them at the end of the run.
    const std::uint64_t hb = cfg_.obs.heartbeatInterval;
    std::uint64_t next_hb = hb;
    SimStats hb_prev;
    std::uint64_t hb_prev_instrs = 0;
    std::uint64_t hb_prev_cycles = 0;
    // Preallocate the whole series (post-warmup commits can cross at
    // most total/hb interval multiples) and write by index: the tick
    // loop below is a hot region and must not allocate.
    heartbeats_.clear();
    std::size_t hb_count = 0;
    if (hb != 0)
        heartbeats_.resize(static_cast<std::size_t>(total / hb) + 2);

    FDIP_HOT_REGION_BEGIN(tick_loop);
    while (backend_.committed() < total) {
        profiler_.beginTick(now);
        profiler_.begin(TickPhase::kFrontend);
        frontend_.tick(now);
        profiler_.end(TickPhase::kFrontend);
        profiler_.begin(TickPhase::kBackend);
        backend_.tick(now);
        profiler_.end(TickPhase::kBackend);
        profiler_.begin(TickPhase::kObs);

        // The warmup-boundary tick: counted in cycles (and charged to
        // base.committed below — its starvation increment is discarded
        // with the rest of the reset, so any stall charge would break
        // the stall-sum conservation law).
        bool boundary_tick = false;
        if (!warm && backend_.committed() >= warmup_insts) {
            warm = true;
            boundary_tick = true;
            warm_start_cycle = now;
            const std::uint64_t kept_commits = backend_.committed();
            stats_ = SimStats{};
            // Re-bias commit counting: committedInsts is derived at the
            // end from backend_.committed() - kept_commits.
            warmup_insts = kept_commits;
            btb_lookups0 = bpu_.btb().lookups();
            btb_hits0 = bpu_.btb().hits();
        }

        if (warm) {
            // Top-down fetch-slot accounting: charge this cycle to its
            // unique leaf bucket. The starved gate re-evaluates exactly
            // the condition Backend::tick used for starvationCycles
            // (decode-queue occupancy is stable between the backend
            // tick and here), so the conservation laws below hold
            // tick-by-tick, not just at the end of the run.
            CycleBucket bucket = CycleBucket::kBaseCommitted;
            if (!boundary_tick) {
                CycleSignals sig = frontend_.cycleSignals(now);
                sig.starved =
                    backend_.decodeQueueSize() < cfg_.fetchBandwidth;
                sig.dispatchBlocked = backend_.dispatchBlocked();
                bucket = classifyCycle(sig);
            }
            chargeCycle(stats_, bucket);
            FDIP_CHECK(stats_.cycleBucketSum() ==
                           now - warm_start_cycle + 1,
                       "cycle buckets (%llu) != elapsed post-warmup "
                       "cycles (%llu)",
                       static_cast<unsigned long long>(
                           stats_.cycleBucketSum()),
                       static_cast<unsigned long long>(
                           now - warm_start_cycle + 1));
            FDIP_CHECK(stats_.stallCycleSum() == stats_.starvationCycles,
                       "stall buckets (%llu) != starvation cycles (%llu)",
                       static_cast<unsigned long long>(
                           stats_.stallCycleSum()),
                       static_cast<unsigned long long>(
                           stats_.starvationCycles));
        }

        if (hb != 0 && warm) {
            const std::uint64_t done = backend_.committed() - warmup_insts;
            if (done >= next_hb) {
                HeartbeatSample s;
                s.instrs = done;
                s.cycles = now - warm_start_cycle + 1;
                s.dInstrs = done - hb_prev_instrs;
                s.dCycles = s.cycles - hb_prev_cycles;
                s.mispredicts = stats_.mispredicts - hb_prev.mispredicts;
                s.starvationCycles =
                    stats_.starvationCycles - hb_prev.starvationCycles;
                s.l1iDemandMisses =
                    stats_.l1iDemandMisses - hb_prev.l1iDemandMisses;
                s.pfcFires = stats_.pfcFires - hb_prev.pfcFires;
                s.prefetchesIssued =
                    stats_.prefetchesIssued - hb_prev.prefetchesIssued;
                s.prefetchesUseful =
                    stats_.prefetchesUseful - hb_prev.prefetchesUseful;
                for (std::size_t b = 0; b < kCycleBucketCount; ++b) {
                    s.cycleBuckets[b] =
                        stats_.*kCycleBucketField[b] -
                        hb_prev.*kCycleBucketField[b];
                }
                FDIP_CHECK(hb_count < heartbeats_.size(),
                           "heartbeat series overflow at sample %zu",
                           hb_count);
                heartbeats_[hb_count++] = s;
                hb_prev = stats_;
                hb_prev_instrs = done;
                hb_prev_cycles = s.cycles;
                next_hb = done - done % hb + hb;
            }
        }

        if (backend_.committed() != last_commit) {
            last_commit = backend_.committed();
            last_progress = now;
        } else if (now - last_progress > 1000000) {
            fdip_panic("no commit progress for 1M cycles at cycle %llu "
                       "(committed %llu / %llu)",
                       static_cast<unsigned long long>(now),
                       static_cast<unsigned long long>(last_commit),
                       static_cast<unsigned long long>(total));
        }

        profiler_.end(TickPhase::kObs);
        ++now;
    }
    FDIP_HOT_REGION_END(tick_loop);

    heartbeats_.resize(hb_count);
    stats_.cycles = now - warm_start_cycle;
    stats_.committedInsts = backend_.committed() - warmup_insts;
    stats_.btbLookups = bpu_.btb().lookups() - btb_lookups0;
    stats_.btbHits = bpu_.btb().hits() - btb_hits0;
    return stats_;
}

void
registerCoreSimStats(StatRegistry &reg, const SimStats &s)
{
    for (const SimStatsCounter &c : kSimStatsCounters) {
        const auto field = c.member;
        const std::string name =
            std::string(c.isCycleBucket() ? "core.cycles." : "core.") +
            c.statName;
        reg.addCounter(name, [&s, field] { return s.*field; });
        if (!c.isCycleBucket())
            continue;
        // Each bucket's share of all post-warmup cycles: analysis
        // scripts get the stacked breakdown without re-deriving the
        // denominator (the eight fractions sum to 1 by the per-tick
        // conservation law).
        reg.addDerived(name + ".frac", [&s, field] {
            return s.cycles == 0 ? 0.0
                                 : static_cast<double>(s.*field) /
                                       static_cast<double>(s.cycles);
        });
    }

    reg.addDerived("core.ipc", [&s] { return s.ipc(); });
    reg.addDerived("core.branch_mpki", [&s] { return s.branchMpki(); });
    reg.addDerived("core.starvation_per_ki",
                   [&s] { return s.starvationPerKi(); });
    reg.addDerived("core.tag_accesses_per_ki",
                   [&s] { return s.tagAccessesPerKi(); });
    reg.addDerived("core.l1i_mpki", [&s] { return s.l1iMpki(); });
    reg.addDerived("core.prefetch_accuracy",
                   [&s] { return s.prefetchAccuracy(); });
    reg.addDerived("core.prefetch_coverage",
                   [&s] { return s.prefetchCoverage(); });
    reg.addDerived("core.prefetch_redundant_rate",
                   [&s] { return s.prefetchRedundantRate(); });
}

void
Core::registerStats(StatRegistry &reg) const
{
    registerCoreSimStats(reg, stats_);
    frontend_.registerStats(reg, "frontend");
    bpu_.registerStats(reg, "bpu");
    mem_.registerStats(reg, "mem");
    prefetcher_->registerStats(reg,
                               std::string("pf.") + prefetcher_->name());
}

} // namespace fdip
