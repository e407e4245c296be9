/**
 * @file
 * Top-down fetch-slot cycle accounting: every post-warmup cycle is
 * charged to exactly one leaf bucket, so the aggregate starvation
 * number the paper reports (decode queue fed below fetch bandwidth)
 * decomposes into *why* the slot was lost — the same breakdown
 * Asheim et al.'s "FDIP Revisited" and MANA's fetch-stall figures use
 * to argue where FDIP's remaining headroom lives.
 *
 * Charge policy (one-hot, fixed precedence; Core::run applies it once
 * per tick after the frontend and backend have both ticked):
 *
 *  1. Slot not starved (decode queue held >= fetch bandwidth):
 *       backend.backpressure  if a full ROB blocked dispatch, else
 *       base.committed        — the frontend kept the machine fed.
 *  2. Starved, redirect bubble active   -> recovery.flush_restart
 *  3. Starved, on a BTB-miss wrong path -> fetch.ftq_empty_btb_miss
 *  4. Starved, FTQ head awaiting a fill -> fetch.l1i_miss
 *  5. Starved, head awaiting the ITLB   -> fetch.itlb_miss
 *  6. Starved, inside a redirect's FTQ-refill shadow
 *                                       -> fetch.ftq_empty_redirect
 *  7. Starved, none of the above        -> fetch.pipeline
 *
 * Wrong-path attribution (step 3 before 4/5) is deliberate: while the
 * frontend runs down a path a BTB miss sent it on, any fill the head
 * waits for is pollution, and the root cause is the BTB, not the L1I.
 *
 * Two conservation laws bind the buckets (FDIP_CHECKed every tick in
 * Core::run and again structurally in checkSimStats): the six starved
 * buckets sum to SimStats::starvationCycles, and all eight sum to
 * SimStats::cycles. The warmup-boundary tick is counted in `cycles`
 * but its starvation increment is discarded by the stats reset, so
 * Core::run charges that single tick to base.committed by fiat —
 * keeping both laws exact without changing any pre-existing counter.
 *
 * The buckets are architectural counters (deterministic functions of
 * simulated state), so they ride campaign records and spool caches
 * like every other SimStats field.
 *
 * This header is the core-type-free half of the accounting: the
 * bucket taxonomy, the classifier, and the leaf names. The SimStats
 * field binding (which counter each bucket charges and the hot-path
 * increment) lives in core/sim_stats.h, the `core.cycles.*`
 * registration in core/core.cc, so that obs — which sits below core
 * in the module layering — never includes upward.
 */

#ifndef FDIP_OBS_CYCLE_ACCOUNT_H_
#define FDIP_OBS_CYCLE_ACCOUNT_H_

#include <cstddef>
#include <cstdint>

#include "util/hotpath.h"

namespace fdip
{

/** The leaf buckets, in charge-table order. */
enum class CycleBucket : std::uint8_t
{
    kBaseCommitted = 0,
    kBackendBackpressure,
    kRecoveryFlushRestart,
    kFetchL1iMiss,
    kFetchItlbMiss,
    kFetchFtqEmptyBtbMiss,
    kFetchFtqEmptyRedirect,
    kFetchPipeline,
};

inline constexpr std::size_t kCycleBucketCount = 8;

/**
 * Everything the classifier consumes, sampled once per tick after
 * both pipeline halves ran. Frontend::cycleSignals() fills the fetch
 * side; Core::run adds the backend's starved/dispatch-blocked view.
 */
struct CycleSignals
{
    bool starved = false;        ///< Decode queue < fetch bandwidth.
    bool dispatchBlocked = false; ///< Full ROB refused a dispatch.
    bool flushRestart = false;   ///< Redirect bubble stalls predict.
    bool btbMissWrongPath = false; ///< Undetected taken branch diverged.
    bool itlbWait = false;       ///< FTQ head waiting on an ITLB refill.
    bool l1iWait = false;        ///< FTQ head waiting on an L1I fill.
    bool redirectShadow = false; ///< Within a redirect's refill window.
};

/** Maps one tick's signals to its unique bucket (precedence above). */
[[nodiscard]] FDIP_HOT_PATH constexpr CycleBucket
classifyCycle(const CycleSignals &sig) noexcept
{
    if (!sig.starved) {
        return sig.dispatchBlocked ? CycleBucket::kBackendBackpressure
                                   : CycleBucket::kBaseCommitted;
    }
    if (sig.flushRestart)
        return CycleBucket::kRecoveryFlushRestart;
    if (sig.btbMissWrongPath)
        return CycleBucket::kFetchFtqEmptyBtbMiss;
    if (sig.l1iWait)
        return CycleBucket::kFetchL1iMiss;
    if (sig.itlbWait)
        return CycleBucket::kFetchItlbMiss;
    if (sig.redirectShadow)
        return CycleBucket::kFetchFtqEmptyRedirect;
    return CycleBucket::kFetchPipeline;
}

/** Bucket leaf names, in CycleBucket order. The StatRegistry paths
 *  (and the stat-dump keys) are these prefixed with `core.cycles.`;
 *  heartbeats and report columns use them bare. */
inline constexpr const char *kCycleBucketName[kCycleBucketCount] = {
    "base.committed",
    "backend.backpressure",
    "recovery.flush_restart",
    "fetch.l1i_miss",
    "fetch.itlb_miss",
    "fetch.ftq_empty_btb_miss",
    "fetch.ftq_empty_redirect",
    "fetch.pipeline",
};

} // namespace fdip

#endif // FDIP_OBS_CYCLE_ACCOUNT_H_
