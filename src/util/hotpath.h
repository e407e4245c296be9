/**
 * @file
 * Hot-path discipline annotations for the per-tick call graph.
 *
 * Every figure campaign in this reproduction is a loop over
 * `Core::run`, so per-run throughput is a first-class artifact — the
 * paper's own thesis is that FDIP survives in industry because its
 * costs are *enforced*, not asserted. These macros mark the code that
 * executes every simulated cycle (the tick loop and everything it
 * calls: frontend, FTQ, BPU predict/update, cache accesses, prefetcher
 * dispatch) so two enforcement layers can see the boundary:
 *
 *  - `tools/lint/check_hotgraph.py` walks the static call graph from
 *    the annotations and bans heap allocation (`new`,
 *    `make_unique`/`make_shared`, growing std-container calls,
 *    `std::string` construction, `std::function`), `throw`,
 *    iostream/format, and lock acquisition in every body the tick
 *    loop can reach. `(rule, file, symbol)` allowlist entries name
 *    the justified exceptions and fail when stale.
 *  - `tests/core_hotpath_test.cc` interposes a counting
 *    `operator new`/`delete` and proves `Core::run` performs zero
 *    heap allocations end-to-end for every named config x prefetcher.
 *
 * The attribute half mirrors util/sync.h: clang sees
 * `__attribute__((hot))` (hotter inlining/layout thresholds); every
 * other compiler sees empty tokens, so annotated code stays portable
 * and zero-cost. The *contract* half is the structured text itself,
 * which the lint parses on any platform.
 *
 * Usage:
 *
 *   FDIP_HOT_PATH void tick(Cycle now);       // whole function is hot
 *
 *   void run() {
 *       coldSetup();
 *       FDIP_HOT_REGION_BEGIN(tick_loop);     // region inside a
 *       while (...) { ... }                   // mostly-cold function
 *       FDIP_HOT_REGION_END(tick_loop);
 *       coldTeardown();
 *   }
 *
 * To exempt one site, add a `(rule, file, symbol)` entry to ALLOWLIST
 * in tools/lint/hotgraph/model.py with a written justification
 * (docs/ANALYSIS.md §8 has the procedure).
 */

#ifndef FDIP_UTIL_HOTPATH_H_
#define FDIP_UTIL_HOTPATH_H_

#include "util/invariant.h"

/**
 * Hot-function attribute spelling. Clang honors `hot` aggressively;
 * other compilers may warn on unknown attributes in this position, so
 * they see nothing — the lint contract is the portable half.
 */
#if defined(__clang__)
#define FDIP_HOT_ATTRIBUTE_ __attribute__((hot))
#else
#define FDIP_HOT_ATTRIBUTE_
#endif

/**
 * Marks the function definition that follows as tick-path code. Place
 * it at the start of the declaration, before the return type. The
 * lint applies the hot-path bans to the entire function body.
 */
#define FDIP_HOT_PATH FDIP_HOT_ATTRIBUTE_

/**
 * Opens a named hot region inside a function that is otherwise cold
 * (e.g. `Core::run`, whose warmup bookkeeping and final stat
 * derivation may allocate freely around the tick loop). The lint
 * applies the bans between BEGIN and the matching END; @p name must
 * match and exists purely for readability and lint diagnostics.
 */
#define FDIP_HOT_REGION_BEGIN(name) static_assert(true)

/** Closes the hot region opened by FDIP_HOT_REGION_BEGIN(@p name). */
#define FDIP_HOT_REGION_END(name) static_assert(true)

/**
 * The tick-path exception contract: hot functions are `noexcept`
 * whenever invariant checks are compiled out (-DFDIP_CHECKS=OFF, the
 * perf build). With checks on, FDIP_CHECK throws InvariantViolation
 * for the test suite to catch, so the same functions must remain
 * potentially-throwing. tests/core_hotpath_contract_test.cc pins this
 * with static_asserts that hold under both build flavors.
 */
#define FDIP_HOT_NOEXCEPT noexcept(!::fdip::kInvariantChecksEnabled)

#endif // FDIP_UTIL_HOTPATH_H_
