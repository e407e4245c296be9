/**
 * @file
 * State-classification annotations for the architectural-state audit.
 *
 * Every data member of an audited class (one that declares a
 * StorageSchema, or that carries at least one of these annotations)
 * must state what kind of state it is:
 *
 *   FDIP_STATE_ARCH(fields...)  Modeled hardware storage, accounted
 *                               bit-for-bit by the class's
 *                               StorageSchema. The arguments name the
 *                               schema fields this member backs
 *                               (e.g. `valid, kind, lru`); an argument
 *                               ending in `...` is a prefix wildcard
 *                               for dynamically named fields (the
 *                               folded-history schema), and the single
 *                               argument `sub` delegates accounting to
 *                               the member's own class (which must be
 *                               audited itself).
 *   FDIP_STATE_MICRO            Simulation state: deterministic,
 *                               reset-covered, feeds architectural
 *                               results, but not schema-charged
 *                               storage (config copies, wiring
 *                               references, derived geometry, stat
 *                               counters).
 *   FDIP_STATE_HOST             Host-side telemetry (wall-clock
 *                               profiles, timing scratch). Never read
 *                               on the architectural hot path outside
 *                               obs/trace-ranked code; excluded from
 *                               the determinism contract.
 *
 * Like the hot-path and capability macros, these compile away to
 * nothing on every compiler: the structured text itself is the
 * contract, enforced by tools/lint/check_hotgraph.py's state audit
 * over the program index (ghost-state/schema completeness, reset
 * coverage, host/arch taint separation). docs/ANALYSIS.md section 9
 * documents the taxonomy and the rules.
 */

#ifndef FDIP_UTIL_STATE_H_
#define FDIP_UTIL_STATE_H_

/** Schema-accounted modeled storage; args name the fields covered. */
#define FDIP_STATE_ARCH(...)

/** Deterministic simulation state outside the storage schemas. */
#define FDIP_STATE_MICRO

/** Host-side telemetry, excluded from architectural determinism. */
#define FDIP_STATE_HOST

#endif // FDIP_UTIL_STATE_H_
