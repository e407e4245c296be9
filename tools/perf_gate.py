#!/usr/bin/env python3
"""Host-throughput regression gate for the bench campaigns.

The hot-path discipline (src/util/hotpath.h, check_hotgraph.py, the
steady-state allocation test) exists to protect one number: simulated
instructions per host second, which bounds how many figure campaigns
the lab can run. This gate closes the loop by measuring it.

Usage:
    perf_gate.py [BENCH_fig06a_prefetchers.json]
        [--baseline tests/data/perf_baseline.json]
        [--max-drop 0.10] [--update]

Compares hostInstrsPerSecond in the bench JSON (written by
bench_common.h's writeBenchJson) against the checked-in baseline and
fails when throughput dropped by more than the allowed fraction
(default 10%, overridable by the baseline file's maxDropFraction or
--max-drop). Also cross-checks that the benchmark still ran the same
configuration labels, so a gutted campaign cannot "pass" by doing
less work.

Because absolute throughput depends on the host, the baseline records
the environment knobs it was measured under (FDIP_SIM_INSTRS etc.);
CI re-measures under identical knobs on comparable runners. A faster
result never fails; refresh the baseline with --update when a genuine
improvement (or a hardware change) moves the reference point, and
commit the result.

Exit status: 0 pass, 1 regression/mismatch, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFAULT_BENCH = Path("BENCH_fig06a_prefetchers.json")
DEFAULT_BASELINE = REPO / "tests" / "data" / "perf_baseline.json"
DEFAULT_MAX_DROP = 0.10


def load(path: Path) -> dict:
    try:
        with path.open() as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"perf_gate: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"perf_gate: {path} is not valid JSON: {e}")


def update_baseline(bench: dict, baseline_path: Path,
                    max_drop: float) -> int:
    baseline = {
        "bench": bench["bench"],
        "hostInstrsPerSecond": bench["hostInstrsPerSecond"],
        "maxDropFraction": max_drop,
        "jobs": bench.get("jobs"),
        "labels": sorted(r["label"] for r in bench["results"]),
        "note": ("Reference host throughput for perf_gate.py. "
                 "Regenerate with: FDIP_SIM_INSTRS=50000 "
                 "FDIP_SUITE=small FDIP_JOBS=2 "
                 "bench_fig06a_prefetchers && perf_gate.py --update"),
    }
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    with baseline_path.open("w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"perf_gate: baseline updated -> {baseline_path} "
          f"({baseline['hostInstrsPerSecond']:.0f} instrs/s)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json", nargs="?", type=Path,
                    default=DEFAULT_BENCH,
                    help="bench output (default: %(default)s)")
    ap.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                    help="checked-in reference (default: %(default)s)")
    ap.add_argument("--max-drop", type=float, default=None,
                    help="allowed fractional drop (default: the "
                         "baseline's maxDropFraction, else "
                         f"{DEFAULT_MAX_DROP})")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this bench run")
    args = ap.parse_args()

    bench = load(args.bench_json)
    for key in ("bench", "hostInstrsPerSecond", "results"):
        if key not in bench:
            sys.exit(f"perf_gate: {args.bench_json} has no '{key}' "
                     "field; was it written by writeBenchJson?")
    schema = bench.get("schemaVersion")
    if schema is not None and schema != 2:
        sys.exit(f"perf_gate: {args.bench_json} has schemaVersion "
                 f"{schema}; this gate understands version 2 "
                 "(bench_common.h kBenchJsonSchemaVersion)")

    if args.update:
        return update_baseline(bench, args.baseline,
                               args.max_drop if args.max_drop is not None
                               else DEFAULT_MAX_DROP)

    baseline = load(args.baseline)
    max_drop = args.max_drop
    if max_drop is None:
        max_drop = baseline.get("maxDropFraction", DEFAULT_MAX_DROP)

    problems: list[str] = []

    if bench["bench"] != baseline.get("bench"):
        problems.append(
            f"bench name mismatch: ran '{bench['bench']}', baseline "
            f"is for '{baseline.get('bench')}'")

    ran = sorted(r["label"] for r in bench["results"])
    expected = sorted(baseline.get("labels", []))
    if expected and ran != expected:
        problems.append(
            f"configuration labels changed: ran {ran}, baseline "
            f"expects {expected} (a smaller campaign cannot pass the "
            "gate; refresh the baseline deliberately with --update)")

    ref = float(baseline["hostInstrsPerSecond"])
    got = float(bench["hostInstrsPerSecond"])
    floor = ref * (1.0 - max_drop)
    ratio = got / ref if ref > 0 else float("inf")
    print(f"perf_gate: {got:,.0f} instrs/s vs baseline {ref:,.0f} "
          f"({ratio:.2%}); floor {floor:,.0f} "
          f"(-{max_drop:.0%} allowed)")
    if got < floor:
        problems.append(
            f"host throughput regressed: {got:,.0f} < {floor:,.0f} "
            f"instrs/s ({ratio:.2%} of baseline, allowed drop "
            f"{max_drop:.0%})")

    if problems:
        print(f"perf_gate: FAIL ({len(problems)} problem(s))",
              file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("perf_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
