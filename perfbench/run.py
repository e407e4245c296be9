#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload fdp-server|eip-client|campaign \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator libraries from src/ plus the
fdip_perfbench program, RelWithDebInfo with FDIP_CHECKS=ON) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and forwards the program's output. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (which also writes Chrome trace-event spans under
.bench_build/perfbench-out/).

If the program crashes or dies on a fatal error, the operation it was
running counts as failed: the result line then reports correct=false
and the exit status is 1. Exit status 2 means the benchmark itself
could not run (no simulator sources, build failure, bad arguments).

Extra flags --insts and --inject pass through to the program (the
self-test uses them; see perfbench/selftest.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_TIMEOUT_S = 170
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DFDIP_CHECKS=ON",
               "-DFDIP_TRACING=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(out, "fdip_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_program(cmd):
    """Runs the program; returns (status, stdout lines), status None when
    it had to be killed at the time limit."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=PROGRAM_TIMEOUT_S)
        status, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        status = None
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    return status, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fdp-server", "eip-client", "campaign"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--insts", type=int)
    ap.add_argument("--inject", choices=["tamper-record",
                                         "checksum-mismatch"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    program = build(out)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(os.path.dirname(out), "perfbench-out")]
    for flag in ("insts", "inject"):
        if getattr(args, flag) is not None:
            cmd += ["--" + flag, str(getattr(args, flag))]

    status, lines = run_program(cmd)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if status == 0 and isinstance(result, dict) and \
            list(result) == RESULT_KEYS:
        want = expected_metrics(bool(args.trace))
        got = list(result["metrics"])
        if want is not None and sorted(want) != sorted(got):
            fail("program metrics %s do not match BENCHMARK.json %s" %
                 (sorted(got), sorted(want)))
        print(lines[-1], flush=True)
        return 0

    # The program died mid-operation: that operation failed.
    done = sum(1 for l in lines if l.startswith("op "))
    failed = sum(1 for l in lines if l.startswith("op FAILED"))
    print("perfbench: fdip_perfbench %s" % ("timed out" if status is None else
                                    "exited with status %d" % status),
          file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": done + 1,
                      "failed": failed + 1, "metrics": {}}), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
