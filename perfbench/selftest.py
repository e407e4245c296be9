#!/usr/bin/env python3
"""Self-test of the benchmark's own code, at a tiny trace size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
20K-instruction traces, in both modes, and checks that:

  - the last stdout line is the result object, correct, with no
    failed operation, and every metric BENCHMARK.json names for the
    mode is printed with its unit (end-to-end with --trace 0,
    per-layer with --trace 1);
  - the traced run writes its spans as Chrome trace-event JSON (and,
    where tools/lint/check_trace.py exists, that validator accepts it);
  - a tampered spool record and a forced checksum mismatch each count
    as exactly one failed operation;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

Exit status 0 when every check passes, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--insts", "20000", "--seconds", "1"]

problems = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        problems.append(what)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s --trace %d" % (wl, trace)
            status, lines, res = run(["--workload", wl, "--seed", "7",
                                      "--trace", str(trace)] + TINY)
            check(status == 0 and isinstance(res, dict), tag + ": result")
            if not isinstance(res, dict):
                continue
            check(list(res) == ["correct", "attempted", "failed",
                                "metrics"], tag + ": result keys")
            check(res.get("correct") is True and res.get("failed") == 0 and
                  res.get("attempted", 0) >= 1, tag + ": all checks pass")
            metrics = res.get("metrics", {})
            for m in spec[key]:
                got = metrics.get(m["name"])
                check(isinstance(got, dict) and
                      isinstance(got.get("value"), (int, float)) and
                      got.get("unit") == m["unit"],
                      "%s: %s [%s]" % (tag, m["name"], m["unit"]))
            check(any(l.startswith("checksum ") for l in lines),
                  tag + ": checksums printed")
            check(any(l.startswith("host {") for l in lines),
                  tag + ": host descriptor printed")
            if trace:
                span_lines = [l for l in lines if l.startswith("spans ")]
                check(len(span_lines) == 1, tag + ": spans written")
                if span_lines:
                    check_spans(tag, span_lines[0].split(" ", 1)[1])

    for wl, kind in (("campaign", "tamper-record"),
                     ("campaign", "checksum-mismatch"),
                     ("fdp-server", "checksum-mismatch")):
        tag = "%s --inject %s" % (wl, kind)
        status, _, res = run(["--workload", wl, "--seed", "7", "--trace",
                              "0", "--inject", kind] + TINY)
        check(status == 0 and isinstance(res, dict) and
              res.get("correct") is False and res.get("failed") == 1,
              tag + ": counted as one failed operation (got %s)" %
              (None if res is None else
               {k: res[k] for k in ("correct", "attempted", "failed")}))

    check_without_sources()
    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


def check_spans(tag, path):
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        check(False, "%s: spans parse (%s)" % (tag, e))
        return
    events = doc.get("traceEvents", [])
    begins = [e for e in events if e.get("ph") == "b"]
    check(len(begins) > 0 and
          all("parent" in e["args"] and "run_id" in e["args"]
              for e in begins),
          tag + ": spans carry parent and run id")
    layers = {e.get("cat") for e in begins}
    check({"trace", "core", "bpu", "cache"} <= layers,
          tag + ": spans cover trace/core/bpu/cache (%s)" % sorted(layers))
    validator = os.path.join(ROOT, "tools", "lint", "check_trace.py")
    if os.path.isfile(validator):
        ok = subprocess.call([sys.executable, validator, path],
                             stdout=subprocess.DEVNULL) == 0
        check(ok, tag + ": check_trace.py accepts the spans")


def check_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    status, lines, res = run(["--workload", "fdp-server", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=bare)
    check(status != 0 and res is None,
          "no sources: non-zero exit (%d) and no result" % status)
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
