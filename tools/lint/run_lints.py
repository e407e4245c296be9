#!/usr/bin/env python3
"""Single entry point for the repo's tree lints.

Runs the four tree lints in one invocation with a combined report:

  determinism   check_determinism.py  wallclock/rand/getenv bans
  concurrency   check_concurrency.py  ambient-state + threading bans
  hotgraph      check_hotgraph.py     hot-path closure + layering +
                                      state census/schema/reset/taint
  sources       check_sources.py      header hygiene + content bans

Each lint keeps its own CLI (they all speak the shared --root /
exit-code contract from lintlib.py); this runner execs them as
subprocesses so one crashing lint cannot take the others down, then
exits 0 only when every selected lint exited 0. CI's lint job and
`ctest -R lint_repo` call this instead of four separate commands.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
from lintlib import REPO  # noqa: E402

#: Cheap-first so a broken tree fails fast; sources (which compiles
#: every header) last.
LINTS = ("determinism", "concurrency", "hotgraph", "sources")

CENSUS_GOLDEN = "tests/data/state_census.golden.json"


def lint_argv(name: str, args: argparse.Namespace) -> list[str]:
    """argv for one lint."""
    argv = [str(HERE / f"check_{name}.py"), "--root", str(args.root)]
    if name == "hotgraph":
        argv += ["--census-golden", str(args.root / CENSUS_GOLDEN)]
    if name == "sources":
        argv += ["-j", str(args.jobs)]
    return argv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, default=REPO,
                    help="tree to lint (default: the repository)")
    ap.add_argument("-j", "--jobs", type=int, default=8,
                    help="parallel compiles for the sources lint")
    ap.add_argument("--only", default="",
                    help="comma-separated lint names to run "
                         f"(subset of {','.join(LINTS)})")
    ap.add_argument("--skip", default="",
                    help="comma-separated lint names to skip")
    args = ap.parse_args()

    only = {s for s in args.only.split(",") if s}
    skip = {s for s in args.skip.split(",") if s}
    for name in (only | skip) - set(LINTS):
        ap.error(f"unknown lint {name!r} (have: {', '.join(LINTS)})")

    selected = [n for n in LINTS
                if (not only or n in only) and n not in skip]
    statuses: dict[str, int] = {}
    for name in selected:
        print(f"== {name} ==", flush=True)
        statuses[name] = subprocess.run(
            [sys.executable, *lint_argv(name, args)]).returncode

    failed = {n: rc for n, rc in statuses.items() if rc != 0}
    print(f"run_lints: {len(statuses) - len(failed)}/{len(statuses)} "
          "clean" + (f"; failed: " + ", ".join(
              f"{n} (exit {rc})" for n, rc in failed.items())
              if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
