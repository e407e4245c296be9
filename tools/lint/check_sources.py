#!/usr/bin/env python3
"""Source-level lint for the simulator (no external dependencies).

Rules enforced over src/ (and, where noted, tests/):

  1. no-raw-new       raw `new` is banned; use std::make_unique /
                      containers.
  2. no-c-cast        C-style casts that can silently narrow are
                      banned; use static_cast and friends.
  3. header-hygiene   every header must have a FDIP_..._H_ include
                      guard matching its path.
  4. self-contained   every header in src/ must compile on its own
                      (a generated TU per header, g++ -fsyntax-only).

libc rand()/srand() is check_determinism.py's rule.

The lint runs against the repository by default; --root points it at
any tree with the same src/ layout, which is how the fixture suite in
tools/lint/tests/ exercises both the clean and the dirty paths.

Exit status: 0 when clean, 1 with findings listed on stderr.
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lintlib import (REPO, make_parser, rel, report, source_files,
                     strip_comments_and_strings)

RE_RAW_NEW = re.compile(r"(?<![\w_])new\s+[A-Za-z_:][\w:<>, ]*[({[]")
RE_C_CAST = re.compile(
    r"(?<![\w_>)])\(\s*(?:unsigned\s+)?"
    r"(?:std::)?(?:uint8_t|uint16_t|uint32_t|int8_t|int16_t|int32_t|"
    r"short|char)\s*\)\s*[\w(*&]"
)


def expected_guard(path: Path, root: Path) -> str:
    parts = path.relative_to(root / "src").parts
    return "FDIP_" + "_".join(p.upper().replace(".", "_").replace("-", "_")
                              for p in parts) + "_"


def lint_content(findings: list[str], root: Path) -> None:
    for path in source_files(root):
        name = rel(path, root)
        text = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            if RE_RAW_NEW.search(line):
                findings.append(
                    f"{name}:{lineno}: raw `new` is banned; use "
                    f"std::make_unique or a container")
            if RE_C_CAST.search(line):
                findings.append(
                    f"{name}:{lineno}: C-style narrowing cast; use "
                    f"static_cast")


def lint_guards(findings: list[str], root: Path) -> None:
    for path in sorted((root / "src").rglob("*.h")):
        text = path.read_text()
        guard = expected_guard(path, root)
        if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
            findings.append(
                f"{rel(path, root)}: missing or misnamed include guard "
                f"(expected {guard})")


def lint_self_contained(findings: list[str], root: Path, jobs: int) -> None:
    src = root / "src"
    headers = sorted(src.rglob("*.h"))
    with tempfile.TemporaryDirectory() as tmp:
        procs: list[tuple[Path, subprocess.Popen]] = []

        def drain(limit: int) -> None:
            while len(procs) > limit:
                hdr, proc = procs.pop(0)
                _, err = proc.communicate()
                if proc.returncode != 0:
                    tail = "\n    ".join(
                        err.decode(errors="replace").splitlines()[:6])
                    findings.append(
                        f"{rel(hdr, root)}: header is not self-contained:\n"
                        f"    {tail}")

        for idx, hdr in enumerate(headers):
            tu = Path(tmp) / f"tu_{idx}.cc"
            tu.write_text(
                f'#include "{rel(hdr, root)[len("src/"):]}"\n')
            cmd = ["g++", "-std=c++20", "-fsyntax-only",
                   f"-I{src}", str(tu)]
            procs.append(
                (hdr, subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE)))
            drain(jobs)
        drain(0)


def collect_findings(root: Path = REPO, jobs: int = 8,
                     skip_syntax: bool = False) -> list[str]:
    """Runs every pass over <root>/src and returns the findings."""
    findings: list[str] = []
    lint_content(findings, root)
    lint_guards(findings, root)
    if not skip_syntax:
        lint_self_contained(findings, root, max(1, jobs))
    return findings


def main() -> int:
    ap = make_parser(__doc__)
    ap.add_argument("--skip-syntax", action="store_true",
                    help="skip the (slower) self-contained-header pass")
    ap.add_argument("-j", "--jobs", type=int, default=8,
                    help="parallel compiler invocations (default 8)")
    args = ap.parse_args()

    findings = collect_findings(args.root.resolve(), args.jobs,
                                args.skip_syntax)
    return report("check_sources", findings)


if __name__ == "__main__":
    sys.exit(main())
