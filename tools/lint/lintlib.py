#!/usr/bin/env python3
"""Shared machinery for the tree lints (stdlib only).

Every check_*.py lint that walks the C++ tree shares the same
skeleton: find the sources under <root>/src, strip comments and
string literals so regexes see only code, verify that exact-path
allowlists have not gone stale, and report findings through an
identical CLI contract (--root to point at a fixture tree, exit 0
when clean, exit 1 with findings on stderr). This module is that
skeleton, factored out once so a new lint is a consumer of the
machinery rather than a copy of it.

Consumers: check_sources.py, check_determinism.py,
check_concurrency.py and check_hotgraph.py (and run_lint_tests.py via
those); hotgraph/textual.py shares its pp-number rule and line_of.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: Repository root (tools/lint/lintlib.py -> two parents up).
REPO = Path(__file__).resolve().parents[2]


def rel(path: Path, root: Path = REPO) -> str:
    """Posix-style path of @p path relative to @p root."""
    return path.relative_to(root).as_posix()


def source_files(root: Path) -> list[Path]:
    """All lintable C++ files under <root>/src, headers first."""
    src = root / "src"
    return sorted(src.rglob("*.h")) + sorted(src.rglob("*.cc"))


def pp_number_end(text: str, i: int) -> int:
    """End offset of the pp-number that starts at @p i, or @p i when
    none starts there.

    A pp-number is a token that starts with a digit, so an apostrophe
    inside it is a digit separator (0x4644'4950), not a char-literal
    quote. A digit that continues an identifier starts no pp-number,
    so the quote after an encoding prefix (u8'x') still opens a char
    literal.
    """
    n = len(text)
    if not text[i].isdigit() or (
            i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
        return i
    j = i + 1
    while j < n:
        c = text[j]
        if c.isalnum() or c in "._":
            j += 1
        elif c == "'" and j + 1 < n and (text[j + 1].isalnum() or
                                         text[j + 1] == "_"):
            j += 2
        elif c in "+-" and text[j - 1] in "eEpP":
            j += 1
        else:
            break
    return j


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line count."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(" ")
            i = j + 1
        else:
            j = max(pp_number_end(text, i), i + 1)
            out.append(text[i:j])
            i = j
    return "".join(out)


def blank_preprocessor_lines(text: str) -> str:
    """Blanks #-directives (incl. continuations), keeping line count."""
    out: list[str] = []
    in_directive = False
    for line in text.split("\n"):
        stripped = line.lstrip()
        if in_directive or stripped.startswith("#"):
            in_directive = stripped.endswith("\\")
            out.append("")
        else:
            in_directive = False
            out.append(line)
    return "\n".join(out)


def line_of(text: str, pos: int) -> int:
    """1-based line number of character offset @p pos in @p text."""
    return text.count("\n", 0, pos) + 1


def stale_allowlist_findings(root: Path, *allowlists: set[str]
                             ) -> list[str]:
    """One finding per allowlisted path that no longer exists.

    A stale allowlist silently widens the escape hatch: a file can be
    renamed past its exception and carry the exception's name to a new
    file later. Every lint with a file allowlist runs this guard
    (check_hotgraph's entries name sites and expire on their own).
    """
    listed: set[str] = set()
    for allowlist in allowlists:
        listed |= allowlist
    return [f"{name}: allowlisted file does not exist"
            for name in sorted(listed) if not (root / name).is_file()]


def make_parser(doc: str | None) -> argparse.ArgumentParser:
    """Argument parser with the standard --root option."""
    ap = argparse.ArgumentParser(description=doc)
    ap.add_argument("--root", type=Path, default=REPO,
                    help="tree to lint (default: the repository)")
    return ap


def report(lint_name: str, findings: list[str]) -> int:
    """Prints findings per the shared CLI contract; returns exit code."""
    if findings:
        print(f"{lint_name}: {len(findings)} finding(s)", file=sys.stderr)
        for f in findings:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"{lint_name}: clean")
    return 0
