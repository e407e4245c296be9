#!/usr/bin/env python3
"""Program-index lints: hot-path closure and architectural-state audit.

Indexes the C++ sources once and runs two analyses over the index.

The closure analysis (hotgraph/analysis.py, docs/ANALYSIS.md §7-§8)
builds the static call graph rooted at every FDIP_HOT_PATH definition
and FDIP_HOT_REGION span, and reports

  - reachable functions whose definition lacks FDIP_HOT_PATH,
  - banned operations (hotgraph/model.py's BAN_RULES: allocation,
    std::string, std::function, throw, iostream/printf, locks)
    anywhere in the closure,
  - virtual call sites whose static receiver type is not sealed
    (devirtualization holes),
  - module-layering back-edges over the include graph, and
  - annotations that escape the walk: a FDIP_HOT_PATH token that
    heads no hot function body, and unpaired region markers.

The state audit (hotgraph/statespace.py, docs/ANALYSIS.md §9) reads
the same index and hot closure: every data member of every audited
class carries an FDIP_STATE_{ARCH,MICRO,HOST} classification
(src/util/state.h), ARCH claims match schema fields in both
directions, deterministic scalars are reset, HOST members stay off
the hot closure, and every class CLASS_TO_CERT maps cross-checks
against the budget certificate. --census-golden diffs the member
census against a reviewed golden; --update-census rewrites it.

Two interchangeable frontends produce the index:

  --frontend=builtin   the structural indexer in hotgraph/textual.py
                       (stdlib only, always available — the default)
  --frontend=clang     libclang over the build's own
                       compile_commands.json (exact; CI runs it on
                       clang-18; FDIP_LIBCLANG names the library)

Exceptions live in hotgraph/model.py (ALLOWLIST, INCLUDE_EXCEPTIONS)
and hotgraph/statespace.py (STATE_ALLOWLIST), each with a written
justification; an entry that suppresses nothing is itself a finding.

Exit status: 0 when clean, 1 with findings listed on stderr, 2 when
the clang frontend is unavailable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lintlib import make_parser, report  # noqa: E402
from hotgraph.analysis import Analysis, human_table  # noqa: E402
from hotgraph import textual  # noqa: E402
from hotgraph.compile_db import find_compile_db  # noqa: E402
from hotgraph.statespace import StateAudit, census_diff  # noqa: E402

CERTIFICATE = "tests/data/budget_certificate.golden.json"


def build_index(root: Path, frontend: str, compile_db: str | None):
    """ProgramIndex for <root> via the requested frontend, or None
    with a message on stderr when the clang frontend is unavailable."""
    if frontend == "builtin":
        return textual.index_tree(root)
    try:
        from hotgraph import clang_frontend
        return clang_frontend.index_tree(
            root, find_compile_db(root, compile_db))
    except ImportError as e:
        print(f"check_hotgraph: clang frontend unavailable: {e}",
              file=sys.stderr)
    except Exception as e:  # noqa: BLE001 — report, don't crash
        print(f"check_hotgraph: clang frontend failed: {e}",
              file=sys.stderr)
    return None


def main() -> int:
    ap = make_parser(__doc__)
    ap.add_argument("--frontend", choices=("builtin", "clang"),
                    default="builtin",
                    help="source indexer (default: builtin)")
    ap.add_argument("--compile-db", default=None,
                    help="compile_commands.json (or its directory) for "
                         "the clang frontend")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="write both reports (hot-callgraph-v1, "
                         "state-audit-v1) here")
    ap.add_argument("--table", action="store_true",
                    help="print the per-module coverage table")
    ap.add_argument("--census-golden", default=None, metavar="PATH",
                    help="diff the member census against this golden")
    ap.add_argument("--update-census", default=None, metavar="PATH",
                    help="write the member census golden here")
    ap.add_argument("--bare", action="store_true",
                    help="ignore the repo allowlists, include "
                         "exceptions and certificate (fixture trees)")
    args = ap.parse_args()

    root = args.root.resolve()
    prog = build_index(root, args.frontend, args.compile_db)
    if prog is None:
        return 2

    if args.bare:
        analysis = Analysis(prog, allowlist=[], include_exceptions=[])
        audit = StateAudit(analysis, root, allowlist=[])
    else:
        cert = root / CERTIFICATE
        analysis = Analysis(prog)
        audit = StateAudit(analysis, root, certificate=(
            json.loads(cert.read_text()) if cert.is_file() else None))
    problems = [f.render() for f in analysis.run()]
    problems += [f.render() for f in audit.run()]    # reads the walk

    if args.update_census:
        Path(args.update_census).write_text(
            json.dumps(audit.census(), indent=2, sort_keys=True) + "\n")
    if args.census_golden:
        golden = Path(args.census_golden)
        if golden.is_file():
            problems += census_diff(json.loads(golden.read_text()),
                                    audit.census())
        else:
            problems.append(f"census golden {golden} is missing "
                            "(regenerate with --update-census)")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"hotCallgraph": analysis.to_json(),
             "stateAudit": audit.to_json()}, indent=2) + "\n")
    if args.table:
        print(human_table(analysis))

    s = analysis.summary()
    print(f"check_hotgraph: {s['hotRoots']} hot roots, "
          f"{s['hotRegions']} region(s), {s['reachable']} reachable; "
          f"{len(audit.classes)} audited classes, "
          f"{sum(len(c.members) for c in audit.classes.values())} "
          f"members ({prog.backend} frontend)")
    return report("check_hotgraph", problems)


if __name__ == "__main__":
    sys.exit(main())
