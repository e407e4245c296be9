"""Semantic hot-path verifier: whole-call-graph closure analysis.

check_hotpath.py enforces the tick-loop discipline *inside* annotated
bodies; this package closes the loop *across calls*. It indexes the
C++ sources (via libclang when available, via a built-in structural
indexer otherwise), constructs the static call graph rooted at every
FDIP_HOT_PATH definition and FDIP_HOT_REGION span, computes the
transitive closure, and reports:

  1. reachable repo functions whose definition lacks FDIP_HOT_PATH,
  2. allocation/throw/lock/std::function/iostream sites anywhere in
     the closure (the same contract check_hotpath enforces, now
     enforced through callees),
  3. virtual call sites whose static receiver type is not final
     (devirtualization holes), and
  4. module-layering back-edges over the include graph
     (util -> check -> obs/trace -> bpu/cache -> prefetch -> core ->
     sim -> tools/bench).

The CLI lives in tools/lint/check_hotgraph.py; it follows the shared
lint contract (--root, exit 0 clean / 1 with findings) and emits a
machine-readable `hot-callgraph-v1` JSON report.
"""

from __future__ import annotations

import sys
from pathlib import Path

# The package shares the lint scripts' modules (lintlib's lexer rules,
# check_hotpath's banned operations), so tools/lint must be importable.
_LINT_DIR = str(Path(__file__).resolve().parents[1])
if _LINT_DIR not in sys.path:
    sys.path.insert(0, _LINT_DIR)

#: Version tag stamped into the JSON report schema.
SCHEMA = "hot-callgraph-v1"
