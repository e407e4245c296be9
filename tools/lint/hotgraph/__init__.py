"""Program-index lints: hot-path closure and architectural state.

A frontend indexes the C++ sources (via libclang when available, via
a built-in structural indexer otherwise) into one ProgramIndex. Over
it, analysis.py constructs the static call graph rooted at every
FDIP_HOT_PATH definition and FDIP_HOT_REGION span, computes the
transitive closure, and reports:

  1. reachable repo functions whose definition lacks FDIP_HOT_PATH,
  2. allocation/throw/lock/std::function/iostream sites anywhere in
     the closure (model.BAN_RULES),
  3. virtual call sites whose static receiver type is not final
     (devirtualization holes),
  4. module-layering back-edges over the include graph
     (util -> check -> obs/trace -> bpu/cache -> prefetch -> core ->
     sim -> tools/bench), and
  5. annotations the walk cannot see through: FDIP_HOT_PATH tokens
     that head no hot function body, unpaired region markers.

statespace.py then audits every class's data members over the same
index and closure (state classification, schema claims, reset
coverage, host/arch taint, the budget-certificate cross-check).

The CLI lives in tools/lint/check_hotgraph.py; it follows the shared
lint contract (--root, exit 0 clean / 1 with findings) and emits the
machine-readable `hot-callgraph-v1` and `state-audit-v1` reports.
"""

from __future__ import annotations

import sys
from pathlib import Path

# The package shares lintlib's lexer rules, so tools/lint must be
# importable.
_LINT_DIR = str(Path(__file__).resolve().parents[1])
if _LINT_DIR not in sys.path:
    sys.path.insert(0, _LINT_DIR)
