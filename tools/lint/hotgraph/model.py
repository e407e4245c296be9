"""Data model shared by the hotgraph frontends and the analysis.

A frontend (textual.py or clang_frontend.py) reduces every source
file to the same neutral index — functions with body extents, classes
with virtual/final facts, call sites, includes — so the closure
analysis, the findings rules, and the report never care which parser
produced the facts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# --------------------------------------------------------------------
# The hot-path ban table.
#
# Applied to the stripped code of every body in the hot closure and
# every FDIP_HOT_REGION span. The repo's fixed-capacity types
# (FixedVector, FlatMap, CircularQueue) use camelCase mutators
# precisely so steady-state mutation does not collide with these bans.
# tests/core_hotpath_test.cc is the runtime ground truth for the
# allocation bans: it interposes operator new/delete and proves
# Core::run allocates nothing in steady state.
#
# Each row is (key, pattern, message). A banned-op finding's symbol is
# "<function qname>/<key>", so an allowlist entry names both the
# function and the one ban it excuses.
# --------------------------------------------------------------------

BAN_RULES: list[tuple[str, re.Pattern[str], str]] = [
    ("new", re.compile(r"\bnew\b"),
     "heap allocation (`new`) is banned on the hot path"),
    ("make-smart", re.compile(r"\bmake_(?:unique|shared)\s*<"),
     "heap allocation (make_unique/make_shared) is banned on the "
     "hot path"),
    ("container-grow",
     re.compile(r"(?:\.|->)(?:push_back|emplace_back|emplace_front|"
                r"emplace|push_front|insert|resize|reserve|assign)"
                r"\s*\("),
     "growing std-container call is banned on the hot path; use the "
     "fixed-capacity types (FixedVector/FlatMap/CircularQueue)"),
    ("string",
     re.compile(r"\bstd::(?:string|to_string|[io]?stringstream)\b"),
     "std::string construction is banned on the hot path"),
    ("std-function", re.compile(r"\bstd::function\b"),
     "std::function is banned on the hot path; bind callables at "
     "setup time"),
    # Hot code reports invariant violations through FDIP_CHECK /
    # fdip_panic, whose [[noreturn]] failure path is outside the
    # closure.
    ("throw", re.compile(r"\bthrow\b"),
     "`throw` is banned on the hot path; report via FDIP_CHECK or "
     "fdip_panic"),
    ("io", re.compile(r"\bstd::(?:cout|cerr|clog|format)\b|"
                      r"(?<![\w:])(?:printf|fprintf|sprintf|snprintf|"
                      r"puts|fputs)\s*\("),
     "iostream/printf formatting is banned on the hot path"),
    ("lock", re.compile(r"\bstd::(?:mutex|lock_guard|unique_lock|"
                        r"scoped_lock|condition_variable)\b|"
                        r"(?:\.|->)lock\s*\("),
     "lock acquisition is banned on the hot path (the tick loop is "
     "single-threaded)"),
]

# --------------------------------------------------------------------
# Module layering.
#
# The repo's module DAG, lowest layer first. A file in module M may
# include headers from modules of *strictly lower* rank (or from M
# itself); everything else — upward includes and same-rank
# cross-module includes — is a layering back-edge finding. The ranks
# mirror the library link graph in src/*/CMakeLists.txt.
# --------------------------------------------------------------------

MODULE_RANK: dict[str, int] = {
    "util": 0,
    "check": 1,
    "obs": 2,
    "trace": 2,
    "bpu": 3,
    "cache": 3,
    "prefetch": 4,
    "core": 5,
    "sim": 6,
    "tools": 7,
    "bench": 7,
    "tests": 7,
    "examples": 7,
}


@dataclass(frozen=True)
class IncludeException:
    """One justified upward include edge: @p file may include headers
    of @p target_module despite the ranks. Stale entries (file gone,
    or the file no longer includes that module) are findings."""

    file: str
    target_module: str
    why: str


#: The three checker translation units in src/check are *integration*
#: code: they aggregate every storage-bearing module to certify the
#: paper budgets (budget/certify link against fdip_core by design)
#: and to re-verify whole-frontend structure each tick (invariants.h,
#: header-only, consumed solely by fdip_core). They keep their home in
#: src/check but carry explicit, per-edge layering exceptions instead
#: of silently re-ranking the whole module.
INCLUDE_EXCEPTIONS: list[IncludeException] = [
    IncludeException(
        "src/check/invariants.h", "bpu",
        "whole-frontend structural checker reads BTB/RAS state"),
    IncludeException(
        "src/check/invariants.h", "cache",
        "whole-frontend structural checker reads cache state"),
    IncludeException(
        "src/check/invariants.h", "core",
        "whole-frontend structural checker walks the FTQ"),
    IncludeException(
        "src/check/budget.h", "core",
        "iso-storage accounting sums every structure in CoreConfig"),
    IncludeException(
        "src/check/budget.h", "bpu",
        "budget items decompose BTB/TAGE/RAS storage schemas"),
    IncludeException(
        "src/check/budget.cc", "bpu",
        "implementation of the budget.h accounting"),
    IncludeException(
        "src/check/budget.cc", "cache",
        "budget items decompose cache tag/data/LRU schemas"),
    IncludeException(
        "src/check/budget.cc", "prefetch",
        "budget items charge prefetcher metadata via InstPrefetcher"),
]


def module_of(relpath: str) -> str | None:
    """Module name of a repo-relative posix path, or None."""
    parts = relpath.split("/")
    if parts[0] == "src" and len(parts) > 1:
        return parts[1] if parts[1] in MODULE_RANK else None
    return parts[0] if parts[0] in MODULE_RANK else None


# --------------------------------------------------------------------
# Index records produced by the frontends.
# --------------------------------------------------------------------


@dataclass
class FunctionInfo:
    """One function *definition*."""

    qname: str              #: fully qualified (ns::Class::name)
    name: str               #: unqualified name
    file: str               #: repo-relative posix path
    line: int               #: 1-based line of the definition
    body_start: int = 0     #: offset of the opening brace in the
    body_end: int = 0       #: stripped text; end is exclusive
    class_qname: str | None = None  #: enclosing class, if a method
    is_hot: bool = False    #: definition carries FDIP_HOT_PATH
    is_virtual: bool = False
    is_final: bool = False
    #: [[noreturn]] on the definition: the cold failure path, excluded
    #: from the closure (executed at most once per process)
    is_noreturn: bool = False
    #: parameter name -> (class name of its type, dynamic) for
    #: receiver-type inference inside the body
    params: dict[str, tuple[str, bool]] = field(default_factory=dict)


@dataclass
class MethodDecl:
    """Per-class method facts (declarations and definitions)."""

    name: str
    is_virtual: bool = False
    is_final: bool = False


@dataclass
class ClassInfo:
    """One class/struct definition."""

    qname: str
    name: str               #: unqualified name
    file: str
    line: int
    bases: list[str] = field(default_factory=list)  #: unqualified
    is_final: bool = False
    methods: dict[str, MethodDecl] = field(default_factory=dict)
    #: member variable name -> (class name of its type, dynamic) where
    #: dynamic means the member is held by pointer/reference/smart
    #: pointer, i.e. calls through it may dispatch virtually.
    members: dict[str, tuple[str, bool]] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression inside a function body or hot region."""

    caller: str             #: qname of the enclosing function, or
    #: "region:<file>:<name>" for hot-region spans
    file: str
    line: int
    pos: int                #: offset of the callee name in the text
    callee: str             #: unqualified callee name
    qualifier: str | None = None   #: explicit A::B qualifier text
    #: receiver expression token ('this', a member/param/local name)
    #: for the textual frontend; None when absent or unresolvable
    receiver: str | None = None
    receiver_class: str | None = None  #: static class of the receiver
    #: receiver held by pointer/ref (virtual dispatch possible);
    #: False for by-value receivers and implicit this-calls
    dynamic: bool = False
    #: exact callee qname when the frontend resolved the reference
    #: itself (clang does; the textual frontend leaves this None and
    #: the analysis resolves structurally)
    resolved_qname: str | None = None
    #: the frontend proved this site dispatches virtually
    is_virtual_call: bool = False


@dataclass
class Include:
    """One `#include "module/header.h"` edge."""

    file: str
    line: int
    target: str             #: the quoted include path


@dataclass
class HotRegion:
    """One FDIP_HOT_REGION span."""

    file: str
    name: str
    start: int
    end: int


@dataclass
class FileIndex:
    """Everything a frontend extracted from one source file."""

    path: str               #: repo-relative posix path
    text: str               #: comment/string/preprocessor-stripped
    #: source, same length as the raw file (offsets are shared)
    functions: list[FunctionInfo] = field(default_factory=list)
    classes: list[ClassInfo] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    includes: list[Include] = field(default_factory=list)
    regions: list[HotRegion] = field(default_factory=list)
    #: (line, message) parse-level contract breaks (unpaired region
    #: markers, FDIP_HOT_PATH tokens that head no hot definition)
    problems: list[tuple[int, str]] = field(default_factory=list)
    #: names *declared* [[noreturn]] in this file (the definition may
    #: legally omit the attribute, e.g. log.h declares / log.cc defines)
    noreturn_decls: set[str] = field(default_factory=set)


@dataclass
class ProgramIndex:
    """Merged view over every indexed file."""

    files: dict[str, FileIndex] = field(default_factory=dict)
    backend: str = "builtin"

    def add(self, fi: FileIndex) -> None:
        self.files[fi.path] = fi

    # -- lookup tables (built lazily by analysis) ---------------------

    def all_functions(self) -> list[FunctionInfo]:
        return [f for fi in self.files.values() for f in fi.functions]

    def all_classes(self) -> list[ClassInfo]:
        return [c for fi in self.files.values() for c in fi.classes]

    def all_calls(self) -> list[CallSite]:
        return [c for fi in self.files.values() for c in fi.calls]

    def all_includes(self) -> list[Include]:
        return [i for fi in self.files.values() for i in fi.includes]

    def all_regions(self) -> list[HotRegion]:
        return [r for fi in self.files.values() for r in fi.regions]


# --------------------------------------------------------------------
# Findings and the exact-site allowlist.
# --------------------------------------------------------------------

#: Finding rule identifiers (also the JSON `rule` values).
RULE_UNANNOTATED = "unannotated-reachable"
RULE_BANNED_OP = "banned-op"
RULE_VIRTUAL = "virtual-call"
RULE_LAYERING = "layering"
RULE_STRUCTURE = "structure"       #: parse-level contract breaks
RULE_STALE_ALLOW = "stale-allowlist"


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str
    line: int
    symbol: str             #: stable site key the allowlist matches
    message: str
    chain: tuple[str, ...] = ()    #: hot root -> ... -> offender

    def render(self) -> str:
        loc = f"{self.file}:{self.line}" if self.line else self.file
        text = f"{loc}: [{self.rule}] {self.message}"
        if self.chain:
            text += f" (via {' -> '.join(self.chain)})"
        return text


@dataclass(frozen=True)
class AllowEntry:
    """Suppresses findings with matching (rule, file, symbol). An
    entry that suppresses nothing is itself a staleness finding, so
    the escape hatch cannot outlive the code it excused."""

    rule: str
    file: str
    symbol: str
    why: str


def apply_allowlist(findings: list[Finding], allowlist: list[AllowEntry],
                    stale_rule: str) -> list[Finding]:
    """@p findings without those an @p allowlist entry matches, plus
    one @p stale_rule finding per entry that matched none, sorted by
    site."""
    used: set[AllowEntry] = set()
    kept: list[Finding] = []
    for f in findings:
        entry = next((a for a in allowlist
                      if (a.rule, a.file, a.symbol)
                      == (f.rule, f.file, f.symbol)), None)
        if entry is None:
            kept.append(f)
        else:
            used.add(entry)
    kept += [Finding(stale_rule, a.file, 0, f"{a.rule}:{a.symbol}",
                     f"allowlist entry ({a.rule}, {a.file}, {a.symbol}) "
                     "suppressed nothing; delete it so the escape hatch "
                     "cannot outlive the code it excused")
             for a in allowlist if a not in used]
    return sorted(kept, key=lambda f: (f.file, f.line, f.rule, f.symbol))


#: Head allowlist. Every entry needs a written justification here and
#: in docs/ANALYSIS.md section 8.
ALLOWLIST: list[AllowEntry] = [
    # The prefetcher hooks are the simulator's single designed
    # polymorphic point: the frontend dispatches through
    # `InstPrefetcher &` so one binary hosts all nine designs. Every
    # concrete prefetcher is `final` and every override is at least as
    # noexcept as the base (tests/core_hotpath_contract_test.cc pins
    # both), so the cost is exactly one well-predicted indirect branch
    # per hook, accepted since PR 6.
    AllowEntry(RULE_VIRTUAL, "src/core/frontend.cc",
               "fdip::InstPrefetcher::onBranch",
               "designed dispatch point; all overrides final"),
    AllowEntry(RULE_VIRTUAL, "src/core/frontend.cc",
               "fdip::InstPrefetcher::onFillComplete",
               "designed dispatch point; all overrides final"),
    AllowEntry(RULE_VIRTUAL, "src/core/frontend.cc",
               "fdip::InstPrefetcher::onDemandLookup",
               "designed dispatch point; all overrides final"),
    # FlatMap grows by amortized doubling. The growth slot is the one
    # deliberately cold function reachable from hot code: it runs only
    # while a map is still filling (warmup), and
    # tests/core_hotpath_test.cc proves Core::run performs zero
    # steady-state allocations across every config x prefetcher. It
    # stays un-annotated on purpose — annotating it would declare the
    # allocation itself hot.
    AllowEntry(RULE_UNANNOTATED, "src/util/flat_map.h",
               "fdip::FlatMap::grow",
               "amortized growth slot; cold after warmup by "
               "construction (interposer test pins steady state)"),
    AllowEntry(RULE_BANNED_OP, "src/util/flat_map.h",
               "fdip::FlatMap::grow/make-smart",
               "the single amortized reallocation; zero steady-state "
               "allocations proven by tests/core_hotpath_test.cc"),
]
