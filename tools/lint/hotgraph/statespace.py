"""Architectural-state audit over the program index.

Every audited class — one that declares a StorageSchema or carries at
least one FDIP_STATE_* annotation (src/util/state.h) — is reduced to a
member census: each data member's classification (arch / micro /
host), the schema fields the arch members claim, and the reset /
construction coverage of every deterministic member. Three rule
families run over that census plus the hotgraph call graph:

  ghost state        every member classified; every FDIP_STATE_ARCH
                     field claim matches a declared schema field;
                     every schema field is backed by a member; arch
                     state never lives in a schema-less class
  reset coverage     every arch/micro scalar member is initialized by
                     an NSDMI, the constructor (init-list or body), or
                     the class's reset() closure (call-graph BFS with
                     hotgraph's conservative resolution)
  host/arch taint    FDIP_STATE_HOST members are never touched by a
                     function on the architectural hot-path closure
                     outside obs/trace-ranked modules

The census is emitted as a `state-audit-v1` JSON report and
cross-checked against the budget-certificate golden
(tests/data/budget_certificate.golden.json), which
tests/check_certify_test.cc already ties to storageBits(): source
annotations, schema declarations, certificate fields, and the
modeled bit totals must all agree.

The audit reads the index and the hot closure of a completed
Analysis (textual frontend by default, libclang in CI); the census
itself is always extracted textually because the annotations compile
away — libclang never sees them. Offsets are shared with the raw file
via the length-preserving stripper.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .model import (AllowEntry, Finding, FunctionInfo, apply_allowlist,
                    module_of)
from .analysis import Analysis
from .textual import (Token, match_brace_span, line_of, tokenize,
                      _type_head)

# --------------------------------------------------------------------
# Rules.
# --------------------------------------------------------------------

RULE_UNCLASSIFIED = "state-unclassified"
RULE_GHOST = "state-ghost"
RULE_ORPHAN = "state-schema-orphan"
RULE_UNRESET = "state-unreset"
RULE_HOST_TAINT = "state-host-taint"
RULE_CENSUS = "state-census"
RULE_STALE_ALLOW = "state-stale-allowlist"

STATE_MACROS = ("FDIP_STATE_ARCH", "FDIP_STATE_MICRO",
                "FDIP_STATE_HOST")

#: Modules whose functions may touch FDIP_STATE_HOST members even on
#: the hot closure: observability is their whole job, and nothing
#: they produce feeds back into architectural state (the determinism
#: suite pins that).
HOST_EXEMPT_MODULES = frozenset({"obs", "trace"})

#: Schema-declaring method names a class may use.
SCHEMA_METHODS = ("storageSchema", "storageSchemaFor")

#: Free schema functions that account for a specific class's members
#: (the decode queue's schema lives beside the queue, not in it).
FREE_SCHEMA_OWNERS: dict[str, str] = {
    "decodeQueueStorageSchema": "fdip::Backend",
}

#: Scalar type heads that are indeterminate without an explicit
#: initializer (the reset rule's "must cover" set). Class types are
#: value-initialized by their own constructors — their internals are
#: audited in their own class — so they are exempt here.
_SCALAR_RE = re.compile(
    r"^(bool|char|short|int|long|unsigned|signed|float|double"
    r"|u?int(8|16|32|64|ptr)?_t|size_t|ptrdiff_t)$")

#: Repo value typedefs that alias integers (util/types.h).
SCALAR_ALIASES = frozenset({"Addr", "Cycle", "InstSeq", "Tick"})

_QUALS = frozenset({"const", "constexpr", "mutable", "volatile",
                    "typename", "inline"})

#: Statements that are never member declarations.
_NON_MEMBER = frozenset({"using", "typedef", "friend", "static",
                         "public", "private", "protected", "template",
                         "operator", "enum", "class", "struct",
                         "union"})

_ADD_RE = re.compile(r'\.\s*add\s*\(\s*"([^"]*)"\s*(\+?)')

#: member [.|->] clear/fill/assign/reset/resize(  — bulk re-init.
_REINIT_METHODS = r"(clear|fill|assign|reset|resize|seed)"


# --------------------------------------------------------------------
# Allowlist. Every entry needs a written justification here and in
# docs/ANALYSIS.md section 9; an entry that suppresses nothing is
# itself a staleness finding.
# --------------------------------------------------------------------

STATE_ALLOWLIST: list[AllowEntry] = [
    # The tick-phase self-profiler is host telemetry by design: the
    # tick loop stamps phase begin/end markers on it, and nothing it
    # accumulates is ever read back into architectural state
    # (sim_determinism_test pins bit-identical stats with the
    # profiler on and off). The member is classified HOST so any NEW
    # reader on the hot path is a finding; these two entries excuse
    # exactly the designed begin/end stamping sites.
    AllowEntry(RULE_HOST_TAINT, "src/core/core.cc",
               "fdip::Core::profiler_",
               "host phase stamps in the tick loop; write-only, "
               "never read back (determinism suite pins it)"),
    AllowEntry(RULE_HOST_TAINT, "src/core/frontend.cc",
               "fdip::Frontend::profiler_",
               "host phase stamps around fetch/predict; write-only, "
               "never read back (determinism suite pins it)"),
]


# --------------------------------------------------------------------
# Census records.
# --------------------------------------------------------------------


@dataclass
class MemberInfo:
    """One data member of an audited class."""

    name: str
    line: int
    kind: str | None = None         #: 'arch' | 'micro' | 'host' | None
    fields: list[str] = field(default_factory=list)  #: arch claims
    type_head: str = ""             #: CamelCase class head, if any
    needs_init: bool = False        #: scalar/pointer/array member
    has_nsdmi: bool = False
    is_ref: bool = False
    covered_by: str | None = None   #: how the reset rule was satisfied


@dataclass
class SchemaField:
    name: str                       #: literal, or prefix when dynamic
    dynamic: bool = False           #: name built at runtime

    def matches(self, claim: str) -> bool:
        """True when the annotation argument @p claim covers this
        field. A claim ending in `...` is a prefix wildcard."""
        if claim.endswith("..."):
            prefix = claim[:-3]
            return (self.name.startswith(prefix)
                    or prefix.startswith(self.name))
        return not self.dynamic and self.name == claim


@dataclass
class AuditClass:
    """One audited class and its member census."""

    qname: str
    name: str
    file: str
    line: int
    body_start: int
    body_end: int
    members: dict[str, MemberInfo] = field(default_factory=dict)
    schema: list[SchemaField] | None = None  #: None = schema-less
    schema_fn: str | None = None    #: qname of the declaring function
    certificate_structure: str | None = None
    certificate_bits: int | None = None


# --------------------------------------------------------------------
# Class-body member scanning (textual, annotation-aware).
# --------------------------------------------------------------------

_CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)")


def _find_class_bodies(text: str) -> list[tuple[str, int, int, int]]:
    """(name, decl_pos, body_start, body_end) for every class/struct
    *definition* in stripped @p text, including nested ones."""
    out = []
    for m in _CLASS_RE.finditer(text):
        # Walk past the optional final/base clause to '{'; bail at
        # ';' (forward declaration), '(' / '=' (expression), or a
        # bare '>' / ',' (a `template <class T, ...>` parameter).
        i = m.end()
        depth = 0
        while i < len(text):
            c = text[i]
            if c == "<":
                depth += 1
            elif c == ">" and depth > 0:
                depth -= 1
            elif depth == 0 and c == "{":
                break
            elif depth == 0 and c in ";()=>,":
                i = -1
                break
            i += 1
        if i < 0 or i >= len(text):
            continue
        end = match_brace_span(text, i)
        if end is None:
            continue
        out.append((m.group(2), m.start(), i, end))
    return out


def _split_statements(toks: list[Token],
                      text: str) -> list[tuple[list[Token], bool]]:
    """Top-level statements of a class body as (tokens, had_block).
    Brace blocks (method bodies, nested types, NSDMI braces) are
    consumed but not included in the token list."""
    stmts: list[tuple[list[Token], bool]] = []
    cur: list[Token] = []
    had_block = False
    i = 0
    while i < len(toks):
        t = toks[i]
        v = t.value
        if v == ";":
            if cur:
                stmts.append((cur, had_block))
            cur, had_block = [], False
            i += 1
            continue
        if v == "{":
            end = match_brace_span(text, t.pos)
            if end is None:
                break
            had_block = True
            while i < len(toks) and toks[i].pos < end:
                i += 1
            # Method definitions and nested types end at '}' with no
            # ';'; NSDMI braces continue to the ';'. Close now unless
            # the next token keeps the statement going.
            if i < len(toks) and toks[i].value in (";", ","):
                continue
            values = [x.value for x in cur]
            if "(" in values or (values and values[0] in
                                 ("class", "struct", "enum", "union")):
                cur, had_block = [], False
            continue
        if v == ":" and cur and cur[-1].value in ("public", "private",
                                                  "protected"):
            cur, had_block = [], False
            i += 1
            continue
        cur.append(t)
        i += 1
    if cur:
        stmts.append((cur, had_block))
    return stmts


def _split_args(toks: list[Token]) -> list[str]:
    """Macro argument list tokens -> joined argument strings."""
    args: list[str] = []
    cur: list[str] = []
    depth = 0
    for t in toks:
        if t.value in "<([{":
            depth += 1
        elif t.value in ">)]}":
            depth -= 1
        if t.value == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(t.value)
    if cur:
        args.append("".join(cur))
    return [a for a in args if a]


def _parse_member(stmt: list[Token], had_block: bool,
                  text: str) -> MemberInfo | None:
    """MemberInfo for one class-body statement, or None when the
    statement is not a data member declaration."""
    kind: str | None = None
    fields: list[str] = []
    toks = list(stmt)

    if toks and toks[0].value in STATE_MACROS:
        macro = toks.pop(0).value
        kind = macro.rsplit("_", 1)[-1].lower()
        if toks and toks[0].value == "(":
            depth = 0
            j = 0
            for j, t in enumerate(toks):
                if t.value == "(":
                    depth += 1
                elif t.value == ")":
                    depth -= 1
                    if depth == 0:
                        break
            fields = _split_args(toks[1:j])
            toks = toks[j + 1:]

    values = [t.value for t in toks]
    if not toks or "(" in values:
        return None
    if values[0] in _NON_MEMBER or "static" in values:
        return None

    # Cut the initializer (`= ...`) / bit-field (`: n`) tail.
    cut = len(values)
    has_nsdmi = had_block
    angle = 0
    for k, v in enumerate(values):
        if v == "<":
            angle += 1
        elif v == ">":
            angle = max(0, angle - 1)
        elif angle == 0 and v in ("=", ":"):
            has_nsdmi = has_nsdmi or v == "="
            cut = k
            break
    decl = toks[:cut]
    idents = [t for t in decl if t.is_ident]
    if len(idents) < 2:
        return None
    # Declared name: last identifier outside array brackets
    # (`ring_[kRingWords]` declares ring_, not kRingWords).
    name_tok = None
    bracket = 0
    for t in reversed(decl):
        if t.value == "]":
            bracket += 1
        elif t.value == "[":
            bracket -= 1
        elif t.is_ident and bracket == 0:
            name_tok = t
            break
    if name_tok is None:
        return None

    decl_values = [t.value for t in decl]
    is_ref = "&" in decl_values or "&&" in decl_values
    is_ptr = "*" in decl_values
    is_carray = "[" in decl_values[decl_values.index(name_tok.value):]

    # Scalar heuristic for the reset rule: the first type identifier
    # run after qualifiers.
    head = ""
    for t in decl:
        if t is name_tok:
            break
        if t.is_ident and t.value not in _QUALS \
                and t.value != "std":
            head = t.value
            break
    is_scalar = bool(_SCALAR_RE.match(head)) or head in SCALAR_ALIASES
    needs_init = ((is_scalar or is_ptr or is_carray
                   or head == "array") and not is_ref)

    type_head, _dyn = _type_head(decl, name_tok.value)
    return MemberInfo(name=name_tok.value,
                      line=line_of(text, name_tok.pos),
                      kind=kind, fields=fields, type_head=type_head,
                      needs_init=needs_init, has_nsdmi=has_nsdmi,
                      is_ref=is_ref)


# --------------------------------------------------------------------
# The audit.
# --------------------------------------------------------------------


class StateAudit:
    """Runs the three statespace rule families over the index of
    @p analysis, whose run() has already walked the hot closure.

    @p root is the tree the index was built from (raw file access for
    schema field strings, which the stripper blanks); @p certificate
    is the parsed budget-certificate golden, or None to skip the
    census/bits cross-check.
    """

    def __init__(self, analysis: Analysis, root: Path,
                 allowlist: list[AllowEntry] | None = None,
                 certificate: dict | None = None,
                 cert_classes: dict[str, str] | None = None):
        self.analysis = analysis
        self.prog = analysis.prog
        self.root = Path(root)
        self.allowlist = (STATE_ALLOWLIST if allowlist is None
                          else allowlist)
        self.certificate = certificate
        self.cert_classes = (CLASS_TO_CERT if cert_classes is None
                             else cert_classes)
        self.findings: list[Finding] = []
        self.classes: dict[str, AuditClass] = {}
        self.classes_by_name: dict[str, AuditClass] = {}

    # ---- census construction ----------------------------------------

    def _class_qname(self, file: str, name: str, decl_pos: int) -> str:
        fi = self.prog.files.get(file)
        if fi is not None:
            line = line_of(fi.text, decl_pos)
            for c in fi.classes:
                if c.name == name and abs(c.line - line) <= 1:
                    return c.qname
        return name

    def _collect_classes(self) -> None:
        for path, fi in sorted(self.prog.files.items()):
            if not path.startswith("src/"):
                continue
            bodies = _find_class_bodies(fi.text)
            nested = [(s, e) for _, _, s, e in bodies]
            for name, decl_pos, start, end in bodies:
                toks = [t for t in tokenize(fi.text[start + 1:end - 1])]
                # Re-anchor token offsets to the file.
                for t in toks:
                    t.pos += start + 1
                # Drop tokens inside nested class bodies.
                toks = [t for t in toks
                        if not any(s < t.pos < e for s, e in nested
                                   if (s, e) != (start, end)
                                   and start < s and e < end)]
                members: dict[str, MemberInfo] = {}
                for stmt, had_block in _split_statements(toks, fi.text):
                    mi = _parse_member(stmt, had_block, fi.text)
                    if mi is not None:
                        members[mi.name] = mi
                qname = self._class_qname(path, name, decl_pos)
                ac = AuditClass(qname=qname, name=name, file=path,
                                line=line_of(fi.text, decl_pos),
                                body_start=start, body_end=end,
                                members=members)
                self._attach_schema(ac)
                annotated = any(m.kind for m in members.values())
                if ac.schema is not None or annotated:
                    self.classes[qname] = ac

    def _raw_text(self, path: str) -> str:
        try:
            return (self.root / path).read_text(errors="replace")
        except OSError:
            return ""

    def _schema_fields_of(self, fn: FunctionInfo) -> list[SchemaField]:
        raw = self._raw_text(fn.file)
        body = raw[fn.body_start:fn.body_end]
        fields: list[SchemaField] = []
        seen: set[tuple[str, bool]] = set()
        for m in _ADD_RE.finditer(body):
            name, dynamic = m.group(1), m.group(2) == "+"
            if (name, dynamic) not in seen:
                seen.add((name, dynamic))
                fields.append(SchemaField(name, dynamic))
        return fields

    def _attach_schema(self, ac: AuditClass) -> None:
        # Union over every declaring function: a thin storageSchema()
        # wrapper delegating to storageSchemaFor(cfg) contributes no
        # fields of its own.
        fields: list[SchemaField] = []
        seen: set[str] = set()
        for fn in self.analysis.funcs:
            own = (fn.class_qname == ac.qname
                   and fn.name in SCHEMA_METHODS)
            free = (fn.class_qname is None
                    and FREE_SCHEMA_OWNERS.get(fn.name) == ac.qname)
            if not (own or free) or fn.body_end <= fn.body_start:
                continue
            if ac.schema is None:
                ac.schema = fields
            got = self._schema_fields_of(fn)
            for f in got:
                if f.name not in seen:
                    seen.add(f.name)
                    fields.append(f)
            if got and ac.schema_fn is None:
                ac.schema_fn = fn.qname

    # ---- rule 1: ghost state / schema completeness --------------------

    def _check_ghost(self, ac: AuditClass) -> None:
        for m in ac.members.values():
            if m.kind is None:
                self.findings.append(Finding(
                    RULE_UNCLASSIFIED, ac.file, m.line,
                    f"{ac.qname}::{m.name}",
                    f"{ac.qname}::{m.name} carries no FDIP_STATE_* "
                    "classification (audited class: "
                    + ("declares a StorageSchema"
                       if ac.schema is not None
                       else "has annotated members") + ")"))
                continue
            if m.kind != "arch":
                continue
            if m.fields == ["sub"]:
                sub = self.classes_by_name.get(m.type_head)
                if sub is None:
                    self.findings.append(Finding(
                        RULE_GHOST, ac.file, m.line,
                        f"{ac.qname}::{m.name}",
                        f"{ac.qname}::{m.name} delegates its storage "
                        f"accounting to type {m.type_head or '?'}, "
                        "which is not an audited class (no schema, no "
                        "annotations)"))
                continue
            if ac.schema is None:
                self.findings.append(Finding(
                    RULE_GHOST, ac.file, m.line,
                    f"{ac.qname}::{m.name}",
                    f"{ac.qname}::{m.name} is FDIP_STATE_ARCH but "
                    f"{ac.qname} declares no StorageSchema: the state "
                    "is invisible to the budget accounting"))
                continue
            if not m.fields:
                self.findings.append(Finding(
                    RULE_GHOST, ac.file, m.line,
                    f"{ac.qname}::{m.name}",
                    f"{ac.qname}::{m.name} is FDIP_STATE_ARCH but "
                    "names no schema fields"))
                continue
            for claim in m.fields:
                if not any(f.matches(claim) for f in ac.schema):
                    self.findings.append(Finding(
                        RULE_GHOST, ac.file, m.line,
                        f"{ac.qname}::{m.name}",
                        f"{ac.qname}::{m.name} claims schema field "
                        f"'{claim}' but {ac.qname}'s StorageSchema "
                        f"({ac.schema_fn}) declares no such field: "
                        "ghost state outside the accounted budget"))
        if ac.schema is not None:
            claims = [c for m in ac.members.values()
                      if m.kind == "arch" for c in m.fields
                      if c != "sub"]
            for f in ac.schema:
                if not any(f.matches(c) for c in claims):
                    self.findings.append(Finding(
                        RULE_ORPHAN, ac.file, ac.line, ac.qname,
                        f"schema field '{f.name}'"
                        + (" (dynamic)" if f.dynamic else "")
                        + f" of {ac.qname} ({ac.schema_fn}) is not "
                        "backed by any FDIP_STATE_ARCH member: "
                        "orphaned accounting"))

    # ---- rule 2: reset / construction coverage ------------------------

    def _ctor_initlist_names(self, fn: FunctionInfo) -> set[str]:
        """Members named in @p fn's constructor init list: scan
        forward from the definition line to the parameter list, skip
        it, then collect `name(..)` / `name{..}` initializers between
        the ':' and the body brace."""
        fi = self.prog.files.get(fn.file)
        if fi is None or fn.body_start <= 0:
            return set()
        text = fi.text
        # Offset of the definition line (fn.line is 1-based).
        pos = 0
        for _ in range(fn.line - 1):
            nl = text.find("\n", pos)
            if nl < 0:
                return set()
            pos = nl + 1
        # First '(' at/after the name opens the parameter list.
        popen = text.find("(", pos, fn.body_start)
        if popen < 0:
            return set()
        depth = 0
        i = popen
        while i < fn.body_start:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        seg = text[i + 1:fn.body_start]
        colon = -1
        for k, c in enumerate(seg):
            if c == ":" and not (seg[k - 1:k] == ":"
                                 or seg[k + 1:k + 2] == ":"):
                colon = k
                break
        if colon < 0:
            return set()
        names: set[str] = set()
        for m in re.finditer(r"([A-Za-z_]\w*)\s*[({]", seg[colon:]):
            names.add(m.group(1))
        return names

    def _closure_from(self, seeds: list[FunctionInfo],
                      limit: int = 200) -> list[FunctionInfo]:
        """Conservative call-graph closure (hotgraph resolution)."""
        visited: dict[tuple[str, int], FunctionInfo] = {}
        queue = list(seeds)
        while queue and len(visited) < limit:
            fn = queue.pop()
            key = (fn.file, fn.line)
            if key in visited:
                continue
            visited[key] = fn
            for call in self.analysis._calls_by_file.get(fn.file, []):
                if call.caller != fn.qname:
                    continue
                if not fn.body_start <= call.pos < fn.body_end:
                    continue
                res = self.analysis.resolve(call, fn)
                queue.extend(res.targets)
        return list(visited.values())

    def _assigned_members(self, ac: AuditClass,
                          fns: list[FunctionInfo]) -> set[str]:
        """Member names of @p ac assigned/re-initialized in the
        bodies of @p fns (own-class methods only)."""
        out: set[str] = set()
        for fn in fns:
            if fn.class_qname != ac.qname:
                continue
            fi = self.prog.files.get(fn.file)
            if fi is None:
                continue
            body = fi.text[fn.body_start:fn.body_end]
            for name, m in ac.members.items():
                if name in out:
                    continue
                if re.search(r"\b%s\b\s*(=(?!=)|\.\s*%s\s*\()"
                             % (re.escape(name), _REINIT_METHODS),
                             body):
                    out.add(name)
                elif re.search(r"\b(fill|memset|iota)\s*\([^;)]*\b%s\b"
                               % re.escape(name), body):
                    out.add(name)
        return out

    def _check_reset(self, ac: AuditClass) -> None:
        targets = [m for m in ac.members.values()
                   if m.kind in ("arch", "micro") and m.needs_init
                   and not m.has_nsdmi and not m.is_ref]
        for m in targets:
            m.covered_by = None
        if not targets:
            return
        ctors = [f for f in self.analysis.funcs
                 if f.class_qname == ac.qname and f.name == ac.name]
        resets = [f for f in self.analysis.funcs
                  if f.class_qname == ac.qname and f.name == "reset"]
        init_names: set[str] = set()
        for c in ctors:
            init_names |= self._ctor_initlist_names(c)
        closure = self._closure_from(ctors + resets)
        assigned = self._assigned_members(ac, closure)
        for m in targets:
            if m.name in init_names:
                m.covered_by = "ctor-init-list"
            elif m.name in assigned:
                m.covered_by = "ctor/reset closure"
            else:
                self.findings.append(Finding(
                    RULE_UNRESET, ac.file, m.line,
                    f"{ac.qname}::{m.name}",
                    f"{ac.qname}::{m.name} is FDIP_STATE_"
                    f"{m.kind.upper()} but has no NSDMI, no "
                    "constructor init-list entry, and no assignment "
                    "in the constructor/reset() closure: stale state "
                    "across runs"))

    # ---- rule 3: host/arch taint separation ---------------------------

    def _check_host_taint(self) -> None:
        host: list[tuple[AuditClass, MemberInfo]] = []
        for ac in self.classes.values():
            for m in ac.members.values():
                if m.kind == "host":
                    host.append((ac, m))
        if not host:
            return
        # Hot contexts: every function in the hot closure, plus every
        # FDIP_HOT_REGION span (the closure walk only enqueues the
        # region's *callees*, not the enclosing cold function whose
        # text the span lives in).
        contexts: list[tuple[str, int, int, str, str | None]] = [
            (fn.file, fn.body_start, fn.body_end, fn.qname,
             fn.class_qname)
            for fn in self.analysis.reachable_functions]
        for region in self.prog.all_regions():
            ctx = self.analysis._enclosing_function(region.file,
                                                    region.start)
            contexts.append(
                (region.file, region.start, region.end,
                 f"hot region '{region.name}'"
                 + (f" in {ctx.qname}" if ctx else ""),
                 ctx.class_qname if ctx else None))
        for file, start, end, label, owner in contexts:
            mod = module_of(file)
            if mod in HOST_EXEMPT_MODULES:
                continue
            fi = self.prog.files.get(file)
            if fi is None:
                continue
            body = fi.text[start:end]
            for ac, m in host:
                pat = (r"\b%s\b" % re.escape(m.name)
                       if owner == ac.qname
                       else r"(\.|->)\s*%s\b" % re.escape(m.name))
                mm = re.search(pat, body)
                if mm is None:
                    continue
                self.findings.append(Finding(
                    RULE_HOST_TAINT, file,
                    line_of(fi.text, start + mm.start()),
                    f"{ac.qname}::{m.name}",
                    f"{label} is on the architectural hot-path "
                    f"closure (module '{mod}') but touches "
                    f"FDIP_STATE_HOST member {ac.qname}::{m.name}: "
                    "host telemetry must stay out of architectural "
                    "code (or move the access into obs/trace)"))

    # ---- census / certificate cross-check -----------------------------

    def _check_certificate(self) -> None:
        """Every cert_classes class must cross-check against its
        paper-baseline certificate structure, field by field."""
        if not self.certificate:
            return
        configs = {c["name"]: c
                   for c in self.certificate.get("configs", [])}
        base = configs.get("paper-baseline", {"structures": []})
        structures = {s["name"]: s for s in base["structures"]}
        for qname, struct_name in self.cert_classes.items():
            ac = self.classes.get(qname)
            st = structures.get(struct_name)
            if ac is None or ac.schema is None or st is None:
                why = ("no audited class has that name" if ac is None
                       else "the class declares no StorageSchema"
                       if ac.schema is None
                       else "the certificate's paper-baseline config "
                            "has no such structure")
                self.findings.append(Finding(
                    RULE_CENSUS, ac.file if ac else CLASS_TO_CERT_FILE,
                    ac.line if ac else 0, qname,
                    f"{qname} maps to certificate structure "
                    f"'{struct_name}' (CLASS_TO_CERT) but {why}: the "
                    "census was not cross-checked against the "
                    "certificate"))
                continue
            ac.certificate_structure = struct_name
            ac.certificate_bits = st["bits"]
            for f in st["fields"]:
                cert_field = f["field"]
                if not any(sf.name == cert_field
                           or (sf.dynamic
                               and cert_field.startswith(sf.name))
                           for sf in ac.schema):
                    self.findings.append(Finding(
                        RULE_CENSUS, ac.file, ac.line, qname,
                        f"certificate structure '{struct_name}' "
                        f"charges field '{cert_field}' but the parsed "
                        f"schema declaration of {qname} "
                        f"({ac.schema_fn}) has no such field: census "
                        "and certificate disagree"))

    # ---- entry point --------------------------------------------------

    def run(self) -> list[Finding]:
        if self.analysis.reachable_functions is None:
            raise RuntimeError("StateAudit.run() needs a completed "
                               "Analysis.run(): the host-taint rule "
                               "reads its hot closure")
        self._collect_classes()
        self.classes_by_name = {ac.name: ac
                                for ac in self.classes.values()}
        for ac in self.classes.values():
            self._check_ghost(ac)
            self._check_reset(ac)
        self._check_host_taint()
        self._check_certificate()
        self.findings = apply_allowlist(self.findings, self.allowlist,
                                        RULE_STALE_ALLOW)
        return self.findings

    # ---- reports ------------------------------------------------------

    def census(self) -> dict:
        """Deterministic per-class member census (the golden-diffed
        state-space inventory)."""
        out: dict = {}
        for qname in sorted(self.classes):
            ac = self.classes[qname]
            out[qname] = {
                "file": ac.file,
                "schema": ([{"field": f.name, "dynamic": f.dynamic}
                            for f in ac.schema]
                           if ac.schema is not None else None),
                "schemaFn": ac.schema_fn,
                "certificateStructure": ac.certificate_structure,
                "certificateBits": ac.certificate_bits,
                "members": {
                    m.name: {
                        "kind": m.kind,
                        **({"fields": m.fields}
                           if m.kind == "arch" else {}),
                    }
                    for m in sorted(ac.members.values(),
                                    key=lambda m: m.name)
                },
            }
        return out

    def to_json(self) -> dict:
        census = self.census()
        kinds = {"arch": 0, "micro": 0, "host": 0, None: 0}
        for ac in self.classes.values():
            for m in ac.members.values():
                kinds[m.kind] = kinds.get(m.kind, 0) + 1
        return {
            "schema": "state-audit-v1",
            "backend": self.prog.backend,
            "auditedClasses": len(self.classes),
            "members": sum(len(ac.members)
                           for ac in self.classes.values()),
            "membersByKind": {
                "arch": kinds["arch"], "micro": kinds["micro"],
                "host": kinds["host"],
                "unclassified": kinds[None]},
            "findings": len(self.findings),
            "findingList": [
                {"rule": f.rule, "file": f.file, "line": f.line,
                 "symbol": f.symbol, "message": f.message}
                for f in self.findings],
            "census": census,
        }


#: Audited class -> budget-certificate structure (paper-baseline
#: config). check_certify_test.cc ties certificate bits to
#: storageBits(); this map ties the source schema declarations (and
#: through them the FDIP_STATE_ARCH census) to the certificate, so
#: census <-> certificate <-> storageBits() is one closed chain.
CLASS_TO_CERT_FILE = "tools/lint/hotgraph/statespace.py"
CLASS_TO_CERT: dict[str, str] = {
    "fdip::Btb": "BTB",
    "fdip::Tage": "TAGE",
    "fdip::Ittage": "ITTAGE",
    "fdip::BranchHistory": "history",
    "fdip::Ras": "RAS",
    "fdip::Ftq": "FTQ(arch)",
    "fdip::Cache": "L1I",
    "fdip::Backend": "decode queue",
}


def census_diff(golden: dict, current: dict) -> list[str]:
    """Human-readable census drift (state-space growth must be a
    reviewed diff, not a silent change)."""
    problems: list[str] = []
    for qname in sorted(set(golden) | set(current)):
        if qname not in current:
            problems.append(f"census: class {qname} vanished "
                            "(golden lists it)")
        elif qname not in golden:
            problems.append(f"census: new audited class {qname} — "
                            "review and regenerate the golden "
                            "(--update-census)")
        elif golden[qname] != current[qname]:
            before = len(problems)
            gm = golden[qname].get("members", {})
            cm = current[qname].get("members", {})
            for name in sorted(set(gm) | set(cm)):
                if name not in cm:
                    problems.append(f"census: {qname}::{name} "
                                    "vanished")
                elif name not in gm:
                    problems.append(f"census: new member "
                                    f"{qname}::{name} "
                                    f"({cm[name].get('kind')})")
                elif gm[name] != cm[name]:
                    problems.append(
                        f"census: {qname}::{name} changed "
                        f"{gm[name]} -> {cm[name]}")
            if golden[qname].get("schema") != \
                    current[qname].get("schema"):
                problems.append(f"census: schema of {qname} changed")
            if len(problems) == before:
                problems.append(f"census: {qname} drifted from the "
                                "golden (regenerate with "
                                "--update-census after review)")
    return problems
