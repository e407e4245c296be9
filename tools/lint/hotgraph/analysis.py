"""Closure analysis over the hot-path call graph.

Consumes the neutral ProgramIndex a frontend produced and enforces
four properties:

  1. every function reachable from a FDIP_HOT_PATH root (or a
     FDIP_HOT_REGION span) is itself annotated FDIP_HOT_PATH,
  2. no function in the closure (and no hot region) contains an
     operation of model.BAN_RULES,
  3. no call in the closure can dispatch virtually unless the
     receiver's static type or the method is `final` (or the site is
     an allowlisted designed dispatch point),
  4. the include graph respects the module layering DAG
     (util -> check -> obs/trace -> bpu/cache -> prefetch -> core ->
     sim -> harness), with justified exceptions carried per edge.

It also reports the parse-level problems the frontend recorded: a
FDIP_HOT_PATH token that heads no hot function body, and region
markers that do not pair up, so no annotated code escapes the walk.

Resolution is deliberately conservative: a call the frontend cannot
bind to a definition in the index produces no edge (std:: calls,
macro invocations, calls through locals the textual frontend cannot
type). [[noreturn]] callees are excluded from the closure — they are
the cold failure path, executed at most once per process, and they
are *supposed* to format strings and throw.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from .model import (ALLOWLIST, BAN_RULES, INCLUDE_EXCEPTIONS,
                    MODULE_RANK, RULE_BANNED_OP, RULE_LAYERING,
                    RULE_STALE_ALLOW, RULE_STRUCTURE, RULE_UNANNOTATED,
                    RULE_VIRTUAL, AllowEntry, CallSite, ClassInfo,
                    Finding, FunctionInfo, IncludeException,
                    ProgramIndex, apply_allowlist, module_of)
from .textual import line_of

#: Modules at or above this rank are the harness (tools, bench,
#: tests, examples): they sit at the top of the DAG and may include
#: anything, including each other.
HARNESS_RANK = MODULE_RANK["tools"]


@dataclass
class Resolution:
    """Targets of one call site plus the dispatch facts."""

    targets: list[FunctionInfo] = field(default_factory=list)
    #: receiver static class when the call is a method call
    receiver_class: ClassInfo | None = None
    #: the site may dispatch virtually (receiver held by ptr/ref, the
    #: method is virtual, and neither the class nor the method is final)
    devirt_hole: bool = False
    #: qname the virtual finding reports (base-most is the static type)
    virtual_symbol: str = ""


class Analysis:
    """One run of the closure analysis over a ProgramIndex."""

    def __init__(self, prog: ProgramIndex,
                 allowlist: list[AllowEntry] | None = None,
                 include_exceptions: list[IncludeException] | None = None):
        self.prog = prog
        self.allowlist = ALLOWLIST if allowlist is None else allowlist
        self.include_exceptions = (INCLUDE_EXCEPTIONS
                                   if include_exceptions is None
                                   else include_exceptions)
        self.findings: list[Finding] = []
        self._used_inc_exc: set[int] = set()
        #: hot-closure members discovered by run(), for downstream
        #: consumers (the state audit's host/arch taint rule); None
        #: until run() has walked the closure
        self.reachable_functions: list[FunctionInfo] | None = None

        # ---- lookup tables ------------------------------------------
        self.funcs = prog.all_functions()
        self.by_qname: dict[str, list[FunctionInfo]] = {}
        self.free_by_name: dict[str, list[FunctionInfo]] = {}
        for f in self.funcs:
            self.by_qname.setdefault(f.qname, []).append(f)
            if f.class_qname is None:
                self.free_by_name.setdefault(f.name, []).append(f)

        self.classes = prog.all_classes()
        self.class_by_name: dict[str, list[ClassInfo]] = {}
        for c in self.classes:
            self.class_by_name.setdefault(c.name, []).append(c)

        #: unqualified class name -> direct subclasses
        self.derived: dict[str, list[ClassInfo]] = {}
        for c in self.classes:
            for b in c.bases:
                self.derived.setdefault(b, []).append(c)

        #: method definitions grouped by (unqualified class, name)
        self.method_defs: dict[tuple[str, str], list[FunctionInfo]] = {}
        for f in self.funcs:
            if f.class_qname is not None:
                cls = f.class_qname.split("::")[-1]
                self.method_defs.setdefault((cls, f.name), []).append(f)

        #: names declared or defined [[noreturn]] anywhere
        self.noreturn_names: set[str] = set()
        for fi in prog.files.values():
            self.noreturn_names |= fi.noreturn_decls
        for f in self.funcs:
            if f.is_noreturn:
                self.noreturn_names.add(f.name)

        #: classes whose every subclass-override chain terminates final
        self._final_cache: dict[str, bool] = {}

        # region -> enclosing function (for this/member resolution)
        self._calls_by_file: dict[str, list[CallSite]] = {}
        for c in prog.all_calls():
            self._calls_by_file.setdefault(c.file, []).append(c)

    # ------------------------------------------------------------------
    # Class facts.
    # ------------------------------------------------------------------

    def _class(self, name: str) -> ClassInfo | None:
        """The unique class of unqualified @p name, else None."""
        cands = self.class_by_name.get(name.split("::")[-1], [])
        return cands[0] if len(cands) == 1 else None

    def _bases_chain(self, cls: ClassInfo) -> list[ClassInfo]:
        """@p cls followed by its transitive bases (cycle-safe)."""
        out, seen = [], set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c.qname in seen:
                continue
            seen.add(c.qname)
            out.append(c)
            for b in c.bases:
                bc = self._class(b)
                if bc is not None:
                    stack.append(bc)
        return out

    def _derived_chain(self, cls: ClassInfo) -> list[ClassInfo]:
        """@p cls followed by its transitive subclasses."""
        out, seen = [], set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c.qname in seen:
                continue
            seen.add(c.qname)
            out.append(c)
            for d in self.derived.get(c.name, []):
                stack.append(d)
        return out

    def _method_is_virtual(self, cls: ClassInfo, name: str) -> bool:
        """True when @p name is virtual in @p cls or any base."""
        for c in self._bases_chain(cls):
            md = c.methods.get(name)
            if md is not None and md.is_virtual:
                return True
        return False

    def _method_is_final(self, cls: ClassInfo, name: str) -> bool:
        md = cls.methods.get(name)
        return md is not None and md.is_final

    def _method_targets(self, cls: ClassInfo, name: str,
                        virtual: bool) -> list[FunctionInfo]:
        """Definitions a call to @p cls::@p name can land on: the
        static type's own chain, plus every override below when the
        dispatch is virtual."""
        targets: list[FunctionInfo] = []
        for c in self._bases_chain(cls):
            targets += self.method_defs.get((c.name, name), [])
            if targets:
                break       # nearest definition up the chain wins
        if virtual:
            for d in self._derived_chain(cls)[1:]:
                targets += self.method_defs.get((d.name, name), [])
        return targets

    # ------------------------------------------------------------------
    # Receiver typing (textual frontend).
    # ------------------------------------------------------------------

    def _receiver_type(self, call: CallSite,
                       ctx: FunctionInfo | None
                       ) -> tuple[ClassInfo | None, bool]:
        """(static class, dynamic) of @p call's receiver expression."""
        recv = call.receiver
        if call.receiver_class:
            return self._class(call.receiver_class), call.dynamic
        if recv is None or ctx is None:
            return None, False
        if recv == "this":
            cls = (self._class(ctx.class_qname)
                   if ctx.class_qname else None)
            # calls through `this` dispatch dynamically
            return cls, True
        if recv in ctx.params:
            tname, dyn = ctx.params[recv]
            return self._class(tname), dyn
        if ctx.class_qname:
            cls = self._class(ctx.class_qname)
            if cls is not None:
                for c in self._bases_chain(cls):
                    if recv in c.members:
                        tname, dyn = c.members[recv]
                        return self._class(tname), dyn
        return None, False

    # ------------------------------------------------------------------
    # Call resolution.
    # ------------------------------------------------------------------

    def resolve(self, call: CallSite,
                ctx: FunctionInfo | None) -> Resolution:
        res = Resolution()

        # Frontend-resolved reference (clang): exact.
        if call.resolved_qname is not None:
            res.targets = list(self.by_qname.get(call.resolved_qname, []))
            if call.is_virtual_call:
                cls_q = call.resolved_qname.rsplit("::", 1)[0]
                cls = self._class(cls_q)
                if cls is not None:
                    if not (cls.is_final
                            or self._method_is_final(cls, call.callee)
                            or self._subtree_sealed(cls, call.callee)):
                        res.devirt_hole = True
                        res.virtual_symbol = call.resolved_qname
                        res.receiver_class = cls
                    res.targets = self._method_targets(
                        cls, call.callee, virtual=True) or res.targets
            return res

        # Explicitly qualified call: A::B::name(...). No dispatch.
        if call.qualifier:
            suffix = f"{call.qualifier}::{call.callee}"
            # a qualified name matches on its tail so `Btb::lookup`
            # finds `fdip::Btb::lookup`
            for qn, defs in self.by_qname.items():
                if qn == suffix or qn.endswith("::" + suffix):
                    res.targets += defs
            return res

        # Method call through a receiver ('x.f()', 'p->f()', 'f()'
        # inside a method of a class that has f).
        cls, dynamic = self._receiver_type(call, ctx)
        if cls is None and call.receiver is None and ctx is not None \
                and ctx.class_qname:
            own = self._class(ctx.class_qname)
            if own is not None and any(
                    call.callee in c.methods
                    or (c.name, call.callee) in self.method_defs
                    for c in self._bases_chain(own)):
                cls, dynamic = own, True    # implicit this-call

        if cls is not None:
            virtual = self._method_is_virtual(cls, call.callee)
            res.receiver_class = cls
            res.targets = self._method_targets(cls, call.callee, virtual)
            if virtual and dynamic \
                    and not (cls.is_final
                             or self._method_is_final(cls, call.callee)
                             or self._subtree_sealed(cls, call.callee)):
                res.devirt_hole = True
                res.virtual_symbol = f"{cls.qname}::{call.callee}"
            return res

        # Unreceivered call: free function(s) of that name.
        if call.receiver is None:
            res.targets = list(self.free_by_name.get(call.callee, []))
            return res

        # Receiver we cannot type (local variable, chained call).
        # Conservative fallback: when exactly one class in the whole
        # index defines a method of this name, bind there — this keeps
        # container helpers in the closure without risking cross-class
        # confusion. Ambiguous names produce no edge.
        owners = {key[0] for key in self.method_defs
                  if key[1] == call.callee}
        if len(owners) == 1:
            cls = self._class(next(iter(owners)))
            if cls is not None:
                virtual = self._method_is_virtual(cls, call.callee)
                res.targets = self._method_targets(
                    cls, call.callee, virtual)
        return res

    def _subtree_sealed(self, cls: ClassInfo, method: str) -> bool:
        """True when every concrete subclass that can be the dynamic
        type either is final or declares the override final AND the
        static class itself cannot be instantiated around an
        un-final override. We only accept the simple sound case:
        every class in the subtree (including @p cls) is final or
        carries a final override."""
        for c in self._derived_chain(cls):
            if c.is_final or self._method_is_final(c, method):
                continue
            return False
        return True

    # ------------------------------------------------------------------
    # The closure walk.
    # ------------------------------------------------------------------

    def run(self) -> list[Finding]:
        self._check_structure()
        self._check_layering()
        self.reachable_functions = []

        roots: list[tuple[FunctionInfo | None, str]] = []
        for f in self.funcs:
            if f.is_hot:
                roots.append((f, f.qname))

        #: function-identity key -> chain from its discovering root
        visited: dict[tuple[str, int], tuple[str, ...]] = {}
        queue: deque[tuple[FunctionInfo, tuple[str, ...]]] = deque()

        def enqueue(fn: FunctionInfo, chain: tuple[str, ...]) -> None:
            key = (fn.file, fn.line)
            if key in visited:
                return
            if fn.name in self.noreturn_names or fn.is_noreturn:
                return      # cold failure path
            visited[key] = chain
            self.reachable_functions.append(fn)
            queue.append((fn, chain))

        for f, label in roots:
            enqueue(f, (label,))

        # Hot regions: roots whose call sites are the enclosing cold
        # function's calls that fall inside the span.
        for region in self.prog.all_regions():
            label = f"region:{region.file}:{region.name}"
            ctx = self._enclosing_function(region.file, region.start)
            for call in self._calls_by_file.get(region.file, []):
                if not region.start <= call.pos < region.end:
                    continue
                self._visit_call(call, ctx, (label,), enqueue)
            fi = self.prog.files[region.file]
            self._scan_banned(fi.text, region.start, region.end,
                              region.file, label, (label,))

        while queue:
            fn, chain = queue.popleft()
            if not fn.is_hot:
                self.findings.append(Finding(
                    RULE_UNANNOTATED, fn.file, fn.line, fn.qname,
                    f"{fn.qname} is reachable from a hot root but its "
                    "definition lacks FDIP_HOT_PATH",
                    chain))
            fi = self.prog.files[fn.file]
            self._scan_banned(fi.text, fn.body_start + 1, fn.body_end - 1,
                              fn.file, fn.qname, chain)
            for call in self._calls_by_file.get(fn.file, []):
                if call.caller != fn.qname:
                    continue
                if not fn.body_start <= call.pos < fn.body_end:
                    continue
                self._visit_call(call, fn, chain, enqueue)

        self._check_stale_include_exceptions()
        self.findings = apply_allowlist(self.findings, self.allowlist,
                                        RULE_STALE_ALLOW)
        return self.findings

    def _visit_call(self, call: CallSite, ctx: FunctionInfo | None,
                    chain: tuple[str, ...], enqueue) -> None:
        res = self.resolve(call, ctx)
        if res.devirt_hole:
            self.findings.append(Finding(
                RULE_VIRTUAL, call.file, call.line, res.virtual_symbol,
                f"call to {res.virtual_symbol} may dispatch virtually: "
                f"static type {res.receiver_class.qname} is not final "
                "and the method has a non-final override path; mark the "
                "receiver type (or every override) final, or allowlist "
                "the designed dispatch point",
                chain))
        for target in res.targets:
            if target.name in self.noreturn_names or target.is_noreturn:
                continue
            enqueue(target, chain + (target.qname,))

    def _enclosing_function(self, file: str,
                            pos: int) -> FunctionInfo | None:
        fi = self.prog.files.get(file)
        if fi is None:
            return None
        best: FunctionInfo | None = None
        for f in fi.functions:
            if f.body_start <= pos < f.body_end:
                if best is None or f.body_start > best.body_start:
                    best = f
        return best

    # ------------------------------------------------------------------
    # Rules.
    # ------------------------------------------------------------------

    def _scan_banned(self, text: str, start: int, end: int,
                     file: str, symbol: str,
                     chain: tuple[str, ...]) -> None:
        for key, pattern, message in BAN_RULES:
            for m in pattern.finditer(text, start, end):
                self.findings.append(Finding(
                    RULE_BANNED_OP, file, line_of(text, m.start()),
                    f"{symbol}/{key}", message, chain))

    def _check_structure(self) -> None:
        for fi in self.prog.files.values():
            for line, msg in fi.problems:
                self.findings.append(Finding(
                    RULE_STRUCTURE, fi.path, line, fi.path, msg))

    def _check_layering(self) -> None:
        for inc in self.prog.all_includes():
            fmod = module_of(inc.file)
            tmod = module_of("src/" + inc.target)
            if fmod is None or tmod is None or fmod == tmod:
                continue
            frank, trank = MODULE_RANK[fmod], MODULE_RANK[tmod]
            if frank >= HARNESS_RANK:
                continue    # harness sits at the top; includes freely
            if trank < frank:
                continue    # downward include: fine
            exc = self._include_exception(inc.file, tmod)
            if exc is not None:
                self._used_inc_exc.add(exc)
                continue
            kind = ("upward" if trank > frank
                    else "same-rank cross-module")
            self.findings.append(Finding(
                RULE_LAYERING, inc.file, inc.line, tmod,
                f'{kind} include "{inc.target}": {fmod} (rank {frank}) '
                f"must not depend on {tmod} (rank {trank}); invert the "
                "dependency or carry an IncludeException with a written "
                "justification"))

    def _include_exception(self, file: str, tmod: str) -> int | None:
        for k, exc in enumerate(self.include_exceptions):
            if exc.file == file and exc.target_module == tmod:
                return k
        return None

    def _check_stale_include_exceptions(self) -> None:
        for k, exc in enumerate(self.include_exceptions):
            if k in self._used_inc_exc:
                continue
            self.findings.append(Finding(
                RULE_STALE_ALLOW, exc.file, 0,
                f"include:{exc.target_module}",
                f"include exception ({exc.file} -> {exc.target_module}) "
                "matched no include edge; delete it"))

    # ------------------------------------------------------------------
    # Report data.
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        hot = sum(1 for f in self.funcs if f.is_hot)
        return {
            "schema": "hot-callgraph-v1",
            "backend": self.prog.backend,
            "files": len(self.prog.files),
            "functions": len(self.funcs),
            "classes": len(self.classes),
            "hotRoots": hot,
            "hotRegions": len(self.prog.all_regions()),
            "reachable": len(self.reachable_functions),
            "findings": len(self.findings),
        }

    def to_json(self) -> dict:
        return {
            **self.summary(),
            "moduleRanks": dict(sorted(MODULE_RANK.items(),
                                       key=lambda kv: (kv[1], kv[0]))),
            "allowlist": [
                {"rule": a.rule, "file": a.file, "symbol": a.symbol,
                 "why": a.why} for a in self.allowlist],
            "includeExceptions": [
                {"file": e.file, "targetModule": e.target_module,
                 "why": e.why} for e in self.include_exceptions],
            "findingList": [
                {"rule": f.rule, "file": f.file, "line": f.line,
                 "symbol": f.symbol, "message": f.message,
                 "chain": list(f.chain)} for f in self.findings],
        }


_TABLE_RE = re.compile(r"[^A-Za-z0-9_.:/-]")


def human_table(analysis: Analysis) -> str:
    """Compact per-module table of closure coverage."""
    per_module: dict[str, list[int]] = {}
    for f in analysis.funcs:
        mod = module_of(f.file) or "?"
        row = per_module.setdefault(mod, [0, 0])
        row[0] += 1
        row[1] += 1 if f.is_hot else 0
    lines = [f"{'module':<10} {'functions':>9} {'hot':>5}"]
    for mod in sorted(per_module,
                      key=lambda m: MODULE_RANK.get(m, 99)):
        total, hot = per_module[mod]
        lines.append(f"{_TABLE_RE.sub('', mod):<10} {total:>9} {hot:>5}")
    s = analysis.summary()
    lines.append(f"{'total':<10} {s['functions']:>9} {s['hotRoots']:>5}"
                 f"   ({s['hotRegions']} region(s), "
                 f"{s['reachable']} reachable, backend={s['backend']})")
    return "\n".join(lines)
