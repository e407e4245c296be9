"""libclang frontend: exact call edges from the build's own AST.

Parses the translation units compile_commands.json names (with the
build's own flags), so the analyzed program is the shipped program.
The AST contributes what regexes cannot get right — resolved callee
references, virtual-dispatch facts, class finality — while the
length-preserving text layer (stripped text, include edges, region
spans, annotation problems) is the builtin frontend's own parse of
each file: both emit the same neutral FileIndex model, and the fixture
suite pins that they agree on every seeded violation class.

Calls the AST cannot bind (dependent expressions inside uninstantiated
templates) degrade to unresolved textual call sites, which the
analysis then resolves structurally — never silently dropped.

Importing this module raises ImportError when clang.cindex is not
installed; check_hotgraph.py treats that as "frontend unavailable".
"""

from __future__ import annotations

import os
from collections.abc import Callable
from pathlib import Path

import clang.cindex as ci

from .compile_db import clang_args, load_compile_db
from .model import (CallSite, ClassInfo, FileIndex, FunctionInfo,
                    MethodDecl, ProgramIndex)
from .textual import TextualFileParser, char_offsets, line_of

#: Candidate libclang locations probed when the default loading fails.
_LIBCLANG_CANDIDATES = (
    "/usr/lib/llvm-18/lib/libclang-18.so.1",
    "/usr/lib/llvm-18/lib/libclang.so.1",
    "/usr/lib/llvm-17/lib/libclang-17.so.1",
    "/usr/lib/llvm-16/lib/libclang-16.so.1",
    "/usr/lib/llvm-14/lib/libclang-14.so.1",
    "/usr/lib/x86_64-linux-gnu/libclang-18.so.1",
)

_configured = False


def _configure() -> None:
    """Loads libclang: FDIP_LIBCLANG when set, else the default search
    and then the candidate paths."""
    global _configured
    if _configured:
        return
    explicit = os.environ.get("FDIP_LIBCLANG")
    if explicit:
        ci.Config.set_library_file(explicit)
    else:
        try:
            ci.Index.create()
            _configured = True
            return
        except ci.LibclangError:
            for cand in _LIBCLANG_CANDIDATES:
                if Path(cand).exists():
                    ci.Config.set_library_file(cand)
                    break
    ci.Index.create()       # raises LibclangError when still unusable
    _configured = True


_FUNC_KINDS = frozenset({
    ci.CursorKind.FUNCTION_DECL,
    ci.CursorKind.CXX_METHOD,
    ci.CursorKind.CONSTRUCTOR,
    ci.CursorKind.DESTRUCTOR,
    ci.CursorKind.CONVERSION_FUNCTION,
    ci.CursorKind.FUNCTION_TEMPLATE,
})

_CLASS_KINDS = frozenset({
    ci.CursorKind.CLASS_DECL,
    ci.CursorKind.STRUCT_DECL,
    ci.CursorKind.CLASS_TEMPLATE,
})

_SCOPE_KINDS = _CLASS_KINDS | frozenset({
    ci.CursorKind.NAMESPACE,
    ci.CursorKind.TRANSLATION_UNIT,
})


def _qname(cursor) -> str:
    """fdip::Class::name — matches the textual frontend's spelling."""
    parts: list[str] = []
    c = cursor
    while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
        if c.kind in _SCOPE_KINDS or c.kind in _FUNC_KINDS:
            if c.spelling:
                parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def _class_qname(cursor) -> str | None:
    c = cursor.semantic_parent
    while c is not None and c.kind == ci.CursorKind.NAMESPACE \
            and not c.spelling:
        c = c.semantic_parent
    if c is not None and c.kind in _CLASS_KINDS:
        return _qname(c)
    return None


def _has_final(cursor) -> bool:
    return any(ch.kind == ci.CursorKind.CXX_FINAL_ATTR
               for ch in cursor.get_children())


def _is_virtual(cursor) -> bool:
    try:
        return cursor.is_virtual_method() or cursor.is_pure_virtual_method()
    except Exception:  # noqa: BLE001 — non-method kinds
        return False


class _TreeIndexer:
    """Accumulates FileIndex records across every parsed TU."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.prog = ProgramIndex(backend="clang")
        self.raw: dict[str, str] = {}       # relpath -> raw text
        # relpath -> libclang byte offset to offset into raw
        self.chars: dict[str, Callable[[int], int]] = {}
        self._seen_funcs: set[tuple[str, int, str]] = set()
        self._seen_classes: set[str] = set()

    # -- file plumbing -------------------------------------------------

    def _relpath(self, file) -> str | None:
        if file is None:
            return None
        try:
            p = Path(str(file.name)).resolve()
            rel = p.relative_to(self.root).as_posix()
        except ValueError:
            return None
        if not (rel.endswith(".h") or rel.endswith(".cc")):
            return None
        return rel if rel.startswith("src/") else None

    def _file_index(self, rel: str) -> FileIndex:
        fi = self.prog.files.get(rel)
        if fi is None:
            raw = (self.root / rel).read_text(errors="replace")
            self.raw[rel] = raw
            self.chars[rel] = char_offsets(raw)
            # Includes, regions and annotation problems come from the
            # structural parser, which reads the #if arms libclang
            # skips; libclang supplies functions, classes and calls.
            structural = TextualFileParser(rel, raw).parse()
            fi = FileIndex(path=rel, text=structural.text,
                           includes=structural.includes,
                           regions=structural.regions,
                           problems=structural.problems)
            self.prog.add(fi)
        return fi

    # -- cursor walk ---------------------------------------------------

    def visit(self, cursor) -> None:
        for ch in cursor.get_children():
            rel = self._relpath(ch.location.file)
            if rel is None:
                # still descend into namespaces rooted in other files
                if ch.kind == ci.CursorKind.NAMESPACE:
                    self.visit(ch)
                continue
            if ch.kind in _CLASS_KINDS and ch.is_definition():
                self._record_class(ch, rel)
                self.visit(ch)
            elif ch.kind in _FUNC_KINDS and ch.is_definition():
                self._record_function(ch, rel)
            elif ch.kind in (ci.CursorKind.NAMESPACE,
                             ci.CursorKind.LINKAGE_SPEC,
                             ci.CursorKind.UNEXPOSED_DECL):
                self.visit(ch)
            elif ch.kind in _FUNC_KINDS:
                self._record_declaration(ch, rel)

    def _decl_slice(self, cursor, rel: str,
                    end_offset: int | None = None) -> str:
        """Raw text of the declaration head (with one line of
        lookback, so an annotation on the preceding line counts).
        @p end_offset is an offset into the raw text."""
        raw = self.raw[rel]
        start = self.chars[rel](cursor.extent.start.offset)
        start = raw.rfind("\n", 0, max(0, raw.rfind("\n", 0, start)))
        start = 0 if start < 0 else start
        end = end_offset if end_offset is not None \
            else self.chars[rel](cursor.extent.end.offset)
        return raw[start:end]

    def _record_declaration(self, cursor, rel: str) -> None:
        fi = self._file_index(rel)
        head = self._decl_slice(cursor, rel)
        if "noreturn" in head:
            fi.noreturn_decls.add(cursor.spelling)

    def _record_class(self, cursor, rel: str) -> None:
        qname = _qname(cursor)
        if qname in self._seen_classes:
            return
        self._seen_classes.add(qname)
        fi = self._file_index(rel)
        cls = ClassInfo(
            qname=qname, name=cursor.spelling or "<anon>", file=rel,
            line=cursor.location.line, is_final=_has_final(cursor))
        for ch in cursor.get_children():
            if ch.kind == ci.CursorKind.CXX_BASE_SPECIFIER:
                base = ch.type.spelling.split("<")[0].split("::")[-1]
                cls.bases.append(base.strip())
            elif ch.kind in (ci.CursorKind.CXX_METHOD,
                             ci.CursorKind.FUNCTION_TEMPLATE,
                             ci.CursorKind.CONSTRUCTOR,
                             ci.CursorKind.DESTRUCTOR):
                md = cls.methods.setdefault(ch.spelling,
                                            MethodDecl(ch.spelling))
                md.is_virtual |= _is_virtual(ch)
                md.is_final |= _has_final(ch)
        fi.classes.append(cls)

    def _record_function(self, cursor, rel: str) -> None:
        body = None
        for ch in cursor.get_children():
            if ch.kind == ci.CursorKind.COMPOUND_STMT:
                body = ch
        if body is None:
            return
        qname = _qname(cursor)
        line = cursor.location.line
        key = (rel, line, qname)
        if key in self._seen_funcs:
            return
        self._seen_funcs.add(key)
        fi = self._file_index(rel)

        body_start = self.chars[rel](body.extent.start.offset)
        body_end = self.chars[rel](body.extent.end.offset)
        head = self._decl_slice(cursor, rel, body_start)
        fn = FunctionInfo(
            qname=qname, name=cursor.spelling, file=rel, line=line,
            body_start=body_start, body_end=body_end,
            class_qname=_class_qname(cursor),
            is_hot="FDIP_HOT_PATH" in head,
            is_virtual=_is_virtual(cursor),
            is_final=_has_final(cursor),
            is_noreturn="noreturn" in head)
        fi.functions.append(fn)
        self._walk_calls(body, fn, fi)

    def _walk_calls(self, node, fn: FunctionInfo, fi: FileIndex) -> None:
        for ch in node.get_children():
            if ch.kind == ci.CursorKind.CALL_EXPR:
                self._record_call(ch, fn, fi)
            self._walk_calls(ch, fn, fi)

    def _record_call(self, cursor, fn: FunctionInfo,
                     fi: FileIndex) -> None:
        callee = cursor.referenced
        raw = self.raw[fi.path]
        start = self.chars[fi.path](cursor.extent.start.offset)
        end = self.chars[fi.path](cursor.extent.end.offset)
        site_text = raw[start:end + 1]
        name = callee.spelling if callee is not None else cursor.spelling
        if not name or not name[0].isalpha() and name[0] != "_":
            return      # operator call / conversion
        if name not in site_text:
            return      # generated by a macro expansion; cold contract
        pos = start + site_text.index(name)

        if callee is None:
            # Dependent call inside a template: leave unresolved for
            # the structural resolver.
            fi.calls.append(CallSite(
                caller=fn.qname, file=fi.path,
                line=line_of(raw, pos), pos=pos, callee=name))
            return
        if callee.kind not in _FUNC_KINDS:
            return
        virtual = _is_virtual(callee)
        if virtual:
            # An explicitly qualified call (Base::f()) devirtualizes.
            before = raw[max(0, pos - 2):pos]
            if before.endswith("::"):
                virtual = False
        fi.calls.append(CallSite(
            caller=fn.qname, file=fi.path,
            line=line_of(raw, pos), pos=pos, callee=name,
            resolved_qname=_qname(callee),
            is_virtual_call=virtual))


def index_tree(root: Path, db_path: Path | None) -> ProgramIndex:
    """ProgramIndex over <root>/src via libclang.

    With a compile database, parses exactly the TUs the build
    compiles. Without one, parses every src/ file with minimal flags
    (-std=c++20 -I<root>/src), which is how the fixture trees run.
    """
    _configure()
    index = ci.Index.create()
    indexer = _TreeIndexer(root)

    jobs: list[tuple[Path, list[str]]] = []
    if db_path is not None:
        for cmd in load_compile_db(db_path, root):
            jobs.append((cmd.file, clang_args(cmd)))
    else:
        base = ["-x", "c++", "-std=c++20", f"-I{root / 'src'}",
                "-DFDIP_ENABLE_CHECKS=1", "-DFDIP_ENABLE_TRACING=1"]
        for path in sorted((root / "src").rglob("*.cc")):
            jobs.append((path, list(base)))

    for path, args in jobs:
        tu = index.parse(str(path), args=args)
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            raise RuntimeError(
                f"libclang failed to parse {path}: {fatal[0].spelling}")
        indexer.visit(tu.cursor)

    # Headers never reached by any TU (none in a healthy tree) plus
    # uninstantiated template bodies are indexed structurally so the
    # closure never loses files the builtin frontend would see.
    for path in sorted((root / "src").rglob("*.h")):
        rel = path.relative_to(root).as_posix()
        if rel in indexer.prog.files:
            continue
        indexer.prog.add(
            TextualFileParser(rel, path.read_text(errors="replace"))
            .parse())
    indexer.prog.backend = "clang"
    return indexer.prog
