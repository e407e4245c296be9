"""Built-in structural C++ indexer (no dependencies beyond stdlib).

libclang gives exact answers but is not available everywhere this
repo builds (the CI hotgraph job installs it; developer containers
often have only gcc). This frontend is the always-available fallback:
a single-pass structural scanner over comment/string/preprocessor-
stripped source that extracts the facts the closure analysis needs —
function definitions with body extents, class virtual/final facts,
member/parameter types for receiver inference, call sites, includes,
and the FDIP_HOT_PATH / FDIP_HOT_REGION annotations.

It is deliberately conservative rather than complete: constructs it
cannot classify produce no edges (documented in docs/ANALYSIS.md §8),
and the fixture suite pins that both frontends agree on every seeded
violation class. The repo's clang-format style (no K&R surprises, no
macros that open braces) is part of the contract that keeps this
parser honest.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable
from itertools import accumulate
from pathlib import Path

from lintlib import line_of, pp_number_end

from .model import (CallSite, ClassInfo, FileIndex, FunctionInfo,
                    HotRegion, Include, MethodDecl, ProgramIndex)

# --------------------------------------------------------------------
# Length-preserving stripping (offsets into the stripped text are
# offsets into the raw file, so line numbers stay exact).
# --------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"',
                        re.MULTILINE)


def _blank(text: str, start: int, end: int) -> list[str]:
    """The text span with every non-newline replaced by a space."""
    return [c if c == "\n" else " " for c in text[start:end]]


def strip_code(text: str) -> str:
    """Blanks comments, string/char literals, and preprocessor
    directives, preserving both length and line structure."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.extend(_blank(text, i, j))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.extend(_blank(text, i, j + 2))
            i = j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.extend(_blank(text, i, min(j + 1, n)))
            i = j + 1
        else:
            j = max(pp_number_end(text, i), i + 1)
            out.append(text[i:j])
            i = j
    stripped = "".join(out)

    # Blank preprocessor directives (and their continuations) with
    # spaces so tokens never cross a directive.
    lines = stripped.split("\n")
    in_directive = False
    for k, line in enumerate(lines):
        starts = line.lstrip().startswith("#")
        if in_directive or starts:
            in_directive = line.rstrip().endswith("\\")
            lines[k] = " " * len(line)
        else:
            in_directive = False
    return "\n".join(lines)


def match_brace_span(text: str, open_pos: int) -> int | None:
    """End offset (exclusive) of the brace block opening at open_pos;
    None if it never closes. @p text must be stripped."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def char_offsets(text: str) -> Callable[[int], int]:
    """Maps a byte offset into @p text's UTF-8 encoding (what libclang
    reports) to the character offset into @p text that starts there.
    The identity for ASCII text."""
    if text.isascii():
        return lambda offset: offset
    # Byte offset of each character's start, then of the text's end.
    starts = list(accumulate((len(c.encode()) for c in text), initial=0))
    return lambda offset: bisect_left(starts, offset)


# --------------------------------------------------------------------
# Tokenizer.
# --------------------------------------------------------------------

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|->|\[\[|\]\]|&&|\S")

#: Keywords that can immediately precede '(' without being a call or
#: a declarator name.
CONTROL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "static_assert", "noexcept", "throw",
    "alignas", "case", "new", "delete", "do", "else", "co_return",
    "co_await", "co_yield", "__attribute__", "requires", "assert",
})

#: Built-in type names: `unsigned(x)` is a cast, `void (*f)(...)` is
#: a function-pointer declarator — never a function we should index.
TYPE_KEYWORDS = frozenset({
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "auto", "wchar_t", "char8_t", "char16_t",
    "char32_t", "size_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
})

CAST_KEYWORDS = frozenset({
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
})

MACRO_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

ACCESS_SPECIFIERS = frozenset({"public", "private", "protected"})

IDENT_RE = re.compile(r"[A-Za-z_]\w*$")

HOT_TOKEN = "FDIP_HOT_PATH"
HOT_TOKEN_RE = re.compile(rf"\b{HOT_TOKEN}\b")
REGION_BEGIN_RE = re.compile(r"\bFDIP_HOT_REGION_BEGIN\s*\(\s*(\w+)\s*\)")
REGION_END_RE = re.compile(r"\bFDIP_HOT_REGION_END\s*\(\s*(\w+)\s*\)")


def find_regions(fi: FileIndex) -> None:
    """Populate @p fi.regions (and pairing problems) from the
    FDIP_HOT_REGION markers in its stripped text."""
    marks = sorted(
        [(m.start(), m.end(), "begin", m.group(1))
         for m in REGION_BEGIN_RE.finditer(fi.text)] +
        [(m.start(), m.end(), "end", m.group(1))
         for m in REGION_END_RE.finditer(fi.text)])
    stack: list[tuple[int, str]] = []
    for start, end, kind, name in marks:
        if kind == "begin":
            stack.append((end, name))
        elif not stack:
            fi.problems.append(
                (line_of(fi.text, start),
                 f"FDIP_HOT_REGION_END({name}) without a matching BEGIN"))
        else:
            open_end, open_name = stack.pop()
            if open_name != name:
                fi.problems.append(
                    (line_of(fi.text, start),
                     f"FDIP_HOT_REGION_END({name}) closes "
                     f"FDIP_HOT_REGION_BEGIN({open_name})"))
            fi.regions.append(HotRegion(fi.path, open_name, open_end, start))
    for open_end, name in stack:
        fi.problems.append(
            (line_of(fi.text, open_end),
             f"FDIP_HOT_REGION_BEGIN({name}) is never closed"))

CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def _is_macro(name: str) -> bool:
    return bool(MACRO_RE.match(name)) and (len(name) > 2 or "_" in name)


class Token:
    __slots__ = ("value", "pos", "is_ident")

    def __init__(self, value: str, pos: int):
        self.value = value
        self.pos = pos
        self.is_ident = bool(IDENT_RE.match(value))


def tokenize(text: str) -> list[Token]:
    return [Token(m.group(0), m.start()) for m in TOKEN_RE.finditer(text)]


# --------------------------------------------------------------------
# The structural parser.
# --------------------------------------------------------------------


class _Scope:
    __slots__ = ("kind", "name", "cls")

    def __init__(self, kind: str, name: str = "",
                 cls: ClassInfo | None = None):
        self.kind = kind        # 'ns' | 'class' | 'block'
        self.name = name
        self.cls = cls


class TextualFileParser:
    """Parses one stripped source file into a FileIndex."""

    def __init__(self, relpath: str, raw: str):
        self.path = relpath
        self.text = strip_code(raw)
        self.index = FileIndex(path=relpath, text=self.text)
        for m in INCLUDE_RE.finditer(raw):
            self.index.includes.append(
                Include(relpath, line_of(raw, m.start()), m.group(1)))
        self.tokens = tokenize(self.text)
        self.scopes: list[_Scope] = []
        self.i = 0
        #: tokens accumulated since the last declaration boundary
        self.decl: list[Token] = []

    # ---------------- scope helpers ----------------

    def _ns_path(self) -> list[str]:
        return [s.name for s in self.scopes
                if s.kind in ("ns", "class") and s.name]

    def _enclosing_class(self) -> ClassInfo | None:
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.cls
        return None

    # ---------------- token helpers ----------------

    def _peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.tokens[j] if j < len(self.tokens) else None

    def _skip_balanced(self, open_ch: str, close_ch: str) -> None:
        """Advances past a balanced group; self.i is at the opener."""
        depth = 0
        while self.i < len(self.tokens):
            v = self.tokens[self.i].value
            if v == open_ch:
                depth += 1
            elif v == close_ch:
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return
            self.i += 1

    def _skip_angles(self) -> None:
        """Advances past a balanced <...> group (template args)."""
        depth = 0
        while self.i < len(self.tokens):
            v = self.tokens[self.i].value
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return
            elif v in (";", "{"):
                return      # malformed; bail without consuming
            self.i += 1

    def _skip_to_semicolon(self) -> None:
        depth = 0
        while self.i < len(self.tokens):
            v = self.tokens[self.i].value
            if v in "({[":
                depth += 1
            elif v in ")}]":
                depth -= 1
            elif v == ";" and depth <= 0:
                self.i += 1
                return
            self.i += 1

    # ---------------- main loop ----------------

    def parse(self) -> FileIndex:
        self._find_regions()
        n = len(self.tokens)
        while self.i < n:
            tok = self.tokens[self.i]
            v = tok.value

            if v == "template":
                self.i += 1
                if self._peek() and self._peek().value == "<":
                    self._skip_angles()
                self.decl.append(tok)
                continue
            if v == "namespace":
                self._parse_namespace()
                continue
            if v == "enum":
                self._parse_enum()
                continue
            if v in ("using", "typedef", "friend"):
                self.i += 1
                self._skip_to_semicolon()
                self.decl.clear()
                continue
            if v in ("class", "struct"):
                if self._parse_class():
                    continue
                # fall through: elaborated type in a declaration
                self.decl.append(tok)
                self.i += 1
                continue
            if v == "{":
                self._parse_stray_brace()
                continue
            if v == "}":
                if self.scopes:
                    self.scopes.pop()
                self.i += 1
                self.decl.clear()
                continue
            if v == ";":
                self._end_of_declaration()
                self.i += 1
                self.decl.clear()
                continue
            if (tok.is_ident and v in ACCESS_SPECIFIERS
                    and self._peek(1) and self._peek(1).value == ":"):
                self.i += 2
                self.decl.clear()
                continue
            if tok.is_ident and self._peek(1) \
                    and self._peek(1).value == "(":
                if self._parse_declarator(tok):
                    continue
            if v == "operator":
                self._parse_operator()
                continue

            self.decl.append(tok)
            self.i += 1
        self._check_annotations()
        return self.index

    # ---------------- annotations ----------------
    # Both frontends take a file's regions and annotation problems from
    # this parser, which reads every #if arm, so they never depend on
    # the frontend (libclang sees only the arms the build compiles).

    def _find_regions(self) -> None:
        find_regions(self.index)

    def _check_annotations(self) -> None:
        """Every FDIP_HOT_PATH token must head a hot definition this
        parser indexed: the next hot function's name must start on a
        line reached from the token without crossing a ';', '{' or
        '}'. A token on a declaration, or on a definition the parser
        could not read, would leave a body the walk never checks."""
        text = self.text
        hot_lines = sorted(f.line for f in self.index.functions
                           if f.is_hot)
        starts = [0] + [m.end() for m in re.finditer("\n", text)]
        for tok in HOT_TOKEN_RE.finditer(text):
            line = line_of(text, tok.start())
            name_line = next((n for n in hot_lines if n >= line), None)
            if name_line is not None and not any(
                    c in text[tok.end():starts[name_line - 1]]
                    for c in ";{}"):
                continue
            self.index.problems.append((
                line,
                "FDIP_HOT_PATH heads no hot function body in the index: "
                "it annotates a declaration, or a definition the indexer "
                "could not parse; annotate the definition so the closure "
                "checks its body"))

    # ---------------- namespaces / enums / classes ----------------

    def _parse_namespace(self) -> None:
        self.i += 1
        names: list[str] = []
        while self.i < len(self.tokens):
            t = self.tokens[self.i]
            if t.is_ident:
                names.append(t.value)
                self.i += 1
            elif t.value == "::":
                self.i += 1
            elif t.value == "{":
                self.i += 1
                if not names:
                    names = [""]    # anonymous namespace
                for nm in names:
                    self.scopes.append(_Scope("ns", nm))
                # nested names share one closing brace; model extras
                # as unnamed blocks is wrong — instead collapse:
                for _ in names[1:]:
                    self.scopes.pop()
                self.scopes[-1].name = "::".join(n for n in names if n)
                self.decl.clear()
                return
            elif t.value == "=":        # namespace alias
                self._skip_to_semicolon()
                self.decl.clear()
                return
            else:
                self.i += 1
                self.decl.clear()
                return

    def _parse_enum(self) -> None:
        self.i += 1
        while self.i < len(self.tokens):
            v = self.tokens[self.i].value
            if v == "{":
                self._skip_balanced("{", "}")
                self._skip_to_semicolon()
                break
            if v == ";":
                self.i += 1
                break
            self.i += 1
        self.decl.clear()

    def _parse_class(self) -> bool:
        """Parses a class/struct definition head. Returns False when
        this is an elaborated type use, not a definition."""
        start = self.i
        j = self.i + 1
        name = ""
        is_final = False
        bases: list[str] = []
        # Scan the head up to '{', ';' or something that proves this
        # is not a definition.
        angle = 0
        colon_at = -1
        while j < len(self.tokens):
            t = self.tokens[j]
            v = t.value
            if v == "<":
                angle += 1
            elif v == ">":
                angle = max(0, angle - 1)
            elif angle == 0:
                if v == "{":
                    break
                if v in (";", ")", ",", "=", "&", "*"):
                    return False    # fwd decl / param / elaborated use
                if v == "final":
                    is_final = True
                elif v == ":" and colon_at < 0:
                    colon_at = j
                elif t.is_ident and colon_at < 0 \
                        and not _is_macro(v) and v != "alignas":
                    name = v
            j += 1
        if j >= len(self.tokens):
            return False
        # Base list between ':' and '{'.
        if colon_at >= 0:
            seg: list[Token] = []
            angle = 0
            for k in range(colon_at + 1, j):
                t = self.tokens[k]
                if t.value == "<":
                    angle += 1
                elif t.value == ">":
                    angle = max(0, angle - 1)
                elif angle == 0 and t.value == ",":
                    if seg:
                        bases.append(self._base_name(seg))
                        seg = []
                    continue
                if angle == 0:
                    seg.append(t)
            if seg:
                bases.append(self._base_name(seg))
        if not name:
            name = f"<anon@{line_of(self.text, self.tokens[start].pos)}>"
        qname = "::".join(self._ns_path() + [name])
        cls = ClassInfo(qname=qname, name=name, file=self.path,
                        line=line_of(self.text,
                                     self.tokens[start].pos),
                        bases=[b for b in bases if b],
                        is_final=is_final)
        self.index.classes.append(cls)
        self.scopes.append(_Scope("class", name, cls))
        self.i = j + 1
        self.decl.clear()
        return True

    @staticmethod
    def _base_name(seg: list[Token]) -> str:
        ids = [t.value for t in seg if t.is_ident
               and t.value not in ACCESS_SPECIFIERS
               and t.value != "virtual"]
        return ids[-1] if ids else ""

    # ---------------- stray braces ----------------

    def _parse_stray_brace(self) -> None:
        prev = self.decl[-1].value if self.decl else ""
        if prev == "extern" or not self.decl:
            self.scopes.append(_Scope("block"))
            self.i += 1
        else:
            # brace initializer (`Foo x{...};`, `= {...}`, lambda).
            pos = self.tokens[self.i].pos
            end = match_brace_span(self.text, pos)
            if end is None:
                self.i = len(self.tokens)
                return
            while self.i < len(self.tokens) \
                    and self.tokens[self.i].pos < end:
                self.i += 1
        self.decl.clear()

    # ---------------- declarations ----------------

    def _end_of_declaration(self) -> None:
        """Handles a ';' ending a parenless declaration: in a class
        body this is a member-variable candidate."""
        cls = self._enclosing_class()
        if cls is None or not self.decl \
                or self.scopes[-1].kind != "class":
            return
        values = [t.value for t in self.decl]
        if "(" in values or "using" in values or "friend" in values \
                or "typedef" in values or "static" in values:
            return
        self._record_member(cls, self.decl)

    def _record_member(self, cls: ClassInfo, toks: list[Token]) -> None:
        # Cut initializer (`= ...`) and bit-field (`: n`) tails.
        cut = len(toks)
        angle = 0
        for k, t in enumerate(toks):
            if t.value == "<":
                angle += 1
            elif t.value == ">":
                angle = max(0, angle - 1)
            elif angle == 0 and t.value in ("=", "{", ":"):
                cut = k
                break
        toks = toks[:cut]
        idents = [t for t in toks if t.is_ident]
        if len(idents) < 2:
            return
        # Variable name: last identifier (arrays put '[N]' after it,
        # which tokenizes as non-identifier tokens).
        name = None
        for t in reversed(toks):
            if t.is_ident:
                name = t.value
                break
            if t.value not in ("]", "["):
                # trailing attribute macros etc. — walk past them
                continue
        if not name:
            return
        type_cls, dynamic = _type_head(toks, name)
        if type_cls:
            cls.members[name] = (type_cls, dynamic)

    def _parse_operator(self) -> None:
        """Skips an operator declaration/definition conservatively:
        consumes through the parameter list, then lets the normal
        specifier walk classify body vs declaration. Operator bodies
        are indexed (so the bans still apply to a hot operator) but
        produce no named call edges."""
        start = self.i
        self.i += 1
        # operator symbol tokens up to the parameter '('; operator()
        # has '()' before the parameter list.
        if self._peek() and self._peek().value == "(" \
                and self._peek(1) and self._peek(1).value == ")":
            self.i += 2
        else:
            while self.i < len(self.tokens) \
                    and self.tokens[self.i].value != "(":
                if self.tokens[self.i].value in (";", "{", "}"):
                    self.decl.clear()
                    return
                self.i += 1
        if self.i >= len(self.tokens) \
                or self.tokens[self.i].value != "(":
            self.decl.clear()
            return
        name_tok = self.tokens[start]
        self._finish_declarator(name_tok, "operator", [])

    def _parse_declarator(self, name_tok: Token) -> bool:
        """Token at self.i is an identifier followed by '('. Returns
        True when it consumed a declaration/definition."""
        name = name_tok.value
        if name in CONTROL_KEYWORDS or name in CAST_KEYWORDS:
            self.i += 1
            if self._peek() and self._peek().value == "(":
                self._skip_balanced("(", ")")
            self.decl.clear() if name == "static_assert" else None
            return True
        if name in TYPE_KEYWORDS:
            # `void (*fp)(...)` or a cast — consume the parens.
            self.i += 1
            self._skip_balanced("(", ")")
            self.decl.append(name_tok)
            return True
        if _is_macro(name):
            # Attribute/check macro at declaration scope.
            self.decl.append(name_tok)
            self.i += 1
            self._skip_balanced("(", ")")
            return True

        # Explicit qualifier (Class::name) and destructor '~name'.
        quals: list[str] = []
        k = len(self.decl) - 1
        if k >= 0 and self.decl[k].value == "~":
            name = "~" + name
            k -= 1
        while k - 1 >= 0 and self.decl[k].value == "::" \
                and self.decl[k - 1].is_ident:
            quals.insert(0, self.decl[k - 1].value)
            k -= 2

        return self._finish_declarator(name_tok, name, quals)

    def _finish_declarator(self, name_tok: Token, name: str,
                           quals: list[str]) -> bool:
        """Consumes '(params)' + specifiers and classifies the result
        as definition / declaration / something else."""
        # Parameter list span.
        self.i += 1 if self.tokens[self.i] is name_tok else 0
        while self.tokens[self.i].value != "(":
            self.i += 1
        paren_open = self.tokens[self.i].pos
        self._skip_balanced("(", ")")
        paren_close = self.tokens[self.i - 1].pos \
            if self.i - 1 < len(self.tokens) else paren_open

        # Specifier walk.
        saw_final = False
        ctor_inits = False
        while self.i < len(self.tokens):
            t = self.tokens[self.i]
            v = t.value
            if v in ("const", "noexcept", "override", "mutable",
                     "volatile", "&", "&&", "throw", "try",
                     "FDIP_HOT_NOEXCEPT"):
                saw_final |= False
                self.i += 1
                if self._peek() and self._peek().value == "(" \
                        and v in ("noexcept", "throw"):
                    self._skip_balanced("(", ")")
                continue
            if v == "final":
                saw_final = True
                self.i += 1
                continue
            if v == "[[":
                while self.i < len(self.tokens) \
                        and self.tokens[self.i].value != "]]":
                    self.i += 1
                self.i += 1
                continue
            if t.is_ident and _is_macro(v):
                self.i += 1
                if self._peek() and self._peek().value == "(":
                    self._skip_balanced("(", ")")
                continue
            if v == "->":       # trailing return type
                self.i += 1
                while self.i < len(self.tokens) and \
                        self.tokens[self.i].value not in ("{", ";", "="):
                    if self.tokens[self.i].value == "<":
                        self._skip_angles()
                    else:
                        self.i += 1
                continue
            if v == ":":        # constructor initializer list
                ctor_inits = True
                self.i += 1
                depth = 0
                while self.i < len(self.tokens):
                    w = self.tokens[self.i].value
                    if w in ("(", "{") :
                        if w == "{" and depth == 0:
                            break       # the body
                        depth += 1
                    elif w in (")", "}"):
                        depth -= 1
                    elif w == ";" and depth == 0:
                        break           # was a bit-field/label — bail
                    self.i += 1
                continue
            break

        if self.i >= len(self.tokens):
            return True
        terminator = self.tokens[self.i].value

        if terminator == "{":
            self._record_definition(name_tok, name, quals,
                                    paren_open, paren_close,
                                    saw_final)
            return True
        if terminator in (";", "=", ","):
            # Declaration (possibly pure virtual / = default) or a
            # variable with a parenthesized initializer.
            if terminator == "=":
                self._skip_to_semicolon()
            elif terminator == ",":
                self._skip_to_semicolon()
            else:
                self.i += 1
            self._record_declaration(name, saw_final, ctor_inits)
            self.decl.clear()
            return True
        # Unclassifiable: give up on this token run.
        self.i += 1
        self.decl.clear()
        return True

    # ---------------- recording ----------------

    def _decl_has(self, value: str) -> bool:
        return any(t.value == value for t in self.decl)

    def _record_declaration(self, name: str, saw_final: bool,
                            ctor_inits: bool) -> None:
        del ctor_inits
        if self._decl_has("noreturn"):
            self.index.noreturn_decls.add(name)
        cls = self._enclosing_class()
        if cls is None or self.scopes[-1].kind != "class":
            return
        md = cls.methods.setdefault(name, MethodDecl(name))
        md.is_virtual |= self._decl_has("virtual")
        md.is_final |= saw_final

    def _record_definition(self, name_tok: Token, name: str,
                           quals: list[str], paren_open: int,
                           paren_close: int, saw_final: bool) -> None:
        body_open = self.tokens[self.i].pos
        body_end = match_brace_span(self.text, body_open)
        if body_end is None:
            self.index.problems.append(
                (line_of(self.text, body_open),
                 f"unbalanced braces in {name}"))
            self.i = len(self.tokens)
            return

        in_class = (self.scopes and self.scopes[-1].kind == "class")
        cls = self._enclosing_class() if in_class else None
        ns = self._ns_path()
        if cls is not None and not quals:
            class_qname = cls.qname
            qname = "::".join([class_qname, name])
        elif quals:
            class_qname = "::".join(ns + quals)
            qname = "::".join(ns + quals + [name])
        else:
            class_qname = None
            qname = "::".join(ns + [name]) if ns else name

        is_virtual = self._decl_has("virtual")
        fn = FunctionInfo(
            qname=qname, name=name, file=self.path,
            line=line_of(self.text, name_tok.pos),
            body_start=body_open, body_end=body_end,
            class_qname=class_qname,
            is_hot=self._decl_has(HOT_TOKEN),
            is_virtual=is_virtual, is_final=saw_final,
            is_noreturn=self._decl_has("noreturn"),
            params=_parse_params(
                self.text[paren_open + 1:paren_close]))
        self.index.functions.append(fn)
        if cls is not None and not quals:
            md = cls.methods.setdefault(name, MethodDecl(name))
            md.is_virtual |= is_virtual
            md.is_final |= saw_final

        extract_calls(self.index, fn)

        # Skip the body.
        while self.i < len(self.tokens) \
                and self.tokens[self.i].pos < body_end:
            self.i += 1
        self.decl.clear()


# --------------------------------------------------------------------
# Types, parameters, calls.
# --------------------------------------------------------------------

_SMART_PTRS = ("unique_ptr", "shared_ptr")

_QUAL_FILTER = frozenset({
    "const", "constexpr", "inline", "static", "mutable", "volatile",
    "typename", "class", "struct", "register", "explicit", "virtual",
})


def _type_head(toks: list[Token], varname: str) -> tuple[str, bool]:
    """(class name, dynamic) of the declared type in @p toks, where
    @p varname is the declared variable. Returns ("", False) when the
    head is not a plausible class name."""
    values = [t.value for t in toks]
    dynamic = "*" in values or "&" in values
    # Head qualified-id: first identifier run (skipping qualifiers),
    # descending into unique_ptr/shared_ptr template args.
    ids: list[str] = []
    k = 0
    while k < len(toks):
        t = toks[k]
        # Attribute/annotation macros (FDIP_STATE_*, FDIP_GUARDED_BY)
        # precede the type on a member declaration; they are not the
        # type head.
        if t.is_ident and t.value not in _QUAL_FILTER \
                and not _is_macro(t.value):
            ids.append(t.value)
            # absorb the '::' chain
            while k + 2 < len(toks) and toks[k + 1].value == "::" \
                    and toks[k + 2].is_ident:
                ids.append(toks[k + 2].value)
                k += 2
            break
        k += 1
    if not ids:
        return "", False
    head = ids[-1]
    if head == varname:
        return "", False
    if head in _SMART_PTRS:
        dynamic = True
        # first identifier inside the template args
        depth = 0
        inner: list[str] = []
        for t in toks[k + 1:]:
            if t.value == "<":
                depth += 1
            elif t.value == ">":
                if depth == 1 and inner:
                    break
                depth = max(0, depth - 1)
            elif depth >= 1 and t.is_ident \
                    and t.value not in _QUAL_FILTER:
                inner.append(t.value)
        head = inner[-1] if inner else ""
    if not head or head in TYPE_KEYWORDS or head[0].islower():
        # Repo classes are CamelCase; lowercase heads are value
        # typedefs (Addr, Cycle are CamelCase but alias integers and
        # simply never match a class in the index).
        if head not in _SMART_PTRS and (not head or head[0].islower()):
            return "", False
    return head, dynamic


def _parse_params(param_text: str) -> dict[str, tuple[str, bool]]:
    """name -> (type class, dynamic) for a parameter list body."""
    params: dict[str, tuple[str, bool]] = {}
    if not param_text.strip():
        return params
    # Split on top-level commas.
    depth = 0
    seg_start = 0
    segments: list[str] = []
    for k, c in enumerate(param_text):
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        elif c == "," and depth == 0:
            segments.append(param_text[seg_start:k])
            seg_start = k + 1
    segments.append(param_text[seg_start:])
    for seg in segments:
        toks = tokenize(seg)
        # cut default argument
        for k, t in enumerate(toks):
            if t.value == "=":
                toks = toks[:k]
                break
        idents = [t for t in toks if t.is_ident]
        if len(idents) < 2:
            continue        # unnamed, or just a type
        name = idents[-1].value
        type_cls, dynamic = _type_head(toks, name)
        if type_cls:
            params[name] = (type_cls, dynamic)
    return params


def extract_calls(index: FileIndex, fn: FunctionInfo) -> None:
    """Records every call expression inside @p fn's body."""
    text = index.text
    for m in CALL_RE.finditer(text, fn.body_start + 1,
                              fn.body_end - 1):
        name = m.group(1)
        if name in CONTROL_KEYWORDS or name in CAST_KEYWORDS \
                or name in TYPE_KEYWORDS or _is_macro(name):
            continue
        pos = m.start(1)
        j = pos - 1
        while j >= 0 and text[j] in " \t\n":
            j -= 1
        qualifier: str | None = None
        receiver: str | None = None
        accessor = ""
        if j >= 1 and text[j - 1:j + 1] == "::":
            # Qualified call A::B::name(...)
            parts: list[str] = []
            k = j - 1
            while True:
                k -= 1
                end = k + 1
                while k >= 0 and (text[k].isalnum() or text[k] == "_"):
                    k -= 1
                part = text[k + 1:end]
                if not part:
                    break
                parts.insert(0, part)
                while k >= 0 and text[k] in " \t\n":
                    k -= 1
                if k >= 1 and text[k - 1:k + 1] == "::":
                    k -= 1
                    continue
                break
            qualifier = "::".join(parts) if parts else None
        elif j >= 0 and text[j] == ".":
            accessor = "."
            j -= 1
        elif j >= 1 and text[j - 1:j + 1] == "->":
            accessor = "->"
            j -= 2
        if accessor:
            while j >= 0 and text[j] in " \t\n":
                j -= 1
            end = j + 1
            while j >= 0 and (text[j].isalnum() or text[j] == "_"):
                j -= 1
            tokv = text[j + 1:end]
            receiver = tokv if tokv else None

        index.calls.append(CallSite(
            caller=fn.qname, file=index.path,
            line=line_of(text, pos), pos=pos, callee=name,
            qualifier=qualifier, receiver=receiver,
            # '->' through a raw/smart pointer and '.' both land here;
            # dynamic-ness is resolved against the receiver's
            # declaration during analysis.
            dynamic=False))


# --------------------------------------------------------------------
# Tree walking.
# --------------------------------------------------------------------

#: Modules scanned for includes only (layering), not for functions.
INCLUDE_ONLY_DIRS = ("tools", "bench", "tests", "examples")


def index_tree(root: Path) -> ProgramIndex:
    """Indexes <root>/src fully and the include-only trees for
    layering. Returns the merged ProgramIndex."""
    prog = ProgramIndex(backend="builtin")
    src = root / "src"
    files = sorted(src.rglob("*.h")) + sorted(src.rglob("*.cc"))
    for path in files:
        rel = path.relative_to(root).as_posix()
        prog.add(TextualFileParser(
            rel, path.read_text(errors="replace")).parse())
    for sub in INCLUDE_ONLY_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.h")) + sorted(
                base.rglob("*.cc")):
            rel = path.relative_to(root).as_posix()
            raw = path.read_text(errors="replace")
            fi = FileIndex(path=rel, text="")
            for m in INCLUDE_RE.finditer(raw):
                fi.includes.append(
                    Include(rel, line_of(raw, m.start()), m.group(1)))
            prog.add(fi)
    return prog
