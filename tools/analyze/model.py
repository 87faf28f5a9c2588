"""Project model: classes, fields, constants, and function definitions.

Built once per run from the token streams, then shared by every pass. The
parser is a pragmatic structural scanner, not a full C++ front end: it
tracks namespace/class/function brace nesting, splits class bodies into
member statements, and recognizes function definitions by the
`name (params) [qualifiers] [ctor-inits] {` shape. That is enough to
answer the questions the passes ask (which class declares kStateVersion,
which tokens form a save_state body, which methods acquire a mutex) while
staying tolerant of code it does not understand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lexer
from .lexer import Token
from .source import SourceFile

# Keywords that can precede a parenthesized expression followed by '{'
# without introducing a function definition.
_CONTROL = frozenset(
    {"if", "for", "while", "switch", "catch", "return", "do", "else",
     "sizeof", "alignof", "decltype", "new", "delete", "case", "co_await",
     "co_return", "co_yield", "static_assert", "alignas", "noexcept",
     "throw", "requires"}
)

_QUALIFIERS = frozenset(
    {"const", "noexcept", "override", "final", "mutable", "volatile",
     "try", "requires"}
)

_SKIP_STMT_HEADS = frozenset(
    {"using", "typedef", "friend", "template", "static_assert", "public",
     "private", "protected", "extern"}
)


@dataclass
class Field:
    name: str
    line: int
    type_text: str  # joined declaration tokens before the name
    annotations: str  # GS_* annotation macros present in the statement


@dataclass
class MethodDecl:
    name: str
    line: int
    # Mutex names referenced by GS_EXCLUDES/GS_REQUIRES/GS_ACQUIRE/... in
    # the declaration statement.
    annotated_mutexes: frozenset[str]
    has_lock_annotation: bool
    # Mutexes the caller must already hold (GS_REQUIRES) or that the method
    # itself takes (GS_ACQUIRE) — the lock-order pass's held-at-entry set.
    requires_mutexes: frozenset[str] = frozenset()


@dataclass
class ClassInfo:
    name: str
    rel: str
    line: int
    bases: list[str] = field(default_factory=list)
    fields: list[Field] = field(default_factory=list)
    mutex_members: dict[str, int] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)  # name -> value
    methods: dict[str, MethodDecl] = field(default_factory=dict)


@dataclass
class FunctionDef:
    name: str  # unqualified
    qualname: str  # e.g. Grid::save_state
    class_name: str | None
    rel: str
    line: int
    # Spans into the file's code-token list.
    header: tuple[int, int]  # [open paren .. body '{'), params + qualifiers
    body: tuple[int, int]  # (body '{' .. matching '}'], exclusive of braces


@dataclass
class Project:
    files: dict[str, SourceFile] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    # Free (namespace-scope) constexpr constants: name -> (value, rel).
    constants: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: list[FunctionDef] = field(default_factory=list)
    # Per-file code-token lists, index-aligned with FunctionDef spans.
    code_tokens: dict[str, list[Token]] = field(default_factory=dict)

    def resolve_constant(self, name: str, class_hint: str | None) -> int | None:
        """Resolve a constant like kStateVersion to an integer, looking in
        the hinted class, then its base-class chain, then free constants,
        then any class that declares it uniquely."""
        seen: set[str] = set()
        cls = class_hint
        while cls and cls in self.classes and cls not in seen:
            seen.add(cls)
            info = self.classes[cls]
            if name in info.constants:
                return parse_int(info.constants[name])
            cls = info.bases[0] if info.bases else None
        if name in self.constants:
            return parse_int(self.constants[name][0])
        owners = [c for c in self.classes.values() if name in c.constants]
        if len(owners) == 1:
            return parse_int(owners[0].constants[name])
        return None


def parse_int(text: str) -> int | None:
    t = text.strip().rstrip("uUlL")
    try:
        return int(t, 0)
    except ValueError:
        return None


def match_paren(toks: list[Token], i: int) -> int:
    """Index of the ')' matching the '(' at i (or len(toks) if unmatched)."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def match_brace(toks: list[Token], i: int) -> int:
    """Index of the '}' matching the '{' at i (or len(toks) if unmatched)."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def _skip_balanced(toks: list[Token], i: int) -> int:
    """From an opening ( { or [, return the index just past its match."""
    opener = toks[i].text
    closer = {"(": ")", "{": "}", "[": "]"}[opener]
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == opener:
            depth += 1
        elif toks[j].text == closer:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(toks)


def _is_annotation_macro(name: str) -> bool:
    return name.startswith("GS_") and name.isupper()


def _function_at(toks: list[Token], i: int):
    """If toks[i] is a '(' opening a function-definition parameter list,
    return (name_start, close_paren, body_open) else None. toks must be
    code tokens (no comments/preprocessor)."""
    if toks[i].text != "(":
        return None
    # The declarator name directly precedes '('.
    j = i - 1
    if j < 0 or toks[j].kind != lexer.ID or toks[j].text in _CONTROL:
        return None
    if _is_annotation_macro(toks[j].text):
        return None
    # Walk the qualified-name chain backwards: A::B::name, ~Dtor.
    name_start = j
    k = j - 1
    while k >= 1 and toks[k].text in ("::", "~") and (
        toks[k - 1].kind == lexer.ID or toks[k].text == "~"
    ):
        if toks[k].text == "~":
            name_start = k
            k -= 1
            continue
        name_start = k - 1
        k -= 2
    close = match_paren(toks, i)
    if close >= len(toks):
        return None
    # Skim qualifiers / annotations / ctor-inits / trailing return.
    p = close + 1
    n = len(toks)
    while p < n:
        t = toks[p]
        if t.text == "{":
            return (name_start, close, p)
        if t.text == ";":
            return None  # declaration only
        if t.kind == lexer.ID and t.text in _QUALIFIERS:
            p += 1
            # noexcept(...) / requires(...)
            if p < n and toks[p].text == "(":
                p = _skip_balanced(toks, p)
            continue
        if t.kind == lexer.ID and _is_annotation_macro(t.text):
            p += 1
            if p < n and toks[p].text == "(":
                p = _skip_balanced(toks, p)
            continue
        if t.text == "->":  # trailing return type
            p += 1
            while p < n and toks[p].text not in ("{", ";"):
                if toks[p].text in ("(", "[", "<"):
                    if toks[p].text == "<":
                        p += 1  # tolerate bare '<'; rare enough
                    else:
                        p = _skip_balanced(toks, p)
                else:
                    p += 1
            continue
        if t.text == ":":  # constructor initializer list
            p += 1
            while p < n:
                # identifier chain, then a ( ) or { } group
                while p < n and (
                    toks[p].kind == lexer.ID or toks[p].text in ("::", "<", ">", ",")
                ):
                    if toks[p].text == ",":
                        p += 1
                        break
                    p += 1
                if p < n and toks[p].text in ("(", "{"):
                    grp_open = p
                    after = _skip_balanced(toks, p)
                    if toks[grp_open].text == "{" and (
                        after >= n or toks[after].text not in (",",)
                    ):
                        # Could be the body itself if the '{' follows the
                        # ':' pattern end; decide: body iff the group is
                        # not followed by ',' and the previous token is
                        # not an identifier (i.e. nothing initialized).
                        if toks[grp_open - 1].text == ":":
                            return (name_start, close, grp_open)
                    p = after
                    if p < n and toks[p].text == ",":
                        p += 1
                        continue
                    if p < n and toks[p].text == "{":
                        return (name_start, close, p)
                    break
                else:
                    break
            # Fall through: if we stopped on '{' the loop above returned.
            if p < n and toks[p].text == "{":
                return (name_start, close, p)
            return None
        return None
    return None


class _FileParser:
    """Structural scan of one file's code tokens."""

    def __init__(self, project: Project, sf: SourceFile):
        self.project = project
        self.sf = sf
        self.toks = sf.code_tokens()
        self.class_stack: list[ClassInfo] = []

    def run(self) -> None:
        self.project.code_tokens[self.sf.rel] = self.toks
        self._scan_region(0, len(self.toks))

    # --- region scanning ---------------------------------------------------

    def _scan_region(self, start: int, end: int) -> None:
        """Scan [start, end) for namespaces, classes, constants and
        function definitions. Function bodies are recorded and skipped;
        class bodies recurse through _scan_class."""
        i = start
        toks = self.toks
        while i < end:
            t = toks[i]
            if t.kind != lexer.ID:
                if t.text == "{":  # stray block (e.g. array initializer)
                    i = _skip_balanced(toks, i)
                    continue
                if t.text == "(":
                    fn = _function_at(toks, i)
                    if fn:
                        i = self._record_function(*fn)
                        continue
                i += 1
                continue
            if t.text == "namespace":
                j = i + 1
                while j < end and toks[j].text != "{" and toks[j].text != ";":
                    j += 1
                if j < end and toks[j].text == "{":
                    close = match_brace(toks, j)
                    self._scan_region(j + 1, close)
                    i = close + 1
                    continue
                i = j + 1
                continue
            if t.text in ("class", "struct"):
                nxt = self._class_definition_at(i, end)
                if nxt is not None:
                    i = nxt
                    continue
                i += 1
                continue
            if t.text == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    j = _skip_balanced(toks, j) - 1
                i = j + 1
                continue
            if t.text == "constexpr":
                self._maybe_constant(i)
                i += 1
                continue
            i += 1

    def _class_definition_at(self, i: int, end: int) -> int | None:
        """If a class/struct definition starts at i, record it, scan its
        body, and return the index past it; else None."""
        toks = self.toks
        j = i + 1
        name = None
        while j < end:
            t = toks[j]
            if t.text in ("{", ";", "(", ")", ",", ">", "="):
                break
            if t.text == ":":
                break
            if t.kind == lexer.ID and not _is_annotation_macro(t.text) \
                    and t.text not in ("final", "alignas", "export"):
                name = t.text
            j += 1
        if j >= end or name is None:
            return None
        bases: list[str] = []
        if toks[j].text == ":":
            k = j + 1
            while k < end and toks[k].text != "{" and toks[k].text != ";":
                if toks[k].kind == lexer.ID and toks[k].text not in (
                    "public", "private", "protected", "virtual"
                ):
                    bases.append(toks[k].text)
                if toks[k].text == "<":
                    # drop template args from the base list
                    depth = 1
                    k += 1
                    while k < end and depth:
                        if toks[k].text == "<":
                            depth += 1
                        elif toks[k].text == ">":
                            depth -= 1
                        k += 1
                    continue
                k += 1
            j = k
        if j >= end or toks[j].text != "{":
            return None  # forward declaration or variable of class type
        close = match_brace(toks, j)
        info = ClassInfo(name=name, rel=self.sf.rel, line=toks[i].line,
                         bases=bases)
        # First definition wins; redefinitions across files are rare and
        # benign for our queries.
        self.project.classes.setdefault(name, info)
        self.class_stack.append(info)
        self._scan_class(j + 1, close, info)
        self.class_stack.pop()
        # Skip past any trailing declarator (e.g. `} instance;`).
        k = close + 1
        while k < end and toks[k].text != ";":
            k += 1
        return k + 1

    def _scan_class(self, start: int, end: int, info: ClassInfo) -> None:
        """Scan a class body: fields, constants, methods, nested types."""
        toks = self.toks
        i = start
        stmt_start = i
        while i < end:
            t = toks[i]
            if t.kind == lexer.ID and t.text in ("class", "struct"):
                # Nested type (or elaborated type in a declaration).
                nxt = self._class_definition_at(i, end)
                if nxt is not None:
                    i = nxt
                    stmt_start = i
                    continue
            if t.kind == lexer.ID and t.text == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    j = _skip_balanced(toks, j) - 1
                while j < end and toks[j].text != ";":
                    j += 1
                i = j + 1
                stmt_start = i
                continue
            if t.text == ":" and i > start and toks[i - 1].kind == lexer.ID \
                    and toks[i - 1].text in ("public", "private", "protected"):
                i += 1
                stmt_start = i
                continue
            if t.text == "(":
                fn = _function_at(toks, i)
                if fn:
                    i = self._record_function(*fn)
                    stmt_start = i
                    continue
                i = _skip_balanced(toks, i)
                continue
            if t.text == "{":
                i = _skip_balanced(toks, i)
                continue
            if t.text == ";":
                self._class_statement(stmt_start, i, info)
                i += 1
                stmt_start = i
                continue
            i += 1

    def _class_statement(self, start: int, end: int, info: ClassInfo) -> None:
        """Classify one class-body statement (ends at ';') as a field,
        constant, or method declaration."""
        toks = self.toks[start:end]
        if not toks:
            return
        head = toks[0]
        if head.kind == lexer.ID and head.text in _SKIP_STMT_HEADS:
            return
        # Collect annotation macros present anywhere in the statement.
        ann_names: list[str] = []
        ann_mutexes: set[str] = set()
        req_mutexes: set[str] = set()
        has_lock_ann = False
        for idx, t in enumerate(toks):
            if t.kind == lexer.ID and _is_annotation_macro(t.text):
                ann_names.append(t.text)
                if t.text in ("GS_EXCLUDES", "GS_REQUIRES", "GS_ACQUIRE",
                              "GS_RELEASE", "GS_TRY_ACQUIRE",
                              "GS_GUARDED_BY", "GS_PT_GUARDED_BY",
                              "GS_RETURN_CAPABILITY"):
                    has_lock_ann = True
                    j = idx + 1
                    if j < len(toks) and toks[j].text == "(":
                        close = match_paren(toks, j)
                        for a in toks[j + 1 : close]:
                            if a.kind == lexer.ID:
                                ann_mutexes.add(a.text)
                                if t.text in ("GS_REQUIRES", "GS_ACQUIRE"):
                                    req_mutexes.add(a.text)
        # Find the declarator name: last depth-0 identifier before an
        # initializer, skipping annotation macros and their argument lists.
        name_idx = None
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text in ("=",):
                break
            if t.text == "{":
                break
            if t.kind == lexer.ID and _is_annotation_macro(t.text):
                i += 1
                if i < n and toks[i].text == "(":
                    i = _skip_balanced(toks, i)
                continue
            if t.text in ("(", "[", "<"):
                if t.text == "<":
                    # skip template argument group
                    depth = 1
                    i += 1
                    while i < n and depth:
                        if toks[i].text == "<":
                            depth += 1
                        elif toks[i].text == ">":
                            depth -= 1
                        i += 1
                    continue
                # A '(' directly after the current candidate name means
                # this is a function declaration.
                if t.text == "(" and name_idx is not None and \
                        i == name_idx + 1:
                    m = MethodDecl(
                        name=toks[name_idx].text,
                        line=toks[name_idx].line,
                        annotated_mutexes=frozenset(ann_mutexes),
                        has_lock_annotation=has_lock_ann,
                        requires_mutexes=frozenset(req_mutexes),
                    )
                    info.methods.setdefault(m.name, m)
                    return
                i = _skip_balanced(toks, i)
                continue
            if t.kind == lexer.ID and t.text not in ("static", "mutable",
                                                     "inline", "explicit",
                                                     "virtual", "constexpr",
                                                     "const"):
                name_idx = i
            i += 1
        if name_idx is None:
            return
        name = toks[name_idx].text
        line = toks[name_idx].line
        type_text = " ".join(
            t.text for t in toks[:name_idx] if t.kind != lexer.COMMENT
        )
        # Constant?
        is_constexpr = any(
            t.kind == lexer.ID and t.text == "constexpr" for t in toks
        )
        eq = next((i for i, t in enumerate(toks) if t.text == "="), None)
        if is_constexpr and eq is not None:
            info.constants[name] = " ".join(t.text for t in toks[eq + 1 :])
            return
        fld = Field(name=name, line=line, type_text=type_text,
                    annotations=" ".join(ann_names))
        info.fields.append(fld)
        # Mutex member? The declared type's last identifier is Mutex, and
        # the member owns it (a Mutex& / Mutex* member borrows someone
        # else's lock and is annotated at the owner instead).
        type_ids = [t for t in toks[:name_idx] if t.kind == lexer.ID and
                    t.text not in ("static", "mutable", "inline", "const")]
        owns = not any(t.text in ("&", "*") for t in toks[:name_idx]
                       if t.kind == lexer.PUNCT)
        if owns and type_ids and type_ids[-1].text == "Mutex":
            info.mutex_members[name] = line

    def _record_function(self, name_start: int, close: int,
                         body_open: int) -> int:
        toks = self.toks
        body_close = match_brace(toks, body_open)
        # The '(' opening the parameter list: first '(' after the name.
        j = name_start
        while j < len(toks) and toks[j].text != "(":
            j += 1
        open_paren = j
        chain = toks[name_start:open_paren]
        name = chain[-1].text if chain else "?"
        qual_ids = [t.text for t in chain if t.kind == lexer.ID]
        class_name: str | None = None
        if len(qual_ids) >= 2:
            class_name = qual_ids[-2]
        elif self.class_stack:
            class_name = self.class_stack[-1].name
        qualname = (class_name + "::" + name) if class_name else name
        self.project.functions.append(FunctionDef(
            name=name,
            qualname=qualname,
            class_name=class_name,
            rel=self.sf.rel,
            line=toks[name_start].line,
            header=(open_paren, body_open),
            body=(body_open + 1, body_close),
        ))
        # Record the method on the class so inline definitions count as
        # declarations too (annotation lookup).
        if class_name and class_name in self.project.classes:
            info = self.project.classes[class_name]
            if name not in info.methods:
                ann_mutexes: set[str] = set()
                req_mutexes: set[str] = set()
                has_lock_ann = False
                for idx in range(open_paren, body_open):
                    t = toks[idx]
                    if t.kind == lexer.ID and _is_annotation_macro(t.text):
                        if t.text.startswith("GS_"):
                            has_lock_ann = True
                            k = idx + 1
                            if k < len(toks) and toks[k].text == "(":
                                pclose = match_paren(toks, k)
                                for a in toks[k + 1 : pclose]:
                                    if a.kind == lexer.ID:
                                        ann_mutexes.add(a.text)
                                        if t.text in ("GS_REQUIRES",
                                                      "GS_ACQUIRE"):
                                            req_mutexes.add(a.text)
                info.methods[name] = MethodDecl(
                    name=name, line=toks[name_start].line,
                    annotated_mutexes=frozenset(ann_mutexes),
                    has_lock_annotation=has_lock_ann,
                    requires_mutexes=frozenset(req_mutexes),
                )
        return body_close + 1

    def _maybe_constant(self, i: int) -> None:
        """Record a namespace-scope `constexpr ... name = value;`."""
        if self.class_stack:
            return
        toks = self.toks
        j = i
        name = None
        while j < len(toks) and toks[j].text not in (";", "{", "("):
            if toks[j].text == "=":
                if name:
                    self.project.constants.setdefault(
                        name, (" ".join(
                            t.text for t in toks[j + 1 : _stmt_end(toks, j)]
                        ), self.sf.rel)
                    )
                return
            if toks[j].kind == lexer.ID:
                name = toks[j].text
            j += 1


def _stmt_end(toks: list[Token], i: int) -> int:
    j = i
    while j < len(toks) and toks[j].text != ";":
        j += 1
    return j


def build(files: dict[str, SourceFile]) -> Project:
    project = Project(files=files)
    for sf in files.values():
        _FileParser(project, sf).run()
    return project
