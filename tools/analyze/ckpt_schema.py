"""ckpt-schema-lock: the serialized-layout invariant, proven at commit time.

Every checkpoint section is a `begin_section(name, version)` call followed
by an ordered sequence of writer ops (`w.f64(...)`, nested component
saves, shared helpers like `ckpt::save_ewma`). PRs 4-7 enforced "bump
kStateVersion whenever that sequence changes" by hand review; this pass
extracts the sequence for every site, snapshots it in
tools/ckpt_schema.lock, and fails when a committed field list drifts
without its version value changing.

Three findings families:

  ckpt-schema-lock        a section's op list changed while its resolved
                          version value stayed the same (the bug class),
                          or a section-less shared helper changed while an
                          embedding section kept its version.
  ckpt-schema-lock-stale  the tree and the lock disagree for a benign
                          reason (version bumped, section added/removed/
                          moved); regenerate with --write-lock and commit.
  ckpt-save-load-mismatch the save-side and load-side op sequences of one
                          section disagree (a PR-6-style serialization
                          bug), or two sites writing the same section name
                          disagree on layout or version.

`write_lock()` refuses to regenerate over an un-bumped change, so the lock
cannot be silently "fixed" into an inconsistent state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lexer
from .findings import Report
from .model import FunctionDef, Project, match_paren

LOCK_HEADER = (
    "# gs_analyze ckpt schema lock v1\n"
    "# One entry per checkpoint-section site (save side) and per shared\n"
    "# serialization helper; ops are the ordered writer calls that define\n"
    "# the byte layout. Regenerate after an INTENTIONAL schema change\n"
    "# (with its version bump) via: tools/gs_analyze --write-lock\n"
)

_PRIMS = frozenset({"u8", "u32", "u64", "i64", "f64", "boolean", "str"})
_NESTED = frozenset({
    "save_state", "load_state", "save_state_element", "load_state_element",
})
# Files owned by the codec itself, not schema sites.
_EXCLUDED_FILES = ("ckpt/state_io.hpp", "ckpt/state_io.cpp")


@dataclass(frozen=True)
class Op:
    kind: str  # prim name | "nested" | "helper"
    detail: str  # field expr / object expr / normalized helper name
    args: str = ""  # extra helper args (normalized), lock rendering only

    def render(self) -> str:
        if self.kind in _PRIMS:
            return f"{self.kind} {self.detail}" if self.detail else self.kind
        if self.kind == "nested":
            return f"nested {self.detail}"
        return f"helper {self.detail}" + (f" {self.args}" if self.args else "")

    def sym_key(self) -> tuple[str, str]:
        """Save/load comparison key: prim kinds match positionally; nested
        and helper ops match on their normalized target. A trailing '_' is
        stripped so a member (`storm_`) pairs with the load-side local
        (`storm`)."""
        if self.kind in _PRIMS:
            return (self.kind, "")
        return (self.kind, self.detail.rstrip("_"))


@dataclass
class Entry:
    kind: str  # "section" | "helper"
    key: str  # stable identity (qualname[@section])
    qualname: str
    rel: str
    line: int
    side: str  # "save" | "load"
    section: str = ""  # section name (sections only)
    version_expr: str = ""
    version_value: str = ""  # resolved int as str, or the raw expr
    ops: list[Op] = field(default_factory=list)

    def ops_rendered(self) -> list[str]:
        return [op.render() for op in self.ops]


def _normalize_helper(name: str) -> str:
    for prefix in ("save_", "load_", "write_", "read_"):
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


def _param_names(project: Project, fn: FunctionDef, type_name: str
                 ) -> set[str]:
    """Names of parameters of the given type in fn's header span."""
    toks = project.code_tokens[fn.rel]
    names: set[str] = set()
    lo, hi = fn.header
    for i in range(lo, hi):
        if toks[i].kind == lexer.ID and toks[i].text == type_name:
            j = i + 1
            while j < hi and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < hi and toks[j].kind == lexer.ID:
                names.add(toks[j].text)
    return names


def _local_names(project: Project, fn: FunctionDef, type_name: str
                 ) -> set[str]:
    """Names of locals declared `[ckpt::]TypeName name ...` in fn's body."""
    toks = project.code_tokens[fn.rel]
    names: set[str] = set()
    lo, hi = fn.body
    for i in range(lo, hi):
        if toks[i].kind == lexer.ID and toks[i].text == type_name and \
                i + 1 < hi and toks[i + 1].kind == lexer.ID:
            names.add(toks[i + 1].text)
    return names


def _expr_before(toks, i: int, lo: int) -> str:
    """Render the postfix object expression ending just before index i (the
    '.' or '->' of a member call). Walks back over components (identifiers,
    subscript/call groups) joined by '.'/'->'/'::' — and nothing else, so
    a preceding `if (...)` or `for (...)` header is never swallowed."""
    parts: list[str] = []
    j = i - 1
    expect_component = True
    while j >= lo:
        t = toks[j]
        if expect_component:
            if t.text in (")", "]"):
                closer = t.text
                opener = "(" if closer == ")" else "["
                depth = 0
                k = j
                while k >= lo:
                    if toks[k].text == closer:
                        depth += 1
                    elif toks[k].text == opener:
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                # A group must belong to the chain: preceded by an
                # identifier (call/subscript) or another group.
                prev = toks[k - 1] if k - 1 >= lo else None
                if prev is None or (
                    prev.kind != lexer.ID and prev.text not in (")", "]")
                ):
                    break
                parts.append("".join(x.text for x in toks[k : j + 1]))
                j = k - 1
                continue
            if t.kind == lexer.ID:
                parts.append(t.text)
                j -= 1
                expect_component = False
                continue
            break
        if t.text in (".", "->", "::"):
            parts.append(t.text)
            j -= 1
            expect_component = True
            continue
        break
    return "".join(reversed(parts))


def _call_args_text(toks, open_paren: int, skip: frozenset[str]) -> str:
    """Top-level argument expressions of the call at open_paren, joined,
    with identifiers in `skip` (the writer/reader) and a leading 'ckpt::'
    dropped, and save_/load_ prefixes normalized."""
    close = match_paren(toks, open_paren)
    args: list[str] = []
    cur: list[str] = []
    depth = 0
    for i in range(open_paren + 1, close):
        t = toks[i]
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        if t.text == "," and depth == 0:
            args.append("".join(cur))
            cur = []
            continue
        if t.kind == lexer.ID and t.text in skip and depth == 0:
            continue
        cur.append(_normalize_helper(t.text) if t.kind == lexer.ID else
                   t.text)
    if cur:
        args.append("".join(cur))
    return ",".join(a for a in (x.strip(",") for x in args) if a)


def extract(project: Project) -> tuple[list[Entry], Report]:
    """Extract every schema entry in the tree. The returned report carries
    extraction-time findings (unresolvable versions, nesting errors)."""
    report = Report()
    entries: list[Entry] = []
    for fn in project.functions:
        if any(fn.rel.endswith(e) for e in _EXCLUDED_FILES):
            continue
        writers = _param_names(project, fn, "StateWriter") | \
            _local_names(project, fn, "StateWriter")
        readers = _param_names(project, fn, "StateReader") | \
            _local_names(project, fn, "StateReader")
        if not writers and not readers:
            continue
        entries.extend(
            _extract_function(project, fn, writers, readers, report)
        )
    return entries, report


def _extract_function(project: Project, fn: FunctionDef, writers: set[str],
                      readers: set[str], report: Report) -> list[Entry]:
    toks = project.code_tokens[fn.rel]
    lo, hi = fn.body
    side = "save" if writers else "load"
    handles = writers | readers

    out: list[Entry] = []
    # The implicit top-level entry collects ops outside any section (shared
    # helpers like save_ewma have no section of their own).
    top = Entry(kind="helper", key=fn.qualname,
                qualname=fn.qualname, rel=fn.rel, line=fn.line, side=side)
    stack: list[Entry] = [top]

    i = lo
    while i < hi:
        t = toks[i]
        if t.kind != lexer.ID:
            i += 1
            continue
        prv = toks[i - 1] if i > lo else None
        nxt = toks[i + 1] if i + 1 < hi else None

        # Member call on the writer/reader handle: H . method ( ... )
        if t.text in handles and nxt is not None and \
                nxt.text in (".", "->") and i + 3 < hi and \
                toks[i + 2].kind == lexer.ID and toks[i + 3].text == "(":
            method = toks[i + 2].text
            open_paren = i + 3
            close = match_paren(toks, open_paren)
            if method == "begin_section":
                name_tok = toks[open_paren + 1]
                name = name_tok.text if name_tok.kind == lexer.STR else "?"
                # version expression: tokens after the first ','
                ver_toks = []
                depth = 0
                seen_comma = False
                for k in range(open_paren + 1, close):
                    tt = toks[k]
                    if tt.text in ("(", "[", "{"):
                        depth += 1
                    elif tt.text in (")", "]", "}"):
                        depth -= 1
                    elif tt.text == "," and depth == 0:
                        seen_comma = True
                        continue
                    if seen_comma:
                        ver_toks.append(tt.text)
                ver_expr = "".join(ver_toks)
                entry = Entry(
                    kind="section",
                    key=f"{fn.qualname}@{name}",
                    qualname=fn.qualname, rel=fn.rel, line=t.line,
                    side=side, section=name, version_expr=ver_expr,
                    version_value=_resolve_version(project, fn, ver_expr,
                                                   report, t.line),
                )
                stack.append(entry)
            elif method == "end_section":
                if len(stack) > 1:
                    out.append(stack.pop())
                else:
                    report.add(
                        "ckpt-schema-lock", fn.rel, t.line,
                        f"{fn.qualname}: end_section() without a matching "
                        "begin_section in this function",
                    )
            elif method in _PRIMS:
                detail = ""
                if t.text in writers:
                    detail = "".join(
                        x.text for x in toks[open_paren + 1 : close]
                    )
                stack[-1].ops.append(Op(method, detail))
            i = close + 1
            continue

        # Nested component save/load: expr . save_state ( H )
        if t.text in _NESTED and nxt is not None and nxt.text == "(" and \
                prv is not None and prv.text in (".", "->"):
            close = match_paren(toks, i + 1)
            arg_ids = {x.text for x in toks[i + 2 : close]
                       if x.kind == lexer.ID}
            if arg_ids & handles:
                obj = _expr_before(toks, i - 1, lo)
                stack[-1].ops.append(Op("nested", obj))
            i = close + 1
            continue

        # Free helper call: name ( ..., H, ... ) with H passed bare.
        if nxt is not None and nxt.text == "(" and t.text not in handles \
                and (prv is None or prv.text not in (".", "->")):
            open_paren = i + 1
            close = match_paren(toks, open_paren)
            passes_handle = False
            for k in range(open_paren + 1, close):
                if toks[k].kind == lexer.ID and toks[k].text in handles:
                    follow = toks[k + 1].text if k + 1 < close else ""
                    if follow not in (".", "->"):
                        passes_handle = True
                        break
            if passes_handle:
                stack[-1].ops.append(Op(
                    "helper", _normalize_helper(t.text),
                    _call_args_text(toks, open_paren, frozenset(handles)),
                ))
                i = close + 1
                continue
        i += 1

    while len(stack) > 1:
        entry = stack.pop()
        report.add(
            "ckpt-schema-lock", entry.rel, entry.line,
            f"{fn.qualname}: section '{entry.section}' is never closed "
            "with end_section() in this function",
        )
        out.append(entry)
    if top.ops:
        out.append(top)
    return out


def _resolve_version(project: Project, fn: FunctionDef, expr: str,
                     report: Report, line: int) -> str:
    expr = expr.strip()
    if not expr:
        return "?"
    # Literal?
    try:
        return str(int(expr.rstrip("uUlL"), 0))
    except ValueError:
        pass
    # Qualified constant Class::kName, or bare kName resolved through the
    # enclosing class and its bases.
    if "::" in expr:
        cls, _, name = expr.rpartition("::")
        value = project.resolve_constant(name.strip(), cls.strip())
    else:
        value = project.resolve_constant(expr, fn.class_name)
    if value is None:
        report.add(
            "ckpt-schema-lock", fn.rel, line,
            f"{fn.qualname}: cannot resolve schema version expression "
            f"'{expr}' to a value; declare it as a constexpr integer",
        )
        return expr
    return str(value)


# --- consistency checks (lock-independent) ---------------------------------


def check_consistency(entries: list[Entry], report: Report) -> None:
    """Save/load symmetry per section and helper, and cross-site layout
    agreement for sections sharing a name."""
    sections: dict[str, list[Entry]] = {}
    helpers: dict[str, list[Entry]] = {}
    for e in entries:
        if e.kind == "section":
            sections.setdefault(e.section, []).append(e)
        else:
            helpers.setdefault(_normalize_helper(
                e.qualname.rsplit("::", 1)[-1]), []).append(e)

    for name, group in sorted(sections.items()):
        saves = [e for e in group if e.side == "save"]
        loads = [e for e in group if e.side == "load"]
        if not saves or not loads:
            anchor = group[0]
            missing = "load" if not loads else "save"
            report.add(
                "ckpt-save-load-mismatch", anchor.rel, anchor.line,
                f"section '{name}' has no {missing}-side counterpart; "
                "checkpoints written here can never round-trip",
            )
            continue
        # All sites of one section name must agree on version and layout.
        ref = saves[0]
        for e in group[1:]:
            if e.version_value != ref.version_value:
                report.add(
                    "ckpt-save-load-mismatch", e.rel, e.line,
                    f"section '{name}' is written with version "
                    f"{ref.version_value} at {ref.qualname} but "
                    f"{e.version_value} at {e.qualname}; all sites of one "
                    "section must share one schema version",
                )
        for other in saves[1:]:
            _compare_ops(ref, other, name, report)
        for ld in loads:
            _compare_ops(ref, ld, name, report)

    for name, group in sorted(helpers.items()):
        saves = [e for e in group if e.side == "save"]
        loads = [e for e in group if e.side == "load"]
        if len(saves) == 1 and len(loads) == 1:
            _compare_ops(saves[0], loads[0], f"helper '{name}'", report)


def _compare_ops(a: Entry, b: Entry, what: str, report: Report) -> None:
    ka = [op.sym_key() for op in a.ops]
    kb = [op.sym_key() for op in b.ops]
    if ka == kb:
        return
    # Point at the first divergence for a debuggable message.
    idx = next(
        (i for i, (x, y) in enumerate(zip(ka, kb)) if x != y),
        min(len(ka), len(kb)),
    )
    da = a.ops[idx].render() if idx < len(a.ops) else "(end)"
    db = b.ops[idx].render() if idx < len(b.ops) else "(end)"
    report.add(
        "ckpt-save-load-mismatch", b.rel, b.line,
        f"{what}: op sequence of {b.qualname} diverges from "
        f"{a.qualname} at op {idx}: '{da}' vs '{db}' — writer and reader "
        "(or sibling writers) disagree on the byte layout",
    )


# --- lock rendering / parsing / comparison ---------------------------------


def render_lock(entries: list[Entry]) -> str:
    """Canonical lock text over the save-side entries."""
    lines = [LOCK_HEADER]
    for e in sorted((e for e in entries if e.side == "save"),
                    key=lambda e: e.key):
        if e.kind == "section":
            lines.append(f"section {e.section} v{e.version_value} "
                         f"@ {e.key} ({e.rel})")
        else:
            lines.append(f"helper @ {e.key} ({e.rel})")
        for op in e.ops:
            lines.append(f"  {op.render()}")
        lines.append("end")
    return "\n".join(lines) + "\n"


@dataclass
class LockEntry:
    kind: str
    key: str
    section: str
    version_value: str
    ops: list[str]


def parse_lock(text: str) -> dict[str, LockEntry]:
    entries: dict[str, LockEntry] = {}
    cur: LockEntry | None = None
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("section "):
            rest = line[len("section "):]
            head, _, key_part = rest.partition(" @ ")
            name, _, ver = head.rpartition(" v")
            key = key_part.split(" (")[0]
            cur = LockEntry("section", key, name, ver, [])
            entries[key] = cur
        elif line.startswith("helper @ "):
            key = line[len("helper @ "):].split(" (")[0]
            cur = LockEntry("helper", key, "", "", [])
            entries[key] = cur
        elif line == "end":
            cur = None
        elif cur is not None and line.startswith("  "):
            cur.ops.append(line[2:])
    return entries


def _embedding_sections(entries: list[Entry], helper_key: str
                        ) -> list[Entry]:
    """Save-side sections whose op lists (transitively) reference the
    helper, matched on the normalized base name."""
    base = _normalize_helper(helper_key.rsplit("::", 1)[-1])
    by_name: dict[str, list[Entry]] = {}
    for e in entries:
        if e.side != "save":
            continue
        name = _normalize_helper(e.qualname.rsplit("::", 1)[-1])
        by_name.setdefault(name, []).append(e)

    def refs(entry: Entry, target: str, seen: frozenset[str]) -> bool:
        for op in entry.ops:
            hay = (op.detail + " " + op.args)
            if target in hay.replace(",", " ").replace("(", " ").split() or \
                    op.detail == target:
                return True
            if op.kind == "helper" and op.detail not in seen:
                for nested in by_name.get(op.detail, []):
                    if refs(nested, target, seen | {op.detail}):
                        return True
        return False

    return [
        e for e in entries
        if e.kind == "section" and e.side == "save" and
        refs(e, base, frozenset())
    ]


def compare_with_lock(entries: list[Entry], lock_text: str,
                      report: Report) -> None:
    """The commit-time invariant: layout drift without a version bump is an
    error; any other disagreement with the lock is stale-lock drift."""
    locked = parse_lock(lock_text)
    current = {
        e.key: e for e in entries if e.side == "save"
    }

    for key, e in sorted(current.items()):
        le = locked.get(key)
        if le is None:
            report.add(
                "ckpt-schema-lock-stale", e.rel, e.line,
                f"'{key}' is not in tools/ckpt_schema.lock; regenerate "
                "the lock (tools/gs_analyze --write-lock) and commit it",
            )
            continue
        ops_changed = le.ops != e.ops_rendered()
        if e.kind == "section":
            if ops_changed and le.version_value == e.version_value:
                report.add(
                    "ckpt-schema-lock", e.rel, e.line,
                    f"section '{e.section}' ({e.qualname}): serialized "
                    "field list changed but the schema version is still "
                    f"{e.version_value}; bump the version constant "
                    f"({e.version_expr or 'kStateVersion'}) and regenerate "
                    "the lock",
                )
            elif ops_changed or le.version_value != e.version_value:
                report.add(
                    "ckpt-schema-lock-stale", e.rel, e.line,
                    f"section '{e.section}' ({e.qualname}) changed with a "
                    "version bump; regenerate tools/ckpt_schema.lock "
                    "(tools/gs_analyze --write-lock) and commit it",
                )
        elif ops_changed:
            embeds = _embedding_sections(entries, key)
            unbumped = [
                s for s in embeds
                if locked.get(s.key) is not None and
                locked[s.key].version_value == s.version_value
            ]
            if unbumped:
                names = ", ".join(
                    f"'{s.section}' (v{s.version_value})" for s in unbumped
                )
                report.add(
                    "ckpt-schema-lock", e.rel, e.line,
                    f"shared serialization helper '{key}' changed its op "
                    f"list but embedding section(s) {names} kept their "
                    "schema version; bump them and regenerate the lock",
                )
            else:
                report.add(
                    "ckpt-schema-lock-stale", e.rel, e.line,
                    f"helper '{key}' changed alongside version bumps; "
                    "regenerate tools/ckpt_schema.lock and commit it",
                )

    for key, le in sorted(locked.items()):
        if key not in current:
            report.add(
                "ckpt-schema-lock-stale", "tools/ckpt_schema.lock", 1,
                f"'{key}' is in the lock but no longer in the tree; "
                "regenerate tools/ckpt_schema.lock and commit it",
            )


def lock_blockers(entries: list[Entry], lock_text: str) -> Report:
    """Findings that must block --write-lock: hard ckpt-schema-lock errors
    (un-bumped drift), not stale-lock drift."""
    report = Report()
    compare_with_lock(entries, lock_text, report)
    report.findings = [
        f for f in report.findings if f.rule == "ckpt-schema-lock"
    ]
    return report
