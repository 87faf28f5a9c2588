"""The ten legacy gs-lint rules, ported onto the lexer.

Same rule names, same messages, same suppression placement as the
retired regex-based gs-lint script enforced — but matched against the
token stream, so occurrences inside string literals, character literals and
comments (the legacy regex pack's false-positive class) can no longer
fire, and occurrences split across lines can no longer hide.
"""

from __future__ import annotations

from . import lexer
from .findings import Report
from .model import Project
from .source import SourceFile

LEGACY_RULES = (
    "raw-thread",
    "raw-mutex",
    "raw-random",
    "wall-clock",
    "use-gs-assert",
    "correlated-faults",
    "mutex-annotations",
    "ckpt-schema-version",
    "tsdb-chunk-version",
    "serve-protocol-version",
    "hot-path-alloc",
)

_RAW_THREAD = frozenset({"thread", "jthread", "async"})
_RAW_THREAD_MSG = (
    "raw std::thread/std::async outside common/thread_pool; submit work "
    "to gs::ThreadPool / parallel_for instead"
)
_RAW_THREAD_EXEMPT = ("common/thread_pool.hpp", "common/thread_pool.cpp")

_RAW_MUTEX = frozenset({
    "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
    "recursive_timed_mutex", "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock", "condition_variable", "condition_variable_any",
})
_RAW_MUTEX_MSG = (
    "raw <mutex>/<condition_variable> primitive outside "
    "common/thread_annotations.hpp; use the capability-annotated "
    "gs::Mutex / gs::MutexLock / gs::CondVar"
)
_RAW_MUTEX_EXEMPT = ("common/thread_annotations.hpp",)

_RAW_RANDOM = frozenset({
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
    "ranlux48_base", "knuth_b", "random_device",
    "uniform_int_distribution", "uniform_real_distribution",
    "normal_distribution", "poisson_distribution",
    "exponential_distribution", "bernoulli_distribution",
    "geometric_distribution",
})
_RAW_RANDOM_MSG = (
    "non-gs randomness outside common/rng.hpp; derive a gs::Rng stream "
    "(determinism guard for sweep_fingerprint)"
)
_RAW_RANDOM_EXEMPT = ("common/rng.hpp",)

_WALL_CLOCK_MSG = (
    "wall-clock time in simulation code; simulated time comes from the "
    "scenario clock (wall timing belongs in bench/)"
)

_USE_GS_ASSERT_MSG = (
    "<cassert>/assert() in src/; use GS_REQUIRE / GS_ENSURE from "
    "common/assert.hpp (throws gs::ContractError, active in release)"
)

_CORRELATED_FAULTS_MSG = (
    "direct FaultSchedule::generate() bypasses the correlation-aware "
    "entry point; call FaultSchedule::generate_correlated (a disabled "
    "CorrelationSpec is the identity)"
)
_CORRELATED_FAULTS_EXEMPT = (
    "faults/fault_schedule.hpp", "faults/fault_schedule.cpp",
)

_TSDB_MARKERS = frozenset({
    "encode_page", "decode_page", "replay_wal", "WalRecord",
})
_TSDB_VERSIONS = frozenset({"kChunkFormatVersion", "kWalFormatVersion"})

_SERVE_MARKERS = frozenset({
    "encode_frame", "FrameDecoder", "parse_request", "format_feed",
})
_SERVE_VERSION = "kProtocolVersion"

_GROWTH_CALLS = frozenset({
    "push_back", "emplace_back", "resize", "reserve", "assign", "insert",
    "emplace",
})

_LOCK_ANNOTATIONS = frozenset({
    "GS_GUARDED_BY", "GS_PT_GUARDED_BY", "GS_REQUIRES", "GS_ACQUIRE",
    "GS_RELEASE", "GS_TRY_ACQUIRE", "GS_EXCLUDES", "GS_RETURN_CAPABILITY",
})


def _applies(rel: str, exempt: tuple[str, ...]) -> bool:
    return not any(rel.endswith(e) for e in exempt)


def _emit(report: Report, sf: SourceFile, rule: str, line: int,
          message: str, line_above: bool = False) -> None:
    if not sf.allowed(rule, line, line_above=line_above):
        report.add(rule, sf.rel, line, message)


def run(project: Project, report: Report) -> None:
    for sf in project.files.values():
        _lint_file(project, sf, report)


def _lint_file(project: Project, sf: SourceFile, report: Report) -> None:
    rel = sf.rel
    toks = project.code_tokens.get(rel) or sf.code_tokens()
    n = len(toks)

    saw_save_load = None  # first save_state/load_state declaration line
    saw_state_version = False
    tsdb_marker_line = None
    saw_tsdb_version = False
    serve_marker_line = None
    saw_serve_version = False

    for i, t in enumerate(toks):
        nxt = toks[i + 1] if i + 1 < n else None
        prv = toks[i - 1] if i > 0 else None

        # std::<something> patterns.
        if t.text == "std" and nxt is not None and nxt.text == "::" and \
                i + 2 < n:
            member = toks[i + 2]
            if member.kind == lexer.ID:
                if member.text in _RAW_THREAD and \
                        _applies(rel, _RAW_THREAD_EXEMPT):
                    _emit(report, sf, "raw-thread", t.line, _RAW_THREAD_MSG)
                elif member.text in _RAW_MUTEX and \
                        _applies(rel, _RAW_MUTEX_EXEMPT):
                    _emit(report, sf, "raw-mutex", t.line, _RAW_MUTEX_MSG)
                elif member.text in _RAW_RANDOM and \
                        _applies(rel, _RAW_RANDOM_EXEMPT):
                    _emit(report, sf, "raw-random", t.line, _RAW_RANDOM_MSG)
                elif member.text == "chrono" and i + 4 < n and \
                        toks[i + 3].text == "::" and \
                        toks[i + 4].text == "system_clock":
                    _emit(report, sf, "wall-clock", t.line, _WALL_CLOCK_MSG)

        # rand( / srand( — not a member access, not qualified.
        if t.kind == lexer.ID and t.text in ("rand", "srand") and \
                nxt is not None and nxt.text == "(" and \
                (prv is None or prv.text not in (".", "->", "::")) and \
                _applies(rel, _RAW_RANDOM_EXEMPT):
            _emit(report, sf, "raw-random", t.line, _RAW_RANDOM_MSG)

        # time(nullptr) / time(NULL) / time(0) — qualified or not, matching
        # the legacy rule (std::time(nullptr) also fired).
        if t.kind == lexer.ID and t.text == "time" and nxt is not None and \
                nxt.text == "(" and i + 3 < n and \
                toks[i + 2].text in ("nullptr", "NULL", "0") and \
                toks[i + 3].text == ")" and \
                (prv is None or prv.text not in (".", "->")):
            _emit(report, sf, "wall-clock", t.line, _WALL_CLOCK_MSG)

        # assert( — tokenization already separates static_assert.
        if t.kind == lexer.ID and t.text == "assert" and nxt is not None \
                and nxt.text == "(" and \
                (prv is None or prv.text not in (".", "->", "::")):
            _emit(report, sf, "use-gs-assert", t.line, _USE_GS_ASSERT_MSG)

        # FaultSchedule::generate(
        if t.text == "FaultSchedule" and nxt is not None and \
                nxt.text == "::" and i + 3 < n and \
                toks[i + 2].text == "generate" and \
                toks[i + 3].text == "(" and \
                _applies(rel, _CORRELATED_FAULTS_EXEMPT):
            _emit(report, sf, "correlated-faults", t.line,
                  _CORRELATED_FAULTS_MSG)

        # File-level bookkeeping for ckpt-schema-version /
        # tsdb-chunk-version.
        if t.kind == lexer.ID:
            if t.text in ("save_state", "load_state") and nxt is not None \
                    and nxt.text == "(" and saw_save_load is None:
                saw_save_load = t.line
            if t.text == "kStateVersion":
                saw_state_version = True
            if t.text in _TSDB_MARKERS and tsdb_marker_line is None:
                tsdb_marker_line = t.line
            if t.text in _TSDB_VERSIONS:
                saw_tsdb_version = True
            if t.text in _SERVE_MARKERS and serve_marker_line is None:
                serve_marker_line = t.line
            if t.text == _SERVE_VERSION:
                saw_serve_version = True

        # hot-path-alloc.
        if sf.hot_path:
            if t.kind == lexer.ID and t.text == "new" and \
                    (nxt is None or nxt.text != "(") and \
                    (prv is None or prv.text != "operator"):
                _emit(report, sf, "hot-path-alloc", t.line,
                      _hot_path_msg(), line_above=True)
            elif t.text == "std" and nxt is not None and nxt.text == "::" \
                    and i + 2 < n and toks[i + 2].text in (
                        "make_unique", "make_shared"):
                _emit(report, sf, "hot-path-alloc", t.line,
                      _hot_path_msg(), line_above=True)
            elif t.text in (".", "->") and nxt is not None and \
                    nxt.kind == lexer.ID and nxt.text in _GROWTH_CALLS and \
                    i + 2 < n and (
                        toks[i + 2].text == "(" or (
                            toks[i + 2].text == "<" and
                            _template_call_follows(toks, i + 2)
                        )
                    ):
                _emit(report, sf, "hot-path-alloc", nxt.line,
                      _hot_path_msg(), line_above=True)

    # Include-based assert detection (preprocessor tokens).
    for t in sf.tokens:
        if t.kind == lexer.PP and (
            "<cassert>" in t.text or "<assert.h>" in t.text
        ) and "include" in t.text:
            _emit(report, sf, "use-gs-assert", t.line, _USE_GS_ASSERT_MSG)

    # mutex-annotations: every gs::Mutex member must be referenced by a
    # capability annotation somewhere in the declaring file.
    annotated = _annotated_mutex_names(toks)
    for cls in project.classes.values():
        if cls.rel != rel:
            continue
        for name, line in cls.mutex_members.items():
            if name in annotated:
                continue
            if sf.allowed("mutex-annotations", line):
                continue
            report.add(
                "mutex-annotations", rel, line,
                f"gs::Mutex member '{name}' has no GS_GUARDED_BY/"
                "GS_REQUIRES/... referencing it; annotate what it guards",
            )

    # ckpt-schema-version: headers declaring save_state/load_state must
    # declare kStateVersion (file-level allow, e.g. version inherited from
    # a base class or the enclosing engine section).
    if sf.is_header and saw_save_load is not None and not saw_state_version:
        if not sf.allowed_anywhere("ckpt-schema-version"):
            report.add(
                "ckpt-schema-version", rel, saw_save_load,
                "save_state/load_state declared without a kStateVersion "
                "schema field; snapshot sections must be versioned "
                "(ckpt/state_io.hpp)",
            )

    # tsdb-chunk-version: on-disk format code must keep the owning
    # format-version constant in view (file-level allow).
    if "tsdb/" in rel and tsdb_marker_line is not None and \
            not saw_tsdb_version:
        if not sf.allowed_anywhere("tsdb-chunk-version"):
            report.add(
                "tsdb-chunk-version", rel, tsdb_marker_line,
                "on-disk format marker (page/WAL encode, decode, or "
                "replay) without a kChunkFormatVersion/kWalFormatVersion "
                "reference; bump the format version with any layout change",
            )

    # serve-protocol-version: wire-format code (the GSRV framing codec or
    # request grammar) must keep kProtocolVersion in view (file-level
    # allow) so any grammar/framing change confronts the version bump.
    if "serve/" in rel and serve_marker_line is not None and \
            not saw_serve_version:
        if not sf.allowed_anywhere("serve-protocol-version"):
            report.add(
                "serve-protocol-version", rel, serve_marker_line,
                "GSRV wire-format marker (encode_frame, FrameDecoder, "
                "parse_request, or format_feed) without a "
                "kProtocolVersion reference; bump the protocol version "
                "with any framing or grammar change",
            )


def _hot_path_msg() -> str:
    return (
        "heap allocation in a gs:hot-path file; keep the epoch loop "
        "allocation-free (reuse scratch buffers / pre-size arrays) or justify "
        "with an allow() comment"
    )


def _template_call_follows(toks, i) -> bool:
    """True when toks[i] == '<' opens template args followed by '(' —
    e.g. .emplace<T>(...)."""
    depth = 0
    for j in range(i, min(i + 32, len(toks))):
        if toks[j].text == "<":
            depth += 1
        elif toks[j].text == ">":
            depth -= 1
            if depth == 0:
                return j + 1 < len(toks) and toks[j + 1].text == "("
    return False


def _annotated_mutex_names(toks) -> set[str]:
    names: set[str] = set()
    for i, t in enumerate(toks):
        if t.kind == lexer.ID and t.text in _LOCK_ANNOTATIONS and \
                i + 1 < len(toks) and toks[i + 1].text == "(":
            j = i + 1
            depth = 0
            while j < len(toks):
                if toks[j].text == "(":
                    depth += 1
                elif toks[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif toks[j].kind == lexer.ID:
                    names.add(toks[j].text)
                j += 1
    return names
