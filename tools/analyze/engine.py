"""Analysis driver: load src/, build the project model, run every pass.

The engine owns pass ordering and the two whole-project invariants that
need it: the checkpoint schema lock (extraction feeds both the consistency
check and the lock comparison) and stale-suppression reporting (an allow()
comment that silenced nothing is itself a finding, so suppressions cannot
outlive the code they excused — this runs last, after every rule has had
the chance to mark its suppressions used).
"""

from __future__ import annotations

from pathlib import Path

from . import (
    ckpt_schema,
    durable_io,
    fingerprint,
    lock_order,
    rng_streams,
    rules_legacy,
    source,
)
from .findings import Report
from .model import build

DEFAULT_LOCK = Path("tools") / "ckpt_schema.lock"

NEW_RULES = (
    "ckpt-schema-lock",
    "ckpt-schema-lock-stale",
    "ckpt-save-load-mismatch",
    "durable-io-failpoint",
    "fingerprint-coverage",
    "lock-order-cycle",
    "lock-order-reentry",
    "lock-order-annotation",
    "rng-stream-ownership",
    "stale-suppression",
)
ALL_RULES = rules_legacy.LEGACY_RULES + NEW_RULES


def load_files(root: Path, paths: list[str] | None = None
               ) -> dict[str, source.SourceFile]:
    files: dict[str, source.SourceFile] = {}
    targets = [Path(p) for p in (paths or ["src"])]
    for target in targets:
        base = target if target.is_absolute() else root / target
        candidates = (
            [base] if base.is_file()
            else sorted(base.rglob("*.hpp")) + sorted(base.rglob("*.cpp"))
            + sorted(base.rglob("*.h"))
        )
        for p in candidates:
            try:
                rel = p.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = p.as_posix()
            files[rel] = source.load(p, rel)
    return files


def analyze(root: Path, paths: list[str] | None = None,
            lock_path: Path | None = None) -> tuple[Report, str]:
    """Run the pass stack. Returns (report, current lock text) — the lock
    text is what --write-lock would write, rendered whether or not the
    comparison passed."""
    files = load_files(root, paths)
    project = build(files)
    report = Report()
    report.files_analyzed = len(files)
    report.rules_run = list(ALL_RULES)

    rules_legacy.run(project, report)

    entries, extract_report = ckpt_schema.extract(project)
    report.findings.extend(extract_report.findings)
    ckpt_schema.check_consistency(entries, report)
    lock_text = ckpt_schema.render_lock(entries)

    lock_file = lock_path if lock_path is not None else root / DEFAULT_LOCK
    if lock_file.exists():
        ckpt_schema.compare_with_lock(
            entries, lock_file.read_text(encoding="utf-8"), report
        )
    else:
        report.add(
            "ckpt-schema-lock-stale", DEFAULT_LOCK.as_posix(), 1,
            "tools/ckpt_schema.lock does not exist; generate it with "
            "tools/gs_analyze --write-lock and commit it",
        )

    durable_io.run(project, report)
    fingerprint.run(project, report)
    lock_order.run(project, report)
    rng_streams.run(project, report)

    _report_stale_suppressions(files, report, set(report.rules_run))
    return report, lock_text


def write_lock(root: Path, lock_path: Path | None = None,
               paths: list[str] | None = None) -> tuple[Report, bool]:
    """Regenerate the lock file. Refuses (returns written=False) when the
    tree carries hard ckpt-schema-lock violations — a layout change without
    its version bump must not be lockable."""
    files = load_files(root, paths)
    project = build(files)
    entries, extract_report = ckpt_schema.extract(project)

    lock_file = lock_path if lock_path is not None else root / DEFAULT_LOCK
    blockers = Report()
    blockers.findings.extend(extract_report.findings)
    ckpt_schema.check_consistency(entries, blockers)
    if lock_file.exists():
        blockers.findings.extend(
            ckpt_schema.lock_blockers(
                entries, lock_file.read_text(encoding="utf-8")
            ).findings
        )
    if blockers.findings:
        return blockers, False

    lock_file.parent.mkdir(parents=True, exist_ok=True)
    lock_file.write_text(ckpt_schema.render_lock(entries),
                         encoding="utf-8")
    return blockers, True


def _report_stale_suppressions(files: dict[str, source.SourceFile],
                               report: Report,
                               rules_run: set[str]) -> None:
    for sf in files.values():
        for sup in sf.suppressions:
            if sup.used:
                continue
            # Only judge suppressions whose rules all ran: one naming an
            # unknown rule is not known to be stale.
            if not sup.rules <= rules_run:
                continue
            rules = ", ".join(sorted(sup.rules))
            report.add(
                "stale-suppression", sf.rel, sup.line,
                f"allow({rules}) suppresses nothing — the finding it "
                "excused is gone; delete the comment so real findings "
                "cannot hide behind it",
            )
