#!/usr/bin/env python3
"""Golden-fixture and mutation tests for tools/gs_analyze.

Three layers, all ctest-registered (see tests/CMakeLists.txt):

1. Fixture suite: tests/analyze/fixtures/<rule>/{pass,fail} are miniature
   source trees; the engine must report zero findings OF THAT RULE on the
   pass tree and at least one on the fail tree. Other rules' findings are
   ignored (a fixture isolates one rule, not the whole gate). Every rule
   in engine.ALL_RULES has a fixture directory, every fixture directory
   names a rule, and every rule has a --list-rules summary. Several pass
   fixtures double as lexer regression tests: they plant rule patterns
   inside string literals, raw strings and comments — the false-positive
   class the legacy regex pack suffered from.

2. Mutation test: copy the real src/ + schema lock to a temp tree, append
   one serialized field to both sides of the "grid" section WITHOUT
   bumping kStateVersion, and require (a) gs_analyze exits non-zero with
   a ckpt-schema-lock finding, (b) --write-lock refuses (exit 2). Then
   bump the version and require --write-lock to succeed and the tree to
   re-analyze clean — the full intended workflow.

3. Tree gate: the committed tree itself must analyze clean, which also
   proves tools/ckpt_schema.lock is current.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"

sys.path.insert(0, str(REPO / "tools"))

from analyze import cli, engine  # noqa: E402

_failures: list[str] = []


def check(ok: bool, what: str) -> None:
    status = "ok  " if ok else "FAIL"
    print(f"  [{status}] {what}")
    if not ok:
        _failures.append(what)


def run_fixtures() -> None:
    print("== fixture suite")
    cases = sorted(p for p in FIXTURES.iterdir() if p.is_dir())
    rules = set(engine.ALL_RULES)
    fixtures = {p.name for p in cases}
    check(not rules - fixtures,
          f"every rule has a fixture (missing: {sorted(rules - fixtures)})")
    check(not fixtures - rules,
          f"every fixture names a rule (unknown: {sorted(fixtures - rules)})")
    summaries = set(cli._RULE_SUMMARIES)
    check(summaries == rules,
          "every rule has one --list-rules summary (missing: "
          f"{sorted(rules - summaries)}, unknown: "
          f"{sorted(summaries - rules)})")
    for rule_dir in cases:
        rule = rule_dir.name
        for kind, expect in (("pass", False), ("fail", True)):
            case = rule_dir / kind
            report, _ = engine.analyze(case)
            hits = [f for f in report.findings if f.rule == rule]
            check(
                bool(hits) == expect,
                f"{rule}/{kind}: {len(hits)} finding(s), expected "
                + (">=1" if expect else "0"),
            )
            if bool(hits) != expect and hits:
                for f in hits:
                    print("        " + f.text())


def run_mutation() -> None:
    print("== mutation test (schema change without version bump)")
    gs_analyze = REPO / "tools" / "gs_analyze"
    with tempfile.TemporaryDirectory(prefix="gs_analyze_mut_") as td:
        tmp = Path(td)
        shutil.copytree(REPO / "src", tmp / "src")
        (tmp / "tools").mkdir()
        shutil.copy2(REPO / "tools" / "ckpt_schema.lock", tmp / "tools")

        # Append one field to BOTH sides of the "grid" section — a
        # well-formed schema change, just without its version bump. (Grid
        # is a single-site section; a section written from several sites
        # would additionally trip the sibling-layout consistency check.)
        grid = tmp / "src" / "power" / "grid.cpp"
        text = grid.read_text(encoding="utf-8")
        save_needle = "w.f64(budget_derate_);"
        load_needle = "budget_derate_ = r.f64();"
        assert save_needle in text and load_needle in text, \
            "mutation anchors moved; update this test"
        text = text.replace(save_needle, save_needle + "\n  w.f64(0.0);")
        text = text.replace(load_needle, load_needle + "\n  r.f64();")
        grid.write_text(text, encoding="utf-8")

        def cli(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, str(gs_analyze), "--root", str(tmp),
                 *args],
                capture_output=True, text=True,
            )

        res = cli()
        check(res.returncode != 0, "mutated tree fails analysis")
        check("ckpt-schema-lock" in res.stdout,
              "failure names ckpt-schema-lock")
        check("'grid'" in res.stdout, "failure points at the section")

        res = cli("--write-lock")
        check(res.returncode == 2, "--write-lock refuses the un-bumped "
                                   f"change (exit {res.returncode})")

        # Bump the version: the same edit becomes a legitimate schema
        # change and the lock regenerates.
        hpp = tmp / "src" / "power" / "grid.hpp"
        text = hpp.read_text(encoding="utf-8")
        needle = "kStateVersion = 1"
        assert needle in text, "grid kStateVersion anchor moved"
        hpp.write_text(text.replace(needle, "kStateVersion = 2"),
                       encoding="utf-8")

        res = cli("--write-lock")
        check(res.returncode == 0, "--write-lock accepts after the bump")
        res = cli()
        check(res.returncode == 0, "bumped tree analyzes clean")


def run_tree_gate() -> None:
    print("== committed tree gate")
    report, _ = engine.analyze(REPO)
    check(not report.findings,
          f"tree analyzes clean ({report.files_analyzed} files)")
    for f in report.sorted_findings():
        print("        " + f.text())


def main() -> int:
    run_fixtures()
    run_mutation()
    run_tree_gate()
    if _failures:
        print(f"\n{len(_failures)} failure(s)", file=sys.stderr)
        return 1
    print("\nall analyze tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
