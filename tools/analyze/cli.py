"""Command line for gs_analyze.

  tools/gs_analyze [PATH ...]            analyze src/ (or the given paths)
  tools/gs_analyze --json out.json       also write machine-readable output
  tools/gs_analyze --write-lock          regenerate tools/ckpt_schema.lock
  tools/gs_analyze --list-rules          print the rule names and exit

Exit codes: 0 clean, 1 findings, 2 --write-lock refused (the tree carries
an un-bumped schema change; locking it would bless the violation).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import engine

_RULE_SUMMARIES = {
    "raw-thread": "std::thread/async only in common/thread_pool",
    "raw-mutex": "raw <mutex> primitives only in thread_annotations.hpp",
    "raw-random": "non-gs randomness only in common/rng.hpp",
    "wall-clock": "no wall-clock time in simulation code",
    "use-gs-assert": "GS_REQUIRE/GS_ENSURE instead of assert()",
    "mutex-annotations":
        "every gs::Mutex member referenced by a GS_* annotation",
    "ckpt-schema-version":
        "save_state/load_state headers declare kStateVersion",
    "tsdb-chunk-version":
        "tsdb on-disk format code keeps its format-version constant in "
        "view",
    "serve-protocol-version":
        "GSRV wire-format code keeps kProtocolVersion in view",
    "hot-path-alloc": "no heap allocation in gs:hot-path files",
    "ckpt-schema-lock":
        "serialized field lists cannot change without a version bump "
        "(tools/ckpt_schema.lock)",
    "ckpt-schema-lock-stale":
        "tools/ckpt_schema.lock out of date; regenerate with --write-lock",
    "ckpt-save-load-mismatch":
        "save_state and load_state agree on every section's byte layout",
    "durable-io-failpoint":
        "raw fsync/rename in gs:durable-io files keeps a failpoint in view",
    "fingerprint-coverage":
        "every scenario-shaping field reaches scenario_fingerprint()",
    "lock-order-cycle": "the static mutex acquisition graph is acyclic",
    "lock-order-reentry": "no re-acquisition of a held non-recursive "
                          "gs::Mutex",
    "lock-order-annotation":
        "lock-taking methods carry GS_EXCLUDES/GS_REQUIRES declarations",
    "rng-stream-ownership": "each named Rng stream drawn by one subsystem",
    "stale-suppression": "allow() comments that silence nothing are "
                         "errors",
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="gs_analyze", description=__doc__.splitlines()[0]
    )
    ap.add_argument("paths", nargs="*",
                    help="files or directories to analyze (default: src)")
    ap.add_argument("--json", metavar="PATH",
                    help="write the findings as JSON to PATH ('-' for "
                    "stdout)")
    ap.add_argument("--write-lock", action="store_true",
                    help="regenerate tools/ckpt_schema.lock from the tree")
    ap.add_argument("--lock", metavar="PATH",
                    help="schema lock file (default: tools/"
                    "ckpt_schema.lock)")
    ap.add_argument("--root", metavar="PATH",
                    help="repository root (default: the tools/ parent)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in engine.ALL_RULES:
            print(f"{rule}: {_RULE_SUMMARIES.get(rule, '')}")
        return 0

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent.parent
    lock_path = Path(args.lock) if args.lock else None
    if lock_path is not None and not lock_path.is_absolute():
        lock_path = root / lock_path
    paths = args.paths or None

    if args.write_lock:
        blockers, written = engine.write_lock(root, lock_path, paths)
        if not written:
            print("gs-analyze: refusing to write the schema lock — the "
                  "tree has un-bumped schema changes:", file=sys.stderr)
            for f in blockers.sorted_findings():
                print("  " + f.text(), file=sys.stderr)
            return 2
        target = lock_path or root / engine.DEFAULT_LOCK
        print(f"gs-analyze: wrote {target}")
        return 0

    report, _ = engine.analyze(root, paths, lock_path)
    if args.json:
        payload = report.render_json()
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")

    # With JSON on stdout, the human rendering moves to stderr so the
    # stream stays parseable.
    human = sys.stderr if args.json == "-" else sys.stdout
    text = report.render_text()
    if text:
        print(text, file=human)
    if report.findings:
        print(f"gs-analyze: {len(report.findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"gs-analyze: clean ({report.files_analyzed} files, "
          f"{len(report.rules_run)} rules)", file=human)
    return 0
