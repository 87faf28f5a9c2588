#!/usr/bin/env python3
"""Compare gs_bench runs of a parent commit and a change.

    python3 gs_bench/compare.py PARENT_DIR CHANGE_DIR [--benchmark PATH]

Each directory holds one file per run, named <workload>.<n>[.<suffix>], whose
last non-empty line is gs_bench's JSON result (run.py's standard output).
Run n of the parent and run n of the change form pair n; make the runs
alternating which side goes first. At least 10 pairs per workload are
needed.

Every (workload, end-to-end metric) row gets one verdict, using the bound
that BENCHMARK.json fixes for the metric:

  improved    the change wins at least 9/10 of all pairs (ties count for
              neither side), its median is better than the parent's by more
              than the parent's IQR, and no more operations failed than at
              the parent;
  unresolved  the runs' own spread (IQR / median, the wider side) exceeds the
              bound, so "no worse than the bound" cannot be shown — unless
              every change run reads better (then unchanged) or every change
              run reads worse by more than the bound (then regressed);
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

A workload whose change runs report incorrect output gets a `correct` row
marked regressed. Exit status: 0 when nothing regressed, 1 when something
did, 2 on bad input.
"""
import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(directory):
    """{workload: {n: result}} from the run files in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        parts = name.split(".")
        if len(parts) < 2 or not parts[1].isdigit():
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"{name}: empty run file")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError as e:
            raise ValueError(f"{name}: last line is not a JSON result") from e
        runs.setdefault(parts[0], {})[int(parts[1])] = result
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound, more_failures=False):
    """Verdict for one metric from paired values (parent[i] with change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = spread(parent)
    c_q1, c_q3 = spread(change)
    rel_spread = max((p_q3 - p_q1) / abs(med_p), (c_q3 - c_q1) / abs(med_c))
    worse_by = sign * (med_p - med_c) / abs(med_p)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (p - c) > 0 for c in change for p in parent)

    if (wins >= WIN_SHARE * n and sign * (med_c - med_p) > p_q3 - p_q1
            and not more_failures):
        v = "improved"
    elif rel_spread > bound:
        if all_better:
            v = "unchanged"
        elif all_worse and worse_by > bound:
            v = "regressed"
        else:
            v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, {
        "parent": (med_p, p_q1, p_q3), "change": (med_c, c_q1, c_q3),
        "wins": wins, "pairs": n, "worse_by": worse_by, "spread": rel_spread,
    }


def compare(parent_runs, change_runs, benchmark):
    """Rows (workload, metric, verdict, stats); raises ValueError on bad input."""
    metrics = benchmark["end_to_end"]
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        pairs = sorted(set(parent_runs.get(workload, {})) &
                       set(change_runs.get(workload, {})))
        if len(pairs) < MIN_PAIRS:
            raise ValueError(f"{workload}: {len(pairs)} pairs, need {MIN_PAIRS}")
        p_runs = [parent_runs[workload][i] for i in pairs]
        c_runs = [change_runs[workload][i] for i in pairs]
        if not all(r["correct"] for r in c_runs):
            rows.append((workload, "correct", "regressed", None))
        more_failures = (sum(r["failed"] for r in c_runs) >
                         sum(r["failed"] for r in p_runs))
        for m in metrics:
            name = m["name"]
            try:
                pv = [r["metrics"][name]["value"] for r in p_runs]
                cv = [r["metrics"][name]["value"] for r in c_runs]
            except KeyError:
                raise ValueError(f"{workload}: a run lacks metric {name}")
            v, stats = verdict(pv, cv, m["better"], m["bound"], more_failures)
            rows.append((workload, name, v, stats))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Compare gs_bench runs of a parent and a change.")
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args(argv)
    try:
        with open(args.benchmark) as f:
            benchmark = json.load(f)
        rows = compare(load_runs(args.parent_dir), load_runs(args.change_dir),
                       benchmark)
    except (OSError, ValueError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2

    def fmt(t):
        return f"{t[0]:.6g} [{t[1]:.5g}, {t[2]:.5g}]"

    print(f"{'workload':12} {'metric':18} {'verdict':10} "
          f"{'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'wins':>7} {'gain':>8}")
    for workload, name, v, s in rows:
        if s is None:
            print(f"{workload:12} {name:18} {v:10}")
            continue
        print(f"{workload:12} {name:18} {v:10} {fmt(s['parent']):>36} "
              f"{fmt(s['change']):>36} {s['wins']:>3}/{s['pairs']:<3} "
              f"{-100 * s['worse_by']:+7.2f}%")
    return 1 if any(v == "regressed" for _, _, v, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
