#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per (metric, workload).

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --repeatability SET1_DIR SET2_DIR

Each directory holds run records written by `run.py --out FILE` (JSON
with workload, seed, trace and the metrics). Untraced runs give the
end-to-end rows, traced runs the per-layer rows. For every row it prints
each side's run count, median and quartiles, the change in the median,
and a verdict:

  worse       the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  better      the change wins at least 9 in 10 of at least ten pairs
              (runs paired by seed; ties count for neither) and the
              medians differ by more than the parent's quartile spread
  unresolved  neither, and a side's spread (quartile distance over the
              median) is wider than the bound, unless every change run
              reads better than every parent run
  unchanged   otherwise

Per-layer metrics have no bound: they read better, worse (the same pair
rule, mirrored) or "no claim". The last line counts the verdicts.

--repeatability checks two sets of runs of one commit against each
other instead: on every end-to-end row the medians must agree within the
bound. It also prints each side's spread and marks a spread wider than
the bound, which on ten runs with different seeds (except for setup_s)
would make the benchmark too noisy to gate on. Exits 1 when a median
disagrees.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if not record.get("correct", False) or record.get("failed", 1) != 0:
            print(f"note: {path} has correct={record.get('correct')} "
                  f"failed={record.get('failed')}", file=sys.stderr)
        runs.append(record)
    return runs


def values(runs, workload, metric, trace):
    """[(seed, value)] of one metric on one workload, in file order."""
    return [(run["seed"], run["metrics"][metric]["value"]) for run in runs
            if run["workload"] == workload and run["trace"] == trace
            and metric in run["metrics"]]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def spread(xs):
    q1, median, q3 = quartiles(xs)
    return (q3 - q1) / abs(median) if median else float("inf")


def pairs_by_seed(a, b):
    """The k-th run of a seed on one side against its k-th run on the
    other."""
    left, right = {}, {}
    for seed, value in a:
        left.setdefault(seed, []).append(value)
    for seed, value in b:
        right.setdefault(seed, []).append(value)
    return [pair for seed in sorted(set(left) & set(right))
            for pair in zip(left[seed], right[seed])]


def verdict(metric, a, b):
    """(verdict, pairs won by the change, pairs)."""
    lower = metric["better"] == "lower"
    xs, ys = [v for _, v in a], [v for _, v in b]
    q1a, ma, q3a = quartiles(xs)
    mb = quartiles(ys)[1]
    pairs = pairs_by_seed(a, b)
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    losses = sum((y > x) if lower else (y < x) for x, y in pairs)
    shown = abs(mb - ma) > q3a - q1a
    won = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and shown
    lost = len(pairs) >= 10 and losses >= 0.9 * len(pairs) and shown
    if "bound" not in metric:
        return ("better" if won else "worse" if lost else "no claim",
                wins, len(pairs))
    worse_by = ((mb - ma) if lower else (ma - mb)) / abs(ma) if ma else 0
    beats_all = max(ys) < min(xs) if lower else min(ys) > max(xs)
    if worse_by > metric["bound"]:
        label = "worse"
    elif won:
        label = "better"
    elif max(spread(xs), spread(ys)) > metric["bound"] and not beats_all:
        label = "unresolved"
    else:
        label = "unchanged"
    return label, wins, len(pairs)


def fmt(x):
    return f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="parent runs (or the first set)")
    parser.add_argument("b", help="change runs (or the second set)")
    parser.add_argument("--repeatability", action="store_true")
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    metrics = [(m, 0) for m in spec["end_to_end"]]
    if not args.repeatability:
        metrics += [(m, 1) for m in spec["per_layer"]]

    print(f"{'metric':30} {'workload':15} {'nA':>3} {'median A':>12} "
          f"{'q1..q3 A':>25} {'nB':>3} {'median B':>12} "
          f"{'q1..q3 B':>25} {'change':>8}  verdict")
    failures = 0
    tally = {}
    for metric, trace in metrics:
        for workload in (w["name"] for w in spec["workloads"]):
            a = values(runs_a, workload, metric["name"], trace)
            b = values(runs_b, workload, metric["name"], trace)
            if not a or not b:
                continue
            xs, ys = [v for _, v in a], [v for _, v in b]
            q1a, ma, q3a = quartiles(xs)
            q1b, mb, q3b = quartiles(ys)
            change = (mb - ma) / abs(ma) if ma else 0.0
            if args.repeatability:
                bound = metric["bound"]
                spreads = (spread(xs), spread(ys))
                ok = abs(change) <= bound
                failures += not ok
                noisy = metric["name"] != "setup_s" and max(spreads) > bound
                label = (f"{'ok' if ok else 'FAIL'} (spreads "
                         f"{spreads[0]:.3f}/{spreads[1]:.3f}"
                         f"{' noisy' if noisy else ''}, bound {bound})")
            else:
                label, wins, pairs = verdict(metric, a, b)
                tally[label] = tally.get(label, 0) + 1
                label += f" (won {wins}/{pairs} pairs)"
            print(f"{metric['name']:30} {workload:15} {len(xs):>3} "
                  f"{fmt(ma):>12} {fmt(q1a) + '..' + fmt(q3a):>25} "
                  f"{len(ys):>3} {fmt(mb):>12} "
                  f"{fmt(q1b) + '..' + fmt(q3b):>25} {change:>+8.2%}  {label}")
    if args.repeatability:
        print(f"{failures} row(s) fail the repeatability check")
        sys.exit(1 if failures else 0)
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))


if __name__ == "__main__":
    main()
