#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR [--benchmark FILE]

Each directory holds the records `run.py --save DIR` writes, one per run.
For every workload and metric the report gives each side's median and
quartiles (statistics.quantiles, n=4) over its runs, and the change of the
after-median against the before-median. End-to-end metrics are judged
against the bound in BENCHMARK.json:

  worse       the after-median is worse by more than the bound
  better      the after-median is better by more than the bound
  same        the medians differ by less than the bound
  unresolved  either side's quartile spread (q3 - q1, as a share of its
              median) is wider than the bound, and the runs of one side do
              not all read better than every run of the other

Per-layer metrics have no bound; their change is printed for reading only.
The metrics compared are the ones BENCHMARK.json lists (end_to_end for
untraced runs, per_layer for traced ones); a listed metric missing from any
run on either side is reported as MISSING. The share of failed operations
must be identical on both sides. Exits 1 when a metric is worse or missing,
a workload ran on one side only, a run failed its checks, or the failed
shares differ; 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """{(workload, trace): [result, ...]} from one directory of records."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        runs[(rec["workload"], int(rec["trace"]))].append(rec["result"])
    if not runs:
        sys.exit(f"compare: no run records in {directory}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def judge(before, after, bound, better):
    """Verdict and signed change (positive = worse) of after against before."""
    med_b = statistics.median(before)
    med_a = statistics.median(after)
    sign = 1 if better == "lower" else -1
    change = sign * (med_a - med_b) / abs(med_b) if med_b else 0.0
    if bound is None:
        return "", change
    if max(spread(before), spread(after)) > bound:
        # Too noisy to judge by medians, unless the runs separate.
        worse_a = [sign * v for v in after]
        worse_b = [sign * v for v in before]
        if max(worse_a) < min(worse_b):
            return "better", change
        if min(worse_a) > max(worse_b) and change > bound:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--benchmark",
                    default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    listed = {0: bench["end_to_end"], 1: bench["per_layer"]}

    before, after = load(args.before), load(args.after)
    bad = False
    for key in sorted(set(before) | set(after)):
        workload, trace = key
        kind = "per-layer (traced)" if trace else "end-to-end"
        print(f"\n== {workload}, {kind}: {len(before.get(key, []))} vs "
              f"{len(after.get(key, []))} runs")
        if key not in before or key not in after:
            bad = True
            print("   MISSING: run on one side only")
            continue
        b_runs, a_runs = before[key], after[key]
        shares = []
        for runs in (b_runs, a_runs):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append((failed, attempted))
        fb, ab = shares[0]
        fa, aa = shares[1]
        if fb * aa != fa * ab:
            bad = True
            print(f"   FAILED SHARE DIFFERS: {fb}/{ab} vs {fa}/{aa}")
        incorrect = sum(not r["correct"] for r in b_runs + a_runs)
        if incorrect:
            bad = True
            print(f"   {incorrect} run(s) failed their correctness checks")
        print(f"   {'metric':28} {'before median [q1, q3]':32} "
              f"{'after median [q1, q3]':32} {'change':>8}  verdict")
        for m in listed[trace]:
            name = m["name"]
            label = f"{name} ({m['unit']})"
            if any(name not in r["metrics"] for r in b_runs + a_runs):
                bad = True
                print(f"   {label:28} MISSING from a run")
                continue
            bv = [r["metrics"][name]["value"] for r in b_runs]
            av = [r["metrics"][name]["value"] for r in a_runs]
            verdict, change = judge(bv, av, m.get("bound"), m["better"])
            bad |= verdict == "worse"
            print(f"   {label:28} {fmt(bv):32} {fmt(av):32} "
                  f"{change * 100:+7.1f}%  {verdict}")
    print("\n(change: positive means worse, whatever the metric's direction)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
