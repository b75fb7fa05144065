#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW
    python3 perfbench/compare.py --spread RESULTS

A set of results is a directory of files named <workload>-<anything>.out,
each holding the standard output of one `perfbench/run.py --trace 0` run
(the last line is the result object). For every workload and end-to-end
metric in BENCHMARK.json it prints each side's median and quartiles
(statistics.quantiles, n=4) and a verdict:

  within      NEW's median is not worse than BASE's by more than the bound
  WORSE       NEW's median is worse than BASE's by more than the bound
  unresolved  one side's spread between runs (quartile distance over the
              median) is wider than the bound, so the difference cannot be
              told from noise

--spread prints one set's quartile spreads against the bounds (what a
steadiness check looks at) and the share of failed operations per run.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(directory, workloads):
    """{workload: [result objects]} for the .out files in `directory`."""
    out = {w: [] for w in workloads}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        name = os.path.basename(path)
        workload = next((w for w in workloads if name.startswith(w + "-")), None)
        if workload is None:
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        if lines:
            out[workload].append(json.loads(lines[-1]))
    return out


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(base, new, better):
    """Share by which `new` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base_values, new_values, metric):
    bound = metric["bound"]
    if max(spread(base_values), spread(new_values)) > bound:
        return "unresolved"
    worse = worsening(quartiles(base_values)[1], quartiles(new_values)[1],
                      metric["better"])
    return "WORSE" if worse > bound else "within"


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def compare(base_dir, new_dir):
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    base = load_results(base_dir, workloads)
    new = load_results(new_dir, workloads)
    worst = 0
    for w in workloads:
        print("%s: %d base run(s), %d new run(s)" % (w, len(base[w]), len(new[w])))
        if not base[w] or not new[w]:
            print("  (missing on one side)")
            continue
        for m in bench["end_to_end"]:
            b, n = values_of(base[w], m["name"]), values_of(new[w], m["name"])
            if not b or not n:
                continue
            v = verdict(b, n, m)
            worst = max(worst, {"within": 0, "unresolved": 1, "WORSE": 2}[v])
            bq, nq = quartiles(b), quartiles(n)
            print("  %-26s base %s  new %s  %+7.1f%%  %s (bound %g)"
                  % (m["name"], fmt(bq), fmt(nq),
                     100 * worsening(bq[1], nq[1], m["better"]), v, m["bound"]))
    return worst


def fmt(q):
    return "%.4g [%.4g..%.4g]" % (q[1], q[0], q[2])


def report_spread(directory):
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    results = load_results(directory, workloads)
    ok = True
    for w in workloads:
        runs = results[w]
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print("%s: %d run(s), correct %s, failed shares %s"
              % (w, len(runs), correct, shares))
        ok = ok and correct
        for m in bench["end_to_end"]:
            vals = values_of(runs, m["name"])
            if len(vals) < 2:
                continue
            s = spread(vals)
            flag = ""
            if s > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif s > m["bound"] / 3:
                flag = "  over a third of the bound"
            print("  %-26s median %-10.4g spread %6.3f  bound %.2f%s"
                  % (m["name"], quartiles(vals)[1], s, m["bound"], flag))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spread", metavar="RESULTS")
    parser.add_argument("sets", nargs="*", metavar="DIR")
    args = parser.parse_args()
    if args.spread:
        sys.exit(report_spread(args.spread))
    if len(args.sets) != 2:
        parser.error("give BASE and NEW result directories, or --spread DIR")
    sys.exit(1 if compare(*args.sets) == 2 else 0)


if __name__ == "__main__":
    main()
