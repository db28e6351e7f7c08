#!/usr/bin/env python3
"""Compares two sets of benchmark runs, e.g. a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are directories (or files) of saved run outputs, as
`run.py --out DIR` writes them: each file is one run's standard output,
with its `# workload` and `# seed` lines and the result JSON as the
last line. Traced runs are ignored.

For every workload x end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles (statistics.quantiles, n=4), the relative
change of the medians, the pairs the change won, and a verdict:

  gain        the change wins at least 9/10 of the pairs (pairs matched
              by seed, else by order; ties count for neither side) and
              the medians differ by more than the parent's interquartile
              range
  regression  the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  a side's spread (IQR / median) is wider than the bound,
              and neither does every change run beat every parent run
              (with the gain rule met) nor lose to every one (with the
              median worse by more than the bound)
  unchanged   none of the above

Per workload it also compares failed_frac (failed / attempted over all
runs): a change that fails a larger share than its parent is a
regression. Exits 1 on any regression, 2 on unusable input, else 0.
Dependency-free: Python 3 standard library.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path):
    """{workload: [run, ...]} with run = {seed, attempted, failed,
    metrics{name: value}} for every untraced run under `path`."""
    path = Path(path)
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        if not f.is_file():
            continue
        lines = f.read_text(errors="replace").strip().split("\n")
        meta = {}
        for line in lines:
            if line.startswith("# "):
                parts = line[2:].split(" ", 1)
                if len(parts) == 2:
                    meta[parts[0]] = parts[1]
        try:
            result = json.loads(lines[-1])
        except ValueError:
            continue
        if meta.get("trace") == "1" or "workload" not in meta:
            continue
        runs.setdefault(meta["workload"], []).append({
            "seed": meta.get("seed"),
            "attempted": int(result.get("attempted", 0)),
            "failed": int(result.get("failed", 0)),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        })
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pair_up(parent, change):
    """Runs paired by seed when the seeds match, else by position."""
    by_seed = {r["seed"]: r for r in parent}
    if all(r["seed"] in by_seed for r in change) and len(by_seed) == len(parent):
        return [(by_seed[r["seed"]], r) for r in change]
    return list(zip(parent, change))


def verdict(p_vals, c_vals, pairs, better, bound):
    """Returns (verdict, relative worsening of the median, pairs won)."""
    sign = 1.0 if better == "lower" else -1.0

    def improves(c, p):  # change value c beats parent value p
        return sign * (p - c) > 0

    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    wins = sum(1 for p, c in pairs if improves(c, p))
    gain = (pairs and wins >= 0.9 * len(pairs)
            and abs(c_med - p_med) > (p_q3 - p_q1) and improves(c_med, p_med))
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = all(improves(c, p) for c in c_vals for p in p_vals)
    all_worse = all(improves(p, c) for c in c_vals for p in p_vals)
    if spread > bound:
        if all_better and gain:
            return "gain", worse, wins
        if all_worse and worse > bound:
            return "regression", worse, wins
        return "unresolved", worse, wins
    if worse > bound:
        return "regression", worse, wins
    if gain:
        return "gain", worse, wins
    return "unchanged", worse, wins


def compare(parent, change, bench, out=sys.stdout):
    """Prints the comparison table; returns the number of regressions."""
    regressions = 0
    fmt = "%-14s %-14s %12s %-25s %12s %-25s %8s %6s  %s\n"
    out.write(fmt % ("workload", "metric", "parent", "[q1, q3]", "change",
                     "[q1, q3]", "worse", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        pairs_runs = pair_up(p_runs, c_runs)
        for m in bench["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            c_vals = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            if not p_vals or not c_vals:
                out.write("%-14s %-14s missing on one side\n" % (workload, name))
                continue
            pairs = [(p["metrics"][name], c["metrics"][name])
                     for p, c in pairs_runs
                     if name in p["metrics"] and name in c["metrics"]]
            v, worse, wins = verdict(p_vals, c_vals, pairs, m["better"],
                                     m["bound"])
            regressions += v == "regression"
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            out.write(fmt % (workload, name, "%.6g" % pq[1],
                             "[%.6g, %.6g]" % (pq[0], pq[2]), "%.6g" % cq[1],
                             "[%.6g, %.6g]" % (cq[0], cq[2]),
                             "%+.1f%%" % (100 * worse),
                             "%d/%d" % (wins, len(pairs)), v))
        p_frac = (sum(r["failed"] for r in p_runs) /
                  max(1, sum(r["attempted"] for r in p_runs)))
        c_frac = (sum(r["failed"] for r in c_runs) /
                  max(1, sum(r["attempted"] for r in c_runs)))
        v = "regression" if c_frac > p_frac else "unchanged"
        regressions += v == "regression"
        out.write(fmt % (workload, "failed_frac", "%.6g" % p_frac, "",
                         "%.6g" % c_frac, "", "", "", v))
    return regressions


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not set(parent) & set(change):
        print("compare.py: no workload has runs on both sides", file=sys.stderr)
        return 2
    return 1 if compare(parent, change, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
