#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit and a change.

Record both sides (alternating which one runs first on each seed):

    python3 perfbench/compare.py record --parent DIR --change DIR --out OUT \\
        [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--seconds S]

DIR is a checkout holding BENCHMARK.json and perfbench/. Results land in
OUT/parent.jsonl and OUT/change.jsonl, one line per run; record appends, so
run it once with --trace 0 and once with --trace 1. Then:

    python3 perfbench/compare.py diff OUT/parent.jsonl OUT/change.jsonl

prints, per workload, every end-to-end metric's median and quartiles on both
sides, the change's delta and a verdict against the metric's bound in
BENCHMARK.json, followed by the per-layer medians and deltas.

Verdicts: REGRESSION (worse by more than the bound), GAIN (better on at
least 9 of 10 seed pairs, by more than the parent's own spread), unresolved
(the parent's spread is wider than the bound, and not every change run
beats every parent run), ok (none of these).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sides = [("parent", Path(args.parent)), ("change", Path(args.change))]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for side, checkout in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=checkout, text=True,
                                      stdout=subprocess.PIPE)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{side} {workload} seed {seed}: run failed")
                row = {"workload": workload, "seed": seed,
                       "trace": args.trace, "result": json.loads(lines[-1])}
                with open(out / f"{side}.jsonl", "a") as f:
                    f.write(json.dumps(row) + "\n")
                print(f"{side} {workload} seed {seed} trace {args.trace}: "
                      f"correct={row['result']['correct']}")


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        runs.setdefault((row["workload"], row["trace"]), {})[row["seed"]] = (
            row["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cell(q):
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def worse_by(parent, change, better):
    """Relative worsening of change against parent (negative = better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(metric, parent_runs, change_runs):
    seeds = sorted(set(parent_runs) & set(change_runs))
    par = [parent_runs[s] for s in seeds]
    chg = [change_runs[s] for s in seeds]
    pq1, pmed, pq3 = quartiles(par)
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    worse = worse_by(pmed, statistics.median(chg), metric["better"])
    wins = sum(1 for p, c in zip(par, chg)
               if worse_by(p, c, metric["better"]) < 0)
    ties = sum(1 for p, c in zip(par, chg) if p == c)
    if metric["better"] == "lower":
        all_better = max(chg) < min(par)
    else:
        all_better = min(chg) > max(par)
    if spread > metric["bound"]:
        return "GAIN" if all_better else "unresolved"
    if worse > metric["bound"]:
        return "REGRESSION"
    decided = len(seeds) - ties
    if decided and wins >= 0.9 * decided and -worse > spread:
        return "GAIN"
    return "ok"


def metric_values(runs, name):
    return {seed: r["metrics"][name]["value"] for seed, r in runs.items()
            if r["correct"] and name in r["metrics"]}


def diff(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    for w in spec["workloads"]:
        name = w["name"]
        par, chg = parent.get((name, 0), {}), change.get((name, 0), {})
        bad = [s for runs in (par, chg) for s, r in runs.items()
               if not r["correct"]]
        print(f"\n== {name}: {len(par)} parent runs, {len(chg)} change runs"
              f"{', INCORRECT seeds ' + str(sorted(set(bad))) if bad else ''}")
        if par and chg:
            print(f"  {'metric':18s} {'unit':8s} {'parent med [q1, q3]':32s} "
                  f"{'change med [q1, q3]':32s} {'delta':>8s} {'bound':>6s}"
                  f"  verdict")
            for m in spec["end_to_end"]:
                pv = metric_values(par, m["name"])
                cv = metric_values(chg, m["name"])
                if not pv or not cv:
                    continue
                pq = quartiles(list(pv.values()))
                cq = quartiles(list(cv.values()))
                delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
                print(f"  {m['name']:18s} {m['unit']:8s} {cell(pq):32s} "
                      f"{cell(cq):32s} {100 * delta:+7.1f}% "
                      f"{100 * m['bound']:5.0f}%  {verdict(m, pv, cv)}")
        tpar, tchg = parent.get((name, 1), {}), change.get((name, 1), {})
        if tpar and tchg:
            print(f"  per layer ({len(tpar)} / {len(tchg)} traced runs, "
                  f"medians):")
            for m in spec["per_layer"]:
                pv = list(metric_values(tpar, m["name"]).values())
                cv = list(metric_values(tchg, m["name"]).values())
                if not pv or not cv:
                    continue
                p, c = statistics.median(pv), statistics.median(cv)
                delta = f"{100 * (c - p) / abs(p):+7.1f}%" if p else (
                    "      =" if c == p else "    new")
                print(f"    {m['name']:34s} {p:<12.5g} {c:<12.5g} {delta} "
                      f"({m['better']} is better)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run both checkouts, alternating")
    rec.add_argument("--parent", required=True)
    rec.add_argument("--change", required=True)
    rec.add_argument("--out", required=True)
    rec.add_argument("--workloads", default="")
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rec.add_argument("--seconds", type=int, default=0)
    dif = sub.add_parser("diff", help="print per-workload verdicts")
    dif.add_argument("parent")
    dif.add_argument("change")
    args = parser.parse_args()
    record(args) if args.command == "record" else diff(args)


if __name__ == "__main__":
    main()
