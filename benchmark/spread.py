#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the comparison of two builds.

    python3 benchmark/spread.py spread [--runs 10] [WORKLOAD ...]
    python3 benchmark/spread.py compare [--pairs 10] PARENT_EXE CHANGE_EXE [WORKLOAD ...]

Every run is untraced and uses the default budget, BENCHMARK.json's
run_seconds.

`spread` runs benchmark/target/release/aiacc-benchmark once per seed
1..runs on each workload and prints, per end-to-end metric, the median, the
quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the interquartile range
as a share of the median, next to the metric's bound in BENCHMARK.json.

`compare` runs alternating pairs of two built executables (build each
commit's `benchmark/` first and copy its `target/release/aiacc-benchmark`),
switching which side runs first every pair and giving both sides the same
seed. Per metric it reports each side's median and quartiles, the pairs the
change won, and a verdict: a gain needs at least 9 wins in 10 and medians
further apart than the parent's interquartile range; a regression is a
median worse than the parent's by more than the bound; a metric whose
parent spread exceeds its bound is unresolved unless every change run beats
every parent run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(HERE, "target", "release", "aiacc-benchmark")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(exe, workload, seed):
    """One untraced run; returns its metrics as {name: value}."""
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
    result = json.loads(last)
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in args.workloads or [x["name"] for x in spec["workloads"]]:
        runs = [run(EXE, w, seed) for seed in range(1, args.runs + 1)]
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            q1, med, q3 = quartiles(vals)
            print(f"{w}\t{name}\tmedian {med:.6g}\tq1 {q1:.6g}\tq3 {q3:.6g}\t"
                  f"iqr/median {(q3 - q1) / med:.4f}\tbound {bound}", flush=True)


def compare(args, spec):
    metrics = spec["end_to_end"]
    for w in args.workloads or [x["name"] for x in spec["workloads"]]:
        parent, change = [], []
        for i in range(args.pairs):
            seed = i + 1
            order = [(parent, args.parent), (change, args.change)]
            for side, exe in order if i % 2 == 0 else reversed(order):
                side.append(run(exe, w, seed))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            p = [r[name] for r in parent]
            c = [r[name] for r in change]
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            wins = sum(better(b, a) for a, b in zip(p, c))
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
            if wins >= 0.9 * len(p) and abs(cm - pm) > p3 - p1:
                verdict = "gain"
            elif (p3 - p1) / pm > bound and not all(better(x, y) for x in c for y in p):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "regression"
            else:
                verdict = "no regression"
            print(f"{w}\t{name}\tparent {pm:.6g} [{p1:.6g}, {p3:.6g}]\t"
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]\twins {wins}/{len(p)}\t{verdict}",
                  flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("workloads", nargs="*")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = load_spec()
    (spread if args.mode == "spread" else compare)(args, spec)


if __name__ == "__main__":
    main()
