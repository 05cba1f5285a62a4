#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 hlbench/spread.py --workload cluster-batch --seeds 1-5
    python3 hlbench/spread.py --workload cluster-batch --seeds 1-10 --against 11-20

Run it from the root of the checkout. The spread is (Q3 - Q1) / median over
the runs, with quartiles as statistics.quantiles(values, n=4) gives them; a
metric is steady when its spread stays below a third of its bound.

With --against, a second set of seeds runs interleaved with the first (one
seed of each set in turn), so drift of the host's speed falls on both sets
alike. Each set gets its own table, and a last table gives how much worse
the second set's median is than the first's, as a share of the first, for
comparison with the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
    res = json.loads(run.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} failed")
    print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
          flush=True)
    return {name: m["value"] for name, m in res["metrics"].items()}


def spread_table(title, runs, bounds):
    print(f"=== {title}")
    print(f"{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    medians = {}
    for name in sorted(runs[0]):
        xs = [r[name] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  UNSTEADY"
        print(f"{name:40s} {med:12.5g} {share:8.4f} {bound if bound is not None else '-':>6}{flag}")
        medians[name] = med
    return medians


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--against", help="a second seed range, run interleaved with the first")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = [seeds(args.seeds)] + ([seeds(args.against)] if args.against else [])
    runs = [[] for _ in sets]
    for i in range(max(len(s) for s in sets)):
        for k, s in enumerate(sets):
            if i < len(s):
                runs[k].append(run_once(spec, args.workload, s[i], args.trace))

    medians = [spread_table(f"seeds {spec_}", r, bounds) for spec_, r in zip([args.seeds, args.against], runs)]
    if len(medians) < 2:
        return
    print(f"=== second set's median worse than the first's, as a share of the first")
    print(f"{'metric':40s} {'worse':>8s} {'bound':>6s}")
    for name in sorted(medians[0]):
        a, b = medians[0][name], medians[1][name]
        worse = (b - a) / a if better.get(name) == "lower" else (a - b) / a
        bound = bounds.get(name)
        flag = "" if bound is None or worse <= bound else "  OUT OF BOUND"
        print(f"{name:40s} {worse:8.4f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
