#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

For every workload and end-to-end metric this prints the median of the
runs, the quartiles as statistics.quantiles(values, n=4) gives them, and
the spread: (Q3 - Q1) / median. Run from the root of a checkout:

    python3 perfbench/sweep.py --workloads whole-boxed,fpvmd-http --seeds 1-5
    python3 perfbench/sweep.py --seeds 101-110 --json .bench_build/set1.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["whole-boxed", "whole-mpfr", "fleet-sliced", "fpvmd-http"]


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else float("inf"), "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 101-110 or 1,3,7")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write every value and summary here")
    args = ap.parse_args()

    out = {}
    for w in args.workloads.split(","):
        runs, walls = [], []
        for seed in seed_list(args.seeds):
            line, wall = run_once(w, seed, args.seconds, args.trace)
            if not line["correct"]:
                raise SystemExit(f"{w} seed {seed}: correctness check failed")
            runs.append(line)
            walls.append(wall)
            print(f"{w} seed {seed}: {wall:.1f}s " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(line["metrics"].items())
                           if args.trace == 0), flush=True)
        out[w] = {"wall_s": walls, "metrics": {}}
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            s = summarise(vals)
            out[w]["metrics"][name] = s
            print(f"  {name:<18} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} q3 {s['q3']:<12.5g} "
                  f"spread {s['spread']:.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)


if __name__ == "__main__":
    main()
