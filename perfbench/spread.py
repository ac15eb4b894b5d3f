#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Usage (from the repository root):
    python3 perfbench/spread.py [--workloads a,b] [--seeds 0-9] [--out f.json]

Runs ``perfbench/run.py --trace 0`` once per workload and seed, one after
another, and prints for each metric the median of the runs and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to a third of the metric's bound.  ``--out`` saves
every run's values with the summary.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed:\n{proc.stdout}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "python": platform.python_version(),
               "cpus": len(os.sched_getaffinity(0)), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        stats = {}
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            stats[m["name"]] = {"median": med, "q1": q[0], "q3": q[2],
                                "spread": (q[2] - q[0]) / med if med else None,
                                "bound": m["bound"], "values": vals}
            print(f"  {m['name']:<28} median {med:>12.6g}  spread "
                  f"{stats[m['name']]['spread']:.4f}  "
                  f"(bound/3 {m['bound'] / 3:.4f})", flush=True)
        summary["workloads"][workload] = stats
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
