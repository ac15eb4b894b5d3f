#!/usr/bin/env python3
"""securepim end-to-end benchmark launcher.

Usage (from the repository root):
    python3 perfbench/run.py --workload mlp_infer --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the workload runs in PARTS fresh processes one after
another (``worker.py``), each for ``--seconds / PARTS``, against the sources
in ``src/``; op times are pooled, and ``setup_s`` is the median of the
processes' set-ups.  Separate processes differ in speed by a few percent
(memory layout), so pooling them keeps the figures steady.  ``--trace 1``
runs one process, half untraced and half traced, and reports the
per-layer metrics.  The metrics are those of ``BENCHMARK.json``; the last
line of stdout is one JSON object, and the exit code is non-zero when any
check failed.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PARTS = 5
MIN_OPS = 100      # >= 10 samples beyond op_s_p90
RUN_LIMIT_S = 175  # the whole command must end within 180 s


def child(args, env, deadline):
    """Run worker.py with ``args``; returns its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(parts):
    op_s = [t for p in parts for t in p["op_s"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "op_s_p50": statistics.median(op_s),
        "op_s_p90": statistics.quantiles(op_s, n=10)[-1],
        "ops_per_s": (sum(p["attempted"] for p in parts)
                      / sum(p["busy_s"] for p in parts)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
        **{k: v for k, v in parts[0]["sim"].items()
           if k != "sim.gc_bytes_per_op"},
    }


def per_layer(part):
    tally = part["tally"]
    detected, benign, missed = (tally.get(k, 0)
                                for k in ("detected", "benign", "missed"))
    eligible = detected + missed   # trials minus benign ones
    return {
        **part["layers"],
        "adversary.detected": detected,
        "adversary.benign": benign,
        "adversary.missed": missed,
        "adversary.detect_frac": detected / eligible if eligible else 0.0,
        "failed_frac": part["failed"] / part["attempted"],
        "sim.gc_bytes_per_op": part["sim"]["sim.gc_bytes_per_op"],
    }


def main(argv=None):
    deadline = time.monotonic() + RUN_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        sys.stderr.write("error: --seed must be >= 0 and --seconds > 0\n")
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "securepim", "__init__.py")):
        sys.stderr.write(f"error: securepim sources not found under {src}\n")
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]
    if args.trace:
        plan = [(args.seconds, MIN_OPS)]
    else:
        plan = [(args.seconds / PARTS, -(-MIN_OPS // PARTS))] * PARTS
    try:
        parts = [child(common + ["--part", str(i), "--seconds", repr(secs),
                                 "--min-ops", str(ops)], env, deadline)
                 for i, (secs, ops) in enumerate(plan)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    metrics = per_layer(parts[0]) if args.trace else end_to_end(parts)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"error: worker did not report {missing}\n")
        return 1
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    correct = all(p["correct"] for p in parts)
    tally = collections.Counter()
    for p in parts:
        tally.update(p["tally"])
        for problem in p["problems"]:
            print(f"FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed} tally={dict(tally)} "
          f"(model unvalidated, no reference results)")
    for m in wanted:
        print(f"{m['name']:<28} {metrics[m['name']]:>16.6g} {m['unit']:<6} "
              f"{m['better']} is better")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
