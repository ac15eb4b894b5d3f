#!/usr/bin/env python3
"""Time the hot kernels against pure-Python big-int references.

Each numpy kernel in ``securepim.kernels`` is timed beside a plain Python
loop that computes the same result with unbounded integers (Horner's rule
for the MAC tag and hash), on the same operands, so the vectorization gain
stays visible.  The references run once per repetition like the kernels;
both columns report the best of ``--repeat`` runs.

Usage:
    python benchmarks/benchmark_kernels.py [--size 512] [--repeat 20]
                                           [--json out.json]
"""

import argparse
import json
import sys
import time

import numpy as np

from securepim import kernels, mac

MASK = (1 << 32) - 1


def gemv_ref(W, x):
    return [sum(w * v for w, v in zip(row, x)) & MASK for row in W]


def gemv_t_ref(W, e):
    return gemv_ref([list(col) for col in zip(*W)], e)


def tag_columns_ref(M, s):
    acc = [0] * len(M[0])
    for row in M:
        acc = [(a + v) * s % mac.Q for a, v in zip(acc, row)]
    return acc


def poly_hash_ref(v, s):
    acc = 0
    for x in v:
        acc = (acc + x) * s % mac.Q
    return acc


def dot_tags_ref(tags, x):
    return sum(t * v for t, v in zip(tags, x)) % mac.Q


def bench(fn, args, repeat):
    fn(*args)  # warmup
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=512,
                    help="matrix dimension n for n x n operands")
    ap.add_argument("--repeat", type=int, default=20,
                    help="timed repetitions (best-of reported)")
    ap.add_argument("--json", help="also write results to this path")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(0)
    n = args.size
    W = rng.integers(0, 1 << 32, size=(n, n), dtype=np.uint32)
    x = rng.integers(0, 1 << 32, size=n, dtype=np.uint32)
    lifted = np.asarray(rng.integers(0, mac.Q, size=(n, n)), dtype=np.uint64)
    vec = np.ascontiguousarray(lifted[0])
    tags = np.asarray(rng.integers(0, mac.Q, size=n), dtype=np.uint64)
    s = 0x1234_5678_9ABC_DEF

    cases = [
        ("gemv", kernels.gemv, (W, x), gemv_ref),
        ("gemv_t", kernels.gemv_t, (W, x), gemv_t_ref),
        ("tag_columns", kernels.tag_columns, (lifted, s), tag_columns_ref),
        ("poly_hash", kernels.poly_hash, (vec, s), poly_hash_ref),
        ("dot_tags", kernels.dot_tags, (tags, vec), dot_tags_ref),
    ]

    results = {"size": n, "kernels": {}}
    header = f"{'kernel':<14}{'numpy (ms)':>12}{'python (ms)':>13}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, fn, operands, ref in cases:
        py_operands = tuple(a.tolist() if isinstance(a, np.ndarray) else a
                            for a in operands)
        got = fn(*operands)
        want = ref(*py_operands)
        if (got.tolist() if isinstance(got, np.ndarray) else got) != want:
            raise SystemExit(f"{name}: kernel disagrees with the reference")
        t_np = bench(fn, operands, args.repeat) * 1e3
        t_py = bench(ref, py_operands, args.repeat) * 1e3
        row = {"numpy_ms": t_np, "python_ms": t_py,
               "speedup": t_py / t_np}
        print(f"{name:<14}{t_np:>12.3f}{t_py:>13.3f}{row['speedup']:>10.1f}")
        results["kernels"][name] = row

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
