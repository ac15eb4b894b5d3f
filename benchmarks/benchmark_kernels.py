#!/usr/bin/env python3
"""Time the hot kernels against pure-Python big-int references, and
garbling on the A2Y circuit.

Each numpy kernel in ``securepim.kernels`` is timed beside a plain Python
loop that computes the same result with unbounded integers (Horner's rule
for the MAC tag and hash), on the same operands, so the vectorization gain
stays visible.  The ``embedding`` row gathers 32 bags of 8 weighted rows
from a tall, narrow ``8n x 16`` table (at the default size, the 4096 x 16
DLRM embedding table).  MAC operands are the signed lift of random ring
words, as the callers pass them; the ``gen_tags`` row times ``mac.gen_tags``
on the raw words, lift included, and ``gen_tags_rows`` tags the rows of the
same table.  The references run once per repetition like the
kernels; both columns report the best of ``--repeat`` runs.

The garbling rows time ``garble`` and ``evaluate`` of the A2Y switch circuit
on batches of 1, 32, 64 and 256 scalars, best of ``--repeat``; each batch's
output bits are first checked against ``BoolCircuit.eval_plain``.  The
``prepare_switch`` row times the whole host side of one switch batch:
``garble`` plus unpacking the R and C words to bits and selecting their
input labels.

Usage:
    python benchmarks/benchmark_kernels.py [--size 512] [--repeat 20]
                                           [--json out.json]
"""

import argparse
import json
import sys
import time

import numpy as np

from securepim import kernels, mac, ring
from securepim.yao.circuit import word_to_bits
from securepim.yao.garble import evaluate, garble
from securepim.yao.switch import a2y_circuit, prepare_switch

MASK = (1 << 32) - 1
GC_BATCHES = (1, 32, 64, 256)
EMB_BATCH, EMB_PF = 32, 8  # the DLRM lookup: 32 bags of 8 weighted rows


def gemv_ref(W, x):
    return [sum(w * v for w, v in zip(row, x)) & MASK for row in W]


def gemv_t_ref(W, e):
    return gemv_ref([list(col) for col in zip(*W)], e)


def embedding_ref(table, ids, ws, batch, pf):
    return [[sum(ws[k * pf + j] * table[ids[k * pf + j]][c] for j in range(pf)) & MASK
             for c in range(len(table[0]))] for k in range(batch)]


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


def gen_tags_ref(W, s):
    return tag_columns_ref([[ring.to_signed(w) for w in row] for row in W], s)


def gen_tags_rows_ref(T, s):
    return gen_tags_ref([list(col) for col in zip(*T)], s)


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


def garbling_rows(repeat):
    """{"garble"|"evaluate"|"prepare_switch": {batch: best ms}} on the A2Y
    circuit."""
    circ = a2y_circuit()
    rows = {"garble": {}, "evaluate": {}, "prepare_switch": {}}
    for n in GC_BATCHES:
        rng = np.random.default_rng(n)
        r, c = rng.integers(0, 1 << 32, size=(2, n), dtype=np.uint32)
        seeds = list(range(n))
        gc, labels, _ot, _stats = prepare_switch(r, c, seeds)
        want = [circ.eval_plain(word_to_bits(int(a), 32), word_to_bits(int(b), 32))
                for a, b in zip(r, c)]
        if evaluate(gc, labels).tolist() != want:
            raise SystemExit(f"evaluate disagrees with eval_plain at batch {n}")
        rows["garble"][n] = bench(garble, (circ, seeds), repeat) * 1e3
        rows["evaluate"][n] = bench(evaluate, (gc, labels), repeat) * 1e3
        rows["prepare_switch"][n] = bench(prepare_switch, (r, c, seeds), repeat) * 1e3
    return rows


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
    table = rng.integers(0, 1 << 32, size=(8 * n, 16), dtype=np.uint32)
    ids = rng.integers(0, 8 * n, size=EMB_BATCH * EMB_PF)
    ws = rng.integers(0, 1 << 32, size=ids.size, dtype=np.uint32)
    lifted = mac.lift(W)
    vec = mac.lift(x)
    tags = np.asarray(rng.integers(0, mac.Q, size=n), dtype=np.uint64)
    s = 0x1234_5678_9ABC_DEF

    cases = [
        ("gemv", kernels.gemv, (W, x), gemv_ref),
        ("gemv_t", kernels.gemv_t, (W, x), gemv_t_ref),
        ("embedding", kernels.embedding, (table, ids, ws, EMB_BATCH, EMB_PF),
         embedding_ref),
        ("tag_columns", kernels.tag_columns, (lifted, s), tag_columns_ref),
        ("poly_hash", kernels.poly_hash, (vec, s), poly_hash_ref),
        ("dot_tags", kernels.dot_tags, (tags, vec), dot_tags_ref),
        ("gen_tags", lambda M, s: mac.gen_tags(M, s).residues, (W, s),
         gen_tags_ref),
        ("gen_tags_rows", lambda T, s: mac.gen_tags(T.T, s).residues,
         (table, s), gen_tags_rows_ref),
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

    results["garbling"] = garbling_rows(args.repeat)
    header = f"{'A2Y (ms)':<14}" + "".join(f"{f'batch {n}':>11}" for n in GC_BATCHES)
    print(f"\n{header}")
    print("-" * len(header))
    for name, row in results["garbling"].items():
        print(f"{name:<14}" + "".join(f"{row[n]:>11.3f}" for n in GC_BATCHES))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
