"""Hot kernels against big-int oracles, including the edges of the
power-vector MAC fold: block boundaries, all-(q-1) operands, extreme
secrets, empty operands and reuse of the cached power vector.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from securepim import kernels, mac, ring

from conftest import rand_words

BLOCK = kernels._BLOCK_TERMS


def horner(col, s):
    acc = 0
    for v in col:
        acc = (acc + int(v)) * s % mac.Q
    return acc


def horner_columns(lifted, s):
    return [horner(lifted[:, j], s) for j in range(lifted.shape[1])]


def rand_residues(rng, shape):
    return np.asarray(rng.integers(0, mac.Q, size=shape), dtype=np.uint64)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gemv_matches_bigint_oracle(seed):
    rng = np.random.default_rng(seed)
    W = rand_words(rng, (7, 5))
    x = rand_words(rng, 5)
    expect = [(sum(int(W[i, j]) * int(x[j]) for j in range(5))
               & ring.MASK) for i in range(7)]
    assert kernels.gemv(W, x).tolist() == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gemv_t_matches_bigint_oracle(seed):
    rng = np.random.default_rng(seed)
    X = rand_words(rng, (6, 4))
    e = rand_words(rng, 6)
    expect = [(sum(int(X[i, j]) * int(e[i]) for i in range(6))
               & ring.MASK) for j in range(4)]
    assert kernels.gemv_t(X, e).tolist() == expect


def test_embedding_matches_bigint_oracle():
    rng = np.random.default_rng(42)
    table = rand_words(rng, (32, 8))
    ids = np.asarray(rng.integers(0, 32, size=12), dtype=np.int64)
    ws = rand_words(rng, 12)
    expect = [[sum(int(ws[k * 4 + j]) * int(table[ids[k * 4 + j], c])
                   for j in range(4)) & ring.MASK for c in range(8)]
              for k in range(3)]
    assert kernels.embedding(table, ids, ws, 3, 4).tolist() == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mulmod61_matches_bigint(seed):
    rng = np.random.default_rng(seed)
    a = rand_residues(rng, 64)
    b = rand_residues(rng, 64)
    got = kernels.mulmod61(a, b)
    expect = [(int(x) * int(y)) % mac.Q for x, y in zip(a, b)]
    assert got.tolist() == expect


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tag_kernels_match_bigint(seed):
    rng = np.random.default_rng(seed)
    lifted = rand_residues(rng, (9, 6))
    s = int(rng.integers(1, mac.Q))
    expect = horner_columns(lifted, s)
    assert kernels.tag_columns(lifted, s).tolist() == expect
    v = np.ascontiguousarray(lifted[:, 0])
    assert kernels.poly_hash(v, s) == expect[0]


def test_dot_tags_no_overflow_at_width_64():
    rng = np.random.default_rng(0)
    tags = rand_residues(rng, 64)
    x = rand_residues(rng, 64)
    expect = sum(int(t) * int(v) for t, v in zip(tags, x)) % mac.Q
    assert kernels.dot_tags(tags, x) == expect


@pytest.mark.parametrize("m", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 4096])
def test_fold_lengths_across_block_edges(m):
    rng = np.random.default_rng(m)
    s = int(rng.integers(1, mac.Q))
    v = rand_residues(rng, m)
    assert kernels.poly_hash(v, s) == horner(v, s)
    w = rand_residues(rng, m)
    assert kernels.dot_tags(v, w) == \
        sum(int(a) * int(b) for a, b in zip(v, w)) % mac.Q
    # three columns move the row block edge to BLOCK // 3
    rows = min(m, BLOCK // 3 + 1)
    M = rand_residues(rng, (rows, 3))
    assert kernels.tag_columns(M, s).tolist() == horner_columns(M, s)


@pytest.mark.parametrize("s", [1, mac.Q - 1, 0x1234_5678_9ABC_DEF])
def test_all_max_residues_and_extreme_secrets(s):
    full = np.full((4096, 2), mac.Q - 1, dtype=np.uint64)
    expect = horner(full[:, 0], s)
    assert kernels.tag_columns(full, s).tolist() == [expect, expect]
    col = np.ascontiguousarray(full[:, 0])
    assert kernels.poly_hash(col, s) == expect
    assert kernels.dot_tags(col, col) == (4096 * (mac.Q - 1) ** 2) % mac.Q


def test_zero_row_operands():
    empty = np.zeros((0, 5), dtype=np.uint64)
    assert kernels.tag_columns(empty, 7).tolist() == [0] * 5
    assert kernels.poly_hash(np.zeros(0, dtype=np.uint64), 7) == 0
    assert kernels.dot_tags(np.zeros(0, dtype=np.uint64),
                            np.zeros(0, dtype=np.uint64)) == 0
    assert mac.gen_tags(np.zeros((0, 5), dtype=np.uint32), 7).residues.tolist() \
        == [0] * 5
    assert mac.hash_result(np.zeros(0, dtype=np.uint32), 7) == 0


def test_power_cache_reuse():
    rng = np.random.default_rng(3)
    s1, s2 = 0x0DEF_ACED_BEEF_123, 0x0123_4567_89AB_CDE
    for s, m in [(s1, 3), (s1, 100), (s1, 5), (s1, 100), (s2, 50), (s1, 7)]:
        M = rand_residues(rng, (m, 2))
        assert kernels.tag_columns(M, s).tolist() == horner_columns(M, s)
        v = np.ascontiguousarray(M[:, 1])
        assert kernels.poly_hash(v, s) == horner(v, s)
        assert kernels._POWERS.s == s and kernels._POWERS.desc.size >= m


def test_benchmark_script_smoke(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "benchmark_kernels.py"
    spec = importlib.util.spec_from_file_location("benchmark_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "kernels.json"
    assert bench.main(["--size", "16", "--repeat", "1", "--json", str(out)]) == 0
    assert "tag_columns" in capsys.readouterr().out
    rows = json.loads(out.read_text())["kernels"]
    assert set(rows) == {"gemv", "gemv_t", "tag_columns", "poly_hash", "dot_tags"}
    assert all(r["numpy_ms"] > 0 and r["python_ms"] > 0 for r in rows.values())
