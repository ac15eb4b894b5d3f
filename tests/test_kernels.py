"""Hot kernels against big-int oracles.  The uint32 ring kernels are checked
at the most wraps, on int64 and list operands and on empty ones.  The MAC
fold is checked at the edges of its float64 limbs: the limb width chosen per
fold length, the 2^11-term exact block, the most negative ring word against
all-(q-1) tags, all-maximal limbs against odd words, extreme secrets, empty
operands and the cached power limbs across secrets, lengths and widths.

MAC operands are what the callers pass: ``mac.lift`` of uint32 ring words
(their signed int32 view); tags are residues in [0, q).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from securepim import kernels, mac, ring
from securepim.errors import DimensionError

from conftest import rand_words

EDGE = 1 << 11  # terms per exact float64 block: 2^11 * 2^11 * 2^31 <= 2^53
MIN_WORD = 1 << 31  # lifts to -2^31


def horner(col, s):
    acc = 0
    for v in col:
        acc = (acc + int(v)) * s % mac.Q
    return acc


def horner_columns(lifted, s):
    return [horner(lifted[:, j], s) for j in range(lifted.shape[1])]


def dot(tags, lifted):
    return sum(int(t) * int(v) for t, v in zip(tags, lifted)) % mac.Q


def ring_gemv(W, x):
    """Big-int W @ x mod 2^32 over any Python ints, negatives included."""
    return [sum(int(w) * int(v) for w, v in zip(row, x)) & ring.MASK for row in W]


def ring_embedding(table, ids, ws):
    """Big-int weighted gather-reduce mod 2^32, one list per row of ids."""
    return [[sum(int(w) * int(table[i][c]) for i, w in zip(bag, bag_ws))
             & ring.MASK for c in range(len(table[0]))]
            for bag, bag_ws in zip(ids, ws)]


def rand_residues(rng, shape):
    return np.asarray(rng.integers(0, mac.Q, size=shape), dtype=np.uint64)


def rand_lifted(rng, shape):
    return mac.lift(rand_words(rng, shape))


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1,
                                                          max_value=9),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_gemv_t_partials_match_bigint_oracle(m, rows, seed):
    """One partial per block of ``rows`` rows, the last one shorter when
    ``rows`` does not divide m (or past m: one block)."""
    rng = np.random.default_rng(seed)
    X = rand_words(rng, (m, 3))
    e = rand_words(rng, m)
    starts = range(0, m, rows)
    expect = [[(sum(int(X[i, j]) * int(e[i]) for i in range(b, min(b + rows, m)))
                & ring.MASK) for j in range(3)] for b in starts]
    got = kernels.gemv_t(X, e, rows=rows)
    assert got.dtype == np.uint32
    assert got.tolist() == expect


@pytest.mark.parametrize("m, rows", [(0, 1), (4, 1), (4, 2), (5, 2), (5, 9)])
def test_gemv_t_partials_at_the_most_wraps(m, rows):
    """All-0xFFFFFFFF operands: the partials sum to the whole product, and
    an empty matrix has no partials."""
    full = np.uint32(ring.MASK)
    W, e = np.full((m, 6), full), np.full(m, full)
    got = kernels.gemv_t(W, e, rows=rows)
    assert got.shape == (-(-m // rows), 6)
    assert got.sum(axis=0, dtype=np.uint32).tolist() == \
        kernels.gemv_t(W, e).tolist()


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1)])
def test_gemv_t_partials_keep_the_shape_rule(shape):
    with pytest.raises(DimensionError):
        kernels.gemv_t(np.zeros((4, 2), dtype=np.uint32),
                       np.ones(shape, dtype=np.uint32), rows=2)


def test_embedding_matches_bigint_oracle():
    rng = np.random.default_rng(42)
    table = rand_words(rng, (32, 8))
    ids = np.asarray(rng.integers(0, 32, size=(3, 4)), dtype=np.int64)
    ws = rand_words(rng, (3, 4))
    expect = ring_embedding(table, ids, ws)
    assert kernels.embedding(table, ids, ws).tolist() == expect


def ring_kernel_cases(W, x, e, table, ids, ws):
    """(kernel result, big-int oracle) for gemv, gemv_t and embedding."""
    Wt = [list(col) for col in zip(*np.asarray(W).tolist())]
    return [(kernels.gemv(W, x), ring_gemv(np.asarray(W).tolist(), x)),
            (kernels.gemv_t(W, e), ring_gemv(Wt, e)),
            (kernels.embedding(table, ids, ws),
             ring_embedding(np.asarray(table).tolist(), ids, ws))]


@pytest.mark.parametrize("m, n", [(1, 1), (7, 5), (64, 384)])
def test_ring_kernels_at_the_most_wraps(m, n):
    """All-0xFFFFFFFF operands: every product and every partial sum wraps."""
    full = np.uint32(ring.MASK)
    W = np.full((m, n), full)
    table = np.full((4 * m, n), full)
    ids = np.arange(4 * m)[::-1].reshape(m, 4)
    cases = ring_kernel_cases(W, np.full(n, full), np.full(m, full), table, ids,
                              np.full((m, 4), full))
    for got, want in cases:
        assert got.dtype == np.uint32
        assert got.tolist() == want


@pytest.mark.parametrize("as_list", [False, True], ids=["int64", "list"])
def test_ring_kernels_wrap_other_integer_inputs(as_list):
    """int64 operands, negatives and words above 2^32 among them, and Python
    lists of them give the words their uint32 wraps give."""
    rng = np.random.default_rng(9)
    W, table, ws = (rng.integers(-(1 << 40), 1 << 40, size=shape)
                    for shape in [(6, 5), (10, 3), (2, 4)])
    ids = rng.integers(0, 10, size=(2, 4))

    def cases(cast):
        return ring_kernel_cases(cast(W), cast(W[0]), cast(W[:, 0]), cast(table),
                                 ids, cast(ws))

    given = cases(np.ndarray.tolist if as_list else lambda a: a)
    for (got, want), (from_words, _) in zip(given,
                                            cases(lambda a: a.astype(np.uint32))):
        assert got.dtype == np.uint32
        assert got.tolist() == want == from_words.tolist()


def test_ring_kernels_on_zero_size_operands():
    z = np.zeros
    ids = np.zeros((2, 4), dtype=np.int64)
    for got, shape in [(kernels.gemv(z((0, 5), np.uint32), z(5, np.uint32)), (0,)),
                       (kernels.gemv(z((4, 0), np.uint32), z(0, np.uint32)), (4,)),
                       (kernels.gemv_t(z((0, 5), np.uint32), z(0, np.uint32)), (5,)),
                       (kernels.gemv_t(z((4, 0), np.uint32), z(4, np.uint32)), (0,)),
                       (kernels.embedding(z((3, 8), np.uint32), ids[:0],
                                          z((0, 4), np.uint32)), (0, 8)),
                       (kernels.embedding(z((3, 0), np.uint32), ids,
                                          z((2, 4), np.uint32)), (2, 0))]:
        assert got.dtype == np.uint32 and got.shape == shape
        assert not got.any()


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
    lifted = rand_lifted(rng, (9, 6))
    s = int(rng.integers(1, mac.Q))
    expect = horner_columns(lifted, s)
    assert kernels.tag_columns(lifted, s).tolist() == expect
    assert kernels.poly_hash(lifted[:, 0], s) == expect[0]


def test_dot_tags_no_overflow_at_width_64():
    rng = np.random.default_rng(0)
    tags = rand_residues(rng, 64)
    x = rand_lifted(rng, 64)
    assert kernels.dot_tags(tags, x) == dot(tags, x)


@pytest.mark.parametrize("m", [1, 2, EDGE - 1, EDGE, EDGE + 1, 4096,
                               (1 << 14) - 1, 1 << 14, (1 << 14) + 1,
                               (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
def test_fold_lengths_across_block_edges(m):
    rng = np.random.default_rng(m)
    s = int(rng.integers(1, mac.Q))
    v = rand_lifted(rng, m)
    assert kernels.poly_hash(v, s) == horner(v, s)
    tags = rand_residues(rng, m)
    assert kernels.dot_tags(tags, v) == dot(tags, v)
    M = rand_lifted(rng, (m, 3))
    assert kernels.tag_columns(M, s).tolist() == horner_columns(M, s)


@pytest.mark.parametrize("s", [1, mac.Q - 1, 0x1234_5678_9ABC_DEF])
def test_all_max_residues_and_extreme_secrets(s):
    # the extreme ring words: -2^31 and 2^31 - 1 after the lift
    full = mac.lift(np.array([[MIN_WORD, MIN_WORD - 1]] * 4096, dtype=np.uint32))
    expect = horner_columns(full, s)
    assert kernels.tag_columns(full, s).tolist() == expect
    assert kernels.poly_hash(full[:, 0], s) == expect[0]
    tags = np.full(4096, mac.Q - 1, dtype=np.uint64)
    assert kernels.dot_tags(tags, full[:, 0]) == (4096 * (mac.Q - 1) * -(1 << 31)) % mac.Q
    assert kernels.dot_tags(tags, full[:, 1]) == dot(tags, full[:, 1])


@pytest.mark.parametrize("m", [EDGE, EDGE + 1, 1 << 16, (1 << 16) + 1])
def test_worst_case_fold_at_exact_block_edge(m):
    """Every term at the bound: -2^31 against all-(q-1) tags and s = q-1."""
    v = mac.lift(np.full(m, MIN_WORD, dtype=np.uint32))
    tags = np.full(m, mac.Q - 1, dtype=np.uint64)
    assert kernels.dot_tags(tags, v) == (m * (mac.Q - 1) * -(1 << 31)) % mac.Q
    expect = horner(v, mac.Q - 1)
    assert kernels.poly_hash(v, mac.Q - 1) == expect
    M = np.repeat(v[:, None], 2, axis=1)
    assert kernels.tag_columns(M, mac.Q - 1).tolist() == [expect, expect]


@pytest.mark.parametrize("m", [EDGE - 1, EDGE, EDGE + 1, 2 * EDGE - 1])
@pytest.mark.parametrize("word", [MIN_WORD - 1, MIN_WORD])
def test_all_max_limbs_sum_exactly(m, word):
    """Every limb 2^11 - 1 against the extreme words, 2^31 - 1 giving odd terms:
    a one-block sum just below 2^53, and 2 * EDGE - 1 terms whose sum a single
    float64 block could not hold."""
    v = mac.lift(np.full(m, word, dtype=np.uint32))
    limbs = np.full((6, m), (1 << 11) - 1, dtype=np.float64)
    want = m * ((1 << 11) - 1) * int(v[0])
    assert [a % mac.Q for a in kernels._limb_sums(v, limbs).tolist()] == [want % mac.Q] * 6


def test_zero_row_operands():
    empty = np.zeros((0, 5), dtype=np.int64)
    assert kernels.tag_columns(empty, 7).tolist() == [0] * 5
    assert kernels.poly_hash(np.zeros(0, dtype=np.int64), 7) == 0
    assert kernels.dot_tags(np.zeros(0, dtype=np.uint64),
                            np.zeros(0, dtype=np.int64)) == 0
    assert mac.gen_tags(np.zeros((0, 5), dtype=np.uint32), 7).residues.tolist() \
        == [0] * 5
    assert mac.hash_result(np.zeros(0, dtype=np.uint32), 7) == 0


def test_power_cache_reuse():
    rng = np.random.default_rng(3)
    s1, s2 = 0x0DEF_ACED_BEEF_123, 0x0123_4567_89AB_CDE
    for s, m in [(s1, 3), (s1, 100), (s1, 5), (s1, 100), (s2, 50), (s1, 7)]:
        M = rand_lifted(rng, (m, 2))
        assert kernels.tag_columns(M, s).tolist() == horner_columns(M, s)
        assert kernels.poly_hash(M[:, 1], s) == horner(M[:, 1], s)
        assert kernels._POWERS.s == s and kernels._POWERS.desc.size >= m


def test_limb_cache_follows_the_secret():
    """Cached limbs of every width belong to the current secret and power
    vector, even when the length or the width repeats."""
    rng = np.random.default_rng(5)
    s1, s2 = 0x0DEF_ACED_BEEF_123, 3
    steps = [(s1, 1), (s2, 1), (s1, 1), (s1, 64), (s2, 64), (s1, 64),
             (s1, 300), (s2, 300), (s2, 2), (s1, 2), (s2, 1),
             (s1, 16), (s1, 700), (s1, 16), (s1, 3000), (s1, 16), (s2, 16),
             (s2, 33), (s1, 16)]
    for s, m in steps:
        M = rand_lifted(rng, (m, 3))
        assert kernels.tag_columns(M, s).tolist() == horner_columns(M, s), (s, m)
        assert kernels.poly_hash(M[:, 0], s) == horner(M[:, 0], s), (s, m)
        cache = kernels._POWERS
        assert cache.s == s and kernels._width(m) in cache.limbs
        for w, limbs in cache.limbs.items():
            shifts = np.arange(0, 61, w, dtype=np.uint64)[:, None]
            assert limbs.shape == (shifts.size, cache.desc.size)
            assert ((limbs.astype(np.uint64) << shifts).sum(axis=0)
                    == cache.desc).all(), (s, m, w)


def test_width_is_the_widest_exact_one():
    """m * (2^w - 1) * 2^31 < 2^53 at the chosen width and not one bit wider."""
    for m in range(1, EDGE + 1):
        w = kernels._width(m)
        assert m * ((1 << w) - 1) << 31 < 1 << 53, m
        assert m * ((1 << w + 1) - 1) << 31 >= 1 << 53, m
    assert [kernels._width(m) for m in (EDGE + 1, 1 << 16)] == [11, 11]
    limb_counts = {m: -(-61 // kernels._width(m)) for m in (16, 32, 384, 768)}
    assert limb_counts == {16: 4, 32: 4, 384: 5, 768: 6}


@pytest.mark.parametrize("m", [1, 2, 3, 15, 16, 17, 31, 32, 33, 383, 384, 767,
                               768, 1023, 1024, 1025, EDGE - 1, EDGE, EDGE + 1])
def test_extreme_operands_at_every_width(m):
    """All -2^31 and all 2^31 - 1 against s = 1, q - 1 and a random secret,
    and all-maximal limbs of the chosen width summing exactly."""
    v = mac.lift(np.array([[MIN_WORD, MIN_WORD - 1]] * m, dtype=np.uint32))
    for s in (1, mac.Q - 1, int(np.random.default_rng(m).integers(1, mac.Q))):
        expect = horner_columns(v, s)
        assert kernels.tag_columns(v, s).tolist() == expect, s
        assert [kernels.poly_hash(v[:, j], s) for j in (0, 1)] == expect, s
    w = kernels._width(m)
    limbs = np.full((-(-61 // w), m), (1 << w) - 1, dtype=np.float64)
    for j in (0, 1):
        want = m * ((1 << w) - 1) * int(v[0, j]) % mac.Q
        assert [a % mac.Q for a in kernels._limb_sums(v[:, j], limbs).tolist()] \
            == [want] * limbs.shape[0]
