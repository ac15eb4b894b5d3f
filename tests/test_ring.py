"""Ring arithmetic and Q12 fixed-point behavior.

Oracles: Python big-int arithmetic reduced mod 2^32 for ring ops, and exact
rational arithmetic (fractions) for fixed-point products.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from securepim import ring

words = st.integers(min_value=0, max_value=(1 << 32) - 1)


def test_add_small():
    assert ring.add(5, 3) == 8


def test_add_wraps():
    assert ring.add((1 << 32) - 1, 1) == 0


@given(words)
def test_add_identity(x):
    assert ring.add(x, 0) == x


@given(words, words, words)
def test_add_associative_commutative(a, b, c):
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.add(a, b) == ring.add(b, a)


@given(words, words)
def test_ring_ops_match_bigint_oracle(a, b):
    assert ring.add(a, b) == (a + b) % (1 << 32)


class TestFixedPoint:
    def test_encode_half(self):
        assert ring.fx_encode(0.5) == 2048

    def test_encode_one(self):
        assert ring.fx_encode(1.0) == 4096

    def test_encode_minus_one(self):
        assert ring.fx_encode(-1.0) == (1 << 32) - 4096

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ring.fx_encode(1 << 19)
        with pytest.raises(ValueError):
            ring.fx_encode(0.1)  # not a dyadic rational with denominator 2^12

    @given(st.integers(min_value=-(1 << 19) * 4096,
                       max_value=(1 << 19) * 4096 - 1))
    def test_round_trip_exact(self, raw_scaled):
        v = Fraction(raw_scaled, 4096)
        assert ring.fx_decode(ring.fx_encode(v)) == v

    def test_mul_trunc_quarter(self):
        assert ring.fx_mul_trunc(ring.fx_encode(0.5),
                                 ring.fx_encode(0.5)) == 1024

    @given(words)
    def test_mul_trunc_identity(self, x):
        assert ring.fx_mul_trunc(ring.fx_encode(1.0), x) == x

    def test_mul_trunc_negative(self):
        # -0.5 * 0.5 = -0.25 -> raw 2^32 - 1024, per the 64-bit signed oracle
        got = ring.fx_mul_trunc(ring.fx_encode(-0.5), ring.fx_encode(0.5))
        assert got == (1 << 32) - 1024

    @given(words, words)
    def test_mul_trunc_matches_int64_oracle(self, a, b):
        sa, sb = ring.to_signed(a), ring.to_signed(b)
        assert ring.fx_mul_trunc(a, b) == ((sa * sb) >> 12) % (1 << 32)

    @given(st.integers(min_value=-(1 << 18), max_value=(1 << 18)),
           st.integers(min_value=-(1 << 12), max_value=1 << 12))
    def test_mul_trunc_error_below_lsb(self, num_a, num_b):
        a, b = Fraction(num_a, 4096), Fraction(num_b, 4096)
        got = ring.fx_decode(ring.fx_mul_trunc(ring.fx_encode(a),
                                               ring.fx_encode(b)))
        assert abs(got - a * b) < Fraction(1, 4096)


class TestArrays:
    @given(st.lists(words, min_size=1, max_size=32))
    def test_trunc_array_matches_scalar(self, xs):
        arr = np.asarray(xs, dtype=np.uint32)
        expect = [ring.trunc(x) for x in xs]
        assert ring.trunc_array(arr).tolist() == expect

    @given(st.lists(words, min_size=1, max_size=32))
    def test_relu_zeroes_negatives(self, xs):
        arr = np.asarray(xs, dtype=np.uint32)
        out = ring.relu_array(arr)
        for x, y in zip(xs, out.tolist()):
            assert y == (x if ring.to_signed(x) > 0 else 0)

    def test_clamp_unit_is_piecewise(self):
        # 0 below -1/2, x + 1/2 between, 1 above 1/2 (Q12)
        cases = {
            ring.fx_encode(-1.0): 0,
            ring.fx_encode(-0.5): 0,
            ring.fx_encode(0.0): 2048,
            ring.fx_encode(0.25): 3072,
            ring.fx_encode(0.5): 4096,
            ring.fx_encode(1.0): 4096,
        }
        xs = np.asarray(list(cases), dtype=np.uint32)
        assert ring.clamp_unit_array(xs).tolist() == list(cases.values())
