"""Linear modular hashing tags: generation, the homomorphic tag kernel,
result hashing, verification, and sealed storage.

Oracle: direct polynomial evaluation with Python big ints.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from securepim import kernels, mac, ring
from securepim.errors import DimensionError

from conftest import ctx


def poly_oracle(values, s, q):
    """Sum of v_i * s^(m-i) for i in 0..m-1, exponents m..1."""
    m = len(values)
    return sum(ring.to_signed(int(v)) * pow(s, m - i, q)
               for i, v in enumerate(values)) % q


def tags_oracle(matrix, s, q):
    return [poly_oracle(matrix[:, j], s, q) for j in range(matrix.shape[1])]


class TestGenTags:
    def test_hand_instance(self):
        W = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)
        tags = mac.gen_tags(W, s=10, q=97)
        # col 0: 1*100 + 3*10 = 130 = 33 mod 97; col 1: 2*100 + 4*10 = 240 = 46
        assert tags.residues.tolist() == [33, 46]

    def test_zero_matrix(self):
        tags = mac.gen_tags(np.zeros((5, 3), dtype=np.uint32), s=12345)
        assert not tags.residues.any()

    def test_1x1_single_term(self):
        tags = mac.gen_tags(np.asarray([[7]], dtype=np.uint32), s=10, q=97)
        assert tags.residues.tolist() == [7 * 10 % 97]

    def test_transpose_tags_the_rows(self):
        rng = np.random.default_rng(0)
        M = rng.integers(0, 1 << 32, size=(6, 4), dtype=np.uint32)
        s = 123456789
        rows = mac.gen_tags(M.T, s)
        assert rows.residues.tolist() == [poly_oracle(row, s, mac.Q)
                                          for row in M]
        assert np.array_equal(
            rows.residues, mac.gen_tags(np.ascontiguousarray(M.T), s).residues)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12))
    def test_matches_polynomial_oracle(self, seed, m, n):
        rng = np.random.default_rng(seed)
        M = rng.integers(0, 1 << 32, size=(m, n), dtype=np.uint32)
        s = int(rng.integers(1, mac.Q - 1))
        tags = mac.gen_tags(M, s)
        assert tags.residues.tolist() == tags_oracle(M, s, mac.Q)
        assert (tags.residues < mac.Q).all()


class TestTagKernel:
    def test_hand_instance(self):
        W = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)
        tags = mac.gen_tags(W, s=10, q=97)
        assert mac.tag_kernel_gemv(tags, np.asarray([1, 1], dtype=np.uint32)) == 79

    def test_zero_vector(self):
        tags = mac.gen_tags(np.ones((4, 4), dtype=np.uint32), s=99)
        assert mac.tag_kernel_gemv(tags, np.zeros(4, dtype=np.uint32)) == 0

    def test_unit_vector_selects_tag(self):
        rng = np.random.default_rng(3)
        M = rng.integers(0, 1 << 32, size=(4, 4), dtype=np.uint32)
        tags = mac.gen_tags(M, s=987654321)
        for j in range(4):
            e = np.zeros(4, dtype=np.uint32)
            e[j] = 1
            assert mac.tag_kernel_gemv(tags, e) == tags.residues[j]

    def test_dimension_mismatch(self):
        tags = mac.gen_tags(np.ones((2, 2), dtype=np.uint32), s=5)
        with pytest.raises(DimensionError):
            mac.tag_kernel_gemv(tags, np.zeros(3, dtype=np.uint32))


class TestHashResult:
    def test_hand_instance(self):
        # y = W·x for the instance above; its hash equals the tag kernel value
        assert mac.hash_result(np.asarray([3, 7], dtype=np.uint32),
                               s=10, q=97) == 79

    def test_zero(self):
        assert mac.hash_result(np.zeros(9, dtype=np.uint32), s=42) == 0

    def test_single_word(self):
        assert mac.hash_result(np.asarray([1], dtype=np.uint32),
                               s=10, q=97) == 10


class TestLift:
    def test_zero_copy_signed_view(self):
        rng = np.random.default_rng(9)
        words = rng.integers(0, 1 << 32, size=(5, 7), dtype=np.uint32)
        words[0, :2] = [1 << 31, (1 << 31) - 1]
        # row tags lift the transpose; a strided slice is not contiguous either
        for view in (words, words.T, words[:, ::2]):
            lifted = mac.lift(view)
            assert np.shares_memory(lifted, view)
            assert lifted.shape == view.shape
            assert np.array_equal(lifted, ring.to_signed_array(view))

    def test_kernels_fold_an_int64_lift_alike(self):
        rng = np.random.default_rng(10)
        words = rng.integers(0, 1 << 32, size=(40, 3), dtype=np.uint32)
        tags = np.asarray(rng.integers(0, mac.Q, size=40), dtype=np.uint64)
        s = int(rng.integers(1, mac.Q))
        narrow, wide = mac.lift(words), ring.to_signed_array(words)
        assert wide.dtype == np.int64
        assert (kernels.tag_columns(narrow, s).tolist()
                == kernels.tag_columns(wide, s).tolist()
                == tags_oracle(words, s, mac.Q))
        assert (kernels.poly_hash(narrow[:, 0], s) == kernels.poly_hash(wide[:, 0], s)
                == poly_oracle(words[:, 0], s, mac.Q))
        assert kernels.dot_tags(tags, narrow[:, 1]) == kernels.dot_tags(tags, wide[:, 1])


class TestVerify:
    def test_equal_passes(self):
        assert mac.verify(79, 79)

    def test_unequal_fails(self):
        assert not mac.verify(79, 80)


class TestHomomorphism:
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_tag_kernel_equals_hash_of_product(self, seed):
        """FTag_e == FTag_r for magnitude-bounded instances (no 2^32 wrap)."""
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        W = (rng.integers(-512, 512, size=(m, n)) & ring.MASK).astype(np.uint32)
        x = (rng.integers(-1024, 1024, size=n) & ring.MASK).astype(np.uint32)
        s = int(rng.integers(1, mac.Q - 1))
        tags = mac.gen_tags(W, s)
        y = (ring.to_signed_array(W).reshape(m, n)
             @ ring.to_signed_array(x) & ring.MASK).astype(np.uint32)
        assert mac.tag_kernel_gemv(tags, x) == mac.hash_result(y, s)

    def test_negative_operands(self):
        W = np.asarray([[ring.fx_encode(-0.5), 3]], dtype=np.uint32)
        x = np.asarray([2, ring.fx_encode(-1.0)], dtype=np.uint32)
        s = 555
        y = ((ring.to_signed_array(W).reshape(1, 2)
              @ ring.to_signed_array(x)) & ring.MASK).astype(np.uint32)
        assert mac.tag_kernel_gemv(mac.gen_tags(W, s), x) == mac.hash_result(y, s)


class TestSealedStorage:
    def test_round_trip(self, ks):
        rng = np.random.default_rng(5)
        M = rng.integers(0, 1 << 32, size=(8, 8), dtype=np.uint32)
        tags = mac.gen_tags(M, s=31337)
        c = ctx()
        sealed = mac.seal_tags(tags, c, ks)
        opened = mac.open_tags(sealed, c, ks)
        assert np.array_equal(opened.residues, tags.residues)

    def test_sealed_residues_differ(self, ks):
        tags = mac.gen_tags(np.ones((4, 4), dtype=np.uint32), s=31337)
        sealed = mac.seal_tags(tags, ctx(), ks)
        assert not np.array_equal(sealed.view(np.uint64), tags.residues)
