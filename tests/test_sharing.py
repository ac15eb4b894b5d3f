"""Additive secret sharing: split/reconstruct/reshare and linearity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from securepim import kernels, sharing
from securepim.crypto import KeyStore, OtpContext
from securepim.errors import VersionReuseError

from conftest import TEST_KEY, ctx, rand_words


def fixed_r_keystore(monkeypatch, ks, r_words):
    """Patch the keystream so R is a known constant — lets the hand-worked
    split/reconstruct vectors be checked without touching AES."""
    fixed = np.asarray(r_words, dtype=np.uint32)

    def fake(ctx_, count, stream_id=0, on_prf=None):
        return fixed[:count].copy()

    monkeypatch.setattr(ks, "otp_words", fake)


class TestSplit:
    def test_hand_vector(self, ks, monkeypatch):
        fixed_r_keystore(monkeypatch, ks, [3])
        c = sharing.split(np.asarray([5], dtype=np.uint32), ctx(), ks)
        assert c.tolist() == [2]

    def test_wraparound(self, ks, monkeypatch):
        fixed_r_keystore(monkeypatch, ks, [7])
        c = sharing.split(np.asarray([0], dtype=np.uint32), ctx(), ks)
        assert c.tolist() == [(1 << 32) - 7]

    def test_round_trip_many(self, ks):
        rng = np.random.default_rng(1)
        for v in range(1, 1001):
            x = rand_words(rng, 4)
            c = sharing.split(x, ctx(version=v), ks)
            assert np.array_equal(sharing.reconstruct(c, ctx(version=v), ks), x)

    def test_version_reuse_faults(self, ks):
        x = np.zeros(2, dtype=np.uint32)
        sharing.split(x, ctx(), ks)
        with pytest.raises(VersionReuseError):
            sharing.split(x, ctx(), ks)


class TestReconstruct:
    def test_hand_vector(self, ks, monkeypatch):
        fixed_r_keystore(monkeypatch, ks, [3])
        c = np.asarray([2], dtype=np.uint32)
        assert sharing.reconstruct(c, ctx(), ks).tolist() == [5]

    def test_complement_gives_zero(self, ks):
        r = ks.otp_words(ctx(), 8)
        c = (-r.astype(np.int64) & 0xFFFFFFFF).astype(np.uint32)
        assert not sharing.reconstruct(c, ctx(), ks).any()


class TestReshare:
    def test_same_plaintext_new_cipher(self, ks):
        rng = np.random.default_rng(2)
        x = rand_words(rng, 16)
        c1 = sharing.split(x, ctx(version=1), ks)
        c2 = sharing.reshare(x, ctx(version=2), ks)
        assert np.array_equal(sharing.reconstruct(c2, ctx(version=2), ks), x)
        assert not np.array_equal(c1, c2)

    def test_reuse_faults(self, ks):
        x = np.zeros(2, dtype=np.uint32)
        sharing.reshare(x, ctx(version=1), ks)
        with pytest.raises(VersionReuseError):
            sharing.reshare(x, ctx(version=1), ks)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_linearity_w_times_shares(seed):
    """W·(C + R) == W·C + W·R over the ring — the core sharing identity."""
    rng = np.random.default_rng(seed)
    ks = KeyStore()
    ks.register("k", TEST_KEY)
    W = rand_words(rng, (8, 8))
    x = rand_words(rng, 8)
    c = sharing.split(x, OtpContext("k", 1), ks)
    r = sharing.host_share(OtpContext("k", 1), (8,), ks)
    lhs = kernels.gemv(W, x)
    rhs = kernels.gemv(W, c) + kernels.gemv(W, r)
    assert np.array_equal(lhs, rhs)


def test_cipher_distribution_smoke(ks):
    """Cipher words of an all-zero plaintext look uniform-ish (mean check)."""
    c = sharing.split(np.zeros(4096, dtype=np.uint32), ctx(), ks)
    mean = c.astype(np.float64).mean()
    assert abs(mean - 2**31) < 2**31 * 0.05
