"""Orchestrator: scheme dispatch, merge correctness, verification sequencing,
offline/online ledger separation, and the arithmetic-to-Yao activation.
"""

import numpy as np
import pytest

from securepim import mac, ring
from securepim.errors import ConfigError, VerificationError
from securepim.host import (
    SCHEMES,
    EmbeddingOp,
    PrivateMatrixOp,
    PublicMatrixOp,
    SchemeConfig,
    Session,
)
from securepim.pimsim import TamperSpec


def session(scheme, verify=False, variant="A", seed=0):
    return Session(SchemeConfig(scheme, verify, variant), seed)


class TestSchemeConfig:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            SchemeConfig("quantum")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            SchemeConfig("pim_runtime", variant="B")


class TestPublicMatrixOp:
    W = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)
    x = np.asarray([1, 1], dtype=np.uint32)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_schemes_agree_on_hand_instance(self, scheme):
        sess = session(scheme)
        op = PublicMatrixOp(sess, self.W, uses=1)
        assert op.apply(self.x).tolist() == [3, 7]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_vector_gives_zero(self, scheme):
        sess = session(scheme)
        op = PublicMatrixOp(sess, self.W, uses=1)
        assert not op.apply(np.zeros(2, dtype=np.uint32)).any()

    def test_verified_clean_run_passes(self):
        sess = session("pim_runtime", verify=True)
        op = PublicMatrixOp(sess, self.W, uses=1)
        assert op.apply(self.x).tolist() == [3, 7]
        assert sess.verification_events == [{"step": "gemv:0", "ok": True}]

    def test_verified_hundred_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            sess = session("pim_runtime", verify=True, seed=trial)
            W = (rng.integers(-64, 64, size=(4, 4)) & ring.MASK).astype(np.uint32)
            x = (rng.integers(-64, 64, size=4) & ring.MASK).astype(np.uint32)
            op = PublicMatrixOp(sess, W, uses=1)
            expect = (ring.to_signed_array(W).reshape(4, 4)
                      @ ring.to_signed_array(x) & ring.MASK).astype(np.uint32)
            assert np.array_equal(op.apply(x), expect)

    def test_precompute_online_phase_has_no_host_kernel(self):
        sess = session("pim_precompute")
        op = PublicMatrixOp(sess, self.W, uses=2)
        assert sess.offline.host_mac_ops >= self.W.size
        op.apply(self.x)
        op.apply(self.x)
        assert sess.online.host_mac_ops == 0

    def test_precompute_opens_stored_rescpu(self):
        # integration of sealed storage: result must still be exact
        sess = session("pim_precompute", verify=True)
        op = PublicMatrixOp(sess, self.W, uses=1)
        assert op.apply(self.x).tolist() == [3, 7]


class TestPrivateMatrixOp:
    X = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)

    @pytest.mark.parametrize("scheme",
                             [s for s in SCHEMES if s != "pim_precompute"])
    def test_matvec_and_transpose(self, scheme):
        sess = session(scheme)
        op = PrivateMatrixOp(sess, self.X)
        w = np.asarray([1, 1], dtype=np.uint32)
        assert op.matvec(w).tolist() == [3, 7]
        assert op.matvec_t(w).tolist() == [4, 6]

    def test_precompute_without_static_vectors_rejected(self):
        sess = session("pim_precompute")
        with pytest.raises(ConfigError):
            PrivateMatrixOp(sess, self.X)

    def test_precompute_with_static_vectors(self):
        w = np.asarray([1, 1], dtype=np.uint32)
        sess = session("pim_precompute")
        op = PrivateMatrixOp(sess, self.X, precompute=[("rows", w)],
                             tag_rows=False)
        assert op.matvec(w).tolist() == [3, 7]
        assert sess.online.host_mac_ops == 0

    def test_share_mode_compensation_vs_plaintext(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            X = (rng.integers(-128, 128, size=(5, 3)) & ring.MASK).astype(np.uint32)
            w = (rng.integers(-128, 128, size=3) & ring.MASK).astype(np.uint32)
            sess = session("pim_runtime", seed=trial)
            op = PrivateMatrixOp(sess, X)
            expect = (ring.to_signed_array(X).reshape(5, 3)
                      @ ring.to_signed_array(w) & ring.MASK).astype(np.uint32)
            assert np.array_equal(op.matvec(w), expect)

    def test_first_check_passes_second_fails_on_late_tamper(self):
        sess = session("pim_runtime", verify=True)
        op = PrivateMatrixOp(sess, self.X)
        w = np.asarray([1, 1], dtype=np.uint32)
        assert op.matvec(w).tolist() == [3, 7]
        sess.device.arm_tamper(TamperSpec("device_result"))
        with pytest.raises(VerificationError):
            op.matvec_t(w)
        assert [e["ok"] for e in sess.verification_events] == [True, False]


class TestEmbeddingOp:
    T = np.asarray([[1, 2], [3, 4], [5, 6]], dtype=np.uint32)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_hand_instance_all_schemes(self, scheme):
        sess = session(scheme)
        op = EmbeddingOp(sess, self.T)
        out = op.lookup(np.asarray([0, 2]), np.asarray([1, 1], dtype=np.uint32),
                        batch=1, pf=2)
        assert out.tolist() == [[6, 8]]

    def test_verified_lookup(self):
        sess = session("pim_runtime", verify=True)
        op = EmbeddingOp(sess, self.T)
        op.lookup(np.asarray([0, 2, 1, 1]),
                  np.asarray([1, 2, 3, 1], dtype=np.uint32), batch=2, pf=2)
        assert sess.verification_events[-1]["ok"]

    def test_precompute_online_prf_free(self):
        sess = session("pim_precompute")
        op = EmbeddingOp(sess, self.T)
        prf_before = sess.online.host_prf_calls
        op.lookup(np.asarray([0, 2]), np.asarray([1, 1], dtype=np.uint32),
                  batch=1, pf=2)
        assert sess.online.host_prf_calls == prf_before

    def test_pooling_permutation_invariant(self):
        sess = session("pim_runtime")
        op = EmbeddingOp(sess, self.T)
        ids = np.asarray([0, 1, 2])
        ws = np.asarray([2, 3, 4], dtype=np.uint32)
        a = op.lookup(ids, ws, batch=1, pf=3)
        b = op.lookup(ids[::-1].copy(), ws[::-1].copy(), batch=1, pf=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [[0, 3], [-1, 0]])
    def test_out_of_range_ids_are_config_errors(self, scheme, bad):
        op = EmbeddingOp(session(scheme, verify=True), self.T)
        with pytest.raises(ConfigError):
            op.lookup(np.asarray(bad), np.asarray([1, 1], dtype=np.uint32),
                      batch=1, pf=2)

    def test_batched_check_matches_per_row_oracle(self):
        rng = np.random.default_rng(5)
        table = ring.from_signed_array(rng.integers(-4000, 4000, size=(6, 4)))
        ids = np.asarray([0, 5, 2, 2, 4, 1])
        ws = np.asarray([1, 2, 3, 1, 3, 2], dtype=np.uint32)
        sess = session("pim_runtime", verify=True)
        seen = []
        sess.check_verified = lambda step, e, r: seen.append((e, r))
        out = EmbeddingOp(sess, table).lookup(ids, ws, batch=3, pf=2)

        def lift(w):
            return ring.to_signed(int(w)) % mac.Q

        def horner(words):
            acc = 0
            for w in words:
                acc = (acc + lift(w)) * sess.s % mac.Q
            return acc

        tags = [horner(row) for row in table]
        ftag_e = ftag_r = 0
        for k in range(3):
            ftag_e += sum(tags[ids[k * 2 + j]] * lift(ws[k * 2 + j])
                          for j in range(2)) % mac.Q
            ftag_r += horner(out[k])
        assert seen == [(ftag_e % mac.Q, ftag_r % mac.Q)]
        assert seen[0][0] == seen[0][1]

    @pytest.mark.parametrize("scheme", ["pim_runtime", "pim_precompute"])
    def test_tamper_in_later_batch_row_aborts(self, scheme):
        sess = session(scheme, verify=True)
        op = EmbeddingOp(sess, self.T)
        # flat word 5 of the (3, 2) result: batch row 2, column 1
        sess.device.arm_tamper(TamperSpec("device_result", "bit_flip", 5))
        with pytest.raises(VerificationError):
            op.lookup(np.asarray([0, 2, 1, 1, 2, 0]),
                      np.asarray([1, 2, 3, 1, 1, 1], dtype=np.uint32),
                      batch=3, pf=2)
        assert sess.device.tamper_log[0]["index"] == 5
        assert [e["ok"] for e in sess.verification_events] == [False]

    def test_index_leak_declared(self):
        sess = session("pim_runtime")
        op = EmbeddingOp(sess, self.T)
        op.lookup(np.asarray([0]), np.asarray([1], dtype=np.uint32),
                  batch=1, pf=1)
        assert "dlrm_indices_in_clear" in sess.leaks


class TestA2YActivation:
    def test_matches_host_clamp(self):
        xs = np.asarray([ring.fx_encode(v) for v in
                         (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)], dtype=np.uint32)
        sess = session("pim_runtime", variant="A2Y")
        got = sess.a2y_activation(xs)
        assert np.array_equal(got, ring.clamp_unit_array(xs))
        assert "a2y_activation_revealed_to_device" in sess.leaks

    def test_label_accounting_per_scalar(self):
        sess = session("pim_runtime", variant="A2Y")
        sess.a2y_activation(np.asarray([0, 4096, 123456], dtype=np.uint32))
        assert sess.a2y_scalars == 3
        assert sess.a2y_labels_transferred == 3 * 32
        assert sess.a2y_labels_stored == 3 * 64

    def test_transcript_one_row_match(self):
        sess = session("pim_runtime", variant="A2Y")
        sess.a2y_activation(np.asarray([2048], dtype=np.uint32))
        (t,) = sess.a2y_transcripts
        assert all(m == 1 for m in t.row_matches)


class TestLedgers:
    def test_verification_error_carries_session(self):
        sess = session("pim_runtime", verify=True)
        op = PublicMatrixOp(sess, np.eye(4, dtype=np.uint32), uses=1)
        sess.device.arm_tamper(TamperSpec("channel_d2h"))
        with pytest.raises(VerificationError) as exc_info:
            op.apply(np.arange(1, 5, dtype=np.uint32))
        assert exc_info.value.session is sess

    def test_reshare_counter(self):
        sess = session("pim_runtime")
        op = PublicMatrixOp(sess, np.eye(4, dtype=np.uint32), uses=3)
        x = np.arange(4, dtype=np.uint32)
        op.apply(x, reshare=False)
        op.apply(x, reshare=True)
        op.apply(x, reshare=True)
        assert sess.reshare_events == 2
