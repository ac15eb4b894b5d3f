"""Orchestrator: scheme dispatch, merge correctness, verification sequencing,
offline/online ledger separation, and the arithmetic-to-Yao activation.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from securepim import host, kernels, mac, pimsim, ring
from securepim.crypto import STREAM_GC, OtpContext
from securepim.errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    GcEvaluationFault,
    VerificationError,
)
from securepim.host import (
    SCHEMES,
    EmbeddingOp,
    PrivateMatrixOp,
    PublicMatrixOp,
    SchemeConfig,
    Session,
)
from securepim.pimsim import CostReport, TamperSpec
from securepim.workloads import run_workload
from securepim.yao.switch import prepare_switch


def session(scheme, verify=False, variant="A", seed=0):
    return Session(SchemeConfig(scheme, verify, variant), seed)


def blocks(words):
    """Keystream blocks (PRF calls) that ``words`` ring words take."""
    return -(-words // 4)


class TestSchemeConfig:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            SchemeConfig("quantum")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            SchemeConfig("pim_runtime", variant="B")

    @pytest.mark.parametrize("verify", ["yes", "no", 1, None], ids=repr)
    def test_verify_must_be_a_bool(self, verify):
        """A truthy non-bool is not read as a request to verify."""
        with pytest.raises(ConfigError, match="verify"):
            SchemeConfig("pim_runtime", verify=verify)


class TestPublicMatrixOp:
    W = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)
    x = np.asarray([1, 1], dtype=np.uint32)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_schemes_agree_on_hand_instance(self, scheme):
        sess = session(scheme)
        op = PublicMatrixOp(sess, self.W)
        assert op.apply(self.x).tolist() == [3, 7]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_vector_gives_zero(self, scheme):
        sess = session(scheme)
        op = PublicMatrixOp(sess, self.W)
        assert not op.apply(np.zeros(2, dtype=np.uint32)).any()

    def test_verified_clean_run_passes(self):
        sess = session("pim_runtime", verify=True)
        op = PublicMatrixOp(sess, self.W)
        assert op.apply(self.x).tolist() == [3, 7]
        assert sess.verification_events == [{"step": "gemv:0", "ok": True}]

    def test_verified_hundred_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            sess = session("pim_runtime", verify=True, seed=trial)
            W = (rng.integers(-64, 64, size=(4, 4)) & ring.MASK).astype(np.uint32)
            x = (rng.integers(-64, 64, size=4) & ring.MASK).astype(np.uint32)
            op = PublicMatrixOp(sess, W)
            expect = (ring.to_signed_array(W).reshape(4, 4)
                      @ ring.to_signed_array(x) & ring.MASK).astype(np.uint32)
            assert np.array_equal(op.apply(x), expect)

    def test_precompute_online_phase_has_no_host_kernel(self):
        sess = session("pim_precompute")
        op = PublicMatrixOp(sess, self.W)
        assert sess.offline.host_mac_ops >= self.W.size
        op.apply(self.x)
        assert sess.online.host_mac_ops == 0

    def test_precompute_opens_stored_rescpu(self):
        # integration of sealed storage: result must still be exact
        sess = session("pim_precompute", verify=True)
        op = PublicMatrixOp(sess, self.W)
        assert op.apply(self.x).tolist() == [3, 7]

    def test_precompute_exhausted_is_config_error(self):
        op = PublicMatrixOp(session("pim_precompute"), self.W)
        op.apply(self.x)
        with pytest.raises(ConfigError, match="no precomputed resCPU left"):
            op.apply(self.x)

    # per scheme: offline ledger, online ledger and reshare count after three
    # verified applies of one 5x7 matrix, one on pim_precompute, which plans
    # one use and shares its vector under the context its resCPU was
    # precomputed with
    TAG_OFFLINE = CostReport(host_mac_ops=35, host_prf_calls=5)
    DEVICE_OFFLINE = CostReport(host_mac_ops=35, host_prf_calls=5,
                                bytes_h2d=140)
    DEVICE_ONLINE = dict(bytes_h2d=336, bytes_d2h=60, device_mac_ops=105,
                         verify_ops=3)
    REPEATED = {
        "cpu_insecure": (TAG_OFFLINE, CostReport(
            host_mac_ops=105, host_prf_calls=12, verify_ops=3), 0),
        "cpu_secure": (TAG_OFFLINE, CostReport(
            host_mac_ops=105, host_prf_calls=24, verify_ops=3), 0),
        "pim_insecure": (DEVICE_OFFLINE, CostReport(
            host_prf_calls=12, **DEVICE_ONLINE), 0),
        "pim_enc_dec": (DEVICE_OFFLINE, CostReport(
            host_prf_calls=24, device_prf_calls=12, **DEVICE_ONLINE), 0),
        "pim_runtime": (DEVICE_OFFLINE, CostReport(
            host_mac_ops=105, host_prf_calls=24, **DEVICE_ONLINE), 2),
        "pim_precompute": (CostReport(host_mac_ops=70, host_prf_calls=9,
                                      bytes_h2d=140),
                           CostReport(host_prf_calls=8, bytes_h2d=112,
                                      bytes_d2h=20, device_mac_ops=35,
                                      verify_ops=1), 0),
    }

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_repeated_applies_pin_results_and_ledgers(self, scheme):
        rng = np.random.default_rng(11)
        W = (rng.integers(-128, 129, (5, 7)) & ring.MASK).astype(np.uint32)
        xs = [(rng.integers(-4096, 4097, 7) & ring.MASK).astype(np.uint32)
              for _ in range(3)]
        if scheme == "pim_precompute":
            xs = xs[:1]
        sess = session(scheme, verify=True, seed=3)
        op = PublicMatrixOp(sess, W)
        for i, x in enumerate(xs):
            assert np.array_equal(op.apply(x, reshare=i > 0),
                                  kernels.gemv(W, x))
        offline, online, reshares = self.REPEATED[scheme]
        assert sess.offline == offline
        assert sess.online == online
        assert sess.verification_events == [
            {"step": f"gemv:{i}", "ok": True} for i in range(len(xs))]
        assert sess.reshare_events == reshares

    @pytest.mark.parametrize("scheme", ["pim_runtime", "pim_enc_dec"])
    @pytest.mark.parametrize("seed", range(4))
    def test_tampered_online_broadcast_detected(self, scheme, seed):
        # armed after placement, so channel_h2d hits the per-call broadcast
        # of the vector share (or its sealed form), not the matrix load
        rng = np.random.default_rng(seed)
        W = (rng.integers(-128, 129, (16, 16)) & ring.MASK).astype(np.uint32)
        x = (rng.integers(-4096, 4097, 16) & ring.MASK).astype(np.uint32)
        sess = session(scheme, verify=True, seed=seed)
        op = PublicMatrixOp(sess, W)
        sess.device.arm_tamper(TamperSpec("channel_h2d", "word_randomize"))
        with pytest.raises(VerificationError):
            op.apply(x)
        assert [t["target"] for t in sess.device.tamper_log] == ["channel_h2d"]
        assert sess.device.tamper_log[0]["index"] < x.size


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

    def test_precompute_with_static_vectors(self):
        w = np.asarray([1, 1], dtype=np.uint32)
        sess = session("pim_precompute")
        op = PrivateMatrixOp(sess, self.X, vectors=[w])
        assert op.matvec(w).tolist() == [3, 7]
        assert sess.online.host_mac_ops == 0

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_precompute_offline_prf_is_split_plus_seals(self, k, verify):
        """R = X - C is derived once from the share: the offline keystream
        cost is the split of X plus one seal per precomputed resCPU (plus
        the column-tag seal), with no per-vector regeneration of R."""
        X = np.arange(30, dtype=np.uint32).reshape(6, 5)
        sess = session("pim_precompute", verify=verify)
        before = sess.offline.host_prf_calls
        PrivateMatrixOp(sess, X, vectors=[np.ones(5, dtype=np.uint32)] * k)
        expect = blocks(X.size) + k * blocks(6)
        if verify:  # column tags only, two words per residue
            expect += blocks(2 * 5)
        assert sess.offline.host_prf_calls - before == expect

    @pytest.mark.parametrize("verify", [False, True])
    def test_unplanned_vector_is_config_error(self, verify):
        """A use planned for a static vector refuses another one before any
        device call, rather than merging the wrong resCPU; the plan stays."""
        sess = session("pim_precompute", verify=verify)
        op = PrivateMatrixOp(sess, self.X, vectors=[[1, 1]])
        with pytest.raises(ConfigError, match="planned"):
            op.matvec(np.asarray([2, 0], dtype=np.uint32))
        assert sess.online == CostReport()
        assert sess.verification_events == []
        assert op.matvec(np.asarray([1, 1], dtype=np.uint32)).tolist() == [3, 7]

    def test_precompute_exhausted_is_config_error(self):
        w = np.asarray([1, 1], dtype=np.uint32)
        op = PrivateMatrixOp(session("pim_precompute"), self.X, vectors=[w])
        op.matvec(w)
        with pytest.raises(ConfigError, match="no precomputed resCPU left"):
            op.matvec(w)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_static_vectors_have_no_transpose(self, scheme):
        """An op built with ``vectors`` has no row tags, so an unverified
        X.T @ e is refused rather than returned."""
        w = np.asarray([1, 1], dtype=np.uint32)
        sess = session(scheme, verify=True)
        op = PrivateMatrixOp(sess, self.X, vectors=[w])
        sess.device.arm_tamper(TamperSpec("device_result"))
        with pytest.raises(ConfigError, match="matvec_t"):
            op.matvec_t(w)
        assert sess.device.tamper_log == []

    def test_precompute_without_vectors_keeps_r_in_trusted_memory(self):
        """Without static vectors pim_precompute gives pim_runtime's words
        in both directions; its online PRF calls are the tag opens alone."""
        X = np.arange(30, dtype=np.uint32).reshape(6, 5)
        w = np.arange(5, dtype=np.uint32)
        e = np.arange(6, dtype=np.uint32)
        runs = {}
        for scheme in ("pim_runtime", "pim_precompute"):
            sess = session(scheme, verify=True)
            op = PrivateMatrixOp(sess, X)
            before = sess.online.host_prf_calls
            words = (op.matvec(w).tolist(), op.matvec_t(e).tolist())
            runs[scheme] = words, sess.online.host_prf_calls - before
            assert [ev["ok"] for ev in sess.verification_events] == [True] * 2
        assert runs["pim_precompute"][0] == runs["pim_runtime"][0]
        assert runs["pim_precompute"][1] == blocks(2 * 5) + blocks(2 * 6) == 6
        assert runs["pim_runtime"][1] == 6 + 2 * blocks(X.size) == 22

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

    @pytest.mark.parametrize("target", ["device_result", "channel_d2h",
                                        "channel_h2d"])
    @pytest.mark.parametrize("scheme", ["pim_insecure", "pim_enc_dec",
                                        "pim_runtime"])
    def test_tampered_gradient_traffic_aborts_at_grad(self, scheme, target):
        """Armed after the first matvec, a spec hits the scattered e on its
        way in, or a word of the per-DPU partials on their way out (sealed
        under pim_enc_dec); the host's sum then fails the row-tag check."""
        X = np.arange(16, dtype=np.uint32).reshape(8, 2)
        sess = session(scheme, verify=True)
        op = PrivateMatrixOp(sess, X, step="iter")
        op.matvec(np.asarray([1, 2], dtype=np.uint32))
        hit, offered = sess.tamper.hit, []

        def record(where, arr):
            if where == target:
                offered.append(arr.shape)
            return hit(where, arr)

        sess.tamper.hit = record
        sess.tamper.arm(TamperSpec(target))
        with pytest.raises(VerificationError) as exc_info:
            op.matvec_t(np.arange(8, dtype=np.uint32))
        assert exc_info.value.step == "iter:grad"
        assert [t["target"] for t in sess.tamper.log] == [target]
        assert offered[0] == ((8,) if target == "channel_h2d" else (4, 2))


class TestEmbeddingOp:
    T = np.asarray([[1, 2], [3, 4], [5, 6]], dtype=np.uint32)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_hand_instance_all_schemes(self, scheme):
        sess = session(scheme)
        op = EmbeddingOp(sess, self.T)
        out = op.lookup(np.asarray([[0, 2]]),
                        np.asarray([[1, 1]], dtype=np.uint32))
        assert out.tolist() == [[6, 8]]

    def test_verified_lookup(self):
        sess = session("pim_runtime", verify=True)
        op = EmbeddingOp(sess, self.T)
        op.lookup(np.asarray([[0, 2], [1, 1]]),
                  np.asarray([[1, 2], [3, 1]], dtype=np.uint32))
        assert sess.verification_events[-1]["ok"]

    def test_precompute_online_prf_free(self):
        sess = session("pim_precompute")
        op = EmbeddingOp(sess, self.T)
        prf_before = sess.online.host_prf_calls
        op.lookup(np.asarray([[0, 2]]), np.asarray([[1, 1]], dtype=np.uint32))
        assert sess.online.host_prf_calls == prf_before

    def test_pooling_permutation_invariant(self):
        sess = session("pim_runtime")
        op = EmbeddingOp(sess, self.T)
        ids = np.asarray([[0, 1, 2]])
        ws = np.asarray([[2, 3, 4]], dtype=np.uint32)
        a = op.lookup(ids, ws)
        b = op.lookup(ids[:, ::-1].copy(), ws[:, ::-1].copy())
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [[0, 3], [-1, 0]])
    def test_out_of_range_ids_are_config_errors(self, scheme, bad):
        op = EmbeddingOp(session(scheme, verify=True), self.T)
        with pytest.raises(ConfigError):
            op.lookup(np.asarray([bad]), np.asarray([[1, 1]], dtype=np.uint32))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_uint64_ids_past_int64_are_out_of_range(self, scheme):
        """A uint64 id of 2^63 or more wraps negative in the int64 cast,
        which the range check refuses."""
        op = EmbeddingOp(session(scheme, verify=True), self.T)
        with pytest.raises(ConfigError, match="must lie in"):
            op.lookup(np.asarray([[1 << 63, 0]], dtype=np.uint64),
                      np.asarray([[1, 1]], dtype=np.uint32))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [[[0.9, 2.7]], [[True, False]]],
                             ids=["float", "bool"])
    def test_non_integer_ids_are_config_errors(self, scheme, bad):
        """Float and bool ids are refused, not truncated to a row index."""
        sess = session(scheme, verify=True)
        op = EmbeddingOp(sess, self.T)
        with pytest.raises(ConfigError, match="integers"):
            op.lookup(np.asarray(bad), np.asarray([[1, 1]], dtype=np.uint32))
        assert sess.online == CostReport()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [[[1.9, 2.7]], [[True, True]]],
                             ids=["float", "bool"])
    def test_non_integer_weights_are_config_errors(self, scheme, bad):
        """Float and bool weights are refused, not truncated to words."""
        sess = session(scheme, verify=True)
        op = EmbeddingOp(sess, self.T)
        with pytest.raises(ConfigError, match="weights must be integers"):
            op.lookup(np.asarray([[0, 2]]), np.asarray(bad))
        assert sess.online == CostReport()

    def test_batched_check_matches_per_row_oracle(self):
        rng = np.random.default_rng(5)
        table = ring.from_signed_array(rng.integers(-4000, 4000, size=(6, 4)))
        ids = np.asarray([[0, 5], [2, 2], [4, 1]])
        ws = np.asarray([[1, 2], [3, 1], [3, 2]], dtype=np.uint32)
        sess = session("pim_runtime", verify=True)
        seen = []
        sess.check_verified = lambda step, e, r: seen.append((e, r))
        out = EmbeddingOp(sess, table).lookup(ids, ws)

        def lift(w):
            return ring.to_signed(int(w)) % mac.Q

        def horner(words):
            acc = 0
            for w in words:
                acc = (acc + lift(w)) * sess.s % mac.Q
            return acc

        # bag k's terms weigh s^(cols * (batch - 1 - k)), its place in the
        # flattened (batch, cols) result that the hash runs over
        tags = [horner(row) for row in table]
        ftag_e = ftag_r = 0
        for k in range(3):
            bag = pow(sess.s, 4 * (2 - k), mac.Q)
            ftag_e += bag * sum(tags[ids[k, j]] * lift(ws[k, j])
                                for j in range(2)) % mac.Q
            ftag_r += bag * horner(out[k])
        assert ftag_r % mac.Q == horner(out.ravel())
        assert seen == [(ftag_e % mac.Q, ftag_r % mac.Q)]
        assert seen[0][0] == seen[0][1]

    @pytest.mark.parametrize("scheme", ["pim_runtime", "pim_precompute"])
    def test_tamper_in_later_batch_row_aborts(self, scheme):
        sess = session(scheme, verify=True)
        op = EmbeddingOp(sess, self.T)
        # flat word 5 of the (3, 2) result: batch row 2, column 1
        sess.device.arm_tamper(TamperSpec("device_result", "bit_flip", 5))
        with pytest.raises(VerificationError):
            op.lookup(np.asarray([[0, 2], [1, 1], [2, 0]]),
                      np.asarray([[1, 2], [3, 1], [1, 1]], dtype=np.uint32))
        assert sess.device.tamper_log[0]["index"] == 5
        assert [e["ok"] for e in sess.verification_events] == [False]

    @pytest.mark.parametrize("scheme", sorted(host.DEVICE_SCHEMES))
    def test_tampered_id_fails_verification(self, scheme):
        """The ids are the lookup's first h2d transfer.  The host MACs with
        its own ids, so a tampered id ends as VerificationError, never as
        IndexError: with three rows, no flipped bit (a power of two, never
        0 mod 3) leaves the id on its row."""
        sess = session(scheme, verify=True)
        op = EmbeddingOp(sess, self.T)
        hit, offered = sess.tamper.hit, []

        def record(target, arr):
            if target == "channel_h2d":
                offered.append(arr)
            return hit(target, arr)

        sess.tamper.hit = record
        sess.tamper.arm(TamperSpec("channel_h2d", "bit_flip", position=1))
        ids = np.asarray([[0, 2], [1, 1]])
        with pytest.raises(VerificationError):
            op.lookup(ids, np.asarray([[1, 2], [3, 1]], dtype=np.uint32))
        assert sess.tamper.log[0]["target"] == "channel_h2d"
        assert sess.tamper.log[0]["index"] == 1
        assert offered[0].dtype == np.uint32
        assert offered[0].tolist() == ids.tolist()

    @pytest.mark.parametrize("tamper", ["swap_bags", "shift_column"])
    @pytest.mark.parametrize("scheme", sorted(host.DEVICE_SCHEMES))
    def test_tampers_that_keep_column_sums_abort(self, monkeypatch, scheme,
                                                 tamper):
        """Swapping bags 0 and 1 of the returned result, or adding delta to
        one column of bag 0 and taking it from bag 1, keeps every column's
        sum over the bags, so a check that sees only those sums passes."""
        d2h = pimsim.PimDevice._d2h

        def tampered(device, arr):
            out = d2h(device, arr).copy()
            if tamper == "swap_bags":
                out[[0, 1]] = out[[1, 0]]
            else:
                out[:2, 1] += np.asarray([4096, -4096]).astype(np.uint32)
            return out

        monkeypatch.setattr(pimsim.PimDevice, "_d2h", tampered)
        for seed in range(20):
            with pytest.raises(VerificationError):
                run_workload("dlrm", SchemeConfig(scheme, verify=True), seed)

    @pytest.mark.parametrize("scheme", sorted(host.DEVICE_SCHEMES))
    def test_flip_at_every_result_word_aborts(self, scheme):
        ids = np.asarray([[0, 2], [1, 1], [2, 0]])
        ws = np.asarray([[1, 2], [3, 1], [1, 1]], dtype=np.uint32)
        for position in range(6):   # every word of the (3, 2) result
            sess = session(scheme, verify=True)
            op = EmbeddingOp(sess, self.T)
            sess.tamper.arm(TamperSpec("device_result", "bit_flip", position))
            with pytest.raises(VerificationError):
                op.lookup(ids, ws)
            assert sess.tamper.log[0]["index"] == position

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("batch,pf,rows,cols", [
        (1, 3, 4, 3), (3, 1, 4, 3), (3, 2, 1, 3), (3, 2, 4, 1), (1, 1, 1, 1),
        (0, 2, 4, 3), (2, 2, 4, 0)])
    def test_honest_lookup_edges_verify(self, scheme, batch, pf, rows, cols):
        """A bag, an id per bag, a row or a column of one, an empty lookup
        (batch 0) and a table of no columns all pass the check."""
        rng = np.random.default_rng(batch * 1000 + pf * 100 + rows * 10 + cols)
        table = ring.from_signed_array(rng.integers(-4000, 4000, (rows, cols)))
        ids = rng.integers(0, rows, (batch, pf))
        ws = rng.integers(1, 4, (batch, pf)).astype(np.uint32)
        sess = session(scheme, verify=True)
        out = EmbeddingOp(sess, table).lookup(ids, ws)
        assert out.shape == (batch, cols)
        assert np.array_equal(out, kernels.embedding(table, ids, ws))
        assert sess.verification_events == [{"step": "emb", "ok": True}]

    # an 8 x 3 table read at rows 0, 1 and 7: words 0..5 and 21..23 touch
    # keystream blocks 0, 1 and 5 of its six
    T8 = np.arange(24, dtype=np.uint32).reshape(8, 3)
    IDS = np.asarray([[0, 1], [7, 7]])
    WS = np.asarray([[1, 2], [3, 1]], dtype=np.uint32)
    # online (host, device) PRF calls of that lookup, unverified; a verified
    # one opens the whole tag store (16 words, four blocks) on the host
    ROW_PRF = {"cpu_insecure": (0, 0), "cpu_secure": (3, 0),
               "pim_insecure": (0, 0), "pim_enc_dec": (2, 3 + 2),
               "pim_runtime": (3, 0), "pim_precompute": (0, 0)}

    @staticmethod
    def online_prf(sess):
        return sess.online.host_prf_calls, sess.online.device_prf_calls

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lookup_charges_only_the_rows_it_reads(self, scheme, verify):
        """The host part (R, or the opened table) and the sealed device's
        open come from the distinct rows read; the enc/dec host and device
        also open and seal the 2 x 3 result (two blocks)."""
        sess = session(scheme, verify=verify)
        op = EmbeddingOp(sess, self.T8)
        before = self.online_prf(sess)
        out = op.lookup(self.IDS, self.WS)
        assert out.tolist() == [[6, 9, 12], [84, 88, 92]]
        host, device = self.ROW_PRF[scheme]
        assert self.online_prf(sess) == (before[0] + host + 4 * verify,
                                         before[1] + device)

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lookup_of_every_row_charges_the_whole_table(self, scheme, verify):
        """Ids that read every row charge the whole table's six blocks, no
        more; the enc/dec result is 15 words, four blocks."""
        full_prf = {**self.ROW_PRF, "cpu_secure": (6, 0),
                    "pim_enc_dec": (4, 6 + 4), "pim_runtime": (6, 0)}
        sess = session(scheme, verify=verify)
        op = EmbeddingOp(sess, self.T8)
        before = self.online_prf(sess)
        ids = np.asarray([[3, 0], [7, 1], [6, 2], [5, 4], [0, 7]])
        ws = np.ones((5, 2), dtype=np.uint32)
        out = op.lookup(ids, ws)
        assert np.array_equal(out, kernels.embedding(self.T8, ids, ws))
        host, device = full_prf[scheme]
        assert self.online_prf(sess) == (before[0] + host + 4 * verify,
                                         before[1] + device)

    @pytest.mark.parametrize("scheme", ["pim_runtime", "pim_enc_dec"])
    @pytest.mark.parametrize("position,read", [(12, False), (14, False),
                                               (0, True), (22, True)])
    def test_resident_hit_counts_only_on_a_read_row(self, scheme, position,
                                                    read):
        """A ``resident_share`` hit on row 4 (words 12..14) changes no word
        the lookup reads, so it is benign; one on row 0 or 7 is detected."""
        sess = session(scheme, verify=True)
        op = EmbeddingOp(sess, self.T8)
        sess.tamper.arm(TamperSpec("resident_share", "word_randomize", position))
        if read:
            with pytest.raises(VerificationError):
                op.lookup(self.IDS, self.WS)
        else:
            out = op.lookup(self.IDS, self.WS)
            assert out.tolist() == [[6, 9, 12], [84, 88, 92]]
            assert sess.verification_events == [{"step": "emb", "ok": True}]
        assert sess.tamper.log == [{"target": "resident_share",
                                    "mutation": "word_randomize",
                                    "index": position}]

    def test_index_leak_declared(self):
        sess = session("pim_runtime")
        op = EmbeddingOp(sess, self.T)
        op.lookup(np.asarray([[0]]), np.asarray([[1]], dtype=np.uint32))
        assert "dlrm_indices_in_clear" in sess.leaks


# -2^31, -2^31 + 1/2 - 2^-12 and 2^31 - 1: where x - 1/2 or x + 1/2 wraps
WRAP_ANCHORS = [1 << 31, (1 << 31) + ring.HALF - 1, (1 << 31) - 1]


class TestA2YActivation:
    def test_matches_host_clamp(self):
        xs = np.asarray([ring.fx_encode(v) for v in
                         (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)], dtype=np.uint32)
        sess = session("pim_runtime", variant="A2Y")
        got = sess.a2y_activation(xs)
        assert np.array_equal(got, ring.clamp_unit_array(xs))
        assert "a2y_activation_revealed_to_device" in sess.leaks

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([0, 1, 33]).flatmap(lambda n: st.lists(
               st.one_of(st.sampled_from(WRAP_ANCHORS),
                         st.integers(0, (1 << 32) - 1)),
               min_size=n, max_size=n)),
           st.integers(0, 1 << 16))
    @example(WRAP_ANCHORS * 11, 0)
    def test_batch_equals_clamp_oracle(self, xs, seed):
        sess = session("pim_runtime", variant="A2Y", seed=seed)
        got = sess.a2y_activation(np.asarray(xs, dtype=np.uint32))
        assert got.tolist() == [
            min(max(ring.to_signed(x) + ring.HALF, 0), ring.ONE) for x in xs]
        assert sess.a2y_scalars == len(xs)

    @pytest.mark.parametrize("n", [1, 4, 5, 33])
    def test_one_share_per_vector(self, n):
        """The whole vector is masked by one split: ceil(n/4) keystream
        blocks, not one per scalar."""
        xs = (np.arange(n, dtype=np.int64) * 997 - 3000).astype(np.uint32)
        sess = session("pim_runtime", variant="A2Y")
        before = sess.online.host_prf_calls
        got = sess.a2y_activation(xs)
        assert sess.online.host_prf_calls - before == blocks(n)
        assert np.array_equal(got, ring.clamp_unit_array(xs))

    @staticmethod
    def switched(sess, xs):
        """The activation words and the garbled tables the device received."""
        tables = []
        evaluate = sess.device.evaluate_garbled

        def record(gc, labels):
            tables.append(gc.tables.copy())
            return evaluate(gc, labels)

        sess.device.evaluate_garbled = record
        words = sess.a2y_activation(xs)
        del sess.device.evaluate_garbled
        return words, tables[0]

    def test_tables_follow_the_session_keystream(self):
        xs = (np.arange(6, dtype=np.int64) * 1531 - 4000).astype(np.uint32)
        words, tables = self.switched(session("pim_runtime", variant="A2Y"), xs)
        again, same = self.switched(session("pim_runtime", variant="A2Y"), xs)
        other, fresh = self.switched(session("pim_runtime", variant="A2Y", seed=1), xs)
        assert np.array_equal(tables, same)
        assert not np.array_equal(tables, fresh)
        assert np.array_equal(words, ring.clamp_unit_array(xs))
        assert np.array_equal(again, words) and np.array_equal(other, words)

    def test_each_vector_takes_fresh_seeds(self):
        sess = session("pim_runtime", variant="A2Y")
        xs = np.asarray([0, 4096, 123456], dtype=np.uint32)
        first, tables = self.switched(sess, xs)
        second, fresh = self.switched(sess, xs)
        assert not np.array_equal(tables, fresh)
        assert np.array_equal(first, second)

    def test_seeds_are_the_gc_pad_read_as_little_endian_ints(self, monkeypatch):
        """The word-array seeds garble exactly as the 128-bit ints that the
        STREAM_GC pad's 16-byte slices give read little-endian."""
        calls = []

        def record(r, c, seed):
            calls.append((r, c, prepare_switch(r, c, seed)))
            return calls[-1][2]

        monkeypatch.setattr(host, "prepare_switch", record)
        sess = session("pim_runtime", variant="A2Y")
        xs = (np.arange(5, dtype=np.int64) * 2711 - 6000).astype(np.uint32)
        sess.a2y_activation(xs)
        ctx = OtpContext(sess.key_id, sess._version)
        pad = sess.ks.otp_words(ctx, 4 * xs.size, stream_id=STREAM_GC).tobytes()
        seeds = [int.from_bytes(pad[i:i + 16], "little")
                 for i in range(0, len(pad), 16)]
        r, c, (gc, labels, _ot, _stats) = calls[0]
        want, want_labels, _ot, _stats = prepare_switch(r, c, seeds)
        assert np.array_equal(gc.tables, want.tables)
        assert np.array_equal(labels, want_labels)

    def test_label_accounting_per_scalar(self):
        sess = session("pim_runtime", variant="A2Y")
        sess.a2y_activation(np.asarray([0, 4096, 123456], dtype=np.uint32))
        assert sess.a2y_scalars == 3
        assert sess.a2y_labels_transferred == 3 * 32
        assert sess.a2y_labels_stored == 3 * 64


class TestPhases:
    """An op's constructor is the offline phase: every charge it makes, device
    loads included, goes to the offline ledger."""

    M = np.arange(16, dtype=np.uint32).reshape(4, 4)
    BUILD = {
        "public": lambda s, M: PublicMatrixOp(s, M),
        "private": lambda s, M: PrivateMatrixOp(s, M),
        "static": lambda s, M: PrivateMatrixOp(s, M, vectors=[M[0], M[1]]),
        "embedding": lambda s, M: EmbeddingOp(s, M),
    }

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("op", sorted(BUILD))
    def test_building_an_op_charges_offline_only(self, op, scheme, verify):
        sess = session(scheme, verify=verify)
        self.BUILD[op](sess, self.M)
        assert sess.online == CostReport()
        assert sess.ledger is sess.online
        assert sess.offline.bytes_h2d == (
            self.M.nbytes if scheme in host.DEVICE_SCHEMES else 0)

    def test_failed_build_leaves_the_online_phase(self, monkeypatch):
        sess = session("pim_runtime")
        monkeypatch.setattr(pimsim, "MRAM_BYTES_PER_DPU", 8)
        with pytest.raises(CapacityError):
            PrivateMatrixOp(sess, self.M)
        assert sess.ledger is sess.online


class TestOperandShapes:
    """One operand-shape rule on every scheme: the ring kernels raise
    DimensionError, where numpy would broadcast a size-1 vector or raise
    its own ValueError."""

    X = np.arange(6, dtype=np.uint32).reshape(3, 2)
    CALLS = {
        "apply": lambda s, X, v: PublicMatrixOp(s, X).apply(v),
        "matvec": lambda s, X, v: PrivateMatrixOp(s, X).matvec(v),
        "matvec_t": lambda s, X, v: PrivateMatrixOp(s, X).matvec_t(v),
    }

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("call, shape", [
        ("apply", (1,)), ("apply", (3,)), ("apply", (2, 1)),
        ("matvec", (1,)), ("matvec", (3,)), ("matvec", (1, 2)),
        ("matvec_t", (1,)), ("matvec_t", (2,)), ("matvec_t", (3, 1))])
    def test_wrong_shape_vector(self, call, shape, scheme, verify):
        sess = session(scheme, verify=verify)
        with pytest.raises(DimensionError):
            self.CALLS[call](sess, self.X, np.ones(shape, dtype=np.uint32))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [[0.5, 1.5, 2.9], [True, False, True]],
                             ids=["float", "bool"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_non_integer_vector_is_config_error(self, call, bad, scheme):
        """A float or bool vector of the right length is refused, not
        truncated to words, before anything is sent, computed or declared
        revealed (``matvec_t``'s error vector)."""
        sess = session(scheme, verify=True)
        n = self.X.shape[call == "matvec_t"]
        with pytest.raises(ConfigError, match="vector must be integers"):
            self.CALLS[call](sess, self.X, np.asarray(bad[:n]))
        assert sess.online == CostReport()
        assert sess.leaks == []

    BUILDS = {
        "W": lambda s, M: PublicMatrixOp(s, M),
        "X": lambda s, M: PrivateMatrixOp(s, M),
        "table": lambda s, M: EmbeddingOp(s, M),
        "a2y": lambda s, M: s.a2y_activation(M),
    }

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [[[1.9, 2.7], [0.5, -1.2]],
                                     [[True, False], [False, True]]],
                             ids=["float", "bool"])
    @pytest.mark.parametrize("operand", sorted(BUILDS))
    def test_non_integer_operand_is_config_error(self, operand, bad, scheme):
        """A float or bool matrix, table or activation vector is refused,
        not truncated to words, before either phase is charged."""
        sess = session(scheme, verify=True, variant="A2Y")
        offline = dataclasses.replace(sess.offline)
        with pytest.raises(ConfigError, match="must be integers"):
            self.BUILDS[operand](sess, np.asarray(bad))
        assert sess.offline == offline
        assert sess.online == CostReport()
        assert sess.leaks == []

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_int64_operands_wrap_to_words(self, scheme):
        """An int64 matrix or table is taken as its words mod 2^32, which
        the signed lift of the check reads back."""
        big = np.array([[-1, 2], [3, (1 << 33) + 5], [-7, (1 << 32) - 4]])
        words = big.astype(np.uint32)
        e, ids = np.arange(1, 4), np.array([[2, 0]])
        sess = session(scheme, verify=True)
        assert np.array_equal(PublicMatrixOp(sess, big.T).apply(e),
                              kernels.gemv(words.T, e.astype(np.uint32)))
        op = PrivateMatrixOp(sess, big)
        assert np.array_equal(op.matvec_t(e),
                              kernels.gemv_t(words, e.astype(np.uint32)))
        assert np.array_equal(EmbeddingOp(sess, big).lookup(ids, ids),
                              words[None, 2] * 2)

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("ids_shape, weights_shape", [
        ((2,), (2,)), ((1, 2), (2,)), ((1, 2), (2, 1)), ((1, 2), (1, 3)),
        ((1, 1, 2), (1, 1, 2))])
    def test_size_mismatched_lookup(self, ids_shape, weights_shape, scheme,
                                    verify):
        """ids and weights must both be (batch, pf): 1-D ids, weights of
        another shape and 3-D ids are refused."""
        op = EmbeddingOp(session(scheme, verify=verify), self.X)
        with pytest.raises(DimensionError):
            op.lookup(np.zeros(ids_shape, dtype=np.int64),
                      np.ones(weights_shape, dtype=np.uint32))


class TestLedgers:
    @staticmethod
    def assert_aborted_session(error, workload, params, variant, target):
        """The ``error`` that aborts a verified run of ``workload`` with a
        ``target`` tamper carries the session the tamper fired in."""
        cfg = SchemeConfig("pim_runtime", verify=True, variant=variant)
        with pytest.raises(error) as exc_info:
            run_workload(workload, cfg, 0, params, tamper=TamperSpec(target))
        sess = exc_info.value.session
        assert sess.cfg is cfg
        assert [e["target"] for e in sess.tamper.log] == [target]

    def test_verification_error_carries_session(self):
        """``run_workload`` sets ``session`` on a check that aborts its body;
        raised outside it, the error carries none."""
        self.assert_aborted_session(VerificationError, "mlp", {"depth": 1}, "A",
                             "channel_d2h")
        sess = session("pim_runtime", verify=True)
        op = PublicMatrixOp(sess, np.eye(4, dtype=np.uint32))
        sess.tamper.arm(TamperSpec("channel_d2h"))
        with pytest.raises(VerificationError) as exc_info:
            op.apply(np.arange(1, 5, dtype=np.uint32))
        assert exc_info.value.session is None

    def test_gc_fault_carries_session(self):
        self.assert_aborted_session(GcEvaluationFault, "logreg", {"iterations": 1},
                             "A2Y", "gc_table")
        sess = session("pim_runtime", variant="A2Y")
        sess.tamper.arm(TamperSpec("gc_table"))
        with pytest.raises(GcEvaluationFault) as exc_info:
            sess.a2y_activation(np.asarray([2048], dtype=np.uint32))
        assert exc_info.value.session is None

    @pytest.mark.parametrize("workload, variant, target, error", [
        ("mlp", "A", "device_result", VerificationError),
        ("dlrm", "A", "channel_d2h", VerificationError),
        ("logreg", "A2Y", "gc_table", GcEvaluationFault),
    ])
    def test_aborted_session_freed_without_gc(self, workload, variant,
                                               target, error):
        """An abort leaves no reference cycle that keeps its session (device
        buffers, shares, tag stores) alive until the cyclic collector runs."""
        cfg = SchemeConfig("pim_runtime", verify=True, variant=variant)
        ref = None
        gc.collect()
        gc.disable()
        try:
            try:
                run_workload(workload, cfg, 0, tamper=TamperSpec(target))
            except error as exc:
                ref = weakref.ref(exc.session)
            assert ref is not None
            assert ref() is None
        finally:
            gc.enable()

    def test_reshare_counter(self):
        sess = session("pim_runtime")
        op = PublicMatrixOp(sess, np.eye(4, dtype=np.uint32))
        x = np.arange(4, dtype=np.uint32)
        op.apply(x, reshare=False)
        op.apply(x, reshare=True)
        op.apply(x, reshare=True)
        assert sess.reshare_events == 2
