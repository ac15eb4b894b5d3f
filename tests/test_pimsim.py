"""Device simulator: placement and byte accounting, ring kernels, enc/dec
kernels, tamper hooks, and the masking of what the device receives.
"""

import dataclasses

import numpy as np
import pytest

from securepim import pimsim, ring
from securepim.crypto import STREAM_GC, KeyStore
from securepim.errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    GcEvaluationFault,
)
from securepim.host import DEVICE_SCHEMES, SCHEMES, SchemeConfig, Session
from securepim.pimsim import (
    MUTATIONS,
    TAMPER_TARGETS,
    CostReport,
    PimDevice,
    Tamper,
    TamperSpec,
)
from securepim.workloads import (
    TRAINING_WORKLOADS,
    WORKLOADS,
    merged_params,
    run_workload,
)

from conftest import TEST_KEY, ctx, rand_words


def fresh_device():
    return PimDevice(CostReport(), Tamper())


class TestLoadAccounting:
    def test_row_split_bytes(self):
        dev = fresh_device()
        dev.load("W", np.zeros((8, 8), dtype=np.uint32))
        assert dev.report.bytes_h2d == 8 * 8 * 4

    def test_broadcast_sends_a_copy_per_dpu(self):
        dev = fresh_device()
        dev.load("W", np.zeros((8, 8), dtype=np.uint32))
        dev.gemv("W", np.zeros(8, dtype=np.uint32))
        assert dev.report.bytes_h2d == 8 * 8 * 4 + 4 * (8 * 4)

    def test_capacity_enforced(self, monkeypatch):
        monkeypatch.setattr(pimsim, "DPU_COUNT", 1)
        monkeypatch.setattr(pimsim, "MRAM_BYTES_PER_DPU", 64)
        with pytest.raises(CapacityError):
            fresh_device().load("big", np.zeros(32, dtype=np.uint32))

    def test_capacity_counts_the_row_split_per_dpu(self, monkeypatch):
        """64 words over 4 DPUs fill 64 B on each; one word more does not fit."""
        monkeypatch.setattr(pimsim, "MRAM_BYTES_PER_DPU", 64)
        dev = fresh_device()
        dev.load("W", np.zeros((8, 8), dtype=np.uint32))
        with pytest.raises(CapacityError):
            dev.load("x", np.zeros(1, dtype=np.uint32))

    def test_budget_boundary_is_one_rule(self, monkeypatch):
        """A placed 16 x 4 matrix fills exactly 64 B on each of the 4 DPUs:
        the workload check and the device load both accept it, and both
        reject one more row."""
        monkeypatch.setattr(pimsim, "MRAM_BYTES_PER_DPU", 64)
        merged_params("linreg", {"samples": 16, "features": 4}, "pim_runtime")
        fresh_device().load("X", np.zeros((16, 4), dtype=np.uint32))
        with pytest.raises(ConfigError, match="device budget"):
            merged_params("linreg", {"samples": 17, "features": 4},
                          "pim_runtime")
        with pytest.raises(CapacityError):
            fresh_device().load("X", np.zeros((17, 4), dtype=np.uint32))


class TestKernels:
    def test_gemv_hand_instance(self):
        dev = fresh_device()
        dev.load("W", np.asarray([[1, 2], [3, 4]], dtype=np.uint32))
        y = dev.gemv("W", np.asarray([1, 1], dtype=np.uint32))
        assert y.tolist() == [3, 7]
        assert dev.report.device_mac_ops == 4

    def test_gemv_identity(self):
        dev = fresh_device()
        dev.load("I", np.eye(5, dtype=np.uint32))
        x = np.arange(5, dtype=np.uint32)
        assert np.array_equal(dev.gemv("I", x), x)

    def test_gemv_dimension_mismatch(self):
        dev = fresh_device()
        dev.load("W", np.zeros((2, 2), dtype=np.uint32))
        with pytest.raises(DimensionError):
            dev.gemv("W", np.zeros(3, dtype=np.uint32))

    def test_matvec_cols_is_transpose(self):
        """One row per DPU: each partial is its own row times its e entry,
        and the partials sum to X.T @ e."""
        dev = fresh_device()
        X = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)
        dev.load("X", X)
        g = dev.matvec_cols("X", np.asarray([1, 1], dtype=np.uint32))
        assert g.tolist() == [[1, 2], [3, 4]]
        assert g.sum(axis=0, dtype=np.uint32).tolist() == [4, 6]

    def test_matvec_rows_matches_plaintext_dot(self):
        dev = fresh_device()
        X = np.asarray([[1, 0], [0, 1]], dtype=np.uint32)
        dev.load("X", X)
        assert dev.matvec_rows("X", np.asarray([2, 3], dtype=np.uint32)) \
            .tolist() == [2, 3]

    def test_embedding_hand_instance(self):
        dev = fresh_device()
        dev.load("T", np.asarray([[1, 2], [3, 4], [5, 6]], dtype=np.uint32))
        out = dev.embedding("T", np.asarray([[0, 2]]),
                            np.asarray([[1, 1]], dtype=np.uint32))
        assert out.tolist() == [[6, 8]]

    def test_embedding_zero_weights(self):
        dev = fresh_device()
        dev.load("T", rand_words(np.random.default_rng(0), (8, 4)))
        out = dev.embedding("T", np.arange(4).reshape(2, 2),
                            np.zeros((2, 2), dtype=np.uint32))
        assert out.shape == (2, 4)
        assert not out.any()

    def test_embedding_pf1_selects_row(self):
        dev = fresh_device()
        T = np.asarray([[9, 9], [7, 5]], dtype=np.uint32)
        dev.load("T", T)
        out = dev.embedding("T", np.asarray([[1]]),
                            np.asarray([[1]], dtype=np.uint32))
        assert out.tolist() == [[7, 5]]

    def test_embedding_ids_wrap_modulo_rows(self):
        """The ids cross the channel in clear, so the device indexes with
        whatever arrives: an id past the table wraps, never IndexError."""
        dev = fresh_device()
        dev.load("T", np.asarray([[9, 9], [7, 5]], dtype=np.uint32))
        out = dev.embedding("T", np.asarray([[5]]),
                            np.asarray([[1]], dtype=np.uint32))
        assert out.tolist() == [[7, 5]]
        assert dev.report.bytes_h2d == 16 + 4 + 4   # table, id, weight


class TestEncDecKernels:
    def test_gemv_enc_round_trip(self, ks):
        dev = fresh_device()
        W = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)
        dev.load("W", W)
        ctx_in, ctx_out = ctx(version=1), ctx(version=2)
        sealed_x = ks.seal(ctx_in, np.asarray([1, 1], dtype=np.uint32))
        y = ks.open(ctx_out, dev.gemv_enc("W", sealed_x, ks, ctx_in, ctx_out))
        assert y.tolist() == [3, 7]
        assert dev.report.device_prf_calls > 0


def ring_oracle(X, e):
    """X.T @ e mod 2^32 over Python ints."""
    return np.asarray([sum(int(a) * int(b) for a, b in zip(col, e)) % (1 << 32)
                       for col in X.T], dtype=np.uint32)


class TestGradientTraffic:
    """X.T @ e scatters e, one copy in all, and gathers one partial per DPU
    that holds rows, ceil(rows / DPU_COUNT) rows each."""

    # (rows, cols, DPUs that hold rows)
    SHAPES = [(768, 32, 4), (101, 4, 4), (3, 2, 3), (1, 2, 1)]

    @staticmethod
    def operands(rows, cols):
        rng = np.random.default_rng(rows)
        return (rng.integers(0, 1 << 32, (rows, cols), dtype=np.uint32),
                rng.integers(0, 1 << 32, rows, dtype=np.uint32))

    @staticmethod
    def assert_partials(parts, X, e, blocks):
        """Each partial is its own row block's X_d.T @ e_d."""
        step = -(-len(X) // pimsim.DPU_COUNT)
        assert parts.shape == (blocks, X.shape[1])
        for d, part in enumerate(parts):
            rows = slice(d * step, (d + 1) * step)
            assert np.array_equal(part, ring_oracle(X[rows], e[rows]))
        assert np.array_equal(parts.sum(axis=0, dtype=np.uint32),
                              ring_oracle(X, e))

    @pytest.mark.parametrize("rows, cols, blocks", SHAPES)
    def test_matvec_cols_bytes(self, rows, cols, blocks):
        X, e = self.operands(rows, cols)
        dev = fresh_device()
        dev.load("X", X)
        before = dataclasses.replace(dev.report)
        parts = dev.matvec_cols("X", e)
        assert dev.report.bytes_h2d - before.bytes_h2d == 4 * rows
        assert dev.report.bytes_d2h - before.bytes_d2h == 4 * cols * blocks
        self.assert_partials(parts, X, e, blocks)

    @pytest.mark.parametrize("rows, cols, blocks", SHAPES)
    def test_matvec_enc_transpose_bytes(self, ks, rows, cols, blocks):
        X, e = self.operands(rows, cols)
        ctx_mat, ctx_out = ctx(version=1), ctx(version=2)
        dev = fresh_device()
        dev.load("X", ks.seal(ctx_mat, X))
        before = dataclasses.replace(dev.report)
        sealed = dev.matvec_enc("X", e, ks, ctx_mat, ctx_out, transpose=True)
        assert dev.report.bytes_h2d - before.bytes_h2d == 4 * rows
        assert dev.report.bytes_d2h - before.bytes_d2h == 4 * cols * blocks
        self.assert_partials(ks.open(ctx_out, sealed), X, e, blocks)


class TestTamper:
    def test_device_result_mutates_one_word(self):
        dev = fresh_device()
        W = np.eye(8, dtype=np.uint32)
        dev.load("W", W)
        x = np.arange(1, 9, dtype=np.uint32)
        dev.arm_tamper(TamperSpec("device_result"))
        y = dev.gemv("W", x)
        assert (y != x).sum() == 1
        assert dev.tamper_log[0]["target"] == "device_result"

    def test_bit_flip_changes_exactly_one_bit(self):
        dev = fresh_device()
        dev.load("W", np.eye(8, dtype=np.uint32))
        x = np.arange(1, 9, dtype=np.uint32)
        dev.arm_tamper(TamperSpec("channel_d2h", mutation="bit_flip"))
        y = dev.gemv("W", x)
        assert np.unpackbits((y ^ x).view(np.uint8)).sum() == 1

    def test_positioned_tamper(self):
        dev = fresh_device()
        dev.load("W", np.eye(4, dtype=np.uint32))
        x = np.asarray([5, 6, 7, 8], dtype=np.uint32)
        dev.arm_tamper(TamperSpec("device_result", position=2))
        y = dev.gemv("W", x)
        assert (y != x).tolist() == [False, False, True, False]

    def test_resident_share_mutation_persists(self):
        dev = fresh_device()
        dev.load("X", np.zeros((4, 4), dtype=np.uint32))
        dev.arm_tamper(TamperSpec("resident_share"))
        y1 = dev.gemv("X", np.ones(4, dtype=np.uint32))
        y2 = dev.gemv("X", np.ones(4, dtype=np.uint32))
        assert y1.any() and np.array_equal(y1, y2)

    def test_tamper_fires_once(self):
        dev = fresh_device()
        dev.load("W", np.eye(4, dtype=np.uint32))
        x = np.arange(1, 5, dtype=np.uint32)
        dev.arm_tamper(TamperSpec("device_result"))
        dev.gemv("W", x)
        assert np.array_equal(dev.gemv("W", x), x)
        assert len(dev.tamper_log) == 1

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            TamperSpec("nonsense")
        with pytest.raises(ValueError):
            TamperSpec("device_result", mutation="scramble")

    @pytest.mark.parametrize("kwargs, field", [
        ({"target": "nonsense"}, "target"),
        ({"mutation": "scramble"}, "mutation"),
        ({"position": "x"}, "position"),
        ({"position": ""}, "position"),
        ({"position": 1.5}, "position"),
        ({"position": True}, "position"),
        ({"position": None}, "position"),
    ], ids=repr)
    def test_bad_spec_is_config_error_at_construction(self, kwargs, field):
        """Each field is checked when the spec is built, not when it fires,
        and the error names the field."""
        with pytest.raises(ConfigError, match=field):
            TamperSpec(**{"target": "device_result", **kwargs})


class TestTamperPoint:
    """``Tamper`` on its own: the one fire-once and log path of every
    surface."""

    WORDS = np.arange(1, 9, dtype=np.uint32)

    def test_spec_fires_once(self):
        t = Tamper()
        t.arm(TamperSpec("device_result"))
        hit = t.hit("device_result", self.WORDS)
        assert (hit != self.WORDS).sum() == 1
        assert t.hit("device_result", self.WORDS) is self.WORDS
        assert [e["target"] for e in t.log] == ["device_result"]

    def test_unarmed_hit_returns_the_same_object(self):
        """A hit on a target no spec is armed for changes nothing, and the
        spec armed for another target stays armed until its own is hit."""
        t = Tamper()
        assert t.hit("channel_h2d", self.WORDS) is self.WORDS
        t.arm(TamperSpec("resident_share", position=0))
        assert t.hit("channel_h2d", self.WORDS) is self.WORDS
        assert t.hit("channel_d2h", self.WORDS) is self.WORDS
        assert t.log == []
        assert t.hit("resident_share", self.WORDS.copy())[0] != self.WORDS[0]
        assert t.log[0]["target"] == "resident_share"
        assert t.hit("resident_share", self.WORDS) is self.WORDS

    @pytest.mark.parametrize("scheme", ["pim_runtime", "pim_precompute"])
    def test_unarmed_sealed_hits_draw_nothing(self, scheme):
        """A verified run passes every sealed opener through an unarmed
        ``hit``: the tamper RNG stays where a fresh one starts."""
        _words, sess = run_workload("mlp", SchemeConfig(scheme, verify=True), 3,
                                    {"depth": 2, "dim": 8})
        assert sess.tamper.log == []
        assert (sess.tamper._rng.bit_generator.state
                == Tamper(3)._rng.bit_generator.state)

    def test_int_position_wraps_modulo_size(self):
        t = Tamper()
        t.arm(TamperSpec("device_result", position=8 * 3 + 2))
        hit = t.hit("device_result", self.WORDS.reshape(2, 4))
        assert (hit.reshape(-1) != self.WORDS).tolist() == [
            i == 2 for i in range(8)]
        assert t.log[0]["index"] == 2

    @pytest.mark.parametrize("position", [0, 5, 21, 2 * 3 * 8 + 9])
    def test_uint64_words_are_two_uint32_words(self, position):
        """A uint64 array is hit as its uint32 words, low word first, and a
        position wraps modulo their count."""
        rows = np.arange(1, 25, dtype=np.uint64).reshape(2, 3, 4) * 0x100000001
        t = Tamper()
        t.arm(TamperSpec("gc_table", "bit_flip", position))
        out = t.hit("gc_table", rows)
        words, hit = rows.view(np.uint32).ravel(), out.view(np.uint32).ravel()
        assert np.flatnonzero(words != hit).tolist() == [position % 48]
        assert np.unpackbits((words ^ hit).view(np.uint8)).sum() == 1
        assert t.log[0]["index"] == position % 48

    @pytest.mark.parametrize("target", TAMPER_TARGETS)
    def test_empty_array_leaves_the_spec_armed(self, target):
        t = Tamper()
        t.arm(TamperSpec(target))
        for empty in (np.empty(0, dtype=np.uint32),
                      np.empty((3, 0, 4), dtype=np.uint64)):
            assert t.hit(target, empty) is empty
        assert t.log == []
        assert (t.hit(target, self.WORDS.copy()) != self.WORDS).sum() == 1
        assert [e["target"] for e in t.log] == [target]

    @pytest.mark.parametrize("target", TAMPER_TARGETS)
    def test_hit_persists_at_rest_and_copies_in_transit(self, target):
        """A hit on stored words mutates them in place, so every later read
        sees it; a hit in transit mutates a copy and leaves its input."""
        at_rest = {"resident_share", "sealed_tags", "sealed_precompute"}
        assert pimsim.AT_REST == at_rest
        words = self.WORDS.copy()
        t = Tamper()
        t.arm(TamperSpec(target))
        hit = t.hit(target, words)
        assert (hit != self.WORDS).sum() == 1
        if target in at_rest:
            assert hit is words
        else:
            assert hit is not words and np.array_equal(words, self.WORDS)

    def test_resident_hit_after_store_leaves_the_callers_words(self):
        """``store`` keeps its own copy, so a resident hit mutates the
        device's words, never the caller's array."""
        dev = fresh_device()
        dev.load("W", np.zeros((2, 4), dtype=np.uint32))
        words = self.WORDS.reshape(2, 4).copy()
        dev.store("W", words)
        dev.arm_tamper(TamperSpec("resident_share"))
        y = dev.gemv("W", np.ones(4, dtype=np.uint32))
        assert np.array_equal(words, self.WORDS.reshape(2, 4))
        assert not np.array_equal(y, words.sum(axis=1, dtype=np.uint32))
        assert np.array_equal(dev.gemv("W", np.ones(4, dtype=np.uint32)), y)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("position", [1, 13, 29])
    def test_gc_table_spec_hits_word_k_of_the_first_stage(self, mutation,
                                                           position):
        """A ``gc_table`` spec at position k mutates 32-bit word k of the
        rows the first AND stage decrypts (one gate, four copies, eight
        words a row) and logs k: in a check half (k = 1, 29) the row check
        fails there, in an output-label half (k = 13) at a later gate."""
        sess = Session(SchemeConfig("pim_runtime", variant="A2Y"), 0)
        seen = []
        hit = sess.tamper.hit

        def record(target, arr):
            out = hit(target, arr)
            if target == "gc_table":
                seen.append((arr, out))
            return out

        sess.tamper.hit = record
        sess.tamper.arm(TamperSpec("gc_table", mutation, position))
        with pytest.raises(GcEvaluationFault):
            sess.a2y_activation(np.arange(4, dtype=np.uint32) * 1000)
        rows, hit_rows = seen[0]
        assert rows.shape == (1, 4, 4)
        words = rows.view(np.uint32).ravel()
        hit_words = hit_rows.view(np.uint32).ravel()
        assert np.flatnonzero(words != hit_words).tolist() == [position]
        assert sess.tamper.log == [{"target": "gc_table", "mutation": mutation,
                                    "index": position}]

    @pytest.mark.parametrize("target", ["gc_table", "device_result"])
    def test_empty_a2y_vector_leaves_gc_spec_armed(self, target):
        """An empty batch offers empty rows and an empty result, so neither
        spec fires until a vector with a scalar arrives."""
        sess = Session(SchemeConfig("pim_runtime", variant="A2Y"), 0)
        sess.tamper.arm(TamperSpec(target))
        assert sess.a2y_activation(np.empty(0, dtype=np.uint32)).size == 0
        assert sess.tamper.log == []
        x = np.asarray([2048], dtype=np.uint32)
        if target == "gc_table":
            with pytest.raises(GcEvaluationFault):
                sess.a2y_activation(x)
        else:   # the returned word is not authenticated yet
            assert sess.a2y_activation(x)[0] != ring.clamp_unit_array(x)[0]
        assert [e["target"] for e in sess.tamper.log] == [target]

    def test_session_device_shares_the_tamper_log(self):
        sess = Session(SchemeConfig("pim_runtime"), 0)
        assert sess.device.tamper is sess.tamper
        assert sess.device.tamper_log is sess.tamper.log
        sess.device.arm_tamper(TamperSpec("device_result"))
        sess.tamper.hit("device_result", self.WORDS)
        assert len(sess.device.tamper_log) == 1


class TestCostDeterminism:
    def test_identical_runs_identical_reports(self):
        reports = []
        for _ in range(2):
            dev = fresh_device()
            dev.load("W", np.eye(8, dtype=np.uint32))
            dev.gemv("W", np.arange(8, dtype=np.uint32))
            reports.append(dataclasses.asdict(dev.report))
        assert reports[0] == reports[1]


def _scenarios():
    """Every verified default device scenario: each workload x device
    scheme that ``merged_params`` allows, and A2Y ``logreg`` likewise."""
    allowed = [(w, s) for w in sorted(WORKLOADS) for s in sorted(DEVICE_SCHEMES)
               if not (w in TRAINING_WORKLOADS and s == "pim_precompute")]
    return ([(w, s, "A") for w, s in allowed]
            + [(w, s, "A2Y") for w, s in allowed if w == "logreg"])


class TestChannelInvariant:
    """The bytes the ledger charges to the channel are the bytes offered to
    the ``channel_*`` hooks, a broadcast once per DPU: a transfer that skips
    the tamper point fails here."""

    SCENARIOS = _scenarios()

    def test_covers_every_default_device_scenario(self):
        assert len(self.SCENARIOS) == 25

    @pytest.mark.parametrize("workload, scheme, variant", SCENARIOS)
    def test_hooks_see_every_charged_byte(self, monkeypatch, workload, scheme,
                                          variant):
        offered = {"channel_h2d": 0, "channel_d2h": 0}
        copies = [1]
        hit, broadcast = Tamper.hit, PimDevice._broadcast

        def counting_hit(self, target, arr):
            if target in offered:
                offered[target] += arr.nbytes * copies[0]
            return hit(self, target, arr)

        def counting_broadcast(self, vec):
            copies[0] = pimsim.DPU_COUNT
            try:
                return broadcast(self, vec)
            finally:
                copies[0] = 1

        monkeypatch.setattr(Tamper, "hit", counting_hit)
        monkeypatch.setattr(PimDevice, "_broadcast", counting_broadcast)
        cfg = SchemeConfig(scheme, verify=True, variant=variant)
        _words, sess = run_workload(workload, cfg, 0)
        charged = {"channel_h2d": sess.offline.bytes_h2d + sess.online.bytes_h2d,
                   "channel_d2h": sess.offline.bytes_d2h + sess.online.bytes_d2h}
        assert offered == charged
        assert min(charged.values()) > 0


def _default_runs():
    """Every default (workload, scheme, verify, variant) that
    ``merged_params`` accepts: A on each workload, A2Y on ``logreg``."""
    runs = []
    for w in sorted(WORKLOADS):
        variants = ("A", "A2Y") if w == "logreg" else ("A",)
        for s in SCHEMES:
            try:
                merged_params(w, None, s)
            except ConfigError:
                continue
            runs += [(w, s, v, a) for v in (False, True) for a in variants]
    return runs


class TestKeystreamInvariant:
    """Every keystream block the host's ``KeyStore`` encrypts is charged:
    the blocks outside ``STREAM_GC`` are the host and device PRF calls of
    both phases, and the ``STREAM_GC`` blocks, uncharged, are one garbling
    seed per A2Y scalar.  A keystream read that forgets ``on_prf`` fails
    here."""

    RUNS = _default_runs()

    def test_covers_every_default_run(self):
        assert len(self.RUNS) == 78

    @pytest.mark.parametrize("workload, scheme, verify, variant", RUNS)
    def test_every_block_is_charged(self, monkeypatch, workload, scheme,
                                    verify, variant):
        encrypted = {"prf": 0, "gc": 0}
        blocks = KeyStore._blocks

        def counting_blocks(self, key_id, version, stream_id, index, nblocks,
                            on_prf):
            encrypted["gc" if stream_id == STREAM_GC else "prf"] += nblocks
            return blocks(self, key_id, version, stream_id, index, nblocks,
                          on_prf)

        monkeypatch.setattr(KeyStore, "_blocks", counting_blocks)
        cfg = SchemeConfig(scheme, verify=verify, variant=variant)
        _words, sess = run_workload(workload, cfg, 0)
        charged = sum(r.host_prf_calls + r.device_prf_calls
                      for r in (sess.offline, sess.online))
        assert encrypted == {"prf": charged, "gc": sess.a2y_scalars}


class TestMasking:
    """What the device receives of a private operand depends on the session
    key: under two keys at one input seed, every word of each private
    matrix it loads (an ``X`` or ``T`` handle) and of each private vector a
    PublicMatrixOp sends (``gemv`` or ``gemv_enc`` on a ``W`` handle)
    differs.  pim_insecure is the control: it receives the same words."""

    CASES = [(w, s) for w, s, variant in _scenarios() if variant == "A"]

    def test_covers_every_device_scheme_a_workload_runs_on(self):
        assert len(self.CASES) == 22

    @staticmethod
    def received(workload, scheme, key_seed):
        """The private words the device receives in one run of the body."""
        sess = Session(SchemeConfig(scheme), key_seed)
        dev, seen = sess.device, []

        def recording(call, prefixes):
            def record(name, words, *rest):
                if name[0] in prefixes:
                    seen.append(np.array(words))
                return call(name, words, *rest)
            return record

        dev.load = recording(dev.load, "XT")
        dev.gemv = recording(dev.gemv, "W")
        dev.gemv_enc = recording(dev.gemv_enc, "W")
        p = merged_params(workload, None, scheme)
        WORKLOADS[workload][0](
            sess, WORKLOADS[workload][3](np.random.default_rng(0), p), p)
        return seen

    @pytest.mark.parametrize("workload, scheme", CASES)
    def test_private_words_depend_on_the_key(self, workload, scheme):
        a, b = (self.received(workload, scheme, k) for k in (0, 1))
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            if scheme == "pim_insecure":
                assert np.array_equal(x, y)
            else:
                assert np.all(x != y), f"{np.sum(x == y)} of {x.size} equal"
