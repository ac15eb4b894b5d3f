"""Device simulator: placement and byte accounting, ring kernels, enc/dec
kernels, tamper hooks and taint checking.
"""

import dataclasses

import numpy as np
import pytest

from securepim import pimsim, ring
from securepim.crypto import KeyStore
from securepim.errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    GcEvaluationFault,
    TaintViolation,
)
from securepim.host import DEVICE_SCHEMES, SchemeConfig, Session
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


def fresh_device(secure=False):
    return PimDevice(CostReport(), Tamper(), secure_mode=secure)


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
        dev = fresh_device()
        X = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)
        dev.load("X", X)
        g = dev.matvec_cols("X", np.asarray([1, 1], dtype=np.uint32))
        assert g.tolist() == [4, 6]

    def test_matvec_rows_matches_plaintext_dot(self):
        dev = fresh_device()
        X = np.asarray([[1, 0], [0, 1]], dtype=np.uint32)
        dev.load("X", X)
        assert dev.matvec_rows("X", np.asarray([2, 3], dtype=np.uint32)) \
            .tolist() == [2, 3]

    def test_embedding_hand_instance(self):
        dev = fresh_device()
        dev.load("T", np.asarray([[1, 2], [3, 4], [5, 6]], dtype=np.uint32))
        out = dev.embedding("T", np.asarray([0, 2]),
                            np.asarray([1, 1], dtype=np.uint32), batch=1, pf=2)
        assert out.tolist() == [[6, 8]]

    def test_embedding_zero_weights(self):
        dev = fresh_device()
        dev.load("T", rand_words(np.random.default_rng(0), (8, 4)))
        out = dev.embedding("T", np.arange(4), np.zeros(4, dtype=np.uint32),
                            batch=2, pf=2)
        assert not out.any()

    def test_embedding_pf1_selects_row(self):
        dev = fresh_device()
        T = np.asarray([[9, 9], [7, 5]], dtype=np.uint32)
        dev.load("T", T)
        out = dev.embedding("T", np.asarray([1]),
                            np.asarray([1], dtype=np.uint32), batch=1, pf=1)
        assert out.tolist() == [[7, 5]]

    def test_embedding_ids_wrap_modulo_rows(self):
        """The ids cross the channel in clear, so the device indexes with
        whatever arrives: an id past the table wraps, never IndexError."""
        dev = fresh_device()
        dev.load("T", np.asarray([[9, 9], [7, 5]], dtype=np.uint32))
        out = dev.embedding("T", np.asarray([5]),
                            np.asarray([1], dtype=np.uint32), batch=1, pf=1)
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

    def test_specs_on_one_target_fire_in_armed_order(self):
        t = Tamper()
        t.arm(TamperSpec("resident_share", position=0))
        t.arm(TamperSpec("channel_d2h", position=5))
        t.arm(TamperSpec("channel_d2h", "bit_flip", position=3))
        t.hit("channel_d2h", self.WORDS)
        t.hit("channel_d2h", self.WORDS)
        assert [(e["mutation"], e["index"]) for e in t.log] == [
            ("word_randomize", 5), ("bit_flip", 3)]
        assert t.hit("channel_d2h", self.WORDS) is self.WORDS
        assert t.hit("resident_share", self.WORDS.copy())[0] != self.WORDS[0]

    def test_unarmed_hit_returns_the_same_object(self):
        t = Tamper()
        assert t.hit("channel_h2d", self.WORDS) is self.WORDS
        t.arm(TamperSpec("device_result"))
        assert t.hit("channel_h2d", self.WORDS) is self.WORDS
        assert t.log == []

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


class TestTaint:
    def test_secure_mode_rejects_plaintext_private_load(self):
        dev = fresh_device(secure=True)
        with pytest.raises(TaintViolation):
            dev.load("X", np.ones((2, 2), dtype=np.uint32),
                     secret_plaintext=True)

    def test_insecure_mode_allows_it(self):
        dev = fresh_device(secure=False)
        dev.load("X", np.ones((2, 2), dtype=np.uint32), secret_plaintext=True)

    def test_secure_mode_allows_cipher(self):
        dev = fresh_device(secure=True)
        dev.load("C", np.ones((2, 2), dtype=np.uint32))


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
