"""Application kernels: plaintext fixed-point oracles, structural counters,
convergence sanity, and the derived GEMM/convolution lowerings.

The oracles re-derive every result with plain signed numpy arithmetic,
independently of the sharing/device machinery.
"""

import gc
import weakref

import numpy as np
import pytest

from securepim import ring
from securepim.cli import build_report, render
from securepim.errors import ConfigError
from securepim.host import (
    DEVICE_SCHEMES,
    SCHEMES,
    PrivateMatrixOp,
    SchemeConfig,
    Session,
)
from securepim.workloads import (
    LOGREG_DEFAULTS,
    TRAINING_WORKLOADS,
    WORKLOADS,
    _raw,
    merged_params,
    run_workload,
    unroll_conv_input,
)

MASK = ring.MASK


def signed(a):
    return ring.to_signed_array(np.asarray(a, dtype=np.uint32))


def gemv_oracle(W, x):
    return ((signed(W).reshape(W.shape) @ signed(x)) & MASK).astype(np.uint32)


def raw_int64(rng, lo, hi, shape):
    """The int64 draw masked to ring words, which ``_raw`` must equal."""
    vals = rng.integers(int(lo * ring.ONE), int(hi * ring.ONE) + 1, size=shape)
    return (vals & MASK).astype(np.uint32)


class TestRawDraw:
    """``_raw`` draws int32; the tests above use it as their own oracle, so
    this pins it to the int64 formula it replaced."""

    @pytest.mark.parametrize("lo, hi", [(-1 / 32, 1 / 32), (-1, 1), (-0.25, 0.25)])
    @pytest.mark.parametrize("shape", [(384, 384), (768, 32), (4096, 16), (32, 2),
                                       384, 1, 7, (5, 3), (3, 1, 2), 0, (0, 4)])
    def test_equals_the_int64_draw_and_stream(self, lo, hi, shape):
        for seed in (0, 1, 11, 2101, 1 << 40):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _raw(ours, lo, hi, shape)
            want = raw_int64(theirs, lo, hi, shape)
            assert got.dtype == np.uint32 and got.shape == want.shape
            assert np.array_equal(got, want)
            # same stream position, the buffered half of a 64-bit word included
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert ours.integers(-5, 5, size=3).tolist() \
                == theirs.integers(-5, 5, size=3).tolist()
            assert ours.random() == theirs.random()


class TestMlpOracle:
    def test_matches_plaintext_pipeline(self):
        seed, depth, dim = 11, 10, 16
        rng = np.random.default_rng(seed)
        weights = [_raw(rng, -1 / 32, 1 / 32, (dim, dim)) for _ in range(depth)]
        x = _raw(rng, -1, 1, dim)
        for W in weights:
            y = gemv_oracle(W, x)
            x = ring.relu_array(ring.trunc_array(y))
        got, _ = run_workload("mlp", SchemeConfig("cpu_insecure"), seed)
        assert np.array_equal(got, x)

    def test_reshare_count_nine_for_ten_layers(self):
        _, sess = run_workload("mlp", SchemeConfig("pim_runtime"), seed=0)
        assert sess.reshare_events == 9

    def test_verification_count_ten(self):
        _, sess = run_workload("mlp", SchemeConfig("pim_runtime", verify=True),
                               seed=0)
        assert sess.online.verify_ops == 10
        assert all(e["ok"] for e in sess.verification_events)


class TestDlrm:
    def test_matches_gather_reduce_oracle(self):
        seed = 5
        p = WORKLOADS["dlrm"][1]
        rng = np.random.default_rng(seed)
        expect = []
        for _ in range(p["tables"]):
            table = _raw(rng, -1, 1, (p["rows"], p["cols"]))
            ids = rng.integers(0, p["rows"], size=p["batch"] * p["pf"])
            ws = rng.integers(1, 4, size=ids.size).astype(np.uint32)
            for k in range(p["batch"]):
                acc = np.zeros(p["cols"], dtype=np.int64)
                for j in range(p["pf"]):
                    i = k * p["pf"] + j
                    acc += signed(table[ids[i]]) * int(ws[i])
                expect.append((acc & MASK).astype(np.uint32))
        got, _ = run_workload("dlrm", SchemeConfig("cpu_insecure"), seed)
        assert np.array_equal(got, np.concatenate(expect))


class TestRegression:
    def test_zero_iterations_leaves_weights_unchanged(self):
        w, _ = run_workload("linreg", SchemeConfig("cpu_insecure"), seed=0,
                            params={"iterations": 0})
        assert not w.any()

    def test_linreg_matches_plaintext_trainer_oracle(self):
        seed = 3
        p = WORKLOADS["linreg"][1]
        rng = np.random.default_rng(seed)
        X = _raw(rng, -0.25, 0.25, (p["samples"], p["features"]))
        y = _raw(rng, -1, 1, p["samples"])
        lr = ring.fx_encode_nearest(p["lr"])
        w = np.zeros(p["features"], dtype=np.uint32)
        for _ in range(p["iterations"]):
            pred = ring.trunc_array(gemv_oracle(X, w))
            e = pred - y
            g = ring.trunc_array(
                ((signed(X).reshape(X.shape).T @ signed(e)) & MASK)
                .astype(np.uint32))
            w = w - ring.fx_mul_trunc_array(g, lr)
        got, _ = run_workload("linreg", SchemeConfig("cpu_insecure"), seed)
        assert np.array_equal(got, w)

    def test_logreg_activation_at_margin_is_half(self):
        # zero weights -> zero margin -> clamp gives 0.5 on every sample
        x = np.zeros(4, dtype=np.uint32)
        assert ring.clamp_unit_array(x).tolist() == [2048] * 4

    @pytest.mark.parametrize("seed", [940402, 2000072, 2920275, 3520722,
                                      4030480, 4130012])
    def test_logreg_weights_leave_zero(self, seed):
        """Seeds whose two-step 32 x 2 run ended at w = 0 when the features
        were drawn apart from the labels.  With the label planted in every
        feature, X.T @ e < 0 at w = 0, so one step makes every weight
        positive."""
        shape = {"samples": 32, "features": 2, "iterations": 2, "lr": 0.05}
        cfg = SchemeConfig("cpu_insecure")
        first, _ = run_workload("logreg", cfg, seed, {**shape, "iterations": 1})
        assert (signed(first) > 0).all()
        w, _ = run_workload("logreg", cfg, seed, shape)
        assert w.any()

    def test_verification_two_per_iteration(self):
        for name in ("linreg", "logreg"):
            _, sess = run_workload(
                name, SchemeConfig("pim_runtime", verify=True), seed=0,
                params={"iterations": 7})
            assert sess.online.verify_ops == 14

    def test_a2y_variant_bit_identical_to_host_clamp(self):
        cfg_a = SchemeConfig("pim_runtime", variant="A")
        cfg_y = SchemeConfig("pim_runtime", variant="A2Y")
        params = {"iterations": 3}
        wa, _ = run_workload("logreg", cfg_a, seed=2, params=params)
        wy, sess = run_workload("logreg", cfg_y, seed=2, params=params)
        assert np.array_equal(wa, wy)
        assert sess.a2y_scalars == 3 * LOGREG_DEFAULTS["samples"]

    def test_convergence_on_convex_toy(self):
        """Package-level GD on X = I, y = (1, 2): loss nonincreasing, weights
        approach y."""
        X = np.diag([ring.ONE, ring.ONE]).astype(np.uint32)
        y = np.asarray([ring.fx_encode(1.0), ring.fx_encode(2.0)],
                       dtype=np.uint32)
        lr = ring.fx_encode(0.25)
        sess = Session(SchemeConfig("pim_runtime"), seed=0)
        op = PrivateMatrixOp(sess, X)
        w = np.zeros(2, dtype=np.uint32)
        losses = []
        for _ in range(60):
            pred = ring.trunc_array(op.matvec(w))
            e = pred - y
            losses.append(int((signed(e) ** 2).sum()))
            g = ring.trunc_array(op.matvec_t(e))
            w = w - ring.fx_mul_trunc_array(g, lr)
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        final = signed(w)
        assert abs(final[0] - ring.ONE) <= 8
        assert abs(final[1] - 2 * ring.ONE) <= 8


class TestGemmConv:
    def test_gemm_with_identity_returns_a(self):
        rng = np.random.default_rng(7)
        A = _raw(rng, -1, 1, (6, 6))
        I_enc = np.diag([ring.ONE] * 6).astype(np.uint32)
        sess = Session(SchemeConfig("pim_runtime"), seed=0)
        cols = [np.ascontiguousarray(I_enc[:, j]) for j in range(6)]
        op = PrivateMatrixOp(sess, A, vectors=cols)
        out = np.stack([ring.trunc_array(op.matvec(c)) for c in cols], axis=1)
        assert np.array_equal(out, A)

    def test_gemm_matches_oracle(self):
        seed = 9
        p = WORKLOADS["gemm"][1]
        rng = np.random.default_rng(seed)
        A = _raw(rng, -1, 1, (p["n"], p["n"]))
        B = _raw(rng, -1, 1, (p["n"], p["n"]))
        prod = signed(A).reshape(A.shape) @ signed(B).reshape(B.shape)
        expect = ((prod >> 12) & MASK).astype(np.uint32)
        got, _ = run_workload("gemm", SchemeConfig("cpu_insecure"), seed)
        assert np.array_equal(got, expect.ravel())

    def test_unroll_shape_and_content(self):
        img = np.arange(16, dtype=np.uint32).reshape(4, 4)
        U = unroll_conv_input(img, 2, 2)
        assert U.shape == (4, 4)
        assert U[0].tolist() == [0, 1, 4, 5]
        assert U[3].tolist() == [10, 11, 14, 15]

    def test_conv_of_ones(self):
        """2x2 kernel of ones, stride 2, on a 4x4 image of ones: every output
        is 4.0 (direct convolution oracle)."""
        one = ring.fx_encode(1.0)
        img = np.full((4, 4), one, dtype=np.uint32)
        kern = np.full((2, 2), one, dtype=np.uint32)
        U = unroll_conv_input(img, 2, 2)
        sess = Session(SchemeConfig("pim_runtime"), seed=0)
        op = PrivateMatrixOp(sess, U, vectors=[kern.ravel()])
        out = ring.trunc_array(op.matvec(kern.ravel()))
        assert out.tolist() == [ring.fx_encode(4.0)] * 4

    def test_conv_matches_direct_oracle(self):
        seed = 13
        p = WORKLOADS["conv"][1]
        rng = np.random.default_rng(seed)
        img = _raw(rng, -1, 1, (p["size"], p["size"]))
        kern = _raw(rng, -1, 1, (p["kernel"], p["kernel"]))
        expect = []
        for i in range(0, p["size"] - p["kernel"] + 1, p["stride"]):
            for j in range(0, p["size"] - p["kernel"] + 1, p["stride"]):
                patch = signed(img[i:i + p["kernel"], j:j + p["kernel"]])
                acc = int((patch.reshape(p["kernel"], -1)
                           * signed(kern)).sum())
                expect.append((acc >> 12) & MASK)
        got, _ = run_workload("conv", SchemeConfig("cpu_insecure"), seed)
        assert got.tolist() == expect


class TestDispatch:
    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            run_workload("fft", SchemeConfig("cpu_insecure"), 0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name, params", [
        ("mlp", {"dim": 1000000, "depth": 1}),
        ("mlp", {"dim": 2048, "depth": 2}),      # 8 MiB per DPU, twice the budget
        ("mlp", {"dim": 1 << 23, "depth": 0}),   # no matrix: the input alone
        ("dlrm", {"tables": 1 << 40}),
        ("dlrm", {"batch": 1 << 30}),
        ("linreg", {"samples": 1 << 40}),
        ("gemm", {"n": 1 << 20}),
        ("conv", {"size": 1 << 20, "kernel": 1, "stride": 1 << 20}),
    ])
    def test_over_budget_rejected_on_every_scheme(self, scheme, name, params,
                                                  monkeypatch):
        """Rejected before any input is drawn, whatever the scheme."""
        def no_draw(seed):
            raise AssertionError("inputs drawn before the budget check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ConfigError, match="device budget"):
            run_workload(name, SchemeConfig(scheme), 0, params)

    def test_budget_matches_device_load(self):
        """The largest MLP layer the device holds is accepted: 2048 x 2048
        words fill exactly 4 MiB on each of the 4 DPUs."""
        words, sess = run_workload("mlp", SchemeConfig("pim_insecure"), 0,
                                   {"dim": 2048, "depth": 1})
        assert words.size == 2048

    @pytest.mark.parametrize("name", ["linreg", "logreg"])
    def test_precompute_rejected_for_training(self, name):
        with pytest.raises(ConfigError):
            run_workload(name, SchemeConfig("pim_precompute"), 0)


class TestPhases:
    DEVICE_RUNS = [(name, scheme) for name in sorted(WORKLOADS)
                   for scheme in sorted(DEVICE_SCHEMES)
                   if not (name in TRAINING_WORKLOADS
                           and scheme == "pim_precompute")]

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("name, scheme", DEVICE_RUNS)
    def test_placed_operands_load_offline(self, name, scheme, verify):
        """Every default device scenario loads its placed matrices in the
        offline phase: offline bytes_h2d is their size, nothing else."""
        _, sess = run_workload(name, SchemeConfig(scheme, verify=verify), 0)
        matrices = WORKLOADS[name][2](merged_params(name, None, scheme))[0]
        assert sess.offline.bytes_h2d == 4 * sum(n * w for n, w in matrices)
        assert sess.offline.bytes_h2d > 0


class TestInputReuse:
    """``run_workload`` keeps the inputs of its last (workload, seed,
    params) and hands them, read-only, to the next run at that key, whatever
    its scheme; any other key draws anew."""

    RUNS = [(name, scheme) for name in sorted(WORKLOADS) for scheme in SCHEMES
            if not (name in TRAINING_WORKLOADS and scheme == "pim_precompute")]

    @staticmethod
    def count_draws(monkeypatch):
        """The seeds of the input generators made from now on; the tamper
        generator of each session is seeded with a SeedSequence instead."""
        seeds, make = [], np.random.default_rng

        def counting(seed=None):
            if not isinstance(seed, np.random.SeedSequence):
                seeds.append(seed)
            return make(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        return seeds

    @staticmethod
    def capture_inputs(monkeypatch, name):
        """The inputs each run of ``name``'s body receives, in order."""
        seen, (body, *rest) = [], WORKLOADS[name]

        def capturing(sess, inputs, p):
            seen.append(inputs)
            return body(sess, inputs, p)

        monkeypatch.setitem(WORKLOADS, name, (capturing, *rest))
        return seen

    @staticmethod
    def report(name, scheme, seed=4):
        words, sess = run_workload(name, SchemeConfig(scheme, verify=True),
                                   seed)
        return render(build_report({}, words, sess))

    @pytest.mark.parametrize("name, scheme", RUNS)
    def test_reused_inputs_give_the_cold_run(self, name, scheme, monkeypatch):
        """After a run of another scheme at the same key, a run draws
        nothing and reports byte for byte what it reports after a run at
        another seed, which leaves the slot cold for it: digest, both
        ledgers, verification events and leaks."""
        other = "pim_runtime" if scheme == "cpu_insecure" else "cpu_insecure"
        self.report(name, other, seed=5)
        cold = self.report(name, scheme)
        self.report(name, other)
        seeds = self.count_draws(monkeypatch)
        assert self.report(name, scheme) == cold
        assert seeds == []

    def test_another_seed_or_params_draws_anew(self, monkeypatch):
        seeds = self.count_draws(monkeypatch)
        runs = [("pim_runtime", 0, None), ("cpu_insecure", 0, None),
                ("pim_precompute", 0, {"depth": 10, "dim": 16}),
                ("pim_runtime", 1, None), ("pim_runtime", 1, {"depth": 3}),
                ("pim_runtime", 1, {"dim": 16, "depth": 3}),
                ("pim_runtime", 0, {"depth": 3})]
        for scheme, seed, params in runs:
            run_workload("mlp", SchemeConfig(scheme), seed, params)
        assert seeds == [0, 1, 1, 0]

    @pytest.mark.parametrize("name, scheme, params", [
        ("mlp", "pim_runtime", {"dim": 2048, "depth": 2}),
        ("dlrm", "cpu_insecure", {"batch": 1 << 30}),
        ("linreg", "pim_precompute", None),
        ("logreg", "pim_precompute", None)])
    def test_rejected_input_neither_draws_nor_evicts(self, name, scheme,
                                                     params, monkeypatch):
        run_workload("gemm", SchemeConfig("pim_runtime"), 2)
        seeds = self.count_draws(monkeypatch)
        with pytest.raises(ConfigError):
            run_workload(name, SchemeConfig(scheme), 2, params)
        run_workload("gemm", SchemeConfig("cpu_secure"), 2)
        assert seeds == []

    def test_one_slot(self, monkeypatch):
        """A run at another key lets the last run's inputs go."""
        seen = self.capture_inputs(monkeypatch, "dlrm")
        run_workload("dlrm", SchemeConfig("pim_runtime"), 3)
        held = [weakref.ref(arr) for arr in seen.pop().values()]
        run_workload("dlrm", SchemeConfig("pim_runtime"), 4)
        gc.collect()
        assert [ref() for ref in held] == [None] * 3

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_drawn_arrays_are_read_only(self, name, monkeypatch):
        seen = self.capture_inputs(monkeypatch, name)
        run_workload(name, SchemeConfig("pim_runtime"), 6)
        assert seen[0]
        for arr in seen[0].values():
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    @pytest.mark.parametrize("scheme", ["cpu_insecure", "pim_runtime"])
    @pytest.mark.parametrize("name, params", [
        *((name, None) for name in sorted(WORKLOADS)),
        ("mlp", {"depth": 0}), ("linreg", {"iterations": 0}),
        ("logreg", {"iterations": 0})])
    def test_words_never_alias_the_inputs(self, name, params, scheme,
                                          monkeypatch):
        """Twice at one key: the second run's words are a fresh array too."""
        seen = self.capture_inputs(monkeypatch, name)
        for _ in range(2):
            words, _ = run_workload(name, SchemeConfig(scheme), 8, params)
            assert words.flags.writeable
            assert not any(np.shares_memory(words, arr)
                           for arr in seen[-1].values())
        assert seen[0] is seen[1]
