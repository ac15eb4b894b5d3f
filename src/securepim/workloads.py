"""The application kernels assembled from the outsourcing machinery.

Synthetic inputs are drawn in raw Q12 space with magnitudes sized so that
no true integer GEMV result ever wraps a signed 32-bit word; that bound is
what keeps the mod-q verification identity exact (see mac module notes).
All schemes share the same arithmetic and truncation points, so a workload's
result words are bit-identical across schemes for a fixed seed.
"""

import numbers
from functools import partial

import numpy as np

from . import pimsim, ring
from .errors import ConfigError, GcEvaluationFault, VerificationError
from .host import (
    DEVICE_SCHEMES,
    EmbeddingOp,
    PrivateMatrixOp,
    PublicMatrixOp,
    SchemeConfig,
    Session,
)

MLP_DEFAULTS = {"depth": 10, "dim": 16}
DLRM_DEFAULTS = {"tables": 4, "rows": 32, "cols": 8, "batch": 8, "pf": 4}
LINREG_DEFAULTS = {"samples": 100, "features": 4, "iterations": 50,
                   "lr": 0.001}
LOGREG_DEFAULTS = {"samples": 64, "features": 2, "iterations": 100,
                   "lr": 0.001}
GEMM_DEFAULTS = {"n": 8}
CONV_DEFAULTS = {"size": 4, "kernel": 2, "stride": 2}


def _raw(rng, lo, hi, shape):
    """Random Q12 raw words drawn uniformly from [lo, hi] in value space.

    The draw is int32, viewed as the uint32 words of the ring.  For a range
    below 2^32, ``Generator.integers`` draws int32 and int64 alike through
    the same buffered 32-bit Lemire routine, so the values and the
    generator's later stream equal those of the int64 draw masked to 32 bits.
    """
    return rng.integers(int(lo * ring.ONE), int(hi * ring.ONE) + 1, size=shape,
                        dtype=np.int32).view(np.uint32)


def draw_mlp(rng, p):
    # growth factor dim * |w|max <= 1/2 keeps activations and raw sums bounded
    depth, dim = p["depth"], p["dim"]
    return {"weights": _raw(rng, -1 / 32, 1 / 32, (depth, dim, dim)),
            "x": _raw(rng, -1, 1, dim)}


def run_mlp(sess: Session, inputs, p):
    layers = [PublicMatrixOp(sess, W, step=f"layer{i}")
              for i, W in enumerate(inputs["weights"])]
    # a copy, so that a zero-layer MLP does not return its drawn input
    x = inputs["x"].copy()
    for i, layer in enumerate(layers):
        y_raw = layer.apply(x, reshare=i > 0)
        x = ring.relu_array(ring.trunc_array(y_raw))
    return x


def draw_dlrm(rng, p):
    bags = (p["batch"], p["pf"])
    draws = [(_raw(rng, -1, 1, (p["rows"], p["cols"])),
              rng.integers(0, p["rows"], size=bags),
              rng.integers(1, 4, size=bags).astype(np.uint32))
             for _ in range(p["tables"])]
    return dict(zip(("tables", "ids", "weights"), map(np.stack, zip(*draws))))


def run_dlrm(sess: Session, inputs, p):
    outs = []
    for t, (table, ids, weights) in enumerate(
            zip(inputs["tables"], inputs["ids"], inputs["weights"])):
        op = EmbeddingOp(sess, table, step=f"table{t}")
        outs.append(op.lookup(ids, weights))
    return np.concatenate([o.ravel() for o in outs])


def _draw_regression(rng, p, logistic: bool):
    n, d = p["samples"], p["features"]
    if logistic:
        # each feature plants its row's label, +1/8 or -1/8, under noise in
        # +-1/16, so X stays inside +-1/4 and X.T @ e is negative at w = 0:
        # any lr > 0 with a non-zero Q12 code moves w off zero at once
        labels = rng.integers(0, 2, size=n)
        plant = ring.from_signed_array((2 * labels - 1) * (ring.ONE // 8))
        X = _raw(rng, -1 / 16, 1 / 16, (n, d)) + plant[:, None]
        y = (labels * ring.ONE).astype(np.uint32)
    else:
        X = _raw(rng, -0.25, 0.25, (n, d))
        y = _raw(rng, -1, 1, n)
    return {"X": X, "y": y}


def _regression(sess: Session, inputs, p, logistic: bool):
    lr_raw = ring.fx_encode_nearest(p["lr"])
    op = PrivateMatrixOp(sess, inputs["X"], step="iter")
    w = np.zeros(p["features"], dtype=np.uint32)
    a2y = sess.cfg.variant == "A2Y" and sess.cfg.scheme in DEVICE_SCHEMES
    for _ in range(p["iterations"]):
        pred = ring.trunc_array(op.matvec(w))
        if not logistic:
            a = pred
        elif a2y:
            a = sess.a2y_activation(pred)
        else:
            a = ring.clamp_unit_array(pred)
        g = ring.trunc_array(op.matvec_t(a - inputs["y"]))
        w = w - ring.fx_mul_trunc_array(g, lr_raw)
    return w


def draw_gemm(rng, p):
    n = p["n"]
    return {"A": _raw(rng, -1, 1, (n, n)), "B": _raw(rng, -1, 1, (n, n))}


def run_gemm(sess: Session, inputs, p):
    """GEMM of a private A with a public B, one GEMV per column of B."""
    cols = [np.ascontiguousarray(inputs["B"][:, j]) for j in range(p["n"])]
    op = PrivateMatrixOp(sess, inputs["A"], step="gemm", vectors=cols)
    out = np.stack(
        [ring.trunc_array(op.matvec(c, step_suffix=f"col{j}"))
         for j, c in enumerate(cols)], axis=1)
    return out.ravel()


def unroll_conv_input(img: np.ndarray, k: int, stride: int) -> np.ndarray:
    """im2col: one row per output position, kernel-sized patches flattened."""
    windows = np.lib.stride_tricks.sliding_window_view(img, (k, k))
    return windows[::stride, ::stride].reshape(-1, k * k)


def draw_conv(rng, p):
    return {"img": _raw(rng, -1, 1, (p["size"], p["size"])),
            "kern": _raw(rng, -1, 1, (p["kernel"], p["kernel"]))}


def run_conv(sess: Session, inputs, p):
    """Convolution lowered to a GEMV over the unrolled (private) input."""
    U = unroll_conv_input(inputs["img"], p["kernel"], p["stride"])
    kvec = inputs["kern"].ravel()
    op = PrivateMatrixOp(sess, U, step="conv", vectors=[kvec])
    return ring.trunc_array(op.matvec(kvec))


def _conv_operands(p):
    per_side = (p["size"] - p["kernel"]) // p["stride"] + 1
    return [(1, per_side ** 2 * p["kernel"] ** 2)], [p["size"] ** 2]


# name -> (body, defaults, operands, draw): ``draw(rng, p)`` gives the named
# input arrays that the body ``(sess, inputs, p) -> words`` reads, and
# ``operands(p)`` gives, from the params alone, the matrices the body places
# as (count, words) and the word counts of the other arrays it draws or sends
WORKLOADS = {
    "mlp": (run_mlp, MLP_DEFAULTS,
            lambda p: ([(p["depth"], p["dim"] ** 2)], [p["dim"]]), draw_mlp),
    "dlrm": (run_dlrm, DLRM_DEFAULTS,
             lambda p: ([(p["tables"], p["rows"] * p["cols"])],
                        [p["batch"] * p["pf"], p["batch"] * p["cols"]]),
             draw_dlrm),
    "linreg": (partial(_regression, logistic=False), LINREG_DEFAULTS,
               lambda p: ([(1, p["samples"] * p["features"])], [p["samples"]]),
               partial(_draw_regression, logistic=False)),
    "logreg": (partial(_regression, logistic=True), LOGREG_DEFAULTS,
               lambda p: ([(1, p["samples"] * p["features"])], [p["samples"]]),
               partial(_draw_regression, logistic=True)),
    "gemm": (run_gemm, GEMM_DEFAULTS,
             lambda p: ([(1, p["n"] ** 2)], [p["n"] ** 2]), draw_gemm),
    "conv": (run_conv, CONV_DEFAULTS, _conv_operands, draw_conv),
}

TRAINING_WORKLOADS = frozenset({"linreg", "logreg"})
# a zero-layer MLP and zero training iterations are well defined; every
# other integer param must be >= 1
MAY_BE_ZERO = frozenset({"depth", "iterations"})


def check_int(what: str, val, least: int = 0) -> None:
    """The integer rule of every scenario field: not a bool, >= ``least``."""
    if isinstance(val, bool) or not (isinstance(val, numbers.Integral)
                                     and val >= least):
        raise ConfigError(f"{what} must be an integer >= {least}, got {val!r}")


def _encodable(v) -> bool:
    """A real number (not a bool) that Q12 can encode."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        ring.fx_encode_nearest(v)
    except (ValueError, OverflowError, TypeError):
        return False
    return True


def _check_budget(name: str, p: dict) -> None:
    """Operands that could not fit the simulated device are rejected on every
    scheme, before any input is drawn: the placed matrices together, each
    split over the DPUs by ``pimsim.per_dpu`` as ``PimDevice.load`` splits
    it, and every other array on its own under the same split."""
    matrices, others = WORKLOADS[name][2](p)

    def per_dpu(words):
        return pimsim.per_dpu(4 * words)

    need = max([sum(n * per_dpu(words) for n, words in matrices),
                *map(per_dpu, others)])
    if need > pimsim.MRAM_BYTES_PER_DPU:
        raise ConfigError(f"{name} operands need {need} B per DPU, over the "
                          f"{pimsim.MRAM_BYTES_PER_DPU} B device budget")


def merged_params(name: str, params, scheme: str) -> dict:
    """The workload's defaults overridden by ``params``, after the one check
    of its name, params, device budget and ``scheme``: pim_precompute needs
    static public operands, so it refuses training."""
    if not isinstance(name, str) or name not in WORKLOADS:
        raise ConfigError(f"unknown workload {name!r}")
    defaults = WORKLOADS[name][1]
    params = {} if params is None else params
    if not isinstance(params, dict) or not set(params) <= set(defaults):
        raise ConfigError(f"{name} params must be an object with keys among "
                          f"{sorted(defaults)}, got {params!r}")
    p = {**defaults, **params}
    for key, val in p.items():
        if key != "lr":
            check_int(f"{name} {key}", val, 0 if key in MAY_BE_ZERO else 1)
        elif not _encodable(val):
            raise ConfigError(f"{name} lr must be a number Q12 can encode, "
                              f"got {val!r}")
    if name == "conv" and p["kernel"] > p["size"]:
        raise ConfigError("conv kernel must not exceed size")
    _check_budget(name, p)
    if name in TRAINING_WORKLOADS and scheme == "pim_precompute":
        raise ConfigError(
            "pim_precompute requires static public operands; "
            f"rejected for training workload {name!r}")
    return p


# one slot: the inputs of the last run, under its (name, seed, sorted
# params); no draw reads the scheme, verify, variant or tamper
_drawn = {}


def run_workload(name: str, cfg: SchemeConfig, seed: int, params=None,
                 tamper=None):
    """The one setup path: check the input, merge the workload's defaults with
    ``params``, draw its inputs from a generator seeded with ``seed`` (or
    take them, read-only, from the last run at the same workload, seed and
    params), build the session, arm ``tamper`` on its ``Tamper`` and run the
    body ``(sess, inputs, p) -> words``; returns (words, sess).  A check that
    aborts the body re-raises with ``session`` set to ``sess``.  Malformed
    input, and a ``tamper`` that the body returned without firing, raise
    ConfigError."""
    check_int("seed", seed)
    p = merged_params(name, params, cfg.scheme)
    key = (name, seed, tuple(sorted(p.items())))
    if key not in _drawn:
        _drawn.clear()
        _drawn[key] = WORKLOADS[name][3](np.random.default_rng(seed), p)
        for a in _drawn[key].values():
            a.flags.writeable = False
    inputs = _drawn[key]
    sess = Session(cfg, seed)
    if tamper is not None:
        sess.tamper.arm(tamper)
    try:
        words = WORKLOADS[name][0](sess, inputs, p)
    except (VerificationError, GcEvaluationFault) as exc:
        exc.session = sess
        raise
    if tamper is not None and not sess.tamper.log:
        raise ConfigError(f"tamper on {tamper.target!r} never fired in {name}")
    return words, sess
