"""The application kernels assembled from the outsourcing machinery.

Synthetic inputs are drawn in raw Q12 space with magnitudes sized so that
no true integer GEMV result ever wraps a signed 32-bit word; that bound is
what keeps the mod-q verification identity exact (see mac module notes).
All schemes share the same arithmetic and truncation points, so a workload's
result words are bit-identical across schemes for a fixed seed.
"""

import numpy as np

from . import ring
from .errors import ConfigError
from .host import (
    DEVICE_SCHEMES,
    SHARE_SCHEMES,
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


def _raw(rng, lo, hi, shape=None):
    """Random Q12 raw words drawn uniformly from [lo, hi] in value space."""
    vals = rng.integers(int(lo * ring.ONE), int(hi * ring.ONE) + 1, size=shape)
    return (vals & ring.MASK).astype(np.uint32)


def _session(cfg: SchemeConfig, seed: int, tamper=None) -> Session:
    sess = Session(cfg, seed)
    if tamper is not None:
        sess.device.arm_tamper(tamper)
    return sess


def run_mlp(cfg: SchemeConfig, seed: int, params=None, tamper=None):
    p = {**MLP_DEFAULTS, **(params or {})}
    depth, dim = p["depth"], p["dim"]
    rng = np.random.default_rng(seed)
    # growth factor dim * |w|max <= 1/2 keeps activations and raw sums bounded
    weights = [_raw(rng, -1 / 32, 1 / 32, (dim, dim)) for _ in range(depth)]
    x = _raw(rng, -1, 1, dim)
    sess = _session(cfg, seed, tamper)
    layers = [PublicMatrixOp(sess, W, uses=1, step=f"layer{i}")
              for i, W in enumerate(weights)]
    for i, layer in enumerate(layers):
        y_raw = layer.apply(x, reshare=i > 0 and cfg.scheme in SHARE_SCHEMES)
        x = ring.relu_array(ring.trunc_array(y_raw))
    return x, sess


def run_dlrm(cfg: SchemeConfig, seed: int, params=None, tamper=None):
    p = {**DLRM_DEFAULTS, **(params or {})}
    rng = np.random.default_rng(seed)
    sess = _session(cfg, seed, tamper)
    outs = []
    for t in range(p["tables"]):
        table = _raw(rng, -1, 1, (p["rows"], p["cols"]))
        ids = rng.integers(0, p["rows"], size=p["batch"] * p["pf"])
        weights = rng.integers(1, 4, size=ids.size).astype(np.uint32)
        op = EmbeddingOp(sess, table, step=f"table{t}")
        outs.append(op.lookup(ids, weights, p["batch"], p["pf"]))
    return np.concatenate([o.ravel() for o in outs]), sess


def _regression(cfg: SchemeConfig, seed: int, p, logistic: bool, tamper=None):
    rng = np.random.default_rng(seed)
    n, d = p["samples"], p["features"]
    X = _raw(rng, -0.25, 0.25, (n, d))
    if logistic:
        y = (rng.integers(0, 2, size=n) * ring.ONE).astype(np.uint32)
    else:
        y = _raw(rng, -1, 1, n)
    lr_raw = ring.fx_encode_nearest(p["lr"])
    sess = _session(cfg, seed, tamper)
    op = PrivateMatrixOp(sess, X, step="iter")
    w = np.zeros(d, dtype=np.uint32)
    for _ in range(p["iterations"]):
        pred = ring.trunc_array(op.matvec(w))
        if logistic:
            if cfg.variant == "A2Y" and cfg.scheme in DEVICE_SCHEMES:
                a = sess.a2y_activation(pred)
            else:
                a = ring.clamp_unit_array(pred)
        else:
            a = pred
        e = a - y  # reconstructed on the host, then revealed to the device
        sess.record_leak("regression_error_vector_revealed")
        g = ring.trunc_array(op.matvec_t(e))
        w = w - ring.fx_mul_trunc_array(g, lr_raw)
    return w, sess


def run_linreg(cfg: SchemeConfig, seed: int, params=None, tamper=None):
    return _regression(cfg, seed, {**LINREG_DEFAULTS, **(params or {})},
                       logistic=False, tamper=tamper)


def run_logreg(cfg: SchemeConfig, seed: int, params=None, tamper=None):
    return _regression(cfg, seed, {**LOGREG_DEFAULTS, **(params or {})},
                       logistic=True, tamper=tamper)


def run_gemm(cfg: SchemeConfig, seed: int, params=None, tamper=None):
    """GEMM of a private A with a public B, one GEMV per column of B."""
    p = {**GEMM_DEFAULTS, **(params or {})}
    n = p["n"]
    rng = np.random.default_rng(seed)
    A = _raw(rng, -1, 1, (n, n))
    B = _raw(rng, -1, 1, (n, n))
    cols = [np.ascontiguousarray(B[:, j]) for j in range(n)]
    sess = _session(cfg, seed, tamper)
    op = PrivateMatrixOp(sess, A, step="gemm", tag_rows=False,
                         precompute=[("rows", c) for c in cols])
    out = np.stack(
        [ring.trunc_array(op.matvec(c, step_suffix=f"col{j}"))
         for j, c in enumerate(cols)], axis=1)
    return out.ravel(), sess


def unroll_conv_input(img: np.ndarray, k: int, stride: int) -> np.ndarray:
    """im2col: one row per output position, kernel-sized patches flattened."""
    h, w = img.shape
    rows = []
    for i in range(0, h - k + 1, stride):
        for j in range(0, w - k + 1, stride):
            rows.append(img[i:i + k, j:j + k].ravel())
    return np.stack(rows)


def run_conv(cfg: SchemeConfig, seed: int, params=None, tamper=None):
    """Convolution lowered to a GEMV over the unrolled (private) input."""
    p = {**CONV_DEFAULTS, **(params or {})}
    rng = np.random.default_rng(seed)
    img = _raw(rng, -1, 1, (p["size"], p["size"]))
    kern = _raw(rng, -1, 1, (p["kernel"], p["kernel"]))
    U = unroll_conv_input(img, p["kernel"], p["stride"])
    kvec = kern.ravel()
    sess = _session(cfg, seed, tamper)
    op = PrivateMatrixOp(sess, U, step="conv", tag_rows=False,
                         precompute=[("rows", kvec)])
    out = ring.trunc_array(op.matvec(kvec))
    return out, sess


WORKLOADS = {
    "mlp": (run_mlp, MLP_DEFAULTS),
    "dlrm": (run_dlrm, DLRM_DEFAULTS),
    "linreg": (run_linreg, LINREG_DEFAULTS),
    "logreg": (run_logreg, LOGREG_DEFAULTS),
    "gemm": (run_gemm, GEMM_DEFAULTS),
    "conv": (run_conv, CONV_DEFAULTS),
}

TRAINING_WORKLOADS = frozenset({"linreg", "logreg"})


def run_workload(name: str, cfg: SchemeConfig, seed: int, params=None,
                 tamper=None):
    if name not in WORKLOADS:
        raise ConfigError(f"unknown workload {name!r}")
    if name in TRAINING_WORKLOADS and cfg.scheme == "pim_precompute":
        raise ConfigError(
            "pim_precompute requires static public operands; "
            f"rejected for training workload {name!r}")
    fn, _ = WORKLOADS[name]
    return fn(cfg, seed, params, tamper=tamper)
