"""Trusted-host orchestration: operand placement, merging, verification.

The six schemes differ in where a private operand lives (host or device;
plain, sealed or additively shared) and in how the device's result merges
with the host's part, never in arithmetic, so every scheme produces
bit-identical ring results for the same inputs.  All three ops share one
protect, placement and merge path (``_PrivateOperand``): a private matrix is
protected and placed once, offline; the private vector of a public-matrix
layer is protected on each call.  Fixed-point truncation happens only on
merged (reconstructed) values, which is what keeps that equivalence exact.
"""

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from . import kernels, mac, sharing
from .crypto import STREAM_GC, KeyStore, OtpContext
from .errors import ConfigError, VerificationError
from .pimsim import CostReport, PimDevice, Tamper
from .yao.switch import prepare_switch

SCHEMES = ("cpu_insecure", "cpu_secure", "pim_insecure", "pim_enc_dec",
           "pim_runtime", "pim_precompute")
SHARE_SCHEMES = frozenset({"pim_runtime", "pim_precompute"})
DEVICE_SCHEMES = frozenset({"pim_insecure", "pim_enc_dec",
                            "pim_runtime", "pim_precompute"})
# private operands stay sealed under the host key: at rest in host memory
# (cpu_secure), or on a device that holds the key (pim_enc_dec)
SEALED_SCHEMES = frozenset({"cpu_secure", "pim_enc_dec"})
VARIANTS = ("A", "A2Y")


@dataclass
class SchemeConfig:
    scheme: str
    verify: bool = False
    variant: str = "A"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not isinstance(self.verify, bool):
            raise ConfigError(f"verify must be true or false, got {self.verify!r}")


def derive_key_hex(seed: int) -> str:
    return hashlib.sha256(b"securepim-key:" + str(seed).encode()).hexdigest()[:32]


class Session:
    """One run: keystore, tamper point, device, cost ledgers, version allocator."""

    def __init__(self, cfg: SchemeConfig, seed: int):
        self.cfg = cfg
        self.ks = KeyStore()
        self.key_id = "k0"
        self.ks.register(self.key_id, derive_key_hex(seed))
        self.offline = CostReport()
        self.online = CostReport()
        self.tamper = Tamper(seed)
        self.device = PimDevice(report=self.offline, tamper=self.tamper,
                                secure_mode=cfg.scheme in SHARE_SCHEMES)
        self._version = 0
        self._names = 0
        self.verification_events = []
        self.leaks = []
        self.reshare_events = 0
        self.a2y_scalars = 0
        self.a2y_labels_transferred = 0
        self.a2y_labels_stored = 0
        self.s = self.ks.derive_mac_secret(self.alloc_ctx(), mac.Q, self._prf)
        self.device.report = self.online

    # the phase now charged, host and device alike (offline: see ``_offline``)
    ledger = property(lambda self: self.device.report)

    # -- bookkeeping --------------------------------------------------------

    def alloc_ctx(self) -> OtpContext:
        self._version += 1
        return OtpContext(self.key_id, self._version)

    def _prf(self, n):
        self.ledger.host_prf_calls += n

    def _next_name(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def record_leak(self, what: str) -> None:
        if what not in self.leaks:
            self.leaks.append(what)

    def check_verified(self, step: str, ftag_e: int, ftag_r: int) -> None:
        self.ledger.verify_ops += 1
        ok = mac.verify(ftag_e, ftag_r)
        self.verification_events.append({"step": step, "ok": ok})
        if not ok:
            raise VerificationError(step, ftag_e, ftag_r)

    def verify_gemv(self, step: str, store, x, y, gather=None) -> None:
        """Check y = M @ x: the GEMV over M's column tags (``store`` opened,
        then ``gather``-ed) against the hash of all of y; None: no check."""
        if store is not None:
            tags = self.open_tag_store(store)
            self.check_verified(step, mac.tag_kernel_gemv(
                gather(tags) if gather else tags, x), mac.hash_result(y, self.s))

    # -- sealed offline artefacts in untrusted memory (tags: MAC-then-encrypt)

    def tag_store(self, M: np.ndarray):
        """Tag the columns of M and seal the tags; None unless verifying."""
        if not self.cfg.verify:
            return None
        self.ledger.host_mac_ops += M.size
        return self.seal_tag_store(mac.gen_tags(M, self.s))

    def seal_precomputed(self, res_cpu: np.ndarray, cost: int):
        """Seal a resCPU that took ``cost`` host MACs to compute; returns
        the (context, words) pair that ``KeyStore.open`` takes back."""
        self.ledger.host_mac_ops += cost
        ctx = self.alloc_ctx()
        return ctx, self.ks.seal(ctx, res_cpu, on_prf=self._prf)

    def seal_tag_store(self, tags: mac.TagVector):
        ctx = self.alloc_ctx()
        return ctx, mac.seal_tags(tags, ctx, self.ks, on_prf=self._prf)

    def open_tag_store(self, store) -> mac.TagVector:
        ctx, sealed = store
        return mac.open_tags(self.tamper.hit("sealed_tags", sealed), ctx,
                             self.ks, on_prf=self._prf)

    # -- nonlinear offload --------------------------------------------------

    def a2y_activation(self, p: np.ndarray) -> np.ndarray:
        """Switch the vector to Yao in one batch: one share C = P - R of the
        whole vector under one fresh context, whose uncharged STREAM_GC gives
        one garbling seed per scalar; the device evaluates the clamp, learns
        the activations (declared leak), host stores both labels per C bit."""
        words = np.asarray(p, dtype=np.uint32).ravel()
        ctx = self.alloc_ctx()
        c = sharing.split(words, ctx, self.ks, on_prf=self._prf)
        r = words - c
        pad = self.ks.otp_words(ctx, 4 * words.size, stream_id=STREAM_GC)
        seeds = pad.view("<u8").reshape(-1, 2)   # each seed's (low, high) words
        gcirc, labels, _ot, stats = prepare_switch(r, c, seeds)
        out = self.device.evaluate_garbled(gcirc, labels)
        self.a2y_scalars += words.size
        self.a2y_labels_transferred += stats.evaluator_labels_transferred
        self.a2y_labels_stored += stats.host_labels_stored
        self.record_leak("a2y_activation_revealed_to_device")
        return out.reshape(p.shape)


def _offline(init):
    """Run an op constructor in the offline phase, its device loads too."""
    @functools.wraps(init)
    def build(self, session, *args, **kwargs):
        session.device.report = session.offline
        try:
            init(self, session, *args, **kwargs)
        finally:
            session.device.report = session.online
    return build


class _PrivateOperand:
    """A private operand held where the scheme keeps it: the one placement
    and merge path of every op.  A private matrix is placed once, offline;
    PublicMatrixOp holds its private vector afresh on every call."""

    def _protect(self, M: np.ndarray, ctx=None, reshare=False) -> np.ndarray:
        """M as the scheme keeps it outside trusted memory: plain, sealed
        under a fresh context, or the share C = M - R under ``ctx`` (fresh
        if None; a ``reshare`` is counted)."""
        s = self.sess
        scheme = s.cfg.scheme
        self.shape = M.shape
        self.ctx = None
        if scheme in SHARE_SCHEMES:
            self.ctx = s.alloc_ctx() if ctx is None else ctx
            s.reshare_events += reshare
            return sharing.split(M, self.ctx, s.ks, on_prf=s._prf)
        if scheme in SEALED_SCHEMES:
            self.ctx = s.alloc_ctx()
            return s.ks.seal(self.ctx, M, on_prf=s._prf)
        return M

    def _place(self, M: np.ndarray, prefix: str, vectors=None) -> None:
        """Protect M offline and hold it on the host or load it on the
        device.  pim_precompute seals resCPU = R @ v offline for each static
        vector v in ``vectors``, one per use; without them it keeps R = M - C
        in trusted memory, so the online phase needs no PRF calls.  Either
        way R = M - C is taken from the share, at no keystream cost."""
        s = self.sess
        data = self._protect(M)
        self._r = self._pre = None
        if s.cfg.scheme == "pim_precompute":
            r = M - data
            if vectors is None:
                self._r = r
            else:
                self._pre = [(None, s.seal_precomputed(kernels.gemv(r, v),
                                                       M.size), np.array(v))
                             for v in vectors]
        self._held = s.device.load(s._next_name(prefix), data,
                                   secret_plaintext=data is M) \
            if s.cfg.scheme in DEVICE_SCHEMES else data

    def _next_use(self, vec=None):
        """The (share context or None, sealed resCPU) planned for the next
        use, checked against ``vec``; (None, None) without precomputation."""
        if self._pre is None:
            return None, None
        if not self._pre:
            raise ConfigError("pim_precompute: no precomputed resCPU left")
        planned = self._pre[0][2]
        if planned is not None and not np.array_equal(vec, planned):
            raise ConfigError("pim_precompute: vector is not the one planned")
        return self._pre.pop(0)[:2]

    def _host_part(self, rows=None) -> np.ndarray:
        """The host's part of M, or only its ``rows`` (ascending, distinct):
        M itself off the device (held plain, or opened), R = M - C under
        the share schemes (kept, or regenerated from the keystream)."""
        s = self.sess
        scheme = s.cfg.scheme
        if scheme in SHARE_SCHEMES and self._r is None:
            return sharing.host_share(self.ctx, self.shape, s.ks, s._prf, rows)
        part = self._r if scheme in SHARE_SCHEMES else self._held
        if rows is not None:
            part = part[rows]
        if scheme in SEALED_SCHEMES:
            return s.ks.open(self.ctx, part, on_prf=s._prf, rows=rows)
        return part

    def _merge(self, host_fn, device_fn, sealed_fn, args: tuple, cost: int,
               res_sealed=None, rows=None) -> np.ndarray:
        """Merge one linear kernel of the held operand M with public
        ``args``: host only (``host_fn(M, *args)``, ``cost`` host MACs),
        device only (``device_fn(held, *args)``), sealed device
        (``sealed_fn(held, *args, ks, ctx, ctx_out)``), or the device share
        plus the runtime R-kernel or the opened ``res_sealed`` resCPU.
        With ``rows``, ``host_fn`` reads only those rows of M, and gets
        the host part of them alone, in their order (``_host_part``)."""
        s = self.sess
        scheme = s.cfg.scheme
        if scheme not in DEVICE_SCHEMES:
            s.ledger.host_mac_ops += cost
            return host_fn(self._host_part(rows), *args)
        if scheme in SEALED_SCHEMES:
            ctx_out = s.alloc_ctx()
            y = sealed_fn(self._held, *args, s.ks, self.ctx, ctx_out)
            return s.ks.open(ctx_out, y, on_prf=s._prf)
        res_pim = device_fn(self._held, *args)
        if scheme not in SHARE_SCHEMES:
            return res_pim
        if res_sealed is not None:
            ctx, sealed = res_sealed
            sealed = s.tamper.hit("sealed_precompute", sealed)
            return res_pim + s.ks.open(ctx, sealed, on_prf=s._prf)
        s.ledger.host_mac_ops += cost
        return res_pim + host_fn(self._host_part(rows), *args)


class PublicMatrixOp(_PrivateOperand):
    """Linear layer with a public matrix applied to a private vector.

    pim_precompute requires the number of applications up front so resCPU
    for every use can be computed and sealed in the offline phase, each
    under the context that use shares its vector with.
    """

    @_offline
    def __init__(self, session: Session, W: np.ndarray, uses: int = 1,
                 step: str = "gemv"):
        self.sess = session
        self.W = np.ascontiguousarray(W, dtype=np.uint32)
        self.step = step
        self._use = 0
        self._r = self._pre = None
        s = session
        self.tag_store = s.tag_store(self.W)
        if s.cfg.scheme in DEVICE_SCHEMES:
            self.handle = s.device.load(s._next_name("W"), self.W)
        if s.cfg.scheme == "pim_precompute":
            self._pre = []
            for _ in range(uses):
                ctx = s.alloc_ctx()
                r = sharing.host_share(ctx, (self.W.shape[1],), s.ks, s._prf)
                res_cpu = kernels.gemv(self.W, r)
                sealed = s.seal_precomputed(res_cpu, self.W.size)
                self._pre.append((ctx, sealed, None))

    def apply(self, x: np.ndarray, reshare: bool = False) -> np.ndarray:
        """Merged raw GEMV result (pre-truncation), verified if configured;
        ``reshare`` counts the share of x as a refresh."""
        s = self.sess
        x = np.ascontiguousarray(x, dtype=np.uint32)
        ctx, res_sealed = self._next_use()
        self._held = self._protect(x, ctx, reshare)
        dev = s.device
        y = self._merge(lambda v: kernels.gemv(self.W, v),
                        lambda v: dev.gemv(self.handle, v),
                        lambda v, *keys: dev.gemv_enc(self.handle, v, *keys),
                        (), self.W.size, res_sealed)
        self._use += 1
        s.verify_gemv(f"{self.step}:{self._use - 1}", self.tag_store, x, y)
        return y


class PrivateMatrixOp(_PrivateOperand):
    """Private matrix resident on the device as a share; public vectors per
    call in the sample direction (X @ w) and gradient direction (X.T @ e).

    ``vectors`` lists the static public vectors of ``matvec``, one per call,
    in order: pim_precompute seals the resCPU of each offline, and such an op
    has no row tags and no ``matvec_t``.  Without them pim_precompute keeps
    R = X - C in trusted memory, as EmbeddingOp does.
    """

    @_offline
    def __init__(self, session: Session, X: np.ndarray, step: str = "mat",
                 vectors=None):
        self.sess = session
        X = np.ascontiguousarray(X, dtype=np.uint32)
        self.step = step
        self.static = vectors is not None
        self.col_tag_store = session.tag_store(X)
        self.row_tag_store = None if self.static else session.tag_store(X.T)
        self._place(X, "X", vectors)

    def _product(self, vec, store, step: str, *kernel_fns) -> np.ndarray:
        """The product of X with ``vec`` by ``kernel_fns`` (host, device and
        sealed), merged with the next use's resCPU if precomputed, and
        verified against ``store``."""
        vec = np.ascontiguousarray(vec, dtype=np.uint32)
        y = self._merge(*kernel_fns, (vec,), self.shape[0] * self.shape[1],
                        self._next_use(vec)[1])
        self.sess.verify_gemv(f"{self.step}:{step}", store, vec, y)
        return y

    def matvec(self, w: np.ndarray, step_suffix: str = "dot") -> np.ndarray:
        """X @ w, merged; verified against the column tags."""
        dev = self.sess.device
        return self._product(w, self.col_tag_store, step_suffix, kernels.gemv,
                             dev.matvec_rows, dev.matvec_enc)

    def matvec_t(self, e: np.ndarray) -> np.ndarray:
        """X.T @ e, merged; verified against the row tags."""
        if self.static:
            raise ConfigError("matvec_t needs an op built without static "
                              "vectors, which has the row tags")
        dev = self.sess.device
        return self._product(e, self.row_tag_store, "grad", kernels.gemv_t,
                             dev.matvec_cols,
                             functools.partial(dev.matvec_enc, transpose=True))


class EmbeddingOp(_PrivateOperand):
    """Private embedding table; weighted gather-reduce with public indices.

    A lookup verifies as the GEMV of a (batch * cols) x |ids| matrix, whose
    column tags are the ids' row tags weighed by their bags' places.
    pim_precompute keeps R = T - C in trusted memory (the index-dependent
    reduce cannot be precomputed), so its online phase makes no PRF call.
    The host part of a lookup (R, or the opened table) is built from the
    distinct rows its ids read, never from the whole table; the row tags
    are opened whole, which costs less than picking out their blocks.
    """

    @_offline
    def __init__(self, session: Session, table: np.ndarray, step: str = "emb"):
        self.sess = session
        table = np.ascontiguousarray(table, dtype=np.uint32)
        self.step = step
        self.row_tag_store = session.tag_store(table.T)
        self._place(table, "T")

    def lookup(self, ids, weights, batch: int, pf: int) -> np.ndarray:
        s = self.sess
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.uint32)
        rows, cols = self.shape
        if ids.size and (ids.min() < 0 or ids.max() >= rows):
            raise ConfigError(f"embedding ids must lie in [0, {rows})")
        s.record_leak("dlrm_indices_in_clear")
        read, inv = kernels.distinct_rows(ids, rows)
        out = self._merge(
            lambda part, _ids, *rest: kernels.embedding(part, inv, *rest),
            s.device.embedding, s.device.embedding_enc,
            (ids, weights, batch, pf), ids.size * cols, rows=read)
        s.verify_gemv(self.step, self.row_tag_store, weights, out,
                      functools.partial(self._bag_tags, ids, batch, pf))
        return out

    def _bag_tags(self, ids, batch: int, pf: int, tags) -> mac.TagVector:
        """Each id's row tag times s^(cols * (batch - 1 - b)), b its bag."""
        cols = self.shape[1]
        pw = np.append(kernels.powers(self.sess.s, cols * batch), np.uint64(1))
        pw = np.repeat(pw[cols * np.arange(1, batch + 1)], pf)
        return mac.TagVector(kernels.mulmod61(tags.residues[ids], pw))
