"""Trusted-host orchestration: scheme dispatch, merging, verification.

The six schemes differ in where the kernel runs and what crosses the
channel, never in arithmetic, so every scheme produces bit-identical ring
results for the same inputs.  Fixed-point truncation happens only on merged
(reconstructed) values, which is what keeps that equivalence exact.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import kernels, mac, ring, sharing
from .crypto import KeyStore, OtpContext
from .errors import ConfigError, VerificationError
from .pimsim import CostReport, DeviceTopology, PimDevice
from .yao.circuit import bits_to_word
from .yao.garble import EvalTranscript
from .yao.switch import prepare_switch

SCHEMES = ("cpu_insecure", "cpu_secure", "pim_insecure", "pim_enc_dec",
           "pim_runtime", "pim_precompute")
SHARE_SCHEMES = frozenset({"pim_runtime", "pim_precompute"})
DEVICE_SCHEMES = frozenset({"pim_insecure", "pim_enc_dec",
                            "pim_runtime", "pim_precompute"})
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


def derive_key_hex(seed: int) -> str:
    return hashlib.sha256(b"securepim-key:" + str(seed).encode()).hexdigest()[:32]


class Session:
    """One run: keystore, device instance, cost ledgers, version allocator."""

    def __init__(self, cfg: SchemeConfig, seed: int, key_hex: str = None,
                 topology: DeviceTopology = None):
        self.cfg = cfg
        self.seed = seed
        self.ks = KeyStore()
        self.key_id = "k0"
        self.ks.register(self.key_id, key_hex or derive_key_hex(seed))
        self.offline = CostReport()
        self.online = CostReport()
        self.device = PimDevice(topology, self.online, seed=seed,
                                secure_mode=cfg.scheme in SHARE_SCHEMES)
        self._version = 0
        self._gc_seed = 0
        self._names = 0
        self.verification_events = []
        self.leaks = []
        self.reshare_events = 0
        self.a2y_scalars = 0
        self.a2y_labels_transferred = 0
        self.a2y_labels_stored = 0
        self.a2y_transcripts = []
        self._mac_ctx = self.alloc_ctx()
        self.s = self.ks.derive_mac_secret(self._mac_ctx, mac.Q,
                                           on_prf=self._off_prf)

    # -- bookkeeping --------------------------------------------------------

    def alloc_ctx(self, base_index: int = 0) -> OtpContext:
        self._version += 1
        return OtpContext(self.key_id, self._version, base_index)

    def _on_prf(self, n):
        self.online.host_prf_calls += n

    def _off_prf(self, n):
        self.offline.host_prf_calls += n

    def _next_name(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def next_gc_seed(self) -> int:
        self._gc_seed += 1
        return (self.seed << 24) ^ self._gc_seed

    def record_leak(self, what: str) -> None:
        if what not in self.leaks:
            self.leaks.append(what)

    def check_verified(self, step: str, ftag_e: int, ftag_r: int) -> None:
        self.online.verify_ops += 1
        ok = mac.verify(ftag_e, ftag_r)
        self.verification_events.append({"step": step, "ok": ok})
        if not ok:
            exc = VerificationError(step, ftag_e, ftag_r)
            exc.session = self
            raise exc

    # -- sealed tag storage (MAC-then-encrypt, lives in untrusted memory) ---

    def seal_tag_store(self, tags: mac.TagVector):
        ctx = self.alloc_ctx()
        sealed = mac.seal_tags(tags, ctx, self.ks, on_prf=self._off_prf)
        return {"sealed": sealed, "ctx": ctx, "axis": tags.axis,
                "length": tags.length}

    def open_tag_store(self, store) -> mac.TagVector:
        return mac.open_tags(store["sealed"], store["axis"], store["length"],
                             store["ctx"], self.ks, on_prf=self._on_prf)

    # -- nonlinear offload --------------------------------------------------

    def a2y_activation(self, p: np.ndarray) -> np.ndarray:
        """Per-scalar switch to Yao: device evaluates the clamp, learns the
        activation value (declared leak), host stores both labels per C bit."""
        out = np.empty(p.size, dtype=np.uint32)
        for i, word in enumerate(int(v) for v in p.ravel()):
            ctx = self.alloc_ctx()
            self.ks.consume(ctx)
            r = int(self.ks.otp_words(ctx, 1, on_prf=self._on_prf)[0])
            c = (word - r) & ring.MASK
            gcirc, labels, _ot, stats = prepare_switch(r, c, self.next_gc_seed())
            transcript = EvalTranscript()
            try:
                bits = self.device.evaluate_garbled(gcirc, labels, transcript)
            except Exception as exc:
                exc.session = self
                raise
            out[i] = bits_to_word(bits)
            self.a2y_scalars += 1
            self.a2y_labels_transferred += stats.evaluator_labels_transferred
            self.a2y_labels_stored += stats.host_labels_stored
            self.a2y_transcripts.append(transcript)
        self.record_leak("a2y_activation_revealed_to_device")
        return out.reshape(p.shape)


class PublicMatrixOp:
    """Linear layer with a public matrix applied to a private vector.

    pim_precompute requires the number of applications up front so resCPU
    for every use can be computed and sealed in the offline phase.
    """

    def __init__(self, session: Session, W: np.ndarray, uses: int = 1,
                 step: str = "gemv"):
        self.sess = session
        self.W = np.ascontiguousarray(W, dtype=np.uint32)
        self.step = step
        self._use = 0
        s = session
        cfg = s.cfg
        self.tag_store = None
        if cfg.verify:
            tags = mac.gen_tags(self.W, s.s)
            s.offline.host_mac_ops += self.W.size
            self.tag_store = s.seal_tag_store(tags)
        if cfg.scheme in DEVICE_SCHEMES:
            self.handle = s.device.load(s._next_name("W"), self.W)
        if cfg.scheme == "pim_precompute":
            self._pre = []
            for _ in range(uses):
                ctx = s.alloc_ctx()
                r = sharing.host_share(ctx, (self.W.shape[1],), s.ks,
                                       on_prf=s._off_prf)
                res_cpu = kernels.gemv(self.W, r)
                s.offline.host_mac_ops += self.W.size
                seal_ctx = s.alloc_ctx()
                self._pre.append({
                    "x_ctx": ctx,
                    "sealed": s.ks.seal(seal_ctx, res_cpu, on_prf=s._off_prf),
                    "seal_ctx": seal_ctx,
                })

    def apply(self, x: np.ndarray, reshare: bool = False) -> np.ndarray:
        """Merged raw GEMV result (pre-truncation), verified if configured."""
        s = self.sess
        cfg = s.cfg
        x = np.ascontiguousarray(x, dtype=np.uint32)
        scheme = cfg.scheme
        if scheme == "cpu_insecure":
            y = kernels.gemv(self.W, x)
            s.online.host_mac_ops += self.W.size
        elif scheme == "cpu_secure":
            ctx = s.alloc_ctx()
            stored = s.ks.seal(ctx, x, on_prf=s._on_prf)
            y = kernels.gemv(self.W, s.ks.open(ctx, stored, on_prf=s._on_prf))
            s.online.host_mac_ops += self.W.size
        elif scheme == "pim_insecure":
            y = s.device.gemv(self.handle, x)
        elif scheme == "pim_enc_dec":
            ctx_in = s.alloc_ctx()
            ctx_out = s.alloc_ctx()
            sealed = s.ks.seal(ctx_in, x, on_prf=s._on_prf)
            y = s.device.gemv_enc(self.handle, sealed, s.ks, ctx_in, ctx_out)
            y = s.ks.open(ctx_out, y, on_prf=s._on_prf)
        else:
            if scheme == "pim_precompute":
                pre = self._pre[self._use]
                sv = sharing.split(x, pre["x_ctx"], s.ks, on_prf=s._on_prf)
                res_pim = s.device.gemv(self.handle, sv.cipher)
                res_cpu = s.ks.open(pre["seal_ctx"], pre["sealed"],
                                    on_prf=s._on_prf)
            else:  # pim_runtime: R-kernel on the fly, parallel to the device
                ctx = s.alloc_ctx()
                sv = sharing.split(x, ctx, s.ks, on_prf=s._on_prf)
                res_pim = s.device.gemv(self.handle, sv.cipher)
                r = sharing.host_share(ctx, x.shape, s.ks, on_prf=s._on_prf)
                res_cpu = kernels.gemv(self.W, r)
                s.online.host_mac_ops += self.W.size
            y = res_pim + res_cpu
            if reshare:
                s.reshare_events += 1
        self._use += 1
        if self.tag_store is not None:
            tags = s.open_tag_store(self.tag_store)
            s.check_verified(f"{self.step}:{self._use - 1}",
                             mac.tag_kernel_gemv(tags, x),
                             mac.hash_result(y, s.s))
        return y


class PrivateMatrixOp:
    """Private matrix resident on the device as a share; public vectors per
    call in the sample direction (X @ w) and gradient direction (X.T @ e).

    ``precompute`` supplies the static public vectors, enabling the offline
    resCPU path; without it pim_precompute is rejected (training loops feed
    fresh vectors every iteration).
    """

    def __init__(self, session: Session, X: np.ndarray, step: str = "mat",
                 precompute=None, tag_rows: bool = True):
        self.sess = session
        self.X = np.ascontiguousarray(X, dtype=np.uint32)
        self.step = step
        s = session
        cfg = s.cfg
        self.col_tag_store = None
        self.row_tag_store = None
        if cfg.verify:
            s.offline.host_mac_ops += self.X.size * (2 if tag_rows else 1)
            self.col_tag_store = s.seal_tag_store(mac.gen_tags(self.X, s.s))
            if tag_rows:
                self.row_tag_store = s.seal_tag_store(
                    mac.gen_tags(self.X, s.s, axis=mac.AXIS_ROWS))
        if cfg.scheme == "pim_precompute" and precompute is None:
            raise ConfigError(
                "pim_precompute requires static public operands; "
                "rejected for training loops")
        self.ctx = None
        self.seal_ctx = None
        if cfg.scheme in SHARE_SCHEMES:
            self.ctx = s.alloc_ctx()
            if cfg.scheme == "pim_precompute":
                self._pre = []
                for direction, vec in precompute:
                    vec = np.ascontiguousarray(vec, dtype=np.uint32)
                    r = sharing.host_share(self.ctx, self.X.shape, s.ks,
                                           on_prf=s._off_prf)
                    res_cpu = kernels.gemv(r, vec) if direction == "rows" \
                        else kernels.gemv_t(r, vec)
                    s.offline.host_mac_ops += self.X.size
                    seal_ctx = s.alloc_ctx()
                    self._pre.append({
                        "direction": direction,
                        "sealed": s.ks.seal(seal_ctx, res_cpu,
                                            on_prf=s._off_prf),
                        "seal_ctx": seal_ctx,
                    })
                self._pre_use = 0
            sv = sharing.split(self.X, self.ctx, s.ks, on_prf=s._on_prf)
            self.handle = s.device.load(s._next_name("X"), sv.cipher)
        elif cfg.scheme == "pim_insecure":
            self.handle = s.device.load(s._next_name("X"), self.X,
                                        secret_plaintext=True)
        elif cfg.scheme == "pim_enc_dec":
            self.seal_ctx = s.alloc_ctx()
            sealed = s.ks.seal(self.seal_ctx, self.X, on_prf=s._on_prf)
            self.handle = s.device.load(s._next_name("X"), sealed)
        elif cfg.scheme == "cpu_secure":
            self.rest_ctx = s.alloc_ctx()
            self._at_rest = s.ks.seal(self.rest_ctx, self.X, on_prf=s._on_prf)

    def _host_plain(self) -> np.ndarray:
        s = self.sess
        if s.cfg.scheme == "cpu_secure":
            return s.ks.open(self.rest_ctx, self._at_rest, on_prf=s._on_prf)
        return self.X

    def _merged(self, vec: np.ndarray, direction: str) -> np.ndarray:
        s = self.sess
        scheme = s.cfg.scheme
        vec = np.ascontiguousarray(vec, dtype=np.uint32)
        rows = direction == "rows"
        if scheme in ("cpu_insecure", "cpu_secure"):
            X = self._host_plain()
            s.online.host_mac_ops += X.size
            return kernels.gemv(X, vec) if rows else kernels.gemv_t(X, vec)
        if scheme == "pim_insecure":
            return s.device.matvec_rows(self.handle, vec) if rows \
                else s.device.matvec_cols(self.handle, vec)
        if scheme == "pim_enc_dec":
            ctx_out = s.alloc_ctx()
            y = s.device.matvec_enc(self.handle, vec, s.ks, self.seal_ctx,
                                    ctx_out, transpose=not rows)
            return s.ks.open(ctx_out, y, on_prf=s._on_prf)
        res_pim = s.device.matvec_rows(self.handle, vec) if rows \
            else s.device.matvec_cols(self.handle, vec)
        if scheme == "pim_precompute":
            pre = self._pre[self._pre_use]
            self._pre_use += 1
            if pre["direction"] != direction:
                raise ConfigError("precomputed direction mismatch")
            res_cpu = s.ks.open(pre["seal_ctx"], pre["sealed"],
                                on_prf=s._on_prf)
        else:
            r = sharing.host_share(self.ctx, self.X.shape, s.ks,
                                   on_prf=s._on_prf)
            res_cpu = kernels.gemv(r, vec) if rows else kernels.gemv_t(r, vec)
            s.online.host_mac_ops += self.X.size
        return res_pim + res_cpu

    def matvec(self, w: np.ndarray, step_suffix: str = "dot") -> np.ndarray:
        """X @ w, merged; verified against the column tags."""
        s = self.sess
        y = self._merged(w, "rows")
        if self.col_tag_store is not None:
            tags = s.open_tag_store(self.col_tag_store)
            s.check_verified(f"{self.step}:{step_suffix}",
                             mac.tag_kernel_gemv(tags, w),
                             mac.hash_result(y, s.s))
        return y

    def matvec_t(self, e: np.ndarray, step_suffix: str = "grad") -> np.ndarray:
        """X.T @ e, merged; verified against the row tags."""
        s = self.sess
        g = self._merged(e, "cols")
        if self.row_tag_store is not None:
            tags = s.open_tag_store(self.row_tag_store)
            s.check_verified(f"{self.step}:{step_suffix}",
                             mac.tag_kernel_gemv(tags, e),
                             mac.hash_result(g, s.s))
        return g


class EmbeddingOp:
    """Private embedding table; weighted gather-reduce with public indices.

    pim_precompute materializes the table's OTP words in the offline phase
    (the index-dependent reduce itself cannot be precomputed), so online PRF
    cost drops to zero while the host reduce cost matches the runtime scheme.
    """

    def __init__(self, session: Session, table: np.ndarray, step: str = "emb"):
        self.sess = session
        self.table = np.ascontiguousarray(table, dtype=np.uint32)
        self.step = step
        s = session
        cfg = s.cfg
        self.row_tag_store = None
        if cfg.verify:
            s.offline.host_mac_ops += self.table.size
            self.row_tag_store = s.seal_tag_store(
                mac.gen_tags(self.table, s.s, axis=mac.AXIS_ROWS))
        self._r_cache = None
        if cfg.scheme in SHARE_SCHEMES:
            self.ctx = s.alloc_ctx()
            if cfg.scheme == "pim_precompute":
                # offline keystream materialization: R lives in trusted
                # memory, so the online phase needs no PRF calls at all
                self._r_cache = sharing.host_share(
                    self.ctx, self.table.shape, s.ks, on_prf=s._off_prf)
                s.ks.consume(self.ctx)
                cipher = self.table - self._r_cache
            else:
                cipher = sharing.split(self.table, self.ctx, s.ks,
                                       on_prf=s._on_prf).cipher
            self.handle = s.device.load(s._next_name("T"), cipher)
        elif cfg.scheme == "pim_insecure":
            self.handle = s.device.load(s._next_name("T"), self.table,
                                        secret_plaintext=True)
        elif cfg.scheme == "pim_enc_dec":
            self.seal_ctx = s.alloc_ctx()
            sealed = s.ks.seal(self.seal_ctx, self.table, on_prf=s._on_prf)
            self.handle = s.device.load(s._next_name("T"), sealed)
        elif cfg.scheme == "cpu_secure":
            self.rest_ctx = s.alloc_ctx()
            self._at_rest = s.ks.seal(self.rest_ctx, self.table,
                                      on_prf=s._on_prf)

    def lookup(self, ids, weights, batch: int, pf: int) -> np.ndarray:
        s = self.sess
        scheme = s.cfg.scheme
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.uint32)
        rows = self.table.shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= rows):
            raise ConfigError(f"embedding ids must lie in [0, {rows})")
        s.record_leak("dlrm_indices_in_clear")
        if scheme in ("cpu_insecure", "cpu_secure"):
            table = self.table if scheme == "cpu_insecure" \
                else s.ks.open(self.rest_ctx, self._at_rest, on_prf=s._on_prf)
            out = kernels.embedding(table, ids, weights, batch, pf)
            s.online.host_mac_ops += ids.size * self.table.shape[1]
        elif scheme == "pim_insecure":
            out = s.device.embedding(self.handle, ids, weights, batch, pf)
        elif scheme == "pim_enc_dec":
            ctx_out = s.alloc_ctx()
            out = s.device.embedding_enc(self.handle, ids, weights, batch, pf,
                                         s.ks, self.seal_ctx, ctx_out)
            out = s.ks.open(ctx_out, out, on_prf=s._on_prf)
        else:
            res_pim = s.device.embedding(self.handle, ids, weights, batch, pf)
            if self._r_cache is not None:
                r = self._r_cache
            else:
                r = sharing.host_share(self.ctx, self.table.shape, s.ks,
                                       on_prf=s._on_prf)
            res_cpu = kernels.embedding(r, ids, weights, batch, pf)
            s.online.host_mac_ops += ids.size * self.table.shape[1]
            out = res_pim + res_cpu
        if self.row_tag_store is not None:
            # one check for the whole batch: the sum over batch rows of each
            # row's GEMV-over-tags against the sum of its result hashes
            tags = s.open_tag_store(self.row_tag_store)
            ftag_e = kernels.dot_tags(tags.residues[ids], mac.lift(weights))
            row_hashes = kernels.tag_columns(mac.lift(out.T), s.s)
            ftag_r = sum(int(h) for h in row_hashes) % mac.Q
            s.check_verified(self.step, ftag_e, ftag_r)
        return out
