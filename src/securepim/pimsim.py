"""The untrusted device: DPU geometry, ring kernels over resident shares,
a host-device channel, and deterministic cost counters.

Kernels run over whichever words are resident (ciphertext shares in secure
schemes, plaintext in the baselines); partitioning across DPUs never changes
the math, only the byte accounting.  Every untrusted surface consults the
session's one ``Tamper``: a spec mutates one 32-bit word at its target, in
place at rest (``AT_REST``, so later reads see it) and in a copy in transit.
Every byte charged to the channel crosses it through ``_h2d`` or ``_d2h``.
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import kernels
from .errors import CapacityError, ConfigError, DimensionError, TaintViolation
from .yao.circuit import bits_to_words
from .yao.garble import evaluate as gc_evaluate

# the device and its channel, then what the host seals into untrusted host
# memory: tag stores, and the resCPU that pim_precompute computes offline
DEVICE_TARGETS = ("resident_share", "channel_h2d", "channel_d2h",
                  "device_result", "gc_table")
TAMPER_TARGETS = DEVICE_TARGETS + ("sealed_tags", "sealed_precompute")
AT_REST = frozenset({"resident_share", "sealed_tags", "sealed_precompute"})
MUTATIONS = ("bit_flip", "word_randomize")


DPU_COUNT = 4
MRAM_BYTES_PER_DPU = 4 << 20   # scaled-down stand-in for 64 MiB MRAM


def per_dpu_bytes(nbytes: int) -> int:
    """The bytes each DPU holds of ``nbytes`` split evenly over the DPUs."""
    return -(-nbytes // DPU_COUNT)


@dataclass
class CostReport:
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    device_mac_ops: int = 0
    host_mac_ops: int = 0
    host_prf_calls: int = 0
    device_prf_calls: int = 0
    gc_ciphertexts: int = 0
    gc_bytes: int = 0
    verify_ops: int = 0


@dataclass
class TamperSpec:
    target: str
    mutation: str = "word_randomize"
    position: object = "random"   # flat word index, or "random"

    def __post_init__(self):
        if self.target not in TAMPER_TARGETS:
            raise ConfigError(f"unknown tamper target {self.target!r}")
        if self.mutation not in MUTATIONS:
            raise ConfigError(f"unknown mutation {self.mutation!r}")
        if not (type(self.position) is int or self.position == "random"):
            raise ConfigError(f"tamper position must be 'random' or an "
                              f"integer, got {self.position!r}")


class Tamper:
    """The one tamper point of every untrusted surface: armed specs, RNG and
    log.  A spec fires once; specs on one target fire in the order armed."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD17]))
        self._armed = []
        self.log = []

    def arm(self, spec: TamperSpec) -> None:
        self._armed.append(spec)

    def _take(self, target):
        for i, spec in enumerate(self._armed):
            if spec.target == target:
                return self._armed.pop(i)
        return None

    def hit(self, target: str, arr: np.ndarray) -> np.ndarray:
        """``arr`` with one 32-bit word mutated by a ``target`` spec, in place
        if at rest (C-contiguous ``AT_REST`` words), else in a copy; uint64
        counts as two uint32 words.  An empty ``arr`` leaves the spec armed."""
        spec = self._take(target) if arr.size else None
        if spec is None:
            return arr
        out = arr if target in AT_REST else arr.copy()
        flat = out.reshape(-1).view(np.uint32)
        idx = (int(self._rng.integers(0, flat.size)) if spec.position == "random"
               else spec.position % flat.size)
        word = new = int(flat[idx])
        if spec.mutation == "bit_flip":
            new ^= 1 << int(self._rng.integers(0, 32))
        while new == word:
            new = int(self._rng.integers(0, 1 << 32))
        flat[idx] = new
        self.log.append(
            {"target": spec.target, "mutation": spec.mutation, "index": idx})
        return out


class PimDevice:
    def __init__(self, report: CostReport, tamper: Tamper, secure_mode: bool):
        self.report = report
        self.tamper = tamper
        self.secure_mode = secure_mode
        self._resident = {}   # name -> resident words

    # delegates to the session's Tamper, kept for the names tracers patch
    def arm_tamper(self, spec: TamperSpec) -> None:
        self.tamper.arm(spec)

    tamper_log = property(lambda self: self.tamper.log)

    # -- channel ------------------------------------------------------------

    def _h2d(self, arr: np.ndarray, secret_plaintext: bool, replicate: bool = False):
        if self.secure_mode and secret_plaintext:
            raise TaintViolation("plaintext private buffer on the h2d channel")
        copies = DPU_COUNT if replicate else 1
        self.report.bytes_h2d += arr.nbytes * copies
        return self.tamper.hit("channel_h2d", arr)

    def _d2h(self, arr: np.ndarray) -> np.ndarray:
        arr = self.tamper.hit("device_result", arr)
        self.report.bytes_d2h += arr.nbytes
        return self.tamper.hit("channel_d2h", arr)

    # -- residency ----------------------------------------------------------

    def load(self, name: str, array: np.ndarray,
             secret_plaintext: bool = False) -> str:
        """Make ``array`` resident, its rows split evenly over the DPUs."""
        array = np.ascontiguousarray(array, dtype=np.uint32)
        per_dpu = per_dpu_bytes(array.nbytes)
        used = sum(per_dpu_bytes(d.nbytes) for d in self._resident.values())
        if used + per_dpu > MRAM_BYTES_PER_DPU:
            raise CapacityError(f"{name}: {per_dpu} B/DPU over budget")
        self._resident[name] = self._h2d(array, secret_plaintext).copy()
        return name

    def store(self, name: str, array: np.ndarray) -> None:
        """Overwrite resident words in place (layer-to-layer refresh); secret
        plaintext is resident only on a device whose channel takes it."""
        if self._resident[name].shape != array.shape:
            raise DimensionError("store shape mismatch")
        self._resident[name] = self._h2d(
            np.ascontiguousarray(array, dtype=np.uint32), False).copy()

    def _access(self, name: str) -> np.ndarray:
        return self.tamper.hit("resident_share", self._resident[name])

    # -- kernels ------------------------------------------------------------

    def _broadcast(self, vec: np.ndarray) -> np.ndarray:
        """Send a vector operand to every DPU."""
        return self._h2d(np.ascontiguousarray(vec, dtype=np.uint32), False,
                         replicate=True)

    def _gemv(self, X, vec, transpose=False):
        """X @ vec (X.T @ vec if ``transpose``) over device-side operands."""
        self.report.device_mac_ops += X.size
        return kernels.gemv_t(X, vec) if transpose else kernels.gemv(X, vec)

    def _embedding(self, table, ids, weights, batch, pf, open_rows=None):
        """The lookup over ``table``; a sealed one is gathered from the
        distinct rows it reads, which ``open_rows(words, rows=rows)`` opens."""
        ids = np.ascontiguousarray(ids, dtype=np.uint32)
        weights = np.ascontiguousarray(weights, dtype=np.uint32)
        # the ids travel in clear, and whatever arrives indexes some row
        ids = self._h2d(ids, False) % table.shape[0]
        weights = self._h2d(weights, False)
        self.report.device_mac_ops += ids.size * table.shape[1]
        if open_rows is not None:
            read, ids = kernels.distinct_rows(ids, table.shape[0])
            table = open_rows(table[read], rows=read)
        return kernels.embedding(table, ids, weights, batch, pf)

    def gemv(self, name: str, x: np.ndarray) -> np.ndarray:
        W = self._access(name)
        return self._d2h(self._gemv(W, self._broadcast(x)))

    def matvec_rows(self, name: str, w: np.ndarray) -> np.ndarray:
        """Per-sample dot products X @ w over the resident rows."""
        return self.gemv(name, w)

    def matvec_cols(self, name: str, e: np.ndarray) -> np.ndarray:
        """Gradient direction X.T @ e over the resident rows."""
        X = self._access(name)
        return self._d2h(self._gemv(X, self._broadcast(e), transpose=True))

    def embedding(self, name: str, ids: np.ndarray, weights: np.ndarray,
                  batch: int, pf: int) -> np.ndarray:
        table = self._access(name)
        return self._d2h(self._embedding(table, ids, weights, batch, pf))

    # -- enc/dec baseline: the device holds the key, decrypts, computes on
    # plaintext, and reseals the result before it leaves (Fig. 12 style).

    def _sealed(self, ks, ctx_in, ctx_out, compute):
        """``compute(open)``, where ``open(words, rows=None)`` opens what it
        reads under ``ctx_in`` with the device-held key, and reseal the
        result under ``ctx_out`` on its way out."""
        y = compute(partial(ks.open, ctx_in, on_prf=self._count_device_prf))
        return self._d2h(ks.seal(ctx_out, y, on_prf=self._count_device_prf))

    def gemv_enc(self, name, sealed_x, ks, ctx_in, ctx_out):
        W = self._access(name)
        x = self._broadcast(sealed_x)
        return self._sealed(ks, ctx_in, ctx_out,
                            lambda open_: self._gemv(W, open_(x)))

    def matvec_enc(self, name, vec, ks, ctx_mat, ctx_out, transpose=False):
        vec = self._broadcast(vec)
        X = self._access(name)
        return self._sealed(ks, ctx_mat, ctx_out,
                            lambda open_: self._gemv(open_(X), vec, transpose))

    def embedding_enc(self, name, ids, weights, batch, pf, ks, ctx_tab, ctx_out):
        T = self._access(name)
        return self._sealed(ks, ctx_tab, ctx_out, lambda open_: self._embedding(
            T, ids, weights, batch, pf, open_))

    def _count_device_prf(self, n):
        self.report.device_prf_calls += n

    def evaluate_garbled(self, gc, input_labels):
        """Evaluate a batch of garbled circuits device-side: the tables and
        input labels cross the channel, a ``gc_table`` spec hits the rows
        each AND stage decrypts, and each copy's output bits come back
        packed into one uint32 word."""
        self.report.gc_ciphertexts += gc.ciphertext_count
        self.report.gc_bytes += gc.table_bytes
        gc = replace(gc, tables=self._h2d(gc.tables, False))
        bits = gc_evaluate(gc, self._h2d(input_labels, False),
                           row_tamper=partial(self.tamper.hit, "gc_table"))
        return self._d2h(bits_to_words(bits.T))
