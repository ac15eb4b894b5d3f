"""Linear modular hashing MACs for verifying outsourced linear kernels.

Per-column tags Tag_j = sum_i M[i,j] * s^(m-i) mod q commute with GEMV:
running the kernel over the tags (FTag_e) must equal hashing the merged
result (FTag_r).  Ring words enter the mod-q domain through a signed lift
to [-2^31, 2^31), so the identity holds whenever the true integer result
fits a signed word; desk-scale workloads are sized to guarantee that.

For q = 2^61 - 1 the tags and hashes come from ``kernels``, which take the
lift as the zero-copy int32 view of the ring words (``lift``) and fold it,
as float64, against limbs of the cached powers ``[s^m, ..., s^1]``, as wide
as the fold length m keeps exact (four 18-bit limbs at m = 16, 11 bits from
m = 2^11 on), or against the bytes of the tags, exactly per block of 2^11
terms.  Other moduli use the big-int Horner loop below.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, ring
from .crypto import KeyStore, OtpContext
from .errors import DimensionError

Q = (1 << 61) - 1  # Mersenne prime: fast reduction, miss probability m/q


@dataclass(frozen=True)
class TagVector:
    """One residue per column of the tagged matrix."""

    residues: np.ndarray     # uint64, < q
    q: int = Q


def lift(words) -> np.ndarray:
    """Signed lift of ring words: their int32 view, values in [-2^31, 2^31)."""
    return np.asarray(words, dtype=np.uint32).view(np.int32)


def _lift_int(w: int, q: int) -> int:
    return ring.to_signed(w & ring.MASK) % q


def gen_tags(matrix: np.ndarray, s: int, q: int = Q) -> TagVector:
    """Tag each column of ``matrix``; tag the rows of M as ``gen_tags(M.T)``."""
    if not 1 <= s <= q - 1:
        raise ValueError("s must lie in [1, q-1]")
    m = np.asarray(matrix, dtype=np.uint32)
    if m.ndim != 2:
        raise DimensionError("tags are defined over 2-D operands")
    if q == Q:
        res = kernels.tag_columns(lift(m), s)
    else:
        res = np.array(
            [_poly_hash_generic(col, s, q) for col in m.T], dtype=np.uint64
        )
    return TagVector(residues=res, q=q)


def _poly_hash_generic(words, s: int, q: int) -> int:
    acc = 0
    for w in words:
        acc = (acc + _lift_int(int(w), q)) * s % q
    return acc


def tag_kernel_gemv(tags: TagVector, x: np.ndarray) -> int:
    """Run the GEMV over the tags: FTag_e = sum_j Tag_j * x_j mod q."""
    x = np.ascontiguousarray(x, dtype=np.uint32).ravel()
    if x.size != tags.residues.size:
        raise DimensionError(
            f"tag count {tags.residues.size} != operand length {x.size}"
        )
    if tags.q == Q:
        return kernels.dot_tags(tags.residues, lift(x))
    return sum(
        int(t) * _lift_int(int(v), tags.q) for t, v in zip(tags.residues, x)
    ) % tags.q


def hash_result(y: np.ndarray, s: int, q: int = Q) -> int:
    """FTag_r: the same polynomial hash applied to a merged result vector."""
    y = np.ascontiguousarray(y, dtype=np.uint32).ravel()
    if q == Q:
        return kernels.poly_hash(lift(y), s)
    return _poly_hash_generic(y, s, q)


def verify(ftag_e: int, ftag_r: int) -> bool:
    return ftag_e == ftag_r


# ---------------------------------------------------------------------------
# MAC-then-encrypt storage: residues live sealed in untrusted memory.

def seal_tags(tags: TagVector, ctx: OtpContext, ks: KeyStore, on_prf=None) -> np.ndarray:
    words = np.ascontiguousarray(tags.residues, dtype="<u8").view("<u4")
    return ks.seal(ctx, words, on_prf=on_prf)


def open_tags(sealed: np.ndarray, ctx: OtpContext, ks: KeyStore,
              on_prf=None) -> TagVector:
    words = ks.open(ctx, sealed, on_prf=on_prf)
    return TagVector(residues=words.view("<u8"))
