"""Hot numeric kernels, vectorized in numpy.

Ring kernels work on uint32 arrays mod 2^32.  MAC kernels work on uint64
residues mod the Mersenne prime q = 2^61 - 1 and rely on every intermediate
fitting 64 bits (see the limb bounds in ``_mul61``).

The MAC tag of a column is a Horner polynomial,
``tag_j = sum_i M[i,j] * s^(m-i) mod q``.  Instead of folding one row at a
time, it is computed as one ``mulmod61`` of the operand by the power vector
``[s^m, ..., s^1]`` followed by an exact sum mod q.  The sum adds the low
and high 32-bit halves of the products (each < 2^62) separately, so neither
partial sum can wrap uint64 while a fold has fewer than 2^32 terms, then
recombines them as ``hi * 2^32 + lo mod q``.  The result is the same residue
Horner's rule gives, bit for bit.
"""

import math

import numpy as np

MASK32 = np.uint64(0xFFFFFFFF)
Q61 = (1 << 61) - 1
_M61 = np.uint64(Q61)
_M29 = np.uint64((1 << 29) - 1)
_BLOCK_TERMS = 1 << 14  # products folded per block; bounds uint64 temporaries


def gemv(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = W @ x over Z_{2^32}; W is (m, n) uint32, x is (n,) uint32."""
    y = W.astype(np.uint64) @ x.astype(np.uint64)
    return (y & MASK32).astype(np.uint32)


def gemv_t(W: np.ndarray, e: np.ndarray) -> np.ndarray:
    """g = W.T @ e over the ring."""
    g = W.astype(np.uint64).T @ e.astype(np.uint64)
    return (g & MASK32).astype(np.uint32)


def embedding(table, ids, weights, batch, pf):
    """Weighted gather-reduce: out[k] = sum_j w[k*pf+j] * table[ids[k*pf+j]]."""
    rows = table.astype(np.uint64)[ids].reshape(batch, pf, -1)
    w = weights.astype(np.uint64).reshape(batch, pf, 1)
    out = (rows * w).sum(axis=1)
    return (out & MASK32).astype(np.uint32)


def _fold61(x):
    return (x & _M61) + (x >> np.uint64(61))


def _mod61(x):
    """Any uint64 reduced into [0, q)."""
    x = _fold61(x)
    return x - np.where(x >= _M61, _M61, np.uint64(0))


def _mul61(a, b):
    """A uint64 < 2^61 + 8 congruent to a * b mod q, for a, b < 2^62."""
    a0 = a & MASK32
    a1 = a >> np.uint64(32)
    b0 = b & MASK32
    b1 = b >> np.uint64(32)
    acc = _fold61(a0 * b0)
    mid = _fold61(a1 * b0 + a0 * b1)
    acc += (mid >> np.uint64(29)) + ((mid & _M29) << np.uint64(32))
    acc += (a1 * b1) << np.uint64(3)  # 2^64 = 8 mod q
    return _fold61(acc)


def mulmod61(a, b):
    """Vectorized (a * b) mod 2^61-1 for uint64 residues < 2^62."""
    return _mod61(_mul61(a, b))


def _dot61(a, b):
    """sum_i a[i] * b[i] mod q along axis 0, exactly; a, b < 2^62.

    ``b`` broadcasts against ``a`` (a column of powers against a matrix).
    Rows are folded in blocks of about ``_BLOCK_TERMS`` products.
    """
    step = max(1, _BLOCK_TERMS // max(math.prod(a.shape[1:]), 1))
    lo = np.zeros(a.shape[1:], dtype=np.uint64)
    hi = np.zeros(a.shape[1:], dtype=np.uint64)
    for start in range(0, a.shape[0], step):
        prods = _mul61(a[start:start + step], b[start:start + step])
        lo += (prods & MASK32).sum(axis=0, dtype=np.uint64)
        hi += (prods >> np.uint64(32)).sum(axis=0, dtype=np.uint64)
    # hi * 2^32 = (hi >> 29) * 2^61 + (hi mod 2^29) * 2^32, and 2^61 = 1 mod q
    hi_shifted = ((hi & _M29) << np.uint64(32)) + (hi >> np.uint64(29))
    return _mod61(hi_shifted + _mod61(lo))


class _PowerCache:
    """Single-slot cache of ``[s^k, ..., s^2, s^1]`` for the last ``s``.

    The MAC secret is fixed per session, so a run builds its vector once and
    grows it by doubling; any shorter fold reads a suffix of it.
    """

    def __init__(self):
        self.s = None
        self.desc = np.zeros(0, dtype=np.uint64)

    def powers(self, s: int, m: int) -> np.ndarray:
        """``[s^m, ..., s^1]`` as uint64 residues."""
        if s != self.s:
            self.s = s
            self.desc = np.array([s], dtype=np.uint64)
        desc = self.desc
        while desc.size < m:  # [s^2k .. s^(k+1)] = [s^k .. s^1] * s^k
            desc = np.concatenate((mulmod61(desc, desc[0]), desc))
        self.desc = desc
        return desc[desc.size - m:]


_POWERS = _PowerCache()


def tag_columns(m_lifted: np.ndarray, s: int) -> np.ndarray:
    """Per-column Horner polynomial: tag_j = sum_i M[i,j] * s^(m-i) mod q."""
    p = _POWERS.powers(s, m_lifted.shape[0])
    return _dot61(m_lifted, p[:, None])


def poly_hash(v_lifted: np.ndarray, s: int) -> int:
    """The one-column case of ``tag_columns``."""
    return int(_dot61(v_lifted, _POWERS.powers(s, v_lifted.shape[0])))


def dot_tags(tags: np.ndarray, x_lifted: np.ndarray) -> int:
    """sum_j tags[j] * x[j] mod q."""
    return int(_dot61(tags, x_lifted))
