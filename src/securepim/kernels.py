"""Hot numeric kernels, vectorized in numpy.

Ring kernels work on uint32 arrays mod 2^32.  MAC kernels fold ring words
into residues mod the Mersenne prime q = 2^61 - 1.

A MAC operand is the signed int64 lift of ring words (``mac.lift``), so
every value v has |v| <= 2^31.  The tag of a column is a Horner polynomial,
``tag_j = sum_i M[i,j] * s^(m-i) mod q``.  It is folded against the power
vector ``[s^m, ..., s^1]`` (cached per secret ``s``) split into four 16-bit
limbs: one int64 product ``limbs @ M`` whose terms are each below 2^47, so a
block of up to 2^16 terms sums exactly.  Limb sum k, reduced mod q, weighs
2^(16k), which mod q is a 61-bit rotate.  ``dot_tags`` splits the tag
residues instead.  The result is the residue Horner's rule gives, bit for bit.
"""

import functools

import numpy as np

MASK32 = np.uint64(0xFFFFFFFF)
Q61 = (1 << 61) - 1
_M61 = np.uint64(Q61)
_M29 = np.uint64((1 << 29) - 1)
_LIMB_SHIFTS = np.arange(0, 64, 16, dtype=np.uint64)
_ROTATE_BACK = np.uint64(61) - _LIMB_SHIFTS
_EXACT_TERMS = 1 << 16  # 2^16 terms below 2^47 sum exactly in int64


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


def mulmod61(a, b):
    """Vectorized (a * b) mod 2^61-1 for uint64 residues < 2^62."""
    a0 = a & MASK32
    a1 = a >> np.uint64(32)
    b0 = b & MASK32
    b1 = b >> np.uint64(32)
    acc = _fold61(a0 * b0)
    mid = _fold61(a1 * b0 + a0 * b1)
    acc += (mid >> np.uint64(29)) + ((mid & _M29) << np.uint64(32))
    acc += (a1 * b1) << np.uint64(3)  # 2^64 = 8 mod q
    return _mod61(_fold61(acc))


def _limbs16(p: np.ndarray) -> np.ndarray:
    """Residues (k,) as their 16-bit limbs, int64 (4, k), low limb first."""
    limbs = np.ascontiguousarray(p, dtype="<u8").view("<u2").reshape(-1, 4)
    return limbs.T.astype(np.int64, order="C")


def _limb_sums(v: np.ndarray, limbs: np.ndarray) -> np.ndarray:
    """``limbs @ v`` mod q along axis 0, as int64 residues, limb axis first.

    ``v`` is signed int64 with |v| <= 2^31, (m,) or (m, n).  Each product
    is below 2^47, so a block of up to ``_EXACT_TERMS`` terms sums exactly
    in int64; longer folds are reduced block by block.
    """
    sums = [np.einsum("km,m...->k...", limbs[:, i:i + _EXACT_TERMS],
                      v[i:i + _EXACT_TERMS]) % Q61
            for i in range(0, max(v.shape[0], 1), _EXACT_TERMS)]
    return functools.reduce(lambda a, b: (a + b) % Q61, sums)


def _recombine(sums: np.ndarray) -> int:
    """sum_k sums[k] * 2^(16k) mod q for the four limb sums of one fold."""
    return sum(int(a) << 16 * k for k, a in enumerate(sums.tolist())) % Q61


class _PowerCache:
    """Single-slot cache of ``[s^k, ..., s^1]`` and its limbs, for the last ``s``.

    The MAC secret is fixed per session, so a run builds its vector once and
    grows it by doubling; any shorter fold reads a suffix of it.
    """

    def __init__(self):
        self.s = self.desc = self.limbs = None

    def powers_limbs(self, s: int, m: int) -> np.ndarray:
        """``_limbs16([s^m, ..., s^1])``."""
        if s != self.s or self.desc.size < m:
            desc = self.desc if s == self.s else np.array([s], dtype=np.uint64)
            while desc.size < m:  # [s^2k .. s^(k+1)] = [s^k .. s^1] * s^k
                desc = np.concatenate((mulmod61(desc, desc[0]), desc))
            self.s, self.desc, self.limbs = s, desc, _limbs16(desc)
        return self.limbs[:, self.desc.size - m:]


_POWERS = _PowerCache()


def tag_columns(m_lifted: np.ndarray, s: int) -> np.ndarray:
    """Per-column Horner polynomial: tag_j = sum_i M[i,j] * s^(m-i) mod q."""
    limbs = _POWERS.powers_limbs(s, m_lifted.shape[0])
    r = _limb_sums(m_lifted, limbs).T.astype(np.uint64)
    r = ((r << _LIMB_SHIFTS) & _M61) | (r >> _ROTATE_BACK)  # r * 2^(16k) mod q
    return _mod61(r.sum(axis=-1, dtype=np.uint64))


def poly_hash(v_lifted: np.ndarray, s: int) -> int:
    """The one-column case of ``tag_columns``."""
    return _recombine(_limb_sums(v_lifted, _POWERS.powers_limbs(s, v_lifted.shape[0])))


def dot_tags(tags: np.ndarray, x_lifted: np.ndarray) -> int:
    """sum_j tags[j] * x[j] mod q."""
    return _recombine(_limb_sums(x_lifted, _limbs16(tags)))
