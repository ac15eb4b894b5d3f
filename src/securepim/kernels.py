"""Hot numeric kernels, vectorized in numpy.

Ring kernels are native uint32 ``einsum`` products: an integer einsum
accumulates in its operands' dtype, and uint32 arithmetic wraps mod 2^32,
which is exactly ring arithmetic, so no operand is widened.  Other integer
inputs are cast to uint32 first, which wraps them into the ring.  Integer
``@`` wraps alike but runs a plain loop, 2-5x slower at 384 x 384.  Every
scheme runs these kernels, so their ``DimensionError`` is the one operand
shape rule.  MAC kernels fold ring words into residues mod q = 2^61 - 1.

A MAC operand is the signed lift of ring words (``mac.lift``, an int32
view), so every value v has |v| <= 2^31.  The tag of a column is a Horner
polynomial, ``tag_j = sum_i M[i,j] * s^(m-i) mod q``.  It is folded against
the power vector ``[s^m, ..., s^1]`` (cached per secret ``s``) split into
the widest w-bit limbs with m * (2^w - 1) * 2^31 < 2^53 (18 bits at m = 16,
11 from m = 2^11 on, in blocks of 2^11 terms), so one float64 (BLAS) product
``limbs @ M`` sums exactly, in any order.  Limb sum x_k weighs 2^(wk), which
mod q is ``((x_k mod 2^b) << wk) + (x_k >> b)`` with b = 61 - wk: no
division.  A single hash recombines its limb sums as Python ints.
``dot_tags`` splits the tags into their eight bytes instead.  The result is
the residue Horner's rule gives, bit for bit.
"""

import functools

import numpy as np

from .errors import DimensionError

MASK32 = np.uint64(0xFFFFFFFF)
Q61 = (1 << 61) - 1
_M61 = np.uint64(Q61)
_M29 = np.uint64((1 << 29) - 1)
_EXACT_TERMS = 1 << 11  # 2^11 terms below 2^42 sum exactly in float64
_OFFSET = np.uint64(4 * Q61)  # 2^63 - 4: moves int64 > -2^63 + 3 into uint64


def _words(a) -> np.ndarray:
    """``a`` as uint32 ring words; a no-op on uint32 arrays, wraps others."""
    return np.asarray(a).astype(np.uint32, copy=False)


def gemv(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = W @ x over Z_{2^32}; W is (m, n) uint32, x is (n,) uint32."""
    W, x = _words(W), _words(x)
    if x.ndim != 1 or W.shape[1] != x.size:   # einsum would broadcast size 1
        raise DimensionError(f"gemv: {W.shape} x {x.shape}")
    return np.einsum("ij,j->i", W, x)


def gemv_t(W: np.ndarray, e: np.ndarray, rows: int = None) -> np.ndarray:
    """g = W.T @ e over the ring.  With ``rows`` (at least 1), the partial
    W_b.T @ e_b of each block b of ``rows`` consecutive rows instead (the
    last may be shorter), as a (blocks, n) array whose rows sum to g."""
    W, e = _words(W), _words(e)
    if e.ndim != 1 or W.shape[0] != e.size:
        raise DimensionError(f"gemv_t: {W.shape}.T x {e.shape}")
    if rows is None:
        return np.einsum("ij,i->j", W, e)
    m, n = W.shape
    if m % rows:
        return np.stack([np.einsum("ij,i->j", W[i:i + rows], e[i:i + rows])
                         for i in range(0, m, rows)])
    return np.einsum("bij,bi->bj", W.reshape(-1, rows, n), e.reshape(-1, rows))


def embedding(table, ids, weights):
    """Weighted gather-reduce, one bag per row of the (batch, pf) ``ids``
    and ``weights``: out[k] = sum_j weights[k, j] * table[ids[k, j]]."""
    if np.ndim(ids) != 2 or np.shape(ids) != np.shape(weights):
        raise DimensionError("embedding: ids and weights must be 2-D, of one shape")
    return np.einsum("kjc,kj->kc", _words(table)[ids], _words(weights))


def distinct_rows(ids, rows: int):
    """The distinct ``ids`` of a table of ``rows`` rows, ascending, and each
    id's place among them: ``embedding(table[d], inv, ...)`` equals
    ``embedding(table, ids, ...)`` for ``d, inv = distinct_rows(ids, rows)``."""
    seen = np.zeros(rows, dtype=bool)
    seen[ids] = True
    distinct = seen.nonzero()[0]
    place = np.empty(rows, dtype=np.intp)
    place[distinct] = np.arange(distinct.size)
    return distinct, place[ids]


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


def _width(m: int) -> int:
    """The widest w with m * (2^w - 1) * 2^31 < 2^53; 11 past 2^11 terms."""
    return 22 - min((m - 1).bit_length(), 11)


def _limbs(p: np.ndarray, w: int) -> np.ndarray:
    """Residues (k,) as their w-bit limbs, float64 (ceil(61/w), k), low first."""
    shifts = np.arange(0, 61, w, dtype=np.uint64)[:, None]
    return ((p >> shifts) & np.uint64((1 << w) - 1)).astype(np.float64)


def _byte_limbs(p: np.ndarray) -> np.ndarray:
    """Residues (k,) as their eight bytes, float64 (8, k), low byte first.

    The byte view costs one conversion pass, where w-bit limbs need a shift
    and a mask first; ``dot_tags`` builds these per call.
    """
    octets = np.ascontiguousarray(p, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return octets.astype(np.float64).T


def _limb_sums(v: np.ndarray, limbs: np.ndarray) -> np.ndarray:
    """``limbs @ v`` along axis 0 as int64, equal mod q, limb axis first.

    ``v`` is the signed lift (int32, or int64) with |v| <= 2^31, (m,) or
    (m, n), and every limb is below 2^_width(m).  A float64 block of up to
    ``_EXACT_TERMS`` terms then sums exactly, whatever order BLAS adds it in.
    A one-block fold comes back as the exact sums; a longer one is reduced
    block by block into [0, 2q).
    """
    v = v.astype(np.float64)
    sums = [(limbs[:, i:i + _EXACT_TERMS] @ v[i:i + _EXACT_TERMS]).astype(np.int64)
            for i in range(0, max(v.shape[0], 1), _EXACT_TERMS)]
    return functools.reduce(
        lambda a, b: (_residues(a) + _residues(b)).view(np.int64), sums)


def _residues(sums: np.ndarray) -> np.ndarray:
    """int64 limb sums above -2^63 + 3 reduced into [0, q), with no division."""
    return _mod61(sums.view(np.uint64) + _OFFSET)


def _recombine(sums: np.ndarray, w: int) -> int:
    """sum_k sums[k] * 2^(wk) mod q for the w-bit limb sums of one fold."""
    return sum(a << w * k for k, a in enumerate(sums.tolist())) % Q61


class _PowerCache:
    """Single-slot cache of ``[s^k, ..., s^1]`` and its limbs, for the last ``s``.

    The MAC secret is fixed per session, so a run builds its vector once and
    grows it by doubling; any shorter fold reads a suffix of it.  The limbs
    of each width in use are kept until the vector changes.
    """

    def __init__(self):
        self.s, self.desc, self.limbs = None, None, {}

    def powers(self, s: int, m: int) -> np.ndarray:
        """The cached ``[s^m, ..., s^1]`` mod q (uint64), a view: read only."""
        if s != self.s or self.desc.size < m:
            desc = self.desc if s == self.s else np.array([s], dtype=np.uint64)
            while desc.size < m:  # [s^2k .. s^(k+1)] = [s^k .. s^1] * s^k
                desc = np.concatenate((mulmod61(desc, desc[0]), desc))
            self.s, self.desc, self.limbs = s, desc, {}
        return self.desc[self.desc.size - m:]

    def powers_limbs(self, s: int, m: int):
        """``w, _limbs([s^m, ..., s^1], w)`` with ``w = _width(m)``."""
        w = _width(m)
        self.powers(s, m)
        if w not in self.limbs:
            self.limbs[w] = _limbs(self.desc, w)
        return w, self.limbs[w][:, self.desc.size - m:]


_POWERS = _PowerCache()
powers = _POWERS.powers


def tag_columns(m_lifted: np.ndarray, s: int) -> np.ndarray:
    """Per-column Horner polynomial: tag_j = sum_i M[i,j] * s^(m-i) mod q."""
    w, limbs = _POWERS.powers_limbs(s, m_lifted.shape[0])
    x = _limb_sums(m_lifted, limbs)
    shifts = np.arange(0, 61, w)[:, None]
    # x_k * 2^(wk) = (x_k mod 2^b) * 2^(wk) + (x_k >> b) * 2^61, b = 61 - wk, and
    # 2^61 = 1 mod q: each term lies in (-2^53, 2^61 + 2^56), and q + their sum
    # in (0, 2^64), which the int64 sum wraps into and the uint64 view reads
    terms = ((x & (1 << (61 - shifts)) - 1) << shifts) + (x >> (61 - shifts))
    return _mod61(terms.sum(axis=0).view(np.uint64) + _M61)


def poly_hash(v_lifted: np.ndarray, s: int) -> int:
    """The one-column case of ``tag_columns``."""
    w, limbs = _POWERS.powers_limbs(s, v_lifted.shape[0])
    return _recombine(_limb_sums(v_lifted, limbs), w)


def dot_tags(tags: np.ndarray, x_lifted: np.ndarray) -> int:
    """sum_j tags[j] * x[j] mod q."""
    return _recombine(_limb_sums(x_lifted, _byte_limbs(tags)), 8)
