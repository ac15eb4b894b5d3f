"""Arithmetic over Z_{2^32} with a Q12 two's-complement fixed-point view.

Every share, kernel value, and garbled-circuit word in the package lives in
this ring.  Scalars are plain Python ints in [0, 2^32); bulk data is numpy
uint32, whose native wrap-around gives the ring semantics for free.
"""

from fractions import Fraction

import numpy as np

WORD_BITS = 32
MASK = (1 << WORD_BITS) - 1
SIGN_BIT = 1 << (WORD_BITS - 1)

FRAC_BITS = 12
ONE = 1 << FRAC_BITS          # 4096 == 1.0
HALF = ONE >> 1               # 2048 == 0.5

# Q12 integer part must fit a signed word: |v| < 2^19.
ENCODE_LO = Fraction(-(1 << 19))
ENCODE_HI = Fraction(1 << 19)


def add(a: int, b: int) -> int:
    return (a + b) & MASK


def to_signed(w: int) -> int:
    """Two's-complement reinterpretation of a ring word."""
    return w - (1 << WORD_BITS) if w & SIGN_BIT else w


def fx_encode(v) -> int:
    """Encode an exactly representable Q12 value; rejects everything else."""
    f = Fraction(v)
    raw = f * ONE
    if raw.denominator != 1:
        raise ValueError(f"{v!r} is not representable in Q{FRAC_BITS}")
    if not (ENCODE_LO <= f < ENCODE_HI):
        raise ValueError(f"{v!r} outside Q{FRAC_BITS} range")
    return raw.numerator & MASK


def fx_encode_nearest(v) -> int:
    """Encode with round-to-nearest; used for constants like learning rates."""
    f = Fraction(v)
    if not (ENCODE_LO <= f < ENCODE_HI):
        raise ValueError(f"{v!r} outside Q{FRAC_BITS} range")
    raw = round(f * ONE)
    return raw & MASK


def fx_decode(w: int) -> Fraction:
    return Fraction(to_signed(w), ONE)


def fx_mul_trunc(a: int, b: int) -> int:
    """Signed 64-bit product, arithmetic shift right by FRAC_BITS, mod 2^32."""
    return ((to_signed(a) * to_signed(b)) >> FRAC_BITS) & MASK


def trunc(w: int) -> int:
    """Rescale a Q24 product word back to Q12 (arithmetic shift)."""
    return (to_signed(w) >> FRAC_BITS) & MASK


# ---------------------------------------------------------------------------
# numpy vector helpers; arrays are uint32 unless stated otherwise.

def to_signed_array(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.uint32).view(np.int32).astype(np.int64)


def from_signed_array(v: np.ndarray) -> np.ndarray:
    return (v.astype(np.int64) & MASK).astype(np.uint32)


def trunc_array(a: np.ndarray) -> np.ndarray:
    return ((to_signed_array(a) >> FRAC_BITS) & MASK).astype(np.uint32)


def fx_mul_trunc_array(a: np.ndarray, b: int) -> np.ndarray:
    """``fx_mul_trunc`` of each word of ``a`` by the scalar word ``b``."""
    prod = to_signed_array(a) * to_signed(b)
    return ((prod >> FRAC_BITS) & MASK).astype(np.uint32)


def relu_array(a: np.ndarray) -> np.ndarray:
    s = to_signed_array(a)
    return np.where(s > 0, s, 0).astype(np.uint32)


def clamp_unit_array(a: np.ndarray) -> np.ndarray:
    """GC-friendly sigmoid on the host: clamp(x + 1/2, 0, 1) in Q12."""
    s = to_signed_array(a) + HALF
    return np.clip(s, 0, ONE).astype(np.uint32)
