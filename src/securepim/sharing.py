"""Additive secret sharing between the trusted host and the device.

A plaintext P is split as C = P - R mod 2^32, where R is the first words
of a fresh OtpContext's stream; the device only ever holds C.  The host
regenerates R on demand instead of storing it, with one exception: under
pim_precompute an operand with no static vectors (an embedding table) keeps
R = P - C in trusted memory, so its online phase needs no PRF calls.  A
lookup that reads only some rows of a share regenerates R for those rows
alone, from the keystream blocks they touch (``KeyStore.pad``).
"""

import numpy as np

from .crypto import KeyStore, OtpContext


def host_share(ctx: OtpContext, shape, ks: KeyStore, on_prf=None,
               rows=None) -> np.ndarray:
    """Regenerate R for a share of the given shape, or only ``R[rows]``
    (ascending, distinct) of a 2-D one."""
    return ks.pad(ctx, shape, on_prf=on_prf, rows=rows)


def split(plain: np.ndarray, ctx: OtpContext, ks: KeyStore, on_prf=None) -> np.ndarray:
    """The device share C = P - R of ``plain``; consumes ``ctx``."""
    plain = np.ascontiguousarray(plain, dtype=np.uint32)
    ks.consume(ctx)
    return plain - host_share(ctx, plain.shape, ks, on_prf)


def reconstruct(cipher: np.ndarray, ctx: OtpContext, ks: KeyStore,
                on_prf=None) -> np.ndarray:
    return cipher + host_share(ctx, cipher.shape, ks, on_prf)


def reshare(plain: np.ndarray, next_ctx: OtpContext, ks: KeyStore, on_prf=None) -> np.ndarray:
    """Identical contract to split; distinct so refresh events can be counted."""
    return split(plain, next_ctx, ks, on_prf)
