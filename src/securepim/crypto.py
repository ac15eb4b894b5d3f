"""Counter-mode keystreams: share OTPs, sealing, MAC secrets, garbling seeds.

A keystream block is AES-128(key) applied to a 128-bit counter laid out as
little-endian fields ``version(32) || stream_id(32) || block_index(64)``;
each block yields four ring words.  A context is ``(key, version)``; its
stream is addressable by block, so regeneration is bit-exact, and a share
takes the first words of its context's stream.  ``KeyStore.pad`` lays out
every pad (share, seal, garbling seeds), and can give chosen rows alone:
only the blocks those rows touch are encrypted and charged.
"""

import math
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import UnknownKeyError, VersionReuseError

STREAM_SHARE = 0   # masks for arithmetic shares
STREAM_SEAL = 1    # at-rest sealing (MAC-then-encrypt storage)
STREAM_MAC = 2     # per-operand MAC secret s
STREAM_GC = 3      # A2Y garbling seeds, one 128-bit block per scalar

WORDS_PER_BLOCK = 4


@dataclass(frozen=True)
class OtpContext:
    """Addresses one keystream: (key, version)."""

    key_id: str
    version: int

    def __post_init__(self):
        if not 0 <= self.version < 1 << 32:
            raise ValueError(f"version {self.version} would alias in the 32-bit counter")


class KeyStore:
    """Registered AES keys plus the consumed-context registry.

    Contexts are consumed by share creation only; regenerating a stream for
    reconstruction or sealing does not burn the version.
    """

    # block indices 0, 1, ..., shared by every store and grown by doubling
    _index = np.arange(0, dtype=np.uint64)

    def __init__(self):
        self._ciphers = {}
        self._consumed = set()

    def register(self, key_id: str, key_hex: str) -> None:
        key = bytes.fromhex(key_hex)
        if len(key) != 16:
            raise ValueError("key must be 16 bytes of hex")
        # one ECB context per key: ECB keeps no state between updates
        self._ciphers[key_id] = Cipher(algorithms.AES(key), modes.ECB()).encryptor()

    def _cipher(self, key_id):
        try:
            return self._ciphers[key_id]
        except KeyError:
            raise UnknownKeyError(key_id) from None

    def consume(self, ctx: OtpContext) -> None:
        self._cipher(ctx.key_id)
        mark = (ctx.key_id, ctx.version)
        if mark in self._consumed:
            raise VersionReuseError(f"context already consumed: {mark}")
        self._consumed.add(mark)

    def _blocks(self, key_id, version, stream_id, index, nblocks, on_prf):
        """The keystream blocks at the ``nblocks`` distinct block indices
        ``index``, as ring words, block by block."""
        if not nblocks:
            return np.empty(0, dtype=np.uint32)
        counters = np.empty((nblocks, 2), dtype="<u8")
        counters[:, 0] = version | stream_id << 32  # the two low words
        counters[:, 1] = index
        words = np.empty(4 * nblocks + 4, dtype="<u4")  # room for one spare block
        self._cipher(key_id).update_into(counters.data.cast("B"), words.data.cast("B"))
        if on_prf is not None:
            on_prf(nblocks)
        return words[:4 * nblocks]

    def otp_words(self, ctx: OtpContext, count: int, stream_id: int = STREAM_SHARE,
                  on_prf=None) -> np.ndarray:
        """The first ``count`` ring words of the context's stream."""
        if count < 0:
            raise ValueError("count must be >= 0")
        nblocks = -(-count // WORDS_PER_BLOCK)
        index = KeyStore._index
        if index.size < nblocks:
            index = KeyStore._index = np.arange(max(nblocks, 2 * index.size),
                                                dtype=np.uint64)
        return self._blocks(ctx.key_id, ctx.version, stream_id, index[:nblocks],
                            nblocks, on_prf)[:count]

    def pad(self, ctx: OtpContext, shape, stream_id: int = STREAM_SHARE,
            on_prf=None, rows=None) -> np.ndarray:
        """The stream laid out in ``shape``: its first words in C order.
        With ``rows`` (ascending, distinct), only those rows of the 2-D
        layout ``shape[1]`` words a row, ``pad(ctx, (n, shape[1]))[rows]``
        for any ``n`` past the last row, from the blocks those rows touch,
        each encrypted and charged once.

        Rows are read in units of ``u = gcd(width, 4)`` words, so no unit
        straddles a block and a block holds ``4 / u`` of them.  A row of
        whole blocks (``u = 4``) is its own blocks, in order.
        """
        if rows is None:
            return self.otp_words(ctx, math.prod(shape), stream_id,
                                  on_prf).reshape(shape)
        rows, width = np.asarray(rows, dtype=np.int64), shape[1]
        unit = math.gcd(width, WORDS_PER_BLOCK)
        per_row, per_block = width // unit, WORDS_PER_BLOCK // unit
        units = (rows[:, None] * per_row + np.arange(per_row)).ravel()
        if per_block == 1:
            return self._blocks(ctx.key_id, ctx.version, stream_id, units,
                                units.size, on_prf).reshape(rows.size, width)
        # ascending units: a unit starts a new block where its block index steps
        block = units // per_block
        first = np.ones(block.size, dtype=bool)
        first[1:] = block[1:] != block[:-1]
        index = block[first]
        words = self._blocks(ctx.key_id, ctx.version, stream_id, index,
                             index.size, on_prf).reshape(-1, unit)
        slot = np.searchsorted(index, block) * per_block + units % per_block
        return words[slot].reshape(rows.size, width)

    def seal(self, ctx: OtpContext, words: np.ndarray, on_prf=None,
             rows=None) -> np.ndarray:
        """XOR with the sealing stream; an involution, so also unseals.
        With ``rows`` (ascending, distinct), ``words`` holds only those rows
        of a 2-D array, and only their pad is taken."""
        words = np.asarray(words, dtype=np.uint32, order="C")
        return words ^ self.pad(ctx, words.shape, STREAM_SEAL, on_prf, rows)

    open = seal  # XOR involution

    def derive_mac_secret(self, ctx: OtpContext, q: int, on_prf=None) -> int:
        """s in [1, q-1] from the first MAC-stream block of this context."""
        words = self.otp_words(ctx, 2, STREAM_MAC, on_prf)
        return int(words.view("<u8")[0]) % (q - 1) + 1
