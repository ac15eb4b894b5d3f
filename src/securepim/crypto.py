"""Counter-mode keystreams: share OTPs, at-rest sealing, and MAC secrets.

A keystream block is AES-128(key) applied to a 128-bit counter laid out as
little-endian fields ``version(32) || stream_id(32) || block_index(64)``;
each block yields four ring words.  Streams are addressed by a logical
64-bit element index, so regeneration is bit-exact and position-addressable.
"""

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import UnknownKeyError, VersionReuseError

STREAM_SHARE = 0   # masks for arithmetic shares
STREAM_SEAL = 1    # at-rest sealing (MAC-then-encrypt storage)
STREAM_MAC = 2     # per-operand MAC secret s

WORDS_PER_BLOCK = 4


@dataclass(frozen=True)
class OtpContext:
    """Addresses one keystream: (key, version, first element index)."""

    key_id: str
    version: int
    base_index: int = 0


class KeyStore:
    """Registered AES keys plus the consumed-context registry.

    Contexts are consumed by share creation only; regenerating a stream for
    reconstruction or sealing does not burn the version.
    """

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
        mark = (ctx.key_id, ctx.version, ctx.base_index)
        if mark in self._consumed:
            raise VersionReuseError(f"context already consumed: {mark}")
        self._consumed.add(mark)

    def _blocks(self, key_id, version, stream_id, first_block, nblocks, on_prf):
        """``nblocks`` keystream blocks as ring words: from ``first_block`` on
        for one int ``version``, or block ``first_block`` of each in a list."""
        versions = np.asarray(version, dtype=np.uint64).reshape(-1, 1)
        blocks = np.arange(first_block, first_block + nblocks // len(versions),
                           dtype=np.uint64)
        counters = np.empty((len(versions), len(blocks), 2), dtype="<u8")
        counters[..., 1] = blocks
        fields = counters.view("<u4")   # version, stream id, block index (2 words)
        fields[..., 0] = versions       # the cast keeps the low 32 bits
        fields[..., 1] = stream_id
        words = np.empty(4 * nblocks + 4, dtype="<u4")  # room for one spare block
        self._cipher(key_id).update_into(counters.data.cast("B"), words.data.cast("B"))
        if on_prf is not None:
            on_prf(nblocks)
        return words[:4 * nblocks]

    def otp_words(self, ctx: OtpContext, count: int, stream_id: int = STREAM_SHARE,
                  on_prf=None) -> np.ndarray:
        """``count`` keystream ring words starting at ctx.base_index."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return np.empty(0, dtype=np.uint32)
        first_block = ctx.base_index // WORDS_PER_BLOCK
        last_block = (ctx.base_index + count - 1) // WORDS_PER_BLOCK
        words = self._blocks(ctx.key_id, ctx.version, stream_id,
                             first_block, last_block - first_block + 1, on_prf)
        off = ctx.base_index % WORDS_PER_BLOCK
        return words[off:off + count]

    def word_per_context(self, ctxs, on_prf=None) -> np.ndarray:
        """The word at ``base_index`` of each context's share stream, from one
        keystream request of one block per context: the one-word OTPs of a
        vector of scalars.  The contexts must share key and base index."""
        if not ctxs:
            return np.empty(0, dtype=np.uint32)
        key_id, base = ctxs[0].key_id, ctxs[0].base_index
        if any(c.key_id != key_id or c.base_index != base for c in ctxs):
            raise ValueError("contexts must share key_id and base_index")
        words = self._blocks(key_id, [c.version for c in ctxs], STREAM_SHARE,
                             base // WORDS_PER_BLOCK, len(ctxs), on_prf)
        return words[base % WORDS_PER_BLOCK::WORDS_PER_BLOCK].copy()

    def seal(self, ctx: OtpContext, words: np.ndarray, on_prf=None) -> np.ndarray:
        """XOR with the sealing stream; an involution, so also unseals."""
        flat = np.ascontiguousarray(words, dtype=np.uint32).ravel()
        pad = self.otp_words(ctx, flat.size, stream_id=STREAM_SEAL, on_prf=on_prf)
        return (flat ^ pad).reshape(np.shape(words))

    open = seal  # XOR involution

    def derive_mac_secret(self, ctx: OtpContext, q: int, on_prf=None) -> int:
        """s in [1, q-1] from the first MAC-stream block of this context."""
        words = self._blocks(ctx.key_id, ctx.version, STREAM_MAC,
                             ctx.base_index // WORDS_PER_BLOCK, 1, on_prf)
        return int(words[:2].view("<u8")[0]) % (q - 1) + 1
