"""Counter-mode keystreams, sealing, and MAC-secret derivation.

The counter block layout (little-endian: version(32) | stream_id(32) |
block_index(64), AES-128-ECB) is a frozen external interface, so one test
pins it against a direct `cryptography` oracle.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

import securepim
from securepim.crypto import (
    STREAM_GC,
    STREAM_MAC,
    STREAM_SEAL,
    STREAM_SHARE,
    OtpContext,
)
from securepim.errors import UnknownKeyError, VersionReuseError
from securepim.mac import Q

from conftest import TEST_KEY, ctx


def aes_block_oracle(key_hex, version, stream_id, block_index):
    """Independent oracle: encrypt one counter block with raw AES-ECB."""
    counter = (version.to_bytes(4, "little")
               + stream_id.to_bytes(4, "little")
               + block_index.to_bytes(8, "little"))
    enc = Cipher(algorithms.AES(bytes.fromhex(key_hex)), modes.ECB()).encryptor()
    return enc.update(counter) + enc.finalize()



def blocks_of(words):
    """Keystream blocks (PRF calls) that ``words`` ring words take."""
    return -(-words // 4)

class TestOtpWords:
    def test_deterministic(self, ks):
        a = ks.otp_words(ctx(), 64)
        b = ks.otp_words(ctx(), 64)
        assert np.array_equal(a, b)

    def test_counter_block_layout(self, ks):
        # words are the 4 little-endian uint32 lanes of each AES block
        words = ks.otp_words(OtpContext("k", 7), 8)
        blocks = aes_block_oracle(TEST_KEY, 7, STREAM_SHARE, 0) \
            + aes_block_oracle(TEST_KEY, 7, STREAM_SHARE, 1)
        assert words.tobytes() == blocks

    @pytest.mark.parametrize("version", [-1, 2**32, 2**32 + 7])
    def test_version_outside_counter_field_rejected(self, version):
        """The counter holds 32 version bits: a wider version would reuse
        the pad of ``version mod 2^32``, so it never forms a context."""
        with pytest.raises(ValueError, match="32-bit counter"):
            ctx(version=version)

    def test_widest_version_pins_its_counter(self, ks):
        version = 2**32 - 1
        assert ks.otp_words(ctx(version=version), 4).tobytes() == \
            aes_block_oracle(TEST_KEY, version, STREAM_SHARE, 0)

    def test_seal_stream_is_distinct(self, ks):
        share = ks.otp_words(ctx(), 4)
        sealed_zero = ks.seal(ctx(), np.zeros(4, dtype=np.uint32))
        assert not np.array_equal(share, sealed_zero)
        assert sealed_zero.tobytes() == aes_block_oracle(
            TEST_KEY, 1, STREAM_SEAL, 0)

    def test_version_bump_changes_roughly_half_the_bits(self, ks):
        a = ks.otp_words(ctx(version=1), 4096)
        b = ks.otp_words(ctx(version=2), 4096)
        diff = np.unpackbits((a ^ b).view(np.uint8)).sum()
        frac = diff / (4096 * 32)
        assert 0.45 <= frac <= 0.55

    @pytest.mark.parametrize("n", range(10))
    def test_shorter_stream_is_a_prefix(self, ks, n):
        assert np.array_equal(ks.otp_words(ctx(), n), ks.otp_words(ctx(), 9)[:n])

    def test_unknown_key(self, ks):
        with pytest.raises(UnknownKeyError):
            ks.otp_words(OtpContext("nope", 1), 1)

    def test_prf_call_counting(self, ks):
        calls = []
        ks.otp_words(ctx(), 8, on_prf=calls.append)
        ks.otp_words(ctx(), 9, on_prf=calls.append)
        # words 0..7 fill blocks 0..1; a ninth word needs block 2
        assert calls == [2, 3]



class TestPadRows:
    """Rows of a stream laid out ``width`` words a row (``pad`` with
    ``rows``), against the slices of the whole stream, charged one PRF call
    per distinct block."""

    N = 40   # rows of the full stream each case slices

    @staticmethod
    def touched_blocks(rows, width):
        return {w // 4 for r in rows for w in range(r * width, (r + 1) * width)}

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize("rows", [
        [], [0], [39], [0, 39], [0, 1], [4, 5, 6, 7], [1, 2, 3, 20, 21, 38],
        list(range(40))])
    def test_rows_equal_slices_of_the_stream(self, ks, width, rows):
        calls = []
        got = ks.pad(ctx(), (self.N, width), on_prf=calls.append,
                     rows=np.asarray(rows, dtype=np.int64))
        full = ks.otp_words(ctx(), self.N * width).reshape(self.N, width)
        assert got.dtype == np.uint32
        assert got.shape == (len(rows), width)
        assert np.array_equal(got, full[rows])
        assert sum(calls) == len(self.touched_blocks(rows, width))

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 16])
    def test_every_row_charges_the_whole_stream(self, ks, width):
        calls = []
        ks.pad(ctx(), (self.N, width), on_prf=calls.append,
               rows=np.arange(self.N))
        assert sum(calls) == blocks_of(self.N * width)

    def test_adjacent_rows_share_a_block(self, ks):
        """Width 2 packs two rows in a block and width 3 straddles blocks:
        a block two rows touch is encrypted and charged once."""
        calls = []
        ks.pad(ctx(), (4, 2), on_prf=calls.append, rows=np.asarray([2, 3]))
        ks.pad(ctx(), (3, 3), on_prf=calls.append, rows=np.asarray([1, 2]))
        # block 1 (words 4..7); words 3..5 and 6..8 both touch block 1
        assert calls == [1, 3]

    @pytest.mark.parametrize("dtype", [np.int64, np.intp, np.uint32])
    def test_row_index_dtypes(self, ks, dtype):
        """NumPy 1.x promotes uint64 with int64 to float64: rows of any
        integer dtype address the blocks exactly."""
        rows = np.asarray([3, 17, 38], dtype=dtype)
        full = ks.otp_words(ctx(), self.N * 5).reshape(self.N, 5)
        assert np.array_equal(ks.pad(ctx(), (self.N, 5), rows=rows),
                              full[[3, 17, 38]])

    def test_open_rows_of_a_sealed_array(self, ks):
        x = np.arange(24, dtype=np.uint32).reshape(8, 3)
        sealed = ks.seal(ctx(), x)
        rows = np.asarray([1, 6, 7])
        assert np.array_equal(ks.open(ctx(), sealed[rows], rows=rows), x[rows])

    def test_rows_follow_the_stream_id(self, ks):
        rows = np.asarray([2, 5])
        full = ks.otp_words(ctx(), 32, stream_id=STREAM_SEAL).reshape(8, 4)
        assert np.array_equal(ks.pad(ctx(), (8, 4), STREAM_SEAL, rows=rows),
                              full[rows])


class TestSealOpen:
    def test_involution(self, ks):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 1 << 32, size=1000, dtype=np.uint32)
        assert np.array_equal(ks.open(ctx(), ks.seal(ctx(), x)), x)

    def test_seal_of_zero_is_raw_stream(self, ks):
        zeros = np.zeros(16, dtype=np.uint32)
        sealed = ks.seal(ctx(), zeros)
        assert np.array_equal(
            sealed, ks.otp_words(ctx(), 16, stream_id=STREAM_SEAL))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sealed_words_are_c_contiguous_in_their_shape(self, ks, order):
        """An at-rest tamper mutates sealed words in place, so they are
        always their own C-contiguous array, whatever the input's layout."""
        x = np.asarray(np.arange(12, dtype=np.int64).reshape(3, 4), order=order)
        sealed = ks.seal(ctx(), x)
        assert sealed.shape == (3, 4) and sealed.flags.c_contiguous
        assert np.array_equal(
            sealed, x.astype(np.uint32) ^ ks.pad(ctx(), (3, 4), STREAM_SEAL))

    def test_pad_lays_out_the_first_words(self, ks):
        assert np.array_equal(ks.pad(ctx(), (3, 5), STREAM_SEAL),
                              ks.otp_words(ctx(), 15, STREAM_SEAL).reshape(3, 5))

    def test_versions_give_distinct_ciphertexts(self, ks):
        x = np.arange(64, dtype=np.uint32)
        assert not np.array_equal(ks.seal(ctx(version=1), x),
                                  ks.seal(ctx(version=2), x))


class TestMacSecret:
    def test_deterministic_and_in_range(self, ks):
        s1 = ks.derive_mac_secret(ctx(), Q)
        s2 = ks.derive_mac_secret(ctx(), Q)
        assert s1 == s2
        assert 1 <= s1 <= Q - 1

    def test_range_over_many_contexts(self, ks):
        for v in range(1, 1001):
            s = ks.derive_mac_secret(ctx(version=v), Q)
            assert 1 <= s <= Q - 1

    def test_versions_rarely_collide(self, ks):
        seen = {ks.derive_mac_secret(ctx(version=v), Q)
                for v in range(1, 1001)}
        assert len(seen) == 1000

    def test_uses_dedicated_stream(self, ks):
        # first 8 bytes of MAC-stream block 0, mod (q-1), plus 1
        block = aes_block_oracle(TEST_KEY, 1, STREAM_MAC, 0)
        expect = int.from_bytes(block[:8], "little") % (Q - 1) + 1
        assert ks.derive_mac_secret(ctx(), Q) == expect


class TestVersionDiscipline:
    def test_consume_twice_faults(self, ks):
        ks.consume(ctx())
        with pytest.raises(VersionReuseError):
            ks.consume(ctx())

    def test_distinct_versions_fine(self, ks):
        ks.consume(ctx(version=1))
        ks.consume(ctx(version=2))


def rng_uses(tree):
    """(top-level class or None, line) of each ``random`` import and each
    ``np.random`` reference in a module's syntax tree."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                hit = any(a.name == "random" or a.name.startswith("numpy.random")
                          for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.level == 0 and (
                    node.module in ("random", "numpy.random")
                    or node.module == "numpy" and any(a.name == "random" for a in node.names))
            else:
                hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                       and isinstance(node.value, ast.Name)
                       and node.value.id in ("np", "numpy"))
            if hit:
                yield owner, node.lineno


class TestOneRandomnessRoot:
    """Every secret the host draws comes from the KeyStore.  The only other
    generators are the workload input generator and the adversary's RNG."""

    ALLOWED = {("workloads", None), ("pimsim", "Tamper")}

    def scan(self):
        package = Path(securepim.__file__).parent
        for path in sorted(package.rglob("*.py")):
            module = ".".join(path.relative_to(package).with_suffix("").parts)
            for owner, line in rng_uses(ast.parse(path.read_text())):
                yield module, owner, line

    def test_no_other_generator(self):
        stray = [u for u in self.scan() if u[:2] not in self.ALLOWED]
        assert stray == []

    def test_scan_sees_the_allowed_generators(self):
        assert {u[:2] for u in self.scan()} == self.ALLOWED

    def test_gc_stream_is_distinct(self, ks):
        assert STREAM_GC not in (STREAM_SHARE, STREAM_SEAL, STREAM_MAC)
        assert ks.otp_words(ctx(), 4, stream_id=STREAM_GC).tobytes() == \
            aes_block_oracle(TEST_KEY, 1, STREAM_GC, 0)
