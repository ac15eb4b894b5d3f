"""Garbled circuits: builder correctness, free XOR, one-label discipline,
tamper faults, batches, and the arithmetic-to-Yao switch.

Oracles: BoolCircuit.eval_plain for garbling, big-int ring arithmetic for
the adder, the piecewise clamp for the activation, a big-int GF(2^128)
fixed-key-AES row hash for the tables, and per-seed scalar garbling for
batches.
"""

import random

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from securepim import ring
from securepim.errors import GcEvaluationFault
from securepim.yao.circuit import (
    CircuitBuilder,
    bits_to_word,
    build_a2y_circuit,
    build_add_mod_circuit,
    build_sigmoid_circuit,
    word_to_bits,
)
from securepim.yao.garble import ROW_HASH_KEY, EvalTranscript, evaluate, garble
from securepim.yao.ot import IdealOT
from securepim.yao.switch import a2y_sigmoid, prepare_switch

words = st.integers(min_value=0, max_value=(1 << 32) - 1)

ADD = build_add_mod_circuit()
SIG = build_sigmoid_circuit()
A2Y = build_a2y_circuit()


def clamp_oracle(x_word: int) -> int:
    """Piecewise ground truth: 0 / x + 1/2 / 1 in Q12."""
    x = ring.to_signed(x_word)
    return min(max(x + ring.HALF, 0), ring.ONE)


def plain_add(r, c):
    bits = ADD.eval_plain(word_to_bits(r, 32), word_to_bits(c, 32))
    return bits_to_word(bits)


class TestAdderCircuit:
    def test_small(self):
        assert plain_add(3, 5) == 8

    def test_wrap(self):
        assert plain_add((1 << 32) - 1, 1) == 0

    @given(words, words)
    def test_matches_ring_oracle(self, r, c):
        assert plain_add(r, c) == ring.add(r, c)

    def test_one_and_per_bit(self):
        assert ADD.and_count == 31  # no carry out of the MSB


class TestSigmoidCircuit:
    def test_gate_budget(self):
        assert SIG.and_count <= 4 * 32 + 8

    @pytest.mark.parametrize("x,expect", [
        (ring.fx_encode(0.0), ring.fx_encode(0.5)),
        (ring.fx_encode(1.0), ring.fx_encode(1.0)),
        (ring.fx_encode(-1.0), 0),
        (ring.fx_encode(0.25), ring.fx_encode(0.75)),
        (ring.fx_encode(-3.0), 0),
        (1 << 31, 0),                   # x - 1/2 wraps to positive here
        ((1 << 31) + ring.HALF - 1, 0),
        ((1 << 31) - 1, ring.ONE),      # x + 1/2 wraps to negative here
    ])
    def test_piecewise_anchors(self, x, expect):
        bits = SIG.eval_plain([], word_to_bits(x, 32))
        assert bits_to_word(bits) == expect

    @given(words)
    def test_matches_piecewise_oracle(self, x):
        bits = SIG.eval_plain([], word_to_bits(x, 32))
        assert bits_to_word(bits) == clamp_oracle(x)

    def test_branch_exclusivity(self):
        # ~b2 and b2 & ~b1 can never both be 1; the unreachable (b1=1, b2=0)
        # combination would need x + 1/2 < 0 <= x - 1/2
        for x in (0, 1, ring.HALF, ring.ONE, (1 << 32) - 1,
                  ring.fx_encode(-0.5), ring.fx_encode(0.5)):
            v = ring.to_signed(ring.add(x, ring.HALF))
            w = ring.to_signed(ring.sub(x, ring.HALF))
            b1, b2 = int(v < 0), int(w < 0)
            assert not (b1 == 1 and b2 == 0)


class TestGarbling:
    def test_ciphertext_count_is_4x_and(self):
        for circ in (ADD, SIG, A2Y):
            gc, _ = garble(circ, seed=1)
            assert gc.ciphertext_count == 4 * circ.and_count

    def test_pure_xor_circuit_has_zero_ciphertexts(self):
        b = CircuitBuilder()
        xs = b.evaluator_word(8)
        ys = b.evaluator_word(8)
        circ = b.build([b.xor(a, c) for a, c in zip(xs, ys)])
        gc, _ = garble(circ, seed=2)
        assert circ.and_count == 0
        assert gc.ciphertext_count == 0
        # free XOR also means evaluation is label XOR, no tables at all
        assert gc.tables.size == 0

    def test_deterministic(self):
        g1, p1 = garble(SIG, seed=99)
        g2, p2 = garble(SIG, seed=99)
        assert np.array_equal(g1.tables, g2.tables)
        assert p1 == p2

    def test_free_xor_label_algebra(self):
        gc, pairs = garble(ADD, seed=5)
        deltas = {l1 ^ l0 for l0, l1 in pairs.values()}
        assert len(deltas) == 1  # one global delta
        assert deltas.pop() & 1 == 1  # lsb set: point bits complement

    @settings(max_examples=200, deadline=None)
    @given(words, words, st.integers(min_value=0, max_value=2**31))
    def test_evaluate_matches_plain(self, r, c, seed):
        gc, pairs = garble(ADD, seed)
        labels = {w: pairs[w][bit] for w, bit in zip(
            ADD.garbler_inputs, word_to_bits(r, 32))}
        labels.update({w: pairs[w][bit] for w, bit in zip(
            ADD.evaluator_inputs, word_to_bits(c, 32))})
        assert bits_to_word(evaluate(gc, labels)) == ring.add(r, c)

    def test_exactly_one_row_match_per_and_gate(self):
        transcript = EvalTranscript()
        a2y_sigmoid(123456, 654321, seed=7, transcript=transcript)
        assert len(transcript.row_matches) == A2Y.and_count
        assert all(m == 1 for m in transcript.row_matches)


class TestIdealOT:
    def test_choice_selects_label(self):
        ot = IdealOT()
        pairs = [(10, 11), (20, 21), (30, 31)]
        assert ot.transfer(pairs, [0, 1, 0]).tolist() == [10, 21, 30]

    def test_released_equals_input_count(self):
        ot = IdealOT()
        ot.transfer([(0, 1)] * 32, [1] * 32)
        assert ot.released == 32

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            IdealOT().transfer([(0, 1)], [0, 1])


class TestA2Y:
    @given(words, st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=150, deadline=None)
    def test_switch_equals_clamp_of_reconstruction(self, x, seed):
        rng = random.Random(seed)
        r = rng.getrandbits(32)
        c = ring.sub(x, r)
        assert a2y_sigmoid(r, c, seed) == clamp_oracle(x)

    def test_label_accounting(self):
        _gc, _labels, ot, stats = prepare_switch(111, 222, seed=3)
        assert stats.evaluator_labels_transferred == 32
        assert ot.released == 32
        assert stats.host_labels_stored == 64

    def test_composed_circuit_plain_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            r, x = rng.getrandbits(32), rng.getrandbits(32)
            c = ring.sub(x, r)
            bits = A2Y.eval_plain(word_to_bits(r, 32), word_to_bits(c, 32))
            assert bits_to_word(bits) == clamp_oracle(x)


class TestTamperFault:
    def test_corrupted_selected_row_faults(self):
        gc, labels, _ot, _stats = prepare_switch(42, 43, seed=9)
        hits = []

        def flip(gid, ridx, rows):
            if not hits:
                hits.append(gid)
                rows[0, 1] ^= np.uint64(1)  # bit 64 of the 256-bit row
            return rows

        with pytest.raises(GcEvaluationFault):
            evaluate(gc, labels, row_tamper=flip)
        assert hits

    def test_corrupting_table_directly(self):
        gc, labels, _ot, _stats = prepare_switch(42, 43, seed=10)
        gc.tables[0, :, 0, 0] ^= np.uint64(1 << 13)  # all 4 rows, first AND
        with pytest.raises(GcEvaluationFault):
            evaluate(gc, labels)


def label_int(words) -> int:
    return int(words[0]) | int(words[1]) << 64


def bigint_double(x: int) -> int:
    """x * 2 in GF(2^128) mod x^128 + x^7 + x^2 + x + 1."""
    x <<= 1
    return x ^ (1 << 128 | 0x87) if x >> 128 else x


def bigint_row_hash(a: int, b: int, tweak: int) -> int:
    """pi(K) ^ K with K = 2a ^ 4b ^ T, pi AES-128 under the public key."""
    k = bigint_double(a) ^ bigint_double(bigint_double(b)) ^ tweak
    pi = Cipher(algorithms.AES(ROW_HASH_KEY), modes.ECB()).encryptor()
    return int.from_bytes(pi.update(k.to_bytes(16, "little")), "little") ^ k


class TestBatch:
    def test_first_and_gate_matches_bigint_reference(self):
        """Labels come from the getrandbits(128) stream (delta, inputs, AND
        outputs); rows sit at their point bits, masked by the row hash."""
        seed = 11
        gc, pairs = garble(ADD, seed)
        rng = random.Random(seed)
        delta = rng.getrandbits(128) | 1
        inputs = ADD.garbler_inputs + ADD.evaluator_inputs
        zero = {w: rng.getrandbits(128) for w in inputs}
        assert pairs == {w: (z, z ^ delta) for w, z in zero.items()}
        gid, gate = next((i, g) for i, g in enumerate(ADD.gates) if g.op == "AND")
        out0 = rng.getrandbits(128)
        for va in (0, 1):
            for vb in (0, 1):
                la = zero[gate.a] ^ (delta if va else 0)
                lb = zero[gate.b] ^ (delta if vb else 0)
                r = (la & 1) << 1 | (lb & 1)
                row = gc.tables[0, r, 0]
                assert label_int(row[:2]) == bigint_row_hash(la, lb, 2 * gid)
                assert label_int(row[2:]) == (bigint_row_hash(la, lb, 2 * gid + 1)
                                           ^ out0 ^ (delta if va & vb else 0))

    def test_batch_equals_per_seed_scalar_garbling(self):
        seeds = [3, 1 << 40, 7, 0, 3]
        gc, pairs = garble(A2Y, seeds)
        inputs = A2Y.garbler_inputs + A2Y.evaluator_inputs
        assert gc.batch == len(seeds)
        assert gc.ciphertext_count == 4 * A2Y.and_count * len(seeds)
        assert gc.table_bytes == 32 * gc.ciphertext_count
        for k, seed in enumerate(seeds):
            one, one_pairs = garble(A2Y, seed)
            assert {w: (label_int(pairs[i, 0, k]), label_int(pairs[i, 1, k]))
                    for i, w in enumerate(inputs)} == one_pairs
            assert np.array_equal(gc.tables[:, :, k], one.tables[:, :, 0])
            assert np.array_equal(gc.output_points[k], one.output_points[0])

    @pytest.mark.parametrize("k", [0, 16, 32])
    def test_row_check_covers_every_copy(self, k):
        """One corrupted row of copy k at a later AND gate faults the batch."""
        rng = random.Random(k)
        xs = [rng.getrandbits(32) for _ in range(33)]
        rs = [rng.getrandbits(32) for _ in range(33)]
        cs = [ring.sub(x, r) for x, r in zip(xs, rs)]
        gc, labels, _ot, _stats = prepare_switch(rs, cs, list(range(33)))
        j = 5
        gid = [i for i, g in enumerate(A2Y.gates) if g.op == "AND"][j]
        decrypted = {}

        def record(g, ridx, rows):
            decrypted[g] = ridx.copy()
            return rows

        honest = evaluate(gc, labels, row_tamper=record)
        assert [bits_to_word(b) for b in honest.tolist()] == \
            [clamp_oracle(x) for x in xs]
        gc.tables[j, decrypted[gid][k], k, 0] ^= np.uint64(1)
        with pytest.raises(GcEvaluationFault, match=f"AND gate {gid}$"):
            evaluate(gc, labels)

    def test_transcript_counts_one_match_per_gate_and_copy(self):
        gc, labels, _ot, _stats = prepare_switch([1, 2, 3], [4, 5, 6], [7, 8, 9])
        transcript = EvalTranscript()
        evaluate(gc, labels, transcript=transcript)
        assert transcript.row_matches == [1] * (3 * A2Y.and_count)
