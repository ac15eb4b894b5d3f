"""Garbled circuits: builder correctness, free XOR, one-label discipline,
tamper faults, batches, and the arithmetic-to-Yao switch.

Oracles: ``eval_plain`` (gate-by-gate evaluation on plain bits) for
garbling, big-int ring arithmetic for the adder, the piecewise clamp for
the activation, a big-int fixed-key-AES seed expansion and GF(2^128) row
hash for the labels and tables, a gate-order big-int evaluator for the
staged one, and per-seed scalar garbling for batches.
"""

import hashlib
import itertools
import random

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from securepim import ring
from securepim.errors import GcEvaluationFault
from securepim.yao.circuit import (
    AND,
    XOR,
    CircuitBuilder,
    bits_to_word,
    bits_to_words,
    build_a2y_circuit,
    build_add_mod_circuit,
    build_sigmoid_circuit,
    word_to_bits,
    words_to_bits,
)
from securepim.yao.garble import ROW_HASH_KEY, EvalTranscript, evaluate, garble
from securepim.yao.switch import a2y_circuit, prepare_switch

words = st.integers(min_value=0, max_value=(1 << 32) - 1)

ADD = build_add_mod_circuit()
SIG = build_sigmoid_circuit()
A2Y = build_a2y_circuit()


def clamp_oracle(x_word: int) -> int:
    """Piecewise ground truth: 0 / x + 1/2 / 1 in Q12."""
    x = ring.to_signed(x_word)
    return min(max(x + ring.HALF, 0), ring.ONE)


def switch_and_decode(r_word, c_word, seed, transcript=None):
    """Switch one scalar, evaluate it on the host and decode the word."""
    gc, labels, _ot, _stats = prepare_switch(r_word, c_word, seed)
    return bits_to_word(evaluate(gc, labels, transcript=transcript))


def eval_plain(circ, garbler_bits, evaluator_bits):
    """Reference evaluation of ``circ`` on plain bits, gate by gate; the
    oracle for garbling tests."""
    if len(garbler_bits) != len(circ.garbler_inputs):
        raise ValueError("garbler arity mismatch")
    if len(evaluator_bits) != len(circ.evaluator_inputs):
        raise ValueError("evaluator arity mismatch")
    vals = dict(zip(circ.garbler_inputs, garbler_bits))
    vals.update(zip(circ.evaluator_inputs, evaluator_bits))
    for g in circ.gates:
        if g.op == XOR:
            vals[g.out] = vals[g.a] ^ vals[g.b]
        elif g.op == AND:
            vals[g.out] = vals[g.a] & vals[g.b]
        else:
            vals[g.out] = vals[g.a] ^ 1
    return [vals[w] for w in circ.outputs]


def plain_add(r, c):
    bits = eval_plain(ADD, word_to_bits(r, 32), word_to_bits(c, 32))
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
        bits = eval_plain(SIG, [], word_to_bits(x, 32))
        assert bits_to_word(bits) == expect

    @given(words)
    def test_matches_piecewise_oracle(self, x):
        bits = eval_plain(SIG, [], word_to_bits(x, 32))
        assert bits_to_word(bits) == clamp_oracle(x)

    def test_branch_exclusivity(self):
        # ~b2 and b2 & ~b1 can never both be 1; the unreachable (b1=1, b2=0)
        # combination would need x + 1/2 < 0 <= x - 1/2
        for x in (0, 1, ring.HALF, ring.ONE, (1 << 32) - 1,
                  ring.fx_encode(-0.5), ring.fx_encode(0.5)):
            v = ring.to_signed(ring.add(x, ring.HALF))
            w = ring.to_signed((x - ring.HALF) & ring.MASK)
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

    @pytest.mark.parametrize("bad", [-1, 1 << 128, (1 << 128) + 5])
    def test_seed_outside_128_bits_rejected(self, bad):
        with pytest.raises(ValueError, match="2\\^128"):
            garble(ADD, bad)
        with pytest.raises(ValueError, match="2\\^128"):
            garble(ADD, [3, bad])

    def test_widest_seed_garbles(self):
        gc, pairs = garble(ADD, [(1 << 128) - 1, 0])
        assert gc.batch == 2

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
        switch_and_decode(123456, 654321, seed=7, transcript=transcript)
        assert len(transcript.row_matches) == A2Y.and_count
        assert all(m == 1 for m in transcript.row_matches)


class TestA2Y:
    @given(words, st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=150, deadline=None)
    def test_switch_equals_clamp_of_reconstruction(self, x, seed):
        rng = random.Random(seed)
        r = rng.getrandbits(32)
        c = (x - r) & ring.MASK
        assert switch_and_decode(r, c, seed) == clamp_oracle(x)

    def test_label_accounting(self):
        _gc, _labels, ot, stats = prepare_switch(111, 222, seed=3)
        assert stats.evaluator_labels_transferred == 32
        assert ot.released == 32
        assert stats.host_labels_stored == 64

    def test_composed_circuit_plain_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            r, x = rng.getrandbits(32), rng.getrandbits(32)
            c = (x - r) & ring.MASK
            bits = eval_plain(A2Y, word_to_bits(r, 32), word_to_bits(c, 32))
            assert bits_to_word(bits) == clamp_oracle(x)


class TestTamperFault:
    def test_corrupted_selected_row_faults(self):
        """Bit 64 of the first row the first AND stage decrypts is in its
        check half, so the fault names that stage's one gate."""
        gc, labels, _ot, _stats = prepare_switch(42, 43, seed=9)
        stages = []

        def flip(rows):
            if not stages:
                rows[0, 0, 1] ^= np.uint64(1)  # bit 64 of the 256-bit row
            stages.append(rows.shape)
            return rows

        first = next(s for s in A2Y.schedule if s.op == "AND")
        with pytest.raises(GcEvaluationFault,
                           match=f"AND gate {first.gids[0]}$"):
            evaluate(gc, labels, row_tamper=flip)
        assert stages == [(1, 1, 4)]

    def test_corrupting_table_directly(self):
        gc, labels, _ot, _stats = prepare_switch(42, 43, seed=10)
        gc.tables[0, :, 0, 0] ^= np.uint64(1 << 13)  # all 4 rows, first AND
        with pytest.raises(GcEvaluationFault):
            evaluate(gc, labels)


def label_int(words) -> int:
    return int(words[0]) | int(words[1]) << 64


def decrypted_rows(gc, labels):
    """An honest evaluation's bits, and per AND gate id the (copies,) index
    of the table row each copy decrypts there.  The row hook is called once
    per AND stage of ``circuit.schedule``; each stage's gathered rows are
    matched against the gate's four table rows."""
    seen = []

    def record(rows):
        seen.append(rows.copy())
        return rows

    bits = evaluate(gc, labels, row_tamper=record)
    stages = [s for s in gc.circuit.schedule if s.op == "AND"]
    assert len(seen) == len(stages)
    decrypted = {}
    for step, rows in zip(stages, seen):
        for gid, table, got in zip(step.gids, step.tables[:, 0], rows):
            match = (gc.tables[table] == got).all(axis=-1)  # (4 rows, copies)
            assert (match.sum(axis=0) == 1).all()
            decrypted[gid] = match.argmax(axis=0)
    return bits, decrypted


def bigint_double(x: int) -> int:
    """x * 2 in GF(2^128) mod x^128 + x^7 + x^2 + x + 1."""
    x <<= 1
    return x ^ (1 << 128 | 0x87) if x >> 128 else x


def bigint_fixed_key_hash(k: int) -> int:
    """pi(K) ^ K, pi AES-128 under the public key."""
    pi = Cipher(algorithms.AES(ROW_HASH_KEY), modes.ECB()).encryptor()
    return int.from_bytes(pi.update(k.to_bytes(16, "little")), "little") ^ k


def bigint_row_hash(a: int, b: int, tweak: int) -> int:
    """The row hash: the fixed-key hash of K = 2a ^ 4b ^ T."""
    return bigint_fixed_key_hash(bigint_double(a) ^ bigint_double(bigint_double(b)) ^ tweak)


class TestBatch:
    def test_first_and_gate_matches_bigint_reference(self):
        """Draw i of a seed is the fixed-key hash of seed ^ (i << 64): delta,
        input zero-labels, then AND output zero-labels; rows sit at their
        point bits, masked by the row hash."""
        seed = 0xC0FFEE << 100 | 0xFACE << 40 | 11   # bits in both halves
        gc, pairs = garble(ADD, seed)
        draws = (bigint_fixed_key_hash(seed ^ (i << 64)) for i in itertools.count())
        delta = next(draws) | 1
        inputs = ADD.garbler_inputs + ADD.evaluator_inputs
        zero = {w: next(draws) for w in inputs}
        assert pairs == {w: (z, z ^ delta) for w, z in zero.items()}
        gid, gate = next((i, g) for i, g in enumerate(ADD.gates) if g.op == "AND")
        out0 = next(draws)
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

    def test_word_seeds_equal_int_seeds(self):
        """An (N, 2) uint64 array of (low, high) words garbles as the ints."""
        seeds = [3, 1 << 40, (1 << 128) - 1, 0xC0FFEE << 100 | 0xFACE << 40 | 11]
        words = np.array([[s & (1 << 64) - 1, s >> 64] for s in seeds],
                         dtype=np.uint64)
        gc, pairs = garble(A2Y, seeds)
        gw, pw = garble(A2Y, words)
        assert np.array_equal(gc.tables, gw.tables)
        assert np.array_equal(gc.output_points, gw.output_points)
        assert np.array_equal(pairs, pw)
        rs, cs = [1, 2, 3, 4], [5, 6, 7, 1 << 31]
        _g, labels, ot, _s = prepare_switch(rs, cs, seeds)
        _gw, labels_w, ot_w, _sw = prepare_switch(rs, cs, words)
        assert np.array_equal(labels, labels_w)
        assert ot.released == ot_w.released == 4 * 32

    @pytest.mark.parametrize("k", [0, 16, 32])
    def test_row_check_covers_every_copy(self, k):
        """One corrupted row of copy k at a later AND gate faults the batch."""
        rng = random.Random(k)
        xs = [rng.getrandbits(32) for _ in range(33)]
        rs = [rng.getrandbits(32) for _ in range(33)]
        cs = [(x - r) & ring.MASK for x, r in zip(xs, rs)]
        gc, labels, _ot, _stats = prepare_switch(rs, cs, list(range(33)))
        j = 5
        gid = [i for i, g in enumerate(A2Y.gates) if g.op == "AND"][j]
        honest, decrypted = decrypted_rows(gc, labels)
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


def array_digest(a) -> str:
    """SHA-256 of an array's shape, dtype and C-order bytes."""
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr((a.shape, a.dtype.str)).encode() + a.tobytes()).hexdigest()


class TestPinnedGarbling:
    """The garbler's output, byte for byte, as recorded before its gate-order
    plan existed; a change to how ``garble`` is computed must keep these."""

    @pytest.mark.parametrize("seeds,tables,pairs,points", [
        ([], "bc77cf130b07fec94001a29a82b4a76b6c5d84325805b66f8b8d4860871b8918",
         "dc31166eaee70fa80a13762dd200a580853eb856a32a3369ed0fcdd3bcb0e67f",
         "47b0c2e9ad2cb8c4c1c924c5f6de27ac8a97a19edc3621f14c486027f4cce781"),
        ([0], "6032420e71477fd0b960785c7c6ef8b807f49f4dc58ca14c475d60d83a5168d6",
         "df76af6177e0770f14491a8e6f70e737b8afa8d22cad84194f7625a8f850ca11",
         "f4b387841eda209d69bb9814b01483050e1ce9bff16950dc29c2311d6362a2b3"),
        (range(33), "326e38e9ad94d6c380e252bea01d86cf94986ad63ff3d89fc0da5ea584a01cd2",
         "7509f189ed400288520e0d2b84dc0561bcbd938771e38bd66267b41df12c900a",
         "6c97da143ea120e4a41cf160231c587ea2d05f4ac811b266a7a449b0af5ca76c"),
    ])
    def test_batch_digests(self, seeds, tables, pairs, points):
        gc, got_pairs = garble(a2y_circuit(), list(seeds))
        assert array_digest(gc.tables) == tables
        assert array_digest(got_pairs) == pairs
        assert array_digest(gc.output_points) == points

    def test_scalar_digests(self):
        gc, labels = garble(a2y_circuit(), seed=5)
        blob = b"".join(w.to_bytes(4, "little") + l0.to_bytes(16, "little")
                        + l1.to_bytes(16, "little")
                        for w, (l0, l1) in sorted(labels.items()))
        assert hashlib.sha256(blob).hexdigest() == \
            "31e6940914c26d84cb19d901da0acbab1b0f03342a76756baf5ef83c33bb98f3"
        assert array_digest(gc.tables) == \
            "b20208105cb29425e88736f37813b1081926fad3f5bc72edcc1625981bdf5a3f"
        assert array_digest(gc.output_points) == \
            "d237c2112f42b0fb2b58dafebff47c6cd8a6799ac93ef6ea15965f9ca635e285"


class TestBitCodec:
    """The batch codec against the scalar ``word_to_bits``/``bits_to_word``."""

    EDGES = [0, 1, 1 << 31, (1 << 32) - 1]

    @pytest.mark.parametrize("n", [0, 1, 33])
    def test_matches_scalar_codec(self, n):
        words = np.random.default_rng(n).integers(0, 1 << 32, size=n, dtype=np.uint32)
        words[:len(self.EDGES)] = self.EDGES[:n]      # all four edges at n = 33
        bits = words_to_bits(words, 32)
        assert bits.dtype == np.uint32
        assert bits.shape == (32, n)
        assert bits.T.tolist() == [word_to_bits(int(w), 32) for w in words]
        packed = bits_to_words(bits)
        assert packed.dtype == np.uint32
        assert packed.tolist() == words.tolist()
        assert packed.tolist() == [bits_to_word(b) for b in bits.T.tolist()]

    @pytest.mark.parametrize("word", EDGES)
    def test_edge_words_round_trip(self, word):
        bits = words_to_bits([word], 32)
        assert bits[:, 0].tolist() == word_to_bits(word, 32)
        assert bits_to_words(bits).tolist() == [word]

    def test_packs_evaluator_bits(self):
        """``evaluate`` returns uint8 (copy, bit) rows; their transpose packs."""
        bits = np.array([word_to_bits(w, 32) for w in self.EDGES], dtype=np.uint8)
        assert bits_to_words(bits.T).tolist() == self.EDGES


def reference_evaluate(gc, k, labels) -> list:
    """Copy k of ``gc``, gate by gate in gate order on 128-bit int labels
    ({wire: int}), with every row checked against ``bigint_row_hash``: the
    first failing AND gate raises GcEvaluationFault."""
    labels = dict(labels)
    t = 0
    for gid, g in enumerate(gc.circuit.gates):
        if g.op == "XOR":
            labels[g.out] = labels[g.a] ^ labels[g.b]
        elif g.op == "NOT":
            labels[g.out] = labels[g.a]
        else:
            la, lb = labels[g.a], labels[g.b]
            row = gc.tables[t, (la & 1) << 1 | (lb & 1), k]
            if label_int(row[:2]) != bigint_row_hash(la, lb, 2 * gid):
                raise GcEvaluationFault(f"row check failed at AND gate {gid}")
            labels[g.out] = label_int(row[2:]) ^ bigint_row_hash(la, lb, 2 * gid + 1)
            t += 1
    return [labels[w] & 1 ^ int(p) for w, p in zip(gc.circuit.outputs,
                                                    gc.output_points[k])]


def _pure_xor():
    b = CircuitBuilder()
    x = b.evaluator_word(3)
    return b.build([b.xor(x[0], x[1]), b.xor(x[1], x[2])])


def _edge_cases():
    """An input wire as output, NOT of an input, x ^ x and x & x."""
    b = CircuitBuilder()
    g = b.garbler_word(1)
    x = b.evaluator_word(2)
    same = b.xor(x[0], x[0])
    return b.build([x[1], b.not_(g[0]), same, b.and_(x[1], x[1]),
                    b.and_(same, b.not_(x[0]))])


def _wide_stage():
    """Several ANDs per stage, stages fed by XORs of earlier stages."""
    b = CircuitBuilder()
    g = b.garbler_word(3)
    x = b.evaluator_word(3)
    s1 = [b.and_(u, v) for u, v in zip(g, x)]
    s2 = [b.and_(b.xor(s1[i], x[i]), s1[(i + 1) % 3]) for i in range(3)]
    return b.build(s2 + [b.not_(s2[0])])


@st.composite
def small_circuits(draw):
    """Random small circuits; operands repeat and reuse inputs often, so
    x ^ x, NOTs of inputs, inputs as outputs and wide stages come up."""
    b = CircuitBuilder()
    wires = (b.garbler_word(draw(st.integers(0, 3)))
             + b.evaluator_word(draw(st.integers(1, 3))))
    for _ in range(draw(st.integers(0, 14))):
        op = draw(st.sampled_from(["AND", "AND", "XOR", "NOT"]))
        a = draw(st.sampled_from(wires))
        c = a if draw(st.integers(0, 3)) == 0 else draw(st.sampled_from(wires))
        wires.append(b.and_(a, c) if op == "AND" else
                     b.xor(a, c) if op == "XOR" else b.not_(a))
    return b.build(draw(st.lists(st.sampled_from(wires), min_size=1,
                                 max_size=4)))


class TestStagedEvaluation:
    def test_a2y_schedule(self):
        """33 AND stages cover the 102 AND gates once; stage 1 is the first
        AND gate alone; every gate's inputs are set before it runs."""
        stages = [s for s in A2Y.schedule if s.op == "AND"]
        and_gids = [i for i, g in enumerate(A2Y.gates) if g.op == "AND"]
        assert len(stages) == 33
        assert stages[0].gids == (and_gids[0],)
        assert sorted(gid for s in stages for gid in s.gids) == and_gids
        assert all(list(s.gids) == sorted(s.gids) for s in stages)
        ready = set(A2Y.garbler_inputs + A2Y.evaluator_inputs)
        for step in A2Y.schedule:
            if step.op == "AND":
                reads, out = set(step.ab.ravel().tolist()), step.out.tolist()
            else:
                reads, out = {step.a, step.b} - {-1}, [step.out]
            assert reads <= ready
            ready |= set(out)
        assert set(A2Y.outputs) <= ready

    @settings(max_examples=150, deadline=None)
    @given(circ=small_circuits(), data=st.data())
    @example(circ=_pure_xor(), data=None)
    @example(circ=_edge_cases(), data=None)
    @example(circ=_wide_stage(), data=None)
    def test_matches_gate_order_reference(self, circ, data):
        """Batched staged evaluation equals a gate-order big-int walk and
        eval_plain on every copy."""
        inputs = circ.garbler_inputs + circ.evaluator_inputs
        if data is None:
            rng = random.Random(len(circ.gates))
            seeds = [rng.getrandbits(40) for _ in range(3)]
            bits = [[rng.getrandbits(1) for _ in inputs] for _ in seeds]
        else:
            seeds = data.draw(st.lists(st.integers(0, 2**40), min_size=1,
                                       max_size=4))
            bits = [data.draw(st.lists(st.integers(0, 1), min_size=len(inputs),
                                       max_size=len(inputs))) for _ in seeds]
        gc, pairs = garble(circ, seeds)
        labels = np.array([[pairs[i, v[i], k] for k, v in enumerate(bits)]
                           for i in range(len(inputs))], dtype=np.uint64)
        got = evaluate(gc, labels).tolist()
        ng = len(circ.garbler_inputs)
        for k, v in enumerate(bits):
            ref = reference_evaluate(
                gc, k, {w: label_int(labels[i, k]) for i, w in enumerate(inputs)})
            assert got[k] == ref == eval_plain(circ, v[:ng], v[ng:])

    def test_fault_names_every_and_gate(self):
        """For each of the 102 AND gates, corrupt one copy's decrypted row in
        a 33-copy batch.  A corrupted check half faults at that gate; a
        corrupted output-label half faults where the gate-order walk faults
        (at a later AND gate reading the label) or, if no AND gate reads it,
        gives the walk's output bits."""
        rng = random.Random(1)
        rs = [rng.getrandbits(32) for _ in range(33)]
        cs = [rng.getrandbits(32) for _ in range(33)]
        gc, labels, _ot, _stats = prepare_switch(rs, cs, list(range(33)))
        inputs = A2Y.garbler_inputs + A2Y.evaluator_inputs

        def outcome(run):
            try:
                return run()
            except GcEvaluationFault as e:
                return str(e)

        _bits, decrypted = decrypted_rows(gc, labels)
        and_gids = [i for i, g in enumerate(A2Y.gates) if g.op == "AND"]
        downstream = set()
        for j, gid in enumerate(and_gids):
            k = j % 33
            row = gc.tables[j, decrypted[gid][k], k]
            copy_labels = {w: label_int(labels[i, k]) for i, w in enumerate(inputs)}
            for word in (j % 2, 2 + j % 2):
                row[word] ^= np.uint64(1 << j % 64)
                want = outcome(lambda: reference_evaluate(gc, k, copy_labels))
                got = outcome(lambda: evaluate(gc, labels)[k].tolist())
                assert got == want
                if word < 2:
                    assert got == f"row check failed at AND gate {gid}"
                elif isinstance(got, str):
                    downstream.add(gid)
                row[word] ^= np.uint64(1 << j % 64)
        assert len(downstream) == 69     # the AND outputs a later AND gate reads
        evaluate(gc, labels)

    def test_row_tamper_sees_each_and_gate_once(self):
        """One call per AND stage, in schedule order, with that stage's
        (gates, copies, 4) rows: together they cover every AND gate once."""
        gc, labels, _ot, _stats = prepare_switch([5, 6], [7, 8], [1, 2])
        shapes = []

        def record(rows):
            shapes.append(rows.shape)
            return rows

        evaluate(gc, labels, row_tamper=record)
        stages = [s for s in A2Y.schedule if s.op == "AND"]
        assert shapes == [(len(s.gids), 2, 4) for s in stages]
        and_gids = [i for i, g in enumerate(A2Y.gates) if g.op == "AND"]
        assert sorted(gid for s in stages for gid in s.gids) == and_gids
