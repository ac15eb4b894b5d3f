"""Boolean circuits: builder, evaluation plans, bit codecs, stock circuits.

Words are LSB-first wire lists.  Adders use the single-AND full adder
(carry' = c ^ ((a^c) & (b^c))); adding a known constant needs no constant
wires because each bit case simplifies to at most one AND.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .. import ring

XOR = "XOR"
AND = "AND"
NOT = "NOT"


@dataclass(frozen=True)
class Gate:
    op: str
    a: int
    b: int  # -1 for NOT
    out: int


@dataclass(frozen=True)
class AndStage:
    """The AND gates of one AND-depth stage, in gate-id order: input wires
    stacked as ``ab = (a, b)``, output wires, table indices as a (gates, 1)
    column, gate ids, and their row-hash tweaks as (half, gate, 1)."""

    ab: np.ndarray
    out: np.ndarray
    tables: np.ndarray
    gids: tuple
    tweaks: np.ndarray
    op = AND


@dataclass(frozen=True)
class GarblePlan:
    """Index arrays for garbling in gate order: the input wires, garbler
    first; the AND gates' input wires stacked as ``ab = (a, b)``, their
    output wires and their row tweaks as (half, gate, 1, 1); the XOR and
    NOT gates as (a, b, out) wire triples, where a NOT gate's b is
    ``n_wires``, an extra row that holds delta; and the output wires."""

    inputs: np.ndarray
    ab: np.ndarray
    and_out: np.ndarray
    tweaks: np.ndarray
    free: tuple
    outputs: np.ndarray


def row_tweaks(gids):
    """The row-hash tweaks T = 2 * gate id + half of AND gates: (half, gate)
    uint64."""
    doubled = np.asarray(gids, dtype=np.uint64) * 2
    return np.stack([doubled, doubled + 1])


@dataclass
class BoolCircuit:
    n_wires: int
    garbler_inputs: list
    evaluator_inputs: list
    gates: list
    outputs: list

    @property
    def and_count(self) -> int:
        return sum(1 for g in self.gates if g.op == AND)

    @cached_property
    def schedule(self) -> list:
        """The gates in evaluation order, each stage's ANDs merged into one
        AndStage.  A gate's stage is its AND depth: one more than its
        inputs' stage for an AND, their max for XOR and NOT.  Sorting by
        (stage, ANDs before XOR/NOT, gate id) keeps the order topological."""
        stage = [0] * self.n_wires
        keyed = []          # (stage, XOR or NOT, gate id, table index, gate)
        table = 0
        for gid, g in enumerate(self.gates):
            stage[g.out] = max(stage[g.a], stage[g.b] if g.op != NOT else 0) \
                + (g.op == AND)
            keyed.append((stage[g.out], g.op != AND, gid, table, g))
            table += g.op == AND
        steps = []
        for (_, xor_or_not), run in groupby(sorted(keyed), key=lambda k: k[:2]):
            _, _, gids, tables, gates = zip(*run)
            if xor_or_not:
                steps.extend(gates)
                continue
            steps.append(AndStage(
                ab=np.array([[g.a for g in gates], [g.b for g in gates]],
                            dtype=np.intp),
                out=np.array([g.out for g in gates], dtype=np.intp),
                tables=np.array(tables, dtype=np.intp)[:, None],
                gids=gids,
                tweaks=row_tweaks(gids)[..., None]))
        return steps

    @cached_property
    def garble_plan(self) -> GarblePlan:
        """The index arrays ``garble`` runs from, gates in gate order."""
        ands = [(gid, g) for gid, g in enumerate(self.gates) if g.op == AND]
        return GarblePlan(
            inputs=np.array(self.garbler_inputs + self.evaluator_inputs, dtype=np.intp),
            ab=np.array([[g.a for _, g in ands], [g.b for _, g in ands]],
                        dtype=np.intp).reshape(2, len(ands)),
            and_out=np.array([g.out for _, g in ands], dtype=np.intp),
            tweaks=row_tweaks([gid for gid, _ in ands])[..., None, None],
            free=tuple((g.a, self.n_wires if g.op == NOT else g.b, g.out)
                       for g in self.gates if g.op != AND),
            outputs=np.array(self.outputs, dtype=np.intp))


class CircuitBuilder:
    def __init__(self):
        self._n = 0
        self.garbler_inputs = []
        self.evaluator_inputs = []
        self.gates = []

    def _wire(self) -> int:
        w = self._n
        self._n += 1
        return w

    def garbler_word(self, bits: int):
        ws = [self._wire() for _ in range(bits)]
        self.garbler_inputs.extend(ws)
        return ws

    def evaluator_word(self, bits: int):
        ws = [self._wire() for _ in range(bits)]
        self.evaluator_inputs.extend(ws)
        return ws

    def xor(self, a: int, b: int) -> int:
        out = self._wire()
        self.gates.append(Gate(XOR, a, b, out))
        return out

    def and_(self, a: int, b: int) -> int:
        out = self._wire()
        self.gates.append(Gate(AND, a, b, out))
        return out

    def not_(self, a: int) -> int:
        out = self._wire()
        self.gates.append(Gate(NOT, a, -1, out))
        return out

    def add_words(self, a, b):
        """Ripple-carry sum mod 2^len; one AND per bit below the MSB."""
        if len(a) != len(b):
            raise ValueError("word widths differ")
        out = []
        carry = None
        for i, (ai, bi) in enumerate(zip(a, b)):
            if carry is None:
                out.append(self.xor(ai, bi))
                carry = self.and_(ai, bi) if i < len(a) - 1 else None
            else:
                axc = self.xor(ai, carry)
                out.append(self.xor(axc, bi))
                if i < len(a) - 1:
                    bxc = self.xor(bi, carry)
                    carry = self.xor(carry, self.and_(axc, bxc))
        return out

    def add_const(self, a, const: int):
        """Sum of a word and a compile-time constant; carry logic per bit
        collapses to one AND (c=0: carry'=a&cin; c=1: carry'=a|cin)."""
        out = []
        carry = None  # None encodes a known-zero carry
        for i, ai in enumerate(a):
            bit = (const >> i) & 1
            last = i == len(a) - 1
            if carry is None:
                if bit == 0:
                    out.append(ai)
                else:
                    out.append(self.not_(ai))
                    if not last:
                        carry = ai
            else:
                s = self.xor(ai, carry)
                out.append(s if bit == 0 else self.not_(s))
                if not last:
                    if bit == 0:
                        carry = self.and_(ai, carry)
                    else:
                        carry = self.not_(self.and_(self.not_(ai), self.not_(carry)))
        return out

    def sigmoid_clamp(self, x):
        """clamp(x + 1/2, 0, 1) on a two's-complement Q12 word.

        b1 = sign(x + 1/2), b2 = sign(x - 1/2); the middle branch selects
        v = x + 1/2 via b2 & ~b1, the high branch contributes the constant
        one; the branches are mutually exclusive so XOR realizes the sum.
        x - 1/2 wraps to positive for x < -2^(width-1) + 1/2, so the high
        branch also requires x >= 0.  Forming x - 1/2 as v - 1 needs one
        AND fewer than x + (-1/2), which pays for that extra condition.
        """
        frac_bits = ring.FRAC_BITS
        half = 1 << (frac_bits - 1)
        width = len(x)
        v = self.add_const(x, half)
        w = self.add_const(v, (-(1 << frac_bits)) % (1 << width))
        b1 = v[-1]
        b2 = w[-1]
        sel = self.and_(b2, self.not_(b1))
        high = self.and_(self.not_(b2), self.not_(x[-1]))
        out = []
        for i in range(width):
            t = self.and_(sel, v[i])
            out.append(self.xor(t, high) if i == frac_bits else t)
        return out

    def build(self, outputs) -> BoolCircuit:
        return BoolCircuit(
            n_wires=self._n,
            garbler_inputs=list(self.garbler_inputs),
            evaluator_inputs=list(self.evaluator_inputs),
            gates=list(self.gates),
            outputs=list(outputs),
        )


def build_add_mod_circuit() -> BoolCircuit:
    """Garbler word R plus evaluator word C, mod 2^32."""
    b = CircuitBuilder()
    r = b.garbler_word(ring.WORD_BITS)
    c = b.evaluator_word(ring.WORD_BITS)
    return b.build(b.add_words(r, c))


def build_sigmoid_circuit() -> BoolCircuit:
    """Clamped-sigmoid on a plain evaluator-supplied word."""
    b = CircuitBuilder()
    x = b.evaluator_word(ring.WORD_BITS)
    return b.build(b.sigmoid_clamp(x))


def build_a2y_circuit() -> BoolCircuit:
    """Reconstruct x = R + C inside the circuit, then apply the clamp."""
    b = CircuitBuilder()
    r = b.garbler_word(ring.WORD_BITS)
    c = b.evaluator_word(ring.WORD_BITS)
    x = b.add_words(r, c)
    return b.build(b.sigmoid_clamp(x))


def word_to_bits(word: int, bits: int):
    return [(word >> i) & 1 for i in range(bits)]


def bits_to_word(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def words_to_bits(words, bits: int) -> np.ndarray:
    """Batch ``word_to_bits``: the low ``bits`` bits of each word, LSB first,
    as a (bits, words) uint32 array; the words are flattened first."""
    words = np.asarray(words, dtype=np.uint32).reshape(-1)
    return (words >> np.arange(bits, dtype=np.uint32)[:, None]) & np.uint32(1)


def bits_to_words(bits) -> np.ndarray:
    """Batch ``bits_to_word``: the (words,) uint32 words of a (bits, words)
    array of 0/1 values, LSB first."""
    bits = np.asarray(bits, dtype=np.uint32)
    shifts = np.arange(bits.shape[0], dtype=np.uint32)[:, None]
    return (bits << shifts).sum(axis=0, dtype=np.uint32)
