"""Garbling and evaluation: free XOR, point-and-permute, 4-row AND tables.

Labels are 128-bit ints; label(1) = label(0) ^ delta with lsb(delta) = 1, so
a label's low bit doubles as its point bit.  An AND row masks the output
label with a 256-bit keyed hash of the two input labels; the low 128 bits
of a decrypted row must be zero, which is the integrity check that turns
table corruption into an evaluation fault.
"""

import hashlib
import random
from dataclasses import dataclass, field

from .circuit import AND, NOT, XOR, BoolCircuit
from ..errors import GcEvaluationFault

LABEL_BITS = 128
LABEL_MASK = (1 << LABEL_BITS) - 1


def _hash_row(a: int, b: int, gate_id: int) -> int:
    h = hashlib.sha256(
        a.to_bytes(16, "little") + b.to_bytes(16, "little") + gate_id.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(h, "little")


@dataclass
class GarbledCircuit:
    circuit: BoolCircuit
    tables: list            # per gate: list of 4 row ints, or None for XOR/NOT
    output_points: list     # point bit of each output wire's zero-label

    @property
    def ciphertext_count(self) -> int:
        return sum(4 for t in self.tables if t is not None)

    @property
    def table_bytes(self) -> int:
        return self.ciphertext_count * 32


@dataclass
class EvalTranscript:
    """Instrumentation: per-AND-gate count of rows passing the row check."""

    row_matches: list = field(default_factory=list)


def garble(circuit: BoolCircuit, seed: int):
    """Returns (GarbledCircuit, {input wire: (label0, label1)}); deterministic."""
    rng = random.Random(seed)
    delta = rng.getrandbits(LABEL_BITS) | 1
    zero = {}
    for w in circuit.garbler_inputs + circuit.evaluator_inputs:
        zero[w] = rng.getrandbits(LABEL_BITS)
    tables = []
    for gid, g in enumerate(circuit.gates):
        if g.op == XOR:
            zero[g.out] = zero[g.a] ^ zero[g.b]
            tables.append(None)
        elif g.op == NOT:
            zero[g.out] = zero[g.a] ^ delta
            tables.append(None)
        else:
            out0 = rng.getrandbits(LABEL_BITS)
            rows = [0, 0, 0, 0]
            for va in (0, 1):
                for vb in (0, 1):
                    la = zero[g.a] ^ (delta if va else 0)
                    lb = zero[g.b] ^ (delta if vb else 0)
                    lo = out0 ^ (delta if va & vb else 0)
                    rows[((la & 1) << 1) | (lb & 1)] = _hash_row(la, lb, gid) ^ (lo << LABEL_BITS)
            zero[g.out] = out0
            tables.append(rows)
    gc = GarbledCircuit(
        circuit=circuit,
        tables=tables,
        output_points=[zero[w] & 1 for w in circuit.outputs],
    )
    pairs = {
        w: (zero[w], zero[w] ^ delta)
        for w in circuit.garbler_inputs + circuit.evaluator_inputs
    }
    return gc, pairs


def evaluate(gc: GarbledCircuit, input_labels: dict, transcript: EvalTranscript = None,
             row_tamper=None):
    """Walk the gate list on labels; returns plain output bits.

    ``row_tamper(gate_id, row_index, row) -> row`` lets the simulator mutate
    the ciphertext actually being decrypted (tamper-at-access semantics).
    """
    circ = gc.circuit
    labels = dict(input_labels)
    for gid, g in enumerate(circ.gates):
        if g.op == XOR:
            labels[g.out] = labels[g.a] ^ labels[g.b]
        elif g.op == NOT:
            labels[g.out] = labels[g.a]
        else:
            la = labels[g.a]
            lb = labels[g.b]
            r = ((la & 1) << 1) | (lb & 1)
            h = _hash_row(la, lb, gid)
            if transcript is not None:
                transcript.row_matches.append(
                    sum(1 for row in gc.tables[gid] if (row ^ h) & LABEL_MASK == 0)
                )
            row = gc.tables[gid][r]
            if row_tamper is not None:
                row = row_tamper(gid, r, row)
            m = row ^ h
            if m & LABEL_MASK:
                raise GcEvaluationFault(f"row check failed at AND gate {gid}")
            labels[g.out] = m >> LABEL_BITS
    return [(labels[w] & 1) ^ p for w, p in zip(circ.outputs, gc.output_points)]
