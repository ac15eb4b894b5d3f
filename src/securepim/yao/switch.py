"""Arithmetic-to-Yao switching for the clamped-sigmoid activation.

The host garbles the composed add-then-clamp circuit, hardwires its own R
bits as garbler inputs (the trusted side needs no OT for itself), and the
evaluator fetches labels for its C bits through the ideal OT.  The output
decodes to a plain activation word on the device side.
"""

from dataclasses import dataclass
from functools import lru_cache

from .. import ring
from .circuit import bits_to_word, build_a2y_circuit, word_to_bits
from .garble import EvalTranscript, garble
from .ot import IdealOT


@dataclass
class SwitchStats:
    evaluator_labels_transferred: int
    host_labels_stored: int


@lru_cache(maxsize=None)
def a2y_circuit(word_bits: int = ring.WORD_BITS, frac_bits: int = ring.FRAC_BITS):
    return build_a2y_circuit(word_bits, frac_bits)


def prepare_switch(r_word: int, c_word: int, seed: int,
                   word_bits: int = ring.WORD_BITS, frac_bits: int = ring.FRAC_BITS):
    """Garble one scalar switch; returns (gc, evaluator labels, ot, stats).

    The host stores both labels of every evaluator input wire until the OT
    runs, which is the 2x-input-size memory cost of switching.
    """
    circ = a2y_circuit(word_bits, frac_bits)
    gc, pairs = garble(circ, seed)
    garbler_labels = {
        w: pairs[w][bit]
        for w, bit in zip(circ.garbler_inputs, word_to_bits(r_word, word_bits))
    }
    evaluator_pairs = [pairs[w] for w in circ.evaluator_inputs]
    ot = IdealOT()
    labels = ot.transfer(evaluator_pairs, word_to_bits(c_word, word_bits))
    input_labels = dict(garbler_labels)
    input_labels.update(zip(circ.evaluator_inputs, labels))
    stats = SwitchStats(
        evaluator_labels_transferred=ot.released,
        host_labels_stored=2 * len(circ.evaluator_inputs),
    )
    return gc, input_labels, ot, stats


def a2y_sigmoid(r_word: int, c_word: int, seed: int,
                transcript: EvalTranscript = None) -> int:
    """Host-side reference path: switch, evaluate locally, decode the word."""
    from .garble import evaluate

    gc, input_labels, _ot, _stats = prepare_switch(r_word, c_word, seed)
    return bits_to_word(evaluate(gc, input_labels, transcript=transcript))
