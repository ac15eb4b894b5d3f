"""Arithmetic-to-Yao switching for the clamped-sigmoid activation.

The host garbles one composed add-then-clamp circuit per scalar from a seed
of its keystream (``crypto.STREAM_GC``), hardwires its own R bits as garbler
inputs (the trusted side needs no OT for itself), and the evaluator gets
the label of each of its C bits: the oblivious transfer is ideal in this
one-process simulation, one selection of ``label(c)`` per evaluator wire.
The output decodes to plain activation words on the device side.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .. import ring
from .circuit import build_a2y_circuit, words_to_bits
from .garble import _to_int, garble


@dataclass
class SwitchStats:
    evaluator_labels_transferred: int
    host_labels_stored: int


@lru_cache(maxsize=None)
def a2y_circuit():
    return build_a2y_circuit()


def prepare_switch(r_word, c_word, seed):
    """Garble one switch per scalar; returns (gc, input labels, ot, stats).

    ``r_word`` and ``c_word`` are equal-length sequences, ``seed`` the
    seeds ``garble`` takes (an (N, 2) uint64 word array or N ints), and the
    input labels an array for ``evaluate``; with ints they are one scalar
    and the labels a {wire: int} dict.  The host stores both labels of
    every evaluator input wire until the OT runs, which is the
    2x-input-size memory cost of switching.  ``ot`` records the transfer:
    ``ot.released`` is the number of evaluator labels released, one per wire.
    """
    circ = a2y_circuit()
    word_bits = ring.WORD_BITS
    scalar = np.ndim(seed) == 0
    gc, pairs = garble(circ, [seed] if scalar else seed)
    # one gather: each input wire's label of its bit, R's wires then C's
    bits = np.concatenate([words_to_bits(r_word, word_bits),
                           words_to_bits(c_word, word_bits)])
    input_labels = pairs[np.arange(len(bits))[:, None], bits, np.arange(gc.batch)]
    ot = SimpleNamespace(released=word_bits * gc.batch)
    if scalar:
        inputs = circ.garbler_inputs + circ.evaluator_inputs
        input_labels = {w: _to_int(label[0]) for w, label in zip(inputs, input_labels)}
    stats = SwitchStats(
        evaluator_labels_transferred=ot.released,
        host_labels_stored=2 * len(circ.evaluator_inputs) * gc.batch,
    )
    return gc, input_labels, ot, stats

