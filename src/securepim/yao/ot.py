"""Ideal oblivious transfer over the simulated channel.

Delivers exactly label(choice) per evaluator wire and records that the
complementary label never left the host; the instrumented counter backs the
one-label-per-wire discipline checks.
"""

import numpy as np


class IdealOT:
    def __init__(self):
        self.released = 0

    def transfer(self, pairs, choice_bits):
        """pairs: (label0, label1) per wire, as an array with the pair on
        axis 1; one choice bit per wire.  Returns the chosen labels."""
        pairs = np.asarray(pairs)
        choice_bits = np.asarray(choice_bits, dtype=np.intp)
        if len(pairs) != len(choice_bits):
            raise ValueError("one choice bit per evaluator input wire required")
        labels = pairs[np.arange(len(pairs)), choice_bits]
        self.released += len(labels)
        return labels
