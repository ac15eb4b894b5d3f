"""Garbling and evaluation of a batch of N independent copies of one circuit:
free XOR, point-and-permute, 4-row AND tables, a fixed-key-AES row hash.

Each copy has its own seed, delta and labels.  A label is a 128-bit value
held as a uint64 (lo, hi) pair; label(1) = label(0) ^ delta with
lsb(delta) = 1, so a label's low bit doubles as its point bit.  An AND row
masks the output label with a 256-bit hash of the two input labels, one
fixed-key AES block per 128-bit half (Bellare, Hoang, Keelveedhi and
Rogaway, S&P 2013): H(a, b, T) = pi(K) ^ K with K = 2a ^ 4b ^ T, doubling
in GF(2^128) and T = 2 * gate id + half.  The low 128 bits of a decrypted
row must be zero, which is the integrity check that turns table corruption
into an evaluation fault.  The same hash, tweakable and correlation-robust
(Guo, Katz, Wang and Yu, S&P 2020), expands a 128-bit seed s: draw i, with
K = s ^ (i << 64), gives delta, the input zero-labels, then the AND output
zero-labels in gate order.

Garbling runs in gate order from the circuit's cached index plan
(``BoolCircuit.garble_plan``): every wire's zero-labels sit in one
(wires, N, 2) array, each XOR or NOT gate is one in-place XOR into it, and
the AND gates' input labels are gathered from it by one fancy index.

Evaluation runs by AND depth (Husted, Myers, shelat and Grubbs, ACSAC 2013):
XOR and NOT gates one at a time, and each stage of AND gates whose inputs
are ready as one step, with one key, one AES call and one row check for
all of its gates and copies.

An int seed garbles a batch of one in the scalar form: labels are 128-bit
ints keyed by wire, and evaluation returns a list of output bits.
"""

from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .circuit import NOT, XOR, BoolCircuit
from ..errors import GcEvaluationFault

# pi: AES-128 under a fixed public key; ECB keeps no state between calls
ROW_HASH_KEY = bytes(range(16))
_PI = Cipher(algorithms.AES(ROW_HASH_KEY), modes.ECB()).encryptor()
_LSB = np.array([1, 0], dtype=np.uint64)
_FOLD = np.array([0, 0x87, 0x87 << 1, 0x87 ^ 0x87 << 1], dtype=np.uint64)
_ONE = np.uint64(1)
# row r of a table holds the inputs whose point bits are (r >> 1, r & 1)
_ROW_A = np.array([0, 0, 1, 1], dtype=np.uint64)[:, None]
_ROW_B = np.array([0, 1, 0, 1], dtype=np.uint64)[:, None]


# Work on (..., 2) label arrays goes word by word wherever the other operand
# differs per word: broadcasting it across the trailing (lo, hi) axis would
# make numpy's inner loop two elements long.

def _key(a, b):
    """K = 2a ^ 4b in GF(2^128) mod x^128 + x^7 + x^2 + x + 1, on (..., 2)
    labels.  The bits shifted out of hi fold back into lo as their carryless
    product with 0x87, and doubling is linear, so both reductions are one."""
    key = (a << 1) ^ (b << 2)
    carry = (a >> 63) ^ (b >> 62)
    key[..., 0] ^= _FOLD[carry[..., 1]]
    key[..., 1] ^= carry[..., 0]
    return key


def _hash(keys):
    """pi(K) ^ K for every 128-bit block of a C-contiguous (..., 2) uint64
    array.  update_into skips the copies into and out of bytes objects,
    which cost several times the AES itself on large batches."""
    out = np.empty(keys.size + 2, dtype=np.uint64)  # room for one spare block
    _PI.update_into(keys.reshape(-1).view(np.uint8), out.view(np.uint8))
    out = out[:keys.size].reshape(keys.shape)
    out ^= keys
    return out


def _xor_delta(labels, bits, delta):
    """labels ^= delta where ``bits`` is 1, in place."""
    mask = np.uint64(0) - bits
    labels[..., 0] ^= delta[..., 0] & mask
    labels[..., 1] ^= delta[..., 1] & mask


def _to_int(label) -> int:
    return int(label[0]) | int(label[1]) << 64


def _from_int(label: int):
    return [label & 0xFFFFFFFFFFFFFFFF, label >> 64]


@dataclass
class GarbledCircuit:
    """What the evaluator receives: N garbled copies of ``circuit``."""

    circuit: BoolCircuit
    tables: np.ndarray          # (AND gates, 4 rows, N, 4 words, low first) uint64
    output_points: np.ndarray   # (N, outputs) point bit of each output zero-label

    batch = property(lambda self: self.output_points.shape[0])
    ciphertext_count = property(lambda self: self.tables.size // 4)  # 4 per AND per copy
    table_bytes = property(lambda self: self.tables.nbytes)


@dataclass
class EvalTranscript:
    """Instrumentation: per AND gate, per copy, the rows passing the row check."""

    row_matches: list = field(default_factory=list)


def _seed_words(seeds) -> np.ndarray:
    """The (N, 2) uint64 (low, high) words of N 128-bit seeds."""
    if isinstance(seeds, np.ndarray) and seeds.ndim == 2 \
            and seeds.dtype.kind == "u" and seeds.dtype.itemsize == 8:
        return seeds
    seeds = [int(s) for s in seeds]
    if not all(0 <= s < 1 << 128 for s in seeds):
        raise ValueError("garbling seeds must lie in [0, 2^128)")
    return np.frombuffer(b"".join(s.to_bytes(16, "little") for s in seeds),
                         dtype="<u8").reshape(-1, 2)


def garble(circuit: BoolCircuit, seed):
    """Garble one copy of ``circuit`` per seed; deterministic.

    Returns (GarbledCircuit, pairs).  For N seeds ``pairs`` is a
    (inputs, 2, N, 2) uint64 array: ``pairs[i, v]`` holds the labels of
    value v on input i, garbler inputs first.  For an int seed it maps each
    input wire to its (label0, label1) ints.  The seeds are an (N, 2) uint64
    array of (low, high) words, or ints in [0, 2^128).
    """
    scalar = np.ndim(seed) == 0
    words = _seed_words([seed] if scalar else seed)
    n = len(words)
    plan = circuit.garble_plan
    n_in, n_and = plan.inputs.size, plan.and_out.size
    draws = 1 + n_in + n_and
    keys = np.empty((draws, n, 2), dtype=np.uint64)
    keys[:] = words
    keys[..., 1] ^= np.arange(draws, dtype=np.uint64)[:, None]
    rand = _hash(keys)
    delta = rand[0] | _LSB
    zero = np.zeros((circuit.n_wires + 1, n, 2), dtype=np.uint64)
    zero[plan.inputs] = rand[1:1 + n_in]
    zo = rand[1 + n_in:]
    zero[plan.and_out] = zo
    zero[-1] = delta                      # what NOT gates XOR in
    wire = list(zero)                     # per-wire views, written in place
    for a, b, out in plan.free:
        np.bitwise_xor(wire[a], wire[b], out=wire[out])
    zab = zero[plan.ab]                   # (a or b, gate, copy, word)
    output_points = (zero[plan.outputs, :, 0] & _ONE).astype(np.uint8).T
    # freeing each buffer once read lowers the batch's peak heap
    del wire, zero
    pab = zab[..., 0] & _ONE
    _xor_delta(zab, pab, delta)           # now the labels with point bit 0
    # K = 2a ^ 4b is linear: row r's key is the key of the point-0 labels
    # plus (r >> 1) 2 delta ^ (r & 1) 4 delta
    steps = _key(delta * _ROW_A[..., None], delta * _ROW_B[..., None])
    keys = np.repeat((_key(zab[0], zab[1])[:, None] ^ steps)[..., None, :], 2, axis=-2)
    del zab
    keys[..., 0, 0] ^= plan.tweaks[0]
    keys[..., 1, 0] ^= plan.tweaks[1]
    tables = _hash(keys).reshape(n_and, 4, n, 4)
    del keys
    out = tables[..., 2:]                 # the masked output labels
    out[..., 0] ^= zo[:, None, :, 0]
    out[..., 1] ^= zo[:, None, :, 1]
    _xor_delta(out, (pab[0, :, None] ^ _ROW_A) & (pab[1, :, None] ^ _ROW_B), delta)
    gc = GarbledCircuit(circuit, tables, output_points)
    pairs = np.stack([rand[1:1 + n_in], rand[1:1 + n_in] ^ delta], axis=1)
    if scalar:
        pairs = {int(w): (_to_int(p[0, 0]), _to_int(p[1, 0]))
                 for w, p in zip(plan.inputs, pairs)}
    return gc, pairs


def evaluate(gc: GarbledCircuit, input_labels, transcript: EvalTranscript = None,
             row_tamper=None):
    """Evaluate all N copies one AND stage at a time (``circuit.schedule``);
    returns (N, outputs) plain bits, or a list of bits for scalar-form
    ``input_labels``.

    ``input_labels`` is an (inputs, N, 2) uint64 array ordered like
    ``garble``'s pairs, or a {wire: int} dict for a batch of one.  A stage's
    AND gates take one row hash and one row check for every gate and copy;
    the first failing stage raises, naming its lowest failing gate id.  A
    corrupted check half fails at its own gate, as in gate order.  A
    corrupted output-label half fails at a later AND gate that reads the
    label: the first in stage order, which on a general circuit can be a
    different gate from the first in gate order (on the A2Y circuit the
    two agree).
    ``row_tamper(rows) -> rows`` lets the simulator mutate the ciphertexts
    actually being decrypted (tamper-at-access), called once per AND stage
    with its (gates, copies, 4) uint64 rows: ``rows[j, k]`` holds the four
    words, low first, of the row that copy k decrypts at the stage's gate j.
    """
    circ = gc.circuit
    inputs = circ.garbler_inputs + circ.evaluator_inputs
    scalar = isinstance(input_labels, dict)
    if scalar:
        input_labels = np.array([[_from_int(input_labels[w])] for w in inputs],
                                dtype=np.uint64).reshape(-1, 1, 2)
    n = gc.batch
    labels = np.empty((circ.n_wires, n, 2), dtype=np.uint64)
    labels[inputs] = input_labels
    rows_of = gc.tables.reshape(-1, 4)   # table t, row r, copy k at (4t + r)n + k
    copies = np.arange(n)
    for step in circ.schedule:
        if step.op == XOR:
            np.bitwise_xor(labels[step.a], labels[step.b], out=labels[step.out])
        elif step.op == NOT:
            labels[step.out] = labels[step.a]
        else:
            ab = labels[step.ab]        # (a or b, gate, copy, word)
            points = ab[..., 0] & _ONE
            r = ((points[0] << _ONE) | points[1]).view(np.intp)
            keys = np.empty(ab.shape, dtype=np.uint64)  # (half, gate, copy, word)
            keys[:] = _key(ab[0], ab[1])
            keys[..., 0] ^= step.tweaks
            h = _hash(keys)
            if transcript is not None:
                table = gc.tables[step.tables[:, 0], ..., :2]
                ok = (table == h[0][:, None]).all(axis=-1).sum(axis=1)
                transcript.row_matches.extend(ok.ravel().tolist())
            rows = rows_of.take((step.tables * 4 + r) * n + copies, axis=0)
            if row_tamper is not None:
                rows = row_tamper(rows)
            bad = rows[..., :2] != h[0]
            if bad.any():
                gid = step.gids[bad.any(axis=(1, 2)).argmax()]
                raise GcEvaluationFault(f"row check failed at AND gate {gid}")
            labels[step.out] = np.bitwise_xor(rows[..., 2:], h[1], out=h[1])
    bits = (labels[circ.outputs, :, 0] & 1).astype(np.uint8).T ^ gc.output_points
    return bits[0].tolist() if scalar else bits
