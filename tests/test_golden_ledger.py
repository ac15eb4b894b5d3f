"""Golden ledgers: digests, both cost ledgers and the event logs, pinned.

``golden_ledger.json`` holds, per scenario, what a run leaves behind:
the result digest, every field of the offline and online ``CostReport``,
the verification and leak events, the tamper log and the A2Y and reshare
counters (or, for a rejected configuration, the error type).  The values
were first recorded from the code before the scheme dispatch in ``host`` was
factored into one placement and one merge path, so any change to where an
operand lives or how results merge that moves a counter fails here.  They
were re-recorded once, when placement PRF calls moved to the offline ledger
(only ``host_prf_calls`` moved, each case's two-phase sum held), and the
``gc_table`` case once more when the A2Y switch began sending a whole
activation vector before the device evaluates any of it: its aborted run
now charges all 8 scalars' OTP words, tables and labels (online
``host_prf_calls``, ``gc_ciphertexts``, ``gc_bytes`` and ``bytes_h2d``;
every other case and the tamper log stayed as they were).  They were
re-recorded a third time, with ``tools/golden_diff.py --allow
host_prf_calls``, when every additive share began to come from one
``sharing.split`` and R was derived once per operand: only
``host_prf_calls`` moved, in the five ``gemm``/``conv`` ``pim_precompute``
cases (offline) and the two A2Y cases (online).  They were re-recorded a
fourth time, with ``--allow bytes_h2d``, when op constructors began to run
in the offline phase: the device loads of placed operands moved from online
to offline ``bytes_h2d`` in 50 cases, and each case's offline plus online
total of every counter held.  They were re-recorded a fifth time, with
``--allow tampers``, when a ``gc_table`` spec began to mutate one 32-bit
word of the rows the first AND stage decrypts, at its ``position``: only
the ``gc_table`` case's tamper index moved (5 -> 1), and no phase total.
They were re-recorded a sixth time, with ``--allow host_prf_calls --allow
device_prf_calls``, when an embedding lookup began to regenerate and open
only the rows its ids read: only the six ``dlrm`` cases on ``cpu_secure``,
``pim_enc_dec`` and ``pim_runtime`` moved, each in its online PRF calls
(host 16 -> 7 and 24 -> 15, device 20 -> 11), and no phase total rose.
They were re-recorded a seventh time, with ``--allow bytes_h2d --allow
bytes_d2h --allow host_prf_calls --allow device_prf_calls``, when the
gradient direction ``X.T @ e`` began to scatter ``e`` by row block (one
copy, not one per DPU) and to return one partial per DPU for the host to
sum: only the 13 ``linreg``/``logreg`` device cases moved, in their online
channel bytes (``linreg`` 480 -> 192 h2d and 120 -> 192 d2h), and the four
``pim_enc_dec`` cases also in their online PRF calls, one keystream block
per iteration on each side for the larger sealed partials (``linreg`` host
9 -> 12, device 33 -> 36).  No digest or tamper log moved.
The shapes are small to keep the sweep fast; the acceptance suite covers
the default ones.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from securepim.cli import result_digest
from securepim.errors import (ConfigError, GcEvaluationFault,
                              VerificationError)
from securepim.host import SCHEMES, SchemeConfig
from securepim.pimsim import TamperSpec
from securepim.workloads import run_workload

GOLDEN = Path(__file__).with_name("golden_ledger.json")
SEED = 3
PARAMS = {
    "mlp": {"depth": 2, "dim": 8},
    "dlrm": {"tables": 2, "rows": 8, "cols": 4, "batch": 2, "pf": 2},
    "linreg": {"samples": 8, "features": 2, "iterations": 3},
    "logreg": {"samples": 8, "features": 2, "iterations": 2, "lr": 0.05},
    "gemm": {"n": 3},
    "conv": {},
}
TAMPERS = (
    ("mlp", "pim_runtime", "resident_share"),
    ("dlrm", "pim_precompute", "device_result"),
    ("linreg", "pim_enc_dec", "channel_d2h"),
    ("gemm", "pim_precompute", "channel_h2d"),
    ("logreg", "pim_runtime", "gc_table"),
)


def cases():
    out = {}
    for workload in PARAMS:
        for scheme in SCHEMES:
            for verify in (False, True):
                name = f"{workload}-{scheme}{'-v' if verify else ''}"
                out[name] = (workload, scheme, verify, "A", None)
    out["logreg-pim_runtime-a2y"] = ("logreg", "pim_runtime", True, "A2Y",
                                     None)
    for workload, scheme, target in TAMPERS:
        variant = "A2Y" if target == "gc_table" else "A"
        out[f"{workload}-{scheme}-{target}"] = (workload, scheme, True,
                                                variant, target)
    return out


CASES = cases()


def ledger(workload, scheme, verify, variant, target):
    """What one run leaves behind, as plain JSON values."""
    cfg = SchemeConfig(scheme, verify=verify, variant=variant)
    tamper = TamperSpec(target, position=1) if target else None
    words, aborted = None, None
    try:
        words, sess = run_workload(workload, cfg, SEED, PARAMS[workload],
                                   tamper=tamper)
    except ConfigError:
        return {"error": "ConfigError"}
    except (VerificationError, GcEvaluationFault) as exc:
        aborted, sess = type(exc).__name__, exc.session
    return {
        "digest": None if words is None else result_digest(words),
        "aborted": aborted,
        "offline": dataclasses.asdict(sess.offline),
        "online": dataclasses.asdict(sess.online),
        "verification": sess.verification_events,
        "leaks": sess.leaks,
        "tampers": sess.device.tamper_log,
        "a2y": [sess.a2y_scalars, sess.a2y_labels_transferred,
                sess.a2y_labels_stored],
        "reshare_events": sess.reshare_events,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledger_matches_golden(name, golden):
    got = json.loads(json.dumps(ledger(*CASES[name])))
    assert got == golden[name]
