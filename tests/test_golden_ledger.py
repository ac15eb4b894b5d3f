"""Golden ledgers: digests, both cost ledgers and the event logs, pinned.

``golden_ledger.json`` holds, per scenario, what a run leaves behind:
the result digest, every field of the offline and online ``CostReport``,
the verification and leak events, the tamper log and the A2Y and reshare
counters (or, for a rejected configuration, the error type), so any change
to where an operand lives, how results merge or what a phase charges that
moves a counter, a digest or an event fails here.  A change that moves a
field on purpose re-records the file with ``PYTHONPATH=src python
tools/golden_diff.py --allow FIELD ... --write``, which first lists every
moved field and each phase total that moved; ``CHANGES.md`` records each
re-record and what moved in it.
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
