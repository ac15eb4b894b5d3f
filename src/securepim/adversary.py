"""Fault-injection campaigns over the simulator's tamper hooks.

Each trial runs a verified workload with exactly one armed tamper and
records whether a MAC mismatch or a garbled-table fault surfaced it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ring
from .errors import ConfigError, GcEvaluationFault, VerificationError
from .host import PublicMatrixOp, SchemeConfig, Session
from .pimsim import MUTATIONS, TAMPER_TARGETS, TamperSpec
from .workloads import WORKLOADS, merged_params, run_workload


@dataclass
class Campaign:
    trials: int
    targets: list
    seed: int = 0
    mutation: str = "word_randomize"
    workload: str = "gemv16"
    scheme: str = "pim_runtime"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("trials", "seed"):
            val = getattr(self, key)
            if isinstance(val, bool) or not isinstance(val, int) or val < 0:
                raise ConfigError(f"campaign {key} must be an integer >= 0, "
                                  f"got {val!r}")
        if not (isinstance(self.targets, (list, tuple)) and self.targets
                and all(t in TAMPER_TARGETS for t in self.targets)):
            raise ConfigError(f"campaign targets must be a non-empty list of "
                              f"{TAMPER_TARGETS}, got {self.targets!r}")
        if self.mutation not in MUTATIONS:
            raise ConfigError(f"unknown mutation {self.mutation!r}")
        if self.workload == "gemv16":
            if self.params:
                raise ConfigError(f"campaign workload gemv16 takes no params, "
                                  f"got {self.params!r}")
        elif isinstance(self.workload, str) and self.workload in WORKLOADS:
            merged_params(self.workload, self.params or None)
        else:
            raise ConfigError(f"unknown campaign workload {self.workload!r}")


def _run_gemv16(cfg: SchemeConfig, seed: int, device_tamper=None):
    """Minimal verified GEMV target: public 16x16 matrix, private vector."""
    rng = np.random.default_rng(seed)
    W = ((rng.integers(-128, 129, (16, 16))) & ring.MASK).astype(np.uint32)
    x = ((rng.integers(-4096, 4097, 16)) & ring.MASK).astype(np.uint32)
    sess = Session(cfg, seed)
    op = PublicMatrixOp(sess, W, uses=1, step="gemv16")
    if device_tamper is not None:
        sess.device.arm_tamper(device_tamper)
    op.apply(x)
    return sess


def _run_once(campaign: Campaign, seed: int, spec):
    cfg = SchemeConfig(scheme=campaign.scheme, verify=True,
                       variant="A2Y" if spec is not None
                       and spec.target == "gc_table" else "A")
    if campaign.workload == "gemv16":
        return _run_gemv16(cfg, seed, device_tamper=spec)
    _result, sess = run_workload(campaign.workload, cfg, seed,
                                 campaign.params or None, tamper=spec)
    return sess


def run_campaign(campaign: Campaign) -> dict:
    """Returns the detection report; campaign trials are independent runs."""
    by_target = {t: {"trials": 0, "detected": 0} for t in campaign.targets}
    trials = []
    for i in range(campaign.trials):
        target = campaign.targets[i % len(campaign.targets)]
        seed = campaign.seed * 1_000_003 + i
        spec = TamperSpec(target=target, mutation=campaign.mutation)
        detected = False
        kind = None
        if campaign.workload == "gemv16" and target == "gc_table":
            detected, kind = _gc_trial(seed)
        else:
            try:
                sess = _run_once(campaign, seed, spec)
                if sess.device._armed:
                    raise RuntimeError(f"tamper on {target!r} never fired")
            except VerificationError:
                detected, kind = True, "verify_fail"
            except GcEvaluationFault:
                detected, kind = True, "gc_fault"
        by_target[target]["trials"] += 1
        by_target[target]["detected"] += int(detected)
        trials.append({"target": target, "detected": detected, "kind": kind})
    return {
        "trials": len(trials),
        "detected": sum(t["detected"] for t in trials),
        "by_target": by_target,
        "log": trials,
    }


def _gc_trial(seed: int):
    """One corrupted garbled-table evaluation on the device."""
    cfg = SchemeConfig(scheme="pim_runtime", verify=True, variant="A2Y")
    sess = Session(cfg, seed)
    sess.device.arm_tamper(TamperSpec(target="gc_table"))
    rng = np.random.default_rng(seed)
    p = (rng.integers(-4096, 4097, 1) & ring.MASK).astype(np.uint32)
    try:
        sess.a2y_activation(p)
    except GcEvaluationFault:
        return True, "gc_fault"
    return False, None


def clean_run_suite(workloads, schemes, seeds) -> dict:
    """Completeness half: verified clean runs must never trip a check."""
    failures = 0
    runs = 0
    for name in workloads:
        for scheme in schemes:
            for seed in seeds:
                cfg = SchemeConfig(scheme=scheme, verify=True)
                try:
                    run_workload(name, cfg, seed)
                except VerificationError:
                    failures += 1
                runs += 1
    return {"runs": runs, "false_positives": failures}
