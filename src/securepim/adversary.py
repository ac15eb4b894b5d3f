"""Fault-injection campaigns over the simulator's tamper hooks.

Each trial, tampered or clean, is one verified ``run_workload`` call
classified by the check that stopped it: a MAC mismatch (``verify_fail``), a
garbled-table fault (``gc_fault``) or none.  A tampered trial no check
stopped is rerun clean: benign if the words match, missed if not.  The
default workload ``gemv16`` is data: linear targets run a one-layer 16x16
``mlp``, and ``gc_table`` one ``logreg`` step that switches a scalar to Yao.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GcEvaluationFault, VerificationError
from .host import DEVICE_SCHEMES, SchemeConfig
from .pimsim import TamperSpec
from .workloads import check_int, merged_params, run_workload

GEMV16 = {"linear": ("mlp", {"depth": 1, "dim": 16}),
          "gc_table": ("logreg", {"samples": 1, "features": 1,
                                  "iterations": 1})}


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
        """Reject bad fields and tampers that cannot fire before any trial;
        each field is checked by the type or function that takes it."""
        check_int("campaign trials", self.trials)
        check_int("campaign seed", self.seed)
        if not (isinstance(self.targets, (list, tuple)) and self.targets):
            raise ConfigError(f"campaign targets must be a non-empty list, "
                              f"got {self.targets!r}")
        SchemeConfig(self.scheme)
        if self.scheme not in DEVICE_SCHEMES:
            raise ConfigError(f"campaign scheme must be one of "
                              f"{sorted(DEVICE_SCHEMES)}, got {self.scheme!r}")
        if self.workload == "gemv16" and self.params not in (None, {}):
            raise ConfigError(f"campaign workload gemv16 takes no params, "
                              f"got {self.params!r}")
        for target in self.targets:
            TamperSpec(target, self.mutation)
            name, params = self.body(target)
            merged_params(name, params, self.scheme)
            if target == "gc_table" and name != "logreg":
                raise ConfigError(f"gc_table needs a workload that garbles "
                                  f"(logreg or gemv16), got {name!r}")
            # EmbeddingOp keeps R in trusted memory, so dlrm seals no resCPU
            if target == "sealed_precompute" and (
                    self.scheme != "pim_precompute" or name == "dlrm"):
                raise ConfigError(f"sealed_precompute needs scheme "
                                  f"pim_precompute and a workload other than "
                                  f"dlrm, got {self.scheme!r} on {name!r}")

    def body(self, target: str):
        """The (workload, params) that a trial on ``target`` runs."""
        if self.workload != "gemv16":
            return self.workload, self.params
        return GEMV16["gc_table" if target == "gc_table" else "linear"]


def _trial(name: str, cfg: SchemeConfig, seed: int, params=None, spec=None):
    """One verified run: (the check that stopped it, None) or (None, words);
    a ``spec`` that never fires raises ConfigError in ``run_workload``."""
    try:
        words, _ = run_workload(name, cfg, seed, params, tamper=spec)
    except VerificationError:
        return "verify_fail", None
    except GcEvaluationFault:
        return "gc_fault", None
    return None, words


def run_campaign(campaign: Campaign) -> dict:
    """Returns the detection report; campaign trials are independent runs."""
    by_target = {t: {"trials": 0, "detected": 0} for t in campaign.targets}
    trials = []
    for i in range(campaign.trials):
        target = campaign.targets[i % len(campaign.targets)]
        name, params = campaign.body(target)
        cfg = SchemeConfig(campaign.scheme, verify=True,
                           variant="A2Y" if target == "gc_table" else "A")
        seed = campaign.seed * 1_000_003 + i
        kind, words = _trial(name, cfg, seed, params,
                             TamperSpec(target=target, mutation=campaign.mutation))
        detected = kind is not None
        benign = not detected and np.array_equal(
            words, _trial(name, cfg, seed, params)[1])
        by_target[target]["trials"] += 1
        by_target[target]["detected"] += int(detected)
        trials.append({"target": target, "detected": detected, "kind": kind,
                       "benign": benign})
    return {"trials": len(trials),
            "detected": sum(t["detected"] for t in trials),
            "benign": sum(t["benign"] for t in trials),
            "by_target": by_target, "log": trials}


def clean_run_suite(workloads, schemes, seeds) -> dict:
    """Completeness half: verified clean runs must never trip a check."""
    kinds = [_trial(name, SchemeConfig(scheme, verify=True), seed)[0]
             for name in workloads for scheme in schemes for seed in seeds]
    return {"runs": len(kinds),
            "false_positives": sum(k is not None for k in kinds)}
