"""Fault-injection campaigns: detection (soundness) and clean-run
completeness at small scale; full-rate suites live in the acceptance tests.
"""

import pytest

from securepim.adversary import Campaign, clean_run_suite, run_campaign
from securepim.errors import ConfigError
from securepim.pimsim import DEVICE_TARGETS


class TestDetection:
    def test_all_targets_detected_round_robin(self):
        camp = Campaign(trials=50, targets=list(DEVICE_TARGETS), seed=7)
        rep = run_campaign(camp)
        assert rep["detected"] == rep["trials"] == 50
        for target, r in rep["by_target"].items():
            assert r["detected"] == r["trials"], target

    def test_bit_flip_mutation_detected(self):
        camp = Campaign(trials=20, targets=["device_result", "channel_h2d"],
                        seed=1, mutation="bit_flip")
        rep = run_campaign(camp)
        assert rep["detected"] == 20

    def test_gc_trials_surface_as_gc_faults(self):
        camp = Campaign(trials=10, targets=["gc_table"], seed=3)
        rep = run_campaign(camp)
        assert all(t["kind"] == "gc_fault" for t in rep["log"])

    def test_gc_table_bit_flip_at_criterion_3_standard(self):
        """A ``gc_table`` spec flips one bit of the rows the first AND stage
        decrypts; in a check half or an output-label half, it ends as a
        garbled-table fault (criterion 3 runs ``word_randomize``)."""
        rep = run_campaign(Campaign(trials=1000, targets=["gc_table"], seed=42,
                                    mutation="bit_flip"))
        assert rep["detected"] == 1000
        assert {t["kind"] for t in rep["log"]} == {"gc_fault"}

    def test_linear_trials_surface_as_verify_failures(self):
        camp = Campaign(trials=10, targets=["device_result"], seed=4)
        rep = run_campaign(camp)
        assert all(t["kind"] == "verify_fail" for t in rep["log"])

    def test_bit_flip_outcomes_pinned(self):
        # pins the surface and RNG draw each trial hits.  Trials 95 and 190
        # flip bit 30 of a resident matrix word whose broadcast share word
        # is divisible by 4; 2^30 * 4k = 0 mod 2^32 leaves the result
        # unchanged, so these flips are benign, not missed
        camp = Campaign(trials=200, targets=list(DEVICE_TARGETS), seed=5,
                        mutation="bit_flip")
        rep = run_campaign(camp)
        assert rep["by_target"] == {
            t: {"trials": 40, "detected": 38 if t == "resident_share" else 40}
            for t in DEVICE_TARGETS}
        assert [i for i, t in enumerate(rep["log"]) if not t["detected"]] \
            == [95, 190]
        assert rep["benign"] == 2
        assert rep["detected"] + rep["benign"] == rep["trials"]

    @pytest.mark.parametrize("workload", ["mlp", "linreg"])
    def test_campaigns_over_real_workloads(self, workload):
        camp = Campaign(trials=6, targets=["device_result", "channel_d2h"],
                        seed=2, workload=workload,
                        params={"iterations": 3} if workload == "linreg" else {})
        rep = run_campaign(camp)
        assert rep["detected"] == 6


class TestSealedTargets:
    """Tampers on what the host seals into untrusted host memory."""

    @pytest.mark.parametrize("mutation", ["word_randomize", "bit_flip"])
    @pytest.mark.parametrize("target, scheme", [
        ("sealed_tags", "pim_runtime"),
        ("sealed_tags", "pim_precompute"),
        ("sealed_precompute", "pim_precompute"),
    ])
    def test_detected_at_criterion_3_standard(self, target, scheme, mutation):
        trials = 1000 if mutation == "word_randomize" else 200
        rep = run_campaign(Campaign(trials=trials, targets=[target], seed=42,
                                    scheme=scheme, mutation=mutation))
        assert rep["detected"] == trials
        assert {t["kind"] for t in rep["log"]} == {"verify_fail"}

    def test_sealed_precompute_needs_pim_precompute(self):
        with pytest.raises(ConfigError, match="sealed_precompute"):
            Campaign(trials=1, targets=["sealed_precompute"])

    @pytest.mark.parametrize("workload, detected", [("linreg", 28),
                                                    ("logreg", 30)])
    def test_sealed_tags_hit_persists_into_later_iterations(self, workload,
                                                            detected):
        """A spec fires on the first tag open, which checks X @ w with
        w = 0, where any tag times 0 is 0; the hit stays in the sealed store,
        so a later iteration's check catches it.  Counts as measured."""
        rep = run_campaign(Campaign(trials=30, targets=["sealed_tags"],
                                    seed=0, workload=workload))
        assert rep["detected"] == detected
        assert rep["detected"] + rep["benign"] == rep["trials"]

    @pytest.mark.parametrize("workload", ["gemm", "conv"])
    def test_campaigns_over_precomputed_workloads(self, workload):
        camp = Campaign(trials=6, targets=["sealed_tags", "sealed_precompute"],
                        seed=2, workload=workload, scheme="pim_precompute")
        assert run_campaign(camp)["detected"] == 6


class TestCompleteness:
    def test_no_false_positives(self):
        rep = clean_run_suite(["mlp", "gemm"],
                              ["pim_runtime", "pim_precompute"],
                              seeds=range(5))
        assert rep == {"runs": 20, "false_positives": 0}


class TestCampaignParams:
    @pytest.mark.parametrize("kwargs", [
        {"params": {"dimm": 1}},                        # gemv16 takes none
        {"params": {"dim": 4}},
        {"workload": "mlp", "params": {"dimm": 1}},
        {"workload": "mlp", "params": {"dim": 0}},
        {"workload": "mlp", "params": {"dim": 1 << 20}},
        {"workload": "fft"},
        {"scheme": "warp"},
        {"scheme": "cpu_insecure"},                     # no device to tamper
        {"scheme": "cpu_secure", "targets": ["gc_table"]},
        {"workload": "mlp", "targets": ["gc_table"]},   # never garbles
        {"workload": "gemm", "targets": ["gc_table"]},
        {"scheme": "pim_precompute", "targets": ["gc_table"]},
        {"scheme": "pim_precompute", "workload": "linreg"},
        {"scheme": "pim_precompute", "workload": "logreg",
         "targets": ["gc_table"]},
        {"scheme": "pim_precompute", "workload": "dlrm",  # seals no resCPU
         "targets": ["sealed_precompute"]},
    ], ids=repr)
    def test_bad_params_rejected_before_any_trial(self, kwargs):
        with pytest.raises(ConfigError):
            Campaign(**{"trials": 2, "targets": ["device_result"], **kwargs})

    @pytest.mark.parametrize("kwargs", [
        {"workload": "mlp", "params": {"depth": 0}},
        {"workload": "logreg", "params": {"iterations": 0},
         "targets": ["gc_table"]},
    ], ids=repr)
    def test_tamper_that_never_fires_is_config_error(self, kwargs):
        camp = Campaign(**{"trials": 1, "targets": ["device_result"],
                           **kwargs})
        with pytest.raises(ConfigError, match="never fired"):
            run_campaign(camp)

    def test_params_reach_real_workloads(self):
        camp = Campaign(trials=1, targets=["device_result"], workload="mlp",
                        params={"dim": 4, "depth": 2})
        assert run_campaign(camp)["detected"] == 1
