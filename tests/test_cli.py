"""Scenario runner: exit codes, report schema, determinism, and compare."""

import json

import pytest

from securepim.cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_OK,
    compare_reports,
    main,
    parse_tamper,
)
from securepim.errors import ConfigError


def run_cli(tmp_path, *args):
    out = tmp_path / f"report{len(list(tmp_path.iterdir()))}.json"
    code = main(list(args) + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


class TestExitCodes:
    def test_clean_run(self, tmp_path):
        code, rep = run_cli(tmp_path, "run", "--workload", "mlp",
                            "--scheme", "pim_precompute", "--verify",
                            "--seed", "7")
        assert code == EXIT_OK
        assert rep["online"]["verify_ops"] == 10
        assert all(e["ok"] for e in rep["verification"])

    def test_tamper_aborts_with_2(self, tmp_path):
        code, rep = run_cli(tmp_path, "run", "--workload", "mlp",
                            "--scheme", "pim_runtime", "--verify",
                            "--seed", "5", "--tamper", "device_result")
        assert code == EXIT_ABORT
        assert rep["aborted"]["reason"] == "VerificationError"
        assert rep["tampers"][0]["target"] == "device_result"

    def test_precompute_training_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "run", "--workload", "logreg",
                          "--scheme", "pim_precompute")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("text", ["{bad", "[1, 2]", None])
    def test_malformed_config_is_config_error(self, tmp_path, text):
        cfg_path = tmp_path / "scenarios.json"
        if text is not None:
            cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_over_budget_load_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(
            {"workload": "mlp", "scheme": "pim_runtime",
             "params": {"dim": 2048, "depth": 2}}))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_unknown_scheme_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "run", "--workload", "mlp",
                          "--scheme", "warp")
        assert code == EXIT_CONFIG


class TestReportSchema:
    def test_fields_present(self, tmp_path):
        _, rep = run_cli(tmp_path, "run", "--workload", "gemm",
                         "--scheme", "pim_runtime", "--verify")
        assert rep["schema_version"] == 1
        assert set(rep["offline"]) == {"host_mac_ops", "host_prf_calls"}
        assert set(rep["online"]) == {
            "bytes_h2d", "bytes_d2h", "device_mac_ops", "host_mac_ops",
            "host_prf_calls", "device_prf_calls", "gc_bytes", "verify_ops"}
        assert len(rep["digest"]) == 64

    def test_leaks_reported(self, tmp_path):
        _, rep = run_cli(tmp_path, "run", "--workload", "dlrm",
                         "--scheme", "pim_runtime")
        assert "dlrm_indices_in_clear" in rep["leaks"]

    def test_config_file_batch(self, tmp_path):
        cfg_path = tmp_path / "scenarios.json"
        out = tmp_path / "batch.json"
        cfg_path.write_text(json.dumps([
            {"workload": "conv", "scheme": "cpu_insecure", "seed": 1,
             "out": str(out)},
        ]))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        assert json.loads(out.read_text())["scenario"]["workload"] == "conv"


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["run", "--workload", "dlrm", "--scheme", "pim_runtime",
                "--verify", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestCompare:
    def report(self, tmp_path, scheme, seed="3"):
        _, rep = run_cli(tmp_path, "run", "--workload", "mlp",
                         "--scheme", scheme, "--seed", seed)
        return rep

    def test_digest_equal_across_schemes(self, tmp_path):
        a = self.report(tmp_path, "cpu_insecure")
        b = self.report(tmp_path, "pim_runtime")
        assert compare_reports(a, b)["digest_equal"]

    def test_identical_reports_empty_diff(self, tmp_path):
        a = self.report(tmp_path, "pim_runtime")
        summary = compare_reports(a, a)
        assert summary["diff"] == {}
        assert summary["digest_equal"]

    def test_mismatched_scenarios_rejected(self, tmp_path):
        a = self.report(tmp_path, "pim_runtime", seed="1")
        b = self.report(tmp_path, "pim_runtime", seed="2")
        with pytest.raises(ConfigError):
            compare_reports(a, b)

    def test_precompute_ratio_vs_runtime(self, tmp_path):
        pre = self.report(tmp_path, "pim_precompute")
        run = self.report(tmp_path, "pim_runtime")
        summary = compare_reports(pre, run)
        assert summary["digest_equal"]
        assert summary["ratios"]["online.host_mac_ops"] <= 0.10


class TestParseTamper:
    def test_full_spec(self):
        spec = parse_tamper("device_result:bit_flip:3")
        assert (spec.target, spec.mutation, spec.position) == \
            ("device_result", "bit_flip", 3)

    def test_target_only(self):
        spec = parse_tamper("gc_table")
        assert spec.mutation == "word_randomize"
        assert spec.position == "random"

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            parse_tamper("bogus")
