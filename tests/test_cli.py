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
from securepim.host import SCHEMES


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

    @pytest.mark.parametrize("bad", [
        {"params": {"dim": "x"}},
        {"params": {"depth": 2.5}},
        {"params": {"dim": True}},
        {"params": {"dimm": 8}},
        {"params": [8]},
        {"params": {"dim": 1000000, "depth": 1}},
        {"workload": "dlrm", "params": {"rows": 0}},
        {"workload": "dlrm", "params": {"pf": 0}},
        {"workload": "gemm", "params": {"n": 0}},
        {"workload": "conv", "params": {"stride": 0}},
        {"workload": "conv", "params": {"kernel": 9}},
        {"workload": "linreg", "params": {"lr": "a"}},
        {"workload": "linreg", "params": {"lr": 1e9}},
        {"workload": "linreg", "params": {"lr": float("nan")}},
        {"workload": ["mlp"]},
        {"seed": "abc"},
        {"tamper": 5},
        {"verify": "no"},
        {"campaign": {"bogus": 1}},
        {"campaign": {"trials": 1, "targets": ["bogus"]}},
        {"campaign": {"trials": "3", "targets": ["device_result"]}},
        # campaigns whose tamper cannot fire; zero trials shows the check
        # runs before any trial
        {"campaign": {"trials": 0, "targets": ["device_result"],
                      "scheme": "warp"}},
        {"campaign": {"trials": 1, "targets": ["device_result"],
                      "scheme": "cpu_insecure"}},
        {"campaign": {"trials": 1, "targets": ["gc_table"],
                      "scheme": "cpu_insecure"}},
        {"campaign": {"trials": 1, "targets": ["gc_table"],
                      "workload": "mlp"}},
        {"campaign": {"trials": 1, "targets": ["gc_table"],
                      "scheme": "pim_precompute"}},
        {"campaign": {"trials": 0, "targets": ["device_result"],
                      "workload": "linreg", "scheme": "pim_precompute"}},
        {"campaign": {"trials": 1, "targets": ["device_result"],
                      "workload": "mlp", "params": {"depth": 0}}},
        {"campaign": {"trials": 1, "targets": ["gc_table"],
                      "workload": "logreg", "params": {"iterations": 0}}},
        # a falsy non-object is not an empty params object
        {"campaign": {"trials": 1, "targets": ["device_result"],
                      "workload": "mlp", "params": []}},
        {"campaign": {"trials": 1, "targets": ["device_result"],
                      "params": 0}},
        # falsy values are not absent: only a missing or null field is
        {"campaign": {}},
        {"campaign": []},
        {"campaign": 0},
        {"campaign": False},
        {"campaign": ""},
        {"variant": ""},
        {"variant": 0},
        {"variant": False},
        {"variant": []},
        {"out": 5},
        {"out": "no-such-dir/report.json"},
        ["--seed", "-1"],
        ["--tamper", "device_result:bit_flip:x"],
        ["--tamper", "device_result:bit_flip:1:2"],
        # flags argparse rejects: its own exit 2 is the abort code
        ["--workload", "fft"],
        ["--seed", "x"],
        ["--variant", "B"],
        ["--bogus"],
        (),
        ("compare", "a.json"),
        # tampers that cannot fire in the run
        ["--scheme", "pim_runtime", "--verify", "--tamper",
         "sealed_precompute"],
        ["--scheme", "pim_runtime", "--tamper", "sealed_tags"],
        ["--scheme", "pim_runtime", "--tamper", "gc_table"],
    ], ids=repr)
    def test_malformed_input_is_config_error(self, tmp_path, capsys,
                                             monkeypatch, bad):
        """Config fields (dict), flags after ``run`` (list) or a whole argv
        (tuple): exit 3 with one error line, and no report written."""
        monkeypatch.chdir(tmp_path)
        if isinstance(bad, dict):
            cfg_path = tmp_path / "bad.json"
            cfg_path.write_text(json.dumps(
                {"workload": "mlp", "scheme": "cpu_insecure", **bad}))
            argv = ["run", "--config", str(cfg_path)]
        elif isinstance(bad, tuple):
            argv = list(bad)
        else:
            argv = ["run", "--workload", "mlp", "--scheme", "cpu_insecure",
                    *bad]
        assert main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert err.count("\n") == 1, err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=repr)
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: securepim")

    @pytest.mark.parametrize("campaign,named", [
        ([], ["campaign must be an object"]),
        ({"trialz": 1, "trials": 1, "targets": ["device_result"]}, ["'trialz'"]),
        ({}, ["'trials'", "'targets'"]),
        ({"targets": ["device_result"]}, ["'trials'"]),
    ], ids=repr)
    def test_campaign_errors_name_the_key(self, tmp_path, capsys, campaign,
                                          named):
        """A malformed campaign is described in the config's own terms, not
        by the TypeError of a Python call."""
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(
            {"workload": "mlp", "scheme": "cpu_insecure", "campaign": campaign}))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(word in err for word in named), err
        assert not any(leak in err for leak in
                       ("Campaign(", "__init__", "argument after")), err

    def test_unknown_scheme_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "run", "--workload", "mlp",
                          "--scheme", "warp")
        assert code == EXIT_CONFIG


class TestReportSchema:
    def test_fields_present(self, tmp_path):
        _, rep = run_cli(tmp_path, "run", "--workload", "gemm",
                         "--scheme", "pim_runtime", "--verify")
        assert rep["schema_version"] == 1
        assert set(rep) == {
            "schema_version", "scenario", "digest", "offline", "online",
            "a2y", "reshare_events", "verification", "leaks", "tampers"}
        ledger = {"bytes_h2d", "bytes_d2h", "device_mac_ops", "host_mac_ops",
                  "host_prf_calls", "device_prf_calls", "gc_ciphertexts",
                  "gc_bytes", "verify_ops"}
        assert set(rep["offline"]) == ledger
        assert set(rep["online"]) == ledger
        assert set(rep["a2y"]) == {"scalars", "labels_transferred",
                                   "labels_stored"}
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

    def test_empty_config_batch_is_config_error(self, tmp_path, capsys):
        """A batch that names no scenario runs nothing, so it is not a
        success: it exits 3 and says the batch is empty."""
        cfg_path = tmp_path / "empty.json"
        cfg_path.write_text("[]")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "empty batch" in err and "empty.json" in err
        assert list(tmp_path.iterdir()) == [cfg_path]


class TestScenarioSchema:
    """Flags and config objects are one scenario schema: one key check and
    one table of defaults."""

    def write_config(self, tmp_path, obj):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(obj))
        return str(cfg_path)

    def test_misspelt_key_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self.write_config(tmp_path, [
            {"workload": "mlp", "out": "first.json"},
            {"workload": "mlp", "verfy": True, "sed": 5, "out": "second.json"}])
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'verfy'" in err and "'sed'" in err, err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    @pytest.mark.parametrize("bad", [{"scheme": "warp"},
                                     {"params": {"dim": 0}}], ids=repr)
    def test_bad_value_in_a_batch_writes_nothing(self, tmp_path, capsys,
                                                 monkeypatch, bad):
        """Every value of a batch is checked before any scenario runs, as
        every key is: the scenario before a bad value writes no report."""
        monkeypatch.chdir(tmp_path)
        cfg = self.write_config(tmp_path, [
            {"workload": "mlp", "scheme": "cpu_insecure", "out": "one.json"},
            {"workload": "mlp", "scheme": "cpu_insecure", **bad,
             "out": "two.json"}])
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    @pytest.mark.parametrize("flag", [
        ["--workload", "mlp"], ["--scheme", "pim_runtime"],
        ["--variant", "A"], ["--verify"], ["--tamper", "device_result"],
        ["--seed", "5"], ["--out", "report.json"]], ids=repr)
    def test_config_takes_no_scenario_flag(self, tmp_path, capsys,
                                           monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        cfg = self.write_config(tmp_path, {"workload": "mlp"})
        assert main(["run", "--config", cfg, *flag]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert flag[0] in err, err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    @pytest.mark.parametrize("obj,flags", [
        ({"workload": "mlp"}, ["--workload", "mlp"]),
        ({"workload": "dlrm", "scheme": None, "variant": None, "verify": None,
          "seed": None, "params": None, "tamper": None, "campaign": None},
         ["--workload", "dlrm"]),
        ({"workload": "mlp", "scheme": "pim_precompute", "verify": True,
          "seed": 7, "tamper": "device_result:bit_flip:3"},
         ["--workload", "mlp", "--scheme", "pim_precompute", "--verify",
          "--seed", "7", "--tamper", "device_result:bit_flip:3"]),
        ({"workload": "logreg", "variant": "A2Y", "seed": 1, "params": {}},
         ["--workload", "logreg", "--variant", "A2Y", "--seed", "1"]),
    ], ids=["no-scheme", "nulls", "tampered", "a2y"])
    def test_config_and_flags_write_one_report(self, tmp_path, obj, flags):
        by_config, by_flags = tmp_path / "config.json", tmp_path / "flags.json"
        cfg = self.write_config(tmp_path, {**obj, "out": str(by_config)})
        code = main(["run", "--config", cfg])
        assert main(["run", *flags, "--out", str(by_flags)]) == code
        assert by_config.read_bytes() == by_flags.read_bytes()
        scheme = json.loads(by_flags.read_text())["scenario"]["scheme"]
        assert scheme == (obj.get("scheme") or "pim_runtime")


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["run", "--workload", "dlrm", "--scheme", "pim_runtime",
                "--verify", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


    def test_reports_do_not_depend_on_the_scenario_before(self, tmp_path):
        """One workload's twelve default scenarios, each scheme with and
        without --verify, run in one order and then in reverse in the same
        process: every report is byte-identical."""
        runs = [["run", "--workload", "dlrm", "--scheme", scheme, "--seed", "2",
                 *verify] for scheme in SCHEMES for verify in ([], ["--verify"])]

        def reports(argvs, tag):
            got = {}
            for argv in argvs:
                out = tmp_path / f"{tag}{len(got)}.json"
                assert main(argv + ["--out", str(out)]) == EXIT_OK
                got[tuple(argv)] = out.read_bytes()
            return got

        ahead = reports(runs, "ahead")
        assert len(ahead) == 12
        assert reports(runs[::-1], "back") == ahead


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

    def test_ratios_cover_every_ledger_field(self, tmp_path):
        a = self.report(tmp_path, "pim_runtime")
        ratios = compare_reports(a, a)["ratios"]
        assert set(ratios) == {f"{phase}.{key}"
                               for phase in ("offline", "online")
                               for key in a[phase]}
        assert len(ratios) == 18

    @pytest.mark.parametrize("text", [None, "{bad", "{}", "[1]"])
    def test_unreadable_report_is_config_error(self, tmp_path, capsys, text):
        a = self.report(tmp_path, "pim_runtime")
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(a))
        if text is not None:
            bad.write_text(text)
        assert main(["compare", str(good), str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    # each phase must be an object of int counters: a list was an
    # AttributeError, "3" against 3 a TypeError, and "7" against 0 exited 0
    # with a null ratio
    @pytest.mark.parametrize("phase,bad,other", [
        ("offline", [], None), ("online", "3", 3), ("online", "7", 0),
        ("offline", True, 1)], ids=["list", "str", "str-vs-0", "bool"])
    def test_malformed_ledger_is_config_error(self, tmp_path, capsys, phase,
                                              bad, other):
        a = self.report(tmp_path, "pim_runtime")
        b = json.loads(json.dumps(a))
        if other is None:
            b[phase] = bad
        else:
            a[phase]["verify_ops"], b[phase]["verify_ops"] = other, bad
        good, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(a))
        bad_path.write_text(json.dumps(b))
        assert main(["compare", str(good), str(bad_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_mismatched_scenarios_rejected(self, tmp_path):
        a = self.report(tmp_path, "pim_runtime", seed="1")
        b = self.report(tmp_path, "pim_runtime", seed="2")
        with pytest.raises(ConfigError):
            compare_reports(a, b)

    def test_aborted_reports_have_no_equal_digest(self, tmp_path):
        """Two aborted runs have no result: their null digests are not
        equal results."""
        reports = [run_cli(tmp_path, "run", "--workload", "dlrm", "--verify",
                           "--scheme", scheme, "--tamper", target)
                   for scheme, target in (("pim_runtime", "device_result"),
                                          ("pim_insecure", "channel_d2h"))]
        assert [code for code, _ in reports] == [EXIT_ABORT, EXIT_ABORT]
        a, b = (rep for _, rep in reports)
        assert a["digest"] is None and b["digest"] is None
        assert not compare_reports(a, b)["digest_equal"]

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

    @pytest.mark.parametrize("text", ["device_result:bit_flip:x",
                                      "device_result::1.5",
                                      "device_result:bit_flip:"])
    def test_bad_position_is_named(self, text):
        with pytest.raises(ConfigError, match="tamper position"):
            parse_tamper(text)

    @pytest.mark.parametrize("text, position", [
        ("device_result:bit_flip:-2", -2), ("device_result::random", "random"),
        ("device_result:bit_flip", "random")])
    def test_position_literal(self, text, position):
        assert parse_tamper(text).position == position
