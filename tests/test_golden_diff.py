"""``tools/golden_diff.py``'s compare step on hand-made ledgers."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("_golden_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = load_tool().compare
phase_totals = load_tool().phase_totals


def ledger(prf=3, macs=16, digest="ab"):
    return {"digest": digest, "tampers": [],
            "offline": {"host_prf_calls": prf, "host_mac_ops": macs}}


def test_identical_ledgers_pass_silently():
    assert compare({"a": ledger()}, {"a": ledger()}) == ([], True)


def test_moved_allowed_field_passes():
    lines, ok = compare({"a": ledger(prf=3)}, {"a": ledger(prf=2)},
                        {"host_prf_calls"})
    assert ok
    assert lines == ["a: offline.host_prf_calls 3 -> 2"]


def test_allow_by_dotted_path():
    _, ok = compare({"a": ledger(prf=3)}, {"a": ledger(prf=2)},
                    {"offline.host_prf_calls"})
    assert ok


def test_moved_other_field_fails():
    lines, ok = compare({"a": ledger(prf=3, macs=16)},
                        {"a": ledger(prf=2, macs=17)}, {"host_prf_calls"})
    assert not ok
    assert "a: offline.host_mac_ops 16 -> 17" in lines


def test_moved_leaf_list_or_digest_fails():
    moved = ledger(digest="cd")
    moved["tampers"] = [{"target": "gc_table"}]
    lines, ok = compare({"a": ledger()}, {"a": moved}, {"host_prf_calls"})
    assert not ok
    assert len(lines) == 2


def test_added_case_fails():
    lines, ok = compare({"a": ledger()}, {"a": ledger(), "b": ledger()},
                        {"host_prf_calls"})
    assert (lines, ok) == (["b: added"], False)


def test_removed_case_fails():
    lines, ok = compare({"a": ledger(), "b": ledger()}, {"a": ledger()},
                        {"host_prf_calls"})
    assert (lines, ok) == (["b: removed"], False)


def test_field_that_appears_fails():
    lines, ok = compare({"a": {"error": "ConfigError"}}, {"a": ledger()},
                        {"host_prf_calls"})
    assert not ok
    assert "a: error ConfigError -> <absent>" in lines


def test_phase_totals_list_only_moved_totals():
    old = {"moved": ledger(prf=3), "kept": ledger(prf=3), "err": {"error": 1}}
    old["kept"]["online"] = {"host_prf_calls": 1}
    new = {"moved": ledger(prf=2), "kept": ledger(prf=4), "err": {"error": 1}}
    new["kept"]["online"] = {"host_prf_calls": 0}
    assert phase_totals(old, new) == [
        "moved: total host_prf_calls 3 -> 2", "1 phase totals moved"]
