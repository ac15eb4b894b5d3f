"""``tools/bench_trajectory.py`` on a stand-in checkout, with canned
``perfbench/run.py`` results in place of real runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("_bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(op_s, failed=0):
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {"op_s_p50": {"value": op_s, "unit": "s"},
                        "sim.bytes_per_op": {"value": 64.0, "unit": "B"}}}


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "a"}, {"name": "b"}]}))
    return tmp_path


def test_appends_one_entry_per_workload_with_medians(tool, checkout, monkeypatch):
    ops = {("a", 0): 3.0, ("a", 1): 1.0, ("a", 2): 2.0,
           ("b", 0): 5.0, ("b", 1): 5.0, ("b", 2): 6.0}
    monkeypatch.setattr(tool, "measure",
                        lambda root, w, seed, secs: result(ops[w, seed]))
    monkeypatch.setattr(tool, "SECONDS", 4.0)
    out = checkout / "BENCH_e2e.json"
    args = ["--root", str(checkout), "--out", str(out)]
    assert tool.main(args) == 0
    monkeypatch.setattr(tool, "SEEDS", (1,))
    assert tool.main(args) == 0
    entries = json.loads(out.read_text())
    assert [(e["workload"], e["seeds"]) for e in entries] == \
        [("a", [0, 1, 2]), ("b", [0, 1, 2]), ("a", [1]), ("b", [1])]
    assert [e["medians"]["op_s_p50"] for e in entries] == [2.0, 5.0, 1.0, 5.0]
    first = entries[0]
    assert first["commit"] == entries[-1]["commit"]
    assert (first["seconds"], first["attempted"], first["failed"]) == (4.0, 300, 0)
    assert first["medians"]["sim.bytes_per_op"] == 64.0


def test_failed_ops_are_recorded_and_exit_one(tool, checkout, monkeypatch):
    monkeypatch.setattr(tool, "measure",
                        lambda root, w, seed, secs: result(1.0, failed=w == "b"))
    monkeypatch.setattr(tool, "SEEDS", (0,))
    out = checkout / "BENCH_e2e.json"
    assert tool.main(["--root", str(checkout), "--out", str(out)]) == 1
    assert [e["failed"] for e in json.loads(out.read_text())] == [0, 1]


def test_run_without_a_result_stops_before_writing(tool, checkout, monkeypatch):
    monkeypatch.setattr(tool, "SEEDS", (0,))
    (checkout / "perfbench").mkdir()
    (checkout / "perfbench" / "run.py").write_text("import sys; sys.exit(2)\n")
    out = checkout / "BENCH_e2e.json"
    with pytest.raises(SystemExit, match="without a result"):
        tool.main(["--root", str(checkout), "--out", str(out)])
    assert not out.exists()


def test_commit_is_dirty_with_changed_or_untracked_code(tool, tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True,
                       capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / ".gitignore").write_text("__pycache__/\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "init")
    head = tool.commit_of(tmp_path)
    assert len(head) == 40
    (tmp_path / "src" / "__pycache__").mkdir()
    (tmp_path / "src" / "__pycache__" / "a.pyc").write_bytes(b"")
    (tmp_path / "notes.txt").write_text("outside src\n")
    assert tool.commit_of(tmp_path) == head
    (tmp_path / "src" / "b.py").write_text("y = 2\n")
    assert tool.commit_of(tmp_path) == head + "-dirty"
    (tmp_path / "src" / "b.py").unlink()
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert tool.commit_of(tmp_path) == head + "-dirty"
