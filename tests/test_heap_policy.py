"""Importing securepim keeps freed numpy memory in the heap.

A fresh interpreter runs the logreg A2Y scenario of the benchmark's
``logreg_a2y`` workload (32x2, 2 iterations, verified, on ``pim_runtime``)
and counts the minor page faults of each run after three warm-up runs.
With glibc's default mmap and trim thresholds every run faults its garbling
tables and keys in afresh, about 480 faults; with the thresholds the
package sets at import, about none.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCENARIO = """
import resource

from securepim.host import SchemeConfig
from securepim.workloads import run_workload

cfg = SchemeConfig("pim_runtime", verify=True, variant="A2Y")
params = {"samples": 32, "features": 2, "iterations": 2, "lr": 0.05}
for seed in range(3):
    run_workload("logreg", cfg, seed, params)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(3, 13):
    run_workload("logreg", cfg, seed, params)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_a2y_runs_reuse_heap_memory():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SCENARIO], env=env, check=True,
                         capture_output=True, text=True)
    faults = float(out.stdout.split()[-1])
    assert faults < 50, f"{faults} minor faults per run"
