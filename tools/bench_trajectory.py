#!/usr/bin/env python3
"""Append one commit's end-to-end benchmark medians to ``BENCH_e2e.json``.

Runs ``perfbench/run.py --trace 0`` of the checkout ``--root`` (default:
this repository) on every workload its ``BENCHMARK.json`` declares, for
``SECONDS`` at each of ``SEEDS``, and appends one entry per workload to
``--out``:

    {"commit": "<HEAD of --root>", "workload": "<name>",
     "seconds": <per run>, "seeds": [...], "attempted": <ops>,
     "failed": <ops>, "medians": {"<metric>": <median over the seeds>}}

``commit`` ends in ``-dirty`` when ``src/`` or ``perfbench/`` of the
checkout hold changes or untracked files (ignored ones aside).  Each
performance change appends its entries, so the file is the project's
trajectory; every entry is measured at the same seeds and run length, and
entries compare only when they were measured on the same machine.  The
entries are written even when an op failed (``failed`` > 0), and the exit
code is then 1.

    python tools/bench_trajectory.py [--root DIR] [--out BENCH_e2e.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
SECONDS = 25.0


def commit_of(root: Path) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True)

    head = git("rev-parse", "HEAD").stdout.strip() or "unknown"
    changed = git("status", "--porcelain", "--", "src", "perfbench").stdout.strip()
    return head + "-dirty" if changed else head


def measure(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` result: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: perfbench/run.py exited "
                         f"{proc.returncode} without a result")
    return json.loads(lines[-1])


def entry(commit: str, workload: str, seconds: float, seeds, runs) -> dict:
    names = runs[0]["metrics"]
    return {
        "commit": commit, "workload": workload, "seconds": seconds,
        "seeds": list(seeds),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "medians": {m: statistics.median(r["metrics"][m]["value"] for r in runs)
                    for m in names},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=REPO,
                    help="checkout to measure (default: this repository)")
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_e2e.json")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    commit = commit_of(root)
    history = json.loads(args.out.read_text(encoding="utf-8")) \
        if args.out.exists() else []
    new = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [measure(root, workload, seed, SECONDS) for seed in SEEDS]
        new.append(entry(commit, workload, SECONDS, SEEDS, runs))
        print(f"{workload:<14} op_s_p50 {new[-1]['medians']['op_s_p50']:.5f} s  "
              f"failed {new[-1]['failed']}/{new[-1]['attempted']}")
    args.out.write_text(json.dumps(history + new, indent=2) + "\n", encoding="utf-8")
    print(f"appended {len(new)} entries for {commit} to {args.out}")
    return 1 if any(e["failed"] for e in new) else 0


if __name__ == "__main__":
    sys.exit(main())
