"""One benchmark workload in its own process: set-up, closed loop, checks.

Started by ``run.py``; prints one JSON object as its last line.  An op is a
short, fixed list of securepim scenario runs (one run, except on
``tamper_detect``).  Each run goes through ``workloads.run_workload`` and,
when it returns, ``cli.build_report``/``cli.render`` (which call
``cli.result_digest``).  One client, one thread: the next op starts only
after the previous one returned and was checked.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from securepim import cli, workloads
from securepim.errors import (ConfigError, GcEvaluationFault, SecurePimError,
                              VerificationError)
from securepim.host import SCHEMES, SchemeConfig
from securepim.pimsim import TamperSpec

import spans

# Shapes are smaller than the first plan (NOTES.md) so that one op takes
# about 100 ms at the reference speed and a 25 s run holds well over 100 ops;
# each keeps its workload's layer mix.
MLP = {"depth": 4, "dim": 384}
LINREG = {"samples": 768, "features": 32, "iterations": 10}
LOGREG = {"samples": 32, "features": 2, "iterations": 2, "lr": 0.05}
DLRM = {"tables": 2, "rows": 4096, "cols": 16, "batch": 32, "pf": 8}
TAMPERS = ("resident_share", "channel_h2d", "channel_d2h", "device_result")
TRAINING = [s for s in SCHEMES if s != "pim_precompute"]

LEDGER_OPS = 20       # sim.* statistics cover this prefix of part 0's ops
SEED_STRIDE = 100_000  # seeds of one --seed: seed * stride + part * 10000 + k
PART_STRIDE = 10_000
WARMUP_GROUP = SEED_STRIDE - 1
CAL_REF_S = 0.0025    # calibrate() at the reference speed, see NOTES.md
_M32 = np.uint64(0xFFFFFFFF)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
MODEL_NOTE = "model unvalidated, no reference results"


@dataclass(frozen=True)
class Run:
    """One verified securepim scenario, optionally with one armed tamper."""

    scenario: str
    scheme: str
    seed: int
    params: dict = field(hash=False)
    variant: str = "A"
    tamper: str = None

    @property
    def kind(self):
        return "/".join((self.scenario, self.scheme, self.variant,
                         self.tamper or "honest"))


# Each workload maps (k, seed) to the ops of one seed; an op is a tuple of runs.

def mlp_infer(k, seed):
    return [(Run("mlp", s, seed, MLP),) for s in SCHEMES]


def linreg_train(k, seed):
    return [(Run("linreg", s, seed, LINREG),) for s in TRAINING]


def logreg_a2y(k, seed):
    return [(Run("logreg", "pim_runtime", seed, LOGREG, "A2Y"),)]


def tamper_detect(k, seed):
    # One op per seed: single tampered runs take 3-75 ms, so a median over
    # them would sit on the edge between two clusters.
    dev = ("pim_runtime", "pim_precompute")[k % 2]
    return [(Run("dlrm", "cpu_insecure", seed, DLRM),
             Run("dlrm", dev, seed, DLRM),
             *[Run("dlrm", dev, seed, DLRM, tamper=t) for t in TAMPERS],
             Run("logreg", "pim_runtime", seed, LOGREG, "A2Y", "gc_table"))]


# workload -> (ops of one seed, index of the warm-up op among them)
WORKLOADS = {
    "mlp_infer": (mlp_infer, SCHEMES.index("pim_runtime")),
    "linreg_train": (linreg_train, TRAINING.index("pim_runtime")),
    "logreg_a2y": (logreg_a2y, 0),
    "tamper_detect": (tamper_detect, 0),
}


def calibrate() -> float:
    """Host time of a fixed small-numpy-plus-interpreter loop.

    The loop never calls securepim, so a change to the program cannot move
    it; it tracks the speed the shared host gives this process right now.
    Times are reported as ``seconds * CAL_REF_S / calibrate()``.
    """
    t0 = time.perf_counter()
    a = np.arange(64, dtype=np.uint64)
    mult = np.uint64(2654435761)
    for _ in range(300):
        a = ((a * mult) >> np.uint64(7)) & _M32
    x = 0
    for i in range(15000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


@dataclass
class Outcome:
    words: np.ndarray = None
    sess: object = None
    report: dict = None
    aborted: str = None


def execute(run: Run) -> Outcome:
    cfg = SchemeConfig(run.scheme, verify=True, variant=run.variant)
    tamper = TamperSpec(run.tamper) if run.tamper else None
    echo = {"workload": run.scenario, "scheme": run.scheme,
            "variant": run.variant, "verify": True, "seed": run.seed,
            "params": run.params, "tamper": run.tamper}
    try:
        words, sess = workloads.run_workload(run.scenario, cfg, run.seed,
                                             run.params, tamper=tamper)
        report = cli.build_report(echo, words, sess)
        cli.render(report)
    except (VerificationError, GcEvaluationFault) as exc:
        return Outcome(aborted=type(exc).__name__,
                       sess=getattr(exc, "session", None))
    return Outcome(words, sess, report)


def run_op(op, tracer=None, op_id=0):
    """Runs the op's scenarios back to back; returns (seconds, outcomes)."""
    root = tracer.op(op_id) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with root:
        outs = [execute(run) for run in op]
    return time.perf_counter() - t0, outs


class CheckFailed(Exception):
    """A reference run needed to check a run did not pass its own checks."""


class Checker:
    """Digest references per (scenario, seed) and the failure rule."""

    def __init__(self):
        self.refs = {}
        self.tally = defaultdict(int)   # detected / benign / missed

    def reference(self, run: Run) -> str:
        key = (run.scenario, run.seed)
        if key not in self.refs:
            ref = Run(run.scenario, "cpu_insecure", run.seed, run.params)
            problem = self.check(ref, execute(ref))
            if problem:
                raise CheckFailed(f"reference run failed: {problem}")
        return self.refs[key]

    def check(self, run: Run, out: Outcome):
        """Returns None when the run passes, else what went wrong."""
        where = f"{run.kind} seed {run.seed}"
        if run.tamper is not None:
            return self._check_tamper(run, out, where)
        if out.aborted:
            return f"{where}: honest run aborted ({out.aborted})"
        events = out.report["verification"]
        if not events or not all(e["ok"] for e in events):
            return f"{where}: verification events {events}"
        digest = out.report["digest"]
        if run.scheme == "cpu_insecure" and run.variant == "A":
            if not np.any(out.words):
                return f"{where}: honest output is all-zero"
            self.refs.setdefault((run.scenario, run.seed), digest)
        if digest != self.reference(run):
            return f"{where}: digest differs from cpu_insecure"
        return None

    def _check_tamper(self, run: Run, out: Outcome, where: str):
        if out.aborted:
            self.tally["detected"] += 1
            return None
        if not out.sess.device.tamper_log:
            return f"{where}: tamper never fired"
        if out.report["digest"] == self.reference(run):
            self.tally["benign"] += 1
            return None
        self.tally["missed"] += 1
        return f"{where}: tamper missed, wrong digest returned"


class Ledger:
    """Simulated statistics of the runs of the first LEDGER_OPS ops."""

    COUNTERS = ("a2y_scalars", "a2y_labels_transferred", "a2y_labels_stored",
                "reshare_events")

    def __init__(self):
        self.by_kind = {}

    def add(self, run: Run, sess):
        row = self.by_kind.setdefault(run.kind, {
            "runs": 0, "sessions": 0,
            "offline": defaultdict(int), "online": defaultdict(int),
            **{c: 0 for c in self.COUNTERS}})
        row["runs"] += 1
        if sess is None:
            return
        row["sessions"] += 1
        for phase in ("offline", "online"):
            for key, val in dataclasses.asdict(getattr(sess, phase)).items():
                row[phase][key] += val
        for c in self.COUNTERS:
            row[c] += getattr(sess, c)

    def per_op(self):
        """Online counters per honest run.

        Tampered runs stop at a random point, so counting them would make
        these vary with the seed.
        """
        honest = [r for kind, r in self.by_kind.items()
                  if kind.endswith("/honest")]
        n = sum(r["runs"] for r in honest)

        def total(*keys):
            return sum(r["online"][k] for r in honest for k in keys)

        return {
            "sim.bytes_per_op": total("bytes_h2d", "bytes_d2h") / n,
            "sim.host_mac_ops_per_op": total("host_mac_ops") / n,
            "sim.host_prf_calls_per_op": total("host_prf_calls") / n,
            "sim.gc_bytes_per_op": total("gc_bytes") / n,
        }

    def write(self, path, workload, seed):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "model": MODEL_NOTE,
                       "ops": LEDGER_OPS, "per_op": self.per_op(),
                       "by_kind": self.by_kind}, fh, indent=1, sort_keys=True)
            fh.write("\n")


def op_stream(ops_of, base):
    """The ops of consecutive seeds base, base + 1, ..."""
    k = 0
    while True:
        yield from ops_of(k, base + k)
        k += 1


def guard(ops_of, base, checker):
    """Reject degenerate data and check the training-scheme refusal."""
    problems = []
    by_scenario = defaultdict(dict)
    for k in (0, 1):
        for op in ops_of(k, base + k):
            for run in op:
                by_scenario[run.scenario][run.seed] = run
    for scenario, by_seed in by_scenario.items():
        try:
            digests = {checker.reference(r) for r in by_seed.values()}
        except CheckFailed as exc:
            problems.append(f"{scenario}: {exc}")
            continue
        if len(digests) < 2:
            problems.append(f"{scenario}: digest does not vary with the seed")
        if scenario in workloads.TRAINING_WORKLOADS:
            run = next(iter(by_seed.values()))
            try:
                workloads.run_workload(
                    scenario, SchemeConfig("pim_precompute", verify=True),
                    run.seed, run.params)
                problems.append(f"{scenario}: pim_precompute was accepted")
            except ConfigError:
                pass
    return problems


def op_kind(op):
    return "+".join(run.kind for run in op)


def overhead(untraced, traced):
    """Traced over untraced time of one seed's ops, minus 1.

    Each op kind contributes its median time in either phase, so a phase
    that ends part-way through a seed does not skew the ratio.
    """
    def medians(samples):
        by_kind = defaultdict(list)
        for kind, secs in samples:
            by_kind[kind].append(secs)
        return {k: statistics.median(v) for k, v in by_kind.items()}

    a, b = medians(untraced), medians(traced)
    kinds = a.keys() & b.keys()
    return sum(b[k] for k in kinds) / sum(a[k] for k in kinds) - 1


class Phase:
    """The ops of one phase of a run (untraced or traced), with a
    calibration before each op and one after the last."""

    def __init__(self):
        self.samples = []   # (op kind, raw op seconds)
        self.loop_s = []    # raw seconds from one op's calibration to the next
        self.cals = []
        self._mark = None

    def begin_op(self):
        now = time.perf_counter()
        if self._mark is not None:
            self.loop_s.append(now - self._mark)
        self._mark = now
        self.cals.append(calibrate())

    def close(self):
        if self._mark is not None:
            self.begin_op()
            self._mark = None

    def _speed(self):
        """Per op: CAL_REF_S over the median of the calibrations around it,
        so one disturbed calibration does not skew its op."""
        c = self.cals
        return [CAL_REF_S / statistics.median(c[max(0, i - 2):i + 4])
                for i in range(len(self.samples))]

    def op_times(self):
        return [(kind, secs * f)
                for (kind, secs), f in zip(self.samples, self._speed())]

    def busy_s(self):
        """Loop time, checks included and calibrations left out."""
        return sum((loop - cal) * f for loop, cal, f
                   in zip(self.loop_s, self.cals, self._speed()))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, required=True,
                    help="index of this process among the run's processes")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-ops", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the launcher spawned us")
    args = ap.parse_args(argv)

    ops_of, warm_idx = WORKLOADS[args.workload]
    warm_seed = args.seed * SEED_STRIDE + WARMUP_GROUP
    warm = ops_of(WARMUP_GROUP, warm_seed)[warm_idx]
    _, outs = run_op(warm)
    problems = [f"warm-up {run.kind}: aborted ({out.aborted})"
                for run, out in zip(warm, outs)
                if out.aborted and run.tamper is None]
    setup_s = (time.monotonic() - args.t0) * CAL_REF_S / statistics.median(
        [calibrate() for _ in range(5)])

    base = args.seed * SEED_STRIDE + args.part * PART_STRIDE
    checker = Checker()
    if args.part == 0:
        problems += guard(ops_of, base, checker)
    ledger = Ledger()
    untraced, traced = Phase(), Phase()
    phase = untraced
    tracer = None
    attempted = failed = 0
    start = time.perf_counter()
    for op in op_stream(ops_of, base):
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and attempted >= args.min_ops:
            break
        if args.trace and tracer is None and elapsed >= args.seconds / 2:
            untraced.close()
            phase = traced
            tracer = spans.Tracer()
            tracer.install()
        phase.begin_op()
        seconds, outs = run_op(op, tracer, attempted)
        phase.samples.append((op_kind(op), seconds))
        attempted += 1
        op_problems = []
        for run, out in zip(op, outs):
            try:
                problem = checker.check(run, out)
            except (SecurePimError, CheckFailed) as exc:
                problem = f"{run.kind} seed {run.seed}: {exc}"
            if problem:
                op_problems.append(problem)
            if attempted <= LEDGER_OPS:
                ledger.add(run, out.sess)
        failed += bool(op_problems)
        problems += op_problems
    phase.close()

    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems[:20], "tally": dict(checker.tally),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_s": [t for _, t in untraced.op_times()],
        "busy_s": untraced.busy_s(),
        "sim": ledger.per_op() if args.part == 0 else None,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.part == 0:
        ledger.write(os.path.join(OUT_DIR, f"{args.workload}.ledger.json"),
                     args.workload, args.seed)
    if args.trace:
        per_op = tracer.per_op()
        tracer.write(os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"))
        scale = CAL_REF_S / statistics.median(traced.cals)
        layers = {k: v * scale if k.endswith("_s") else v
                  for k, v in spans.layer_metrics(per_op).items()}
        layers["trace.overhead_frac"] = overhead(untraced.op_times(),
                                                 traced.op_times())
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
