"""Write the report of every default CLI scenario, to diff two commits.

Runs 92 scenarios through ``securepim.cli.main`` at one seed (default 0):
every workload x scheme with and without ``--verify`` (72, among them the
refused training runs on ``pim_precompute``), A2Y ``logreg`` on
``pim_runtime`` and ``pim_enc_dec`` (2), the four linear tamper targets on
``mlp``/``pim_runtime``, ``dlrm``/``pim_precompute`` and
``linreg``/``pim_enc_dec`` (12), one ``gc_table`` tamper on A2Y ``logreg``
(1), and five malformed inputs that must exit 3 (5).  Each report goes to
``OUT_DIR/<scenario>.json``, and the exit code and stderr of every scenario
to ``OUT_DIR/exit_codes.txt``; a rejected scenario writes no report.

    PYTHONPATH=src python tools/default_reports.py OUT_DIR [--seed N]
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

from securepim import cli
from securepim.host import SCHEMES
from securepim.workloads import WORKLOADS

LINEAR_TARGETS = ("resident_share", "channel_h2d", "channel_d2h",
                  "device_result")
TAMPERED = (("mlp", "pim_runtime"), ("dlrm", "pim_precompute"),
            ("linreg", "pim_enc_dec"))
# each flag is rejected by the type or function that takes it
REJECTED = (("tamper-bogus", ["--tamper", "bogus"]),
            ("tamper-scramble", ["--tamper", "device_result:scramble"]),
            ("tamper-position-x", ["--tamper", "device_result:bit_flip:x"]),
            ("scheme-warp", ["--scheme", "warp"]),
            ("seed-minus-1", ["--seed", "-1"]))


def scenarios():
    """(name, argv) for every default scenario, in a fixed order."""
    for workload in sorted(WORKLOADS):
        for scheme in SCHEMES:
            base = ["--workload", workload, "--scheme", scheme]
            yield f"{workload}-{scheme}", base
            yield f"{workload}-{scheme}-verify", base + ["--verify"]
    for scheme in ("pim_runtime", "pim_enc_dec"):
        yield (f"logreg-{scheme}-A2Y", ["--workload", "logreg", "--scheme",
                                        scheme, "--variant", "A2Y"])
    for workload, scheme in TAMPERED:
        for target in LINEAR_TARGETS:
            yield (f"{workload}-{scheme}-tamper-{target}",
                   ["--workload", workload, "--scheme", scheme, "--verify",
                    "--tamper", target])
    yield ("logreg-pim_runtime-A2Y-tamper-gc_table",
           ["--workload", "logreg", "--scheme", "pim_runtime", "--variant",
            "A2Y", "--verify", "--tamper", "gc_table"])
    for name, flags in REJECTED:
        yield (f"mlp-pim_runtime-reject-{name}",
               ["--workload", "mlp", "--scheme", "pim_runtime", "--verify",
                *flags])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, flags in scenarios():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            # a scenario's own --seed comes later, so it wins
            code = cli.main(["run", "--seed", str(args.seed), *flags,
                             "--out", str(args.out_dir / f"{name}.json")])
        lines.append(f"{name} {code} {err.getvalue()!r}\n")
    (args.out_dir / "exit_codes.txt").write_text("".join(lines))
    print(f"{len(lines)} scenarios -> {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
