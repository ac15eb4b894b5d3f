"""Scenario runner and report tooling.

``securepim run`` executes one (workload, scheme, verify, tamper) scenario
and writes a deterministic JSON report; ``securepim compare`` checks two
reports for digest equality and emits counter ratios.  Exit codes: 0 ok,
2 verification or GC abort, 3 configuration error (including a flag the
parser rejects, a tamper that never fires and a load over the device memory
budget).
"""

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from .adversary import Campaign, run_campaign
from .errors import (CapacityError, ConfigError, GcEvaluationFault,
                     SecurePimError, VerificationError)
from .host import VARIANTS, SchemeConfig
from .pimsim import CostReport, TamperSpec
from .workloads import WORKLOADS, check_int, merged_params, run_workload

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_CONFIG = 3

# Every key of a scenario, whether a ``--config`` object or the flags of
# ``run``, with the value it takes when missing or null.
SCENARIO = {"workload": None, "scheme": "pim_runtime", "variant": "A",
            "verify": False, "seed": 0, "params": {}, "tamper": None,
            "campaign": None, "out": None}


def result_digest(words: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(words, dtype="<u4").tobytes()
    ).hexdigest()


def parse_tamper(text: str) -> TamperSpec:
    """``target[:mutation[:position]]``, e.g. ``device_result:bit_flip:3``."""
    if not isinstance(text, str) or text.count(":") > 2:
        raise ConfigError(
            f"tamper must be a string target[:mutation[:position]], got {text!r}")
    parts = text.split(":")
    kwargs = {"target": parts[0]}
    if len(parts) > 1 and parts[1]:
        kwargs["mutation"] = parts[1]
    if len(parts) > 2:
        try:
            kwargs["position"] = int(parts[2])
        except ValueError:   # "random", or a position TamperSpec rejects
            kwargs["position"] = parts[2]
    return TamperSpec(**kwargs)


def build_report(scenario: dict, words, sess, aborted=None) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "digest": result_digest(words) if words is not None else None,
        "offline": dict(vars(sess.offline)),
        "online": dict(vars(sess.online)),
        "a2y": {
            "scalars": sess.a2y_scalars,
            "labels_transferred": sess.a2y_labels_transferred,
            "labels_stored": sess.a2y_labels_stored,
        },
        "reshare_events": sess.reshare_events,
        "verification": sess.verification_events,
        "leaks": sess.leaks,
        "tampers": sess.tamper.log,
    }
    if aborted is not None:
        report["aborted"] = aborted
    return report


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report: dict, out_path):
    text = render(report)
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}") from None


def cmd_run(args) -> int:
    """Run the flags' scenario or each ``--config`` one, all checked first."""
    flags = {k: v for k, v in vars(args).items()
             if k in SCENARIO and v is not None}
    if args.config is None:
        objs = [flags]
    elif flags:
        raise ConfigError("--config takes no scenario flags, got "
                          + ", ".join(f"--{k}" for k in flags))
    else:
        data = _read_json(args.config, "config")
        objs = data if isinstance(data, list) else [data]
        if not objs:
            raise ConfigError(f"config {args.config!r} is an empty batch: "
                              f"it names no scenario to run")
    runs = [_scenario(obj) for obj in objs]
    return max((_run_scenario(*run) for run in runs), default=EXIT_OK)


def _read_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None


def _check_keys(what: str, obj, keys, required=()):
    """Name a bad shape or an unknown or missing key in the config's terms."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object with keys among "
                          f"{keys}, got {obj!r}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}; its keys "
                          f"are among {keys}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{what} is missing the required keys {missing}")


def _scenario(obj) -> tuple:
    """(scenario, config, tamper, campaign), each field checked by what takes
    it and nulls defaulted; a tamper that never fires shows only in a run."""
    _check_keys("scenario", obj, list(SCENARIO))
    sc = {k: default if obj.get(k) is None else obj[k]
          for k, default in SCENARIO.items()}
    if sc["out"] is not None and not isinstance(sc["out"], str):
        raise ConfigError(f"out must be a path, got {sc['out']!r}")
    cfg = SchemeConfig(sc["scheme"], sc["verify"], sc["variant"])
    spec = None if sc["tamper"] is None else parse_tamper(sc["tamper"])
    campaign = None if sc["campaign"] is None else _campaign(sc["campaign"])
    check_int("seed", sc["seed"])
    merged_params(sc["workload"], sc["params"], cfg.scheme)
    return sc, cfg, spec, campaign


def _campaign(spec) -> Campaign:
    fields = dataclasses.fields(Campaign)
    _check_keys("campaign", spec, [f.name for f in fields],
                [f.name for f in fields
                 if f.default is f.default_factory is dataclasses.MISSING])
    return Campaign(**spec)


def _run_scenario(sc, cfg, spec, campaign) -> int:
    """Run one checked scenario and write its report."""
    aborted = words = None
    try:
        words, sess = run_workload(sc["workload"], cfg, sc["seed"],
                                   sc["params"], tamper=spec)
    except (VerificationError, GcEvaluationFault) as exc:
        aborted = {"reason": type(exc).__name__, "detail": str(exc)}
        sess = exc.session
    echo = {k: v for k, v in sc.items() if k not in ("campaign", "out")}
    report = build_report(echo, words, sess, aborted)
    if campaign is not None:
        report["campaign"] = run_campaign(campaign)
    _emit(report, sc["out"])
    return EXIT_OK if aborted is None else EXIT_ABORT


def compare_reports(a: dict, b: dict) -> dict:
    for rep in (a, b):
        if not (isinstance(rep, dict) and isinstance(rep.get("scenario"), dict)
                and "digest" in rep):
            raise ConfigError("not a securepim report")
        if not all(isinstance(led, dict) and all(type(v) is int for v in led.values())
                   for led in (rep.get("offline", {}), rep.get("online", {}))):
            raise ConfigError("offline and online must be objects of int counters")
    for key in ("workload", "seed", "params"):
        if a["scenario"].get(key) != b["scenario"].get(key):
            raise ConfigError(f"scenario mismatch on {key!r}")
    diff, ratios = {}, {}
    if a["digest"] != b["digest"]:
        diff["digest"] = [a["digest"], b["digest"]]
    for phase in ("offline", "online"):
        for key in (f.name for f in dataclasses.fields(CostReport)):
            va, vb = a.get(phase, {}).get(key), b.get(phase, {}).get(key)
            if va is None or vb is None:
                continue
            if va != vb:
                diff[f"{phase}.{key}"] = [va, vb]
            ratios[f"{phase}.{key}"] = va / vb if vb else (0.0 if not va else None)
    return {"digest_equal": a["digest"] is not None
            and a["digest"] == b["digest"], "diff": diff,
            "ratios": ratios}


def cmd_compare(args) -> int:
    summary = compare_reports(_read_json(args.report_a, "report"),
                              _read_json(args.report_b, "report"))
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A bad flag is a configuration error (exit 3), not argparse's exit 2,
    which is the abort code; subparsers are built from this class too."""

    def error(self, message):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="securepim",
        description="secure PIM-offload simulator: scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and emit a report")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--scheme")
    run.add_argument("--variant", choices=VARIANTS)
    run.add_argument("--verify", action="store_true", default=None)
    run.add_argument("--tamper", help="target[:mutation[:position]]")
    run.add_argument("--seed", type=int)
    run.add_argument("--config", help="JSON scenario file (dict or list)")
    run.add_argument("--out", help="report path (default: stdout)")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="diff two reports")
    cmp_.add_argument("report_a")
    cmp_.add_argument("report_b")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, CapacityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SecurePimError as exc:
        sys.stderr.write(f"aborted: {exc}\n")
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
