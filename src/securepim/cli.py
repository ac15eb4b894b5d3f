"""Scenario runner and report tooling.

``securepim run`` executes one (workload, scheme, verify, tamper) scenario
and writes a deterministic JSON report; ``securepim compare`` checks two
reports for digest equality and emits counter ratios.  Exit codes: 0 ok,
2 verification or GC abort, 3 configuration error (including a load over the
device memory budget).
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from .adversary import Campaign, run_campaign
from .errors import (CapacityError, ConfigError, GcEvaluationFault,
                     SecurePimError, VerificationError)
from .host import SchemeConfig
from .pimsim import TamperSpec
from .workloads import WORKLOADS, run_workload

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_CONFIG = 3


def result_digest(words: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(words, dtype="<u4").tobytes()
    ).hexdigest()


def parse_tamper(text: str) -> TamperSpec:
    """``target[:mutation[:position]]``, e.g. ``device_result:bit_flip:3``."""
    parts = text.split(":")
    kwargs = {"target": parts[0]}
    if len(parts) > 1 and parts[1]:
        kwargs["mutation"] = parts[1]
    if len(parts) > 2 and parts[2] != "random":
        kwargs["position"] = int(parts[2])
    try:
        return TamperSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_report(scenario: dict, words, sess, aborted=None) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "digest": result_digest(words) if words is not None else None,
        "offline": {
            "host_mac_ops": sess.offline.host_mac_ops,
            "host_prf_calls": sess.offline.host_prf_calls,
        },
        "online": {
            "bytes_h2d": sess.online.bytes_h2d,
            "bytes_d2h": sess.online.bytes_d2h,
            "device_mac_ops": sess.online.device_mac_ops,
            "host_mac_ops": sess.online.host_mac_ops,
            "host_prf_calls": sess.online.host_prf_calls,
            "device_prf_calls": sess.online.device_prf_calls,
            "gc_bytes": sess.online.gc_bytes,
            "verify_ops": sess.online.verify_ops,
        },
        "verification": sess.verification_events,
        "leaks": sess.leaks,
        "tampers": sess.device.tamper_log,
    }
    if aborted is not None:
        report["aborted"] = aborted
    return report


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report: dict, out_path):
    text = render(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    scenarios = [vars(args)] if not args.config else _load_config(args.config)
    code = EXIT_OK
    for sc in scenarios:
        code = max(code, _run_scenario(sc))
    return code


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    scenarios = data if isinstance(data, list) else [data]
    if not all(isinstance(sc, dict) for sc in scenarios):
        raise ConfigError("config must hold a scenario object or a list of them")
    return scenarios


def _run_scenario(sc) -> int:
    workload = sc.get("workload")
    scheme = sc.get("scheme")
    if workload not in WORKLOADS:
        raise ConfigError(f"unknown workload {workload!r}")
    cfg = SchemeConfig(scheme=scheme, verify=bool(sc.get("verify")),
                       variant=sc.get("variant") or "A")
    seed = int(sc.get("seed") or 0)
    params = sc.get("params") or None
    tamper = sc.get("tamper")
    if isinstance(tamper, str):
        tamper = parse_tamper(tamper)
    scenario_echo = {
        "workload": workload,
        "scheme": scheme,
        "variant": cfg.variant,
        "verify": cfg.verify,
        "seed": seed,
        "params": params or {},
        "tamper": sc.get("tamper") if isinstance(sc.get("tamper"), str) else None,
    }
    aborted = None
    words = None
    try:
        words, sess = run_workload(workload, cfg, seed, params, tamper=tamper)
    except (VerificationError, GcEvaluationFault) as exc:
        aborted = {"reason": type(exc).__name__, "detail": str(exc)}
        sess = exc.session
    if sess is None and aborted is not None:
        report = {"schema_version": SCHEMA_VERSION, "scenario": scenario_echo,
                  "digest": None, "aborted": aborted}
    else:
        report = build_report(scenario_echo, words, sess, aborted)
    campaign = sc.get("campaign")
    if campaign:
        report["campaign"] = run_campaign(Campaign(**campaign))
    _emit(report, sc.get("out"))
    return EXIT_OK if aborted is None else EXIT_ABORT


_RATIO_KEYS = ("host_mac_ops", "host_prf_calls", "device_mac_ops",
               "bytes_h2d", "bytes_d2h", "verify_ops")


def compare_reports(a: dict, b: dict) -> dict:
    for key in ("workload", "seed", "params"):
        if a["scenario"].get(key) != b["scenario"].get(key):
            raise ConfigError(f"scenario mismatch on {key!r}")
    diff = {}
    if a["digest"] != b["digest"]:
        diff["digest"] = [a["digest"], b["digest"]]
    ratios = {}
    for phase in ("offline", "online"):
        for key in _RATIO_KEYS:
            va = a.get(phase, {}).get(key)
            vb = b.get(phase, {}).get(key)
            if va is None or vb is None:
                continue
            if va != vb:
                diff[f"{phase}.{key}"] = [va, vb]
            ratios[f"{phase}.{key}"] = va / vb if vb else (0.0 if not va else None)
    return {"digest_equal": a["digest"] == b["digest"], "diff": diff,
            "ratios": ratios}


def cmd_compare(args) -> int:
    with open(args.report_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.report_b, encoding="utf-8") as fh:
        b = json.load(fh)
    summary = compare_reports(a, b)
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="securepim",
        description="secure PIM-offload simulator: scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and emit a report")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--scheme", default="pim_runtime")
    run.add_argument("--variant", choices=("A", "A2Y"), default="A")
    run.add_argument("--verify", action="store_true")
    run.add_argument("--tamper", help="target[:mutation[:position]]")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--config", help="JSON scenario file (dict or list)")
    run.add_argument("--out", help="report path (default: stdout)")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="diff two reports")
    cmp_.add_argument("report_a")
    cmp_.add_argument("report_b")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CapacityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SecurePimError as exc:
        sys.stderr.write(f"aborted: {exc}\n")
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
