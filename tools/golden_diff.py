"""Record every golden-ledger case afresh and report each field that moved.

Loads ``tests/test_golden_ledger.py`` by path, records every case in its
``CASES`` with the current code and prints each moved field as
``case: field old -> new``, where ``field`` is a dotted path such as
``online.host_prf_calls``.  Exits 1 if a case was added or removed, or if a
field moved that no ``--allow`` names (by its dotted path or its last
component).  It also prints, per case, each counter whose offline plus
online total moved, and one summary line: a change that only moves a cost
between the phases keeps every total.  With ``--write`` it rewrites
``tests/golden_ledger.json``, but only when the field check passes.

    PYTHONPATH=src python tools/golden_diff.py [--allow FIELD ...] [--write]
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

LEDGER_TESTS = (Path(__file__).resolve().parents[1] / "tests"
                / "test_golden_ledger.py")
ABSENT = "<absent>"


def load_ledger_tests():
    spec = importlib.util.spec_from_file_location("_golden_ledger",
                                                  LEDGER_TESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flatten(value, prefix=""):
    """(dotted path, leaf) pairs of nested dicts; lists are leaves."""
    if not isinstance(value, dict):
        yield prefix, value
        return
    for key, sub in value.items():
        yield from flatten(sub, f"{prefix}.{key}" if prefix else key)


def compare(old: dict, new: dict, allow=()) -> tuple:
    """(lines, ok): one line per added or removed case and per moved field;
    ``ok`` is False if a case came or went or an unallowed field moved."""
    lines = [f"{case}: removed" for case in sorted(old.keys() - new.keys())]
    lines += [f"{case}: added" for case in sorted(new.keys() - old.keys())]
    ok = not lines
    for case in sorted(old.keys() & new.keys()):
        was, now = dict(flatten(old[case])), dict(flatten(new[case]))
        for field in sorted(was.keys() | now.keys()):
            a, b = was.get(field, ABSENT), now.get(field, ABSENT)
            if a != b:
                lines.append(f"{case}: {field} {a} -> {b}")
                ok &= field in allow or field.rsplit(".", 1)[-1] in allow
    return lines, ok


def phase_totals(old: dict, new: dict) -> list:
    """One line per case and counter whose offline+online total moved, then
    a summary line; a rejected configuration, with no ledger, has none."""
    def totals(case):
        off, on = case.get("offline", {}), case.get("online", {})
        return {k: off.get(k, 0) + on.get(k, 0) for k in off.keys() | on.keys()}

    lines = []
    for case in sorted(old.keys() & new.keys()):
        was, now = totals(old[case]), totals(new[case])
        for counter in sorted(was.keys() | now.keys()):
            a, b = was.get(counter, ABSENT), now.get(counter, ABSENT)
            if a != b:
                lines.append(f"{case}: total {counter} {a} -> {b}")
    return lines + [f"{len(lines)} phase totals moved"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--allow", action="append", default=[],
                        metavar="FIELD", help="a field that may move")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the golden file if the check passes")
    args = parser.parse_args(argv)
    tests = load_ledger_tests()
    old = json.loads(tests.GOLDEN.read_text(encoding="utf-8"))
    new = {name: json.loads(json.dumps(tests.ledger(*case)))
           for name, case in tests.CASES.items()}
    lines, ok = compare(old, new, set(args.allow))
    for line in lines + phase_totals(old, new):
        print(line)
    print(f"{len(new)} cases, {len(lines)} differences: "
          f"{'ok' if ok else 'REJECTED'}")
    if ok and args.write:
        tests.GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True)
                                + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
