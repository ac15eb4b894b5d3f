"""The benchmark's span tracer patches securepim from outside the package.

``perfbench/spans.py`` names every traced function in ``TRACED`` and
``Tracer.install`` resolves each entry with ``getattr(module, name)`` or,
for a ``Class.method`` entry, ``Class.__dict__[method]``.  A refactor that
deletes, renames or moves a traced method into a base class would only
surface as a crash of ``perfbench/run.py --trace 1``; this test resolves
every entry the same way, without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_spans().TRACED
ENTRIES = [(module, attr) for module, attrs in TRACED.items()
           for attr in attrs]


@pytest.mark.parametrize("module, attr", ENTRIES,
                         ids=[f"{m}.{a}" for m, a in ENTRIES])
def test_traced_entry_resolves_like_install(module, attr):
    mod = importlib.import_module(f"securepim.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        assert meth in cls.__dict__, f"{attr} is not defined on {cls_name}"
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(mod, attr))
