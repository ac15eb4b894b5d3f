"""Every definition in ``src/securepim`` has a caller outside the tests.

Collects each module-level function, class and non-dunder name bound by an
assignment, and each non-dunder method, with ``ast``, then every name the
program mentions: a ``Name`` or an attribute in ``src/``, ``tools/``,
``benchmarks/`` or ``perfbench/``, and the dotted strings of perfbench's
``TRACED``, which patches functions by name; an import is not a use.  A
definition whose name appears only inside its own body or assignment is
reached by the tests alone and should be deleted, or moved into the tests
that need it.  A method that overrides one of a base class outside the
package counts as called by that base.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "securepim"
PROGRAM = ("src", "tools", "benchmarks", "perfbench")
# the acceptance tests call these, and they stay whatever else calls them
ACCEPTANCE_PINNED = {"build_add_mod_circuit", "build_sigmoid_circuit",
                     "clean_run_suite"}


def definitions():
    """(module, qualified name, node) of every definition the rule covers."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("")
                          .parts).removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, module, node.name, node
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for name in sorted({n.id for t in targets
                                    for n in ast.walk(t)
                                    if isinstance(n, ast.Name)}):
                    if not name.startswith("__"):
                        yield path, module, name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        yield path, module, f"{node.name}.{item.name}", item


def traced_names():
    """The names in perfbench's ``TRACED`` table, each dotted part apart."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED"
                         for t in node.targets))
    return {part for attrs in ast.literal_eval(table).values()
            for attr in attrs for part in attr.split(".")}


def mentions():
    """(name, path, line) of every name the program code mentions."""
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    yield node.id, path, node.lineno
                elif isinstance(node, ast.Attribute):
                    yield node.attr, path, node.lineno


def overrides_foreign_base(module, qualname):
    cls_name, _, meth = qualname.partition(".")
    cls = getattr(importlib.import_module(module), cls_name)
    return any(meth in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("securepim"))


def test_every_definition_has_a_program_caller():
    used = list(mentions())
    traced = traced_names()
    orphans = []
    for path, module, qualname, node in definitions():
        name = qualname.rsplit(".", 1)[-1]
        if name in ACCEPTANCE_PINNED or name in traced:
            continue
        if any(n == name and not (p == path and node.lineno <= line
                                  <= node.end_lineno)
               for n, p, line in used):
            continue
        if "." in qualname and overrides_foreign_base(module, qualname):
            continue
        orphans.append(f"{module}.{qualname}")
    assert orphans == [], f"reached only by the tests: {orphans}"
