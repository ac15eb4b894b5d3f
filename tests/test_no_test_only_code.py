"""Every definition in ``src/securepim`` has a caller outside the tests.

Collects each module-level function, class and non-dunder name bound by an
assignment, and each non-dunder method, with ``ast``, then every name the
program mentions in ``src/``, ``tools/`` or ``perfbench/``, and the dotted
strings of perfbench's ``TRACED``, which patches functions by name; an
import is not a use.  A method counts as used only through an attribute
(``x.store``).  A module-level definition counts as used through an
attribute whose value names its module as the program imports it
(``ring.trunc_array`` after ``from . import ring``), or as a bare name in
its own module or in a module that imports it by name (under its alias,
if any).  A definition whose name
appears only inside its own body or assignment is reached by the tests
alone and should be deleted, or moved into the tests that need it.  A
method that overrides one of a base class outside the package counts as
called by that base.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "securepim"
PROGRAM = ("src", "tools", "perfbench")
# the acceptance tests call these, and they stay whatever else calls them
ACCEPTANCE_PINNED = {"securepim.yao.circuit.build_add_mod_circuit",
                     "securepim.yao.circuit.build_sigmoid_circuit",
                     "securepim.adversary.clean_run_suite",
                     "securepim.ring.add"}


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


def dotted(node):
    """``a.b.c`` for a chain of names and attributes, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return ""


def mentions():
    """(name, owner, path, line) of every name the program code mentions,
    the owner None for a bare name and the dotted value for an attribute
    (``""`` if it is no chain of names), and per path the {local name:
    imported name} of its ``from ... import`` statements."""
    used, imports = [], {}
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            imports[path] = {}
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.append((node.id, None, path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    used.append((node.attr, dotted(node.value), path,
                                 node.lineno))
                elif isinstance(node, ast.ImportFrom):
                    imports[path].update((a.asname or a.name, a.name)
                                         for a in node.names)
    return used, imports


def overrides_foreign_base(module, qualname):
    cls_name, _, meth = qualname.partition(".")
    cls = getattr(importlib.import_module(module), cls_name)
    return any(meth in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("securepim"))


def names_module(owner, module, imports):
    """Whether the dotted ``owner`` is ``module`` under a name that its file
    ``imports``: ``ring`` after ``from . import ring``, ``yao.garble`` after
    ``from securepim import yao``."""
    head, _, rest = owner.partition(".")
    if head not in imports:
        return False
    full = ".".join(filter(None, (imports[head], rest)))
    return module == full or module.endswith("." + full)


def reaches(mention, name, method, module, path, imports):
    """Whether ``mention`` uses the definition ``name`` made in ``path``, of
    ``module``: a method through any attribute; a module-level definition
    through an attribute of its module, or as a bare name in its own module
    or in one that imports it by name."""
    word, owner, where, _line = mention
    if owner is None:
        return not method and (word == name if where == path
                               else imports[where].get(word) == name)
    return word == name and (method
                             or names_module(owner, module, imports[where]))


def test_every_definition_has_a_program_caller():
    used, imports = mentions()
    traced = traced_names()
    orphans = []
    for path, module, qualname, node in definitions():
        name = qualname.rsplit(".", 1)[-1]
        method = "." in qualname
        if f"{module}.{qualname}" in ACCEPTANCE_PINNED or name in traced:
            continue
        if any(reaches(m, name, method, module, path, imports)
               and not (m[2] == path and node.lineno <= m[3] <= node.end_lineno)
               for m in used):
            continue
        if method and overrides_foreign_base(module, qualname):
            continue
        orphans.append(f"{module}.{qualname}")
    assert orphans == [], f"reached only by the tests: {orphans}"
