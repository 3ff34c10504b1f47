"""Every module of the package uses each name it imports and defines each
name it exports, every public function has a caller in the package or a
reason to stay, and the config format loads without the command."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "formflow"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import Any, Sequence\nx: Sequence = np.zeros(1)\n"
    assert unused_imports(source) == ["Any", "os"]
    assert unused_imports("from . import expr\n__all__ = ['expr']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_defines_every_name_in_all(path):
    # a name in __all__ that the module lacks breaks `from module import *`
    module = importlib.import_module(
        "formflow" if path.stem == "__init__" else f"formflow.{path.stem}"
    )
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def uncalled(package: Path) -> list[str]:
    """Public top-level functions and methods of the package's modules that
    no code of the package refers to outside their own body, as
    module.function or module.Class.method.

    A function counts as referred to by its bare name in its own module or
    where it is imported by name, or as an attribute of an alias of its
    module; a method only as an attribute of its name, on any object, so a
    bare name such as a local helper's does not count for a method."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    defs = []  # (qualified name, module, name, is a method, node)
    refs = []  # (node, (module or "", name) it can reach)
    for mod, tree in trees.items():
        aliases, imported = {}, {}  # local name -> module; -> (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        imported[a.asname or a.name] = (node.module, a.name)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((f"{mod}.{node.name}", mod, node.name, False, node))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs += [(f"{mod}.{node.name}.{f.name}", mod, f.name, True, f) for f in node.body
                         if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node, imported.get(node.id, (mod, node.id))))
            elif isinstance(node, ast.Attribute):
                owner = aliases.get(node.value.id) if isinstance(node.value, ast.Name) else None
                refs.append((node, (owner or "", node.attr)))
    out = []
    for qualified, mod, name, method, node in defs:
        inside = {id(n) for n in ast.walk(node)}
        if not any(id(n) not in inside and (
            ref[1] == name and isinstance(n, ast.Attribute) if method else ref == (mod, name)
        ) for n, ref in refs):
            out.append(qualified)
    return out


def test_uncalled_functions_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    pass\n\n\ndef alone():\n    return alone()\n\n\n"
        "def _private():\n    pass\n\n\nclass K:\n    def m(self):\n        pass\n\n"
        "    def n(self):\n        return self.m()\n\n    def at(self):\n        pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a as x\nfrom .a import K\n\n\ndef top():\n    return x.used(), K\n\n\n"
        "def alone():\n    def at():\n        pass\n\n    return at()\n"
    )
    # b's alone() does not call a's; a call of itself is not a caller, and
    # the bare name of b's local helper at() is not a call of K.at
    assert uncalled(tmp_path) == ["a.alone", "a.K.n", "a.K.at", "b.top", "b.alone"]


# Public functions that no code of the package calls, each with the reason
# it stays: an acceptance criterion or an entry point (the README's library
# example, a script) reads it, or the benchmark's tracer wraps it by name,
# which ROADMAP item 5's run trace is to replace.  A function that neither
# the package nor one of these needs is deleted, or moved to tests/oracles.py
# when a test needs it as an oracle.
TRACED = "wrapped by name in bench/tracing.py (ROADMAP item 5)"
KEEP = {
    "chains.advect": TRACED,
    "chains.Chain.cells": "read by bench/tracing.py's _count_integrate (ROADMAP item 5)",
    "chains.circle_cell": "acceptance criterion 06",
    "chains.invariance_check": f"acceptance criterion 06; {TRACED}",
    "chains.period_spectrum": "acceptance criterion 07",
    "config.serialize_config": "README: the config format writes a RunConfig back",
    "expr.eval_many": TRACED,
    "expr.eval_with_scale": TRACED,
    "expr.simplify": TRACED,
    "finite_topology.enumerate_topologies": "acceptance criterion 09",
    "finite_topology.figure1": "acceptance criterion 09",
    "finite_topology.image_topology": TRACED,
    "finite_topology.is_homeomorphism": TRACED,
    "forms.excess_function": "acceptance criterion 03",
    "forms.form_from_coeffs": "acceptance criterion 06",
    "parse.parse_scalar_list": TRACED,
    "systems.euler_residual": f"acceptance criterion 08; {TRACED}",
    "systems.get_preset": f"the README's library example and scripts/theorem_survey.py; {TRACED}",
    "systems.preset_names": "acceptance criterion 10 and both scripts",
    "systems.transversal_current_comparison": TRACED,
}


def test_every_public_function_has_a_caller_or_a_reason():
    found = uncalled(PACKAGE)
    assert sorted(set(found) - set(KEEP)) == [], "no caller in src/ and no row in KEEP"
    assert sorted(set(KEEP) - set(found)) == [], "a KEEP row whose function has a caller"


def test_the_config_format_loads_without_the_command():
    code = ("import sys, formflow.config; "
            "print('formflow.cli' in sys.modules, 'argparse' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False False\n"
