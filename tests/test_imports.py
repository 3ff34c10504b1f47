"""Every module of the package uses each name it imports and defines each
name it exports, and the config format loads without the command."""

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


def test_the_config_format_loads_without_the_command():
    code = ("import sys, formflow.config; "
            "print('formflow.cli' in sys.modules, 'argparse' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "False False\n"
