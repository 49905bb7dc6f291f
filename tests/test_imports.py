"""No stranded code: every name a module of the package imports is used in
that module or re-exported through its ``__all__``, every module-level
private function or class is referenced somewhere in the package outside its
own definition, every ``__all__`` entry names something, and README's library
tour runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mflq"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(path.read_text()) == []


def test_a_stranded_import_is_reported():
    source = ("from .riccati import default_grid, integrate_backward\n"
              "__all__ = ['f']\n"
              "def f(rhs, y, grid):\n"
              "    return integrate_backward(rhs, y, grid)\n")
    assert _unused_imports(source) == ["default_grid (line 1)"]


def _unreferenced_private_names(sources: dict) -> list[str]:
    """Module-level private functions and classes of ``sources`` (module name
    -> text) that no name or attribute in any of them refers to, outside the
    definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(isinstance(n, ast.Name) and n.id == node.name
                       or isinstance(n, ast.Attribute) and n.attr == node.name
                       for other in trees.values() for n in ast.walk(other) if id(n) not in own):
                found.append(f"{module}.{node.name} (line {node.lineno})")
    return found


def test_every_private_helper_is_referenced():
    assert _unreferenced_private_names({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_a_stranded_private_helper_is_reported():
    sources = {
        "a": ("def _kept(x):\n"
              "    return x\n"
              "def _recursive(k):\n"
              "    return _recursive(k - 1) if k else 0\n"
              "class _Stranded:\n"
              "    pass\n"
              "def __getattr__(name):\n"
              "    raise AttributeError(name)\n"),
        "b": ("from . import a\n"
              "def f(x):\n"
              "    return a._kept(x)\n"),
    }
    assert _unreferenced_private_names(sources) == ["a._recursive (line 3)", "a._Stranded (line 5)"]


def _unresolved_exports(module) -> list[str]:
    """Entries of ``module.__all__`` that name nothing in it (a stale entry
    does not stop the import, only ``from module import *``)."""
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "mflq" if path.stem == "__init__" else f"mflq.{path.stem}"
    assert _unresolved_exports(importlib.import_module(name)) == []


def test_a_stale_export_is_reported():
    module = types.ModuleType("m")
    module.kept = 1
    module.__all__ = ["kept", "removed"]
    assert _unresolved_exports(module) == ["removed"]


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
