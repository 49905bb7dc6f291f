"""No stranded code: every name a module of the package imports is used in
that module or re-exported through its ``__all__``, and every module-level
private function or class is referenced somewhere in the package outside its
own definition."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mflq"


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
