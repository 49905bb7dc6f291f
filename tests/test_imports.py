"""No stranded code: every name a module of the package imports is used in
that module or re-exported through its ``__all__``, every module-level
private function, class or constant is read somewhere in the package outside
its own definition, every ``__all__`` entry names something, importing the
package loads no SciPy beyond ``scipy.linalg``'s needs, no module refers to
a ``trapezoid`` besides the package's own, only ``model._interp`` looks a
time up on a grid, a ``SimConfig`` is validated, a time grid built, an RK4
step taken and an Euler–Maruyama loop run each in one place, no public
function of ``sim`` takes draws from its caller, every import is made at
module level, ``sim`` imports nothing from ``game``, README's library tour
runs, and a failing ``hypothesis`` test fails alone."""

import ast
import importlib
import inspect
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


def _defined_names(node) -> list[str]:
    """The module-level names a statement defines: a function's or class's
    own name, or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unreferenced_private_names(sources: dict) -> list[str]:
    """Module-level private functions, classes and constants of ``sources``
    (module name -> text) that no name or attribute in any of them reads,
    outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            own = {id(n) for n in ast.walk(node)}
            for name in _defined_names(node):
                if not name.startswith("_") or name.endswith("__"):
                    continue
                if not any(isinstance(n, ast.Name) and n.id == name
                           and not isinstance(n.ctx, ast.Store)
                           or isinstance(n, ast.Attribute) and n.attr == name
                           for other in trees.values() for n in ast.walk(other)
                           if id(n) not in own):
                    found.append(f"{module}.{name} (line {node.lineno})")
    return found


def test_every_private_helper_is_referenced():
    assert _unreferenced_private_names({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_a_stranded_private_helper_is_reported():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_SPAN, _UNUSED = 1.0, 2.0\n"
              "_TABLE: dict = {}\n"
              "_STALE = 0\n"
              "_STALE = 1\n"
              "def _kept(x):\n"
              "    return min(x, _LIMIT) * _SPAN\n"
              "def _recursive(k):\n"
              "    return _recursive(k - 1) if k else 0\n"
              "class _Stranded:\n"
              "    pass\n"
              "def _stale_leftover(law_eq, law_dev):\n"
              "    return law_eq\n"
              "def __getattr__(name):\n"
              "    raise AttributeError(name)\n"
              "__all__ = ['f']\n"),
        "b": ("from . import a\n"
              "def f(x):\n"
              "    return a._kept(x) + len(a._TABLE)\n"),
    }
    assert _unreferenced_private_names(sources) == [
        "a._UNUSED (line 2)", "a._STALE (line 4)", "a._STALE (line 5)",
        "a._recursive (line 8)", "a._Stranded (line 10)", "a._stale_leftover (line 12)"]


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


def test_import_loads_no_scipy_integrate_or_optimize():
    # SciPy serves only scipy.linalg.expm and schur; scipy.integrate (which
    # pulls in scipy.optimize) about doubles the import time of mflq.cli
    probe = ("import sys, mflq, mflq.cli\n"
             "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_a_second_quadrature(path):
    # every cost and gap the package reports goes through sim._Trapezoid;
    # np.trapezoid (or scipy's) is left to the tests' independent oracles
    refs = [getattr(node, "lineno", node) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and node.id == "trapezoid"
            or isinstance(node, ast.Attribute) and node.attr == "trapezoid"
            or isinstance(node, ast.alias) and node.name.split(".")[-1] == "trapezoid"]
    assert refs == []


def _reference_sites(sources: dict, names, imports: bool = True) -> list[str]:
    """``module.function``, or ``module.Class.method`` inside a class, of
    each reference to one of ``names`` in ``sources`` (module name -> text);
    a reference outside any function or class is named by its line.  A name
    with a leading dot, such as ".validate", counts only as an attribute.  An
    import of one of ``names`` counts too when ``imports``."""
    sites = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            scopes = [(f"{top.name}.{node.name}", node) for node in top.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      ] if isinstance(top, ast.ClassDef) else []
            scopes += [(getattr(top, "name", top.lineno), top)]
            seen = set()
            for scope, tree in scopes:
                for node in ast.walk(tree):
                    name = (node.id if isinstance(node, ast.Name) else
                            node.attr if isinstance(node, ast.Attribute) else
                            node.name.split(".")[-1]
                            if imports and isinstance(node, ast.alias) else None)
                    attr = isinstance(node, ast.Attribute) and f".{name}" in names
                    if (name in names or attr) and id(node) not in seen:
                        seen.add(id(node))
                        sites.append(f"{module}.{scope}")
    return sites


def test_one_interpolation_routine():
    # every path the package samples is interpolated by model._interp, the
    # only code that looks a time up on a grid
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(set(_reference_sites(sources, ("searchsorted", "interp")))) == ["model._interp"]


def test_a_second_interpolation_is_reported():
    sources = {"a": ("import numpy as np\n"
                     "def _interp(grid, values, t):\n"
                     "    return values[np.searchsorted(grid, t)]\n"),
               "b": ("from numpy import interp\n"
                     "class Path:\n"
                     "    def at(self, t):\n"
                     "        return np.interp(t, self.grid, self.values)\n")}
    assert _reference_sites(sources, ("searchsorted", "interp")) == ["a._interp", "b.1",
                                                                     "b.Path.at"]


# each decision made in one place: name -> the only sites that may reference it
_ONE_SITE = {
    # a SimConfig is checked once, when it is built (model.validate is a function)
    ".validate": ["sim.SimConfig.__post_init__"],
    # every time grid is riccati.default_grid, besides the deviation values
    "linspace": ["riccati.default_grid", "sim.affine_deviation_grid"],
    # one RK4 step behind the backward pass and the forward mean path
    "_rk4_step": ["riccati.integrate_backward", "social._mean_path"],
    # one Euler–Maruyama loop: simulate records one replication's pass, and
    # every other pass is a stack of populations
    "_steps": ["sim._stacked_steps", "sim.simulate"],
}


@pytest.mark.parametrize("name", sorted(_ONE_SITE))
def test_each_decision_has_one_site(name):
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(set(_reference_sites(sources, (name,), imports=False))) == _ONE_SITE[name]


def test_a_second_site_is_reported():
    source = ("import numpy as np\n"
              "from .riccati import _rk4_step\n"
              "class SimConfig:\n"
              "    def __post_init__(self):\n"
              "        self.validate()\n"
              "    def grid(self):\n"
              "        return np.linspace(0.0, self.T, self.steps + 1)\n"
              "def simulate(config, slope, y):\n"
              "    config.validate()\n"
              "    return _rk4_step(slope, y, config.dt)\n")
    sites = lambda name: _reference_sites({"sim": source}, (name,), imports=False)
    assert sites(".validate") == ["sim.SimConfig.__post_init__", "sim.simulate"]
    assert sites("linspace") == ["sim.SimConfig.grid"]
    assert sites("_rk4_step") == ["sim.simulate"]


def test_no_public_sim_function_takes_draws():
    # a replication's draws are decided by (seed, rep, agent) alone
    sim = importlib.import_module("mflq.sim")
    taking = [f"{name}({p})" for name in sim.__all__
              for p in inspect.signature(getattr(sim, name)).parameters
              if p in ("noise", "init_states")]
    assert taking == []


def test_the_stepper_reads_tables_not_law_closures():
    # the studies step (P, K, o) tables through sim._row_law: sim.py names no
    # (t, X) law factory, and only social.py keeps rows per time
    def names(path):
        return {node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else node.name.split(".")[-1]
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}

    assert names(SRC / "sim.py") & {"social_law", "centralized_law", "game_law", "_law"} == set()

    assert [p.name for p in sorted(SRC.glob("*.py"))
            if names(p) & {"cache", "lru_cache"}] == ["social.py"]


def _nested_imports(source: str) -> list[int]:
    """Lines of the imports made inside a function of ``source``."""
    return sorted(node.lineno for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert _nested_imports(path.read_text()) == []


def test_a_nested_import_is_reported():
    source = ("import numpy as np\n"
              "def f(x):\n"
              "    from .sim import simulate\n"
              "    return simulate(x)\n")
    assert _nested_imports(source) == [3]


def test_sim_imports_nothing_from_game():
    # game steps its representation check through sim, so sim needs nothing of game
    names = []
    for node in ast.walk(ast.parse((SRC / "sim.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert [name for name in names if "game" in name.split(".")] == []


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # hypothesis's failure report imports libcst, whose DeprecationWarning the
    # suite's "error" filter must not turn into an INTERNALERROR (exit 3)
    # that hides every later result
    (tmp_path / "test_probe.py").write_text("from hypothesis import given, strategies as st\n"
                                            "@given(st.integers())\n"
                                            "def test_fails(x):\n"
                                            "    assert x != 0\n"
                                            "def test_passes():\n"
                                            "    pass\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "test_probe.py"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
