"""No stranded code: every name a module of the package imports is used in
that module or re-exported through its ``__all__``, every module-level
private function, class or constant is read somewhere in the package outside
its own definition, every ``__all__`` entry names something and has a
caller outside its module (another module, the benchmark or an acceptance
criterion), no module imports SciPy and no call of the package or command
of its CLI loads it, ``riccati._expm`` is the one matrix exponential, no module refers to
a ``trapezoid`` besides the package's own, only ``model._interp`` looks a
time up on a grid, a ``SimConfig`` is validated, a time grid built, an RK4
step taken and an Euler–Maruyama loop run each in one place, the mean path
takes no RK4 step and the stepper samples no path inside a loop over steps,
no public
function of ``sim`` takes draws from its caller, every import is made at
module level, ``sim`` imports nothing from ``game``, README's library tour
runs, and a failing ``hypothesis`` test fails alone."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from mflq import cli

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


def _names_read(tree, strings: bool = False) -> set:
    """Every name an ast Name, Attribute or import in ``tree`` reads, and
    with ``strings`` every string constant too (a name reached by
    ``getattr``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


# public without a caller: the residual and the axis margin are solver
# diagnostics a run record will read, and the version is metadata
_CALLERLESS_PUBLIC = {"riccati_residual", "imaginary_axis_margin", "__version__"}


def _stranded_exports(sources: dict, callers: set) -> list[str]:
    """``module.name`` of each ``__all__`` entry of ``sources`` (module name
    -> text) that ``callers`` lacks and no module reads but its own, the one
    it is imported from and ``__init__`` (a re-export is no caller); classes,
    the types public functions take and return, and ``_CALLERLESS_PUBLIC``
    are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {module: _names_read(tree) for module, tree in trees.items()}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    found = []
    for module, tree in trees.items():
        home = {a.asname or a.name: node.module for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
        exports = [name for node in tree.body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                   for name in ast.literal_eval(node.value)]
        for name in exports:
            others = [read[m] for m in trees if m not in (module, home.get(name), "__init__")]
            if name not in callers.union(*others) | classes | _CALLERLESS_PUBLIC:
                found.append(f"{module}.{name}")
    return found


def test_every_public_name_has_a_caller():
    # callers outside the package: the benchmark, which reaches its traced
    # functions by name, and the acceptance criteria
    callers = set().union(*(_names_read(ast.parse(p.read_text()), strings=True)
                            for p in sorted((ROOT / "benchmarks").glob("*.py"))))
    callers |= _names_read(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _stranded_exports(sources, callers) == []


def test_a_public_name_without_a_caller_is_reported():
    sources = {
        "__init__": ("from .a import Report, kept, stranded, traced\n"
                     "__version__ = '0'\n"
                     "__all__ = ['Report', 'kept', 'stranded', 'traced', '__version__']\n"),
        "a": ("__all__ = ['Report', 'kept', 'stranded', 'traced']\n"
              "class Report:\n"
              "    pass\n"
              "def stranded():\n"
              "    return Report()\n"
              "def kept():\n"
              "    return stranded()\n"
              "def traced():\n"
              "    return kept()\n"),
        "b": ("from . import a\n"
              "def f():\n"
              "    return a.kept()\n"),
    }
    callers = _names_read(ast.parse("LAWS = ((a, 'traced'),)"), strings=True)
    assert _stranded_exports(sources, callers) == ["__init__.stranded", "a.stranded"]
    assert _stranded_exports(sources, set()) == ["__init__.stranded", "__init__.traced",
                                                 "a.stranded", "a.traced"]


def test_import_loads_no_scipy_integrate_or_optimize():
    # the package uses no SciPy: importing it would cost about 0.2 s and 20 MB
    # on a 2-vCPU host
    probe = ("import sys, mflq, mflq.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _scipy_at_exit(code: str, cwd) -> tuple[int, list[bool]]:
    """Run ``code`` in a fresh interpreter after ``import mflq, mflq.cli``:
    its exit code, and whether ``scipy`` was loaded after the import and at
    exit."""
    probe = ("import atexit, json, sys\n"
             "import mflq, mflq.cli\n"
             "loaded = ['scipy' in sys.modules]\n"
             "atexit.register(lambda: print(json.dumps(loaded + ['scipy' in sys.modules])))\n"
             + code)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=cwd)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


_NO_SCIPY = [False, False]
_LIBRARY = ("from mflq import *\n"
            "params = ModelParams(A=1.0, B=1.0, G={G}, Q=1.0, R=1.0, Gamma=-0.2, eta=5.0,\n"
            "                     rho=0.6, f=1.0, sigma=0.1, x_bar0=5.0, init_cov=0.5)\n"
            "config = SimConfig(N=3, dt=0.05, T=1.0, replications=2, seed=0)\n")


@pytest.mark.parametrize("G, code", [
    (-0.2, "gains = synth_social_finite(params, 1.0, steps=100)\n"
           "bundle = simulate(params, social_law(gains), config)\n"
           "evaluate_costs(bundle, params)\n"
           "convergence_study(params, [2, 3, 4], config)\n"),
    (0.0, "synth_game_finite(params, 1.0, steps=100)\n"),
    (-0.2, "synth_social_infinite(params)\n"),
    (-0.2, "analyze(params)\n"),
    (0.0, "gains = synth_game_infinite(params)\n"
          "nash_deviation_search(params, gains, config)\n"
          "convergence_study(params, [2, 3], config, horizon='infinite')\n"),
], ids=["finite-social-check", "synth-game-finite", "synth-social-infinite", "analyze",
        "infinite-check"])
def test_only_an_are_solve_loads_scipy(tmp_path, G, code):
    # no call loads SciPy: finite-horizon synthesis, the game's solvability
    # sweep, the ARE solves of infinite-horizon synthesis and of analyze, and
    # every Monte Carlo check of their gains
    assert _scipy_at_exit(_LIBRARY.format(G=G) + code, tmp_path) == (0, _NO_SCIPY)


_CLI_MODEL = {"A": 1.0, "B": 1.0, "G": -0.2, "Q": 1.0, "R": 1.0, "Gamma": -0.2, "eta": 5.0,
              "rho": 0.6, "f": 1.0, "sigma": 0.1, "x_bar0": 5.0, "init_cov": 0.5}
_CLI_SIM = {"N": 3, "dt": 0.05, "T": 1.0, "replications": 2, "seed": 1}
_CLI_NASH = {"kind": "nash", "span": 0.2, "points": 3, "N_list": [2, 3]}
_CLI_CONFIGS = {
    "social-finite": {"model": _CLI_MODEL, "problem": "social",
                      "horizon": {"kind": "finite", "T": 1.0}, "sim": _CLI_SIM,
                      "study": {"kind": "convergence", "N_list": [2, 3, 4]}},
    "social-infinite": {"model": _CLI_MODEL, "problem": "social", "horizon": "infinite",
                        "sim": _CLI_SIM},
    "game-infinite": {"model": dict(_CLI_MODEL, G=0.0), "problem": "game",
                      "horizon": "infinite", "sim": _CLI_SIM, "study": _CLI_NASH},
    "game-finite": {"model": dict(_CLI_MODEL, G=0.0), "problem": "game",
                    "horizon": {"kind": "finite", "T": 1.0}, "sim": _CLI_SIM,
                    "study": _CLI_NASH},
}


_COMMANDS = [
    ("synth", "social-finite", False, 0),
    ("simulate", "social-finite", False, 0),
    ("study", "social-finite", False, 0),
    ("simulate", "social-infinite", True, 0),
    ("simulate", "game-finite", True, 0),
    ("study", "game-infinite", True, 0),
    ("study", "game-finite", True, 0),
    ("synth", "malformed", False, 2),
    ("synth", "social-infinite", False, 0),
    ("synth", "game-finite", False, 0),
    ("stabilize", "social-infinite", False, 0),
    ("study", "game-infinite", False, 0),
    ("simulate", "social-infinite", False, 0),
]


@pytest.mark.parametrize("command, config, stamped, code", _COMMANDS,
                         ids=[f"{c[0]}-{c[1]}" + "-stamped" * c[2] for c in _COMMANDS])
def test_which_commands_load_scipy(tmp_path, command, config, stamped, code):
    # no command loads SciPy, whether it reads the gains `mflq synth` stamped
    # or synthesizes them, on either horizon, nor `stabilize`
    path = tmp_path / "exp.json"
    path.write_text("{not json" if config == "malformed" else json.dumps(_CLI_CONFIGS[config]))
    argv = ["--config", str(path), "--out", str(tmp_path / "out")]
    if stamped:
        assert cli.main(["synth"] + argv) == 0
    assert _scipy_at_exit(f"sys.exit(mflq.cli.main({[command] + argv!r}))",
                          tmp_path) == (code, _NO_SCIPY)


def test_synth_then_simulate_of_a_finite_game_loads_no_scipy(tmp_path):
    # the CLI benchmark's path: one process synthesizes a finite-horizon game,
    # its solvability sweep included, and simulates on the stamped gains
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_CLI_CONFIGS["game-finite"]))
    argv = ["--config", str(path), "--out", str(tmp_path / "out")]
    code = f"mflq.cli.main({['synth'] + argv!r})\nsys.exit(mflq.cli.main({['simulate'] + argv!r}))"
    assert _scipy_at_exit(code, tmp_path) == (0, _NO_SCIPY)


def _scipy_sites(source: str) -> list[int]:
    """Lines of ``source`` that import any module of SciPy or read an
    attribute ``expm``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "scipy"
                  or isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
                  or isinstance(node, ast.Attribute) and node.attr == "expm")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_package_takes_no_scipy_exponential(path):
    # riccati._expm is the package's one matrix exponential, and no module
    # imports SciPy at all
    assert _scipy_sites(path.read_text()) == []


def test_a_scipy_exponential_is_reported():
    source = ("import scipy.linalg\n"
              "from scipy.linalg import schur\n"
              "def f(M):\n"
              "    from scipy.linalg import expm\n"
              "    return scipy.linalg.expm(M) + expm(M) + _expm(M)\n"
              "import numpy as np, scipy as sp\n"
              "from scipy import sparse\n"
              "import scipyx\n"
              "from .scipy import schur\n")
    assert _scipy_sites(source) == [1, 2, 4, 5, 6, 7]


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
    # one RK4 step, behind the backward pass that criterion 3 checks the
    # exact synthesis with; synthesis steps by the Hamiltonian's flow
    "_rk4_step": ["riccati.integrate_backward"],
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


def _enclosing_loops(source: str, function: str, name: str) -> list[list[str]]:
    """For each call of ``name`` (a plain name or an attribute) inside the
    module-level function ``function`` of ``source``, the loops around it,
    outermost first, each as its header: ``for target in iter`` for a
    ``for`` statement or a comprehension's clause, ``while test`` for a
    ``while``.  A call in a lambda or a nested function counts where that
    is written."""
    found = []

    def visit(node, loops):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append(loops)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            loops = loops + [f"for {ast.unparse(node.target)} in {ast.unparse(node.iter)}"]
        elif isinstance(node, ast.While):
            loops = loops + [f"while {ast.unparse(node.test)}"]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            loops = loops + [f"for {ast.unparse(g.target)} in {ast.unparse(g.iter)}"
                             for g in node.generators]
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    fn, = [node for node in ast.parse(source).body
           if isinstance(node, ast.FunctionDef) and node.name == function]
    visit(fn, [])
    return found


def test_the_mean_path_and_the_stepper_sample_outside_their_step_loops():
    # social takes each flow's exponential once per synthesis, before any
    # loop over steps: every step's map is built from it as one array; and
    # sim._steps samples f and sigma once per pass, before its step loop
    social, sim = ((SRC / f"{m}.py").read_text() for m in ("social", "sim"))
    functions = [node.name for node in ast.parse(social).body if isinstance(node, ast.FunctionDef)]
    loops = [loop for name in functions for loop in _enclosing_loops(social, name, "_expm")]
    assert loops and all(loop == [] for loop in loops)
    assert _enclosing_loops(sim, "_steps", "f_at") == [[]]
    assert _enclosing_loops(sim, "_steps", "sigma_at") == [[]]


def test_a_call_in_a_step_loop_is_reported():
    source = ("def _steps(params, grid, x):\n"
              "    s0 = params.sigma_at(grid[0])\n"
              "    for k, t in enumerate(grid):\n"
              "        x = x + params.f_at(t) + s0\n"
              "        while x.max() > params.sigma_at(t).max():\n"
              "            x = x / 2\n"
              "    return [_rk4_step(lambda c, y: y, x, h) for h in grid]\n")
    assert _enclosing_loops(source, "_steps", "f_at") == [["for (k, t) in enumerate(grid)"]]
    assert _enclosing_loops(source, "_steps", "sigma_at") == [
        [], ["for (k, t) in enumerate(grid)", "while x.max() > params.sigma_at(t).max()"]]
    assert _enclosing_loops(source, "_steps", "_rk4_step") == [["for h in grid"]]


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
    names = lambda path: _names_read(ast.parse(path.read_text()))
    assert names(SRC / "sim.py") & {"social_law", "centralized_law", "game_law", "_law"} == set()

    assert [p.name for p in sorted(SRC.glob("*.py"))
            if names(p) & {"cache", "lru_cache"}] == ["social.py"]


#: the imports a function may make: (module file, function, what it imports).
#: None is allowed: the package uses no SciPy, so nothing needs deferring to
#: the first call that would load it
_NESTED_IMPORT_ALLOWED: frozenset[tuple[str, str, str]] = frozenset()


def _function_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, innermost enclosing function, module) of each module an import
    inside a function of ``source`` names; a relative module keeps its dots."""
    found = []

    def visit(node, function):
        if function is not None and isinstance(node, ast.ImportFrom):
            found.append((node.lineno, function, "." * node.level + (node.module or "")))
        elif function is not None and isinstance(node, ast.Import):
            found.extend((node.lineno, function, alias.name) for alias in node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def _nested_imports(source: str, allowed=frozenset()) -> list[int]:
    """Lines of the imports made inside a function of ``source``, but for the
    ``allowed`` (function, module) pairs."""
    return sorted({line for line, function, module in _function_imports(source)
                   if (function, module) not in allowed})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    allowed = {(f, m) for p, f, m in _NESTED_IMPORT_ALLOWED if p == path.name}
    assert _nested_imports(path.read_text(), allowed) == []
    # the allowance names no site that no longer imports it
    assert {(f, m) for _, f, m in _function_imports(path.read_text())} == allowed


def test_the_allowance_admits_only_its_module_at_its_sites():
    source = ("def solve_are_stable_subspace(M):\n"
              "    from scipy.linalg import schur\n"
              "    import numpy\n"
              "    from scipy.linalg import expm\n"
              "    def inner():\n"
              "        from scipy.linalg import schur\n"
              "def residual(M):\n"
              "    from scipy.linalg import schur\n"
              "    import scipy.linalg\n"
              "    from .scipy.linalg import schur\n")
    allowed = {("solve_are_stable_subspace", "scipy.linalg")}
    assert _nested_imports(source, allowed) == [3, 6, 8, 9, 10]


def test_a_nested_import_is_reported():
    source = ("import numpy as np\n"
              "def f(x):\n"
              "    from .sim import simulate\n"
              "    return simulate(x)\n"
              "def solve_are_stable_subspace(M):\n"
              "    from scipy.linalg import schur\n"
              "    def inner():\n"
              "        import scipy.linalg\n"
              "class C:\n"
              "    import json\n"
              "    async def g(self):\n"
              "        from . import sim\n")
    assert _nested_imports(source) == [3, 6, 8, 12]


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
