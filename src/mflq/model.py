"""Model data for discounted mean-field LQ populations.

A population of ``N`` exchangeable agents with states in R^n and controls in
R^r follows

    dx_i = [A x_i + B u_i + G x^(N) + f(t)] dt + sigma(t) dW_i,

where ``x^(N)`` is the across-agent state average and each agent pays the
discounted tracking cost

    J_i = E int_0^T e^{-rho t} ( |x_i - Gamma x^(N) - eta|^2_Q + |u_i|^2_R ) dt.

This module holds the parameter container, the derived cost weights used by
the synthesis routines, validation, and an exact JSON round-trip.  It is also
the package's boundary: the checks every number read from a config passes,
and the one encoder every JSON report is written with.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ModelValidationError

__all__ = [
    "TimePath",
    "ModelParams",
    "DerivedWeights",
    "derived_weights",
    "control_gain_matrix",
    "validate",
    "params_to_dict",
    "params_from_dict",
]

#: either a constant n-vector or a time function t -> n-vector
VectorPath = Union[np.ndarray, Callable[[float], np.ndarray]]


def _interp(grid: np.ndarray, values: np.ndarray, t) -> np.ndarray:
    """Piecewise-linear interpolation of ``values`` (one row per grid point),
    exact at grid points and clamped to the end rows outside the grid.

    ``t`` is one time (a number) or an array of times, for which the result
    holds one row per time, each bitwise equal to the one-time result.  Times
    outside the grid get the end rows copied and never enter the arithmetic,
    so +-inf raises no warning."""
    if not isinstance(t, np.ndarray):
        if t <= grid[0]:
            return values[0]
        if t >= grid[-1]:
            return values[-1]
        k = int(np.searchsorted(grid, t) - 1)
        w = (t - grid[k]) / (grid[k + 1] - grid[k])
        return (1.0 - w) * values[k] + w * values[k + 1]
    out = np.empty(t.shape + values.shape[1:])
    lo, hi = t <= grid[0], t >= grid[-1]
    out[lo], out[hi] = values[0], values[-1]
    inside = ~(lo | hi)
    tk = t[inside]
    k = np.searchsorted(grid, tk) - 1
    w = ((tk - grid[k]) / (grid[k + 1] - grid[k])).reshape((-1,) + (1,) * (values.ndim - 1))
    out[inside] = (1.0 - w) * values[k] + w * values[k + 1]
    return out


class TimePath:
    """Piecewise-linear time path sampled on an explicit grid.

    Used when a forcing term is given as samples rather than a constant;
    evaluation outside the grid clamps to the end values.
    """

    def __init__(self, grid, values):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.ndim != 1 or self.values.shape[:1] != self.grid.shape:
            raise ModelValidationError("sampled path: values must have one row per grid point")
        # NaN fails every comparison, so the grid is tested for finiteness first
        if not (np.all(np.isfinite(self.grid)) and np.all(np.diff(self.grid) > 0)):
            raise ModelValidationError("sampled path: grid must be finite and strictly increasing")

    def __call__(self, t) -> np.ndarray:
        return _interp(self.grid, self.values, t)

    def to_dict(self) -> dict:
        return {"grid": self.grid.tolist(), "values": self.values.tolist()}


def _path_at(path: VectorPath, t) -> np.ndarray:
    """A path's n-vector at one time t, or at a 1-D array of times one row
    per time, each bitwise equal to the one-time value: a constant is
    broadcast, a ``TimePath`` is sampled in one ``_interp`` and any other
    function is called once per time."""
    if not callable(path):
        return np.broadcast_to(path, t.shape + path.shape) if isinstance(t, np.ndarray) else path
    if isinstance(t, np.ndarray) and not isinstance(path, TimePath):
        return np.array([path(s) for s in t.tolist()], dtype=float)
    return np.asarray(path(t), dtype=float)


# ---------------------------------------------------------------------------
# boundary: config numbers in, JSON reports out
# ---------------------------------------------------------------------------

def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _as_int(what: str, v, low: int):
    """``v`` as given when it is an integer >= ``low``; a bool, a float or a
    string is refused, whatever Python would read it as."""
    try:
        ok = not isinstance(v, bool) and operator.index(v) >= low
    except TypeError:
        ok = False
    if not ok:
        raise ModelValidationError(f"need an integer {what} >= {low}, got {v!r}")
    return v


def _as_real(what: str, v, positive: bool):
    """``v`` as given when it is a real, finite number (> 0 if ``positive``);
    a bool or a numeric string is refused."""
    if not (_is_real(v) and math.isfinite(v) and (v > 0 or not positive)):
        raise ModelValidationError(
            f"need a real, finite {what}{' > 0' if positive else ''}, got {v!r}")
    return v


def _as_matrix(name: str, value, shape=None) -> np.ndarray:
    """``value`` as a float array, reshaped to ``shape`` when the sizes agree;
    every entry must be a real number, so bools and strings are refused."""
    try:
        bad = [v for v in np.asarray(value, dtype=object).flat if not _is_real(v)]
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(f"{name}: {exc}") from None
    if bad:
        raise ModelValidationError(f"{name}: expected real numbers, got {bad[0]!r}")
    arr = np.array(value, dtype=float)
    if shape is not None and arr.shape != shape:
        if arr.size == int(np.prod(shape)):
            return arr.reshape(shape)
        raise ModelValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


def _known_keys(where: str, value, keys) -> dict:
    """``value`` as given when it is a JSON object whose every key is one of
    ``keys``; ``where`` names its section ("" for the top level), and an
    unknown key is named as ``where.key``."""
    if not isinstance(value, dict):
        raise ModelValidationError(f"the '{where}' section must be a JSON object" if where
                                   else "config must be a JSON object")
    for k in value:
        if k not in keys:
            name = f"{where}.{k}" if where else k
            raise ModelValidationError(f"unknown config key {name!r} (known: {', '.join(keys)})")
    return value


def _jsonify(obj):
    """``obj`` in plain JSON types: dataclasses become dicts of their fields
    in declaration order, arrays and tuples lists, numpy scalars numbers."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Immutable parameter block for one population model.

    Matrices are stored as float64 arrays; ``f`` and ``sigma`` may be constant
    vectors or callables ``t -> n-vector`` (one scalar Brownian motion per
    agent, so ``sigma`` is an n-vector, not a matrix).
    """

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Gamma: np.ndarray
    eta: np.ndarray
    rho: float
    f: VectorPath
    sigma: VectorPath
    x_bar0: np.ndarray
    init_cov: np.ndarray

    def __post_init__(self):
        for name, shape, rule in _schema():
            v = getattr(self, name)
            if not shape:
                object.__setattr__(self, name, float(v))
            elif not (rule == "path" and callable(v)):
                v = np.array(v, dtype=float)
                object.__setattr__(self, name, (np.atleast_1d, np.atleast_2d)[len(shape) - 1](v))

    # -- shape helpers -------------------------------------------------
    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.B.shape[1]

    def f_at(self, t) -> np.ndarray:
        return _path_at(self.f, t)

    def sigma_at(self, t) -> np.ndarray:
        return _path_at(self.sigma, t)

    @property
    def constant_forcing(self) -> bool:
        return not callable(self.f)

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)


#: every ModelParams field: its shape in the dimensions n and r ("nr" is an
#: n x r matrix, "n" an n-vector, "" a scalar) and its rule.  A "path" is an
#: n-vector or a function t -> n-vector; a weight is positive "semidefinite"
#: (the least eigenvalue of its symmetric part >= -tol) or "definite" (> tol),
#: tol = ``_tol(weight)``, which also bounds its asymmetry.
_SCHEMA = {
    "A": ("nn", None), "B": ("nr", None), "G": ("nn", None),
    "Q": ("nn", "semidefinite"), "R": ("rr", "definite"), "Gamma": ("nn", None),
    "eta": ("n", None), "rho": ("", None), "f": ("n", "path"), "sigma": ("n", "path"),
    "x_bar0": ("n", None), "init_cov": ("nn", "semidefinite"),
}


def _schema():
    """``(name, shape, rule)`` of each ModelParams field, in declaration order."""
    return [(f.name, *_SCHEMA[f.name]) for f in dataclasses.fields(ModelParams)]


def _tol(M: np.ndarray) -> float:
    """The one tolerance on a weight's asymmetry and eigenvalues,
    1e-10 (1 + max |entry|)."""
    return 1e-10 * (1.0 + float(np.max(np.abs(M))))


@dataclass(frozen=True, eq=False)
class DerivedWeights:
    """Cost weights induced by the tracking structure.

    Q_Gamma = Gamma^T Q + Q Gamma - Gamma^T Q Gamma
    eta_bar = (I - Gamma)^T Q eta
    Q_hat   = (I - Gamma)^T Q (I - Gamma)   (= Q - Q_Gamma)
    Q_IG    = Q (I - Gamma)
    """

    Q_Gamma: np.ndarray
    eta_bar: np.ndarray
    Q_hat: np.ndarray
    Q_IG: np.ndarray


def derived_weights(params: ModelParams) -> DerivedWeights:
    """Compute the derived weights for a validated model."""
    Q, Gamma, eta = params.Q, params.Gamma, params.eta
    I = np.eye(params.n)
    Q_Gamma = Gamma.T @ Q + Q @ Gamma - Gamma.T @ Q @ Gamma
    eta_bar = (I - Gamma).T @ Q @ eta
    Q_hat = (I - Gamma).T @ Q @ (I - Gamma)
    Q_IG = Q @ (I - Gamma)
    return DerivedWeights(Q_Gamma=Q_Gamma, eta_bar=eta_bar, Q_hat=Q_hat, Q_IG=Q_IG)


def control_gain_matrix(B: np.ndarray, R: np.ndarray) -> np.ndarray:
    """S = B R^{-1} B^T via a solve (no explicit inverse)."""
    return B @ np.linalg.solve(R, B.T)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _validation_issues(params: ModelParams) -> list[str]:
    """Collect all validation failures (empty list means the model is clean)."""
    issues: list[str] = []
    dims = {"n": params.n, "r": params.r}
    if min(dims.values()) < 1:   # an empty weight has no tolerance or eigenvalue
        return [f"n, r: need both >= 1, got n = {params.n}, r = {params.r}"]
    for name, shape, rule in _schema():
        v, want = getattr(params, name), tuple(dims[d] for d in shape)
        if not shape:
            if not np.isfinite(v) or v <= 0:
                issues.append(f"{name}: must be a positive discount rate, got {v}")
        elif rule != "path":
            if v.shape != want:
                issues.append(f"{name}: expected shape {want}, got {v.shape}")
        elif isinstance(v, TimePath):
            if v.values.shape[1:] != want:
                issues.append(f"{name}: sampled rows must be n-vectors, got values of shape "
                              f"{v.values.shape}")
        elif not callable(v) and v.shape != want:
            issues.append(f"{name}: constant value must be an n-vector, got shape {v.shape}")
    if issues:
        return issues  # shape errors make the numeric checks meaningless

    for name, shape, _ in _schema():
        v = getattr(params, name)
        if isinstance(v, TimePath):
            v = v.values
        elif callable(v) or not shape:
            continue   # a runtime function is only seen where it is evaluated
        if not np.all(np.isfinite(v)):
            issues.append(f"{name}: contains non-finite entries")
    if issues:
        return issues  # and so do non-finite entries

    for name, _, rule in _schema():
        if rule not in ("semidefinite", "definite"):
            continue
        M = getattr(params, name)
        tol, asym = _tol(M), float(np.max(np.abs(M - M.T)))
        least = float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T))))
        if asym > tol:
            issues.append(f"{name}: asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
        elif not (least > tol if rule == "definite" else least >= -tol):
            issues.append(f"{name}: not positive {rule}")
    if issues:
        return issues  # R must be definite before S is formed

    # finite entries can still overflow the weights every synthesis forms
    with np.errstate(over="ignore", invalid="ignore"):
        derived = {"S = B R^-1 B^T": control_gain_matrix(params.B, params.R),
                   **vars(derived_weights(params))}
    return [f"{name}: not finite (the model's entries overflow it)"
            for name, M in derived.items() if not np.all(np.isfinite(M))]


def validate(params: ModelParams) -> ModelParams:
    """Raise :class:`ModelValidationError` listing every violation; return the
    model unchanged when clean."""
    issues = _validation_issues(params)
    if issues:
        raise ModelValidationError("model validation failed:\n  " + "\n  ".join(issues))
    return params


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _path_to_jsonable(name: str, v):
    if isinstance(v, TimePath):
        return v.to_dict()
    if callable(v):
        raise ModelValidationError(f"{name}: arbitrary callables are runtime-only, not serializable")
    return np.atleast_1d(np.asarray(v, dtype=float)).tolist()


def _path_from_jsonable(name: str, v):
    if isinstance(v, dict):
        _known_keys(f"model.{name}", v, ("grid", "values"))
        return TimePath(_as_matrix(f"{name}.grid", v["grid"]),
                        _as_matrix(f"{name}.values", v["values"]))
    return _as_matrix(name, v)


def params_to_dict(params: ModelParams) -> dict:
    """Row-major nested lists with explicit dimensions."""
    out = {"n": params.n, "r": params.r}
    for name, shape, rule in _schema():
        v = getattr(params, name)
        out[name] = _path_to_jsonable(name, v) if rule == "path" else v.tolist() if shape else v
    return out


def params_from_dict(data: dict) -> ModelParams:
    _known_keys("model", data, ("n", "r", *_SCHEMA))
    try:
        if "n" in data and "r" in data:
            n, r = (_as_int(k, data[k], 1) for k in ("n", "r"))
        else:
            # infer the dimensions from B: (n, r) once coerced to a matrix; a
            # lone n or r must agree with them
            n, r = np.atleast_2d(_as_matrix("B", data["B"])).shape
            for k, implied in (("n", n), ("r", r)):
                if k in data and _as_int(k, data[k], 1) != implied:
                    raise ModelValidationError(
                        f"{k} = {data[k]!r} disagrees with B, whose shape is {(n, r)}")
        dims, fields = {"n": n, "r": r}, {}
        for name, shape, rule in _schema():
            if not shape:
                fields[name] = _as_real(name, data[name], False)
            elif rule == "path":
                fields[name] = _path_from_jsonable(name, data[name])
            else:   # a matrix takes its (n, r) shape; a vector's is left to validate
                fields[name] = _as_matrix(name, data[name], tuple(dims[d] for d in shape)
                                          if len(shape) == 2 else None)
        params = ModelParams(**fields)
    except KeyError as exc:
        raise ModelValidationError(f"missing model field: {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(f"malformed model field: {exc}") from exc
    return validate(params)
