"""Model data for discounted mean-field LQ populations.

A population of ``N`` exchangeable agents with states in R^n and controls in
R^r follows

    dx_i = [A x_i + B u_i + G x^(N) + f(t)] dt + sigma(t) dW_i,

where ``x^(N)`` is the across-agent state average and each agent pays the
discounted tracking cost

    J_i = E int_0^T e^{-rho t} ( |x_i - Gamma x^(N) - eta|^2_Q + |u_i|^2_R ) dt.

This module holds the parameter container, the derived cost weights used by
the synthesis routines, validation, and an exact JSON round-trip.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ModelValidationError

__all__ = [
    "TimePath",
    "ModelParams",
    "DerivedWeights",
    "derived_weights",
    "validation_issues",
    "validate",
    "params_to_dict",
    "params_from_dict",
    "params_to_json",
    "params_from_json",
]

#: either a constant n-vector or a time function t -> n-vector
VectorPath = Union[np.ndarray, Callable[[float], np.ndarray]]


def _interp(grid: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    """Piecewise-linear interpolation of ``values`` (one row per grid point),
    exact at grid points and clamped to the end rows outside the grid."""
    if t <= grid[0]:
        return values[0]
    if t >= grid[-1]:
        return values[-1]
    k = int(np.searchsorted(grid, t) - 1)
    w = (t - grid[k]) / (grid[k + 1] - grid[k])
    return (1.0 - w) * values[k] + w * values[k + 1]


class TimePath:
    """Piecewise-linear time path sampled on an explicit grid.

    Used when a forcing term is given as samples rather than a constant;
    evaluation outside the grid clamps to the end values.
    """

    def __init__(self, grid, values):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.ndim != 1 or self.values.shape[0] != self.grid.shape[0]:
            raise ModelValidationError("sampled path: values must have one row per grid point")
        if np.any(np.diff(self.grid) <= 0):
            raise ModelValidationError("sampled path: grid must be strictly increasing")

    def __call__(self, t: float) -> np.ndarray:
        return _interp(self.grid, self.values, t)

    def to_dict(self) -> dict:
        return {"grid": self.grid.tolist(), "values": self.values.tolist()}


def _as_matrix(name: str, value, shape=None) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if shape is not None and arr.shape != shape:
        if arr.size == int(np.prod(shape)):
            return arr.reshape(shape)
        raise ModelValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


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
        conv = lambda v: np.array(v, dtype=float)
        for name in ("A", "B", "G", "Q", "R", "Gamma"):
            object.__setattr__(self, name, np.atleast_2d(conv(getattr(self, name))))
        for name in ("eta", "x_bar0"):
            object.__setattr__(self, name, np.atleast_1d(conv(getattr(self, name))))
        object.__setattr__(self, "init_cov", np.atleast_2d(conv(self.init_cov)))
        object.__setattr__(self, "rho", float(self.rho))
        for name in ("f", "sigma"):
            v = getattr(self, name)
            if not callable(v):
                object.__setattr__(self, name, np.atleast_1d(conv(v)))

    # -- shape helpers -------------------------------------------------
    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.B.shape[1]

    def f_at(self, t: float) -> np.ndarray:
        return np.asarray(self.f(t), dtype=float) if callable(self.f) else self.f

    def sigma_at(self, t: float) -> np.ndarray:
        return np.asarray(self.sigma(t), dtype=float) if callable(self.sigma) else self.sigma

    @property
    def constant_forcing(self) -> bool:
        return not callable(self.f)

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)


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


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _sym_defect(M: np.ndarray) -> float:
    return float(np.max(np.abs(M - M.T))) if M.size else 0.0


def validation_issues(params: ModelParams) -> list[str]:
    """Collect all validation failures (empty list means the model is clean)."""
    issues: list[str] = []
    n, r = params.n, params.r
    shaped = [
        ("A", params.A, (n, n)),
        ("B", params.B, (n, r)),
        ("G", params.G, (n, n)),
        ("Q", params.Q, (n, n)),
        ("R", params.R, (r, r)),
        ("Gamma", params.Gamma, (n, n)),
        ("init_cov", params.init_cov, (n, n)),
    ]
    for name, M, shape in shaped:
        if M.shape != shape:
            issues.append(f"{name}: expected shape {shape}, got {M.shape}")
    for name, v in (("eta", params.eta), ("x_bar0", params.x_bar0)):
        if v.shape != (n,):
            issues.append(f"{name}: expected shape ({n},), got {v.shape}")
    if not np.isfinite(params.rho) or params.rho <= 0:
        issues.append(f"rho: must be a positive discount rate, got {params.rho}")
    for name in ("f", "sigma"):
        v = getattr(params, name)
        if not callable(v) and np.atleast_1d(v).shape != (n,):
            issues.append(f"{name}: constant value must be an n-vector, got shape {np.shape(v)}")

    if issues:
        return issues  # shape errors make the numeric checks meaningless

    sym_tol = 1e-10 * (1.0 + float(np.max(np.abs(params.Q))))
    if _sym_defect(params.Q) > sym_tol:
        issues.append(f"Q: asymmetry {_sym_defect(params.Q):.3e} exceeds tolerance {sym_tol:.3e}")
    else:
        if float(np.min(np.linalg.eigvalsh(0.5 * (params.Q + params.Q.T)))) < -sym_tol:
            issues.append("Q: not positive semidefinite")

    r_tol = 1e-10 * (1.0 + float(np.max(np.abs(params.R))))
    if _sym_defect(params.R) > r_tol:
        issues.append(f"R: asymmetry {_sym_defect(params.R):.3e} exceeds tolerance {r_tol:.3e}")
    else:
        if float(np.min(np.linalg.eigvalsh(0.5 * (params.R + params.R.T)))) <= r_tol:
            issues.append("R: not positive definite")

    c_tol = 1e-10 * (1.0 + float(np.max(np.abs(params.init_cov))))
    if _sym_defect(params.init_cov) > c_tol:
        issues.append("init_cov: not symmetric")
    elif float(np.min(np.linalg.eigvalsh(0.5 * (params.init_cov + params.init_cov.T)))) < -c_tol:
        issues.append("init_cov: not positive semidefinite")

    for name in ("A", "B", "G", "Gamma", "eta", "x_bar0"):
        if not np.all(np.isfinite(getattr(params, name))):
            issues.append(f"{name}: contains non-finite entries")
    return issues


def validate(params: ModelParams) -> ModelParams:
    """Raise :class:`ModelValidationError` listing every violation; return the
    model unchanged when clean."""
    issues = validation_issues(params)
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
        return TimePath(v["grid"], v["values"])
    return np.atleast_1d(np.asarray(v, dtype=float))


def params_to_dict(params: ModelParams) -> dict:
    """Row-major nested lists with explicit dimensions."""
    return {
        "n": params.n,
        "r": params.r,
        "A": params.A.tolist(),
        "B": params.B.tolist(),
        "G": params.G.tolist(),
        "Q": params.Q.tolist(),
        "R": params.R.tolist(),
        "Gamma": params.Gamma.tolist(),
        "eta": params.eta.tolist(),
        "rho": params.rho,
        "f": _path_to_jsonable("f", params.f),
        "sigma": _path_to_jsonable("sigma", params.sigma),
        "x_bar0": params.x_bar0.tolist(),
        "init_cov": params.init_cov.tolist(),
    }


def params_from_dict(data: dict) -> ModelParams:
    try:
        if "n" in data and "r" in data:
            n, r = int(data["n"]), int(data["r"])
        else:
            # infer the dimensions from B: (n, r) once coerced to a matrix
            B_probe = np.atleast_2d(np.asarray(data["B"], dtype=float))
            n, r = B_probe.shape
        params = ModelParams(
            A=_as_matrix("A", data["A"], (n, n)),
            B=_as_matrix("B", data["B"], (n, r)),
            G=_as_matrix("G", data["G"], (n, n)),
            Q=_as_matrix("Q", data["Q"], (n, n)),
            R=_as_matrix("R", data["R"], (r, r)),
            Gamma=_as_matrix("Gamma", data["Gamma"], (n, n)),
            eta=np.asarray(data["eta"], dtype=float),
            rho=float(data["rho"]),
            f=_path_from_jsonable("f", data["f"]),
            sigma=_path_from_jsonable("sigma", data["sigma"]),
            x_bar0=np.asarray(data["x_bar0"], dtype=float),
            init_cov=_as_matrix("init_cov", data["init_cov"], (n, n)),
        )
    except KeyError as exc:
        raise ModelValidationError(f"missing model field: {exc.args[0]}") from exc
    return validate(params)


def params_to_json(params: ModelParams, indent: int | None = 2) -> str:
    return json.dumps(params_to_dict(params), indent=indent)


def params_from_json(text: str) -> ModelParams:
    return params_from_dict(json.loads(text))
