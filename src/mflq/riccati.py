"""Riccati machinery: backward differential equations, Hamiltonian matrices,
stable-subspace algebraic solutions, and the finite-horizon solvability sweep.

All algebraic Riccati equations here are discounted, in the generic form

    rho X = A1^T X + X A2 - X S X + Qc ,          S = B R^{-1} B^T,

whose rho/2-shifted Hamiltonian is

    M = [[F, S], [Qc, -F^T]],     F = A - (rho/2) I   (A = A1 = A2 case).

The stable invariant subspace [L1; L2] of M yields X = -L2 L1^{-1}, and
F - S X = L1 H11 L1^{-1} is the shifted closed loop, Hurwitz exactly when X is
the rho-stabilizing root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg import expm, schur

from .errors import (
    ImaginaryAxisError,
    RiccatiBlowUpError,
    SingularSubspaceError,
)
from .model import DerivedWeights, ModelParams, _interp

__all__ = [
    "DEFAULT_STEPS",
    "BLOWUP_CAP",
    "DifferentialRiccatiPath",
    "HamiltonianMatrix",
    "SchurFactors",
    "AlgebraicRiccatiSolution",
    "FiniteHorizonCheck",
    "integrate_backward",
    "hermite_midpoints",
    "control_gain_matrix",
    "solve_dre_backward",
    "solve_linear_backward",
    "build_hamiltonian",
    "hamiltonian_from_blocks",
    "imaginary_axis_margin",
    "imaginary_axis_clear",
    "solve_are_stable_subspace",
    "solve_are_allow_degenerate",
    "riccati_residual",
    "finite_horizon_solvable",
]

DEFAULT_STEPS = 2000
BLOWUP_CAP = 1e12

MatrixOrFunc = Union[np.ndarray, Callable[[float], np.ndarray]]


# ---------------------------------------------------------------------------
# fixed-step RK4 on arbitrary ndarray state
# ---------------------------------------------------------------------------

def _rk4_step(slope, y, h):
    """One classical RK4 step of size ``h``; ``slope(c, y)`` is the derivative
    at the fraction c in (0, 0.5, 1) of the step."""
    k1 = slope(0.0, y)
    k2 = slope(0.5, y + 0.5 * h * k1)
    k3 = slope(0.5, y + 0.5 * h * k2)
    k4 = slope(1.0, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_backward(rhs, terminal: np.ndarray, grid: np.ndarray,
                       cap: float | None = None, what: str = "state") -> np.ndarray:
    """RK4 from ``grid[-1]`` down to ``grid[0]``; raises on blow-up when a cap
    is given."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size,) + np.shape(terminal))
    y = np.array(terminal, dtype=float)
    out[-1] = y
    for k in range(grid.size - 1, 0, -1):
        t, h = grid[k], grid[k - 1] - grid[k]
        y = _rk4_step(lambda c, y: rhs(t + c * h, y), y, h)
        if cap is not None and (not np.all(np.isfinite(y)) or np.max(np.abs(y)) > cap):
            raise RiccatiBlowUpError(
                f"backward {what} integration escaped the cap {cap:g} at t={grid[k - 1]:.6g}",
                t_escape=float(grid[k - 1]),
            )
        out[k - 1] = y
    return out


def hermite_midpoints(grid: np.ndarray, values: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """Cubic-Hermite interval midpoints from grid values and exact derivatives.

    For each interval [t_k, t_{k+1}], returns
    (y_k + y_{k+1})/2 + h (dy_k - dy_{k+1})/8, which is O(h^4)-accurate and so
    preserves RK4 order when the midpoint samples feed a forward pass.
    """
    h = np.diff(grid).reshape((-1,) + (1,) * (values.ndim - 1))
    return 0.5 * (values[:-1] + values[1:]) + (h / 8.0) * (derivs[:-1] - derivs[1:])


def default_grid(T: float, steps: int | None = None) -> np.ndarray:
    return np.linspace(0.0, float(T), (steps or DEFAULT_STEPS) + 1)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DifferentialRiccatiPath:
    """Backward Riccati solution sampled on an ascending grid."""

    grid: np.ndarray       # (K+1,)
    values: np.ndarray     # (K+1, n, n)
    terminal: np.ndarray   # (n, n)

    @property
    def initial(self) -> np.ndarray:
        return self.values[0]

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation (exact at grid points)."""
        return _interp(self.grid, self.values, t)


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """2n x 2n matrix together with which construction produced it."""

    M: np.ndarray
    kind: str  # "M1" | "M2" | "M3" | "script_A" | "custom"

    @property
    def n(self) -> int:
        return self.M.shape[0] // 2

    def blocks(self):
        n = self.n
        return self.M[:n, :n], self.M[:n, n:], self.M[n:, :n], self.M[n:, n:]


@dataclass(frozen=True, eq=False)
class SchurFactors:
    """Ordered real Schur data of the stable invariant subspace."""

    L1: np.ndarray
    L2: np.ndarray
    H11: np.ndarray


@dataclass(frozen=True, eq=False)
class AlgebraicRiccatiSolution:
    X: np.ndarray
    closed_loop: np.ndarray      # F - S X, already rho/2-shifted
    rho_stabilizing: bool
    spectrum: np.ndarray         # eigenvalues of closed_loop
    schur: SchurFactors
    symmetry_defect: float | None = None


@dataclass(frozen=True)
class FiniteHorizonCheck:
    solvable: bool
    min_det: float
    t_min: float
    marginal: bool

    def __bool__(self) -> bool:
        return self.solvable


# ---------------------------------------------------------------------------
# differential equations
# ---------------------------------------------------------------------------

def control_gain_matrix(B: np.ndarray, R: np.ndarray) -> np.ndarray:
    """S = B R^{-1} B^T via a solve (no explicit inverse)."""
    return B @ np.linalg.solve(R, B.T)


def solve_dre_backward(A1: np.ndarray, A2: np.ndarray, S: np.ndarray, Qc: np.ndarray,
                       rho: float, terminal: np.ndarray, grid: np.ndarray,
                       cap: float = BLOWUP_CAP) -> DifferentialRiccatiPath:
    """Integrate  rho X = dX/dt + A1^T X + X A2 - X S X + Qc  backward.

    Terminal condition at ``grid[-1]``; fixed-step RK4; escape beyond ``cap``
    raises :class:`RiccatiBlowUpError` carrying the escape time.
    """
    A1, A2 = np.asarray(A1, dtype=float), np.asarray(A2, dtype=float)
    S, Qc = np.asarray(S, dtype=float), np.asarray(Qc, dtype=float)

    def rhs(t, X):
        return rho * X - A1.T @ X - X @ A2 + X @ S @ X - Qc

    values = integrate_backward(rhs, np.asarray(terminal, dtype=float), grid,
                                cap=cap, what="Riccati")
    return DifferentialRiccatiPath(grid=np.asarray(grid, dtype=float), values=values,
                                   terminal=np.asarray(terminal, dtype=float))


def solve_linear_backward(Acl: MatrixOrFunc, rho: float, forcing, terminal: np.ndarray,
                          grid: np.ndarray, cap: float = BLOWUP_CAP) -> np.ndarray:
    """Integrate  rho s = ds/dt + Acl(t)^T s + forcing(t)  backward on the grid.

    ``Acl`` may be a constant matrix or a callable (e.g. built from a Riccati
    path); ``forcing`` likewise.  Returns the (K+1, n) sample array.
    """
    A_of = Acl if callable(Acl) else (lambda _t, _A=np.asarray(Acl, dtype=float): _A)
    f_of = forcing if callable(forcing) else (lambda _t, _v=np.asarray(forcing, dtype=float): _v)

    def rhs(t, s):
        return rho * s - np.asarray(A_of(t), dtype=float).T @ s - np.asarray(f_of(t), dtype=float)

    return integrate_backward(rhs, np.asarray(terminal, dtype=float), grid,
                              cap=cap, what="offset")


# ---------------------------------------------------------------------------
# Hamiltonian matrices
# ---------------------------------------------------------------------------

def hamiltonian_from_blocks(F: np.ndarray, S: np.ndarray, Qc: np.ndarray,
                            kind: str = "custom") -> HamiltonianMatrix:
    """Assemble [[F, S], [Qc, -F^T]]."""
    M = np.block([[F, S], [Qc, -F.T]])
    return HamiltonianMatrix(M=M, kind=kind)


def build_hamiltonian(params: ModelParams, weights: DerivedWeights, kind: str) -> HamiltonianMatrix:
    """The four constructions used by synthesis and the solvability tests.

    M1: individual equation (F = A - (rho/2) I, weight Q)
    M2: population-average equation (F = A + G - (rho/2) I, weight Q_hat)
    M3: game consistency equation (F = A - (rho/2) I, weight Q (I - Gamma));
        generally non-Hamiltonian because the weight is nonsymmetric
    script_A: finite-horizon two-point boundary coefficient matrix
        [[A + G, -S], [Q Gamma - Q, -(A - rho I)^T]]  (product Q Gamma)
    """
    A, G, Q, rho = params.A, params.G, params.Q, params.rho
    n = params.n
    S = control_gain_matrix(params.B, params.R)
    shift = 0.5 * rho * np.eye(n)
    if kind == "M1":
        return hamiltonian_from_blocks(A - shift, S, Q, "M1")
    if kind == "M2":
        return hamiltonian_from_blocks(A + G - shift, S, weights.Q_hat, "M2")
    if kind == "M3":
        return hamiltonian_from_blocks(A - shift, S, weights.Q_IG, "M3")
    if kind == "script_A":
        M = np.block([[A + G, -S], [-weights.Q_IG, -(A - rho * np.eye(n)).T]])
        return HamiltonianMatrix(M=M, kind="script_A")
    raise ValueError(f"unknown Hamiltonian kind: {kind!r}")


def imaginary_axis_margin(ham: HamiltonianMatrix) -> tuple[float, float]:
    """(min |Re lambda|, tolerance scale ||M||_2) for the axis test."""
    eigs = np.linalg.eigvals(ham.M)
    return float(np.min(np.abs(eigs.real))), float(np.linalg.norm(ham.M, 2))


def imaginary_axis_clear(ham: HamiltonianMatrix, rtol: float = 1e-9) -> bool:
    """True when no eigenvalue sits within rtol * ||M|| of the imaginary axis."""
    margin, scale = imaginary_axis_margin(ham)
    return margin > rtol * scale


# ---------------------------------------------------------------------------
# stable-subspace algebraic solution
# ---------------------------------------------------------------------------

def solve_are_stable_subspace(ham: HamiltonianMatrix, rtol: float = 1e-9,
                              cond_cap: float = 1e12) -> AlgebraicRiccatiSolution:
    """Rho-stabilizing algebraic root from the ordered real Schur form.

    Orders the stable spectrum first, takes the leading invariant subspace
    [L1; L2], and returns X = -L2 L1^{-1}.  For the symmetric constructions
    (M1, M2) the result is symmetrized and the defect recorded.  Errors:
    eigenvalues within rtol * ||M|| of the imaginary axis, a stable dimension
    different from n, or cond(L1) beyond ``cond_cap`` (no graph-form subspace).
    """
    M = ham.M
    n = ham.n
    margin, scale = imaginary_axis_margin(ham)
    if margin <= rtol * scale:
        raise ImaginaryAxisError(
            f"{ham.kind}: eigenvalue within {rtol:g}*||M|| of the imaginary axis "
            f"(margin {margin:.3e}, scale {scale:.3e}); no stable/antistable splitting"
        )
    _, Z, sdim = schur(M, output="real", sort="lhp")
    if sdim != n:
        raise SingularSubspaceError(
            f"{ham.kind}: stable invariant subspace has dimension {sdim}, expected {n}"
        )
    L = Z[:, :n]
    L1, L2 = L[:n, :], L[n:, :]
    if np.linalg.cond(L1) > cond_cap:
        raise SingularSubspaceError(
            f"{ham.kind}: L1 singular (condition number exceeds {cond_cap:g}); "
            "stable subspace is not of graph form"
        )
    X = -np.linalg.solve(L1.T, L2.T).T
    defect = None
    if ham.kind in ("M1", "M2", "custom"):
        defect = float(np.max(np.abs(X - X.T)))
        X = 0.5 * (X + X.T)
    F, S, _, _ = ham.blocks()
    closed_loop = F - S @ X
    spectrum = np.linalg.eigvals(closed_loop)
    # H11 in the basis of L1: similar to the closed loop by construction
    H11 = np.linalg.solve(L1, (M @ L)[:n, :])
    factors = SchurFactors(L1=L1, L2=L2, H11=H11)
    return AlgebraicRiccatiSolution(
        X=X,
        closed_loop=closed_loop,
        rho_stabilizing=bool(np.max(spectrum.real) < 0.0),
        spectrum=spectrum,
        schur=factors,
        symmetry_defect=defect,
    )


def solve_are_allow_degenerate(ham: HamiltonianMatrix, Qc: np.ndarray):
    """Stable-subspace solve with one escape hatch: when the constant weight
    vanishes, X = 0 is an exact algebraic root even if the spectrum touches the
    imaginary axis (degenerate case; reported as not rho-stabilizing).

    Returns (X, rho_stabilizing, solution-or-None).
    """
    try:
        sol = solve_are_stable_subspace(ham)
        return sol.X, sol.rho_stabilizing, sol
    except ImaginaryAxisError:
        if float(np.max(np.abs(Qc))) <= 1e-12:
            return np.zeros_like(np.asarray(Qc, dtype=float)), False, None
        raise


def riccati_residual(ham: HamiltonianMatrix, X: np.ndarray) -> float:
    """Max-abs residual of  F^T X + X F - X S X + Qc  for the given root."""
    F, S, Qc, _ = ham.blocks()
    return float(np.max(np.abs(F.T @ X + X @ F - X @ S @ X + Qc)))


# ---------------------------------------------------------------------------
# finite-horizon solvability sweep
# ---------------------------------------------------------------------------

def finite_horizon_solvable(ham: HamiltonianMatrix, T: float, resolution: float = 1e-3,
                            marginal_tol: float = 1e-10,
                            refresh_every: int = 256) -> FiniteHorizonCheck:
    """Determinant sweep det{ (0 I) e^{script_A t} (0 I)^T } over [0, T].

    Positive everywhere means the backward game Riccati equation stays finite
    on [0, T]; the transition matrix is advanced by repeated multiplication
    with periodic exact refreshes to limit roundoff drift.  A minimum below
    ``marginal_tol`` in absolute value is flagged marginal.
    """
    if ham.kind != "script_A":
        raise ValueError("finite_horizon_solvable expects the script_A construction")
    A = ham.M
    n = ham.n
    steps = max(int(np.ceil(T / resolution)), 10)
    steps = min(steps, 200_000)
    ts = np.linspace(0.0, float(T), steps + 1)
    h = ts[1] - ts[0]
    E = expm(A * h)
    Phi = np.eye(2 * n)
    min_det, t_min = np.inf, 0.0
    for k, t in enumerate(ts):
        if k > 0:
            if k % refresh_every == 0:
                Phi = expm(A * t)
            else:
                Phi = E @ Phi
        d = float(np.linalg.det(Phi[n:, n:]))
        if d < min_det:
            min_det, t_min = d, float(t)
        if d <= 0.0:
            # keep scanning is pointless; the equation already escaped
            return FiniteHorizonCheck(solvable=False, min_det=d, t_min=float(t),
                                      marginal=bool(abs(d) < marginal_tol))
    return FiniteHorizonCheck(solvable=True, min_det=min_det, t_min=t_min,
                              marginal=bool(abs(min_det) < marginal_tol))
