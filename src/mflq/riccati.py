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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, schur

from .errors import (
    ImaginaryAxisError,
    RiccatiBlowUpError,
    SingularSubspaceError,
)
from .model import DerivedWeights, ModelParams, _as_real

__all__ = [
    "DEFAULT_STEPS",
    "BLOWUP_CAP",
    "HamiltonianMatrix",
    "AlgebraicRiccatiSolution",
    "FiniteHorizonCheck",
    "integrate_backward",
    "hermite_midpoints",
    "control_gain_matrix",
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
_AXIS_RTOL = 1e-9        # eigenvalues within this multiple of ||M|| sit on the imaginary axis
_COND_CAP = 1e12         # cond(L1) past which the stable subspace is not of graph form
_MARGINAL_DET = 1e-10    # sweep minima below this in absolute value are flagged marginal
_REFRESH_EVERY = 256     # sweep steps between exact restarts of the transition matrix

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
                       what: str = "state") -> np.ndarray:
    """RK4 from ``grid[-1]`` down to ``grid[0]``; raises
    :class:`RiccatiBlowUpError` once the state leaves ``BLOWUP_CAP`` or turns
    non-finite."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size,) + np.shape(terminal))
    y = np.array(terminal, dtype=float)
    out[-1] = y
    for k in range(grid.size - 1, 0, -1):
        t, h = grid[k], grid[k - 1] - grid[k]
        y = _rk4_step(lambda c, y: rhs(t + c * h, y), y, h)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > BLOWUP_CAP:
            raise RiccatiBlowUpError(
                f"backward {what} integration escaped the cap {BLOWUP_CAP:g} "
                f"at t={grid[k - 1]:.6g}",
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
class AlgebraicRiccatiSolution:
    X: np.ndarray
    closed_loop: np.ndarray      # F - S X, already rho/2-shifted
    rho_stabilizing: bool
    spectrum: np.ndarray         # eigenvalues of closed_loop
    symmetry_defect: float | None = None


@dataclass(frozen=True)
class FiniteHorizonCheck:
    solvable: bool
    min_det: float
    t_min: float
    marginal: bool
    resolution: float    # sweep step actually used; coarser than asked past 200,000 steps

    def __bool__(self) -> bool:
        return self.solvable


# ---------------------------------------------------------------------------
# differential equations
# ---------------------------------------------------------------------------

def control_gain_matrix(B: np.ndarray, R: np.ndarray) -> np.ndarray:
    """S = B R^{-1} B^T via a solve (no explicit inverse)."""
    return B @ np.linalg.solve(R, B.T)


def _riccati_slope(rho, A1, A2, S, Qc, X):
    """dX/dt of  rho X = dX/dt + A1^T X + X A2 - X S X + Qc, for one X (n, n)
    or a stack of them (..., n, n), such as a path (K+1, n, n); A1, A2 and Qc
    may be stacks too, one equation per leading index."""
    return rho * X - np.swapaxes(A1, -1, -2) @ X - X @ A2 + X @ S @ X - Qc


def _offset_slope(rho, Acl, s, forcing):
    """ds/dt of  rho s = ds/dt + Acl^T s + forcing, for one s (n,) or a path
    of them (K+1, n) with one Acl (K+1, n, n) per row."""
    return rho * s - (Acl.swapaxes(-1, -2) @ s[..., None])[..., 0] - forcing


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


def imaginary_axis_clear(ham: HamiltonianMatrix) -> bool:
    """True when no eigenvalue sits within 1e-9 ||M|| of the imaginary axis,
    the ARE solver's own axis test."""
    margin, scale = imaginary_axis_margin(ham)
    return margin > _AXIS_RTOL * scale


# ---------------------------------------------------------------------------
# stable-subspace algebraic solution
# ---------------------------------------------------------------------------

def solve_are_stable_subspace(ham: HamiltonianMatrix) -> AlgebraicRiccatiSolution:
    """Rho-stabilizing algebraic root from the ordered real Schur form.

    Orders the stable spectrum first, takes the leading invariant subspace
    [L1; L2], and returns X = -L2 L1^{-1}.  For the symmetric constructions
    (M1, M2) the result is symmetrized and the defect recorded.  Errors:
    eigenvalues within 1e-9 ||M|| of the imaginary axis, a stable dimension
    different from n, or cond(L1) beyond 1e12 (no graph-form subspace).
    """
    M = ham.M
    n = ham.n
    margin, scale = imaginary_axis_margin(ham)
    if margin <= _AXIS_RTOL * scale:
        raise ImaginaryAxisError(
            f"{ham.kind}: eigenvalue within {_AXIS_RTOL:g}*||M|| of the imaginary axis "
            f"(margin {margin:.3e}, scale {scale:.3e}); no stable/antistable splitting"
        )
    _, Z, sdim = schur(M, output="real", sort="lhp")
    if sdim != n:
        raise SingularSubspaceError(
            f"{ham.kind}: stable invariant subspace has dimension {sdim}, expected {n}"
        )
    L = Z[:, :n]
    L1, L2 = L[:n, :], L[n:, :]
    if np.linalg.cond(L1) > _COND_CAP:
        raise SingularSubspaceError(
            f"{ham.kind}: L1 singular (condition number exceeds {_COND_CAP:g}); "
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
    return AlgebraicRiccatiSolution(
        X=X,
        closed_loop=closed_loop,
        rho_stabilizing=bool(np.max(spectrum.real) < 0.0),
        spectrum=spectrum,
        symmetry_defect=defect,
    )


def solve_are_allow_degenerate(ham: HamiltonianMatrix):
    """Stable-subspace solve with one escape hatch: when the constant weight
    (the lower-left block of ``ham``) vanishes, X = 0 is an exact algebraic
    root even if the spectrum touches the imaginary axis (degenerate case;
    reported as not rho-stabilizing).

    Returns (X, rho_stabilizing).
    """
    try:
        sol = solve_are_stable_subspace(ham)
        return sol.X, sol.rho_stabilizing
    except ImaginaryAxisError:
        Qc = ham.blocks()[2]
        if float(np.max(np.abs(Qc))) <= 1e-12:
            return np.zeros_like(Qc), False
        raise


def riccati_residual(ham: HamiltonianMatrix, X: np.ndarray) -> float:
    """Max-abs residual of  F^T X + X F - X S X + Qc  for the given root."""
    F, S, Qc, _ = ham.blocks()
    return float(np.max(np.abs(F.T @ X + X @ F - X @ S @ X + Qc)))


# ---------------------------------------------------------------------------
# finite-horizon solvability sweep
# ---------------------------------------------------------------------------

# an overflowing sweep is reported by its non-finite determinant check, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def finite_horizon_solvable(ham: HamiltonianMatrix, T: float,
                            resolution: float = 1e-3) -> FiniteHorizonCheck:
    """Determinant sweep det{ (0 I) e^{script_A t} (0 I)^T } over [0, T].

    Positive everywhere means the backward game Riccati equation stays finite
    on [0, T]; the transition matrix is advanced by repeated multiplication
    with periodic exact refreshes to limit roundoff drift.  A minimum below
    1e-10 in absolute value is flagged marginal.  T must be real, finite and
    positive.  At most 200,000 steps are taken, so long horizons are swept at
    a coarser step than ``resolution``; the step used is reported.

    Every ``_REFRESH_EVERY`` steps the transition matrix restarts from an exact
    e^{script_A t}, so the windows between refreshes are independent and are
    advanced together as one stack.
    """
    if ham.kind != "script_A":
        raise ValueError("finite_horizon_solvable expects the script_A construction")
    _as_real("T", T, True)
    A = ham.M
    n = ham.n
    steps = max(int(np.ceil(T / resolution)), 10)
    steps = min(steps, 200_000)
    ts = np.linspace(0.0, float(T), steps + 1)
    h = ts[1] - ts[0]
    E = expm(A * h)
    starts = ts[::_REFRESH_EVERY]
    Phi = np.stack([np.eye(2 * n)] + [expm(A * t) for t in starts[1:]])
    dets = np.empty((starts.size, min(_REFRESH_EVERY, ts.size)))
    for j in range(dets.shape[1]):
        if j > 0:
            Phi = E @ Phi
        dets[:, j] = np.linalg.det(Phi[:, n:, n:])
    dets = dets.ravel()[:ts.size]
    escaped = ~((0.0 < dets) & (dets < math.inf))
    if escaped.any():
        k = int(np.argmax(escaped))
        d, t = float(dets[k]), float(ts[k])
        if d <= 0.0:
            # the equation already escaped; later times do not matter
            return FiniteHorizonCheck(solvable=False, min_det=d, t_min=t,
                                      marginal=bool(abs(d) < _MARGINAL_DET), resolution=float(h))
        raise RiccatiBlowUpError(
            f"determinant sweep overflowed at time-to-go t={t:.6g} (det = {d}); "
            "solvability on [0, T] cannot be certified",
            t_escape=t)
    k = int(np.argmin(dets))
    min_det = float(dets[k])
    return FiniteHorizonCheck(solvable=True, min_det=min_det, t_min=float(ts[k]),
                              marginal=bool(abs(min_det) < _MARGINAL_DET), resolution=float(h))
