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

from .errors import (
    ImaginaryAxisError,
    RiccatiBlowUpError,
    SingularSubspaceError,
)
from .model import DerivedWeights, ModelParams, _as_int, _as_real, control_gain_matrix

__all__ = [
    "HamiltonianMatrix",
    "AlgebraicRiccatiSolution",
    "FiniteHorizonCheck",
    "integrate_backward",
    "build_hamiltonian",
    "hamiltonian_from_blocks",
    "imaginary_axis_margin",
    "imaginary_axis_clear",
    "solve_are_stable_subspace",
    "solve_are_allow_degenerate",
    "riccati_residual",
    "finite_horizon_solvable",
]

_DEFAULT_STEPS = 2000
_BLOWUP_CAP = 1e12
_AXIS_RTOL = 1e-9        # eigenvalues within this multiple of ||M|| sit on the imaginary axis
_COND_CAP = 1e12         # cond(L1) past which the stable subspace is not of graph form
_GRAPH_RTOL = 1e-8       # graph-form tests' share of their terms' size (the solve's doc)
_SIGN_RTOL = 1e-8        # a sign step changing Z by at most this share of ||Z||_1 converged
_SIGN_STEPS = 100        # sign steps after which the iteration is refused
_MARGINAL_DET = 1e-10    # sweep minima below this in absolute value are flagged marginal
_SWEEP_WINDOW = 64       # solvability sweep steps per window of its fine pass

# ---------------------------------------------------------------------------
# fixed-step RK4 and the exact backward flow
# ---------------------------------------------------------------------------

def _rk4_step(slope, y, h):
    """One classical RK4 step of size ``h`` from ``y`` for y' = slope(y)."""
    k1 = slope(y)
    k2 = slope(y + 0.5 * h * k1)
    k3 = slope(y + 0.5 * h * k2)
    k4 = slope(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _escaped(what: str, t) -> RiccatiBlowUpError:
    """The error of a backward pass whose state left ``_BLOWUP_CAP`` at t."""
    return RiccatiBlowUpError(
        f"backward {what} integration escaped the cap {_BLOWUP_CAP:g} at t={t:.6g}",
        t_escape=float(t))


def integrate_backward(slope, terminal: np.ndarray, grid: np.ndarray,
                       what: str = "state") -> np.ndarray:
    """RK4 for the autonomous equation y' = slope(y) from ``grid[-1]`` down to
    ``grid[0]``; raises :class:`RiccatiBlowUpError` once the state leaves
    ``_BLOWUP_CAP`` or turns non-finite."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size,) + np.shape(terminal))
    y = out[-1] = np.array(terminal, dtype=float)
    for k in range(grid.size - 1, 0, -1):
        y = out[k - 1] = _rk4_step(slope, y, grid[k - 1] - grid[k])
        # NaN fails the comparison too, so one reduction catches NaN, +-inf and the cap
        if not np.abs(y).max() <= _BLOWUP_CAP:
            raise _escaped(what, grid[k - 1])
    return out


# the degree-13 Pade coefficients over the first, which is then exactly 1
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))


# an exponential that overflows is reported by its callers' finiteness checks
@np.errstate(over="ignore", invalid="ignore")
def _expm(M: np.ndarray) -> np.ndarray:
    """e^M for a matrix or a stack (..., m, m): the degree-13 Pade
    approximant of M / 2^j squared j times, j the least that brings the
    largest 1-norm below 5.37 (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)."""
    j = max(0, int(np.frexp(np.abs(M).sum(axis=-2).max(initial=0.0) / 5.371920351148152)[1]))
    A = np.ldexp(M, -j)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    b, I = _PADE13, np.eye(M.shape[-1])
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
             + b[1] * I)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    E = np.linalg.solve(V - U, V + U)
    for _ in range(j):
        E = E @ E
    return E


def _mobius(E: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(E21 + E22 X)(E11 + E12 X)^{-1} for a stack of flows E (..., 2n, 2n)
    and of roots X (..., n, n): the Riccati equation's exact step under the
    flow E of its Hamiltonian (Radon's lemma)."""
    n = X.shape[-1]
    num, den = E[..., n:, :n] + E[..., n:, n:] @ X, E[..., :n, :n] + E[..., :n, n:] @ X
    return np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2)).swapaxes(-1, -2)


# a root past the cap is reported by its cap check, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def _riccati_flow(E: np.ndarray, terminal: np.ndarray, grid: np.ndarray, what: str,
                  cap: float = _BLOWUP_CAP) -> np.ndarray:
    """The roots X_k = ``_mobius``(E, X_{k+1}) from ``terminal`` at ``grid[-1]``
    down to ``grid[0]``, E the backward flow of one step; raises
    :class:`RiccatiBlowUpError` once a root leaves ``cap``, turns non-finite
    or has a singular denominator.  Every step is the same map, so
    once a step returns an earlier root bit for bit the rest of the path
    repeats the cycle since it: a stack that settles on a fixed point or a
    last-bit cycle long before ``grid[0]`` costs the steps up to it."""
    out = np.empty((grid.size,) + terminal.shape)
    y = out[-1] = terminal
    seen = {}
    for k in range(grid.size - 1, 0, -1):
        seen[y.tobytes()] = k
        try:
            y = _mobius(E, y)
        except np.linalg.LinAlgError:
            raise _escaped(what, grid[k - 1]) from None
        if not np.abs(y).max() <= cap:
            raise _escaped(what, grid[k - 1])
        j = seen.get(y.tobytes())
        if j is not None:
            # y is the root at grid[j] again: the path repeats with period j - k + 1
            out[:k] = out[k + (np.arange(k) - k) % (j - k + 1)]
            break
        out[k - 1] = y
    return out


def default_grid(T: float, steps: int | None = None) -> np.ndarray:
    """The package's one time grid: ``steps`` equal steps on [0, T]
    (``_DEFAULT_STEPS`` when None); ``steps`` must be an integer >= 1."""
    steps = _DEFAULT_STEPS if steps is None else _as_int("steps", steps, 1)
    return np.linspace(0.0, float(T), steps + 1)


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
    cond_L1: float | None = None     # hypot(1, smax(X)) / hypot(1, smin(X))
    residual: float | None = None    # max-abs residual of the returned X


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

def _riccati_slope(rho, A1, A2, S, Qc, X):
    """dX/dt of  rho X = dX/dt + A1^T X + X A2 - X S X + Qc, for one X (n, n)
    or a stack of them (..., n, n), such as a path (K+1, n, n); A1, A2 and Qc
    may be stacks too, one equation per leading index."""
    return rho * X - np.swapaxes(A1, -1, -2) @ X - X @ A2 + X @ S @ X - Qc


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

# an iterate past the floats is refused by its finiteness check, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def _matrix_sign(M: np.ndarray) -> np.ndarray | None:
    """sign(M) by Newton's iteration with determinant scaling (Byers 1987),
    Z <- (cZ + (cZ)^{-1}) / 2 with c = |det Z|^{-1/m} read from ``slogdet``,
    which does not overflow where det does.  The iterate after the first
    step that changes Z by at most 1e-8 of its 1-norm is returned: the
    iteration converges quadratically, so its error is then at the rounding
    level.  None when an iterate is singular or not finite, or when
    ``_SIGN_STEPS`` steps do not converge."""
    Z, m = M, M.shape[0]
    for _ in range(_SIGN_STEPS):
        sign, logdet = np.linalg.slogdet(Z)
        if sign == 0 or not math.isfinite(logdet):
            return None
        cZ = np.exp(-logdet / m) * Z
        try:
            nxt = 0.5 * (cZ + np.linalg.inv(cZ))
        except np.linalg.LinAlgError:
            return None
        change, Z = np.abs(nxt - Z).sum(axis=0).max(), nxt
        if not np.isfinite(Z).all():
            return None
        if change <= _SIGN_RTOL * np.abs(Z).sum(axis=0).max():
            return Z
    return None


# a residual or size past the floats reads inf or NaN, not warnings
@np.errstate(over="ignore", invalid="ignore")
def _wide_residual(F, S, Qc, X):
    """(-R(X), the size of its terms) for R(X) = F^T X + X F - X S X + Qc:
    the residual, and max |F^T||X| + |X||F| + |X||S||X| + |Qc|, both in
    ``np.longdouble``.  Where that is wider than a double, the rounding of
    R's cancelling terms stays below X's last bit."""
    F, S, Qc, X = (a.astype(np.longdouble) for a in (F, S, Qc, X))
    a = np.abs
    return (_riccati_slope(0.0, F, F, S, Qc, X),
            np.max(a(F.T) @ a(X) + a(X) @ a(F) + a(X) @ a(S) @ a(X) + a(Qc)))


def _newton_polish(F, S, Qc, X, symmetric: bool):
    """X, symmetrized when ``symmetric``, or X + D after one Newton step on
    the residual R(X), whichever has the smaller max-abs residual
    (``_wide_residual``); returns it with that residual.  D solves
    (F^T - X S) D + D (F - S X) = -R(X) as one n^2 x n^2 Kronecker system
    (row-major vec)."""
    n = X.shape[0]
    fix = (lambda Y: 0.5 * (Y + Y.T)) if symmetric else (lambda Y: Y)
    X = fix(X)
    slope = _wide_residual(F, S, Qc, X)[0]
    I = np.eye(n)
    K = np.kron(F.T - X @ S, I) + np.kron(I, (F - S @ X).T)
    try:
        Y = fix(X + np.linalg.solve(K, slope.astype(float).ravel()).reshape(n, n))
    except np.linalg.LinAlgError:
        Y = X
    r, r_Y = (float(np.max(np.abs(_wide_residual(F, S, Qc, Z)[0]))) for Z in (X, Y))
    return (Y, r_Y) if r_Y < r else (X, r)


def solve_are_stable_subspace(ham: HamiltonianMatrix) -> AlgebraicRiccatiSolution:
    """Rho-stabilizing algebraic root from the matrix sign function of M.

    W = sign(M) (``_matrix_sign``) is -I on the stable invariant subspace and
    +I on the antistable one, so the stable dimension is (2n - tr W) / 2 and
    the stable subspace is the null space of W + I.  Its graph form
    [I; -X] gives the least-squares system [W12; W22 + I] X = [W11 + I; W21],
    whose root one Newton step on the Riccati residual then polishes
    (``_newton_polish``).  For the symmetric constructions (M1, M2) the
    result is symmetrized and the defect of the least-squares root recorded.
    Errors: eigenvalues within 1e-9 ||M|| of the imaginary axis
    (:class:`ImaginaryAxisError`); a sign iteration that does not converge,
    a stable dimension different from n, or a subspace not of graph form:
    a least-squares rank below n, a root X whose graph W + I does not
    annihilate to 1e-8 of ||W + I|| ||[I; -X]|| (max-abs norms) or whose
    Riccati residual passes 1e-8 of the size of its terms
    (``_wide_residual``), or cond(L1) = hypot(1, smax(X)) / hypot(1, smin(X))
    beyond 1e12, L1 the top block of an orthonormal basis of range [I; -X]
    (:class:`SingularSubspaceError`).
    """
    M = ham.M
    n = ham.n
    margin, scale = imaginary_axis_margin(ham)
    if margin <= _AXIS_RTOL * scale:
        raise ImaginaryAxisError(
            f"{ham.kind}: eigenvalue within {_AXIS_RTOL:g}*||M|| of the imaginary axis "
            f"(margin {margin:.3e}, scale {scale:.3e}); no stable/antistable splitting"
        )
    W = _matrix_sign(M)
    if W is None:
        raise SingularSubspaceError(
            f"{ham.kind}: the sign iteration met a singular iterate or did not converge in "
            f"{_SIGN_STEPS} steps; stable invariant subspace not computed"
        )
    sdim = round((2 * n - np.trace(W)) / 2)
    if sdim != n:
        raise SingularSubspaceError(
            f"{ham.kind}: stable invariant subspace has dimension {sdim}, expected {n}"
        )
    WI = W + np.eye(2 * n)
    X, _, rank, _ = np.linalg.lstsq(WI[:, n:], WI[:, :n], rcond=None)
    F, S, Qc, _ = ham.blocks()
    cond = math.inf
    if rank == n and np.isfinite(X).all():
        graph = np.vstack([np.eye(n), -X])
        slope, size = _wide_residual(F, S, Qc, X)
        # the graph must lie in the stable subspace (a root of the equation
        # whose graph is another invariant subspace fails this), and X must
        # solve the equation (a huge X whose graph only leans towards a
        # subspace that is not a graph, the noise of a zero W12 over a zero
        # W22 + I, fails this), each to the rounding of its terms
        if (np.max(np.abs(WI @ graph)) <= _GRAPH_RTOL * np.max(np.abs(WI)) * np.max(np.abs(graph))
                and np.max(np.abs(slope)) <= _GRAPH_RTOL * size):
            sv = np.linalg.svd(X, compute_uv=False)
            cond = math.hypot(1.0, sv[0]) / math.hypot(1.0, sv[-1])
    if cond > _COND_CAP:
        raise SingularSubspaceError(
            f"{ham.kind}: L1 singular (condition number exceeds {_COND_CAP:g}); "
            "stable subspace is not of graph form"
        )
    symmetric = ham.kind in ("M1", "M2", "custom")
    defect = float(np.max(np.abs(X - X.T))) if symmetric else None
    X, residual = _newton_polish(F, S, Qc, X, symmetric)
    closed_loop = F - S @ X
    spectrum = np.linalg.eigvals(closed_loop)
    return AlgebraicRiccatiSolution(
        X=X,
        closed_loop=closed_loop,
        rho_stabilizing=bool(np.max(spectrum.real) < 0.0),
        spectrum=spectrum,
        symmetry_defect=defect,
        cond_L1=cond,
        residual=residual,
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
    return float(np.max(np.abs(_riccati_slope(0.0, F, F, S, Qc, X))))


# ---------------------------------------------------------------------------
# finite-horizon solvability sweep
# ---------------------------------------------------------------------------

# an escaping sweep is reported by its finiteness checks, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def finite_horizon_solvable(ham: HamiltonianMatrix, T: float,
                            resolution: float = 1e-3) -> FiniteHorizonCheck:
    """Determinant sweep det V(t), [U; V](t) = e^{script_A t} [0; I], over [0, T].

    Positive everywhere means the backward game Riccati equation stays finite
    on [0, T]; a minimum below 1e-10 (or below the floats) is flagged
    marginal.  T and ``resolution`` must be real, finite and positive.  A
    step spans at most ||script_A||_1 h = 4, so that its denominator keeps
    its digits: a coarser ``resolution`` is refined.  At most 200,000 steps
    are taken, so a long horizon is swept at a coarser step.  The step taken
    is reported.  No determinant is formed: a step of E =
    e^{script_A h} maps Y = U V^{-1} to (E11 Y + E12)(E21 Y + E22)^{-1}
    (``_mobius`` on the block-swapped E) and multiplies det V by det(E21 Y +
    E22), whose signs and log-magnitudes are kept.  Window starts are stepped
    by the window's map through ``_riccati_flow``, which stops once they
    settle or cycle, and each distinct start through its window as one stack.
    A non-finite Y before any sign change raises :class:`RiccatiBlowUpError`.
    """
    if ham.kind != "script_A":
        raise ValueError("finite_horizon_solvable expects the script_A construction")
    _as_real("T", T, True)
    _as_real("resolution", resolution, True)
    norm = np.abs(ham.M).sum(axis=0).max()
    ts = default_grid(T, int(min(max(np.ceil(T / resolution), np.ceil(norm * T / 4.0), 10),
                                 200_000)))
    n, h = ham.n, ts[1] - ts[0]
    # a window spans at most ||script_A||_1 t = 4, so its map keeps its digits
    W = int(max(1, min(_SWEEP_WINDOW, 4.0 / max(norm * h, 4.0 / _SWEEP_WINDOW))))
    E, EW = (np.roll(_expm(ham.M * dt), n, (0, 1)) for dt in (h, h * W))
    coarse = lambda starts: _riccati_flow(EW, np.zeros((n, n)), starts[::-1],
                                          "solvability sweep", math.inf)[::-1]
    starts, escaped = ts[:-1:W], []
    try:
        Y = coarse(starts)
    except RiccatiBlowUpError as exc:
        Y, escaped = coarse(starts[starts < exc.t_escape]), [math.nan]
    _, first, inverse = np.unique(Y.reshape(len(Y), -1), axis=0, return_index=True,
                                  return_inverse=True)
    m = first.max() + 1
    Y, sign, log = Y[:m], np.ones((m, W)), np.zeros((m, W))
    for i in range(W):
        # on the transpose ``_mobius`` solves with: an exact zero pivot reads sign 0
        sign[:len(Y), i], log[:len(Y), i] = np.linalg.slogdet((E[:n, :n] + E[:n, n:] @ Y).mT)
        # det V vanishing or changing sign in a window ends the sweep there
        Y = _mobius(E, Y[:int((sign[:len(Y), i] > 0).cumprod().sum())])
    # the step from ts[k], and a NaN step where a window start escaped
    sign, log = (np.append(a[first[inverse]].ravel()[:ts.size - 1], escaped) for a in (sign, log))
    logdet = np.cumsum(np.concatenate(([0.0], log)))
    bad = ~((sign > 0) & (log < math.inf))
    k = int(bad.argmax())
    if bad[k] and not sign[k] <= 0:
        raise RiccatiBlowUpError(
            f"solvability sweep escaped at time-to-go t={ts[k]:.6g} before any sign change; "
            "solvability on [0, T] cannot be certified", t_escape=float(ts[k]))
    # det V vanishes or changes sign at ts[k + 1], and later times do not matter
    k, factor = (k + 1, sign[k]) if bad[k] else (int(logdet.argmin()), 1.0)
    d = float(factor * np.exp(logdet[k]))
    return FiniteHorizonCheck(solvable=not bad.any(), min_det=d, t_min=float(ts[k]),
                              marginal=bool(abs(d) < _MARGINAL_DET), resolution=float(h))
