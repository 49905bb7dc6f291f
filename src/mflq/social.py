"""Cooperative (team-optimal) synthesis for the mean-field LQ population.

Finite horizon: the individual Riccati equation, the population-average
equation, and the offset are integrated backward jointly, then the mean-field
path runs forward on the same grid.  Infinite horizon: stable-subspace
algebraic roots, closed-form offset for constant forcing, truncated mean-field
path with its steady state.

The decentralized control reads

    u_i(t) = -R^{-1} B^T [ P(t) x_i + K(t) x_bar(t) + s(t) ],   K = Pi - P,

and the centralized benchmark replaces x_bar by the realized average x^(N).
"""

from __future__ import annotations

import functools
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .errors import MeanFieldInfeasibleError, ModelValidationError
from .model import ModelParams, _as_real, _interp, derived_weights, validate
from .riccati import (
    _offset_slope,
    _riccati_slope,
    _rk4_step,
    build_hamiltonian,
    control_gain_matrix,
    default_grid,
    hermite_midpoints,
    integrate_backward,
    solve_are_allow_degenerate,
)

__all__ = [
    "SocialGains",
    "synth_social_finite",
    "synth_social_infinite",
    "adjoint_coefficients",
    "social_law",
    "centralized_law",
    "settle_mean_field",
    "default_infinite_horizon",
]


@dataclass(frozen=True, eq=False)
class _Gains:
    """Gains of the feedback -R^{-1} B^T (P x + K x_bar + offset).

    Paths are time-indexed on ``grid`` for the finite horizon and constant
    matrices for the infinite horizon (where a time-varying forcing still
    gives an offset path).  Subclasses keep the paper's names: ``_ROOT`` is
    the mean-field Riccati root, ``_OFFSET`` the offset, and ``_ARRAYS`` the
    stored gains in ``to_dict`` order.
    """

    horizon: str                    # "finite" | "infinite"
    grid: np.ndarray
    P: np.ndarray                   # (n,n) or (K+1,n,n)
    x_bar: np.ndarray               # (K+1,n)
    params: ModelParams
    _: KW_ONLY
    x_bar_tail: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def _path_at(self, values: np.ndarray, t) -> np.ndarray:
        end = self.grid[-1] if self.horizon == "finite" else np.inf
        # the times off the grid; a NaN is never on it
        off = (t[~((self.grid[0] <= t) & (t <= end))] if isinstance(t, np.ndarray)
               else () if self.grid[0] <= t <= end else (t,))
        if len(off):
            t = off[0]
            raise ModelValidationError(f"{self.horizon}-horizon gains start at t={self.grid[0]:g} "
                                       f"and end at t={end:g}; cannot evaluate them at t={t:g}")
        return _interp(self.grid, values, t)

    def _sample(self, values: np.ndarray, t, ndim: int) -> np.ndarray:
        """``values`` itself when constant (``ndim`` axes), else its path at
        t; at an array of times, one row per time."""
        if values.ndim > ndim:
            return self._path_at(values, t)
        if isinstance(t, np.ndarray):
            return np.broadcast_to(values, t.shape + values.shape)
        return values

    def P_at(self, t) -> np.ndarray:
        return self._sample(self.P, t, 2)

    def x_bar_at(self, t) -> np.ndarray:
        """The mean-field path at t, or one row per time of an array; from
        the end of the grid on, infinite-horizon gains give their tail."""
        if self.x_bar_tail is None:
            return self._path_at(self.x_bar, t)
        if not isinstance(t, np.ndarray):
            return self.x_bar_tail if t >= self.grid[-1] else self._path_at(self.x_bar, t)
        x = self._path_at(self.x_bar, t)
        x[t >= self.grid[-1]] = self.x_bar_tail
        return x

    def to_dict(self) -> dict:
        d = {"horizon": self.horizon, "grid": self.grid.tolist()}
        d.update((name, getattr(self, name).tolist()) for name in self._ARRAYS)
        d["x_bar"] = self.x_bar.tolist()
        d["meta"] = {k: v for k, v in self.meta.items() if not isinstance(v, np.ndarray)}
        if self.x_bar_tail is not None:
            d["x_bar_tail"] = self.x_bar_tail.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict, params: ModelParams) -> "_Gains":
        """Inverse of ``to_dict`` for the model the gains were synthesized
        for; JSON floats round-trip exactly, so every array comes back
        bitwise equal, in its stored shape."""
        arr = lambda v: np.array(v, dtype=float)
        tail = d.get("x_bar_tail")
        return cls(horizon=d["horizon"], grid=arr(d["grid"]), x_bar=arr(d["x_bar"]),
                   params=params, x_bar_tail=None if tail is None else arr(tail),
                   meta=dict(d["meta"]), **{name: arr(d[name]) for name in cls._ARRAYS})


@dataclass(frozen=True, eq=False)
class SocialGains(_Gains):
    """Synthesized cooperative gains, K = Pi - P."""

    Pi: np.ndarray
    K: np.ndarray
    s: np.ndarray                   # (n,) or (K+1,n)

    _ROOT, _OFFSET, _ARRAYS = "Pi", "s", ("P", "Pi", "K", "s")

    def Pi_at(self, t) -> np.ndarray:
        return self._sample(self.Pi, t, 2)

    def K_at(self, t) -> np.ndarray:
        return self._sample(self.K, t, 2)

    def s_at(self, t) -> np.ndarray:
        return self._sample(self.s, t, 1)


# ---------------------------------------------------------------------------
# shared forward mean-field machinery
# ---------------------------------------------------------------------------

def _forward_affine(grid, A_of, c_of, x0):
    """RK4 for x' = A(t) x + c(t); A_of(k) and c_of(k) sample A and c at the
    start, midpoint and end of step k (stage fractions 0, 0.5, 1)."""
    out = np.empty((grid.size, x0.size))
    x = np.array(x0, dtype=float)
    out[0] = x
    for k in range(grid.size - 1):
        A, c = A_of(k), c_of(k)
        x = _rk4_step(lambda f, y: A[int(2 * f)] @ y + c[int(2 * f)], x, grid[k + 1] - grid[k])
        out[k + 1] = x
    return out


def _mean_path(params: ModelParams, grid: np.ndarray, S: np.ndarray, A_of,
               s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """RK4 for the mean-field path x' = A(t) x - S s(t) + f(t) from x_bar0.

    ``A_of(k)`` samples the drift at the start, midpoint and end of step k;
    the offset samples ``s`` (one row per grid time) are taken at the
    midpoints by cubic Hermite interpolation of their exact slopes ``ds``.
    """
    c = np.array([params.f_at(t) for t in grid]) - (S @ s[..., None])[..., 0]
    c_mid = (np.array([params.f_at(t) for t in 0.5 * (grid[:-1] + grid[1:])])
             - (S @ hermite_midpoints(grid, s, ds)[..., None])[..., 0])
    return _forward_affine(grid, A_of, lambda k: (c[k], c_mid[k], c[k + 1]), params.x_bar0)


def settle_mean_field(Acl: np.ndarray, c: np.ndarray, x0: np.ndarray, rho: float,
                      what: str = "mean-field path") -> np.ndarray | None:
    """Steady state of x' = Acl x + c, with discounted-growth feasibility.

    Modes of ``Acl`` with real part at or above rho/2 do not decay in the
    discounted norm; when the initial state (relative to the steady state)
    excites one, no admissible path exists and the error names the required
    initial state.  Returns the steady state, or None when ``Acl`` is
    singular and every mode decays.
    """
    lam, V = np.linalg.eig(Acl)
    scale = 1.0 + float(np.max(np.abs(lam.real)))
    unstable = lam.real >= 0.5 * rho - 1e-9 * scale
    x_part = None
    try:
        x_part = np.linalg.solve(Acl, -c)
    except np.linalg.LinAlgError:
        pass
    if np.any(unstable):
        if x_part is None:
            raise MeanFieldInfeasibleError(
                f"{what}: non-decaying closed-loop mode with no steady state; "
                "no admissible discounted path")
        coeff = np.linalg.solve(V, (x0 - x_part).astype(complex))
        tol_c = 1e-8 * (1.0 + float(np.linalg.norm(x0)) + float(np.linalg.norm(x_part)))
        if np.any(np.abs(coeff[unstable]) > tol_c):
            raise MeanFieldInfeasibleError(
                f"{what}: infeasible unless the initial mean equals "
                f"{np.array2string(x_part, precision=10)} "
                "(a non-decaying closed-loop mode is excited)",
                required_x0=x_part,
            )
    return x_part


_TAIL_TOL = 1e-8   # discounted tail weight past the infinite-horizon truncation


def default_infinite_horizon(rho: float) -> float:
    """Truncation horizon with discounted tail weight below 1e-8, clipped to
    [20, 200]."""
    return float(np.clip(np.log(1.0 / _TAIL_TOL) / rho, 20.0, 200.0))


def _synth_finite(params: ModelParams, T: float, steps: int | None, A1: np.ndarray,
                  W: np.ndarray, e: np.ndarray, symmetric: bool, what: str):
    """Backward pass on [0, T] with zero terminal data for

        rho P = P' + A^T P + P A - P S P + Q
        rho X = X' + A1^T X + X (A + G) - X S X + W
        rho s = s' + (A1 - S X^T)^T s + X f - e

    (the offset's closed loop is A1 - S X^T: with p = X x_bar + s, the
    averaged adjoint p' = rho p - A1^T p - W x_bar + e gives
    s' = rho s - (A1^T - X S) s - X f + e), then the mean-field path
    x' = (A + G - S X) x - S s + f forward on the same
    RK4 grid, with midpoint samples of X and s from cubic Hermite
    interpolation of their exact slopes.  X is symmetrized when ``symmetric``.
    T must be real, finite and positive.  Returns (grid, P, X, s, x_bar) paths.
    """
    _as_real("T", T, True)
    A, Q, rho = params.A, params.Q, params.rho
    n, nn = params.n, params.n * params.n
    S = control_gain_matrix(params.B, params.R)
    AG = A + params.G
    grid = default_grid(T, steps)

    # P's and X's equations as one (2, n, n) stack
    A1s, A2s, Qcs = np.stack((A, A1)), np.stack((A, AG)), np.stack((Q, W))

    def offset_slope(X, s, f):   # at one grid time, or along the whole path
        return _offset_slope(rho, A1 - S @ np.swapaxes(X, -1, -2), s,
                             (X @ f[..., None])[..., 0] - e)

    def rhs(t, y):
        PX, s = y[:2 * nn].reshape(2, n, n), y[2 * nn:]
        return np.concatenate((_riccati_slope(rho, A1s, A2s, S, Qcs, PX),
                               offset_slope(PX[1], s, params.f_at(t))), axis=None)

    ys = integrate_backward(rhs, np.zeros(2 * nn + n), grid, what=what)
    P_path = ys[:, :nn].reshape(-1, n, n)
    X_path = ys[:, nn: 2 * nn].reshape(-1, n, n)
    s_path = ys[:, 2 * nn:]
    P_path = 0.5 * (P_path + np.transpose(P_path, (0, 2, 1)))
    if symmetric:
        X_path = 0.5 * (X_path + np.transpose(X_path, (0, 2, 1)))

    dX_path = _riccati_slope(rho, A1, AG, S, W, X_path)
    ds_path = offset_slope(X_path, s_path, np.array([params.f_at(t) for t in grid]))
    X_mid = hermite_midpoints(grid, X_path, dX_path)
    # the mean path's drift at every grid time and midpoint, built once
    Acl, Acl_mid = AG - S @ X_path, AG - S @ X_mid

    def A_of(k):
        return Acl[k], Acl_mid[k], Acl[k + 1]

    return grid, P_path, X_path, s_path, _mean_path(params, grid, S, A_of, s_path, ds_path)


def _synth_infinite(params: ModelParams, A1: np.ndarray, root_kind: str, e: np.ndarray,
                    what: str):
    """Stable-subspace roots of

        rho P = A^T P + P A - P S P + Q
        rho X = A1^T X + X (A + G) - X S X + W

    (X from the ``root_kind`` Hamiltonian, whose lower-left block is the
    weight W; the game's M3 takes G = 0), then the offset of
    rho s = s' + (A1 - S X^T)^T s + X f - e, and the mean-field path
    x' = Acl x - S s + f it drives, Acl = A1 - S X, on the grid that ends at
    ``default_infinite_horizon(rho)``.

    Constant forcing solves (rho I - (A1 - S X^T)^T) s = X f - e exactly and feeds
    ``_mean_path`` a constant path with zero slope; time-varying forcing
    integrates s backward from that quasi-static value at the horizon and
    feeds its exact slopes.  A root whose weight vanishes may be the
    degenerate X = 0.  Returns
    (grid, P, X, s, x_bar, x_bar_tail, P_rho_stabilizing, X_rho_stabilizing).
    """
    rho, n = params.rho, params.n
    w = derived_weights(params)
    S = control_gain_matrix(params.B, params.R)
    P, P_stab = solve_are_allow_degenerate(build_hamiltonian(params, w, "M1"))
    X, X_stab = solve_are_allow_degenerate(build_hamiltonian(params, w, root_kind))
    grid = default_grid(default_infinite_horizon(rho))
    Acl, Acl_s = A1 - S @ X, A1 - S @ X.T   # the mean path's and the offset's closed loops

    f_end = params.f_at(0.0 if params.constant_forcing else float(grid[-1]))
    try:
        s = np.linalg.solve(rho * np.eye(n) - Acl_s.T, X @ f_end - e)
    except np.linalg.LinAlgError as exc:
        raise MeanFieldInfeasibleError(
            "offset equation singular: a closed-loop mode sits exactly at the discount rate"
        ) from exc
    if params.constant_forcing:
        tail = settle_mean_field(Acl, -S @ s + f_end, params.x_bar0, rho, what=what)
        s_path, ds_path = np.broadcast_to(s, (grid.size, n)), np.zeros((grid.size, n))
    else:
        forcing = lambda t: X @ params.f_at(t) - e
        s = s_path = integrate_backward(lambda t, y: _offset_slope(rho, Acl_s, y, forcing(t)),
                                        s, grid, what="offset")
        ds_path = _offset_slope(rho, Acl_s, s, np.array([forcing(t) for t in grid]))
        tail = None
    path = _mean_path(params, grid, S, lambda k: (Acl, Acl, Acl), s_path, ds_path)
    return grid, P, X, s, path, path[-1] if tail is None else tail, P_stab, X_stab


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def synth_social_finite(params: ModelParams, T: float, steps: int | None = None) -> SocialGains:
    """Backward pass for (P, Pi, s) on [0, T] with zero terminal data, then the
    forward mean-field path; all on one RK4 grid."""
    validate(params)
    w = derived_weights(params)
    grid, P, Pi, s, x_bar = _synth_finite(params, T, steps, params.A + params.G, w.Q_hat,
                                          w.eta_bar, symmetric=True, what="cooperative Riccati")
    return SocialGains(
        horizon="finite", grid=grid, P=P, Pi=Pi, K=Pi - P, s=s,
        x_bar=x_bar, params=params, meta={"T": float(T)},
    )


def synth_social_infinite(params: ModelParams) -> SocialGains:
    """Algebraic gains plus the truncated mean-field path.

    For constant forcing the offset solves (rho I - Acl^T) s = Pi f - eta_bar
    exactly; a time-varying forcing falls back to backward integration from a
    quasi-static terminal value.
    """
    validate(params)
    w = derived_weights(params)
    grid, P, Pi, s, x_bar, x_tail, P_stab, Pi_stab = _synth_infinite(
        params, params.A + params.G, "M2", w.eta_bar, "cooperative mean-field path")
    horizon = float(grid[-1])
    return SocialGains(
        horizon="infinite", grid=grid, P=P, Pi=Pi, K=Pi - P, s=s, x_bar=x_bar,
        params=params, x_bar_tail=x_tail,
        meta={
            "T_max": horizon, "tail_tol": _TAIL_TOL,
            "P_rho_stabilizing": P_stab, "Pi_rho_stabilizing": Pi_stab,
            "tail_weight": float(np.exp(-params.rho * horizon)),
        },
    )


# ---------------------------------------------------------------------------
# control evaluation
# ---------------------------------------------------------------------------

def _r_inv_bt(params: ModelParams) -> np.ndarray:
    return np.linalg.solve(params.R, params.B.T)


def _coupled_offset(K: np.ndarray, x_bar: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """K x_bar + offset, for one average (n,) or a block of them (M, 1, n)."""
    return (K @ x_bar[..., None])[..., 0] + offset


def _dot(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X @ M for a 2-D M and X (..., n), as one 2-D BLAS call on the (-1, n)
    view of X: numpy's stacked matmul loops over the leading axes, one small
    product per row block.  With n = 1 the result is ``X @ M`` bit for bit;
    with n >= 2 BLAS may round a row's sum differently with the row count."""
    return np.dot(X.reshape(-1, X.shape[-1]), M).reshape(*X.shape[:-1], M.shape[-1])


def _average(X: np.ndarray) -> np.ndarray:
    """Population average of X (..., N, n) over its agent axis, as
    (..., 1, n): X.mean's own arithmetic, X.sum / N, reduced on the
    (-1, N, n) view so that every lead shape sums in one order."""
    *lead, N, n = X.shape
    return (X.reshape(-1, N, n).sum(axis=1, keepdims=True) / N).reshape(*lead, 1, n)


def _rows(gains: _Gains, t, centralized: bool = False, dP: np.ndarray | None = None,
          dc: np.ndarray | None = None):
    """The row (P, K, o) at t of the feedback -R^{-1} B^T (P x + K x_bar^N + o)
    for ``gains``, or at an array of times a table with one row per time:
    P (T, [E,] n, n), K (T, n, n) or None, and o (T, [E, 1,] n), each row
    bitwise equal to the one-time row.  The mean-field path is the average
    unless ``centralized``: K is None and K x_bar(t) is folded into o; the
    centralized row keeps K to multiply each step's realized average.  A
    deviation adds ``dP`` (n, n) to P and ``dc`` (n,) to o, only when given
    (adding 0.0 turns -0.0 into +0.0); stacked (E, n, n) and (E, 1, n)
    deviations give a row for an (E, M, n) block.
    """
    P, K, o = gains.P_at(t), gains.K_at(t), gains._sample(getattr(gains, gains._OFFSET), t, 1)
    if not centralized:
        K, o = None, _coupled_offset(K, gains.x_bar_at(t), o)
    table = isinstance(t, np.ndarray)
    lead = (slice(None),) * t.ndim if table else ()   # a deviation acts on each row
    if dP is not None:
        P = P[lead + (None,) * (dP.ndim - 2)] + dP
    if dc is not None:
        o = o[lead + (None,) * (dc.ndim - 1)] + dc
    if table:   # each row one C-ordered matrix, whatever the gains' layout
        P, K, o = (None if a is None else np.ascontiguousarray(a) for a in (P, K, o))
    return P, K, o


def _affine(RB: np.ndarray, P: np.ndarray, K: np.ndarray | None, o: np.ndarray, X):
    """-R^{-1} B^T (P X + K x + o) for one row (P, K, o) and a state (n,) or
    a batch (..., m, n), with x the batch's realized average (a lone state is
    its own); a row whose K is None has K x_bar folded into o already.  A
    stack of gains P (E, n, n) acts on a block (E, m, n), one gain per row
    block.  Given RB = R^{-1} B^T, every law's controls come from this one
    kernel; each product with a 2-D matrix is one ``_dot``."""
    X = np.asarray(X, dtype=float)
    if K is not None:
        o = _coupled_offset(K, X if X.ndim == 1 else _average(X), o)
    PX = _dot(X, P.T) if P.ndim == 2 else X @ np.swapaxes(P, -1, -2)
    return _dot(-(PX + o), RB.T)


def _law(gains: _Gains, centralized: bool = False):
    """Simulation callable (t, X) -> ``_affine`` of ``_rows(gains, t,
    centralized)``, kept per distinct t; it carries the gains' ``x_bar_at``."""
    RB, row = _r_inv_bt(gains.params), functools.cache(lambda t: _rows(gains, t, centralized))

    def law(t, X):
        return _affine(RB, *row(t), X)

    law.x_bar_at = gains.x_bar_at
    return law


def adjoint_coefficients(gains: SocialGains, N: int, t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion loadings of the population adjoint processes.

    beta_self = P sigma + K sigma / N (own noise), beta_cross = K sigma / N
    (every other agent's noise); requires a constant sigma.
    """
    if callable(gains.params.sigma):
        raise ValueError("adjoint coefficients are reported for constant sigma only")
    sig = gains.params.sigma_at(t)
    cross = (gains.K_at(t) @ sig) / float(N)
    return gains.P_at(t) @ sig + cross, cross


# social_law, centralized_law and game.game_law stay three distinct functions: the
# benchmark tracer wraps each under its own span and copies its law's ``x_bar_at``.

def social_law(gains: SocialGains):
    """Simulation callable (t, X) -> U for the decentralized control."""
    return _law(gains)


def centralized_law(gains: SocialGains):
    """Simulation callable using the realized average (exact optimum)."""
    return _law(gains, centralized=True)
