"""Cooperative (team-optimal) synthesis for the mean-field LQ population.

Finite horizon: the individual Riccati equation and the population-average
equation are integrated backward as one stack, the offset is stepped backward
on that pass's path, then the mean-field path runs forward on the same grid.  Infinite horizon: stable-subspace
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

from .errors import MeanFieldInfeasibleError, ModelValidationError, RiccatiBlowUpError
from .model import ModelParams, _as_real, _interp, control_gain_matrix, derived_weights, validate
from .riccati import (
    _BLOWUP_CAP,
    _backward_stage_times,
    _escaped,
    _offset_slope,
    _riccati_slope,
    _rk4_slopes,
    _rk4_step,
    build_hamiltonian,
    default_grid,
    hermite_midpoints,
    integrate_backward,
    solve_are_allow_degenerate,
)

__all__ = [
    "SocialGains",
    "synth_social_finite",
    "synth_social_infinite",
    "social_law",
    "centralized_law",
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

    def _sample(self, values: np.ndarray, t, ndim: int) -> np.ndarray:
        """``values`` at t, or one row per time of an array of times: its
        path interpolated when it has more than ``ndim`` axes, else itself.
        Either way t must lie on the grid, which infinite-horizon gains extend
        to +inf; a NaN is never on it."""
        end = self.grid[-1] if self.horizon == "finite" else np.inf
        table = isinstance(t, np.ndarray)
        off = (t[~((self.grid[0] <= t) & (t <= end))] if table
               else () if self.grid[0] <= t <= end else (t,))
        if len(off):
            raise ModelValidationError(f"{self.horizon}-horizon gains start at t={self.grid[0]:g} "
                                       f"and end at t={end:g}; cannot evaluate them at "
                                       f"t={off[0]:g}")
        if values.ndim > ndim:
            return _interp(self.grid, values, t)
        return np.broadcast_to(values, t.shape + values.shape) if table else values

    def P_at(self, t) -> np.ndarray:
        return self._sample(self.P, t, 2)

    def x_bar_at(self, t) -> np.ndarray:
        """The mean-field path at t, or one row per time of an array; from
        the end of the grid on, infinite-horizon gains give their tail."""
        x = self._sample(self.x_bar, t, 1)
        if self.x_bar_tail is None:
            return x
        if not isinstance(t, np.ndarray):
            return self.x_bar_tail if t >= self.grid[-1] else x
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
# shared affine paths: the forward mean-field path and the backward offset
# ---------------------------------------------------------------------------

_MAP_CHUNK = 4096   # grid steps whose RK4 maps an affine path builds at once


def _affine_path(y0: np.ndarray, h: np.ndarray, generators) -> np.ndarray:
    """RK4 for an affine equation y' = M(t) y + c(t) from ``y0``, one step of
    size h[j] after another: the path (K+1, m) in the order it is stepped.

    One RK4 step is an affine map y -> Phi_j y + psi_j: ``_rk4_step``
    applied to the identity under the generator [[M, c], [0, 0]] of [y; 1]
    gives [[Phi_j, psi_j], [0, 1]].  ``generators(a, b)`` gives, for steps a
    to b - 1, the generators at the four RK4 stages, each (b - a, m+1, m+1);
    the maps of ``_MAP_CHUNK`` steps are built at once, then the path runs
    y_{j+1} = Phi_j y_j + psi_j.
    """
    K, m = h.size, y0.size
    out = np.empty((K + 1, m))
    y = out[0] = y0
    for a in range(0, K, _MAP_CHUNK):
        b = min(a + _MAP_CHUNK, K)
        M = generators(a, b)
        maps = _rk4_step(lambda i, Y: M[i] @ Y, np.broadcast_to(np.eye(m + 1), M[0].shape),
                         h[a:b, None, None])
        for k, Phi, psi in zip(range(a + 1, b + 1), maps[:, :m, :m], maps[:, :m, m]):
            y = out[k] = Phi @ y + psi
    return out


# an overflowing path is reported by its finiteness check, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def _mean_path(params: ModelParams, grid: np.ndarray, S: np.ndarray, Acl: np.ndarray,
               Acl_mid: np.ndarray, s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """RK4 for the mean-field path x' = Acl(t) x - S s(t) + f(t) from x_bar0.

    ``Acl`` and ``Acl_mid`` are the drift at the grid times and at the step
    midpoints, and ``s`` and ``ds`` the offset and its exact slopes at the
    grid times: each a table with one row per time, or one constant that
    broadcasts to it.  The offset's midpoint samples come from cubic Hermite
    interpolation of its slopes.

    The equation is affine, so ``_affine_path`` steps it under the generators
    [[Acl, c], [0, 0]] (c = f - S s) at each step's left end, midpoint
    (its two middle stages) and right end.  The path has no cap, but one
    that leaves the finite numbers raises :class:`RiccatiBlowUpError` naming
    the first such time.
    """
    K, n = grid.size - 1, params.n
    Acl, Acl_mid = np.broadcast_to(Acl, (K + 1, n, n)), np.broadcast_to(Acl_mid, (K, n, n))
    s, ds = np.broadcast_to(s, (K + 1, n)), np.broadcast_to(ds, (K + 1, n))
    c = params.f_at(grid) - (S @ s[..., None])[..., 0]
    c_mid = (params.f_at(0.5 * (grid[:-1] + grid[1:]))
             - (S @ hermite_midpoints(grid, s, ds)[..., None])[..., 0])

    def generators(a, b):
        M = np.zeros((3, b - a, n + 1, n + 1))
        M[:, :, :n, :n] = Acl[a:b], Acl_mid[a:b], Acl[a + 1:b + 1]
        M[:, :, :n, n] = c[a:b], c_mid[a:b], c[a + 1:b + 1]
        return M[0], M[1], M[1], M[2]

    out = _affine_path(params.x_bar0, np.diff(grid), generators)
    escaped = ~np.isfinite(out).all(axis=1)
    if escaped.any():
        t = float(grid[np.argmax(escaped)])
        raise RiccatiBlowUpError(f"forward mean-field path is not finite at t={t:.6g}",
                                 t_escape=t)
    return out


# an offset past the cap is reported by its cap check, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def _offset_path(params: ModelParams, grid: np.ndarray, S: np.ndarray, A1: np.ndarray,
                 e: np.ndarray, X: np.ndarray, dX=None, s_end=0.0,
                 what: str = "offset") -> np.ndarray:
    """RK4 for the offset of  rho s = s' + (A1 - S X^T)^T s + X f - e  from
    s = ``s_end`` at ``grid[-1]`` down to ``grid[0]``: the path (K+1, n).

    X is the root: one matrix, or the backward pass's own path (K+1, n, n)
    with its slope ``dX``, from which X's four RK4 stage states are
    recomputed a chunk of steps at a time.  The equation is affine given X,
    so ``_affine_path`` steps it under the generators
    [[rho I - (A1 - S X^T)^T, -(X f - e)], [0, 0]] at those stages, f
    sampled once at every ``_backward_stage_times``.  Raises
    :class:`RiccatiBlowUpError` at the first time, from ``grid[-1]`` down, at
    which s leaves ``_BLOWUP_CAP`` or turns non-finite.
    """
    K, n = grid.size - 1, params.n
    h = np.diff(grid[::-1])
    f = params.f_at(_backward_stage_times(grid)).reshape(3, K, n)
    f = f[0], f[1], f[1], f[2]
    rho_I = params.rho * np.eye(n)

    def stages(a, b):   # X at the four stages of steps a to b - 1
        if dX is None:
            return (X,) * 4
        Xs = []

        def stage(i, Y):   # records each stage's state
            Xs.append(Y)
            return dX(Y)

        _rk4_slopes(stage, X[::-1][a:b], h[a:b, None, None])
        return Xs

    def generators(a, b):
        M = np.zeros((4, b - a, n + 1, n + 1))
        for i, Xi in enumerate(stages(a, b)):
            M[i, :, :n, :n] = rho_I - np.swapaxes(A1 - S @ np.swapaxes(Xi, -1, -2), -1, -2)
            M[i, :, :n, n] = e - (Xi @ f[i][a:b, :, None])[..., 0]
        return M

    s = _affine_path(np.broadcast_to(s_end, (n,)), h, generators)[::-1]
    escaped = ~(np.abs(s[:-1]).max(axis=1) <= _BLOWUP_CAP)
    if escaped.any():
        raise _escaped(what, grid[np.flatnonzero(escaped)[-1]])
    return s


def _settle_mean_field(Acl: np.ndarray, c: np.ndarray, x0: np.ndarray, rho: float,
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


def _default_infinite_horizon(rho: float) -> float:
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
    interpolation of their exact slopes.  The Riccati equations have constant
    coefficients, so ``integrate_backward`` steps them alone as one
    autonomous stack; the offset, affine given X, gets its step maps from
    ``_offset_path`` on X's raw path.  X is symmetrized when ``symmetric``.
    T must be real, finite and positive.  Returns (grid, P, X, s, x_bar) paths.
    """
    _as_real("T", T, True)
    A, Q, rho, n = params.A, params.Q, params.rho, params.n
    S = control_gain_matrix(params.B, params.R)
    AG = A + params.G
    grid = default_grid(T, steps)

    # P's and X's equations as one (2, n, n) stack, then the offset on X's raw path
    A1s, A2s, Qcs = np.stack((A, A1)), np.stack((A, AG)), np.stack((Q, W))
    PX = integrate_backward(lambda y: _riccati_slope(rho, A1s, A2s, S, Qcs, y),
                            np.zeros((2, n, n)), grid, what=what)
    dX = functools.partial(_riccati_slope, rho, A1, AG, S, W)
    s_path = _offset_path(params, grid, S, A1, e, PX[:, 1], dX, what=what)
    P_path = 0.5 * (PX[:, 0] + np.transpose(PX[:, 0], (0, 2, 1)))
    X_path = PX[:, 1]
    if symmetric:
        X_path = 0.5 * (X_path + np.transpose(X_path, (0, 2, 1)))

    ds_path = _offset_slope(rho, A1 - S @ np.swapaxes(X_path, -1, -2), s_path,
                            (X_path @ params.f_at(grid)[..., None])[..., 0] - e)
    X_mid = hermite_midpoints(grid, X_path, dX(X_path))
    # the mean path's drift at every grid time and midpoint, built once
    x_bar = _mean_path(params, grid, S, AG - S @ X_path, AG - S @ X_mid, s_path, ds_path)
    return grid, P_path, X_path, s_path, x_bar


def _synth_infinite(params: ModelParams, A1: np.ndarray, root_kind: str, e: np.ndarray,
                    what: str):
    """Stable-subspace roots of

        rho P = A^T P + P A - P S P + Q
        rho X = A1^T X + X (A + G) - X S X + W

    (X from the ``root_kind`` Hamiltonian, whose lower-left block is the
    weight W; the game's M3 takes G = 0), then the offset of
    rho s = s' + (A1 - S X^T)^T s + X f - e, and the mean-field path
    x' = Acl x - S s + f it drives, Acl = A1 - S X, on the grid that ends at
    ``_default_infinite_horizon(rho)``.

    Constant forcing solves (rho I - (A1 - S X^T)^T) s = X f - e exactly and feeds
    ``_mean_path`` that constant offset with zero slope; time-varying forcing
    steps s backward (``_offset_path``) from that quasi-static value at the
    horizon and feeds its exact slopes.  A root whose weight vanishes may be the
    degenerate X = 0.  Returns
    (grid, P, X, s, x_bar, x_bar_tail, P_rho_stabilizing, X_rho_stabilizing).
    """
    rho, n = params.rho, params.n
    w = derived_weights(params)
    S = control_gain_matrix(params.B, params.R)
    P, P_stab = solve_are_allow_degenerate(build_hamiltonian(params, w, "M1"))
    X, X_stab = solve_are_allow_degenerate(build_hamiltonian(params, w, root_kind))
    grid = default_grid(_default_infinite_horizon(rho))
    Acl, Acl_s = A1 - S @ X, A1 - S @ X.T   # the mean path's and the offset's closed loops

    f_end = params.f_at(0.0 if params.constant_forcing else float(grid[-1]))
    try:
        s = np.linalg.solve(rho * np.eye(n) - Acl_s.T, X @ f_end - e)
    except np.linalg.LinAlgError as exc:
        raise MeanFieldInfeasibleError(
            "offset equation singular: a closed-loop mode sits exactly at the discount rate"
        ) from exc
    if params.constant_forcing:
        tail = _settle_mean_field(Acl, -S @ s + f_end, params.x_bar0, rho, what=what)
        ds = 0.0
    else:
        s = _offset_path(params, grid, S, A1, e, X, s_end=s)
        ds = _offset_slope(rho, Acl_s, s, (X @ params.f_at(grid)[..., None])[..., 0] - e)
        tail = None
    path = _mean_path(params, grid, S, Acl, Acl, s, ds)
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
    its own); a row whose K is None has K x_bar folded into o already.  o
    broadcasts against P X, so one P X can serve populations with their own
    offsets: ``sim._row_law`` passes a stack's (L, ..., 1, n) offsets.  A
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


# social_law, centralized_law and game.game_law stay three distinct functions: the
# benchmark tracer wraps each under its own span and copies its law's ``x_bar_at``.

def social_law(gains: SocialGains):
    """Simulation callable (t, X) -> U for the decentralized control."""
    return _law(gains)


def centralized_law(gains: SocialGains):
    """Simulation callable using the realized average (exact optimum)."""
    return _law(gains, centralized=True)
