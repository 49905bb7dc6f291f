"""Cooperative (team-optimal) synthesis for the mean-field LQ population.

Finite horizon: the individual Riccati equation and the population-average
equation step backward as one stack, the offset backward on that pass's
path, then the mean-field path forward on the same grid, every step an exact
map of the Hamiltonian flow.  Infinite horizon: stable-subspace algebraic
roots, closed-form offset for constant forcing, truncated mean-field path with
its steady state.

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
    _escaped,
    _expm,
    _riccati_flow,
    build_hamiltonian,
    default_grid,
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
# exact steps: the flow of the averaged state and adjoint (x, p), p = X x + s
# ---------------------------------------------------------------------------

def _generator(rho: float, A1: np.ndarray, A2: np.ndarray, S: np.ndarray,
               W: np.ndarray) -> np.ndarray:
    """[[A2, -S], [-W, rho I - A1^T]], the drift of (x, p), whose decoupling
    p = X x + s gives  rho X = X' + A1^T X + X A2 - X S X + W  and the offset
    equation; every step of X is a Moebius image of its flow."""
    return np.block([[A2, -S], [-W, rho * np.eye(S.shape[0]) - A1.T]])


def _flow(M: np.ndarray, h: float):
    """One step h of z' = M z + c(t): e^{hM} and the weights (W0, W1, W2)
    with which c adds W0 c(t) + W1 c(t + h/2) + W2 c(t + h), exact for a c
    quadratic on the step.  Both come from one exponential in the step's own
    time u/h (Van Loan, IEEE TAC 23, 1978): the top row of e^Z,
    Z = [[hM, hI, 0, 0], [0, 0, I, 0], [0, 0, 0, 2I], [0, 0, 0, 0]], is
    [e^{hM}, m0, m1, m2] with mi = h int_0^1 e^{hM(1-u)} u^i du, so no
    weight divides by h and h = 0 gives the identity."""
    m = M.shape[0]
    Z, I = np.zeros((4, m, 4, m)), np.eye(m)
    Z[0, :, 0], Z[0, :, 1], Z[1, :, 2], Z[2, :, 3] = h * M, h * I, I, 2.0 * I
    E, m0, m1, m2 = np.moveaxis(_expm(Z.reshape(4 * m, 4 * m))[:m].reshape(m, 4, m), 1, 0)
    return E, (m0 - 3.0 * m1 + 2.0 * m2, 4.0 * (m1 - m2), 2.0 * m2 - m1)


def _forced(params: ModelParams, grid: np.ndarray, e: np.ndarray, weights,
            backward: bool = False) -> np.ndarray:
    """Each step's forcing term (K, 2n) from the weights of ``_flow``, with
    c = [f; e] sampled at the grid times and the step midpoints: the forward
    steps in grid order, or the backward steps, whose drift is -c, in the
    order they are taken from ``grid[-1]`` down."""
    ends, mids = (np.concatenate((params.f_at(t), np.broadcast_to(e, (t.size, e.size))), axis=1)
                  for t in (grid, 0.5 * (grid[:-1] + grid[1:])))
    if backward:
        ends, mids = -ends[::-1], -mids[::-1]
    W0, W1, W2 = weights
    return ends[:-1] @ W0.T + mids @ W1.T + ends[1:] @ W2.T


def _recurrence(y0: np.ndarray, Phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The path y_0 = y0, y_{j+1} = Phi_j y_j + psi_j: (len(psi) + 1, m)."""
    out = np.empty((len(psi) + 1, y0.size))
    y = out[0] = y0
    for j, (Phi_j, psi_j) in enumerate(zip(Phi, psi), 1):
        y = out[j] = Phi_j @ y + psi_j
    return out


# an overflowing path is reported by its finiteness check, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def _mean_path(params: ModelParams, grid: np.ndarray, H: np.ndarray, X: np.ndarray,
               s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The mean-field path x' = (A2 - S X) x - S s + f from x_bar0, stepped
    by the forward flow F of the ``_generator`` H whose Riccati root X is:
    x_{k+1} = (F11 + F12 X_k) x_k + F12 s_k + g1_k, g the step's forcing
    term.  X and s are paths on ``grid`` or constants.  The path has no cap,
    but one that leaves the finite numbers raises
    :class:`RiccatiBlowUpError` naming the first such time.
    """
    n = params.n
    F, weights = _flow(H, grid[1] - grid[0])
    X, s = np.broadcast_to(X, (grid.size, n, n))[:-1], np.broadcast_to(s, (grid.size, n))[:-1]
    g = _forced(params, grid, e, weights)
    out = _recurrence(params.x_bar0, F[:n, :n] + F[:n, n:] @ X, s @ F[:n, n:].T + g[:, :n])
    escaped = ~np.isfinite(out).all(axis=1)
    if escaped.any():
        t = float(grid[np.argmax(escaped)])
        raise RiccatiBlowUpError(f"forward mean-field path is not finite at t={t:.6g}",
                                 t_escape=t)
    return out


# an offset past the cap is reported by its cap check, not by warnings
@np.errstate(over="ignore", invalid="ignore")
def _offset_path(params: ModelParams, grid: np.ndarray, H: np.ndarray, X: np.ndarray,
                 e: np.ndarray, s_end: np.ndarray, what: str = "offset") -> np.ndarray:
    """The offset of  rho s = s' + (A1 - S X^T)^T s + X f - e  from
    ``s_end`` at ``grid[-1]`` down to ``grid[0]``, stepped by the backward
    flow E of the ``_generator`` H whose root X is (a path on ``grid`` as its
    Moebius steps gave it, or a constant):
    s_k = (E22 - X_k E12) s_{k+1} + (g2_k - X_k g1_k).  Raises
    :class:`RiccatiBlowUpError` at the first time, from ``grid[-1]`` down, at
    which s leaves ``_BLOWUP_CAP`` or turns non-finite.
    """
    n = params.n
    E, weights = _flow(-H, grid[1] - grid[0])
    X = np.broadcast_to(X, (grid.size, n, n))[-2::-1]   # the root each backward step lands on
    g = _forced(params, grid, e, weights, backward=True)
    s = _recurrence(s_end, E[n:, n:] - X @ E[:n, n:],
                    g[:, n:] - (X @ g[:, :n, None])[..., 0])[::-1]
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
    x' = (A + G - S X) x - S s + f forward on the same grid.  Every step is
    exact: the Riccati equations have constant coefficients, so P and X step
    as one (2, n, n) stack of Moebius maps of their Hamiltonians' backward
    flow over one step h = grid[1] - grid[0], and the offset and the mean
    path are affine maps of the same flows.  X is symmetrized when
    ``symmetric``.  T must be real, finite and positive.  Returns
    (grid, P, X, s, x_bar) paths.
    """
    _as_real("T", T, True)
    A, rho, n = params.A, params.rho, params.n
    S = control_gain_matrix(params.B, params.R)
    grid = default_grid(T, steps)
    H = _generator(rho, A1, A + params.G, S, W)
    E = _expm((grid[0] - grid[1]) * np.stack((_generator(rho, A, A, S, params.Q), H)))
    PX = _riccati_flow(E, np.zeros((2, n, n)), grid, what)
    s_path = _offset_path(params, grid, H, PX[:, 1], e, np.zeros(n), what)
    P_path = 0.5 * (PX[:, 0] + np.transpose(PX[:, 0], (0, 2, 1)))
    X_path = PX[:, 1]
    if symmetric:
        X_path = 0.5 * (X_path + np.transpose(X_path, (0, 2, 1)))
    return grid, P_path, X_path, s_path, _mean_path(params, grid, H, X_path, s_path, e)


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

    Constant forcing solves (rho I - (A1 - S X^T)^T) s = X f - e exactly and
    feeds ``_mean_path`` that constant offset; time-varying forcing steps s
    backward (``_offset_path``, the root a fixed point of every step) from
    that quasi-static value at the horizon.  A root whose weight vanishes
    may be the degenerate X = 0.  Returns
    (grid, P, X, s, x_bar, x_bar_tail, P_rho_stabilizing, X_rho_stabilizing).
    """
    rho, n = params.rho, params.n
    w = derived_weights(params)
    S = control_gain_matrix(params.B, params.R)
    P, P_stab = solve_are_allow_degenerate(build_hamiltonian(params, w, "M1"))
    ham = build_hamiltonian(params, w, root_kind)
    X, X_stab = solve_are_allow_degenerate(ham)
    grid = default_grid(_default_infinite_horizon(rho))
    H = _generator(rho, A1, params.A + params.G, S, ham.blocks()[2])

    f_end = params.f_at(0.0 if params.constant_forcing else float(grid[-1]))
    try:
        s = np.linalg.solve(rho * np.eye(n) - (A1 - S @ X.T).T, X @ f_end - e)
    except np.linalg.LinAlgError as exc:
        raise MeanFieldInfeasibleError(
            "offset equation singular: a closed-loop mode sits exactly at the discount rate"
        ) from exc
    tail = None
    if params.constant_forcing:
        tail = _settle_mean_field(A1 - S @ X, -S @ s + f_end, params.x_bar0, rho, what=what)
    else:
        s = _offset_path(params, grid, H, X, e, s)
    path = _mean_path(params, grid, H, X, s, e)
    return grid, P, X, s, path, path[-1] if tail is None else tail, P_stab, X_stab


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def synth_social_finite(params: ModelParams, T: float, steps: int | None = None) -> SocialGains:
    """Backward pass for (P, Pi, s) on [0, T] with zero terminal data, then the
    forward mean-field path; all on one grid of exact steps."""
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
