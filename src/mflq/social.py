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

from dataclasses import KW_ONLY, dataclass, field
from typing import Callable

import numpy as np

from .errors import MeanFieldInfeasibleError, ModelValidationError
from .model import ModelParams, _interp, derived_weights, validate
from .riccati import (
    BLOWUP_CAP,
    _rk4_step,
    build_hamiltonian,
    control_gain_matrix,
    default_grid,
    hermite_midpoints,
    integrate_backward,
    solve_are_allow_degenerate,
    solve_linear_backward,
)

__all__ = [
    "SocialGains",
    "synth_social_finite",
    "synth_social_infinite",
    "decentralized_social_control",
    "centralized_social_control",
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

    def _path_at(self, values: np.ndarray, t: float) -> np.ndarray:
        if t > self.grid[-1] and self.horizon == "finite":
            raise ModelValidationError(
                f"finite-horizon gains end at t={self.grid[-1]:g}; "
                f"cannot evaluate them at t={t:g}")
        return _interp(self.grid, values, t)

    def _sample(self, values: np.ndarray, t: float, ndim: int) -> np.ndarray:
        """``values`` itself when constant (``ndim`` axes), else its path at t."""
        return values if values.ndim == ndim else self._path_at(values, t)

    def P_at(self, t: float) -> np.ndarray:
        return self._sample(self.P, t, 2)

    def x_bar_at(self, t: float) -> np.ndarray:
        if t >= self.grid[-1] and self.x_bar_tail is not None:
            return self.x_bar_tail
        return self._path_at(self.x_bar, t)

    def _offset_at(self, t: float, x_bar: np.ndarray) -> np.ndarray:
        """K(t) x_bar + offset(t), the feedback terms not acting on x."""
        return self.K_at(t) @ x_bar + self._sample(getattr(self, self._OFFSET), t, 1)

    def to_dict(self) -> dict:
        d = {"horizon": self.horizon, "grid": self.grid.tolist()}
        d.update((name, getattr(self, name).tolist()) for name in self._ARRAYS)
        d["x_bar"] = self.x_bar.tolist()
        d["meta"] = {k: v for k, v in self.meta.items() if not isinstance(v, np.ndarray)}
        if self.x_bar_tail is not None:
            d["x_bar_tail"] = self.x_bar_tail.tolist()
        return d


@dataclass(frozen=True, eq=False)
class SocialGains(_Gains):
    """Synthesized cooperative gains, K = Pi - P."""

    Pi: np.ndarray
    K: np.ndarray
    s: np.ndarray                   # (n,) or (K+1,n)

    _ROOT, _OFFSET, _ARRAYS = "Pi", "s", ("P", "Pi", "K", "s")

    def Pi_at(self, t: float) -> np.ndarray:
        return self._sample(self.Pi, t, 2)

    def K_at(self, t: float) -> np.ndarray:
        return self._sample(self.K, t, 2)

    def s_at(self, t: float) -> np.ndarray:
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


def settle_mean_field(Acl: np.ndarray, forcing: Callable[[float], np.ndarray],
                      constant_forcing: np.ndarray | None, x0: np.ndarray,
                      rho: float, grid: np.ndarray,
                      what: str = "mean-field path") -> tuple[np.ndarray, np.ndarray | None]:
    """Forward path of x' = Acl x + forcing with discounted-growth feasibility.

    Modes of ``Acl`` with real part at or above rho/2 do not decay in the
    discounted norm; when the initial state (relative to the steady state)
    excites one, no admissible path exists and the error names the required
    initial state.  Returns (path on grid, steady-state tail or None).
    """
    n = x0.size
    lam, V = np.linalg.eig(Acl)
    scale = 1.0 + float(np.max(np.abs(lam.real)))
    unstable = lam.real >= 0.5 * rho - 1e-9 * scale
    tail = None
    if constant_forcing is not None:
        x_part = None
        try:
            x_part = np.linalg.solve(Acl, -constant_forcing)
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
        if x_part is not None:
            tail = x_part

    def c_of(k):
        t0, t1 = grid[k], grid[k + 1]
        return forcing(float(t0)), forcing(float(0.5 * (t0 + t1))), forcing(float(t1))

    path = _forward_affine(grid, lambda k: (Acl, Acl, Acl), c_of, np.asarray(x0, dtype=float))
    if tail is None:
        tail = path[-1]
    return path, tail


def default_infinite_horizon(rho: float, tail_tol: float = 1e-8) -> float:
    """Truncation horizon with discounted tail weight below ``tail_tol``."""
    return float(np.clip(np.log(1.0 / tail_tol) / rho, 20.0, 200.0))


def _synth_finite(params: ModelParams, T: float, steps: int | None, A1: np.ndarray,
                  W: np.ndarray, e: np.ndarray, symmetric: bool, what: str):
    """Backward pass on [0, T] with zero terminal data for

        rho P = P' + A^T P + P A - P S P + Q
        rho X = X' + A1^T X + X (A + G) - X S X + W
        rho s = s' + (A1 - S X)^T s + X f - e

    then the mean-field path x' = (A + G - S X) x - S s + f forward on the same
    RK4 grid, with midpoint samples of X and s from cubic Hermite
    interpolation of their exact slopes.  X is symmetrized when ``symmetric``.
    Returns (grid, P, X, s, x_bar) paths.
    """
    A, G, Q, rho = params.A, params.G, params.Q, params.rho
    n, nn = params.n, params.n * params.n
    S = control_gain_matrix(params.B, params.R)
    AG = A + G
    grid = default_grid(T, steps)

    def rhs(t, y):
        P, X, s = y[:nn].reshape(n, n), y[nn: 2 * nn].reshape(n, n), y[2 * nn:]
        dP = rho * P - A.T @ P - P @ A + P @ S @ P - Q
        dX = rho * X - A1.T @ X - X @ AG + X @ S @ X - W
        ds = rho * s - (A1 - S @ X).T @ s - (X @ params.f_at(t) - e)
        return np.concatenate([dP.ravel(), dX.ravel(), ds])

    ys = integrate_backward(rhs, np.zeros(2 * nn + n), grid, cap=BLOWUP_CAP, what=what)
    P_path = ys[:, :nn].reshape(-1, n, n)
    X_path = ys[:, nn: 2 * nn].reshape(-1, n, n)
    s_path = ys[:, 2 * nn:]
    P_path = 0.5 * (P_path + np.transpose(P_path, (0, 2, 1)))
    if symmetric:
        X_path = 0.5 * (X_path + np.transpose(X_path, (0, 2, 1)))

    dX_path = (rho * X_path - np.einsum("ij,tjk->tik", A1.T, X_path)
               - np.einsum("tij,jk->tik", X_path, AG)
               + np.einsum("tij,jk,tkl->til", X_path, S, X_path) - W)
    Acl_path = A1 - np.einsum("ij,tjk->tik", S, X_path)
    ds_path = (rho * s_path - np.einsum("tij,tj->ti", np.transpose(Acl_path, (0, 2, 1)), s_path)
               - (np.einsum("tij,tj->ti", X_path,
                            np.array([params.f_at(t) for t in grid])) - e))
    X_mid = hermite_midpoints(grid, X_path, dX_path)
    s_mid = hermite_midpoints(grid, s_path, ds_path)

    def A_of(k):
        return (AG - S @ X_path[k], AG - S @ X_mid[k], AG - S @ X_path[k + 1])

    def c_of(k):
        t0, t1 = grid[k], grid[k + 1]
        return (-S @ s_path[k] + params.f_at(t0),
                -S @ s_mid[k] + params.f_at(0.5 * (t0 + t1)),
                -S @ s_path[k + 1] + params.f_at(t1))

    return grid, P_path, X_path, s_path, _forward_affine(grid, A_of, c_of, params.x_bar0)


def _synth_offset_and_path(params: ModelParams, X: np.ndarray, Acl: np.ndarray,
                           e: np.ndarray, grid: np.ndarray, what: str):
    """Offset of  rho s = s' + Acl^T s + X f - e  and the mean-field path
    x' = Acl x - S s + f it drives.

    Constant forcing solves (rho I - Acl^T) s = X f - e exactly; time-varying
    forcing integrates backward from that quasi-static value at the horizon.
    Returns (s, path, steady-state tail).
    """
    rho, n = params.rho, params.n
    S = control_gain_matrix(params.B, params.R)
    f_end = params.f_at(0.0 if params.constant_forcing else float(grid[-1]))
    try:
        s_end = np.linalg.solve(rho * np.eye(n) - Acl.T, X @ f_end - e)
    except np.linalg.LinAlgError as exc:
        raise MeanFieldInfeasibleError(
            "offset equation singular: a closed-loop mode sits exactly at the discount rate"
        ) from exc
    if params.constant_forcing:
        s, s_at, const = s_end, (lambda t: s_end), -S @ s_end + params.f_at(0.0)
    else:
        s = solve_linear_backward(Acl, rho, lambda t: X @ params.f_at(t) - e, s_end, grid)
        s_at, const = (lambda t: _interp(grid, s, t)), None
    path, tail = settle_mean_field(Acl, lambda t: -S @ s_at(t) + params.f_at(t), const,
                                   params.x_bar0, rho, grid, what=what)
    return s, path, tail


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


def synth_social_infinite(params: ModelParams, T_max: float | None = None,
                          steps: int | None = None, tail_tol: float = 1e-8) -> SocialGains:
    """Algebraic gains plus the truncated mean-field path.

    For constant forcing the offset solves (rho I - Acl^T) s = Pi f - eta_bar
    exactly; a time-varying forcing falls back to backward integration from a
    quasi-static terminal value.
    """
    validate(params)
    w = derived_weights(params)
    S = control_gain_matrix(params.B, params.R)

    P, P_stab, _ = solve_are_allow_degenerate(build_hamiltonian(params, w, "M1"), params.Q)
    Pi, Pi_stab, _ = solve_are_allow_degenerate(build_hamiltonian(params, w, "M2"), w.Q_hat)

    horizon = T_max if T_max is not None else default_infinite_horizon(params.rho, tail_tol)
    grid = default_grid(horizon, steps)
    s, x_path, x_tail = _synth_offset_and_path(params, Pi, params.A + params.G - S @ Pi,
                                               w.eta_bar, grid, "cooperative mean-field path")

    return SocialGains(
        horizon="infinite", grid=grid, P=P, Pi=Pi, K=Pi - P, s=s, x_bar=x_path,
        params=params, x_bar_tail=x_tail,
        meta={
            "T_max": horizon, "tail_tol": tail_tol,
            "P_rho_stabilizing": P_stab, "Pi_rho_stabilizing": Pi_stab,
            "tail_weight": float(np.exp(-params.rho * horizon)),
        },
    )


# ---------------------------------------------------------------------------
# control evaluation
# ---------------------------------------------------------------------------

def _r_inv_bt(params: ModelParams) -> np.ndarray:
    return np.linalg.solve(params.R, params.B.T)


def _feedback(RB: np.ndarray, P: np.ndarray, x: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """-R^{-1} B^T (P x + offset) for single states or batches (m, n), given
    RB = R^{-1} B^T."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return -RB @ (P @ x + offset)
    return -(x @ P.T + offset) @ RB.T


def _law(gains: _Gains, centralized: bool = False):
    """Simulation callable (t, X) -> U for the feedback of ``gains``, with the
    realized average of X in place of x_bar when ``centralized``."""
    RB = _r_inv_bt(gains.params)

    def law(t, X):
        if centralized:
            X = np.atleast_2d(X)
            x_bar = X.mean(axis=0)
        else:
            x_bar = gains.x_bar_at(t)
        return _feedback(RB, gains.P_at(t), X, gains._offset_at(t, x_bar))

    law.x_bar_at = gains.x_bar_at
    return law


def decentralized_social_control(gains: SocialGains, t: float, x: np.ndarray) -> np.ndarray:
    """u_i = -R^{-1} B^T (P x_i + K x_bar + s); ``x`` may be (n,) or (m, n)."""
    return _law(gains)(t, x)


def centralized_social_control(gains: SocialGains, t: float, x: np.ndarray,
                               x_avg: np.ndarray) -> np.ndarray:
    """Exact population optimum: the realized average replaces x_bar."""
    return _feedback(_r_inv_bt(gains.params), gains.P_at(t), x,
                     gains._offset_at(t, np.asarray(x_avg, dtype=float)))


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


def social_law(gains: SocialGains):
    """Simulation callable (t, X) -> U for the decentralized control."""
    return _law(gains)


def centralized_law(gains: SocialGains):
    """Simulation callable using the realized average (exact optimum)."""
    return _law(gains, centralized=True)
