"""Competitive (Nash) synthesis and the consistency-representation checks.

The finite-horizon game couples a nonsymmetric backward Riccati equation with
the individual one; existence on [0, T] is certified up front by the
determinant sweep of the two-point boundary coefficient matrix.  The infinite
horizon is supported for G = 0 only and is solved algebraically, with the
consistency root taken from the stable subspace of the nonsymmetric
Hamiltonian (no symmetrization).

The equilibrium strategy reads

    u_i(t) = -R^{-1} B^T [ P(t) x_i + (P_bar(t) - P(t)) x_bar(t) + s_hat(t) ].

``representation_check_social`` and ``representation_check_game`` re-derive
the same laws through the person-by-person / fixed-point route with
independently solved gains and compare values, paths, and common-noise
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FiniteHorizonInsolvableError, UnsupportedModelError
from .model import ModelParams, _jsonify, control_gain_matrix, derived_weights, validate
from .riccati import (
    build_hamiltonian,
    hamiltonian_from_blocks,
    finite_horizon_solvable,
    solve_are_stable_subspace,
)
from . import sim
from .social import (
    _TAIL_TOL,
    _Gains,
    _affine,
    _coupled_offset,
    _generator,
    _law,
    _mean_path,
    _r_inv_bt,
    _synth_finite,
    _synth_infinite,
    synth_social_infinite,
)

__all__ = [
    "GameGains",
    "synth_game_finite",
    "synth_game_infinite",
    "game_law",
    "RepresentationReport",
    "representation_check_social",
    "representation_check_game",
]


@dataclass(frozen=True, eq=False)
class GameGains(_Gains):
    """Equilibrium gains; paths on ``grid`` (finite) or constants (infinite)."""

    P_bar: np.ndarray      # consistency root, generally nonsymmetric
    s_hat: np.ndarray      # (n,) or (K+1,n)

    _ROOT, _OFFSET, _ARRAYS = "P_bar", "s_hat", ("P", "P_bar", "s_hat")

    def P_bar_at(self, t) -> np.ndarray:
        return self._sample(self.P_bar, t, 2)

    def K_at(self, t) -> np.ndarray:
        """Average-feedback gain P_bar - P."""
        return self.P_bar_at(t) - self.P_at(t)

    def s_hat_at(self, t) -> np.ndarray:
        return self._sample(self.s_hat, t, 1)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def synth_game_finite(params: ModelParams, T: float, steps: int | None = None) -> GameGains:
    """Certified backward pass for (P_bar, s_hat, P) plus the forward mean path.

    The determinant sweep must stay positive on [0, T]; otherwise the
    consistency equation escapes in finite time and no equilibrium of this
    form exists on that horizon.  T must be real, finite and positive.
    """
    validate(params)
    w = derived_weights(params)
    check = finite_horizon_solvable(build_hamiltonian(params, w, "script_A"), T)
    if not check.solvable:
        raise FiniteHorizonInsolvableError(
            "consistency equation has no solution on [0, "
            f"{T:g}]: determinant sweep crosses zero at time-to-go {check.t_min:g}"
        )
    grid, P, Pb, sh, x_bar = _synth_finite(params, T, steps, params.A, w.Q_IG,
                                           params.Q @ params.eta, symmetric=False,
                                           what="consistency Riccati")
    return GameGains(
        horizon="finite", grid=grid, P=P, P_bar=Pb, s_hat=sh,
        x_bar=x_bar, params=params,
        meta={"T": float(T), "solvability_min_det": check.min_det,
              "solvability_marginal": check.marginal},
    )


def synth_game_infinite(params: ModelParams) -> GameGains:
    """Algebraic equilibrium gains for the G = 0 infinite-horizon game.

    The offset is forced by P_bar f - Q eta, as on the finite horizon: for
    constant forcing it solves (rho I - (A - S P_bar^T)^T) s_hat = P_bar f - Q eta
    exactly; the mean path's closed loop is A - S P_bar.
    """
    validate(params)
    if float(np.max(np.abs(params.G))) > 0.0:
        raise UnsupportedModelError(
            "infinite-horizon game synthesis requires G = 0 (dynamic average "
            "coupling is only supported on finite horizons)")
    grid, P, Pb, sh, x_bar, x_tail, P_stab, Pb_stab = _synth_infinite(
        params, params.A, "M3", params.Q @ params.eta, "equilibrium mean-field path")
    horizon = float(grid[-1])
    return GameGains(
        horizon="infinite", grid=grid, P=P, P_bar=Pb, s_hat=sh, x_bar=x_bar,
        params=params, x_bar_tail=x_tail,
        meta={
            "T_max": horizon, "tail_tol": _TAIL_TOL, "eta_weighting": "Q",
            "P_rho_stabilizing": P_stab, "P_bar_rho_stabilizing": Pb_stab,
            "P_bar_asymmetry": float(np.max(np.abs(Pb - Pb.T))),
            "tail_weight": float(np.exp(-params.rho * horizon)),
        },
    )


def game_law(gains: GameGains):
    """Simulation callable (t, X) -> U for the equilibrium strategy."""
    return _law(gains)


# ---------------------------------------------------------------------------
# representation checks
# ---------------------------------------------------------------------------

_REP_N, _REP_T, _REP_DT, _REP_TOL = 5, 10.0, 0.01, 1e-8   # population, horizon, step, bound


@dataclass(frozen=True, eq=False)
class RepresentationReport:
    problem: str             # "social" | "game"
    gain_label: str
    gain: np.ndarray
    gain_identity_diff: float
    offset_diff: float
    path_diff: float
    trajectory_diff: float
    tol: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _jsonify(self)


def _require_homogeneous(params: ModelParams, what: str):
    if callable(params.f) or float(np.max(np.abs(params.f_at(0.0)))) > 0.0:
        raise UnsupportedModelError(f"{what} comparison requires f = 0")
    if float(np.max(np.abs(params.G))) > 0.0:
        raise UnsupportedModelError(f"{what} comparison requires G = 0")


def _representation_check(problem: str, gains: _Gains, W: np.ndarray, Qc: np.ndarray,
                          kind: str, e: np.ndarray, label: str,
                          seed: int) -> RepresentationReport:
    """Independent route for infinite-horizon gains of either problem.

    Solves  rho Kr = Kr Abar + Abar^T Kr - Kr S Kr + Qc  with Abar = A - S P
    (stable subspace of the ``kind`` Hamiltonian), the bounded offset
    (rho I - (Abar - S Kr^T)^T) o = -e and the auxiliary mean path, then
    compares them with the synthesized K, offset and mean path, and the two
    feedback forms' trajectories under common noise (N = 5 agents on
    [0, 10] at dt = 0.01, one stacked pass of two populations, each stepping
    its own offset table); every difference must stay below 1e-8.  Both
    mean paths step by the forward flow of their root's ``_generator``, W
    being the synthesized root's weight.
    """
    params = gains.params
    A, rho = params.A, params.rho
    n = params.n
    S = control_gain_matrix(params.B, params.R)
    RB = _r_inv_bt(params)
    P, K = gains.P, gains.K_at(0.0)
    offset = getattr(gains, gains._OFFSET)

    Abar = A - S @ P
    ham = hamiltonian_from_blocks(Abar - 0.5 * rho * np.eye(n), S, Qc, kind=kind)
    Kr = solve_are_stable_subspace(ham).X
    off_rep = np.linalg.solve(rho * np.eye(n) - (Abar - S @ Kr.T).T, -e)

    cfg = sim.SimConfig(N=_REP_N, dt=_REP_DT, T=_REP_T, replications=1, seed=seed)
    sim_grid = cfg.grid()
    x_rep = _mean_path(params, sim_grid, _generator(rho, Abar, Abar, S, Qc), Kr, off_rep, e)
    x_ours = _mean_path(params, sim_grid, _generator(rho, A, A, S, W),
                        getattr(gains, gains._ROOT), offset, e)
    # the two feedback forms' offsets, row k (2, 1, n): ours, then the representation's
    o = np.array([[_coupled_offset(K, x_ours[k], offset), Kr @ x_rep[k] + off_rep]
                  for k in range(cfg.steps + 1)])[:, :, None]
    x0, xi = sim.draw_agents(params, cfg)
    law = lambda k, X, x: _affine(RB, P, None, o[k], X)   # X (2, N, n), one population per form
    traj_diff = max(float(np.max(np.abs(X[:, 0] - X[:, 1])))
                    for _, X, _ in sim._stacked_steps(params, law, 2, cfg, xi, x0))
    k_diff = float(np.max(np.abs(Kr - K)))
    off_diff = float(np.max(np.abs(off_rep - offset)))
    path_diff = float(np.max(np.abs(x_rep - x_ours)))
    passed = max(k_diff, off_diff, path_diff, traj_diff) < _REP_TOL
    return RepresentationReport(
        problem=problem, gain_label=label, gain=Kr,
        gain_identity_diff=k_diff, offset_diff=off_diff, path_diff=path_diff,
        trajectory_diff=traj_diff, tol=_REP_TOL, passed=passed,
        details={"N": _REP_N, "T": _REP_T, "dt": _REP_DT, "seed": seed},
    )


def representation_check_social(params: ModelParams) -> RepresentationReport:
    """Person-by-person route vs the direct cooperative synthesis.

    Independently solves  rho Kb = Kb Abar + Abar^T Kb - Kb S Kb - Q_Gamma
    with Abar = A - S P, the associated bounded offset, and the auxiliary mean
    path, then compares against K = Pi - P, s, x_bar, and common-noise closed
    loops.  Homogeneous setting only (f = 0, G = 0).
    """
    _require_homogeneous(params, "person-by-person")
    w = derived_weights(params)
    return _representation_check("social", synth_social_infinite(params), w.Q_hat, -w.Q_Gamma,
                                 "custom", w.eta_bar, "K_bar", seed=7)


def representation_check_game(params: ModelParams) -> RepresentationReport:
    """Fixed-point route vs the direct equilibrium synthesis.

    Decomposes the fixed-point offset as s* = K* x_bar* + psi with
    rho K* = K* Abar + Abar^T K* - K* S K* - Q Gamma, and compares K* with
    P_bar - P, psi with s_hat, the auxiliary mean path, and common-noise
    trajectories of the two strategy forms.  Homogeneous setting (f = 0, G = 0).
    """
    _require_homogeneous(params, "fixed-point")
    return _representation_check("game", synth_game_infinite(params),
                                 derived_weights(params).Q_IG, -(params.Q @ params.Gamma),
                                 "M3", params.Q @ params.eta, "K_star", seed=11)
