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
from .model import ModelParams, derived_weights, validate
from .riccati import (
    build_hamiltonian,
    control_gain_matrix,
    default_grid,
    hamiltonian_from_blocks,
    finite_horizon_solvable,
    solve_are_allow_degenerate,
    solve_are_stable_subspace,
)
from .social import (
    SocialGains,
    _Gains,
    _feedback,
    _forward_affine,
    _law,
    _r_inv_bt,
    _synth_finite,
    _synth_offset_and_path,
    default_infinite_horizon,
    synth_social_infinite,
)

__all__ = [
    "GameGains",
    "synth_game_finite",
    "synth_game_infinite",
    "decentralized_game_strategy",
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

    def P_bar_at(self, t: float) -> np.ndarray:
        return self._sample(self.P_bar, t, 2)

    def K_at(self, t: float) -> np.ndarray:
        """Average-feedback gain P_bar - P."""
        return self.P_bar_at(t) - self.P_at(t)

    def s_hat_at(self, t: float) -> np.ndarray:
        return self._sample(self.s_hat, t, 1)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def synth_game_finite(params: ModelParams, T: float, steps: int | None = None,
                      solvability_resolution: float = 1e-3) -> GameGains:
    """Certified backward pass for (P_bar, s_hat, P) plus the forward mean path.

    The determinant sweep must stay positive on [0, T]; otherwise the
    consistency equation escapes in finite time and no equilibrium of this
    form exists on that horizon.
    """
    validate(params)
    w = derived_weights(params)
    check = finite_horizon_solvable(build_hamiltonian(params, w, "script_A"), T,
                                    resolution=solvability_resolution)
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


def synth_game_infinite(params: ModelParams, T_max: float | None = None,
                        steps: int | None = None, tail_tol: float = 1e-8,
                        eta_weighting: str = "Q") -> GameGains:
    """Algebraic equilibrium gains for the G = 0 infinite-horizon game.

    ``eta_weighting`` selects the offset forcing: "Q" uses P_bar f - Q eta
    (the default, consistent with the finite-horizon offset); "identity" uses
    P_bar f - eta.
    """
    validate(params)
    if float(np.max(np.abs(params.G))) > 0.0:
        raise UnsupportedModelError(
            "infinite-horizon game synthesis requires G = 0 (dynamic average "
            "coupling is only supported on finite horizons)")
    if eta_weighting not in ("Q", "identity"):
        raise ValueError("eta_weighting must be 'Q' or 'identity'")
    w = derived_weights(params)
    S = control_gain_matrix(params.B, params.R)

    P, P_stab, _ = solve_are_allow_degenerate(build_hamiltonian(params, w, "M1"), params.Q)
    Pb, Pb_stab, _ = solve_are_allow_degenerate(build_hamiltonian(params, w, "M3"), w.Q_IG)

    eta_term = (params.Q @ params.eta) if eta_weighting == "Q" else params.eta
    horizon = T_max if T_max is not None else default_infinite_horizon(params.rho, tail_tol)
    grid = default_grid(horizon, steps)
    sh, x_path, x_tail = _synth_offset_and_path(params, Pb, params.A - S @ Pb, eta_term,
                                                grid, "equilibrium mean-field path")

    return GameGains(
        horizon="infinite", grid=grid, P=P, P_bar=Pb, s_hat=sh, x_bar=x_path,
        params=params, x_bar_tail=x_tail,
        meta={
            "T_max": horizon, "tail_tol": tail_tol, "eta_weighting": eta_weighting,
            "P_rho_stabilizing": P_stab, "P_bar_rho_stabilizing": Pb_stab,
            "P_bar_asymmetry": float(np.max(np.abs(Pb - Pb.T))),
            "tail_weight": float(np.exp(-params.rho * horizon)),
        },
    )


def decentralized_game_strategy(gains: GameGains, t: float, x: np.ndarray) -> np.ndarray:
    """u_i = -R^{-1} B^T (P x_i + (P_bar - P) x_bar + s_hat)."""
    return _law(gains)(t, x)


def game_law(gains: GameGains):
    """Simulation callable (t, X) -> U for the equilibrium strategy."""
    return _law(gains)


# ---------------------------------------------------------------------------
# representation checks
# ---------------------------------------------------------------------------

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
        return {
            "problem": self.problem,
            "gain_label": self.gain_label,
            "gain": np.asarray(self.gain).tolist(),
            "gain_identity_diff": self.gain_identity_diff,
            "offset_diff": self.offset_diff,
            "path_diff": self.path_diff,
            "trajectory_diff": self.trajectory_diff,
            "tol": self.tol,
            "passed": self.passed,
            "details": self.details,
        }


def _require_homogeneous(params: ModelParams, what: str):
    if callable(params.f) or float(np.max(np.abs(params.f_at(0.0)))) > 0.0:
        raise UnsupportedModelError(f"{what} comparison requires f = 0")
    if float(np.max(np.abs(params.G))) > 0.0:
        raise UnsupportedModelError(f"{what} comparison requires G = 0")


def _paired_trajectories(params: ModelParams, law_a, law_b, N: int, T: float,
                         dt: float, seed: int) -> float:
    """Max state deviation between two laws driven by identical noise."""
    from .sim import SimConfig, draw_agents, simulate

    cfg = SimConfig(N=N, dt=dt, T=T, replications=1, seed=seed)
    x0, xi = draw_agents(params, cfg, rep=0)
    traj_a = simulate(params, law_a, cfg, rep=0, noise=xi, init_states=x0)
    traj_b = simulate(params, law_b, cfg, rep=0, noise=xi, init_states=x0)
    return float(np.max(np.abs(traj_a.states - traj_b.states)))


def _representation_check(problem: str, gains: _Gains, Qc: np.ndarray, kind: str,
                          e: np.ndarray, label: str, N: int, T: float, dt: float,
                          seed: int, tol: float) -> RepresentationReport:
    """Independent route for infinite-horizon gains of either problem.

    Solves  rho Kr = Kr Abar + Abar^T Kr - Kr S Kr + Qc  with Abar = A - S P
    (stable subspace of the ``kind`` Hamiltonian), the bounded offset
    (rho I - (Abar - S Kr)^T) o = -e and the auxiliary mean path, then
    compares them with the synthesized K, offset and mean path, and the two
    feedback forms' trajectories under common noise.
    """
    if gains.horizon != "infinite":
        raise UnsupportedModelError("representation comparison uses infinite-horizon gains")
    params = gains.params
    A, rho = params.A, params.rho
    n = params.n
    S = control_gain_matrix(params.B, params.R)
    RB = _r_inv_bt(params)
    P = gains.P
    offset = getattr(gains, gains._OFFSET)

    Abar = A - S @ P
    ham = hamiltonian_from_blocks(Abar - 0.5 * rho * np.eye(n), S, Qc, kind=kind)
    Kr = solve_are_stable_subspace(ham).X
    Acl_rep = Abar - S @ Kr
    off_rep = np.linalg.solve(rho * np.eye(n) - Acl_rep.T, -e)

    K_steps = int(round(T / dt))
    sim_grid = np.linspace(0.0, T, K_steps + 1)
    const3 = lambda M: (lambda k: (M, M, M))
    x_rep = _forward_affine(sim_grid, const3(Acl_rep), const3(-S @ off_rep), params.x_bar0)
    x_ours = _forward_affine(sim_grid, const3(A - S @ getattr(gains, gains._ROOT)),
                             const3(-S @ offset), params.x_bar0)

    def law_rep(t, X):
        k = min(int(round(t / dt)), K_steps)
        return _feedback(RB, P, X, Kr @ x_rep[k] + off_rep)

    def law_ours(t, X):
        k = min(int(round(t / dt)), K_steps)
        return _feedback(RB, P, X, gains._offset_at(t, x_ours[k]))

    traj_diff = _paired_trajectories(params, law_ours, law_rep, N, T, dt, seed)
    k_diff = float(np.max(np.abs(Kr - gains.K_at(0.0))))
    off_diff = float(np.max(np.abs(off_rep - offset)))
    path_diff = float(np.max(np.abs(x_rep - x_ours)))
    passed = max(k_diff, off_diff, path_diff, traj_diff) < tol
    return RepresentationReport(
        problem=problem, gain_label=label, gain=Kr,
        gain_identity_diff=k_diff, offset_diff=off_diff, path_diff=path_diff,
        trajectory_diff=traj_diff, tol=tol, passed=passed,
        details={"N": N, "T": T, "dt": dt, "seed": seed},
    )


def representation_check_social(params: ModelParams, gains: SocialGains | None = None,
                                N: int = 5, T: float = 10.0, dt: float = 0.01,
                                seed: int = 7, tol: float = 1e-8) -> RepresentationReport:
    """Person-by-person route vs the direct cooperative synthesis.

    Independently solves  rho Kb = Kb Abar + Abar^T Kb - Kb S Kb - Q_Gamma
    with Abar = A - S P, the associated bounded offset, and the auxiliary mean
    path, then compares against K = Pi - P, s, x_bar, and common-noise closed
    loops.  Homogeneous setting only (f = 0, G = 0).
    """
    _require_homogeneous(params, "person-by-person")
    if gains is None:
        gains = synth_social_infinite(params)
    w = derived_weights(params)
    return _representation_check("social", gains, -w.Q_Gamma, "custom", w.eta_bar,
                                 "K_bar", N, T, dt, seed, tol)


def representation_check_game(params: ModelParams, gains: GameGains | None = None,
                              N: int = 5, T: float = 10.0, dt: float = 0.01,
                              seed: int = 11, tol: float = 1e-8) -> RepresentationReport:
    """Fixed-point route vs the direct equilibrium synthesis.

    Decomposes the fixed-point offset as s* = K* x_bar* + psi with
    rho K* = K* Abar + Abar^T K* - K* S K* - Q Gamma, and compares K* with
    P_bar - P, psi with s_hat, the auxiliary mean path, and common-noise
    trajectories of the two strategy forms.  Homogeneous setting (f = 0, G = 0).
    """
    _require_homogeneous(params, "fixed-point")
    if gains is None:
        gains = synth_game_infinite(params)
    return _representation_check("game", gains, -(params.Q @ params.Gamma), "M3",
                                 params.Q @ params.eta, "K_star", N, T, dt, seed, tol)
