"""Competitive synthesis: the consistency-equation gains, equilibrium offset,
mean path, and the two representation equivalences."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from conftest import planar_model, scalar_params
from mflq import ModelParams
from mflq.errors import (
    FiniteHorizonInsolvableError,
    MeanFieldInfeasibleError,
    MFLQError,
    UnsupportedModelError,
)
from mflq.game import (
    game_law,
    representation_check_game,
    representation_check_social,
    synth_game_finite,
    synth_game_infinite,
)

P_STAR = 0.7 + math.sqrt(1.49)
# Scalar consistency quadratic (A = 1, G = 0): X^2 - 1.4 X - 1.2 = 0 -> X = 2.
PBAR_STAR = 2.0
SHAT_STAR = -1.875          # (rho + 1) s = P_bar f - Q eta = -3
XBAR_GAME = 2.875           # -x + (f - S s) = 0


def test_infinite_scalar_benchmark(game_params):
    g = synth_game_infinite(game_params)
    assert abs(g.P_bar[0, 0] - PBAR_STAR) < 1e-10
    assert abs(g.P[0, 0] - P_STAR) < 1e-10
    assert abs(g.s_hat[0] - SHAT_STAR) < 1e-10
    assert abs(g.x_bar_tail[0] - XBAR_GAME) < 1e-10
    assert g.K_at(0.0)[0, 0] == pytest.approx(PBAR_STAR - P_STAR, abs=1e-12)
    assert g.meta["P_bar_asymmetry"] == 0.0
    assert g.meta["P_bar_rho_stabilizing"] is True


def test_infinite_second_operating_point():
    # A = 0.2: X = -0.1 + sqrt(0.01 + 1.2) = 1, so the offset and settled
    # mean have rational closed forms.
    g = synth_game_infinite(scalar_params(A=0.2, G=0.0))
    assert abs(g.P_bar[0, 0] - 1.0) < 1e-10
    assert abs(g.s_hat[0] + 20.0 / 7.0) < 1e-10
    assert abs(g.x_bar_tail[0] - 27.0 / 5.6) < 1e-10


def test_offset_eta_weighting_variants():
    # Q = 2 tells Q eta from eta: P_bar = 0.7 + sqrt(0.49 + 4.8) = 2.4, closed
    # loop -1.4, so (0.6 + 1.4) s = 2.4 - Q eta = 2.4 - 10, not 2.4 - 5.
    p = scalar_params(G=0.0, Q=2.0)
    assert synth_game_infinite(p).s_hat[0] == pytest.approx(-3.8, abs=1e-10)


def test_strategy_holds_settled_mean(game_params):
    g = synth_game_infinite(game_params)
    law = game_law(g)
    u = law(1e9, np.array([XBAR_GAME]))
    assert u.shape == (1,) and u == pytest.approx([-3.875], abs=1e-10)
    assert law.x_bar_at(1e9) == pytest.approx([XBAR_GAME])
    assert law(1e9, np.array([[XBAR_GAME]])) == pytest.approx(np.array([[-3.875]]))


def test_finite_horizon_settles_on_algebraic_gains(game_params):
    g = synth_game_finite(game_params, 30.0)
    assert np.all(g.P_bar[-1] == 0.0)
    assert np.all(g.s_hat[-1] == 0.0)
    assert np.all(g.P[-1] == 0.0)
    assert abs(g.P_bar_at(0.0)[0, 0] - PBAR_STAR) < 1e-10
    assert abs(g.s_hat_at(0.0)[0] - SHAT_STAR) < 1e-10
    assert abs(g.P_at(0.0)[0, 0] - P_STAR) < 1e-10
    assert abs(g.x_bar_at(15.0)[0] - XBAR_GAME) < 1e-5
    assert g.meta["solvability_min_det"] > 0.5
    assert g.meta["solvability_marginal"] is False


def test_finite_horizon_with_dynamic_coupling(social_params):
    # G != 0 is only available on finite horizons; check the mean path solves
    # its own ODE (central differences against the stored gains).
    g = synth_game_finite(social_params, 10.0)
    p = social_params
    S = p.B @ np.linalg.solve(p.R, p.B.T)
    h = g.grid[1] - g.grid[0]
    for k in (200, 1000, 1800):
        lhs = (g.x_bar[k + 1] - g.x_bar[k - 1]) / (2.0 * h)
        rhs = ((p.A + p.G - S @ g.P_bar[k]) @ g.x_bar[k]
               - S @ g.s_hat[k] + p.f_at(g.grid[k]))
        assert np.max(np.abs(lhs - rhs)) < 1e-4


def test_insolvable_horizon_is_reported_before_blowup():
    p = scalar_params(G=0.0, Gamma=3.0)
    with pytest.raises(FiniteHorizonInsolvableError, match="time-to-go"):
        synth_game_finite(p, 20.0)
    # short horizons stay on the good side of the conjugate point
    g = synth_game_finite(p, 0.5)
    assert np.isfinite(g.P_bar).all()


def test_person_by_person_route_matches(homogeneous_params):
    r = representation_check_social(homogeneous_params)
    assert r.passed
    assert r.problem == "social" and r.gain_label == "K_bar"
    # independent quadratic: K_bar = Pi - P with Pi = 0.7 + sqrt(1.93)
    expected = (0.7 + math.sqrt(1.93)) - P_STAR
    assert r.gain[0, 0] == pytest.approx(expected, abs=1e-10)
    assert r.gain_identity_diff < 1e-12
    assert r.offset_diff < 1e-12
    assert r.path_diff < 1e-10
    assert r.trajectory_diff < 1e-10


def test_fixed_point_route_matches(homogeneous_params):
    r = representation_check_game(homogeneous_params)
    assert r.passed
    assert r.gain_label == "K_star"
    assert r.gain[0, 0] == pytest.approx(PBAR_STAR - P_STAR, abs=1e-10)
    assert r.gain_identity_diff < 1e-12
    assert r.offset_diff < 1e-12
    assert r.path_diff < 1e-10
    assert r.trajectory_diff < 1e-10
    d = r.to_dict()
    json.dumps(d)
    assert d["passed"] is True


def test_unsupported_configurations_raise(social_params, game_params):
    with pytest.raises(UnsupportedModelError):
        synth_game_infinite(social_params)          # G != 0
    with pytest.raises(UnsupportedModelError):
        representation_check_social(game_params)    # f != 0
    with pytest.raises(UnsupportedModelError):
        representation_check_game(scalar_params(f=0.0))  # G != 0


def test_callable_forcing_falls_back_to_backward_pass(game_params):
    g = synth_game_infinite(game_params.replace(f=lambda t: np.array([1.0])))
    assert g.s_hat.ndim == 2
    assert abs(g.s_hat_at(0.0)[0] - SHAT_STAR) < 1e-10


def test_gains_serialize_to_plain_containers(game_params):
    d = synth_game_infinite(game_params).to_dict()
    for key in ("horizon", "grid", "P", "P_bar", "s_hat", "x_bar", "x_bar_tail"):
        assert key in d
    json.dumps(d)


def test_infinite_singular_offset_is_infeasible():
    # Gamma = I zeroes the consistency weight, so P_bar = 0, the closed loop is
    # A and its eigenvalue 0.6 sits exactly at the discount rate
    p = ModelParams(A=np.diag([0.3, 0.6]), B=np.eye(2), G=np.zeros((2, 2)),
                    Q=np.eye(2), R=np.eye(2), Gamma=np.eye(2), eta=[0.0, 0.0],
                    rho=0.6, f=[0.0, 0.0], sigma=[0.1, 0.1], x_bar0=[1.0, 1.0],
                    init_cov=np.zeros((2, 2)))
    with pytest.raises(MeanFieldInfeasibleError, match="offset equation singular"):
        synth_game_infinite(p)


def _best_response_mean(params, x_bar_of, T, grid):
    """Mean of one agent's best response to the mean path ``x_bar_of(t)`` on
    [0, T], sampled on ``grid``: the agent's own tracking problem solved by
    ``solve_ivp``, no package synthesis involved.

    The agent pays e^{-rho t} (|x - Gamma x_bar - eta|_Q^2 + |u|_R^2) under
    dx = (A x + B u + G x_bar + f) dt + sigma dW; its optimal control is
    u = -R^{-1} B^T (P x + q) with, backward from zero terminal data,
    rho P = P' + A^T P + P A - P S P + Q and
    rho q = q' + (A - S P)^T q + P (G x_bar + f) - Q (Gamma x_bar + eta).
    """
    from scipy.integrate import solve_ivp

    A, G, Q, Gam, eta, rho = (params.A, params.G, params.Q, params.Gamma, params.eta,
                              params.rho)
    n = params.n
    S = params.B @ np.linalg.solve(params.R, params.B.T)

    def backward(t, y):
        P, q = y[:n * n].reshape(n, n), y[n * n:]
        xb = x_bar_of(t)
        dP = rho * P - A.T @ P - P @ A + P @ S @ P - Q
        dq = rho * q - (A - S @ P).T @ q - P @ (G @ xb + params.f_at(t)) + Q @ (Gam @ xb + eta)
        return np.concatenate((dP.ravel(), dq))

    adj = solve_ivp(backward, (T, 0.0), np.zeros(n * n + n), rtol=1e-11, atol=1e-12,
                    dense_output=True)

    def forward(t, m):
        y = adj.sol(t)
        P, q = y[:n * n].reshape(n, n), y[n * n:]
        return (A - S @ P) @ m - S @ q + G @ x_bar_of(t) + params.f_at(t)

    fwd = solve_ivp(forward, (0.0, grid[-1]), params.x_bar0, t_eval=grid, rtol=1e-11,
                    atol=1e-12)
    return fwd.y.T


@pytest.mark.parametrize("horizon, G", [
    ("finite", None),
    ("finite", np.zeros((2, 2))),
    ("infinite", np.zeros((2, 2))),
], ids=["finite-G", "finite-G0", "infinite-G0"])
def test_planar_mean_path_is_a_best_response_fixed_point(horizon, G):
    # the equilibrium mean path must be reproduced by the mean of one agent's
    # best response to it; with a nonsymmetric P_bar this pins the offset's
    # closed loop A - S P_bar^T
    from scipy.interpolate import CubicSpline

    params = planar_model() if G is None else planar_model(G=G)
    if horizon == "finite":
        gains, T_br, tol = synth_game_finite(params, 5.0), 5.0, 1e-8
    else:
        # the best response truncated at 40: its own truncation error on
        # [0, 5] is ~2e-7
        gains, T_br, tol = synth_game_infinite(params), 40.0, 1e-5
    assert np.max(np.abs(gains.P_bar_at(0.0) - gains.P_bar_at(0.0).T)) > 0.1
    spline = CubicSpline(gains.grid, gains.x_bar)
    end = gains.grid[-1]
    x_bar_of = lambda t: spline(t) if t <= end else gains.x_bar_tail
    grid = gains.grid[gains.grid <= 5.0]
    x_br = _best_response_mean(params, x_bar_of, T_br, grid)
    assert np.max(np.abs(x_br - gains.x_bar[:grid.size])) < tol


@settings(max_examples=12, deadline=None)
@given(n=hst.integers(1, 3), gamma=hst.sampled_from(["diagonal", "full"]),
       seed=hst.integers(0, 2**32 - 1))
def test_random_mean_path_is_a_best_response_fixed_point(n, gamma, seed):
    # random models with non-zero f, eta, x_bar0 and G; a full Gamma makes
    # P_bar nonsymmetric
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n + 1))
    Gamma = 0.8 * rng.standard_normal((n, n))
    M = rng.standard_normal((n, n))
    params = ModelParams(
        A=0.5 * rng.standard_normal((n, n)), B=rng.standard_normal((n, r)),
        G=0.3 * rng.standard_normal((n, n)), Q=M @ M.T + 0.1 * np.eye(n),
        R=np.diag(rng.uniform(0.5, 2.0, r)),
        Gamma=np.diag(np.diag(Gamma)) if gamma == "diagonal" else Gamma,
        eta=rng.standard_normal(n), rho=0.6, f=rng.standard_normal(n),
        sigma=0.1 * np.ones(n), x_bar0=rng.standard_normal(n), init_cov=0.5 * np.eye(n))
    try:
        gains = synth_game_finite(params, 2.0)
    except MFLQError:
        gains = None
    assume(gains is not None)
    x_br = _best_response_mean(params, CubicSpline(gains.grid, gains.x_bar), 2.0, gains.grid)
    assert np.max(np.abs(x_br - gains.x_bar)) <= 1e-8 * (1.0 + np.max(np.abs(gains.x_bar)))
