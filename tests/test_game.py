"""Competitive synthesis: the consistency-equation gains, equilibrium offset,
mean path, and the two representation equivalences."""

import json
import math

import numpy as np
import pytest

from conftest import scalar_params
from mflq import ModelParams
from mflq.errors import (
    FiniteHorizonInsolvableError,
    MeanFieldInfeasibleError,
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
