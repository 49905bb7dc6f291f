"""Cooperative synthesis: algebraic gains, tracking offset, mean-field path,
and the population-optimal control laws."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from conftest import planar_model, scalar_params
from mflq import ModelParams
from mflq import model, riccati, sim, social
from mflq.errors import MeanFieldInfeasibleError, ModelValidationError, RiccatiBlowUpError
from mflq.game import synth_game_finite, synth_game_infinite
from mflq.model import TimePath, control_gain_matrix, derived_weights
from mflq.riccati import (
    _offset_slope,
    _riccati_slope,
    _rk4_step,
    default_grid,
    hermite_midpoints,
    integrate_backward,
)
from mflq.sim import SimConfig, TrajectoryBundle, draw_agents, evaluate_costs, simulate
from mflq.social import (
    _default_infinite_horizon,
    _settle_mean_field,
    centralized_law,
    social_law,
    synth_social_finite,
    synth_social_infinite,
)
from oracles import adjoint_coefficients

# Scalar benchmark (A = 1): closed forms for the two quadratics.
#   P:  p^2 - 2*(A - rho/2)*p - Q = 0      -> 0.7 + sqrt(1.49)
#   Pi: p^2 - 2*(A + G - rho/2)*p - Q_hat = 0, Q_hat = 1.44 -> 0.5 + 1.3 = 1.8
P_STAR = 0.7 + math.sqrt(1.49)          # 1.9206555615733703
PI_STAR = 1.8
S_STAR = -2.625                          # (rho - Acl) s = Pi f - eta_bar, Acl = -1
XBAR_STAR = 3.625                        # Acl x + (f - S s) = 0


def test_infinite_scalar_benchmark(social_params):
    g = synth_social_infinite(social_params)
    assert g.horizon == "infinite"
    assert abs(g.P[0, 0] - P_STAR) < 1e-10
    assert abs(g.Pi[0, 0] - PI_STAR) < 1e-10
    assert abs(g.K[0, 0] - (PI_STAR - P_STAR)) < 1e-10
    assert abs(g.s[0] - S_STAR) < 1e-10
    assert abs(g.x_bar_tail[0] - XBAR_STAR) < 1e-10
    assert g.meta["P_rho_stabilizing"] is True
    assert g.meta["Pi_rho_stabilizing"] is True
    # truncation horizon chosen so the discounted tail weight hits tail_tol
    assert g.meta["tail_weight"] == pytest.approx(1e-8, rel=1e-6)


def test_default_infinite_horizon_clipping():
    assert _default_infinite_horizon(0.6) == pytest.approx(math.log(1e8) / 0.6)
    assert _default_infinite_horizon(5.0) == 20.0
    assert _default_infinite_horizon(0.01) == 200.0


def test_finite_horizon_terminal_data_and_limits(social_params):
    g = synth_social_finite(social_params, 30.0)
    assert g.horizon == "finite"
    assert np.all(g.P[-1] == 0.0)
    assert np.all(g.Pi[-1] == 0.0)
    assert np.all(g.s[-1] == 0.0)
    # far from the terminal time the backward pass settles on the algebraic gains
    assert abs(g.P_at(0.0)[0, 0] - P_STAR) < 1e-10
    assert abs(g.Pi_at(0.0)[0, 0] - PI_STAR) < 1e-10
    assert abs(g.s_at(0.0)[0] - S_STAR) < 1e-10
    # the mean path rides the steady state in the interior of the horizon
    assert abs(g.x_bar_at(15.0)[0] - XBAR_STAR) < 1e-5
    assert g.x_bar[0, 0] == 5.0


@pytest.mark.parametrize("steps", [0, True, -3, 2.5, "5"])
@pytest.mark.parametrize("synth", [synth_social_finite, synth_game_finite])
def test_finite_synthesis_refuses_a_step_count_that_is_not_a_positive_integer(synth, steps):
    # default_grid is the one grid, and only None means its default step count
    with pytest.raises(ModelValidationError, match=r"need an integer steps >= 1"):
        synth(scalar_params(G=0.0), 1.0, steps=steps)


def test_finite_matches_independent_backward_solvers(social_params):
    p = social_params
    w = derived_weights(p)
    S = control_gain_matrix(p.B, p.R)
    g = synth_social_finite(p, 30.0)
    AG = p.A + p.G
    P_sep = integrate_backward(lambda X: _riccati_slope(p.rho, p.A, p.A, S, p.Q, X),
                               np.zeros((1, 1)), g.grid)
    Pi_sep = integrate_backward(lambda X: _riccati_slope(p.rho, AG, AG, S, w.Q_hat, X),
                                np.zeros((1, 1)), g.grid)
    assert np.max(np.abs(g.P - P_sep)) < 1e-10
    assert np.max(np.abs(g.Pi - Pi_sep)) < 1e-10
    assert np.max(np.abs(g.K - (Pi_sep - P_sep))) < 1e-10


def test_accessors_interpolate_between_grid_points(social_params):
    g = synth_social_finite(social_params, 30.0)
    tm = 0.5 * (g.grid[0] + g.grid[1])
    assert g.P_at(tm)[0, 0] == pytest.approx(0.5 * (g.P[0, 0, 0] + g.P[1, 0, 0]))
    # infinite-horizon accessor returns the settled tail beyond the grid
    gi = synth_social_infinite(social_params)
    assert gi.x_bar_at(1e9)[0] == pytest.approx(XBAR_STAR, abs=1e-10)


def test_callable_constant_forcing_matches_linear_solve(social_params):
    p = social_params.replace(f=lambda t: np.array([1.0]))
    assert not p.constant_forcing  # forces the backward-integration branch
    g = synth_social_infinite(p)
    assert g.s.ndim == 2
    assert abs(g.s_at(0.0)[0] - S_STAR) < 1e-10


def test_degenerate_tracking_requires_matching_initial_mean():
    # Gamma = 1 kills the averaged weight, the closed loop stops decaying in
    # the discounted norm, and only one initial mean admits a bounded path.
    p = scalar_params(A=0.5, Gamma=1.0, eta=0.0)
    with pytest.raises(MeanFieldInfeasibleError) as err:
        synth_social_infinite(p)
    assert err.value.required_x0 == pytest.approx([-10.0 / 3.0])
    g = synth_social_infinite(p.replace(x_bar0=-10.0 / 3.0))
    assert g.x_bar_tail == pytest.approx([-10.0 / 3.0])
    assert np.max(np.abs(g.x_bar + 10.0 / 3.0)) < 1e-8


def test_settle_mean_field_without_steady_state():
    with pytest.raises(MeanFieldInfeasibleError, match="no admissible"):
        _settle_mean_field(np.zeros((1, 1)), np.array([1.0]), np.array([0.0]), 0.0)


def test_a_non_finite_mean_path_is_a_numerical_error():
    # A = 1e160 has algebraic roots, but the mean path they drive overflows
    # at the first step: an error naming that time, not gains whose path is
    # all NaN past t = 0
    with pytest.raises(RiccatiBlowUpError, match="mean-field path is not finite at t=") as info:
        synth_social_infinite(scalar_params(A=1e160))
    assert info.value.category == "numerical"
    assert info.value.t_escape == default_grid(_default_infinite_horizon(0.6))[1]


def test_a_mean_path_beyond_1e12_is_a_solution():
    # the forward pass has no cap: only a non-finite path is refused
    g = synth_social_finite(scalar_params(x_bar0=1e13), T=1.0, steps=50)
    assert np.all(np.isfinite(g.x_bar)) and np.max(np.abs(g.x_bar)) > 1e12


@pytest.mark.parametrize("synth, G", [(synth_social_infinite, -0.2), (synth_game_infinite, 0.0)],
                         ids=["social", "game"])
def test_infinite_mean_path_keeps_rk4_order_under_time_varying_forcing(monkeypatch, synth, G):
    # x_bar at 2,000 and 4,000 steps against a 32,000-step reference: with the
    # offset sampled at RK4 midpoints from its exact slopes, halving the step
    # cuts the error about 16-fold (a linearly interpolated offset gives 4)
    p = scalar_params(G=G, f=lambda t: np.array([1.0 + 0.5 * np.sin(t)]))
    paths = {}
    for steps in (2000, 4000, 32000):
        monkeypatch.setattr(riccati, "_DEFAULT_STEPS", steps)
        paths[steps] = synth(p).x_bar
    err = [np.max(np.abs(paths[k] - paths[32000][::32000 // k])) for k in (2000, 4000)]
    assert err[0] / err[1] >= 12.0


def test_trivial_tracking_reduces_to_plain_lq():
    p = scalar_params(G=0.0, Gamma=0.0, eta=0.0, f=0.0, x_bar0=2.0, init_cov=0.0)
    g = synth_social_infinite(p)
    assert abs(g.K[0, 0]) < 1e-12
    assert abs(g.s[0]) < 1e-12
    assert abs(g.Pi[0, 0] - g.P[0, 0]) < 1e-12
    assert abs(g.x_bar_tail[0]) < 1e-10


def test_control_laws_scalar_benchmark(social_params):
    g = synth_social_infinite(social_params)
    law = social_law(g)
    assert law.x_bar_at(1e9) == pytest.approx([XBAR_STAR])
    # at the settled mean the feedback holds the population in place
    u_ss = law(1e9, np.array([XBAR_STAR]))
    assert u_ss.shape == (1,) and u_ss == pytest.approx([-3.9], abs=1e-10)
    # batched evaluation agrees with the single-state call
    batch = law(1e9, np.array([[XBAR_STAR], [1.0]]))
    assert batch.shape == (2, 1)
    assert batch[0] == pytest.approx(u_ss)
    # the centralized law reads the realized average, 0 for agents at +-1
    claw = centralized_law(g)
    u_c = claw(1e9, np.array([[1.0], [-1.0]]))
    assert u_c[0] == pytest.approx([-(P_STAR + S_STAR)], abs=1e-10)  # 0.70434...
    # a lone agent averages to itself, as a state (n,) or a block (1, n)
    expected = -(P_STAR + (PI_STAR - P_STAR) + S_STAR)  # 0.825
    u_lone = claw(1e9, np.array([1.0]))
    assert u_lone.shape == (1,) and u_lone == pytest.approx([expected])
    assert np.array_equal(claw(1e9, np.array([[1.0]])), u_lone[None])


def test_adjoint_coefficients_scale_with_population(social_params, planar_params):
    # one Euler-Maruyama step of the centralized law, from the same state with
    # draws xi and with sigma = 0: the adjoint y_i = P x_i + K x^(N) + s moves
    # by sqrt(dt) (beta_self xi_i + beta_cross sum_{j != i} xi_j)
    for params in (social_params, planar_params):
        g = synth_social_infinite(params)
        for N in (1, 3, 50):
            beta_self, beta_cross = adjoint_coefficients(g, N)
            cfg = SimConfig(N=N, dt=0.04, T=0.04, seed=N)
            _, xi = draw_agents(params, cfg)

            def adjoint(p):
                X = simulate(p, centralized_law(g), cfg).states[1]
                return X @ g.P.T + X.mean(axis=0) @ g.K.T + g.s

            dy = adjoint(params) - adjoint(params.replace(sigma=np.zeros(params.n)))
            own, others = xi[0], xi[0].sum() - xi[0]
            want = np.sqrt(cfg.dt) * (own[:, None] * beta_self + others[:, None] * beta_cross)
            assert np.max(np.abs(dy - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        adjoint_coefficients(
            synth_social_infinite(social_params.replace(sigma=lambda t: np.array([0.1]))), 50)


def test_planar_infinite_consistency(planar_params):
    p = planar_params
    g = synth_social_infinite(p)
    S = control_gain_matrix(p.B, p.R)
    w = derived_weights(p)
    AG = p.A + p.G
    res_P = p.rho * g.P - p.A.T @ g.P - g.P @ p.A + g.P @ S @ g.P - p.Q
    res_Pi = p.rho * g.Pi - AG.T @ g.Pi - g.Pi @ AG + g.Pi @ S @ g.Pi - w.Q_hat
    assert np.max(np.abs(res_P)) < 1e-10
    assert np.max(np.abs(res_Pi)) < 1e-10
    assert np.array_equal(g.P, g.P.T)
    assert np.array_equal(g.Pi, g.Pi.T)
    Acl = AG - S @ g.Pi
    res_s = (p.rho * np.eye(2) - Acl.T) @ g.s - (g.Pi @ p.f_at(0.0) - w.eta_bar)
    res_tail = Acl @ g.x_bar_tail - S @ g.s + p.f_at(0.0)
    assert np.max(np.abs(res_s)) < 1e-10
    assert np.max(np.abs(res_tail)) < 1e-10


def test_gains_serialize_to_plain_containers(social_params):
    import json

    g = synth_social_infinite(social_params)
    d = g.to_dict()
    for key in ("horizon", "grid", "P", "Pi", "K", "s", "x_bar", "x_bar_tail"):
        assert key in d
    json.dumps(d)  # nothing numpy-typed left behind


# ---------------------------------------------------------------------------
# optimality: the synthesized feedback against the exact discrete optimum
# ---------------------------------------------------------------------------

def _rollout_cost(params, x0, T, steps, useq):
    """Deterministic Euler rollout of the stacked population plus the
    discounted trapezoid cost, for an arbitrary piecewise-constant control."""
    from scipy.integrate import trapezoid

    N, n = x0.shape
    dt = T / steps
    grid = np.linspace(0.0, T, steps + 1)
    X = x0.copy()
    states = np.empty((steps + 1, N, n))
    states[0] = X
    for k in range(steps):
        avg = X.mean(axis=0)
        X = X + (X @ params.A.T + useq[k] @ params.B.T + avg @ params.G.T
                 + params.f_at(grid[k])) * dt
        states[k + 1] = X
    U = np.concatenate([useq, np.zeros((1, N, params.r))])
    ref = states.mean(axis=1) @ params.Gamma.T
    D = states - ref[:, None, :] - params.eta
    integ = (np.einsum("kin,nm,kim->ki", D, params.Q, D)
             + np.einsum("kin,nm,kim->ki", U, params.R, U))
    disc = np.exp(-params.rho * grid)
    return float(trapezoid(disc[:, None] * integ, grid, axis=0).sum())


def _discrete_optimum(params, x0, T, steps):
    """Exact minimizer of the discretized social cost.

    The rollout is affine in the stacked control sequence, so the cost is a
    convex quadratic; recover (H, g) by finite differences -- exact for a
    quadratic -- and solve the normal equations.  No Riccati machinery.
    """
    N = x0.shape[0]
    m = steps * N * params.r

    def J(u):
        return _rollout_cost(params, x0, T, steps, u.reshape(steps, N, params.r))

    J0 = J(np.zeros(m))
    e = np.eye(m)
    Je = np.array([J(e[i]) for i in range(m)])
    H = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            Jij = J(e[i] + e[j])
            H[i, j] = H[j, i] = Jij - Je[i] - Je[j] + J0
    gvec = Je - J0 - 0.5 * np.diag(H)
    u_star = np.linalg.solve(H, -gvec)
    return J(u_star)


def test_centralized_law_approaches_discrete_optimum():
    # sigma = 0, N = 2: compare the sampled continuous-time feedback against
    # the exact optimum of the discretized problem.  The gap is pure time
    # discretization and must shrink as the step is refined.
    p = scalar_params(sigma=0.0, x_bar0=4.0, init_cov=0.0)
    x0 = np.array([[5.0], [3.0]])
    T = 1.0
    rel_gaps = []
    for steps in (4, 8, 16):
        gains = synth_social_finite(p, T, steps=steps)
        cfg = SimConfig(N=2, dt=T / steps, T=T, replications=1, seed=0)
        law, times = centralized_law(gains), cfg.grid().tolist()
        # the fixed x0 is no draw of the model, so the stepper takes it directly
        (_, states, controls), = sim._steps(p, lambda k, X, x: law(times[k], X), cfg,
                                            np.zeros((steps, 2)), x0, steps + 1)
        controls[-1] = 0.0  # match the zero-terminal control class
        bundle = TrajectoryBundle(grid=cfg.grid(), states=states, controls=controls,
                                  avg=social._average(states)[:, 0])
        ours = evaluate_costs(bundle, p, "finite").J_soc
        exact = _discrete_optimum(p, x0, T, steps)
        assert ours >= exact - 1e-9  # the exact optimum is a hard floor
        rel_gaps.append((ours - exact) / exact)
    assert rel_gaps[0] > rel_gaps[1] > rel_gaps[2]
    assert rel_gaps[2] < 0.03


_SAMPLED_F = TimePath([0.0, 5.0, 40.0], [[1.0], [2.0], [0.5]])


@pytest.mark.parametrize("synth, params", [
    (lambda p: synth_social_finite(p, 2.0), scalar_params()),
    (synth_social_infinite, scalar_params()),
    (lambda p: synth_social_finite(p, 2.0), planar_model()),
    (synth_social_infinite, planar_model()),
    (synth_social_infinite, scalar_params(f=_SAMPLED_F)),
    (lambda p: synth_game_finite(p, 2.0), scalar_params(G=0.0)),
    (synth_game_infinite, scalar_params(G=0.0)),
    (lambda p: synth_game_finite(p, 2.0), planar_model()),
    (synth_game_infinite, planar_model(G=np.zeros((2, 2)))),
    (synth_game_infinite, scalar_params(G=0.0, f=_SAMPLED_F)),
], ids=["social-finite-scalar", "social-infinite-scalar", "social-finite-planar",
        "social-infinite-planar", "social-infinite-sampled-f", "game-finite-scalar",
        "game-infinite-scalar", "game-finite-planar", "game-infinite-planar",
        "game-infinite-sampled-f"])
def test_gains_from_dict_inverts_to_dict_bitwise(synth, params):
    gains = synth(params)
    back = type(gains).from_dict(json.loads(json.dumps(gains.to_dict())), params)
    assert type(back) is type(gains) and back.horizon == gains.horizon
    assert back.params is params and back.meta == gains.meta
    for name in ("grid", "x_bar", "x_bar_tail", *gains._ARRAYS):
        want, got = getattr(gains, name), getattr(back, name)
        if want is None:
            assert got is None
        else:
            assert got.dtype == float and got.shape == want.shape
            assert np.array_equal(got, want), name
    if callable(params.f):   # a sampled forcing gives an offset path on the infinite horizon
        assert getattr(back, back._OFFSET).ndim == 2


def _random_model(n, sampled, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    f = (TimePath([0.0, 0.4, 0.9, 3.0], rng.standard_normal((4, n))) if sampled
         else rng.standard_normal(n))
    return ModelParams(A=0.3 * rng.standard_normal((n, n)) - 0.5 * np.eye(n),
                       B=rng.standard_normal((n, 1)) + 0.5, G=0.2 * rng.standard_normal((n, n)),
                       Q=M @ M.T + np.eye(n), R=[[1.3]], Gamma=0.3 * rng.standard_normal((n, n)),
                       eta=rng.standard_normal(n), rho=0.4, f=f, sigma=np.ones(n),
                       x_bar0=rng.standard_normal(n), init_cov=np.eye(n))


def _per_equation_synthesis(params, problem, T, steps):
    """The finite-horizon synthesis with P's and X's equations each
    evaluated on its own in the backward pass, the offset stepped on that
    pass's own X path, and the mean path's drift sampled one step at a time:
    (P, X, s, x_bar) paths."""
    w = derived_weights(params)
    A, Q, rho, n = params.A, params.Q, params.rho, params.n
    S, AG, nn = control_gain_matrix(params.B, params.R), params.A + params.G, n * n
    A1, W, e = (AG, w.Q_hat, w.eta_bar) if problem == "social" else (A, w.Q_IG, Q @ params.eta)
    grid = default_grid(T, steps)

    def slopes(X, s, f):
        return (_riccati_slope(rho, A1, AG, S, W, X),
                _offset_slope(rho, A1 - S @ np.swapaxes(X, -1, -2), s,
                              (X @ f[..., None])[..., 0] - e))

    def slope(y):
        P, X = y[:nn].reshape(n, n), y[nn:].reshape(n, n)
        return np.concatenate((_riccati_slope(rho, A, A, S, Q, P),
                               _riccati_slope(rho, A1, AG, S, W, X)), axis=None)

    ys = integrate_backward(slope, np.zeros(2 * nn), grid)
    P, X = ys[:, :nn].reshape(-1, n, n), ys[:, nn:].reshape(-1, n, n)
    s = social._offset_path(params, grid, S, A1, e, X,
                            lambda X: _riccati_slope(rho, A1, AG, S, W, X))
    P = 0.5 * (P + np.transpose(P, (0, 2, 1)))
    if problem == "social":
        X = 0.5 * (X + np.transpose(X, (0, 2, 1)))
    dX, ds = slopes(X, s, np.array([params.f_at(t) for t in grid]))
    X_mid = hermite_midpoints(grid, X, dX)
    # the drift one grid time and one midpoint at a time
    Acl = np.array([AG - S @ X[k] for k in range(grid.size)])
    Acl_mid = np.array([AG - S @ X_mid[k] for k in range(grid.size - 1)])
    x_bar = social._mean_path(params, grid, S, Acl, Acl_mid, s, ds)
    return P, X, s, x_bar


@pytest.mark.parametrize("sampled", [False, True], ids=["constant-f", "sampled-f"])
@pytest.mark.parametrize("problem", ["social", "game"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_backward_pass_equals_per_equation_pass(n, problem, sampled):
    # the backward pass steps P's and X's equations as one (2, n, n) stack and
    # builds the mean path's drift samples at once; the paths are bitwise
    # those of one equation at a time and one drift sample per step
    params = _random_model(n, sampled, seed=10 * n + sampled)
    synth = synth_social_finite if problem == "social" else synth_game_finite
    gains = synth(params, 1.0, steps=40)
    want = _per_equation_synthesis(params, problem, 1.0, 40)
    got = (gains.P, getattr(gains, gains._ROOT), getattr(gains, gains._OFFSET), gains.x_bar)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def _coupled_offset(params, gains, problem):
    """The offset of ``gains`` stepped the way the synthesis once stepped it:
    classical RK4 on the coupled pair (X, s) one grid step at a time, from
    grid[-1] down, f sampled at each stage time.  On the infinite horizon X
    is the constant root and s starts from the gains' own terminal value."""
    w = derived_weights(params)
    rho, n, S = params.rho, params.n, control_gain_matrix(params.B, params.R)
    AG = params.A + params.G
    A1, W, e = ((AG, w.Q_hat, w.eta_bar) if problem == "social"
                else (params.A, w.Q_IG, params.Q @ params.eta))
    finite, grid = gains.horizon == "finite", gains.grid
    X0 = np.zeros((n, n)) if finite else getattr(gains, gains._ROOT)

    def rhs(t, X, s):
        dX = rho * X - A1.T @ X - X @ AG + X @ S @ X - W if finite else 0.0 * X
        ds = rho * s - (A1 - S @ X.T).T @ s - (X @ params.f_at(t) - e)
        return dX, ds

    X, s = X0, getattr(gains, gains._OFFSET)[-1]
    out = [s]
    for k in range(grid.size - 1, 0, -1):
        t, h = grid[k], grid[k - 1] - grid[k]
        kX1, ks1 = rhs(t, X, s)
        kX2, ks2 = rhs(t + h / 2, X + h / 2 * kX1, s + h / 2 * ks1)
        kX3, ks3 = rhs(t + h / 2, X + h / 2 * kX2, s + h / 2 * ks2)
        kX4, ks4 = rhs(t + h, X + h * kX3, s + h * ks3)
        X = X + h / 6 * (kX1 + 2 * kX2 + 2 * kX3 + kX4)
        s = s + h / 6 * (ks1 + 2 * ks2 + 2 * ks3 + ks4)
        out.append(s)
    return np.array(out[::-1])


_OFFSET_CASES = [(synth, n, sampled) for synth in (synth_social_finite, synth_game_finite)
                 for n in (1, 2, 3) for sampled in (False, True)] + [
                (synth, n, True) for synth in (synth_social_infinite, synth_game_infinite)
                for n in (1, 2, 3)]


@pytest.mark.parametrize("synth, n, sampled", _OFFSET_CASES,
                         ids=[f"{s.__name__}-n{n}-{'sampled' if f else 'constant'}-f"
                              for s, n, f in _OFFSET_CASES])
def test_the_offset_maps_step_the_offset_of_the_coupled_pass(synth, n, sampled):
    # the offset is affine given X, so each backward step is a map from X's
    # recomputed stage states: the same RK4 as stepping (X, s) together,
    # reassociated, so within 1e-13 of its scale
    params = _random_model(n, sampled, seed=10 * n + sampled)
    problem = "social" if "social" in synth.__name__ else "game"
    if synth in (synth_social_infinite, synth_game_infinite):
        gains = synth(params.replace(G=np.zeros((n, n))))
    else:
        gains = synth(params, 1.0, steps=100)
    got = getattr(gains, gains._OFFSET)
    want = _coupled_offset(gains.params, gains, problem)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("synth, G, t_escape, what",
                         [(synth_social_finite, -0.2, 4.63, "cooperative Riccati"),
                          (synth_game_finite, 0.0, 4.62, "consistency Riccati")],
                         ids=["social", "game"])
def test_an_offset_past_the_cap_escapes_where_the_coupled_pass_did(synth, G, t_escape, what):
    # a forcing of 1e13 leaves the Riccati equations bounded, but drives the
    # offset past 1e12 a few dozen steps before T; the step maps report the
    # time at which the coupled (P, X, s) pass escaped
    assert np.max(np.abs(synth(scalar_params(G=G), 5.0, steps=500).P)) < 10.0
    with pytest.raises(RiccatiBlowUpError,
                       match=rf"^backward {what} integration escaped the cap 1e\+12 at t=") as exc:
        synth(scalar_params(G=G, f=1e13), 5.0, steps=500)
    assert exc.value.t_escape == t_escape


def test_a_synthesis_samples_a_time_path_forcing_a_fixed_number_of_times(monkeypatch):
    # the backward pass tabulates f at all its stage times in one call, so
    # the number of _interp calls on the forcing's grid does not grow with
    # the steps: one for the stage times, one for the grid times and two for
    # the mean path; the infinite horizon's time-varying offset pass adds
    # the value at the horizon
    params = _random_model(2, True, seed=21).replace(G=np.zeros((2, 2)))
    grids = []
    interp = model._interp
    monkeypatch.setattr(model, "_interp",
                        lambda grid, values, t: grids.append(grid) or interp(grid, values, t))

    def calls(synth, *args, **kwargs):
        grids.clear()
        synth(params, *args, **kwargs)
        return sum(grid is params.f.grid for grid in grids)

    for synth in (synth_social_finite, synth_game_finite):
        assert calls(synth, 1.0, steps=40) == calls(synth, 1.0, steps=400) == 4
    assert calls(synth_social_infinite) == 5


@pytest.mark.parametrize("horizon", ["finite", "infinite"])
def test_mean_path_at_an_array_of_times_is_each_one_time_value(horizon):
    # x_bar_at(times) is the stacked x_bar_at(t), bit for bit; on the infinite
    # horizon every time from the grid's end on gives the tail
    params = _random_model(2, True, seed=3).replace(G=np.zeros((2, 2)))
    gains = synth_social_finite(params, 1.0, steps=40) if horizon == "finite" else \
        synth_social_infinite(params)
    grid = gains.grid
    times = np.concatenate((grid[:5], 0.5 * (grid[:5] + grid[1:6]), [grid[-1]],
                            np.linspace(grid[0], grid[-1], 7)))
    if horizon == "infinite":
        times = np.concatenate((times, [grid[-1] * 1.5, np.inf]))
        assert np.array_equal(gains.x_bar_at(times)[-3:], np.tile(gains.x_bar_tail, (3, 1)))
    table = gains.x_bar_at(times)
    assert table.shape == (times.size, 2)
    for row, t in zip(table, times.tolist()):
        assert np.array_equal(row, gains.x_bar_at(t))


def _loop_mean_path(params, grid, S, Acl, Acl_mid, s, ds):
    """The mean path as one ``_rk4_step`` per grid step on x itself, the
    slopes Acl x + c written out at each step's left end, midpoint and right
    end: the reference for ``social._mean_path``'s step maps."""
    K, n = grid.size - 1, params.n
    Acl, Acl_mid = np.broadcast_to(Acl, (K + 1, n, n)), np.broadcast_to(Acl_mid, (K, n, n))
    s, ds = np.broadcast_to(s, (K + 1, n)), np.broadcast_to(ds, (K + 1, n))
    c = np.array([params.f_at(t) for t in grid]) - (S @ s[..., None])[..., 0]
    c_mid = (np.array([params.f_at(t) for t in 0.5 * (grid[:-1] + grid[1:])])
             - (S @ hermite_midpoints(grid, s, ds)[..., None])[..., 0])
    out = np.empty((K + 1, n))
    x = out[0] = params.x_bar0
    for k in range(K):
        A = (Acl[k], Acl_mid[k], Acl_mid[k], Acl[k + 1])
        b = (c[k], c_mid[k], c_mid[k], c[k + 1])
        x = out[k + 1] = _rk4_step(lambda i, y: A[i] @ y + b[i], x, grid[k + 1] - grid[k])
    return out


def _mean_path_inputs(n, K, T, drift, offset, sampled, seed):
    """Arguments of ``social._mean_path`` for a random model on K steps of
    [0, T]: the drift and the offset each one constant or a table with one
    row per grid time (and midpoint, for the drift), the forcing constant or
    sampled."""
    rng = np.random.default_rng(seed)
    params = _random_model(n, sampled, seed)
    grid = default_grid(T, K)
    A = 0.5 * rng.standard_normal((n, n)) - 0.5 * np.eye(n)
    Acl = Acl_mid = A
    if drift == "table":
        Acl = A + 0.2 * rng.standard_normal((K + 1, n, n))
        Acl_mid = A + 0.2 * rng.standard_normal((K, n, n))
    s, ds = rng.standard_normal(n), 0.0
    if offset == "table":
        s, ds = rng.standard_normal((K + 1, n)), rng.standard_normal((K + 1, n))
    return params, grid, control_gain_matrix(params.B, params.R), Acl, Acl_mid, s, ds


_CHUNK = 8   # a map chunk small enough for the oracle to pass several


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 3), K=hst.integers(1, 3 * _CHUNK + 5), T=hst.sampled_from([0.5, 2.0, 5.0]),
       drift=hst.sampled_from(["constant", "table"]), offset=hst.sampled_from(["constant", "table"]),
       sampled=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
@example(n=2, K=_CHUNK, T=2.0, drift="table", offset="table", sampled=True, seed=1)
@example(n=3, K=2 * _CHUNK + 1, T=5.0, drift="table", offset="constant", sampled=False, seed=2)
def test_mean_path_step_maps_agree_with_a_step_at_a_time(n, K, T, drift, offset, sampled, seed):
    # the step maps reassociate each RK4 step's arithmetic, so the path moves
    # only in its last bits: within 1e-13 of its scale, from one step to past
    # two chunks of steps, a K the chunk does not divide included
    args = _mean_path_inputs(n, K, T, drift, offset, sampled, seed)
    want = _loop_mean_path(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(social, "_MAP_CHUNK", _CHUNK)
        got = social._mean_path(*args)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_mean_path_step_maps_agree_past_two_full_chunks():
    K = 2 * social._MAP_CHUNK + 3
    args = _mean_path_inputs(2, K, 20.0, "table", "table", True, seed=4)
    want = _loop_mean_path(*args)
    assert np.max(np.abs(social._mean_path(*args) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mean_path_does_not_depend_on_the_chunk(monkeypatch, n):
    # every step's map is built by itself, so the chunk size moves no bit
    args = _mean_path_inputs(n, 1000, 5.0, "table", "table", True, seed=n)
    whole = social._mean_path(*args)
    monkeypatch.setattr(social, "_MAP_CHUNK", 7)
    assert np.array_equal(social._mean_path(*args), whole)


def test_mean_path_memory_is_one_chunk_of_maps_not_every_step_s():
    # K = 200,000 steps at n = 2: besides a few (K+1, n) tables (the path,
    # the forcing rows and their temporaries) the mean path holds one
    # chunk's maps at a time.  Every step's maps at once (_MAP_CHUNK = K)
    # peak at about 142 MB here, where this bound is about 26 MB
    n, K = 2, 200_000
    args = _mean_path_inputs(n, K, 20.0, "constant", "constant", False, seed=5)
    tracemalloc.start()
    try:
        social._mean_path(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, generators = (K + 1) * n * 8, 3 * social._MAP_CHUNK * (n + 1) ** 2 * 8
    assert peak < 6 * rows + 8 * generators
