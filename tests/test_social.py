"""Cooperative synthesis: algebraic gains, tracking offset, mean-field path,
and the population-optimal control laws."""

import json
import math

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
from mflq.riccati import default_grid
from mflq.sim import SimConfig, TrajectoryBundle, draw_agents, evaluate_costs, simulate
from mflq.social import (
    _default_infinite_horizon,
    _settle_mean_field,
    centralized_law,
    social_law,
    synth_social_finite,
    synth_social_infinite,
)
from oracles import (
    adjoint_coefficients,
    exact_constant_root_offset,
    exact_finite_synthesis,
    forcing_pieces,
)

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
    # each Riccati equation solved on its own over the whole interval
    p = social_params
    g = synth_social_finite(p, 30.0)
    P_sep, Pi_sep, _, _ = exact_finite_synthesis(p, "social", g.grid, forcing_pieces(p.f))
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
    # forcing fitted by a quadratic through each step's ends and midpoint,
    # halving the step cuts the error about 16-fold (a linear fit gives 4)
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


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("sampled", [False, True], ids=["constant-f", "sampled-f"])
@pytest.mark.parametrize("problem", ["social", "game"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_backward_pass_equals_per_equation_pass(n, problem, sampled):
    # the backward pass steps P's and X's equations as one (2, n, n) stack of
    # exact steps; the paths are those of each equation solved on its own
    # over the whole interval, the sampled forcing's knots (0.4 and 0.9) on
    # the grid, to roundoff
    params = _random_model(n, sampled, seed=10 * n + sampled)
    synth = synth_social_finite if problem == "social" else synth_game_finite
    gains = synth(params, 1.0, steps=40)
    want = exact_finite_synthesis(params, problem, gains.grid, forcing_pieces(params.f))
    got = (gains.P, getattr(gains, gains._ROOT), getattr(gains, gains._OFFSET), gains.x_bar)
    for g, w in zip(got, want):
        assert g.shape == w.shape and _relative(g, w) <= 1e-11


def _quadratic_forcing(n, seed):
    """A forcing quadratic in t, as a callable and as its one oracle piece."""
    c = np.random.default_rng(seed).standard_normal((3, n)) * [[1.0], [0.5], [0.1]]
    return (lambda t: c[0] + c[1] * t + c[2] * t * t), [(0.0, c)]


_OFFSET_CASES = [(synth, n, sampled) for synth in (synth_social_finite, synth_game_finite)
                 for n in (1, 2, 3) for sampled in (False, True)] + [
                (synth, n, True) for synth in (synth_social_infinite, synth_game_infinite)
                for n in (1, 2, 3)]


@pytest.mark.parametrize("synth, n, sampled", _OFFSET_CASES,
                         ids=[f"{s.__name__}-n{n}-{'sampled' if f else 'constant'}-f"
                              for s, n, f in _OFFSET_CASES])
def test_the_offset_maps_step_the_offset_of_the_coupled_pass(synth, n, sampled):
    # the offset is affine given X, so each backward step is an affine map
    # of the (X, s) pair's exact flow: the offset of that pair solved over
    # the whole interval, to roundoff.  On the finite horizon the sampled
    # forcing's knots lie on the grid; on the infinite one X is the constant
    # root, s starts from the gains' own terminal value and the forcing is
    # quadratic in t, which every step fits exactly
    params = _random_model(n, sampled, seed=10 * n + sampled)
    problem = "social" if "social" in synth.__name__ else "game"
    if synth in (synth_social_infinite, synth_game_infinite):
        f, pieces = _quadratic_forcing(n, seed=n)
        gains = synth(params.replace(G=np.zeros((n, n)), f=f))
        got = getattr(gains, gains._OFFSET)
        want = exact_constant_root_offset(gains.params, problem, getattr(gains, gains._ROOT),
                                          gains.grid, got[-1], pieces)
    else:
        gains = synth(params, 1.0, steps=100)
        got = getattr(gains, gains._OFFSET)
        want = exact_finite_synthesis(params, problem, gains.grid, forcing_pieces(params.f))[2]
    assert got.shape == want.shape
    assert _relative(got, want) <= 1e-11


def _oracle_model(n, forcing, seed):
    """A random model with Q and B scaled down, so that its Hamiltonians'
    spectral radius stays below 2: on T <= 5 the whole-interval oracle's
    roundoff then stays near 1e-13.  Its forcing is constant or quadratic
    in t; returns the model and the forcing's oracle pieces."""
    params = _random_model(n, False, seed)
    params = params.replace(Q=0.3 * params.Q, B=0.6 * params.B)
    if forcing == "quadratic":
        f, pieces = _quadratic_forcing(n, seed)
        return params.replace(f=f), pieces
    return params, forcing_pieces(params.f)


@pytest.mark.parametrize("T, steps", [(1.0, 10), (5.0, 50), (5.0, 500)],
                         ids=["T1-h0.1", "T5-h0.1", "T5-h0.01"])
@pytest.mark.parametrize("forcing", ["constant", "quadratic"])
@pytest.mark.parametrize("problem", ["social", "game"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_finite_synthesis_is_the_exact_flow(n, problem, forcing, T, steps):
    # every path the finite synthesis writes (P, Pi or P_bar, s or s_hat,
    # x_bar) is the exact solution, on grids of step 0.1 and 0.01: against
    # the whole-interval oracle within 1e-11 of each path's scale
    params, pieces = _oracle_model(n, forcing, seed=100 * n + steps)
    synth = synth_social_finite if problem == "social" else synth_game_finite
    gains = synth(params, T, steps=steps)
    want = exact_finite_synthesis(params, problem, gains.grid, pieces)
    got = (gains.P, getattr(gains, gains._ROOT), getattr(gains, gains._OFFSET), gains.x_bar)
    for name, g, w in zip(("P", gains._ROOT, gains._OFFSET, "x_bar"), got, want):
        assert _relative(g, w) <= 1e-11, name


@pytest.mark.parametrize("T", [1e-320, 1e-300, 1e-12])
@pytest.mark.parametrize("synth", [synth_social_finite, synth_game_finite])
def test_a_zero_or_subnormal_step_synthesizes_finite_gains(synth, T):
    # on [0, 1e-320] the grid's step is subnormal, and linspace makes some
    # steps 0: no weight divides by the step, so the gains stay finite and
    # the mean path moves by at most what its drift gives over T
    params = scalar_params(G=0.0)
    gains = synth(params, T)
    for name in ("P", gains._ROOT, gains._OFFSET, "x_bar"):
        assert np.all(np.isfinite(getattr(gains, name))), name
    assert np.max(np.abs(gains.x_bar - params.x_bar0)) <= 1e-10 * np.max(np.abs(params.x_bar0))


def test_an_overflowing_step_is_a_blow_up_not_a_warning():
    # on [0, 1e300] the step's exponential overflows: the backward pass
    # reports its first step, and no overflow warning escapes (the game's
    # determinant sweep refuses this horizon before its pass)
    grid = default_grid(1e300)
    with pytest.raises(RiccatiBlowUpError, match="escaped the cap") as exc:
        synth_social_finite(scalar_params(), 1e300)
    assert exc.value.t_escape == grid[-2]


def test_the_step_weights_integrate_a_quadratic_forcing_exactly():
    # social._flow's weights on a forcing's samples at a step's start,
    # midpoint and end give int_0^h e^{M(h-u)} c(u) du exactly for c
    # quadratic in u, here against scipy's quadrature of the integrand
    from scipy.integrate import quad_vec
    from scipy.linalg import expm

    rng = np.random.default_rng(3)
    M, h = rng.standard_normal((3, 3)), 0.7
    c = lambda u: np.array([1.0, -2.0, 0.5]) + u * np.array([0.3, 0.1, -1.0]) + u * u * np.ones(3)
    want = quad_vec(lambda u: expm(M * (h - u)) @ c(u), 0.0, h, epsabs=1e-14, epsrel=1e-14)[0]
    E, (W0, W1, W2) = social._flow(M, h)
    assert np.max(np.abs(E - expm(M * h))) <= 1e-14 * np.max(np.abs(E))
    assert np.max(np.abs(W0 @ c(0.0) + W1 @ c(h / 2) + W2 @ c(h) - want)) <= 1e-13


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


def _loop_mean_path(params, grid, H, X, s, e):
    """The mean path one step at a time, each step's map built on its own
    from the forward flow of H and the forcing sampled one time at a time:
    the reference for ``social._mean_path``'s array of maps."""
    n, K = params.n, grid.size - 1
    F, (W0, W1, W2) = social._flow(H, grid[1] - grid[0])
    X, s = np.broadcast_to(X, (K + 1, n, n)), np.broadcast_to(s, (K + 1, n))
    c = lambda t: np.concatenate((params.f_at(t), e))
    out = np.empty((K + 1, n))
    x = out[0] = params.x_bar0
    for k in range(K):
        g = W0 @ c(grid[k]) + W1 @ c(0.5 * (grid[k] + grid[k + 1])) + W2 @ c(grid[k + 1])
        x = out[k + 1] = (F[:n, :n] + F[:n, n:] @ X[k]) @ x + F[:n, n:] @ s[k] + g[:n]
    return out


def _mean_path_inputs(n, K, T, root, offset, sampled, seed):
    """Arguments of ``social._mean_path`` for a random model on K steps of
    [0, T]: the root and the offset each one constant or a table with one
    row per grid time, the forcing constant or sampled."""
    rng = np.random.default_rng(seed)
    params = _random_model(n, sampled, seed)
    S = control_gain_matrix(params.B, params.R)
    H = social._generator(params.rho, params.A, params.A + params.G, S, params.Q)
    X = 0.5 * rng.standard_normal((n, n))
    if root == "table":
        X = X + 0.2 * rng.standard_normal((K + 1, n, n))
    s = rng.standard_normal((K + 1, n) if offset == "table" else n)
    return params, default_grid(T, K), H, X, s, rng.standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 3), K=hst.integers(1, 30), T=hst.sampled_from([0.5, 2.0, 5.0]),
       root=hst.sampled_from(["constant", "table"]), offset=hst.sampled_from(["constant", "table"]),
       sampled=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
@example(n=2, K=8, T=2.0, root="table", offset="table", sampled=True, seed=1)
@example(n=3, K=17, T=5.0, root="table", offset="constant", sampled=False, seed=2)
def test_mean_path_step_maps_agree_with_a_step_at_a_time(n, K, T, root, offset, sampled, seed):
    # the mean path builds every step's map as one array and runs one
    # recurrence; the step-at-a-time loop sums the forcing row by row, so
    # the path moves only in its last bits: within 1e-13 of its scale
    args = _mean_path_inputs(n, K, T, root, offset, sampled, seed)
    want = _loop_mean_path(*args)
    got = social._mean_path(*args)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
