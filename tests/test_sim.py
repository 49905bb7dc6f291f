"""Population simulator: stepper correctness, stream reproducibility, cost
quadrature, and the two study drivers."""

import csv
import functools
import math
import re
import tracemalloc
from dataclasses import replace as _dc_replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from conftest import scalar_params
from mflq import ModelParams, sim, social
from mflq.errors import ModelValidationError, SimulationUnstableError
from mflq.game import game_law, synth_game_finite, synth_game_infinite
from mflq.model import TimePath, _interp
from mflq.stability import sqrt_psd
from mflq.sim import (
    SimConfig,
    TrajectoryBundle,
    _loglog_fit,
    _tracking_integrand,
    affine_deviation_grid,
    convergence_study,
    draw_agents,
    evaluate_costs,
    export_study_csv,
    export_trajectory_csv,
    mean_se,
    meanfield_gap,
    nash_deviation_search,
    simulate,
)
from mflq.social import (
    _affine,
    _average,
    _dot,
    _rows,
    centralized_law,
    social_law,
    synth_social_finite,
    synth_social_infinite,
)


def _zero_law(t, X):
    return np.zeros((X.shape[0], 1))


def _pass(params, law, cfg, noise, init_states):
    """The whole pass of ``law(t, X)`` on given draws through ``sim._steps``:
    states (K+1, *lead, N, n) and controls (K+1, *lead, N, r)."""
    times = cfg.grid().tolist()
    (_, states, controls), = sim._steps(params, lambda k, X, x: law(times[k], X), cfg, noise,
                                        init_states, cfg.steps + 1)
    return states, controls


def test_config_validation_and_with_n():
    cfg = SimConfig(N=4, dt=0.01, T=2.0, replications=3, seed=7)
    cfg.validate()
    assert cfg.steps == 200
    assert cfg.grid()[-1] == 2.0
    assert cfg.with_N(9) == SimConfig(N=9, dt=0.01, T=2.0, replications=3, seed=7)
    for bad in (dict(N=0, dt=0.01, T=1.0),
                dict(N=1, dt=-0.01, T=1.0),
                dict(N=1, dt=0.01, T=0.0),
                dict(N=1, dt=0.3, T=1.0),    # T not a multiple of dt
                dict(N=1, dt=1e-300, T=1e10)):   # T / dt overflows
        with pytest.raises(ModelValidationError):
            SimConfig(**bad)


def test_tracked_state_is_a_fixed_point():
    # x' = -x + eta with x(0) = eta and no control: the state pins to the
    # reference and every cost contribution vanishes identically.
    p = ModelParams(A=-1.0, B=1.0, G=0.0, Q=1.0, R=1.0, Gamma=0.0, eta=5.0,
                    rho=0.6, f=5.0, sigma=0.0, x_bar0=5.0, init_cov=0.0)
    b = simulate(p, _zero_law, SimConfig(N=3, dt=0.01, T=2.0, seed=0))
    assert np.max(np.abs(b.states - 5.0)) == 0.0
    assert evaluate_costs(b, p, "finite").J_soc == 0.0


def test_constant_control_cost_closed_form():
    # B = 0 freezes the state at the reference, so only the control term
    # integrates: J = N c^2 R (1 - e^{-rho T}) / rho.
    p = ModelParams(A=-1.0, B=0.0, G=0.0, Q=1.0, R=2.0, Gamma=0.0, eta=5.0,
                    rho=0.6, f=5.0, sigma=0.0, x_bar0=5.0, init_cov=0.0)
    c = 0.7
    law = lambda t, X: np.full((X.shape[0], 1), c)
    b = simulate(p, law, SimConfig(N=3, dt=0.001, T=2.0, seed=0))
    exact = 3 * c**2 * 2.0 * (1.0 - np.exp(-0.6 * 2.0)) / 0.6
    assert evaluate_costs(b, p, "finite").J_soc == pytest.approx(exact, rel=1e-6)


def test_euler_tracks_mean_path_first_order(social_params):
    # one deterministic agent started on the mean follows the synthesized
    # path up to Euler error, which halves with the step
    p = social_params.replace(sigma=0.0, init_cov=0.0)
    gains = synth_social_infinite(p)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        b = simulate(p, social_law(gains), SimConfig(N=1, dt=dt, T=4.0, seed=0))
        x_bar = np.array([gains.x_bar_at(t) for t in b.grid])
        errs.append(np.max(np.abs(b.states[:, 0, 0] - x_bar[:, 0])))
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


def test_cost_quadrature_refines_first_order(social_params):
    p = social_params.replace(sigma=0.0, init_cov=0.0)
    law = social_law(synth_social_infinite(p))
    J = {}
    for dt in (0.04, 0.02, 0.00125):
        b = simulate(p, law, SimConfig(N=2, dt=dt, T=2.0, seed=1))
        J[dt] = evaluate_costs(b, p, "finite").J_soc
    ratio = (J[0.04] - J[0.00125]) / (J[0.02] - J[0.00125])
    assert 1.6 < ratio < 2.6


def test_same_seed_bitwise_identical(social_params):
    law = social_law(synth_social_infinite(social_params))
    cfg = SimConfig(N=5, dt=0.01, T=1.0, seed=123)
    a = simulate(social_params, law, cfg)
    b = simulate(social_params, law, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)
    c = simulate(social_params, law, cfg, rep=1)
    assert not np.array_equal(a.states, c.states)


def test_agent_streams_do_not_depend_on_population_size(social_params):
    cfg5 = SimConfig(N=5, dt=0.01, T=1.0, seed=42)
    x5, xi5 = draw_agents(social_params, cfg5)
    x10, xi10 = draw_agents(social_params, cfg5.with_N(10))
    assert np.array_equal(x5, x10[:5])
    assert np.array_equal(xi5, xi10[:, :5])


def test_population_size_fits_one_uint32_spawn_key_word():
    # agent i's spawn-key word is one uint32 in the vectorized stream seeds
    SimConfig(N=2**32 - 1, dt=0.01, T=1.0).validate()
    for N in (2**32, 2**40):
        with pytest.raises(ModelValidationError, match=r"sim.N < 2\*\*32"):
            SimConfig(N=N, dt=0.01, T=1.0).validate()


@settings(max_examples=200, deadline=None)
@given(seed=hst.integers(0, 2**160 - 1), rep=hst.integers(0, 2**40 - 1),
       agents=hst.lists(hst.integers(0, 2**32 - 1), min_size=1, max_size=6))
@example(seed=2**128 - 1, rep=2**32 - 1, agents=[0, 2**32 - 1])   # 4 seed words, 1 rep word
@example(seed=2**128, rep=2**32, agents=[1])                       # 5 seed words, 2 rep words
def test_stream_seeds_equal_seed_sequence_states(seed, rep, agents):
    rows = sim._stream_seeds(seed, rep, np.array(agents, np.uint32))
    assert rows.dtype == np.uint64 and rows.shape == (len(agents), 4)
    for row, i in zip(rows, agents):
        want = np.random.SeedSequence(seed, spawn_key=(rep, i)).generate_state(4, np.uint64)
        assert np.array_equal(row, want)


def _per_agent_draw(params, config, rep):
    """Each agent's stream built from its own SeedSequence, and its
    increments written as one column: the draw that the vectorized stream
    seeds must reproduce bit for bit."""
    L = sqrt_psd(params.init_cov)
    x0 = np.empty((config.N, params.n))
    xi = np.empty((config.steps, config.N))
    for i in range(config.N):
        g = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(config.seed, spawn_key=(rep, i))))
        x0[i] = params.x_bar0 + L @ g.standard_normal(params.n)
        xi[:, i] = g.standard_normal(config.steps)
    return x0, xi


@pytest.mark.parametrize("cov", ["full-rank", "singular"])
@pytest.mark.parametrize("N", [1, 2, 129])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_draw_agents_equals_per_agent_seed_sequences(n, N, cov):
    rng = np.random.default_rng(10 * n + N)
    C = rng.standard_normal((n, n if cov == "full-rank" else n - 1))
    params = _random_params(rng, n, coupled=False).replace(init_cov=C @ C.T)
    cfg = SimConfig(N=N, dt=0.01, T=0.3, seed=int(rng.integers(2**40)))
    for rep in (0, 5):
        x0, xi = draw_agents(params, cfg, rep)
        want_x0, want_xi = _per_agent_draw(params, cfg, rep)
        assert np.array_equal(x0, want_x0)
        assert np.array_equal(xi, want_xi)


def test_draw_agents_refuses_stream_seeds_that_disagree_with_seed_sequence(monkeypatch,
                                                                           social_params):
    stream_seeds = sim._stream_seeds

    def one_bit_off(seed, rep, agents):
        rows = stream_seeds(seed, rep, agents)
        rows[-1, 2] ^= np.uint64(1 << 17)
        return rows

    monkeypatch.setattr(sim, "_stream_seeds", one_bit_off)
    with pytest.raises(RuntimeError, match=r"disagrees with numpy .*agent 4\)"):
        draw_agents(social_params, SimConfig(N=5, dt=0.1, T=1.0, seed=3), rep=2)


def test_extending_horizon_reuses_increments(social_params):
    # agent streams are drawn per agent, not per (T, dt) layout, so the first
    # half of a longer run replays the shorter one exactly
    law = social_law(synth_social_infinite(social_params))
    short = simulate(social_params, law, SimConfig(N=3, dt=0.01, T=2.0, seed=9))
    long = simulate(social_params, law, SimConfig(N=3, dt=0.01, T=4.0, seed=9))
    assert np.array_equal(short.states, long.states[:201])


def test_average_matches_states_exactly(social_params):
    law = social_law(synth_social_infinite(social_params))
    b = simulate(social_params, law, SimConfig(N=6, dt=0.01, T=1.0, seed=4))
    assert np.array_equal(b.avg, b.states.mean(axis=1))


def test_population_mean_is_unbiased(social_params):
    # E[x_i(T)] equals the deterministic mean-field value up to Monte Carlo
    # error; 200 replications put the check at the 4-sigma level
    gains = synth_social_infinite(social_params)
    law = social_law(gains)
    cfg = SimConfig(N=2, dt=0.02, T=2.0, seed=5)
    finals = np.array([simulate(social_params, law, cfg, rep=rep).states[-1, :, 0]
                       for rep in range(200)]).ravel()
    m, se = mean_se(finals)
    assert abs(m - gains.x_bar_at(2.0)[0]) < 4.0 * se


def test_symmetric_deterministic_population_rides_the_mean(social_params):
    # sigma = 0 and identical starts: the realized average differs from the
    # reference only by the Euler-vs-RK4 scheme gap, far below any noise scale
    p = social_params.replace(sigma=0.0, init_cov=0.0)
    gains = synth_social_infinite(p)
    b = simulate(p, social_law(gains), SimConfig(N=4, dt=0.01, T=10.0, seed=3))
    x_bar = np.array([gains.x_bar_at(t) for t in b.grid])
    gap = meanfield_gap(b, x_bar, p.rho)
    assert gap.sup_gap < 1e-5
    assert gap.disc_gap < 1e-5
    # the reference path has one row per grid time
    with pytest.raises(ValueError, match=r"shape \(1001, 1\), one row per grid time"):
        meanfield_gap(b, x_bar[:-1], p.rho)


def test_common_noise_pairs_stay_close(social_params):
    # the decentralized and centralized laws driven by the same draws keep a
    # much smaller spread than independently seeded runs (the CRN pairing
    # behind every paired study below)
    gains = synth_social_infinite(social_params)
    cfg = SimConfig(N=8, dt=0.01, T=2.0, seed=11)
    dec = simulate(social_params, social_law(gains), cfg)
    cen = simulate(social_params, centralized_law(gains), cfg)
    paired = np.max(np.abs(dec.states - cen.states))
    other = simulate(social_params, centralized_law(gains),
                     SimConfig(N=8, dt=0.01, T=2.0, seed=12))
    independent = np.max(np.abs(dec.states - other.states))
    assert paired < 0.1 * independent


def test_infinite_horizon_reports_tail_bound(social_params):
    law = social_law(synth_social_infinite(social_params))
    b = simulate(social_params, law, SimConfig(N=3, dt=0.01, T=20.0, seed=1))
    rep = evaluate_costs(b, social_params, "infinite")
    assert rep.tail_bound is not None and rep.tail_bound.shape == (3,)
    assert np.all(rep.tail_bound >= 0.0)
    assert np.max(rep.tail_bound) < 1e-3 * rep.per_agent
    assert evaluate_costs(b, social_params, "finite").tail_bound is None
    with pytest.raises(ValueError):
        evaluate_costs(b, social_params, "steady")


def _time_varying(kind, n):
    """(f, sigma) as callables or as sampled paths whose samples fall
    between the simulation's grid times."""
    if kind == "callable":
        return (lambda t: 1.0 + 0.5 * np.sin(t) * np.arange(1, n + 1),
                lambda t: 0.1 + 0.05 * np.cos(3.0 * t) * np.ones(n))
    grid = np.linspace(0.0, 1.0, 7)
    return (TimePath(grid, 1.0 + 0.5 * np.sin(np.outer(grid, np.arange(1, n + 1)))),
            TimePath(grid, 0.1 + 0.05 * np.cos(3.0 * np.outer(grid, np.ones(n)))))


@pytest.mark.parametrize("planar", [False, True], ids=["scalar", "planar"])
@pytest.mark.parametrize("M", [None, 3], ids=["one", "block"])
@pytest.mark.parametrize("coupled", [False, True], ids=["G0", "G"])
@pytest.mark.parametrize("kind", ["callable", "sampled"])
def test_time_varying_f_and_sigma_step_as_written(social_params, planar_params,
                                                  kind, coupled, M, planar):
    # Euler-Maruyama written out from dx = (A x + B u + G x^(N) + f(t)) dt
    # + sigma(t) dW, with f and sigma taken at the left end of each step, on
    # the same draws
    params = planar_params if planar else social_params
    n = params.n
    f, sigma = _time_varying(kind, n)
    params = params.replace(f=f, sigma=sigma, G=params.G if coupled else np.zeros((n, n)))
    gain = np.linspace(0.5, 1.0, n)[None]
    law = lambda t, X: -(X @ gain.T) + 0.1 * np.cos(t)
    cfg = SimConfig(N=4, dt=0.05, T=1.0, replications=M or 1, seed=3)
    draws = [draw_agents(params, cfg, rep) for rep in range(cfg.replications)]
    if M is None:
        x0, xi = draws[0]
        states = simulate(params, law, cfg).states
    else:   # the block stepped at once, and each of its replications alone
        x0, xi = np.stack([x for x, _ in draws]), np.stack([w for _, w in draws], axis=1)
        states, _ = _pass(params, law, cfg, xi, x0)
        for rep in range(M):
            assert _same(states[:, rep], simulate(params, law, cfg, rep).states, n)
    X = x0
    for k, t in enumerate(cfg.grid()):
        assert np.array_equal(states[k], X), k
        if k == cfg.steps:
            break
        avg = X.sum(axis=-2, keepdims=True) / cfg.N
        drift = X @ params.A.T + law(t, X) @ params.B.T + (avg @ params.G.T + f(t))
        X = X + drift * cfg.dt + (np.sqrt(cfg.dt) * xi[k])[..., None] * sigma(t)


def test_a_sampled_path_is_interpolated_once_per_pass(planar_params):
    # the stepper samples a TimePath f and sigma at every step's time in one
    # _interp call each, and the mean path its forcing at the grid times and
    # the step midpoints in one call each, whatever the step count
    f, sigma = _time_varying("sampled", 2)
    params = planar_params.replace(f=f, sigma=sigma)
    law = lambda t, X: -(X @ np.array([[0.5, 1.0]]).T)
    H = social._generator(params.rho, params.A, params.A, np.eye(2), np.eye(2))
    for T in (0.5, 2.0):
        cfg = SimConfig(N=3, dt=0.05, T=T, seed=1)
        with mock.patch("mflq.model._interp", wraps=_interp) as spy:
            simulate(params, law, cfg)
        assert spy.call_count == 2
        with mock.patch("mflq.model._interp", wraps=_interp) as spy:
            social._mean_path(params, cfg.grid(), H, np.eye(2), np.ones(2), np.zeros(2))
        assert spy.call_count == 2


@pytest.mark.parametrize("rep", [True, False, -1, 1.0, "1", None])
def test_simulate_refuses_a_replication_that_is_not_an_integer(rep):
    with pytest.raises(ModelValidationError, match="rep"):
        simulate(scalar_params(), _zero_law, SimConfig(N=2, dt=0.1, T=0.5), rep)


def test_no_csv_holds_a_replication_that_is_not_an_integer(tmp_path):
    # an integer of any type is written as its digits; a bool stops the
    # export, which then leaves no file
    p, cfg = scalar_params(), SimConfig(N=2, dt=0.1, T=0.5)
    path = tmp_path / "t.csv"
    export_trajectory_csv(path, (simulate(p, _zero_law, cfg, rep) for rep in (np.int64(2), 1)))
    with open(path, newline="") as fh:
        assert {row["replication"] for row in csv.DictReader(fh)} == {"2", "1"}
    with pytest.raises(ModelValidationError, match="rep"):
        export_trajectory_csv(path, (simulate(p, _zero_law, cfg, rep) for rep in (0, True)))
    assert not path.exists()


def test_unstable_loop_is_detected():
    p = scalar_params(A=3.0, G=0.0, sigma=0.0, init_cov=0.0)
    with pytest.raises(SimulationUnstableError) as err:
        simulate(p, _zero_law, SimConfig(N=1, dt=0.01, T=12.0, seed=0))
    assert err.value.category == "numerical"
    assert 0.0 < err.value.t_escape <= 12.0


def test_mean_se_basics():
    m, se = mean_se([1.0, 2.0, 3.0])
    assert m == 2.0
    assert se == pytest.approx(1.0 / np.sqrt(3.0))
    assert mean_se([4.0]) == (4.0, float("inf"))


def test_convergence_study_shapes_and_slope(social_params):
    cfg = SimConfig(N=4, dt=0.02, T=2.0, replications=8, seed=0)
    st = convergence_study(social_params, (4, 8), cfg, horizon="infinite")
    assert st.N_list == (4, 8)
    assert st.gap_disc_mean.shape == (2,)
    assert st.gap_slope < 0.0  # larger populations track the mean better
    assert st.dJ_mean is not None and st.dJ_scaled.shape == (2,)
    rows = st.rows()
    assert any(metric == "gap_disc_slope" and N == 0 for N, metric, *_ in rows)


@pytest.mark.parametrize("N_list, y, slope", [
    ([4], [0.5], None),
    ([4, 16], [0.5, 0.125], -1.0),
], ids=["one-size", "two-sizes"])
def test_loglog_fit_claims_no_certainty_below_three_sizes(N_list, y, slope):
    fit_slope, se = _loglog_fit(N_list, y)
    assert se == math.inf
    assert fit_slope == (None if slope is None else pytest.approx(slope, abs=1e-14))


def test_loglog_fit_error_matches_polyfit_covariance():
    # three sizes leave one residual degree of freedom
    N_list, y = [4, 16, 64], [0.5, 0.125, 0.04]
    slope, se = _loglog_fit(N_list, y)
    coef, cov = np.polyfit(np.log(N_list), np.log(y), 1, cov=True)
    assert slope == pytest.approx(coef[0], rel=1e-12)
    assert se == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-12)


def test_nash_zero_deviation_scores_zero(game_params):
    gains = synth_game_infinite(game_params)
    cfg = SimConfig(N=4, dt=0.05, T=1.0, replications=3, seed=2)
    rep = nash_deviation_search(game_params, gains, cfg,
                                grid=[(0.0, 0.0), (0.2, -0.1)])
    assert rep.details["decoupled_fast_path"] is True
    assert rep.improvement_mean[0] == 0.0
    assert rep.improvement_se[0] == 0.0
    assert np.isfinite(rep.baseline_J1)
    assert rep.max_improvement >= 0.0
    assert len(rep.rows()) == 2 + len(rep.grid)


def test_nash_decoupled_fast_path_matches_full_replay(game_params):
    # the fast path steps agent 1's replications as isolated rows; the
    # reference replays the whole population with the deviation on row 0
    gains = synth_game_infinite(game_params)
    cfg = SimConfig(N=4, dt=0.05, T=1.0, replications=3, seed=2)
    dp, dc = 0.2, -0.1
    rep = nash_deviation_search(game_params, gains, cfg, grid=[(dp, dc)])
    assert rep.details["decoupled_fast_path"] is True
    law_eq = game_law(gains)

    def deviating(t, X):   # B = R = 1: u_1 = u_eq(x_1) - (dP x_1 + dc)
        U = np.array(law_eq(t, X), float)
        U[0] -= dp * X[0] + dc
        return U

    improvement = []
    for r in range(cfg.replications):
        J_eq, J_dev = (evaluate_costs(simulate(game_params, law, cfg, r), game_params,
                                      "infinite").J[0]
                       for law in (law_eq, deviating))
        improvement.append(J_eq - J_dev)
    expected = np.mean(improvement)
    assert rep.improvement_mean[0] == pytest.approx(
        expected, rel=0.0, abs=1e-12 * max(1.0, abs(expected)))


def test_nash_coupled_population_replays_full_dynamics(social_params):
    # G != 0 forces the exact (slow) path: every deviation replays the whole
    # population so the average feeds back the perturbed agent
    gains = synth_game_finite(social_params, 1.0, steps=20)
    cfg = SimConfig(N=3, dt=0.05, T=1.0, replications=2, seed=0)
    rep = nash_deviation_search(social_params, gains, cfg,
                                grid=[(0.0, 0.0), (0.1, 0.0)])
    assert rep.details["decoupled_fast_path"] is False
    assert rep.improvement_mean[0] == 0.0
    assert np.isfinite(rep.improvement_mean[1])


def test_nash_report_labels_matrix_deviations(tmp_path, planar_params):
    # an (n, n) dP and an (n,) dc are labelled by their row-major %g values
    # in brackets; scalar entries keep their plain %g label
    params = planar_params.replace(G=np.zeros((2, 2)))
    gains = synth_game_infinite(params)
    cfg = SimConfig(N=3, dt=0.05, T=0.5, replications=2, seed=1)
    grid = [(0, 0), (0.2 * np.eye(2), -0.1 * np.ones(2))]
    path = tmp_path / "nash.csv"
    export_study_csv(path, nash_deviation_search(params, gains, cfg, grid=grid).rows())
    with open(path, newline="") as fh:
        metrics = [row[1] for row in csv.reader(fh)]
    assert metrics == ["metric", "baseline_J1", "improvement[dP=0,dc=0]",
                       "improvement[dP=[0.2 0 0 0.2],dc=[-0.1 -0.1]]", "max_improvement"]


def test_csv_round_trip(tmp_path, social_params):
    law = social_law(synth_social_infinite(social_params))
    b = simulate(social_params, law, SimConfig(N=2, dt=0.25, T=0.5, seed=0))
    path = tmp_path / "traj.csv"
    export_trajectory_csv(path, [b])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replication", "t", "agent_id", "x0", "u0"]
    assert len(rows) == 1 + 3 * 2   # (K+1) * N data rows
    # 17 significant digits survive the text round trip bit-for-bit
    assert float(rows[1][3]) == b.states[0, 0, 0]

    spath = tmp_path / "study.csv"
    export_study_csv(spath, [(8, "gap_disc", 0.125, 0.5), (0, "slope", -1.0, 0.1)])
    with open(spath, newline="") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["N", "metric", "estimate", "stderr"]
    assert srows[1] == ["8", "gap_disc", "0.125", "0.5"]


def _reference_trajectory_csv(path, bundles):
    """One csv.writer row per (replication, time, agent), 17 digits per value."""
    n, r = bundles[0].states.shape[2], bundles[0].controls.shape[2]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replication", "t", "agent_id"]
                   + [f"x{j}" for j in range(n)] + [f"u{j}" for j in range(r)])
        for b in bundles:
            for k, t in enumerate(b.grid):
                for i in range(b.N):
                    w.writerow([b.rep, f"{float(t):.17g}", i]
                               + [f"{float(v):.17g}" for v in b.states[k, i]]
                               + [f"{float(v):.17g}" for v in b.controls[k, i]])


def _special_values_bundle():
    states = np.array([[[-0.0], [0.1]], [[1e-300], [5e-324]], [[-1e300], [np.inf]]])
    controls = np.array([[[0.0], [-np.inf]], [[np.nan], [1.0 / 3.0]], [[-2.5], [7.0]]])
    return TrajectoryBundle(grid=np.array([0.0, 0.1, 0.2]), states=states, controls=controls,
                            avg=states.mean(axis=1), rep=4)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("case", ["scalar_replications", "planar_replications", "single", "special"])
def test_chunked_csv_is_byte_identical_to_csv_writer(tmp_path, monkeypatch, social_params,
                                                     planar_params, case, chunk):
    if chunk is not None:   # one time step per write
        monkeypatch.setattr(sim, "_CSV_CHUNK_VALUES", chunk)
    if case == "special":
        bundles = [_special_values_bundle()]
    else:
        params = planar_params if case.startswith("planar") else social_params
        cfg = SimConfig(N=3, dt=0.1, T=0.5, replications=3, seed=2)
        law = social_law(synth_social_infinite(params))
        bundles = [simulate(params, law, cfg, rep) for rep in range(cfg.replications)]
        if case == "single":
            bundles = [bundles[1]]
    export_trajectory_csv(tmp_path / "new.csv", bundles)
    _reference_trajectory_csv(tmp_path / "ref.csv", bundles)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_from_a_generator_matches_the_list_form(tmp_path, social_params):
    cfg = SimConfig(N=3, dt=0.1, T=0.5, replications=3, seed=2)
    law = social_law(synth_social_infinite(social_params))
    bundles = [simulate(social_params, law, cfg, rep) for rep in range(cfg.replications)]
    export_trajectory_csv(tmp_path / "list.csv", bundles)
    export_trajectory_csv(tmp_path / "gen.csv", (b for b in bundles))
    assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_csv_writer_leaves_no_file_when_its_iterable_fails(tmp_path, social_params):
    cfg = SimConfig(N=3, dt=0.1, T=0.5, seed=2)
    b = simulate(social_params, social_law(synth_social_infinite(social_params)), cfg)

    def failing():
        yield b
        raise RuntimeError("replication 1 failed")

    path = tmp_path / "traj.csv"
    with pytest.raises(RuntimeError, match="replication 1 failed"):
        export_trajectory_csv(path, failing())
    assert not path.exists()
    with pytest.raises(ValueError, match="no bundles"):
        export_trajectory_csv(path, iter(()))
    assert not path.exists()


def test_deviation_grid_refuses_empty_or_non_finite_grids():
    assert affine_deviation_grid(span=1, points=1) == [(-1.0, -1.0)]
    for kwargs in ({"points": 0}, {"points": 2.5}, {"span": float("inf")},
                   {"span": float("nan")}, {"span": "0.5"}):
        with pytest.raises(ModelValidationError):
            affine_deviation_grid(**kwargs)


def test_finite_horizon_gains_are_not_extrapolated(social_params):
    gains = synth_social_finite(social_params, 1.0, steps=100)
    with pytest.raises(ModelValidationError, match=r"end at t=1; .* at t=1\.01"):
        simulate(social_params, social_law(gains), SimConfig(N=2, dt=0.01, T=3.0, seed=0))
    # inside the grid, including its last point, the gains still apply
    b = simulate(social_params, social_law(gains), SimConfig(N=2, dt=0.01, T=1.0, seed=0))
    assert np.isfinite(b.controls).all()


@pytest.mark.parametrize("horizon", ["finite", "infinite"])
def test_gains_accessors_refuse_times_off_their_grid(social_params, horizon):
    # a NaN time or one before the grid's start is refused on both horizons,
    # by constant gains too; past T only finite gains refuse
    params = social_params.replace(f=TimePath([0.0, 2.0], [[1.0], [0.5]]))
    if horizon == "finite":
        gains, past = synth_social_finite(params, 1.0, steps=10), [1.01, np.inf]
    else:
        gains, past = synth_social_infinite(params), []
    assert gains.s.ndim == 2   # a sampled forcing gives an offset path on both horizons
    accessors = [gains.P_at, gains.K_at, gains.s_at, gains.x_bar_at]
    for t in [np.nan, -0.01, -np.inf] + past:
        for at in accessors:
            with pytest.raises(ModelValidationError, match="cannot evaluate them at t="):
                at(t)
            # an array of times is refused by its first time off the grid
            with pytest.raises(ModelValidationError, match=f"cannot evaluate them at t={t:g}$"):
                at(np.array([0.0, t, 0.5 * gains.grid[1], t]))
    inside = np.array([0.0, 0.5 * gains.grid[1], gains.grid[-1]])
    for at in accessors:
        table = at(inside)
        assert table.shape[0] == inside.size and np.all(np.isfinite(table))
        for row, t in zip(table, inside.tolist()):
            assert np.array_equal(row, at(t))
    if horizon == "infinite":   # past T the offset holds its last row, the path its tail
        assert np.array_equal(gains.s_at(np.inf), gains.s[-1])
        assert np.array_equal(gains.x_bar_at(np.inf), gains.x_bar_tail)
        assert np.array_equal(gains.s_at(np.array([np.inf, 1e9])), gains.s[[-1, -1]])
        assert np.array_equal(gains.x_bar_at(np.array([np.inf])), [gains.x_bar_tail])


@functools.cache
def _gains_of(problem, horizon, sampled):
    """Gains of either problem on either horizon, with a constant or a
    sampled forcing (an offset path on both horizons)."""
    params = scalar_params(G=-0.2 if problem == "social" else 0.0,
                           f=TimePath([0.0, 2.0], [[1.0], [0.5]]) if sampled else 1.0)
    if horizon == "finite":
        synth = synth_social_finite if problem == "social" else synth_game_finite
        return synth(params, 1.0, steps=10)
    return (synth_social_infinite if problem == "social" else synth_game_infinite)(params)


def _gain_readers(gains):
    """Every (t -> value) read of ``gains`` as (name, reader, takes_arrays):
    the accessors, the tables and the law views."""
    X = np.ones((3, 1))
    social_gains = isinstance(gains, social.SocialGains)
    names = (("P_at", "Pi_at", "K_at", "s_at", "x_bar_at") if social_gains
             else ("P_at", "P_bar_at", "K_at", "s_hat_at", "x_bar_at"))
    views = (social_law, centralized_law) if social_gains else (game_law,)
    return ([(name, getattr(gains, name), True) for name in names]
            + [(f"_rows[{c}]", lambda t, c=c: social._rows(gains, t, centralized=c), True)
               for c in (False, True)]
            + [(view.__name__, lambda t, law=view(gains): law(t, X), False) for view in views])


@settings(max_examples=80, deadline=None)
@given(problem=hst.sampled_from(["social", "game"]),
       horizon=hst.sampled_from(["finite", "infinite"]), sampled=hst.booleans(),
       data=hst.data())
def test_every_gain_read_refuses_a_time_off_the_grid(problem, horizon, sampled, data):
    # constant (infinite-horizon) gains are checked as paths are: NaN, -inf
    # and t < 0 are refused on both horizons, t > T on the finite one, and
    # the error names the first bad time of an array
    gains = _gains_of(problem, horizon, sampled)
    end = gains.grid[-1] if horizon == "finite" else np.inf
    bad = [hst.just(np.nan), hst.just(-np.inf),
           hst.floats(max_value=-np.finfo(float).smallest_subnormal, allow_infinity=False)]
    if horizon == "finite":
        bad.append(hst.floats(min_value=float(np.nextafter(end, np.inf))))
    t_bad, t_other = data.draw(hst.one_of(bad)), data.draw(hst.one_of(bad))
    t_good = data.draw(hst.floats(0.0, float(end) if horizon == "finite" else 1e9)
                       | hst.sampled_from(gains.grid.tolist() + [end]))
    times = np.array([t_good, t_bad, 0.0, t_other])
    for name, read, takes_arrays in _gain_readers(gains):
        message = rf"cannot evaluate them at t={re.escape(f'{t_bad:g}')}$"
        for t in (t_bad, times) if takes_arrays else (t_bad,):
            with pytest.raises(ModelValidationError, match=message):
                read(t)
        value = read(t_good)   # a row (P, K, o) or one array
        assert all(np.all(np.isfinite(v)) for v in (value if isinstance(value, tuple)
                                                     else (value,)) if v is not None), name

    def stored(values, ndim):   # a constant gain itself, a path interpolated at t_good
        return values if values.ndim == ndim else _interp(gains.grid, values, t_good)

    P, root = stored(gains.P, 2), stored(getattr(gains, gains._ROOT), 2)
    tail = gains.x_bar_tail is not None and t_good >= gains.grid[-1]
    want = {"P_at": P, f"{gains._ROOT}_at": root,
            "K_at": stored(gains.K, 2) if problem == "social" else root - P,
            f"{gains._OFFSET}_at": stored(getattr(gains, gains._OFFSET), 1),
            "x_bar_at": gains.x_bar_tail if tail else stored(gains.x_bar, 1)}
    for name, read, _ in _gain_readers(gains):
        if name not in want:
            continue
        assert np.array_equal(read(t_good), want[name]), name
        assert np.array_equal(read(np.array([t_good, 0.0]))[0], want[name]), name


@pytest.mark.parametrize("field, value", [
    ("N", 0), ("N", True), ("N", 2.0), ("N", "3"), ("N", 1 << 32),
    ("dt", 0.0), ("dt", -0.01), ("dt", np.nan), ("dt", np.inf), ("dt", True), ("dt", "0.01"),
    ("T", 0.0), ("T", -1.0), ("T", np.inf), ("T", 1.005),
    ("replications", 0), ("replications", True), ("replications", 1.5),
    ("seed", -1), ("seed", True), ("seed", 0.5)])
def test_sim_config_refuses_an_invalid_field_when_built(field, value):
    # a SimConfig is valid by construction: built directly, through with_N
    # or through dataclasses.replace
    cfg = SimConfig(N=4, dt=0.01, T=1.0, replications=2, seed=3)
    with pytest.raises(ModelValidationError):
        SimConfig(**{**vars(cfg), field: value})
    with pytest.raises(ModelValidationError):
        _dc_replace(cfg, **{field: value})
    if field == "N":
        with pytest.raises(ModelValidationError):
            cfg.with_N(value)


@pytest.mark.parametrize("case", ["noise-long", "noise-short", "noise-N", "noise-1d",
                                  "init-N", "init-n", "init-lead"])
def test_simulate_refuses_misshapen_draws(social_params, case):
    # the stepper checks noise (K, *lead, N) and init_states (*lead, N, n)
    # before the first step, so the law is never called on misshapen draws
    law = social_law(synth_social_infinite(social_params))
    cfg = SimConfig(N=3, dt=0.1, T=0.5, replications=2, seed=0)
    K, N = cfg.steps, cfg.N
    noise, init = {
        "noise-long": ((K + 5, 2, N), (2, N, 1)),
        "noise-short": ((K - 1, 2, N), (2, N, 1)),
        "noise-N": ((K, 2, N + 1), (2, N, 1)),
        "noise-1d": ((K,), (N, 1)),
        "init-N": ((K, 2, N), (2, N - 1, 1)),
        "init-n": ((K, 2, N), (2, N, 2)),
        "init-lead": ((K, 2, N), (3, N, 1)),
    }[case]
    calls = []

    def counted(t, X):
        calls.append(t)
        return law(t, X)

    with pytest.raises(ValueError, match=rf"got noise \({', '.join(map(str, noise))},?\) "
                                         rf"and init_states \({', '.join(map(str, init))}\)"):
        _pass(social_params, counted, cfg, np.zeros(noise), np.zeros(init))
    assert calls == []
    # the well-shaped block still steps
    states, _ = _pass(social_params, law, cfg, np.zeros((K, 2, N)), np.zeros((2, N, 1)))
    assert states.shape == (K + 1, 2, N, 1)


# ---------------------------------------------------------------------------
# replication blocks
# ---------------------------------------------------------------------------

def _same(block, single, n):
    """Bitwise for scalar states, within 1e-12 of the array's scale otherwise."""
    if n == 1:
        return np.array_equal(block, single)
    return np.max(np.abs(block - single)) <= 1e-12 * max(np.max(np.abs(single)), 1e-300)


@settings(max_examples=30, deadline=None)
@given(n=hst.integers(1, 3), M=hst.integers(1, 4), N=hst.integers(1, 6),
       coupled=hst.booleans(), kind=hst.sampled_from(["decentralized", "centralized", "game"]),
       seed=hst.integers(0, 2**16))
def test_block_step_equals_separate_replications(n, M, N, coupled, kind, seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n + 1))
    params = ModelParams(
        A=0.3 * rng.standard_normal((n, n)), B=rng.standard_normal((n, r)),
        G=0.3 * rng.standard_normal((n, n)) if coupled else np.zeros((n, n)),
        Q=np.eye(n), R=np.eye(r), Gamma=0.2 * rng.standard_normal((n, n)),
        eta=rng.standard_normal(n), rho=0.6, f=rng.standard_normal(n),
        sigma=0.1 + rng.random(n), x_bar0=rng.standard_normal(n), init_cov=0.5 * np.eye(n))
    if kind == "game":
        law = game_law(synth_game_finite(params, 0.2, steps=20))
    else:
        gains = synth_social_finite(params, 0.2, steps=20)
        law = (social_law if kind == "decentralized" else centralized_law)(gains)
    cfg = SimConfig(N=N, dt=0.01, T=0.2, replications=M, seed=seed)
    draws = [draw_agents(params, cfg, rep) for rep in range(M)]
    states, controls = _pass(params, law, cfg, np.stack([xi for _, xi in draws], axis=1),
                             np.stack([x0 for x0, _ in draws]))
    assert states.shape == (cfg.steps + 1, M, N, n)
    assert controls.shape == (cfg.steps + 1, M, N, r)
    avg = _average(states)[..., 0, :]
    for rep in range(M):
        one = simulate(params, law, cfg, rep)
        assert _same(states[:, rep], one.states, n)
        assert _same(controls[:, rep], one.controls, n)
        assert _same(avg[:, rep], one.avg, n)


@pytest.mark.parametrize("kwargs", [
    {"horizon": "finit"},
    {"metrics": ("gaps",)},
    {"metrics": ()},
    {"metrics": "gap"},
], ids=["horizon-typo", "metric-typo", "metrics-empty", "metrics-string"])
def test_convergence_study_refuses_unknown_horizon_or_metrics(social_params, kwargs):
    cfg = SimConfig(N=2, dt=0.1, T=0.2, replications=1, seed=0)
    with pytest.raises(ModelValidationError):
        convergence_study(social_params, (2, 3, 4), cfg, **kwargs)


def _reference_convergence(params, N_list, config):
    """Per-replication loop of two-dimensional simulations on the study's own
    finite-horizon gains: gap and paired social cost gap for every
    (N, replication), then mean and stderr."""
    gains = synth_social_finite(params, config.T, steps=config.steps)
    dec, cen = social_law(gains), centralized_law(gains)
    x_bar = np.array([gains.x_bar_at(t) for t in config.grid()])
    sup, disc, dJ = [], [], []
    for N in N_list:
        cfg = config.with_N(N)
        s, d, j = [], [], []
        for rep in range(cfg.replications):
            b_dec = simulate(params, dec, cfg, rep)
            b_cen = simulate(params, cen, cfg, rep)
            gap = meanfield_gap(b_dec, x_bar, params.rho)
            s.append(gap.sup_gap)
            d.append(gap.disc_gap)
            J_dec = evaluate_costs(b_dec, params, gains.horizon).J_soc
            j.append((J_dec - evaluate_costs(b_cen, params, gains.horizon).J_soc) / N)
        sup.append(mean_se(s))
        disc.append(mean_se(d))
        dJ.append(mean_se(j))
    return {name: (np.array([m for m, _ in v]), np.array([e for _, e in v]))
            for name, v in (("gap_sup", sup), ("gap_disc", disc), ("dJ", dJ))}


def _trapezoid_cost(params, grid, states, controls, avg):
    """Discounted trapezoidal cost of each column of ``states`` (K+1, M, n)
    by ``np.trapezoid``, independent of the package's quadrature."""
    g = _tracking_integrand(params, states, controls, avg)
    return np.trapezoid(np.exp(-params.rho * grid)[:, None] * g, grid, axis=0)


def _reference_nash(params, gains, config, grid):
    """Agent 1's costs per replication: full-population equilibrium runs one
    replication at a time, then each deviation stepped alone on agent 1's own
    draws (agent 1 of a population of one, whose stream does not depend on
    N) against the recorded average of the others."""
    N, M, K, n, r = config.N, config.replications, config.steps, params.n, params.r
    law_eq = game_law(gains)
    RB = np.linalg.solve(params.R, params.B.T)
    one = config.with_N(1)
    x1, u1, avg = np.empty((K + 1, M, n)), np.empty((K + 1, M, r)), np.empty((K + 1, M, n))
    xd, ud = np.empty((len(grid), K + 1, M, n)), np.empty((len(grid), K + 1, M, r))
    for rep in range(M):
        b = simulate(params, law_eq, config, rep)
        x1[:, rep], u1[:, rep], avg[:, rep] = b.states[:, 0], b.controls[:, 0], b.avg
        for i, (dp, dc) in enumerate(grid):
            dP = dp * np.eye(n) if np.ndim(dp) == 0 else np.asarray(dp, float)
            dcv = dc * np.ones(n) if np.ndim(dc) == 0 else np.asarray(dc, float)

            def law(t, X):
                offset = gains.K_at(t) @ gains.x_bar_at(t) + gains.s_hat_at(t) + dcv
                return -(X @ (gains.P_at(t) + dP).T + offset) @ RB.T

            d = simulate(params, law, one, rep)
            xd[i, :, rep], ud[i, :, rep] = d.states[:, 0], d.controls[:, 0]
    grid_t = config.grid()
    J_base = _trapezoid_cost(params, grid_t, x1, u1, avg)
    J_dev = [_trapezoid_cost(params, grid_t, xd[i], ud[i], avg + (xd[i] - x1) / N)
             for i in range(len(grid))]
    return J_base, J_dev


def _replication_bytes(N, steps, laws, n, r):
    """What the studies' block rule counts per replication: its (steps, N)
    draws and its rows of the window buffers of ``laws`` stacked laws'
    states and controls."""
    return 8 * N * (steps + laws * sim._WINDOW * (n + r))


def _close(a, b, rel):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def test_blocked_studies_match_per_replication_loop_scalar(monkeypatch, social_params,
                                                           game_params):
    # blocks of 4 replications at N = 128 over 500 steps, for the study's two
    # stacked laws and the search's one: 6 replications make one full block
    # and a partial one
    cfg = SimConfig(N=8, dt=0.01, T=5.0, replications=6, seed=11)
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 4 * _replication_bytes(128, cfg.steps, 2, 1, 1))
    study = convergence_study(social_params, (8, 128), cfg)
    ref = _reference_convergence(social_params, (8, 128), cfg)
    for name, mean, se in (("gap_sup", study.gap_sup_mean, study.gap_sup_se),
                           ("gap_disc", study.gap_disc_mean, study.gap_disc_se),
                           ("dJ", study.dJ_mean, study.dJ_se)):
        assert np.array_equal(mean, ref[name][0]) and np.array_equal(se, ref[name][1]), name

    gains = synth_game_infinite(game_params)
    cfg = cfg.with_N(128)
    grid = [(0.0, 0.0), (0.2, -0.1), (-0.3, 0.25), (0.0, 0.5)]
    rep = nash_deviation_search(game_params, gains, cfg, grid=grid)
    J_base, J_dev = _reference_nash(game_params, gains, cfg, grid)
    assert (rep.baseline_J1, rep.baseline_J1_se) == mean_se(J_base)
    for i in range(len(grid)):
        assert (rep.improvement_mean[i], rep.improvement_se[i]) == mean_se(J_base - J_dev[i])


def test_blocked_studies_match_per_replication_loop_planar(planar_params):
    cfg = SimConfig(N=3, dt=0.02, T=1.0, replications=5, seed=4)
    study = convergence_study(planar_params, (3, 40), cfg)
    ref = _reference_convergence(planar_params, (3, 40), cfg)
    for name, mean, se in (("gap_sup", study.gap_sup_mean, study.gap_sup_se),
                           ("gap_disc", study.gap_disc_mean, study.gap_disc_se),
                           ("dJ", study.dJ_mean, study.dJ_se)):
        assert _close(mean, ref[name][0], 1e-12) and _close(se, ref[name][1], 1e-12), name

    params = planar_params.replace(G=np.zeros((2, 2)))
    gains = synth_game_infinite(params)
    cfg = cfg.with_N(6)
    grid = [(0.0, 0.0), (0.2, -0.1),
            (np.array([[0.1, 0.05], [0.0, -0.1]]), np.array([0.1, -0.2]))]
    rep = nash_deviation_search(params, gains, cfg, grid=grid)
    assert rep.details["decoupled_fast_path"] is True
    J_base, J_dev = _reference_nash(params, gains, cfg, grid)
    assert _close(rep.baseline_J1, mean_se(J_base)[0], 1e-12)
    improvement = [mean_se(J_base - J_dev[i]) for i in range(len(grid))]
    assert _close(rep.improvement_mean, [m for m, _ in improvement], 1e-12)
    assert _close(rep.improvement_se, [s for _, s in improvement], 1e-12)



def _reference_coupled_nash(params, gains, config, grid):
    """Agent 1's equilibrium and deviation costs with the whole coupled
    population replayed one replication at a time, agent 1's row replaced by
    its deviation."""
    M, K, n, r = config.replications, config.steps, params.n, params.r
    law_eq = game_law(gains)
    RB = np.linalg.solve(params.R, params.B.T)
    laws = [law_eq]
    for dP, dc in grid:
        def law(t, X, dP=dP, dc=dc):
            U = np.array(law_eq(t, X), float)
            offset = gains.K_at(t) @ gains.x_bar_at(t) + gains.s_hat_at(t) + dc
            U[0] = -RB @ ((gains.P_at(t) + dP) @ X[0] + offset)
            return U
        laws.append(law)
    x1, u1, avg = (np.empty((len(laws), K + 1, M, d)) for d in (n, r, n))
    for rep in range(M):
        for i, law in enumerate(laws):
            b = simulate(params, law, config, rep)
            x1[i, :, rep], u1[i, :, rep], avg[i, :, rep] = b.states[:, 0], b.controls[:, 0], b.avg
    J = [_trapezoid_cost(params, config.grid(), x1[i], u1[i], avg[i]) for i in range(len(laws))]
    return J[0], J[1:]


@pytest.mark.parametrize("planar", [False, True], ids=["scalar", "planar"])
def test_coupled_nash_blocks_match_per_replication_replay(monkeypatch, social_params,
                                                          planar_params, planar):
    # G != 0: every deviation replays the whole population on the baseline's
    # block draws; blocks of 2 replications make 5 replications two full
    # blocks and a partial one
    params = planar_params if planar else social_params
    n = params.n
    cfg = SimConfig(N=4, dt=0.05, T=1.0, replications=5, seed=7)
    # 2 replications, each with the equilibrium and two deviations stacked
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * _replication_bytes(cfg.N, cfg.steps, 3, n,
                                                                    params.r))
    gains = synth_game_finite(params, cfg.T, steps=cfg.steps)
    grid = [(0.0, 0.0), (0.2, -0.1),
            (np.array([[0.1, 0.05], [0.0, -0.1]]) if planar else -0.3, np.full(n, 0.25))]
    rep = nash_deviation_search(params, gains, cfg, grid=grid)
    assert rep.details["decoupled_fast_path"] is False
    assert rep.improvement_mean[0] == 0.0
    dev = [(np.asarray(dp) * (np.eye(n) if np.ndim(dp) == 0 else 1.0), np.asarray(dc) * np.ones(n))
           for dp, dc in grid[1:]]
    J_base, J_dev = _reference_coupled_nash(params, gains, cfg, dev)
    expected = [mean_se(J_base)] + [mean_se(J_base - J) for J in J_dev]
    got = [(rep.baseline_J1, rep.baseline_J1_se)] + list(zip(rep.improvement_mean[1:],
                                                            rep.improvement_se[1:]))
    if planar:
        assert _close(got, expected, 1e-12)
    else:
        assert got == expected

# ---------------------------------------------------------------------------
# the windowed stepper and what the studies keep of it

def _four_laws(params):
    """The decentralized, centralized, equilibrium and deviation laws on
    finite-horizon gains over [0, 0.5], as (gains, ``_rows`` keywords, the
    public (t, X) view or None)."""
    social = synth_social_finite(params, 0.5, steps=25)
    game = synth_game_finite(params, 0.5, steps=25)
    n = params.n
    return {"decentralized": (social, {}, social_law(social)),
            "centralized": (social, {"centralized": True}, centralized_law(social)),
            "game": (game, {}, game_law(game)),
            "deviation": (game, {"dP": 0.2 * np.eye(n), "dc": np.full(n, -0.1)}, None)}


@pytest.mark.parametrize("planar", [False, True], ids=["scalar", "planar"])
@pytest.mark.parametrize("coupled", [False, True], ids=["G0", "G"])
@pytest.mark.parametrize("kind", ["decentralized", "centralized", "game", "deviation"])
def test_simulate_is_the_concatenation_of_its_windows(social_params, planar_params,
                                                      kind, coupled, planar):
    params = planar_params if planar else social_params
    n = params.n
    params = params if coupled else params.replace(G=np.zeros((n, n)))
    gains, kw, view = _four_laws(params)[kind]
    RB = np.linalg.solve(params.R, params.B.T)
    cfg = SimConfig(N=4, dt=0.02, T=0.5, replications=3, seed=8)
    draws = [draw_agents(params, cfg, rep) for rep in range(cfg.replications)]
    x0, xi = np.stack([x for x, _ in draws]), np.stack([w for _, w in draws], axis=1)
    # the public (t, X) view steps the block as one whole window, and each of
    # its replications alone; the windows step the (k, X) law of the table
    view = view or (lambda t, X: _affine(RB, *_rows(gains, t, **kw), X))
    states, controls = _pass(params, view, cfg, xi, x0)
    for rep in range(cfg.replications):
        assert _same(states[:, rep], simulate(params, view, cfg, rep).states, n)
    law = sim._row_law(RB, (..., _rows(gains, cfg.grid(), **kw)))
    for window in (1, 7, cfg.steps + 1):   # 26 grid times: 7 leaves a short last window
        # each window is one buffer refilled in place, so keep a copy
        parts = [(k0, S.copy(), U.copy())
                 for k0, S, U in sim._steps(params, law, cfg, xi, x0, window)]
        assert [k0 for k0, _, _ in parts] == list(range(0, cfg.steps + 1, window))
        assert np.array_equal(np.concatenate([S for _, S, _ in parts]), states)
        assert np.array_equal(np.concatenate([U for _, _, U in parts]), controls)


@pytest.mark.parametrize("planar", [False, True], ids=["scalar", "planar"])
def test_windowed_convergence_study_matches_per_replication_loop(monkeypatch, social_params,
                                                                 planar_params, planar):
    # sampled f and sigma; 51 grid times, which the window does not divide;
    # blocks of 5, 2 and 1 replications at N = 1, 3 and 8
    params = planar_params if planar else social_params
    f, sigma = _time_varying("sampled", params.n)
    params = params.replace(f=f, sigma=sigma)
    cfg = SimConfig(N=1, dt=0.02, T=1.0, replications=5, seed=6)
    assert (cfg.steps + 1) % sim._WINDOW != 0
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * _replication_bytes(3, cfg.steps, 2, params.n,
                                                                    params.r))
    N_list = (1, 3, 8)
    study = convergence_study(params, N_list, cfg)
    ref = _reference_convergence(params, N_list, cfg)
    for name, mean, se in (("gap_sup", study.gap_sup_mean, study.gap_sup_se),
                           ("gap_disc", study.gap_disc_mean, study.gap_disc_se),
                           ("dJ", study.dJ_mean, study.dJ_se)):
        for i, N in enumerate(N_list):
            got, want = np.array([mean[i], se[i]]), np.array([ref[name][0][i], ref[name][1][i]])
            if planar:
                assert _close(got, want, 1e-12), (name, N)
            else:
                assert np.array_equal(got, want), (name, N)


@pytest.mark.parametrize("planar", [False, True], ids=["scalar", "planar"])
@pytest.mark.parametrize("coupled", [False, True], ids=["G0", "G"])
def test_windowed_nash_search_matches_per_replication_replay(monkeypatch, social_params,
                                                             planar_params, coupled, planar):
    # sampled f and sigma, 51 grid times, blocks of 2 replications
    params = planar_params if planar else social_params
    n = params.n
    f, sigma = _time_varying("sampled", n)
    params = params.replace(f=f, sigma=sigma, G=params.G if coupled else np.zeros((n, n)))
    cfg = SimConfig(N=5, dt=0.02, T=1.0, replications=5, seed=9)
    # with G != 0 the equilibrium and both deviations step stacked
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * _replication_bytes(
        cfg.N, cfg.steps, 3 if coupled else 1, n, params.r))
    gains = synth_game_finite(params, cfg.T, steps=cfg.steps)
    dev = [(0.2 * np.eye(n), np.full(n, -0.1)), (-0.3 * np.eye(n), np.full(n, 0.25))]
    rep = nash_deviation_search(params, gains, cfg, grid=[(0.0, 0.0)] + dev)
    assert rep.details["decoupled_fast_path"] is not coupled
    assert rep.improvement_mean[0] == 0.0
    reference = _reference_coupled_nash if coupled else _reference_nash
    J_base, J_dev = reference(params, gains, cfg, dev)
    expected = [mean_se(J_base)] + [mean_se(J_base - J) for J in J_dev]
    got = [(rep.baseline_J1, rep.baseline_J1_se)] + list(zip(rep.improvement_mean[1:],
                                                            rep.improvement_se[1:]))
    if planar:
        assert _close(got, expected, 1e-12)
    else:
        assert got == expected


def test_convergence_study_memory_is_flat_in_the_replication_count(monkeypatch, social_params):
    # a block holds its draws for the whole pass and a window of states, so
    # two or eight blocks' worth of replications peak alike
    cfg = SimConfig(N=128, dt=0.01, T=1.0, seed=3)
    per_block = 2
    monkeypatch.setattr(sim, "_BLOCK_BYTES",
                        per_block * _replication_bytes(cfg.N, cfg.steps, 2, 1, 1))
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        try:
            convergence_study(social_params, (cfg.N,),
                              _dc_replace(cfg, replications=blocks * per_block))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_coupled_nash_search_memory_is_flat_in_the_replication_count(monkeypatch,
                                                                     social_params):
    # G != 0 on the default 5 x 5 grid: the equilibrium and 24 deviated
    # populations step stacked on each block, and agent 1's costs are reduced
    # window by window, so two or eight blocks' worth of replications peak alike
    gains = synth_game_finite(social_params, 1.0, steps=100)
    cfg = SimConfig(N=20, dt=0.01, T=1.0, seed=3)
    per_block = 2
    monkeypatch.setattr(sim, "_BLOCK_BYTES",
                        per_block * _replication_bytes(cfg.N, cfg.steps, 25, 1, 1))
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        try:
            nash_deviation_search(social_params, gains,
                                  _dc_replace(cfg, replications=blocks * per_block))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0], peaks


@settings(max_examples=200, deadline=None)
@given(rows=hst.integers(2, 60), cols=hst.integers(1, 5), rho=hst.floats(0.0, 2.0),
       T=hst.sampled_from([0.5, 1.0, 5.0]), cuts=hst.sets(hst.integers(1, 59), max_size=8),
       seed=hst.integers(0, 2**16))
@example(rows=17, cols=3, rho=0.6, T=1.0, cuts={1, 5, 16}, seed=0)
@example(rows=17, cols=1, rho=0.6, T=1.0, cuts={1, 5, 16}, seed=0)
@example(rows=17, cols=2048, rho=0.6, T=1.0, cuts={1, 5, 16}, seed=0)   # wide windows
@example(rows=60, cols=2048, rho=0.6, T=5.0, cuts={16, 32, 48}, seed=1)
@example(rows=60, cols=16, rho=0.6, T=5.0, cuts={16, 32, 48}, seed=2)   # as wide as tall
@example(rows=60, cols=15, rho=0.6, T=5.0, cuts={16, 32, 48}, seed=3)
def test_windowed_trapezoid_equals_np_trapezoid(rows, cols, rho, T, cuts, seed):
    # the studies' one cost reduction, fed window by window however the grid
    # is split, is np.trapezoid's discounted quadrature: bit for bit when a
    # row holds two or more numbers, which np.trapezoid adds one step after
    # another; a lone column it sums pairwise
    grid = np.linspace(0.0, T, rows)
    g = 10.0 * np.abs(np.random.default_rng(seed).standard_normal((rows, cols)))
    acc = sim._Trapezoid(grid, rho)
    bounds = [0, *sorted(c for c in cuts if c < rows), rows]
    for k0, k in zip(bounds[:-1], bounds[1:]):
        acc.add(k0, g[k0:k])
    y = np.exp(-rho * grid)[:, None] * g
    want = np.trapezoid(y, grid, axis=0)
    if cols >= 2:
        assert np.array_equal(acc.total, want)
    else:
        np.testing.assert_allclose(acc.total, want, rtol=1e-13, atol=0.0)
    # and, for any column count, the terms added one step after another in a loop
    loop = np.zeros(cols)
    for term in np.diff(grid)[:, None] * (y[1:] + y[:-1]) / 2.0:
        loop = loop + term
    assert np.array_equal(acc.total, loop)


def test_one_time_bundle_integrates_to_zeros(social_params):
    # a grid of one time spans no step: each agent's cost and the gap's
    # integral are zero, and the sup is the lone squared gap
    b = TrajectoryBundle(grid=np.zeros(1), states=np.ones((1, 3, 1)),
                         controls=np.ones((1, 3, 1)), avg=np.ones((1, 1)))
    assert np.array_equal(evaluate_costs(b, social_params).J, np.zeros(3))
    gap = meanfield_gap(b, np.zeros((1, 1)), social_params.rho)
    assert (gap.sup_gap, gap.disc_gap) == (1.0, 0.0)


@pytest.mark.parametrize("grid", [
    [],
    [(0.0, 0.0), (float("nan"), 0.1)],
    [(0.2, np.array([np.inf]))],
], ids=["empty", "nan-dP", "inf-dc"])
def test_nash_search_refuses_bad_grids_before_any_draw(monkeypatch, game_params, grid):
    gains = synth_game_infinite(game_params)

    def no_draws(*args, **kwargs):
        raise AssertionError("the grid must be checked before any draw")

    monkeypatch.setattr(sim, "draw_agents", no_draws)
    with pytest.raises(ModelValidationError, match="deviation grid"):
        nash_deviation_search(game_params, gains,
                              SimConfig(N=4, dt=0.05, T=1.0, replications=2, seed=0), grid=grid)


@pytest.mark.parametrize("dp, dc", [
    (np.array([0.1, 0.2]), 0.0),
    (0.1, np.array([0.1, 0.2, 0.3])),
    (0.1 * np.eye(3), 0.0),
    (np.ones((1, 2)), 0.0),
    (0.1, np.zeros((1, 2))),
], ids=["vector-dP", "long-dc", "3x3-dP", "row-dP", "row-dc"])
def test_nash_search_refuses_misshapen_deviations_before_any_draw(monkeypatch, planar_params,
                                                                  dp, dc):
    # on the planar model dP must be a scalar or (2, 2) and dc a scalar or
    # (2,); a vector dP would otherwise broadcast across P's rows
    params = planar_params.replace(G=np.zeros((2, 2)))
    gains = synth_game_finite(params, 1.0, steps=20)

    def no_draws(*args, **kwargs):
        raise AssertionError("the grid must be checked before any draw")

    monkeypatch.setattr(sim, "draw_agents", no_draws)
    with pytest.raises(ModelValidationError, match="deviation grid entry 1 "):
        nash_deviation_search(params, gains, SimConfig(N=4, dt=0.05, T=1.0, replications=2),
                              grid=[(0.0, 0.0), (dp, dc)])


# ---------------------------------------------------------------------------
# kept gain rows and the slimmed step

def _random_params(rng, n, coupled):
    r = int(rng.integers(1, n + 1))
    return ModelParams(
        A=0.3 * rng.standard_normal((n, n)), B=rng.standard_normal((n, r)),
        G=0.3 * rng.standard_normal((n, n)) if coupled else np.zeros((n, n)),
        Q=np.eye(n), R=np.eye(r), Gamma=0.2 * rng.standard_normal((n, n)),
        eta=rng.standard_normal(n), rho=0.6, f=rng.standard_normal(n),
        sigma=0.1 + rng.random(n), x_bar0=rng.standard_normal(n), init_cov=0.5 * np.eye(n))


def _gains(params, kind, horizon):
    if kind in ("game", "deviation"):
        synth = synth_game_finite if horizon == "finite" else synth_game_infinite
    else:
        synth = synth_social_finite if horizon == "finite" else synth_social_infinite
    return synth(params, 0.2, steps=20) if horizon == "finite" else synth(params)


def _control_reference(RB, P, X, offset):
    """-R^{-1} B^T (P X + offset) in plain numpy, the oracle of social._affine.
    A 2-D gain multiplies the (-1, n) view of X in one np.dot, the BLAS call
    the package makes, so the two agree bit for bit; a stack of gains
    P (E, n, n) multiplies its block (E, m, n) by matmul."""
    n, r = X.shape[-1], RB.shape[0]
    PX = (np.dot(X.reshape(-1, n), P.T).reshape(X.shape) if P.ndim == 2
          else np.matmul(X, P.transpose(0, 2, 1)))
    return np.dot((-(PX + offset)).reshape(-1, n), RB.T).reshape(*X.shape[:-1], r)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 3), kind=hst.sampled_from(["decentralized", "centralized", "game",
                                                    "deviation"]),
       horizon=hst.sampled_from(["finite", "infinite"]), seed=hst.integers(0, 2**16))
def test_kept_rows_equal_uncached_feedback(n, kind, horizon, seed):
    # row k of a table, _rows(gains, times), is the one-time row
    # _rows(gains, times[k]) bit for bit, and _affine on it is _control_reference
    # of the gains' own accessors; the public (t, X) views give the same
    # controls and keep one row per distinct t
    rng = np.random.default_rng(seed)
    # infinite-horizon games need G = 0
    params = _random_params(rng, n, coupled=not (kind in ("game", "deviation")
                                                 and horizon == "infinite"))
    gains = _gains(params, kind, horizon)
    RB = np.linalg.solve(params.R, params.B.T)
    if kind == "deviation":
        E = 3
        kw = {"dP": 0.2 * rng.standard_normal((E, n, n)), "dc": 0.2 * rng.standard_normal((E, 1, n))}
        shapes = [(E, 4, n)]
    else:
        kw = {"centralized": kind == "centralized"}
        shapes = [(n,), (5, n), (3, 4, n)]
    grid = gains.grid
    i = int(rng.integers(0, grid.size - 1))
    # on the grid, between two grid points, and past T on the infinite horizon;
    # a repeat reads the view's kept row
    times = [grid[i], 0.5 * (grid[i] + grid[i + 1]), grid[-1] * rng.random(), grid[i]]
    if horizon == "infinite":
        times.append(grid[-1] * (1.0 + rng.random()))
    table = _rows(gains, np.array(times), **kw)
    for k, t in enumerate(times):
        row = _rows(gains, t, **kw)
        assert (row[1] is None) == (table[1] is None) == (kind != "centralized")
        for got, want in zip((table[0][k], None if table[1] is None else table[1][k], table[2][k]),
                             row):
            assert (got is None and want is None) or np.array_equal(got, want)
        K, o = gains.K_at(t), gains._sample(getattr(gains, gains._OFFSET), t, 1)
        for shape in shapes:
            X = rng.standard_normal(shape)
            x_bar = gains.x_bar_at(t)
            if kind == "centralized":   # a lone state (n,) is its own average
                x_bar = X if X.ndim == 1 else X.mean(axis=-2, keepdims=True)
            offset = (K @ x_bar[..., None])[..., 0] + o
            if kind == "deviation":
                want = _control_reference(RB, gains.P_at(t) + kw["dP"], X, offset + kw["dc"])
            else:
                want = _control_reference(RB, gains.P_at(t), X, offset)
            got = _affine(RB, *row, X)
            assert got.shape == want.shape and np.array_equal(got, want)
    if kind == "deviation":
        return
    law = (centralized_law if kind == "centralized" else
           game_law if kind == "game" else social_law)(gains)
    with mock.patch.object(social, "_rows", wraps=social._rows) as spy:
        for t in times:
            X = rng.standard_normal((3, 4, n))
            assert np.array_equal(law(t, X), _affine(RB, *_rows(gains, t, **kw), X))
    assert spy.call_count == len(set(times))
    assert law.x_bar_at == gains.x_bar_at


@pytest.mark.parametrize("kind", ["decentralized", "centralized", "game", "deviation", "study"])
def test_law_keeps_one_row_per_grid_time(monkeypatch, social_params, kind):
    # a public view builds one row per grid time however many passes and
    # block shapes step it; the Nash search builds the equilibrium's and the
    # deviations' tables once each, and the convergence study its two laws'
    # tables once each, whatever their blocks, one row per grid time
    times = []
    rows = social._rows

    def counted_rows(gains, t, *args, **kwargs):
        times.append(t)
        return rows(gains, t, *args, **kwargs)

    for module in (social, sim):   # sim steps the tables it imports from social
        monkeypatch.setattr(module, "_rows", counted_rows)
    params = social_params.replace(G=0.0) if kind == "game" else social_params
    cfg = SimConfig(N=3, dt=0.02, T=0.2, seed=5)
    if kind == "deviation":   # coupled (G != 0), then decoupled, over several blocks
        monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * _replication_bytes(3, cfg.steps, 3, 1, 1))
        cfgM = _dc_replace(cfg, replications=5)
        for p in (params, params.replace(G=0.0)):
            times.clear()
            rep = nash_deviation_search(p, synth_game_finite(p, cfg.T, steps=cfg.steps), cfgM,
                                        grid=[(0.0, 0.0), (0.1, -0.2), (-0.1, 0.2)])
            assert rep.details["decoupled_fast_path"] is (p is not params)
            assert [t.tolist() for t in times] == 2 * [cfg.grid().tolist()]
        return
    if kind == "study":   # two population sizes, several blocks each
        monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * _replication_bytes(3, cfg.steps, 2, 1, 1))
        convergence_study(params, [2, 3], _dc_replace(cfg, replications=5))
        assert [t.tolist() for t in times] == 2 * [cfg.grid().tolist()]
        return
    gains = _gains(params, kind, "finite")   # 21 grid points, step 0.01
    law = (centralized_law if kind == "centralized" else
           game_law if kind == "game" else social_law)(gains)
    # (N, block size): None steps one replication, M also a block of M
    # copies of it, each equal to the replication
    for N, M in ((3, None), (3, 3), (7, 2), (1, 2), (7, None)):
        cfgN = cfg.with_N(N)
        one = simulate(params, law, cfgN)
        if M is not None:
            x0, xi = draw_agents(params, cfgN)
            states, _ = _pass(params, law, cfgN, np.broadcast_to(xi[:, None], (cfg.steps, M, N)),
                              np.broadcast_to(x0, (M, N, 1)))
            assert all(np.array_equal(states[:, j], one.states) for j in range(M))
    assert sorted(times) == cfg.grid().tolist()


def _same_bits(block, single, n):
    """``_same``, with bitwise meaning every bit: a zero's sign included."""
    if n == 1:
        return block.shape == single.shape and block.tobytes() == single.tobytes()
    return _same(block, single, n)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 3), kind=hst.sampled_from(["study", "deviation", "replay"]),
       horizon=hst.sampled_from(["finite", "infinite"]), forcing=hst.sampled_from(["random", "zero"]),
       averaged=hst.booleans(), seed=hst.integers(0, 2**16))
def test_stacked_law_equals_each_populations_own_affine(n, kind, horizon, forcing, averaged,
                                                         seed):
    # the stepper's stacked law is each population's own _affine of its
    # table: the study's decentralized and centralized tables share P x over
    # the stack (the centralized one reading the average it is handed, or
    # forming its own), the coupled search overwrites agent 1's column with
    # deviation rows, and the replay steps a stacked (E, n, n) P; zero
    # forcing and zero states give zero offsets, whose signs are kept
    rng = np.random.default_rng(seed)
    params = _random_params(rng, n, coupled=not (kind != "study" and horizon == "infinite"))
    if forcing == "zero":
        params = params.replace(f=np.zeros(n), eta=np.zeros(n), x_bar0=np.zeros(n))
    gains = _gains(params, "study" if kind == "study" else "deviation", horizon)
    RB = np.linalg.solve(params.R, params.B.T)
    grid = gains.grid[:6]
    E, m, N = 3, 2, 4
    dev = _rows(gains, grid, dP=0.2 * rng.standard_normal((E, n, n)),
                dc=0.2 * rng.standard_normal((E, 1, n)))
    if kind == "study":
        tables = [_rows(gains, grid, centralized=c) for c in (False, True)]
        law, shape = sim._row_law(RB, *enumerate(tables)), (2, m, N, n)
    elif kind == "deviation":
        eq = _rows(gains, grid)
        law, shape = sim._row_law(RB, (..., eq), (np.s_[1:, :, 0], dev)), (1 + E, m, N, n)
    else:
        law, shape = sim._row_law(RB, (..., dev)), (E, m, n)
    row = lambda table, k, *i: [None if a is None else a[k][i] for a in table]
    for k in range(len(grid)):
        X = rng.standard_normal(shape)
        X[rng.random(shape) < 0.3] = 0.0
        X[rng.random(shape) < 0.3] = -0.0
        U = law(k, X, _average(X) if averaged else None)
        if kind == "study":
            for i, table in enumerate(tables):
                assert _same_bits(U[i], _affine(RB, *row(table, k), X[i]), n)
        elif kind == "deviation":
            for i in range(1 + E):
                want = _affine(RB, *row(eq, k), X[i])
                if i:
                    want[:, 0] = _affine(RB, *row(dev, k, i - 1), X[i, :, 0])
                assert _same_bits(U[i], want, n)
        else:
            for e in range(E):
                assert _same_bits(U[e], _affine(RB, *row(dev, k, e), X[e]), n)


def test_population_tables_must_share_p_and_cover_the_stack(social_params):
    gains = synth_social_finite(social_params, 0.2, steps=20)
    RB = np.linalg.solve(social_params.R, social_params.B.T)
    dec, cen = (_rows(gains, gains.grid, centralized=c) for c in (False, True))
    with pytest.raises(ValueError, match="share one P"):
        sim._row_law(RB, (0, dec), (1, (2.0 * cen[0], *cen[1:])))
    for parts in (((1, dec),), ((np.s_[:, :, 0], dec),)):
        with pytest.raises(ValueError, match="cover the whole stack"):
            sim._row_law(RB, *parts)
    # one table per population: a stack of two populations needs two tables
    X = np.ones((2, 3, 4, 1))
    for parts in (((0, dec),), ((0, dec), (2, cen)), ((0, dec), (1, cen), (2, cen))):
        with pytest.raises(ValueError, match="zip"):
            sim._row_law(RB, *parts)(0, X, _average(X))


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(1, 3), L=hst.integers(1, 3), M=hst.integers(1, 4),
       N=hst.integers(1, 200), scale=hst.sampled_from([1e-3, 1.0, 5.0, 1e6]),
       seed=hst.integers(0, 2**16))
def test_block_sum_over_n_is_mean_bitwise(n, L, M, N, scale, seed):
    # the one population average, _average: X.sum / N, which is what
    # ndarray.mean computes, on the (-1, N, n) view, so that L laws stacked
    # on a block of M replications, or a window of such states, average each
    # replication exactly as a lone block (M, N, n) or replication (N, n) does
    X = scale * np.random.default_rng(seed).standard_normal((3, L, M, N, n)) + scale
    for l in range(L):
        block = X[0, l]
        assert np.array_equal(_average(block), block.mean(axis=-2, keepdims=True))
        assert np.array_equal(_average(block[0]), block[0].mean(axis=-2, keepdims=True))
        assert np.array_equal(_average(X[0])[l], _average(block))
        assert np.array_equal(_average(X)[:, l], np.stack([_average(w[l]) for w in X]))


@settings(max_examples=120, deadline=None)
@given(n=hst.integers(1, 3), r=hst.integers(1, 3),
       lead=hst.sampled_from([(), (3,), (2, 3)]), N=hst.integers(1, 40),
       view=hst.sampled_from(["whole", "first-agent", "broadcast", "transposed-M"]),
       seed=hst.integers(0, 2**16))
def test_two_d_product_equals_matmul(n, r, lead, N, view, seed):
    # _dot is the stepper's and _affine's X @ M as one 2-D BLAS call: a
    # 1 x 1 product has no sum to round, so for n = 1 it is X @ M bit for
    # bit; for n >= 2 BLAS rounds a row's short sum by a kernel that may
    # depend on the row count, so it agrees to a few ulps of |X| @ |M|
    rng = np.random.default_rng(seed)
    X = 3.0 * rng.standard_normal((*lead, N, n)) + 1.0
    M = rng.standard_normal((n, r))
    if view == "first-agent":      # agent 1's rows, as a deviation law sees them
        X = X[..., :1, :]
    elif view == "broadcast":      # one agent's state repeated, with zero strides
        X = np.broadcast_to(X[..., :1, :], X.shape)
    elif view == "transposed-M":   # a gain passed as P.T or RB.T
        M = rng.standard_normal((r, n)).T
    for x in (X, X[(0,) * (X.ndim - 1)]):   # a batch, and a lone state (n,)
        got, want = _dot(x, M), x @ M
        assert got.shape == want.shape
        if n == 1:
            assert np.array_equal(got, want)
        else:
            bound = 4 * n * np.finfo(float).eps * (np.abs(x) @ np.abs(M))
            assert np.all(np.abs(got - want) <= bound)


def test_studies_step_all_their_laws_in_one_pass_per_block(monkeypatch, social_params):
    # the convergence study steps the decentralized and centralized laws, and
    # the coupled Nash search its equilibrium and every deviation, stacked:
    # one _steps pass per block of draws
    blocks, passes = [], []
    draw_block, steps = sim._draw_block, sim._steps

    def counted_draw(params, config, reps):
        blocks.append(len(reps))
        return draw_block(params, config, reps)

    def counted_steps(params, law, config, noise, init_states, window):
        passes.append(noise.shape[1:-1])
        return steps(params, law, config, noise, init_states, window)

    monkeypatch.setattr(sim, "_draw_block", counted_draw)
    monkeypatch.setattr(sim, "_steps", counted_steps)
    cfg = SimConfig(N=4, dt=0.05, T=1.0, replications=5, seed=2)
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * _replication_bytes(6, cfg.steps, 2, 1, 1))
    convergence_study(social_params, (4, 6), cfg, metrics=("gap", "social"))
    assert blocks == [3, 2, 2, 2, 1]
    assert passes == [(2, m) for m in blocks]

    blocks.clear()
    passes.clear()
    gains = synth_game_finite(social_params, cfg.T, steps=cfg.steps)
    nash_deviation_search(social_params, gains, cfg, grid=[(0.0, 0.0), (0.2, 0.1), (-0.2, 0.0)])
    assert len(blocks) > 1
    assert passes == [(3, m) for m in blocks]


def test_a_step_averages_its_population_at_most_once(monkeypatch, social_params):
    # the stepper forms the average once per step when the drift reads it
    # (G != 0) and hands it to the law: a coupled convergence pass averages
    # K + 1 times, plus once per window for its reduction; an uncoupled Nash
    # search's baseline pass, whose law reads no average, only once per
    # window, and its replay never
    calls = []
    average = social._average

    def counted(X):
        calls.append(X.shape)
        return average(X)

    for module in (social, sim):   # sim steps with the _average it imports from social
        monkeypatch.setattr(module, "_average", counted)
    cfg = SimConfig(N=4, dt=0.05, T=2.0, replications=3, seed=2)
    windows = -(-(cfg.steps + 1) // sim._WINDOW)
    convergence_study(social_params, (4,), cfg, metrics=("gap", "social"))
    assert len(calls) == cfg.steps + 1 + windows

    calls.clear()
    game_params = social_params.replace(G=0.0)
    rep = nash_deviation_search(game_params, synth_game_finite(game_params, cfg.T, steps=cfg.steps),
                                cfg, grid=affine_deviation_grid(0.2, 3))
    assert rep.details["decoupled_fast_path"] is True
    assert len(calls) == windows


def test_decoupled_search_replays_all_deviations_in_one_windowed_pass(monkeypatch, game_params):
    # G = 0: the equilibrium steps alone on each block, then agent 1's draws
    # are replayed under all E deviations as (E, M) rows in one windowed pass
    blocks, passes = [], []
    draw_block, steps = sim._draw_block, sim._steps

    def counted_draw(params, config, reps):
        blocks.append(len(reps))
        return draw_block(params, config, reps)

    def counted_steps(params, law, config, noise, init_states, window):
        passes.append((noise.shape[1:-1], window))
        return steps(params, law, config, noise, init_states, window)

    monkeypatch.setattr(sim, "_draw_block", counted_draw)
    monkeypatch.setattr(sim, "_steps", counted_steps)
    cfg = SimConfig(N=4, dt=0.05, T=1.0, replications=5, seed=2)
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * _replication_bytes(cfg.N, cfg.steps, 1, 1, 1))
    rep = nash_deviation_search(game_params, synth_game_infinite(game_params), cfg,
                                grid=affine_deviation_grid(0.2, 3))   # 8 non-zero entries
    assert rep.details["decoupled_fast_path"] is True
    assert blocks == [2, 2, 1]
    assert passes == [((1, m), sim._WINDOW) for m in blocks] + [((8,), sim._WINDOW)]


def test_coupled_search_calls_the_equilibrium_law_once_per_step(monkeypatch, social_params):
    # G != 0: every deviation is a row block of one stacked table, so the
    # equilibrium's row (P (n, n); a deviation row's P is (E, n, n)) is applied
    # once per grid step per block, whatever the grid size
    calls, blocks = [], []
    draw_block, affine = sim._draw_block, sim._affine

    def counted_affine(RB, P, K, o, X):
        calls.append(P.ndim)
        return affine(RB, P, K, o, X)

    def counted_draw(params, config, reps):
        blocks.append(len(reps))
        return draw_block(params, config, reps)

    monkeypatch.setattr(sim, "_affine", counted_affine)
    monkeypatch.setattr(sim, "_draw_block", counted_draw)
    cfg = SimConfig(N=4, dt=0.05, T=1.0, replications=3, seed=1)
    gains = synth_game_finite(social_params, cfg.T, steps=cfg.steps)
    counts = []
    for points in (3, 5):
        calls.clear()
        blocks.clear()
        rep = nash_deviation_search(social_params, gains, cfg,
                                    grid=affine_deviation_grid(0.2, points))
        assert rep.details["decoupled_fast_path"] is False
        assert calls.count(2) == calls.count(3) == len(blocks) * (cfg.steps + 1)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_control_escapes_at_the_first_step(social_params, bad):
    def law(t, X):
        return np.full((*X.shape[:-1], 1), bad if t == 0.0 else 0.0)

    cfg = SimConfig(N=3, dt=0.05, T=1.0, seed=0)
    with pytest.raises(SimulationUnstableError) as err:
        simulate(social_params, law, cfg)
    assert err.value.t_escape == cfg.dt
