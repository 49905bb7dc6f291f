"""Population simulator: stepper correctness, stream reproducibility, cost
quadrature, and the two study drivers."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import scalar_params
from mflq import ModelParams, sim
from mflq.errors import ModelValidationError, SimulationUnstableError
from mflq.game import game_law, synth_game_finite, synth_game_infinite
from mflq.model import TimePath
from mflq.sim import (
    SimConfig,
    TrajectoryBundle,
    _agent_cost,
    _loglog_fit,
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
    _feedback,
    _law,
    centralized_law,
    social_law,
    synth_social_finite,
    synth_social_infinite,
)


def _zero_law(t, X):
    return np.zeros((X.shape[0], 1))


def test_config_validation_and_with_n():
    cfg = SimConfig(N=4, dt=0.01, T=2.0, replications=3, seed=7)
    cfg.validate()
    assert cfg.steps == 200
    assert cfg.grid()[-1] == 2.0
    assert cfg.with_N(9) == SimConfig(N=9, dt=0.01, T=2.0, replications=3, seed=7)
    for bad in (SimConfig(N=0, dt=0.01, T=1.0),
                SimConfig(N=1, dt=-0.01, T=1.0),
                SimConfig(N=1, dt=0.01, T=0.0),
                SimConfig(N=1, dt=0.3, T=1.0)):   # T not a multiple of dt
        with pytest.raises(ModelValidationError):
            bad.validate()


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
    x0, xi = draw_agents(social_params, cfg)
    dec = simulate(social_params, social_law(gains), cfg, noise=xi, init_states=x0)
    cen = simulate(social_params, centralized_law(gains), cfg, noise=xi, init_states=x0)
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
    else:
        x0, xi = np.stack([x for x, _ in draws]), np.stack([w for _, w in draws], axis=1)
    b = simulate(params, law, cfg, noise=xi, init_states=x0)
    X = x0
    for k, t in enumerate(cfg.grid()):
        assert np.array_equal(b.states[k], X), k
        if k == cfg.steps:
            break
        avg = X.sum(axis=-2, keepdims=True) / cfg.N
        drift = X @ params.A.T + law(t, X) @ params.B.T + (avg @ params.G.T + f(t))
        X = X + drift * cfg.dt + (np.sqrt(cfg.dt) * xi[k])[..., None] * sigma(t)


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
    fit_slope, se, _ = _loglog_fit(N_list, y)
    assert se == math.inf
    assert fit_slope == (None if slope is None else pytest.approx(slope, abs=1e-14))


def test_loglog_fit_error_matches_polyfit_covariance():
    # three sizes leave one residual degree of freedom
    N_list, y = [4, 16, 64], [0.5, 0.125, 0.04]
    slope, se, _ = _loglog_fit(N_list, y)
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
        x0, xi = draw_agents(game_params, cfg, r)
        J_eq, J_dev = (evaluate_costs(simulate(game_params, law, cfg, r, noise=xi,
                                               init_states=x0),
                                      game_params, "infinite").J[0]
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


def test_csv_round_trip(tmp_path, social_params):
    law = social_law(synth_social_infinite(social_params))
    b = simulate(social_params, law, SimConfig(N=2, dt=0.25, T=0.5, seed=0))
    path = tmp_path / "traj.csv"
    export_trajectory_csv(path, b)
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
    if isinstance(bundles, TrajectoryBundle):
        bundles = [bundles]
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
        bundles = _special_values_bundle()
    else:
        params = planar_params if case.startswith("planar") else social_params
        cfg = SimConfig(N=3, dt=0.1, T=0.5, replications=3, seed=2)
        law = social_law(synth_social_infinite(params))
        bundles = [simulate(params, law, cfg, rep) for rep in range(cfg.replications)]
        if case == "single":
            bundles = bundles[1]
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


def test_csv_refuses_block_bundles(tmp_path, social_params):
    cfg = SimConfig(N=3, dt=0.1, T=0.2, replications=2, seed=0)
    draws = [draw_agents(social_params, cfg, rep) for rep in range(2)]
    block = simulate(social_params, social_law(synth_social_infinite(social_params)), cfg,
                     noise=np.stack([xi for _, xi in draws], axis=1),
                     init_states=np.stack([x0 for x0, _ in draws]))
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match="one replication at a time"):
        export_trajectory_csv(path, block)
    assert not path.exists()


def test_finite_horizon_gains_are_not_extrapolated(social_params):
    gains = synth_social_finite(social_params, 1.0, steps=100)
    with pytest.raises(ModelValidationError, match=r"end at t=1; .* at t=1\.01"):
        simulate(social_params, social_law(gains), SimConfig(N=2, dt=0.01, T=3.0, seed=0))
    # inside the grid, including its last point, the gains still apply
    b = simulate(social_params, social_law(gains), SimConfig(N=2, dt=0.01, T=1.0, seed=0))
    assert np.isfinite(b.controls).all()


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
    block = simulate(params, law, cfg, noise=np.stack([xi for _, xi in draws], axis=1),
                     init_states=np.stack([x0 for x0, _ in draws]))
    assert block.states.shape == (cfg.steps + 1, M, N, n)
    assert block.controls.shape == (cfg.steps + 1, M, N, r)
    assert block.avg.shape == (cfg.steps + 1, M, n)
    assert block.N == N
    for rep, (x0, xi) in enumerate(draws):
        one = simulate(params, law, cfg, rep, noise=xi, init_states=x0)
        assert _same(block.states[:, rep], one.states, n)
        assert _same(block.controls[:, rep], one.controls, n)
        assert _same(block.avg[:, rep], one.avg, n)


def test_block_call_needs_explicit_draws(social_params):
    law = social_law(synth_social_infinite(social_params))
    cfg = SimConfig(N=3, dt=0.1, T=0.5, replications=2, seed=0)
    with pytest.raises(ValueError, match="block"):
        simulate(social_params, law, cfg, noise=np.zeros((cfg.steps, 2, 3)))
    with pytest.raises(ValueError, match="block"):
        simulate(social_params, law, cfg, init_states=np.zeros((2, 3, 1)))


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
            x0, xi = draw_agents(params, cfg, rep)
            b_dec = simulate(params, dec, cfg, rep, noise=xi, init_states=x0)
            b_cen = simulate(params, cen, cfg, rep, noise=xi, init_states=x0)
            gap = meanfield_gap(b_dec, x_bar, params.rho)
            s.append(gap.sup_gap)
            d.append(gap.disc_gap)
            j.append((evaluate_costs(b_dec, params, gains.horizon).J_soc
                      - evaluate_costs(b_cen, params, gains.horizon).J_soc) / N)
        sup.append(mean_se(s))
        disc.append(mean_se(d))
        dJ.append(mean_se(j))
    return {name: (np.array([m for m, _ in v]), np.array([e for _, e in v]))
            for name, v in (("gap_sup", sup), ("gap_disc", disc), ("dJ", dJ))}


def _reference_nash(params, gains, config, grid):
    """Agent 1's costs per replication: full-population equilibrium runs one
    replication at a time, then each deviation stepped alone on agent 1's own
    draws against the recorded average of the others."""
    N, M, K, n, r = config.N, config.replications, config.steps, params.n, params.r
    law_eq = game_law(gains)
    RB = np.linalg.solve(params.R, params.B.T)
    one = config.with_N(1)
    x1, u1, avg = np.empty((K + 1, M, n)), np.empty((K + 1, M, r)), np.empty((K + 1, M, n))
    xd, ud = np.empty((len(grid), K + 1, M, n)), np.empty((len(grid), K + 1, M, r))
    for rep in range(M):
        x0, xi = draw_agents(params, config, rep)
        b = simulate(params, law_eq, config, rep, noise=xi, init_states=x0)
        x1[:, rep], u1[:, rep], avg[:, rep] = b.states[:, 0], b.controls[:, 0], b.avg
        for i, (dp, dc) in enumerate(grid):
            dP = dp * np.eye(n) if np.ndim(dp) == 0 else np.asarray(dp, float)
            dcv = dc * np.ones(n) if np.ndim(dc) == 0 else np.asarray(dc, float)

            def law(t, X):
                offset = gains.K_at(t) @ gains.x_bar_at(t) + gains.s_hat_at(t) + dcv
                return -(X @ (gains.P_at(t) + dP).T + offset) @ RB.T

            d = simulate(params, law, one, rep, noise=xi[:, :1], init_states=x0[:1])
            xd[i, :, rep], ud[i, :, rep] = d.states[:, 0], d.controls[:, 0]
    grid_t = config.grid()
    J_base = _agent_cost(params, grid_t, x1, u1, avg)
    J_dev = [_agent_cost(params, grid_t, xd[i], ud[i], avg + (xd[i] - x1) / N)
             for i in range(len(grid))]
    return J_base, J_dev


def _close(a, b, rel):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def test_blocked_studies_match_per_replication_loop_scalar(social_params, game_params):
    # N = 128 over 501 steps holds 4 replications per block: 6 replications
    # make one full block and a partial one
    cfg = SimConfig(N=8, dt=0.01, T=5.0, replications=6, seed=11)
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
        x0, xi = draw_agents(params, config, rep)
        for i, law in enumerate(laws):
            b = simulate(params, law, config, rep, noise=xi, init_states=x0)
            x1[i, :, rep], u1[i, :, rep], avg[i, :, rep] = b.states[:, 0], b.controls[:, 0], b.avg
    J = [_agent_cost(params, config.grid(), x1[i], u1[i], avg[i]) for i in range(len(laws))]
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
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 2 * (cfg.steps + 1) * cfg.N * n * 8)
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
# block bundles, kept gain rows and the slimmed step

def test_costs_refuse_block_bundles(social_params):
    # M = 1 used to broadcast disc[:, None] against the replication axis and
    # return J of shape (K+1, N)
    cfg = SimConfig(N=4, dt=0.1, T=1.0, seed=0)
    x0, xi = draw_agents(social_params, cfg)
    block = simulate(social_params, social_law(synth_social_infinite(social_params)), cfg,
                     noise=xi[:, None], init_states=x0[None])
    shape = r"\(11, 1, 4, 1\)"
    with pytest.raises(ValueError, match=f"evaluate_costs .*{shape}"):
        evaluate_costs(block, social_params, "infinite")
    with pytest.raises(ValueError, match=f"meanfield_gap .*{shape}"):
        meanfield_gap(block, np.zeros((11, 1)), social_params.rho)
    one = sim._replication(block, 0, 0)
    assert evaluate_costs(one, social_params, "infinite").J.shape == (4,)


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


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 3), kind=hst.sampled_from(["decentralized", "centralized", "game",
                                                    "deviation"]),
       horizon=hst.sampled_from(["finite", "infinite"]), seed=hst.integers(0, 2**16))
def test_kept_rows_equal_uncached_feedback(n, kind, horizon, seed):
    rng = np.random.default_rng(seed)
    # infinite-horizon games need G = 0
    params = _random_params(rng, n, coupled=not (kind in ("game", "deviation")
                                                 and horizon == "infinite"))
    gains = _gains(params, kind, horizon)
    RB = np.linalg.solve(params.R, params.B.T)
    if kind == "deviation":
        E = 3
        dP = 0.2 * rng.standard_normal((E, n, n))
        dc = 0.2 * rng.standard_normal((E, 1, n))
        law = _law(gains, dP=dP, dc=dc)
        shapes = [(E, 4, n)]
    else:
        law = (centralized_law if kind == "centralized" else
               game_law if kind == "game" else social_law)(gains)
        shapes = [(n,), (5, n), (3, 4, n)]
    on_grid = gains.grid[int(rng.integers(0, 21))] if horizon == "finite" else 0.0
    times = [on_grid, 0.2 * rng.random(), on_grid]   # a repeat reads the kept row
    for t in times:
        for shape in shapes:
            X = rng.standard_normal(shape)
            if kind == "centralized":   # a lone state (n,) is its own average
                x_bar = X if X.ndim == 1 else X.mean(axis=-2, keepdims=True)
                want = _feedback(RB, gains.P_at(t), X, gains._offset_at(t, x_bar))
            elif kind == "deviation":
                want = _feedback(RB, gains.P_at(t) + dP, X,
                                 gains._offset_at(t, gains.x_bar_at(t)) + dc)
            else:
                want = _feedback(RB, gains.P_at(t), X, gains._offset_at(t, gains.x_bar_at(t)))
            got = law(t, X)
            assert got.shape == want.shape and np.array_equal(got, want)
    assert law._rows.cache_info().currsize == len(set(times))
    # every row is (P, K, o); K is kept only to multiply a realized average
    assert (law._rows(times[0])[1] is None) == (kind != "centralized")


@pytest.mark.parametrize("kind", ["decentralized", "centralized", "game", "deviation"])
def test_law_keeps_one_row_per_grid_time(social_params, kind):
    params = social_params.replace(G=0.0) if kind in ("game", "deviation") else social_params
    gains = _gains(params, kind, "finite")   # 21 grid points, step 0.01
    if kind == "deviation":   # a stack of two deviations steps (2, N, n) blocks
        law = _law(gains, dP=np.full((2, 1, 1), 0.1), dc=np.full((2, 1, 1), -0.2))
    else:
        law = (centralized_law if kind == "centralized" else
               game_law if kind == "game" else social_law)(gains)
    cfg = SimConfig(N=3, dt=0.02, T=0.2, seed=5)
    # (N, block size): None steps one replication, M a block of M
    for N, M in ((3, None), (3, 3), (7, 2), (1, 2), (7, None)):
        cfgN = cfg.with_N(N)
        x0, xi = draw_agents(params, cfgN)
        if kind == "deviation":
            M = 2
        if M is None:
            simulate(params, law, cfgN, noise=xi, init_states=x0)
        else:
            simulate(params, law, cfgN, noise=np.broadcast_to(xi[:, None], (cfg.steps, M, N)),
                     init_states=np.broadcast_to(x0, (M, N, 1)))
    assert law._rows.cache_info().currsize == cfg.steps + 1


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(1, 3), M=hst.integers(1, 4), N=hst.integers(1, 200),
       scale=hst.sampled_from([1e-3, 1.0, 5.0, 1e6]), seed=hst.integers(0, 2**16))
def test_block_sum_over_n_is_mean_bitwise(n, M, N, scale, seed):
    # the stepper's and the centralized law's average: X.sum / N, which is
    # what ndarray.mean computes
    X = scale * np.random.default_rng(seed).standard_normal((M, N, n)) + scale
    got = X.sum(axis=-2, keepdims=True) / N
    assert np.array_equal(got, X.mean(axis=-2, keepdims=True))
    assert np.array_equal(X[0].sum(axis=-2, keepdims=True) / N, X[0].mean(axis=-2, keepdims=True))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_control_escapes_at_the_first_step(social_params, bad):
    def law(t, X):
        return np.full((*X.shape[:-1], 1), bad if t == 0.0 else 0.0)

    cfg = SimConfig(N=3, dt=0.05, T=1.0, seed=0)
    with pytest.raises(SimulationUnstableError) as err:
        simulate(social_params, law, cfg)
    assert err.value.t_escape == cfg.dt
