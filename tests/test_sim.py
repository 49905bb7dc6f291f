"""Population simulator: stepper correctness, stream reproducibility, cost
quadrature, and the two study drivers."""

import csv

import numpy as np
import pytest

from conftest import scalar_params
from mflq import ModelParams
from mflq.errors import ModelValidationError, SimulationUnstableError
from mflq.game import game_law, synth_game_finite, synth_game_infinite
from mflq.sim import (
    SimConfig,
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
    law = social_law(synth_social_infinite(p))
    errs = []
    for dt in (0.02, 0.01, 0.005):
        b = simulate(p, law, SimConfig(N=1, dt=dt, T=4.0, seed=0))
        errs.append(np.max(np.abs(b.states[:, 0, 0] - b.xbar_ref[:, 0])))
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
    law = social_law(synth_social_infinite(p))
    b = simulate(p, law, SimConfig(N=4, dt=0.01, T=10.0, seed=3))
    gap = meanfield_gap(b, p.rho)
    assert gap.sup_gap < 1e-5
    assert gap.disc_gap < 1e-5
    with pytest.raises(ValueError):
        meanfield_gap(simulate(p, _zero_law, SimConfig(N=2, dt=0.01, T=1.0, seed=0)),
                      p.rho)


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
    # gains on a mismatched grid are rejected
    from mflq.social import synth_social_finite
    bad = synth_social_finite(social_params, 2.0, steps=3)
    with pytest.raises(ModelValidationError):
        convergence_study(social_params, (4,), cfg, gains=bad)


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


def test_finite_horizon_gains_are_not_extrapolated(social_params):
    gains = synth_social_finite(social_params, 1.0, steps=100)
    with pytest.raises(ModelValidationError, match=r"end at t=1; .* at t=1\.01"):
        simulate(social_params, social_law(gains), SimConfig(N=2, dt=0.01, T=3.0, seed=0))
    # inside the grid, including its last point, the gains still apply
    b = simulate(social_params, social_law(gains), SimConfig(N=2, dt=0.01, T=1.0, seed=0))
    assert np.isfinite(b.controls).all()
