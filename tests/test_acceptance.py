"""Top-level acceptance gate: one test per release criterion, each printing a
visible PASS/FAIL line (see the hook in conftest).  Numbered to run in order."""

import csv
import math
import time

import numpy as np

from conftest import scalar_params
from mflq.cli import make_figure
from mflq.game import (
    representation_check_game,
    representation_check_social,
    synth_game_finite,
    synth_game_infinite,
)
from mflq.model import derived_weights
from mflq.riccati import (
    _riccati_slope,
    build_hamiltonian,
    control_gain_matrix,
    integrate_backward,
    solve_are_stable_subspace,
)
from mflq.sim import SimConfig, convergence_study, export_study_csv, nash_deviation_search
from mflq.social import synth_social_finite, synth_social_infinite
from mflq.stability import analyze
from test_stability import _random_model


def test_criterion_01_scalar_are_oracle():
    start = time.perf_counter()
    p = scalar_params()                       # a = 1, b = q = r = 1, rho = 0.6
    ham = build_hamiltonian(p, derived_weights(p), "M1")
    sol = solve_are_stable_subspace(ham)
    F, S, _, _ = ham.blocks()
    closed_loop = (F - S @ sol.X)[0, 0]
    delta = (p.rho - 2.0) ** 2 + 4.0          # discriminant of the quadratic
    assert abs(sol.X[0, 0] - (1.4 + math.sqrt(delta)) / 2.0) < 1e-10
    assert abs(closed_loop - (-math.sqrt(delta) / 2.0)) < 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_02_exact_rational_gains():
    social = synth_social_infinite(scalar_params())
    assert abs(social.Pi[0, 0] - 1.8) < 1e-10
    assert abs(social.s[0] - (-2.625)) < 1e-10
    game = synth_game_infinite(scalar_params(G=0.0))
    assert abs(game.P_bar[0, 0] - 2.0) < 1e-10
    assert abs(game.s_hat[0] - (-1.875)) < 1e-10


def test_criterion_03_finite_horizon_consistency():
    for A in (0.2, 1.0):
        ps = scalar_params(A=A)
        lim = synth_social_infinite(ps)
        fin = synth_social_finite(ps, 30.0)
        assert abs(fin.P_at(0.0)[0, 0] - lim.P[0, 0]) < 1e-4
        assert abs(fin.Pi_at(0.0)[0, 0] - lim.Pi[0, 0]) < 1e-4
        # the stored difference gain equals independently integrated Pi - P
        S = control_gain_matrix(ps.B, ps.R)
        w = derived_weights(ps)
        AG = ps.A + ps.G
        P_sep = integrate_backward(
            lambda X: _riccati_slope(ps.rho, ps.A, ps.A, S, ps.Q, X),
            np.zeros((1, 1)), fin.grid)
        Pi_sep = integrate_backward(
            lambda X: _riccati_slope(ps.rho, AG, AG, S, w.Q_hat, X),
            np.zeros((1, 1)), fin.grid)
        assert np.max(np.abs(fin.K - (Pi_sep - P_sep))) < 1e-8

        pg = scalar_params(A=A, G=0.0)
        glim = synth_game_infinite(pg)
        gfin = synth_game_finite(pg, 30.0)
        assert abs(gfin.P_bar_at(0.0)[0, 0] - glim.P_bar[0, 0]) < 1e-4
        assert abs(gfin.P_at(0.0)[0, 0] - glim.P[0, 0]) < 1e-4


def test_criterion_04_representation_equivalence(homogeneous_params):
    start = time.perf_counter()
    for report in (representation_check_social(homogeneous_params),
                   representation_check_game(homogeneous_params)):
        assert report.passed
        assert report.gain_identity_diff < 1e-8
        assert report.trajectory_diff < 1e-8
    assert time.perf_counter() - start < 10.0


def test_criterion_05_meanfield_gap_rate(social_params):
    start = time.perf_counter()
    study = convergence_study(
        social_params, (8, 32, 128),
        SimConfig(N=8, dt=1e-2, T=10.0, replications=200, seed=0),
        horizon="infinite", metrics=("gap",))
    assert -1.3 < study.gap_slope < -0.7
    assert time.perf_counter() - start < 120.0


def test_criterion_06_social_optimality_gap(social_params):
    start = time.perf_counter()
    study = convergence_study(
        social_params, (8, 32, 128),
        SimConfig(N=8, dt=1e-2, T=5.0, replications=200, seed=0),
        horizon="finite", metrics=("social",))
    assert np.all(study.dJ_mean >= -3.0 * study.dJ_se)
    scaled = study.dJ_scaled
    assert np.all(scaled > 0.0)
    assert scaled.max() / scaled.min() < 5.0
    assert time.perf_counter() - start < 180.0


def test_criterion_07_epsilon_nash(game_params):
    start = time.perf_counter()
    gains = synth_game_infinite(game_params)
    N_grid = (10, 50, 200)
    imp, se = [], []
    for N in N_grid:
        rep = nash_deviation_search(
            game_params, gains,
            SimConfig(N=N, dt=1e-2, T=5.0, replications=200, seed=0))
        imp.append(rep.max_improvement)
        se.append(rep.max_se)
    imp = np.array(imp)
    se = np.array(se)
    # nonincreasing in trend: each step may rise only within noise
    assert np.all(imp[1:] <= imp[:-1] + 3.0 * (se[1:] + se[:-1]))
    # least-squares C for improvement ~ C / sqrt(N), then a 3-sigma envelope
    x = 1.0 / np.sqrt(np.asarray(N_grid, float))
    C = float(x @ imp / (x @ x))
    assert np.all(imp <= C * x + 3.0 * se + 1e-12)
    assert time.perf_counter() - start < 180.0


def test_criterion_08_stabilization_route_agreement():
    rng = np.random.default_rng(2024)
    accepted = attempts = 0
    while accepted < 200:
        attempts += 1
        assert attempts < 2000, "sampler failed to hit the premise often enough"
        p = _random_model(rng, 1 if rng.uniform() < 0.5 else 2)
        report = analyze(p)
        if report.governing is None:
            continue
        accepted += 1
        assert report.verdict != "inconsistent", p
    degenerate = analyze(scalar_params(A=0.5, Gamma=1.0, eta=0.0))
    assert degenerate.verdict == "premise-violated"


def test_criterion_09_figure_reproduction(tmp_path):
    def load(which):
        with open(make_figure(which, str(tmp_path)), newline="") as fh:
            rows = list(csv.reader(fh))
        return np.array([[float(v) for v in r] for r in rows[1:]])

    populations = {which: load(which) for which in (1, 2, 3, 4)}
    overlay = load(5)
    assert overlay.shape == (1001, 5)
    # overlay columns replay the matching population runs (same seed)
    assert np.array_equal(overlay[:, 1:3], populations[1][:, 1:3])
    assert np.array_equal(overlay[:, 3:5], populations[3][:, 1:3])
    # realized average hugs the mean-field path within 3 sample stderr
    for which in (1, 3):
        data = populations[which]
        agents = data[:, 3:]
        stderr = agents.std(axis=1, ddof=1) / np.sqrt(agents.shape[1])
        assert np.all(np.abs(data[:, 2] - data[:, 1]) <= 3.0 * stderr)
    # cooperation settles the population strictly below the equilibrium
    late = overlay[:, 0] >= 5.0
    assert np.all(overlay[late, 2] < overlay[late, 4])


def test_criterion_10_bitwise_deterministic_csvs(tmp_path, social_params):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
    fig_a = make_figure(2, str(tmp_path / "a"))
    fig_b = make_figure(2, str(tmp_path / "b"))
    with open(fig_a, "rb") as fa, open(fig_b, "rb") as fb:
        assert fa.read() == fb.read()

    cfg = SimConfig(N=4, dt=0.05, T=1.0, replications=4, seed=0)
    for d in ("a", "b"):
        study = convergence_study(social_params, (4, 8, 16), cfg,
                                  horizon="infinite")
        export_study_csv(tmp_path / d / "study.csv", study.rows())
    assert (tmp_path / "a" / "study.csv").read_bytes() == \
        (tmp_path / "b" / "study.csv").read_bytes()
