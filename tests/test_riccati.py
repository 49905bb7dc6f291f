import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg import expm

from mflq import (
    ImaginaryAxisError,
    RiccatiBlowUpError,
    build_hamiltonian,
    derived_weights,
    finite_horizon_solvable,
    hamiltonian_from_blocks,
    solve_are_stable_subspace,
)
from mflq.errors import ModelValidationError, SingularSubspaceError
from mflq.model import control_gain_matrix
from mflq import riccati, social
from mflq.game import synth_game_finite
from mflq.social import synth_social_finite
from mflq.riccati import (
    HamiltonianMatrix,
    _riccati_slope,
    default_grid,
    imaginary_axis_clear,
    integrate_backward,
    riccati_residual,
)

from conftest import scalar_params
from oracles import offset_slope

# Frozen scalar-benchmark values (closed forms):
#   p    = (1.4 + sqrt(5.96)) / 2
#   loop = -sqrt(1.49)
P_ORACLE = 1.9206555615733703
LOOP_ORACLE = -1.2206555615733703


def _sv_ham(kind):
    p = scalar_params()
    return build_hamiltonian(p, derived_weights(p), kind)


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,expected", [
    ("M1", [[0.7, 1.0], [1.0, -0.7]]),
    ("M2", [[0.5, 1.0], [1.44, -0.5]]),
    ("M3", [[0.7, 1.0], [1.2, -0.7]]),
])
def test_hamiltonian_blocks_scalar_benchmark(kind, expected):
    ham = _sv_ham(kind)
    np.testing.assert_allclose(ham.M, expected, atol=1e-14)
    assert ham.kind == kind and ham.n == 1


def test_coefficient_matrix_uses_product_weight():
    # the lower-left block of the two-point coefficient matrix is the plain
    # product Q Gamma - Q, not the symmetrized tracking weight
    p = scalar_params(G=0.0)
    ham = build_hamiltonian(p, derived_weights(p), "script_A")
    np.testing.assert_allclose(ham.M, [[1.0, -1.0], [-1.2, -0.4]], atol=1e-14)


def test_hamiltonian_block_accessor():
    F, S, Qc, F22 = _sv_ham("M1").blocks()
    np.testing.assert_allclose(F, [[0.7]])
    np.testing.assert_allclose(S, [[1.0]])
    np.testing.assert_allclose(Qc, [[1.0]])
    np.testing.assert_allclose(F22, -F.T)


# ---------------------------------------------------------------------------
# algebraic solves
# ---------------------------------------------------------------------------

def test_stable_subspace_matches_quadratic_root():
    sol = solve_are_stable_subspace(_sv_ham("M1"))
    assert abs(sol.X[0, 0] - P_ORACLE) < 1e-12
    assert abs(sol.closed_loop[0, 0] - LOOP_ORACLE) < 1e-12
    assert sol.rho_stabilizing
    assert sol.symmetry_defect < 1e-14
    assert np.max(np.abs(riccati_residual(_sv_ham("M1"), sol.X))) < 1e-12


def test_average_equation_exact_rational_root():
    sol = solve_are_stable_subspace(_sv_ham("M2"))
    assert abs(sol.X[0, 0] - 1.8) < 1e-12
    assert abs(sol.closed_loop[0, 0] + 1.3) < 1e-12


def test_nonsymmetric_equation_exact_root():
    p = scalar_params(G=0.0)
    sol = solve_are_stable_subspace(build_hamiltonian(p, derived_weights(p), "M3"))
    assert abs(sol.X[0, 0] - 2.0) < 1e-12
    assert abs(sol.closed_loop[0, 0] + 1.3) < 1e-12


def test_random_systems_solve_and_stabilize():
    """Seeded sweep: residual small, shifted closed loop Hurwitz, X PSD."""
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(40):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        Qh = rng.normal(size=(n, n))
        Q = Qh @ Qh.T + 0.1 * np.eye(n)
        R = np.eye(n)
        rho = float(rng.uniform(0.1, 1.0))
        S = control_gain_matrix(B, R)
        ham = hamiltonian_from_blocks(A - 0.5 * rho * np.eye(n), S, Q, kind="M1")
        if not imaginary_axis_clear(ham):
            continue
        sol = solve_are_stable_subspace(ham)
        scale = 1.0 + np.max(np.abs(sol.X))
        assert np.max(np.abs(riccati_residual(ham, sol.X))) < 1e-8 * scale
        assert np.max(np.linalg.eigvals(sol.closed_loop).real) < 0
        assert np.min(np.linalg.eigvalsh(sol.X)) > -1e-8 * scale
        solved += 1
    assert solved >= 35


def test_axis_eigenvalues_are_rejected():
    # F = 0, S = 0, Qc = 0 puts the whole spectrum at the origin
    ham = hamiltonian_from_blocks(np.zeros((1, 1)), np.zeros((1, 1)),
                                  np.zeros((1, 1)), kind="custom")
    with pytest.raises(ImaginaryAxisError):
        solve_are_stable_subspace(ham)


def test_non_graph_subspace_is_rejected():
    # F = 1, S = 0, Qc = 0: the stable eigenvector has no state component,
    # so no Riccati root of graph form exists
    ham = hamiltonian_from_blocks(np.ones((1, 1)), np.zeros((1, 1)),
                                  np.zeros((1, 1)), kind="custom")
    with pytest.raises(SingularSubspaceError):
        solve_are_stable_subspace(ham)


# ---------------------------------------------------------------------------
# backward differential equation
# ---------------------------------------------------------------------------

def test_dre_terminal_condition_and_are_limit():
    p = scalar_params()
    S = control_gain_matrix(p.B, p.R)
    grid = default_grid(30.0)
    path = integrate_backward(lambda X: _riccati_slope(p.rho, p.A, p.A, S, p.Q, X),
                              np.zeros((1, 1)), grid)
    np.testing.assert_allclose(path[-1], np.zeros((1, 1)), atol=1e-14)
    assert abs(path[0][0, 0] - P_ORACLE) < 1e-6


def test_dre_step_halving_is_fourth_order():
    p = scalar_params()
    S = control_gain_matrix(p.B, p.R)
    vals = {}
    for steps in (50, 100, 200):
        grid = default_grid(5.0, steps)
        vals[steps] = integrate_backward(
            lambda X: _riccati_slope(p.rho, p.A, p.A, S, p.Q, X),
            np.zeros((1, 1)), grid)[0][0, 0]
    e1 = abs(vals[50] - vals[200])
    e2 = abs(vals[100] - vals[200])
    # classical fourth order: halving the step cuts the error ~16x
    assert e1 / e2 == pytest.approx(16.0, rel=0.5)


def test_dre_blowup_raises_with_escape_time():
    # gamma = 3 makes the coupled-equation weight negative enough to blow up
    p = scalar_params(Gamma=3.0)
    w = derived_weights(p)
    S = control_gain_matrix(p.B, p.R)
    grid = default_grid(20.0)
    with pytest.raises(RiccatiBlowUpError) as exc:
        integrate_backward(lambda X: _riccati_slope(p.rho, p.A, p.A + p.G, S, w.Q_IG, X),
                           np.zeros((1, 1)), grid)
    assert exc.value.t_escape is not None
    # escape happens ~0.86 time units before the terminal time
    assert 20.0 - exc.value.t_escape == pytest.approx(0.857, abs=0.05)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2 * riccati._BLOWUP_CAP],
                         ids=["nan", "+inf", "-inf", "twice-the-cap"])
def test_a_state_past_the_cap_or_not_finite_escapes_at_its_step(value):
    # the slope is 0 above t = 0.57 and c below, so the step from 0.6 to 0.5
    # is the first to move the state: by (5/6) h c = value; the pass is
    # autonomous, so the time is a clock component y[0] with slope 1
    grid = default_grid(1.0, 10)
    h = grid[5] - grid[6]
    c = value / (5.0 / 6.0 * h)
    with pytest.raises(RiccatiBlowUpError, match=r"escaped the cap 1e\+12 at t=0\.5$") as exc:
        integrate_backward(lambda y: np.array([1.0, *np.full(2, c if y[0] < 0.57 else 0.0)]),
                           np.array([grid[-1], 0.0, 0.0]), grid)
    assert exc.value.t_escape == grid[5]


def _random_riccati_stack(n, seed, h):
    """The backward flow over one step h of the social synthesis's (2, n, n)
    stack of P's and Pi's equations for a random model."""
    rng = np.random.default_rng(seed)
    I = np.eye(n)
    A = 0.3 * rng.standard_normal((n, n)) - 0.5 * I
    AG = A + 0.2 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, 1)) + 0.5
    M = rng.standard_normal((n, n))
    Q, IG = M @ M.T + I, I - 0.3 * rng.standard_normal((n, n))
    S = B @ B.T / 1.3
    H = np.stack([social._generator(0.4, A1, A1, S, W) for A1, W in ((A, Q), (AG, IG.T @ Q @ IG))])
    return riccati._expm(-h * H)


@settings(max_examples=30, deadline=None)
@given(n=hst.integers(1, 3), T=hst.sampled_from([2.0, 200.0]), seed=hst.integers(0, 2**32 - 1))
def test_the_skipped_steps_are_the_steps_a_plain_loop_takes(n, T, seed):
    # every step of the exact pass is the same Moebius map, so once a step
    # returns its input bit for bit the pass stops and fills the rest of the
    # path with it: on T = 2 no fixed point is reached, on T = 200 it
    # usually is; either way the path is the plain one-step-at-a-time loop's,
    # bit for bit
    grid = default_grid(T, 2000)
    E = _random_riccati_stack(n, seed, grid[1] - grid[0])
    y = np.zeros((2, n, n))
    want = [y]
    for _ in range(grid.size - 1):
        y = riccati._mobius(E, y)
        want.append(y)
    got = riccati._riccati_flow(E, np.zeros((2, n, n)), grid, "state")
    assert got.tobytes() == np.array(want[::-1]).tobytes()


def _computed_steps(monkeypatch, synth, *args):
    """How many Moebius steps the exact backward pass computes in one
    synthesis."""
    calls = []
    step = riccati._mobius
    monkeypatch.setattr(riccati, "_mobius", lambda *a: calls.append(1) or step(*a))
    synth(*args)
    return len(calls)


def test_a_long_horizon_computes_the_steps_up_to_its_fixed_point(monkeypatch):
    # the G = 0 scalar game at T = 200 (the CLI benchmark's model) settles on
    # its fixed point about 15 time units before T: about 150 of its 2,000
    # steps are computed; at T = 5 (the Monte Carlo benchmark's horizon) it
    # never settles, so every step is computed
    params = scalar_params(G=0.0)
    assert _computed_steps(monkeypatch, synth_game_finite, params, 200.0, 2000) <= 200
    assert _computed_steps(monkeypatch, synth_game_finite, params, 5.0, 2000) == 2000


def test_a_singular_denominator_escapes_at_its_step():
    # E11 + E12 X = 0 has no Moebius image: the pass reports the step's time
    grid = default_grid(1.0, 4)
    E = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    with pytest.raises(RiccatiBlowUpError, match=r"^backward state integration escaped the cap "
                                                 r"1e\+12 at t=0\.75$") as exc:
        riccati._riccati_flow(E, np.zeros((1, 1, 1)), grid, "state")
    assert exc.value.t_escape == grid[3]


@pytest.mark.parametrize("shape, scale", [((1, 1), 1.0), ((4, 4), 0.1), ((4, 4), 3.0),
                                          ((3, 6, 6), 1.0), ((2, 12, 12), 20.0), ((24, 24), 0.5)])
def test_expm_matches_scipy(shape, scale):
    # the synthesis's scaling-and-squaring Pade exponential, from a norm far
    # below its threshold to several squarings, one matrix or a stack
    M = scale * np.random.default_rng(shape[-1]).standard_normal(shape)
    want = expm(M)
    assert np.max(np.abs(riccati._expm(M) - want)) <= 1e-13 * np.max(np.abs(want))


def test_expm_of_zero_and_a_subnormal_step_is_the_identity():
    # a zero or subnormal step of the flow moves nothing, bit for bit
    for M in (np.zeros((3, 3)), 5e-324 * np.ones((2, 2)), np.zeros((2, 4, 4))):
        assert np.array_equal(riccati._expm(M), np.broadcast_to(np.eye(M.shape[-1]), M.shape))


@pytest.mark.parametrize("resolution", [0, math.nan, -1e-3, math.inf, True],
                         ids=["zero", "nan", "negative", "inf", "bool"])
def test_the_sweep_refuses_a_resolution_that_is_not_a_positive_real(resolution):
    with pytest.raises(ModelValidationError, match=r"need a real, finite resolution > 0"):
        finite_horizon_solvable(_sv_ham("script_A"), 20.0, resolution)


def test_determinant_sweep_matches_blowup():
    good = scalar_params(G=0.0)
    check = finite_horizon_solvable(
        build_hamiltonian(good, derived_weights(good), "script_A"), 20.0)
    assert check.solvable and bool(check)
    assert check.min_det > 0.9

    bad = scalar_params(Gamma=3.0)
    check = finite_horizon_solvable(
        build_hamiltonian(bad, derived_weights(bad), "script_A"), 20.0)
    assert not check.solvable
    assert check.t_min == pytest.approx(0.857, abs=0.05)


def test_solvable_on_short_horizon_before_escape():
    bad = scalar_params(Gamma=3.0)
    check = finite_horizon_solvable(
        build_hamiltonian(bad, derived_weights(bad), "script_A"), 0.5)
    assert check.solvable


def test_determinant_overflow_is_not_certified():
    # script_A has eigenvalues 1.6 and -1.0: det Phi_22 overflows to +inf near
    # t = 444 long before it could change sign
    game = scalar_params(G=0.0)
    with pytest.raises(RiccatiBlowUpError) as exc:
        finite_horizon_solvable(
            build_hamiltonian(game, derived_weights(game), "script_A"), 1000.0)
    assert 440.0 < exc.value.t_escape < 450.0


@pytest.mark.parametrize("T", [-5.0, 0.0, -0.0, math.inf, math.nan, "abc", None],
                         ids=["negative", "zero", "negative-zero", "inf", "nan", "string", "none"])
def test_finite_horizon_must_be_real_finite_and_positive(T):
    # a sweep over [0, T] with T <= 0 runs backwards (or not at all) and must
    # not certify anything; an infinite T used to end in OverflowError
    game = scalar_params(G=0.0)
    ham = build_hamiltonian(game, derived_weights(game), "script_A")
    for solve in (lambda: finite_horizon_solvable(ham, T),
                  lambda: synth_game_finite(game, T),
                  lambda: synth_social_finite(scalar_params(), T, steps=10)):
        with pytest.raises(ModelValidationError, match="real, finite T > 0"):
            solve()


def test_sweep_reports_the_step_it_used():
    # the sweep takes at most 200,000 steps, so T = 400 is swept at 2e-3
    game = scalar_params(G=0.0)
    ham = build_hamiltonian(game, derived_weights(game), "script_A")
    assert finite_horizon_solvable(ham, 20.0).resolution == 1e-3
    check = finite_horizon_solvable(ham, 400.0)
    assert check.solvable and check.resolution == 2e-3


@np.errstate(over="ignore", invalid="ignore")
def _reference_sweep(ham, T, resolution=1e-3, marginal_tol=1e-10, refresh_every=256):
    """The determinant sweep one step at a time: (fields of the check) or
    ("raised", t_escape)."""
    A, n = ham.M, ham.n
    steps = min(max(int(np.ceil(T / resolution)), 10), 200_000)
    ts = np.linspace(0.0, float(T), steps + 1)
    h = ts[1] - ts[0]
    E = expm(A * h)
    Phi = np.eye(2 * n)
    min_det, t_min = np.inf, 0.0
    for k, t in enumerate(ts):
        if k > 0:
            Phi = expm(A * t) if k % refresh_every == 0 else E @ Phi
        d = float(np.linalg.det(Phi[n:, n:]))
        if d < min_det:
            min_det, t_min = d, float(t)
        if not 0.0 < d < math.inf:
            if d <= 0.0:
                return (False, d, float(t), bool(abs(d) < marginal_tol), float(h))
            return ("raised", float(t))
    return (True, min_det, t_min, bool(abs(min_det) < marginal_tol), float(h))


def _sweep(ham, T, **kwargs):
    try:
        c = finite_horizon_solvable(ham, T, **kwargs)
    except RiccatiBlowUpError as exc:
        return ("raised", exc.t_escape)
    return (c.solvable, c.min_det, c.t_min, c.marginal, c.resolution)


@settings(max_examples=40, deadline=None)
@given(n=hst.integers(1, 3), scale=hst.sampled_from([0.3, 1.0, 3.0]),
       T=hst.floats(0.01, 400.0), steps=hst.integers(1, 4000),
       refresh_every=hst.sampled_from([1, 7, 256, 5000]), seed=hst.integers(0, 2**16))
def test_batched_sweep_equals_step_by_step_loop(n, scale, T, steps, refresh_every, seed):
    # script_A shape: [[A + G, -S], [-Q (I - Gamma), -(A - rho I)^T]], S >= 0
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    M = np.block([[scale * rng.standard_normal((n, n)), -B @ B.T],
                  [scale * rng.standard_normal((n, n)), scale * rng.standard_normal((n, n))]])
    ham = HamiltonianMatrix(M=M, kind="script_A")
    # the sweep's restart period is a module constant: patch it per example
    with mock.patch.object(riccati, "_REFRESH_EVERY", refresh_every):
        got = _sweep(ham, T, resolution=T / steps)
    assert got == _reference_sweep(ham, T, resolution=T / steps, refresh_every=refresh_every)


@pytest.mark.parametrize("overrides,T", [
    ({"Gamma": 3.0}, 20.0),     # sign change at time-to-go ~0.86
    ({"G": 0.0}, 1000.0),       # +inf near t = 444
    ({"G": 0.0}, 20.0),
])
def test_batched_sweep_equals_loop_on_benchmark_games(overrides, T):
    p = scalar_params(**overrides)
    ham = build_hamiltonian(p, derived_weights(p), "script_A")
    assert _sweep(ham, T) == _reference_sweep(ham, T)


# ---------------------------------------------------------------------------
# affine backward pass
# ---------------------------------------------------------------------------

def test_linear_backward_constant_coefficients():
    # ds/dt = rho s - a s - c with terminal s(T); closed form via the
    # steady state s* = c / (rho - a)
    rho, a, c, T = 0.6, -1.0, 2.0, 12.0
    grid = default_grid(T)
    sT = np.array([0.3])
    Acl = np.array([[a]])
    path = integrate_backward(lambda s: offset_slope(rho, Acl, s, np.array([c])),
                              sT, grid)
    s_star = c / (rho - a)
    lam = rho - a
    expected = s_star + (sT[0] - s_star) * np.exp(-lam * (T - grid))
    np.testing.assert_allclose(path[:, 0], expected, atol=1e-9)


def test_control_gain_matrix():
    B = np.array([[1.0], [2.0]])
    R = np.array([[4.0]])
    np.testing.assert_allclose(control_gain_matrix(B, R),
                               [[0.25, 0.5], [0.5, 1.0]], atol=1e-14)
