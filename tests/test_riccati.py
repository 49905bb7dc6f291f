import math
from decimal import Decimal, localcontext

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
from mflq.errors import FiniteHorizonInsolvableError, ModelValidationError, SingularSubspaceError
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
from oracles import offset_slope, ordered_schur_root
from test_stability import _random_model

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


def test_a_sign_iteration_cut_before_it_converges_is_refused(monkeypatch):
    # the scalar benchmark's sign iteration takes a step to reach sign(M) and
    # one more to see no change; cut after the first, it returns no root
    monkeypatch.setattr(riccati, "_SIGN_STEPS", 1)
    with pytest.raises(SingularSubspaceError, match="did not converge"):
        solve_are_stable_subspace(_sv_ham("M1"))
    monkeypatch.setattr(riccati, "_SIGN_STEPS", 2)
    assert abs(solve_are_stable_subspace(_sv_ham("M1")).X[0, 0] - P_ORACLE) < 1e-12


@pytest.mark.parametrize("F, Qc", [
    ([[0.1]], [[0.5]]),
    ([[0.7]], [[2.0]]),
    ([[1.1, -0.5, -0.6], [2.3, 0.4, -0.8], [-1.6, -1.3, 1.1]], np.zeros((3, 3))),
], ids=["leaning-0.1", "leaning-0.7", "unstable-graph"])
def test_a_stable_subspace_that_is_no_graph_is_refused_whatever_its_noise(F, Qc):
    # S = 0 and F unstable: the stable subspace holds vertical directions
    # [0; v], so no root is stabilizing.  The sign function's noise leaves
    # either a huge least-squares root leaning towards them (scalar), which
    # does not solve the equation, or the root X = 0 of Qc = 0, whose graph
    # is F's unstable subspace (n = 3); both are refused
    F = np.array(F)
    ham = hamiltonian_from_blocks(F, np.zeros_like(F), np.array(Qc), kind="custom")
    with pytest.raises(SingularSubspaceError):
        ordered_schur_root(ham.M, True)
    with pytest.raises(SingularSubspaceError):
        solve_are_stable_subspace(ham)


def _longdouble_residual(ham, X):
    """Max-abs Riccati residual of X, evaluated in ``np.longdouble``."""
    F, S, Qc, _ = (b.astype(np.longdouble) for b in ham.blocks())
    return float(np.max(np.abs(_riccati_slope(0.0, F, F, S, Qc, X.astype(np.longdouble)))))


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(1, 3), kind=hst.sampled_from(["M1", "M2", "M3"]),
       seed=hst.integers(0, 2**64 - 1))
def test_the_sign_function_root_is_the_ordered_schur_root(n, kind, seed):
    # on the Hamiltonians of random models both solvers refuse alike, or their
    # roots agree to the rounding a Schur basis carries, eps cond(L1) (1 + |X|)^2,
    # and the sign-function root's residual is no larger than the Schur
    # root's, up to one rounding of the residual's terms
    p = _random_model(np.random.default_rng(seed), n)
    ham = build_hamiltonian(p, derived_weights(p), kind)
    try:
        X_ref, cond = ordered_schur_root(ham.M, kind != "M3")
    except (ImaginaryAxisError, SingularSubspaceError) as exc:
        with pytest.raises(type(exc)):
            solve_are_stable_subspace(ham)
        return
    sol = solve_are_stable_subspace(ham)
    eps = np.finfo(float).eps
    err = 64 * eps * cond * (1 + np.max(np.abs(X_ref))) ** 2
    assert np.max(np.abs(sol.X - X_ref)) <= err
    # hypot(1, s) moves by at most err when a singular value of X does
    assert sol.cond_L1 == pytest.approx(cond, rel=1e-6 + 2 * err)
    F, S, Qc, _ = ham.blocks()
    a = np.abs
    floor = eps * np.max(a(F.T) @ a(X_ref) + a(X_ref) @ a(F) + a(X_ref) @ a(S) @ a(X_ref) + a(Qc))
    assert sol.residual == _longdouble_residual(ham, sol.X)
    assert sol.residual <= _longdouble_residual(ham, X_ref) + floor


@pytest.mark.parametrize("x, kept", [(0.999, False), (2.4, True)])
def test_a_newton_step_is_kept_only_where_it_lowers_the_residual(x, kept):
    # 2x - x^2 + 1 = 0 has the stabilizing root 1 + sqrt(2); next to the
    # critical point x = 1 the Newton step overshoots by about 1,000
    one = np.ones((1, 1))
    X, r = riccati._newton_polish(one, one, one, np.array([[x]]), False)
    residual = lambda y: abs(2 * y - y * y + 1)
    assert (X[0, 0] != x) == kept
    assert r == pytest.approx(residual(X[0, 0]), rel=1e-12)
    assert r < residual(x) / 10 if kept else r == pytest.approx(residual(x), rel=1e-12)


def _exact_scalar_root(F, S, Q) -> Decimal:
    """The stabilizing root of 2 F x - S x^2 + Q = 0 (S, Q > 0) at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        F, S, Q = Decimal(F), Decimal(S), Decimal(Q)
        d = (F * F + S * Q).sqrt()
        return (F + d) / S if F >= 0 else Q / (d - F)


@settings(max_examples=300, deadline=None)
@given(F=hst.floats(-1e3, 1e3), S=hst.floats(1e-3, 1e3), Q=hst.floats(1e-3, 1e3))
def test_a_scalar_root_is_within_two_ulps_of_the_exact_root(F, S, Q):
    ham = hamiltonian_from_blocks(np.array([[F]]), np.array([[S]]), np.array([[Q]]), kind="M1")
    x = solve_are_stable_subspace(ham).X[0, 0]
    exact = _exact_scalar_root(F, S, Q)
    assert abs(Decimal(x) - exact) <= 2 * Decimal(math.ulp(float(exact)))


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


# seeds whose 2,000-step pass on [0, 200] (n = 1 + seed % 3) ends in a cycle of
# states revisited bit for bit rather than on a fixed point
_CYCLING_SEEDS = (11, 13, 14, 16, 17, 19, 20, 23, 25, 26)


@settings(max_examples=30, deadline=None)
@given(case=hst.one_of(
    hst.tuples(hst.integers(1, 3), hst.sampled_from([2.0, 200.0]), hst.integers(0, 2**32 - 1)),
    hst.sampled_from([(1 + seed % 3, 200.0, seed) for seed in _CYCLING_SEEDS])))
def test_the_skipped_steps_are_the_steps_a_plain_loop_takes(case):
    # every step of the exact pass is the same Moebius map, so once a step
    # returns an earlier state bit for bit the pass stops and fills the rest
    # of the path by repeating the cycle since it (a fixed point is a cycle
    # of one): on T = 2 no state recurs, on T = 200 one usually does; either
    # way the path is the plain one-step-at-a-time loop's, bit for bit
    n, T, seed = case
    grid = default_grid(T, 2000)
    E = _random_riccati_stack(n, seed, grid[1] - grid[0])
    y = np.zeros((2, n, n))
    want = [y]
    for _ in range(grid.size - 1):
        y = riccati._mobius(E, y)
        want.append(y)
    got = riccati._riccati_flow(E, np.zeros((2, n, n)), grid, "state")
    assert got.tobytes() == np.array(want[::-1]).tobytes()


def test_stacks_that_never_settle_stop_on_their_cycle(monkeypatch):
    # of 300 random stacks, 195 settle on a fixed point and 105 never do;
    # 101 of those revisit a state bit for bit within a few steps, and the
    # pass now stops there too instead of computing all 2,000 steps
    grid = default_grid(200.0, 2000)
    calls = []
    step = riccati._mobius
    monkeypatch.setattr(riccati, "_mobius", lambda *a: calls.append(1) or step(*a))
    cycled = 0
    for seed in range(300):
        n = 1 + seed % 3
        del calls[:]
        path = riccati._riccati_flow(_random_riccati_stack(n, seed, grid[1] - grid[0]),
                                     np.zeros((2, n, n)), grid, "state")
        cycled += len(calls) < 2000 and path[0].tobytes() != path[1].tobytes()
    assert cycled >= 100


def _computed_steps(monkeypatch, synth, *args):
    """How many Moebius steps the exact backward pass computes in one
    synthesis: the steps of a stack of flows (the solvability sweep steps
    one flow)."""
    calls = []
    step = riccati._mobius
    monkeypatch.setattr(riccati, "_mobius",
                        lambda E, X: (E.ndim == 3 and calls.append(1)) or step(E, X))
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


def test_the_scalar_game_is_certified_at_any_horizon():
    # script_A has eigenvalues 1.6 and -1.0: det V grows like e^{1.6 t}, which
    # the sweep carries as a logarithm, so T = 1000 is certified at the capped
    # step 5e-3 (the transition matrix's det overflowed near t = 444)
    game = scalar_params(G=0.0)
    check = finite_horizon_solvable(
        build_hamiltonian(game, derived_weights(game), "script_A"), 1000.0)
    assert check.solvable and check.resolution == 5e-3
    assert check.min_det == pytest.approx(0.9426, abs=1e-4) and check.t_min == pytest.approx(0.28)


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
    """The transition-matrix sweep: det Phi_22 of e^{script_A t} one step at a
    time, restarted from an exact exponential every ``refresh_every`` steps:
    (fields of the check) or ("raised", t_escape).  Cancellation and overflow
    take its digits once ||script_A||_1 t grows, so it is an oracle only
    where that stays small."""
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


@np.errstate(over="ignore", invalid="ignore")
def _log_det_sweep(ham, T, resolution=1e-3, marginal_tol=1e-10):
    """The sweep as a plain loop, one Moebius step of Y = U V^{-1} at a time
    on SciPy's exponential, [U; V](t) = e^{script_A t} [0; I], with sign and
    log |det V| carried: ((fields of the check) or ("raised", t_escape), and
    log |det V| at every time swept).  Its step rule is the sweep's: at
    most ||script_A||_1 h = 4 where the 200,000-step cap allows."""
    n = ham.n
    steps = int(min(max(np.ceil(T / resolution),
                        np.ceil(np.abs(ham.M).sum(axis=0).max() * T / 4.0), 10), 200_000))
    ts = np.linspace(0.0, float(T), steps + 1)
    h = float(ts[1] - ts[0])
    (E11, E12), (E21, E22) = (np.hsplit(half, 2) for half in np.vsplit(expm(ham.M * h), 2))
    Y, logdet = np.zeros((n, n)), [0.0]
    for k in range(steps):
        # on the transpose that the solve below factors: an exact zero pivot
        # there reads sign 0 here
        sign, log = np.linalg.slogdet((E21 @ Y + E22).T)
        if sign <= 0:
            d = float(sign * np.exp(logdet[-1] + log))
            return (False, d, float(ts[k + 1]), bool(abs(d) < marginal_tol), h), logdet
        if not log < math.inf:
            return ("raised", float(ts[k])), logdet
        logdet.append(logdet[-1] + log)
        Y = np.linalg.solve((E21 @ Y + E22).T, (E11 @ Y + E12).T).T
    k = int(np.argmin(logdet))
    d = float(np.exp(logdet[k]))
    return (True, d, float(ts[k]), bool(d < marginal_tol), h), logdet


def _sweep(ham, T, **kwargs):
    try:
        c = finite_horizon_solvable(ham, T, **kwargs)
    except RiccatiBlowUpError as exc:
        return ("raised", exc.t_escape)
    return (c.solvable, c.min_det, c.t_min, c.marginal, c.resolution)


def _random_script_a(n, scale, seed):
    """A random matrix of script_A's shape [[A + G, -S], [-Q (I - Gamma),
    -(A - rho I)^T]], S >= 0."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    M = np.block([[scale * rng.standard_normal((n, n)), -B @ B.T],
                  [scale * rng.standard_normal((n, n)), scale * rng.standard_normal((n, n))]])
    return HamiltonianMatrix(M=M, kind="script_A")


def _assert_matches_log_det_loop(ham, T, **kwargs):
    got = _sweep(ham, T, **kwargs)
    want, logdet = _log_det_sweep(ham, T, **kwargs)
    assert got[0] == want[0]
    if got[0] == "raised":
        return
    # past a crossing Y has just passed a pole, where restarted windows and
    # the chained loop differ most: 3.7e-7 relative on one n = 2 model
    assert got[4] == want[4] and got[1] == pytest.approx(want[1], rel=1e-7 if want[0] else 1e-5,
                                                         abs=0.0)
    # the same time, or one whose determinant ties the least within 1e-7
    ts = np.linspace(0.0, float(T), len(logdet))
    assert got[2] == want[2] or (want[0] and abs(logdet[np.flatnonzero(ts == got[2])[0]]
                                                 - min(logdet)) <= 1e-7)


@settings(max_examples=25, deadline=None)
@given(n=hst.integers(1, 3), scale=hst.sampled_from([0.3, 1.0, 3.0]),
       T=hst.floats(0.01, 100.0), steps=hst.integers(1, 20_000), seed=hst.integers(0, 2**16))
def test_sweep_matches_a_log_det_loop(n, scale, T, steps, seed):
    # windows of the batched sweep start from the coarse pass's roots, not
    # from the loop's own: the verdict, the time and the determinant agree.
    # A step is kept to ||script_A||_1 h <= 20, the transition-matrix oracle's
    # reach: past ~50 one step's denominator has condition 1e13-1e18, and
    # both float loops lose every digit of its determinant (with 60-digit
    # arithmetic, -4.4e55 and -6.6e55 where the truth is +2.5e36)
    ham = _random_script_a(n, scale, seed)
    steps = max(steps, math.ceil(np.abs(ham.M).sum(axis=0).max() * T / 20.0))
    _assert_matches_log_det_loop(ham, T, resolution=T / steps)


@pytest.mark.parametrize("overrides, T", [({"Gamma": 3.0}, 20.0), ({"G": 0.0}, 20.0),
                                          ({"G": 0.0}, 1000.0)],
                         ids=["sign-change", "benchmark-game", "long-horizon"])
def test_sweep_matches_a_log_det_loop_on_benchmark_games(overrides, T):
    # the long horizon is swept at the capped step 5e-3, 200,000 steps
    p = scalar_params(**overrides)
    _assert_matches_log_det_loop(build_hamiltonian(p, derived_weights(p), "script_A"), T)


@settings(max_examples=30, deadline=None)
@given(n=hst.integers(1, 3), scale=hst.sampled_from([0.3, 1.0, 3.0]),
       reach=hst.floats(0.01, 20.0), steps=hst.integers(1, 4000), seed=hst.integers(0, 2**16))
def test_sweep_matches_the_transition_matrix_sweep_where_it_is_exact(n, scale, reach, steps,
                                                                      seed):
    # where ||script_A||_1 T <= 20, det Phi_22 keeps its digits
    ham = _random_script_a(n, scale, seed)
    T = reach / np.abs(ham.M).sum(axis=0).max()
    got, want = _sweep(ham, T, resolution=T / steps), _reference_sweep(ham, T, T / steps)
    assert (got[0], got[2]) == (want[0], want[2])


def test_a_false_refusal_of_the_transition_matrix_sweep_is_certified():
    # ||script_A||_1 T = 87: det Phi_22 cancels to 0.0 at t = 15.59, where
    # det V is near 1e9; det V never vanishes (its least value, 0.299 at
    # t = 2.39, agrees with the log-det loop and with 200-digit arithmetic)
    ham = _random_script_a(2, 1.0, 88)
    assert _reference_sweep(ham, 20.0, 0.01)[:3] == (False, 0.0, 15.59)
    assert _log_det_sweep(ham, 20.0, 0.01)[0][0] is True
    check = finite_horizon_solvable(ham, 20.0, 0.01)
    assert check.solvable and check.t_min == 2.39
    assert check.min_det == pytest.approx(0.299077172331, rel=1e-10)


def test_an_exactly_singular_denominator_is_a_crossing():
    # script_A = [[2, -2], [2, -2]] is nilpotent: V(t) = 1 - 2t, and at h = 1/4
    # the second step's denominator E21 Y + E22 = -1/2 + 1/2 is exactly 0
    check = finite_horizon_solvable(HamiltonianMatrix(np.array([[2.0, -2.0], [2.0, -2.0]]),
                                                      "script_A"), 2.5, 0.25)
    assert (check.solvable, check.min_det, check.t_min, check.marginal) == (False, 0.0, 0.5, True)


def test_a_denominator_the_solve_finds_singular_is_a_crossing():
    # ||script_A||_1 h = 177: the first denominator's LU has an exact zero
    # pivot on the transpose the Moebius step solves, not on the matrix
    # itself, which once ended the sweep in LinAlgError; det V(h) is
    # -7.1e33 in 80-digit arithmetic, so the crossing is in the first step.
    # Such a step is taken only where the 200,000-step cap binds; at T / 10
    # itself the sweep refines the step and finds the crossing before h
    ham, h = _random_script_a(3, 3.0, 3162), 83.1924450148922 / 10
    check = finite_horizon_solvable(ham, 200_000 * h, 200_000 * h)
    assert (check.solvable, check.t_min, check.resolution) == (False, h, h)
    assert check.min_det <= 0.0
    check = finite_horizon_solvable(ham, 10 * h, 10 * h)
    assert not check.solvable and check.t_min < h and check.min_det <= 0.0


def test_a_coarse_resolution_is_refined_to_a_step_that_keeps_its_digits():
    # ||script_A||_1 T = 2,686.5: asked for 10 steps, the sweep takes 672,
    # ||script_A||_1 h <= 4, and four times as many agree to 4e-15; at 10
    # steps it refused at t = 27.29 with min_det -6.2e173, cancellation
    ham, T = _random_script_a(3, 3.0, 22788), 90.96
    check = finite_horizon_solvable(ham, T, T / 10)
    assert check.resolution == pytest.approx(T / 672, rel=1e-15)
    assert (check.solvable, check.t_min) == (False, pytest.approx(1.6243, abs=1e-4))
    assert check.min_det == pytest.approx(-7583.512280840109, rel=1e-13)
    fine = finite_horizon_solvable(ham, T, T / 2688)
    assert (fine.solvable, fine.t_min) == (False, check.t_min)
    assert fine.min_det == pytest.approx(check.min_det, rel=1e-14)


def test_a_minimum_below_the_floats_is_marginal():
    # V(t) = e^{-t} with Y bounded: det V leaves the floats near t = 745
    check = finite_horizon_solvable(HamiltonianMatrix(np.array([[-2.0, -1.0], [0.0, -1.0]]),
                                                      "script_A"), 1000.0)
    assert (check.solvable, check.min_det, check.t_min, check.marginal) == (True, 0.0, 1000.0, True)


def _blocks(*hams):
    """One script_A with the scalar ``hams`` as independent coordinates."""
    M = np.zeros((2 * len(hams), 2 * len(hams)))
    for i, ham in enumerate(hams):
        M[i::len(hams), i::len(hams)] = ham.M
    return HamiltonianMatrix(M=M, kind="script_A")


def test_an_escape_after_a_crossing_is_the_crossing_and_alone_raises():
    # with Gamma = 1 the consistency weight vanishes, so det V = e^{-0.4 t}
    # never crosses while Y grows like e^{1.4 t} and leaves the floats near
    # t = 507; a coordinate that crosses at t = 0.885 decides first
    degenerate, crossing = (scalar_params(G=0.0, Gamma=1.0), scalar_params(Gamma=3.0))
    degenerate, crossing = (build_hamiltonian(p, derived_weights(p), "script_A")
                            for p in (degenerate, crossing))
    with pytest.raises(RiccatiBlowUpError, match=r"^solvability sweep escaped at time-to-go "
                                                 r"t=507\.\d+ before any sign change") as exc:
        finite_horizon_solvable(degenerate, 600.0)
    assert 507.0 < exc.value.t_escape < 508.0
    assert finite_horizon_solvable(degenerate, 200.0).solvable
    check = finite_horizon_solvable(_blocks(degenerate, crossing), 600.0)
    assert not check.solvable and check.t_min == pytest.approx(0.885, abs=0.003)
    with pytest.raises(FiniteHorizonInsolvableError):
        synth_game_finite(scalar_params(Gamma=3.0), 20.0)


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
