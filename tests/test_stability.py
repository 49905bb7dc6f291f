import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from mflq import ModelValidationError, analyze, derived_weights
from mflq.model import control_gain_matrix
from mflq.riccati import build_hamiltonian, imaginary_axis_margin, solve_are_stable_subspace
from mflq.stability import _pbh, sqrt_psd

from conftest import scalar_params
from oracles import scalar_example1


# ---------------------------------------------------------------------------
# closed-form scalar criteria
# ---------------------------------------------------------------------------

def test_scalar_criteria_benchmark_values():
    res = scalar_example1(a=1.0, b=1.0, q=1.0, r=1.0, rho=0.6,
                          g=-0.2, gamma=-0.2)
    assert res.individual_ok and res.average_ok
    assert res.delta == pytest.approx(5.96, abs=1e-14)
    assert res.p == pytest.approx(1.9206555615733703, abs=1e-12)
    assert res.closed_loop == pytest.approx(-1.2206555615733703, abs=1e-12)
    # the shifted closed loop is -sqrt(delta)/2 identically
    assert abs(res.identity_residual) < 1e-12


def test_scalar_criteria_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        res = scalar_example1(
            a=rng.uniform(-2, 2), b=rng.uniform(0.2, 2.0),
            q=rng.uniform(0.0, 3.0), r=rng.uniform(0.2, 3.0),
            rho=rng.uniform(0.05, 1.5),
        )
        if res.individual_ok:
            assert abs(res.identity_residual) < 1e-10


def test_scalar_criteria_degenerate_b_zero():
    res = scalar_example1(a=1.0, b=0.0, q=1.0, r=1.0, rho=0.6)
    assert res.closed_loop == pytest.approx(0.7)
    assert np.isnan(res.identity_residual)


def test_scalar_criteria_reject_bad_r():
    with pytest.raises(ModelValidationError):
        scalar_example1(a=1.0, b=1.0, q=1.0, r=0.0, rho=0.6)


def _signed(low, high):
    return hst.floats(low, high) | hst.floats(-high, -low)


@settings(max_examples=200, deadline=None)
@given(b=_signed(0.5, 2.0), q=hst.just(0.0) | hst.floats(0.25, 2.0), r=hst.floats(0.5, 2.0),
       rho=hst.floats(0.1, 1.0), a=hst.none() | hst.floats(-2.0, 2.0),
       g=hst.just(0.0) | hst.floats(-2.0, 2.0), gamma=hst.just(1.0) | hst.floats(-2.0, 2.0))
def test_scalar_criteria_match_the_package(b, q, r, rho, a, g, gamma):
    # the closed form against the package's own routes on the same scalar
    # model: p is the M1 Riccati root, and each criterion holds exactly when
    # its Hamiltonian (eigenvalues +-sqrt of the criterion's left side) is
    # clear of the imaginary axis.  a = None puts a at rho/2, so with q = 0,
    # or g = 0 and gamma = 1, a criterion fails.
    a = rho / 2.0 if a is None else a
    res = scalar_example1(a=a, b=b, q=q, r=r, rho=rho, g=g, gamma=gamma)
    params = scalar_params(A=a, B=b, Q=q, R=r, rho=rho, G=g, Gamma=gamma)
    w = derived_weights(params)
    for kind, left in (("M1", res.delta / 4.0),
                       ("M2", (a + g - rho / 2.0) ** 2 + (b * b / r) * (1.0 - gamma) ** 2 * q)):
        # outside the solver's 1e-9 ||M|| axis band, with room for rounding
        scale = imaginary_axis_margin(build_hamiltonian(params, w, kind))[1]
        assume(left == 0.0 or np.sqrt(left) > 1e-6 * scale)
    rep = analyze(params)
    assert (res.individual_ok, res.average_ok) == (rep.m1_clear, rep.m2_clear)
    if q > 0.0:
        p = solve_are_stable_subspace(build_hamiltonian(params, w, "M1")).X[0, 0]
        assert p == pytest.approx(res.p, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# PBH tests
# ---------------------------------------------------------------------------

def test_pbh_basics():
    A = np.array([[1.0, 0.0], [0.0, -2.0]])
    B = np.array([[1.0], [0.0]])           # actuates the unstable mode only
    assert _pbh(A, B, "cols")              # stabilizable
    assert not _pbh(A, np.zeros((2, 1)), "cols")
    assert _pbh(-np.eye(2), np.zeros((2, 1)), "cols")  # already stable

    C = np.array([[1.0, 0.0]])
    assert not _pbh(A, C, "rows", every_mode=True)  # not observable: the stable mode is unseen
    assert _pbh(A, C, "rows")              # ...but detectable: it decays on its own
    assert _pbh(A, np.eye(2), "rows", every_mode=True)


def test_pbh_random_controllable_pairs():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, 1))
        # a random single-input pair is controllable almost surely
        assert _pbh(A, B, "cols")
        assert _pbh(A.T, B.T, "rows", every_mode=True)


def test_sqrt_psd_square_root_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        M = rng.normal(size=(n, n))
        Q = M @ M.T
        S = sqrt_psd(Q)
        np.testing.assert_allclose(S, S.T, atol=1e-12)
        np.testing.assert_allclose(S @ S, Q, atol=1e-10 * (1 + np.max(np.abs(Q))))
    # exact zero works, indefinite does not
    assert np.all(sqrt_psd(np.zeros((2, 2))) == 0)
    with pytest.raises(ModelValidationError):
        sqrt_psd(np.array([[1.0, 0.0], [0.0, -0.5]]))
    # an eigenvalue within validation's tolerance, 1e-10 (1 + max |entry|), is clipped to 0
    assert np.all(sqrt_psd(np.array([[-5e-11]])) == 0)


# ---------------------------------------------------------------------------
# the two solvability routes
# ---------------------------------------------------------------------------

def test_analyze_scalar_benchmark_consistent_true(social_params):
    rep = analyze(social_params)
    assert rep.governing == "observability"
    assert rep.verdict == "consistent-true"
    assert rep.cond_ii is True and rep.cond_iii is True
    assert rep.a4_hurwitz is True
    assert rep.are_P.solved and rep.are_P.rho_stabilizing
    assert rep.are_Pi.solved
    assert rep.are_P.max_eig == pytest.approx(1.9206555615733703, abs=1e-10)
    assert rep.are_Pi.max_eig == pytest.approx(1.8, abs=1e-10)
    # render() must show the verdict for the CLI
    assert "consistent-true" in rep.render()


def test_analyze_axis_clear_route():
    # Q = 0 leaves (A - rho/2, sqrtQ) neither observable nor detectable, while
    # both Hamiltonians keep their eigenvalues +-0.7 and +-0.5 off the axis
    rep = analyze(scalar_params(Q=0.0))
    assert not (rep.detectable_Q or rep.detectable_QIG)
    assert rep.m1_clear and rep.m2_clear
    assert rep.governing == "axis-clear"
    assert rep.are_P.rho_stabilizing and rep.are_Pi.rho_stabilizing
    assert rep.verdict == "consistent-true"


def test_analyze_averaged_loop_eigenvalue(social_params):
    # A - S P + G - rho/2 at the benchmark: -0.92065... - 0.2 - 0.3
    p = social_params
    sol = solve_are_stable_subspace(
        build_hamiltonian(p, derived_weights(p), "M1"))
    S = control_gain_matrix(p.B, p.R)
    a4 = p.A - S @ sol.X + p.G - 0.5 * p.rho * np.eye(1)
    assert a4[0, 0] == pytest.approx(-1.4206555615733703, abs=1e-10)


def test_analyze_unstabilizable_consistent_false():
    p = scalar_params(A=1.0, B=0.0, G=0.0)
    rep = analyze(p)
    assert not rep.stabilizable_A
    assert rep.verdict == "consistent-false"
    assert rep.cond_ii is False and rep.cond_iii is False


def test_analyze_degenerate_coupling_premise_violated():
    # a + g = rho/2 with gamma = 1 defeats every premise: the averaged weight
    # vanishes and the averaged mode sits exactly on the discounted axis
    p = scalar_params(A=0.5, G=-0.2, Gamma=1.0, eta=0.0)
    rep = analyze(p)
    assert rep.governing is None
    assert rep.verdict == "premise-violated"


def test_analyze_planar_benchmark(planar_params):
    rep = analyze(planar_params)
    assert rep.verdict in ("consistent-true", "consistent-false")
    assert rep.verdict != "inconsistent"
    d = rep.to_dict()
    assert d["verdict"] == rep.verdict
    assert isinstance(d["are_P"], dict)


def test_routes_agree_on_random_premise_systems():
    """Small seeded version of the route-equivalence sweep."""
    rng = np.random.default_rng(17)
    accepted = 0
    attempts = 0
    while accepted < 30 and attempts < 400:
        attempts += 1
        n = 1 if rng.uniform() < 0.5 else 2
        p = _random_model(rng, n)
        rep = analyze(p)
        if rep.governing is None:
            continue
        accepted += 1
        assert rep.verdict != "inconsistent", p
    assert accepted == 30


def _random_model(rng, n):
    from mflq import ModelParams

    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, 1))
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.05 * np.eye(n)
    Gamma = 0.8 * rng.normal(size=(n, n))
    return ModelParams(
        A=A, B=B, G=0.3 * rng.normal(size=(n, n)), Q=Q,
        R=np.array([[float(rng.uniform(0.3, 2.0))]]),
        Gamma=Gamma, eta=rng.normal(size=n), rho=float(rng.uniform(0.2, 1.0)),
        f=np.zeros(n), sigma=0.1 * np.ones(n),
        x_bar0=np.zeros(n), init_cov=np.eye(n),
    )


@pytest.mark.parametrize("field", [{"Gamma": 1e160}, {"B": 1e200}], ids=["Gamma", "B"])
def test_analyze_refuses_a_model_whose_weights_overflow(field):
    # analyze validates its model first, as synthesis does: finite entries
    # whose derived weights overflow are a validation error, raised before
    # numpy warns or fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelValidationError):
            analyze(scalar_params(**field))
