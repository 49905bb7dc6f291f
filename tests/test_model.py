import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mflq import (
    ModelParams,
    ModelValidationError,
    derived_weights,
    params_from_dict,
    params_from_json,
    params_to_dict,
    params_to_json,
    validate,
)
from mflq.model import _SCHEMA, TimePath, _interp, validation_issues

from conftest import scalar_params


def test_scalar_inputs_are_normalized():
    p = scalar_params()
    assert p.A.shape == (1, 1)
    assert p.B.shape == (1, 1)
    assert p.eta.shape == (1,)
    assert p.n == 1 and p.r == 1


def test_derived_weights_scalar_benchmark():
    w = derived_weights(scalar_params())
    np.testing.assert_allclose(w.Q_Gamma, [[-0.44]], atol=1e-15)
    np.testing.assert_allclose(w.eta_bar, [6.0], atol=1e-15)
    np.testing.assert_allclose(w.Q_hat, [[1.44]], atol=1e-15)
    np.testing.assert_allclose(w.Q_IG, [[1.2]], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derived_weight_identities(n):
    # Q_hat = (I-Gamma)^T Q (I-Gamma),  Q_Gamma + Q_hat = Q,
    # eta_bar = (I-Gamma)^T Q eta  -- for random PSD Q and arbitrary Gamma.
    rng = np.random.default_rng(20 + n)
    for _ in range(25):
        M = rng.normal(size=(n, n))
        Q = M @ M.T
        Gamma = rng.normal(size=(n, n))
        eta = rng.normal(size=n)
        p = ModelParams(A=np.zeros((n, n)), B=np.eye(n), G=np.zeros((n, n)),
                        Q=Q, R=np.eye(n), Gamma=Gamma, eta=eta, rho=1.0,
                        f=np.zeros(n), sigma=np.zeros(n),
                        x_bar0=np.zeros(n), init_cov=np.zeros((n, n)))
        w = derived_weights(p)
        I = np.eye(n)
        np.testing.assert_allclose(w.Q_hat, (I - Gamma).T @ Q @ (I - Gamma),
                                   atol=1e-12)
        np.testing.assert_allclose(w.Q_Gamma + w.Q_hat, Q, atol=1e-12)
        np.testing.assert_allclose(w.eta_bar, (I - Gamma).T @ Q @ eta, atol=1e-12)
        # the matrix product Q Gamma is NOT the derived weight unless Q and
        # Gamma commute suitably; Q_IG is the product form
        np.testing.assert_allclose(w.Q_IG, Q @ (I - Gamma), atol=1e-12)


def test_validation_rejects_asymmetric_Q():
    p = ModelParams(A=np.zeros((2, 2)), B=np.eye(2), G=np.zeros((2, 2)),
                    Q=[[1.0, 0.5], [0.0, 1.0]], R=np.eye(2),
                    Gamma=np.zeros((2, 2)), eta=np.zeros(2), rho=1.0,
                    f=np.zeros(2), sigma=np.zeros(2),
                    x_bar0=np.zeros(2), init_cov=np.eye(2))
    with pytest.raises(ModelValidationError, match="Q"):
        validate(p)


def test_validation_rejects_semidefinite_R():
    with pytest.raises(ModelValidationError, match="R"):
        validate(scalar_params(R=0.0))


def test_validation_rejects_nonpositive_rho():
    with pytest.raises(ModelValidationError, match="rho"):
        validate(scalar_params(rho=0.0))


def test_validation_rejects_indefinite_init_cov():
    with pytest.raises(ModelValidationError, match="init_cov"):
        validate(scalar_params(init_cov=-0.1))


def test_validation_collects_multiple_issues():
    p = ModelParams(A=np.zeros((2, 2)), B=np.eye(2), G=np.zeros((2, 2)),
                    Q=[[1.0, 0.5], [0.0, 1.0]], R=np.eye(2),
                    Gamma=np.zeros((2, 2)), eta=np.zeros(2), rho=1.0,
                    f=np.zeros(2), sigma=np.zeros(2),
                    x_bar0=np.zeros(2), init_cov=-np.eye(2))
    issues = validation_issues(p)
    assert any(s.startswith("Q") for s in issues)
    assert any(s.startswith("init_cov") for s in issues)


def test_validation_rejects_shape_mismatch():
    p = ModelParams(A=np.zeros((2, 2)), B=np.zeros((3, 1)), G=np.zeros((2, 2)),
                    Q=np.eye(2), R=np.eye(1), Gamma=np.zeros((2, 2)),
                    eta=np.zeros(2), rho=1.0, f=np.zeros(2), sigma=np.zeros(2),
                    x_bar0=np.zeros(2), init_cov=np.eye(2))
    with pytest.raises(ModelValidationError, match="shape"):
        validate(p)


def _two_by_two(**overrides):
    base = dict(A=np.eye(2), B=np.eye(2), G=np.zeros((2, 2)), Q=np.eye(2), R=np.eye(2),
                Gamma=np.zeros((2, 2)), eta=np.zeros(2), rho=1.0, f=np.zeros(2),
                sigma=np.zeros(2), x_bar0=np.zeros(2), init_cov=np.eye(2))
    return ModelParams(**dict(base, **overrides))


@pytest.mark.parametrize("overrides, issue", [
    ({"eta": np.zeros(3)}, "eta: expected shape (2,), got (3,)"),
    ({"x_bar0": np.zeros(1)}, "x_bar0: expected shape (2,), got (1,)"),
    ({"f": np.zeros(3)}, "f: constant value must be an n-vector, got shape (3,)"),
    ({"sigma": np.zeros(1)}, "sigma: constant value must be an n-vector, got shape (1,)"),
    ({"f": TimePath([0.0, 1.0], [[1.0, 2.0, 3.0]] * 2)},
     "f: sampled rows must be n-vectors, got values of shape (2, 3)"),
    ({"sigma": TimePath([0.0, 1.0], [[0.1], [0.2]])},
     "sigma: sampled rows must be n-vectors, got values of shape (2, 1)"),
    ({"Q": np.diag([1.0, -1.0])}, "Q: not positive semidefinite"),
    ({"R": [[1.0, 0.5], [0.0, 1.0]]}, "R: asymmetry 5.000e-01 exceeds tolerance 2.000e-10"),
    ({"init_cov": [[1.0, 0.5], [0.0, 1.0]]},
     "init_cov: asymmetry 5.000e-01 exceeds tolerance 2.000e-10"),
    ({"A": [[np.nan, 0.0], [0.0, 1.0]]}, "A: contains non-finite entries"),
    ({"x_bar0": [np.inf, 0.0]}, "x_bar0: contains non-finite entries"),
    # non-finite entries are named before any eigenvalue check sees them
    ({"Q": [[np.nan, 0.0], [0.0, 1.0]]}, "Q: contains non-finite entries"),
    ({"R": [[1.0, 0.0], [0.0, np.nan]]}, "R: contains non-finite entries"),
    ({"init_cov": [[np.nan, 0.0], [0.0, 1.0]]}, "init_cov: contains non-finite entries"),
    ({"f": [np.nan, 0.0]}, "f: contains non-finite entries"),
    ({"sigma": [0.1, np.inf]}, "sigma: contains non-finite entries"),
    ({"f": TimePath([0.0, 1.0], [[1.0, 2.0], [np.nan, 2.0]])}, "f: contains non-finite entries"),
], ids=["eta-length", "x_bar0-length", "f-length", "sigma-length", "f-sampled-width",
        "sigma-sampled-width", "Q-indefinite",
        "R-asymmetric", "init_cov-asymmetric", "A-nan", "x_bar0-inf", "Q-nan", "R-nan",
        "init_cov-nan", "f-nan", "sigma-inf", "f-sampled-nan"])
def test_validation_issue_names_the_fault(overrides, issue):
    assert validation_issues(_two_by_two()) == []
    assert validation_issues(_two_by_two(**overrides)) == [issue]


@pytest.mark.parametrize("n, r", [(1, 0), (0, 1)], ids=["r=0", "n=0"])
def test_an_empty_dimension_is_an_issue_not_a_crash(n, r):
    # each weight's tolerance reads its largest entry, which an empty one lacks
    p = ModelParams(A=np.zeros((n, n)), B=np.zeros((n, r)), G=np.zeros((n, n)),
                    Q=np.zeros((n, n)), R=np.zeros((r, r)), Gamma=np.zeros((n, n)),
                    eta=np.zeros(n), rho=1.0, f=np.zeros(n), sigma=np.zeros(n),
                    x_bar0=np.zeros(n), init_cov=np.zeros((n, n)))
    assert validation_issues(p) == [f"n, r: need both >= 1, got n = {n}, r = {r}"]


def test_the_schema_names_every_field_in_order():
    # __post_init__, validation and the JSON round trip all read _SCHEMA
    assert list(_SCHEMA) == [f.name for f in dataclasses.fields(ModelParams)]


def test_clean_model_passes_validation(social_params):
    assert validation_issues(social_params) == []
    assert validate(social_params) is social_params


def test_time_varying_forcing_is_supported():
    p = scalar_params(f=lambda t: np.array([np.sin(t)]))
    assert not p.constant_forcing
    np.testing.assert_allclose(p.f_at(0.5), [np.sin(0.5)])
    # sigma may be time varying too
    p2 = scalar_params(sigma=lambda t: np.array([0.1 * t]))
    np.testing.assert_allclose(p2.sigma_at(2.0), [0.2])


def test_replace_returns_modified_copy():
    p = scalar_params()
    q = p.replace(rho=0.9)
    assert q.rho == 0.9 and p.rho == 0.6
    np.testing.assert_array_equal(q.A, p.A)


def test_json_round_trip_is_exact():
    # floats must survive the round trip bit for bit
    p = scalar_params(A=0.1 + 0.2, eta=np.pi, sigma=1.0 / 3.0)
    q = params_from_json(params_to_json(p))
    for name in ("A", "B", "G", "Q", "R", "Gamma", "init_cov"):
        np.testing.assert_array_equal(getattr(q, name), getattr(p, name))
    np.testing.assert_array_equal(q.eta, p.eta)
    np.testing.assert_array_equal(q.f_at(0.0), p.f_at(0.0))
    np.testing.assert_array_equal(q.sigma_at(0.0), p.sigma_at(0.0))
    assert q.rho == p.rho


def test_sampled_forcing_json_round_trip():
    # a sampled forcing serializes as its grid and values and comes back exact
    grid, values = [0.0, 0.5, 2.0], [[1.0], [1.5], [0.1]]
    p = scalar_params(f=TimePath(grid, values))
    text = params_to_json(p)
    assert json.loads(text)["f"] == {"grid": grid, "values": values}
    q = params_from_json(text)
    assert isinstance(q.f, TimePath) and not q.constant_forcing
    for t in (-1.0, 0.0, 0.3, 1.0, 2.0, 5.0):
        np.testing.assert_array_equal(q.f_at(t), p.f_at(t))
    np.testing.assert_array_equal(q.f_at(-1.0), [1.0])   # clamped outside the grid
    np.testing.assert_allclose(q.f_at(1.25), [0.8], rtol=1e-15)


@pytest.mark.parametrize("f", [{"grid": [0.0, 1.0], "values": [[1.0]]},
                               {"grid": [0.0, 0.0], "values": [[1.0], [2.0]]},
                               {"grid": [0.0, 1.0], "values": 1.0},
                               {"grid": [0.0, np.nan, 2.0], "values": [[1.0], [2.0], [3.0]]},
                               {"grid": [0.0, np.inf], "values": [[1.0], [2.0]]}],
                         ids=["row-count", "not-increasing", "values-scalar", "grid-nan",
                              "grid-inf"])
def test_sampled_forcing_rejects_malformed_samples(f):
    d = params_to_dict(scalar_params())
    with pytest.raises(ModelValidationError, match="sampled path"):
        params_from_dict(dict(d, f=f))


def test_dict_round_trip_planar(planar_params):
    d = params_to_dict(planar_params)
    assert d["n"] == 2 and d["r"] == 1
    q = params_from_dict(d)
    np.testing.assert_array_equal(q.B, planar_params.B)
    np.testing.assert_array_equal(q.Gamma, planar_params.Gamma)


def test_from_dict_accepts_flat_scalars():
    d = {"A": 1.0, "B": 1.0, "G": -0.2, "Q": 1.0, "R": 1.0, "Gamma": -0.2,
         "eta": 5.0, "rho": 0.6, "f": 1.0, "sigma": 0.1, "x_bar0": 5.0,
         "init_cov": 0.5, "n": 1, "r": 1}
    p = params_from_dict(d)
    assert p.A.shape == (1, 1)


def test_from_dict_rejects_wrong_sizes():
    d = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": 1.0, "G": 0.0, "Q": 1.0,
         "R": 1.0, "Gamma": 0.0, "eta": 0.0, "rho": 0.6, "f": 0.0,
         "sigma": 0.0, "x_bar0": 0.0, "init_cov": 0.0, "n": 1, "r": 1}
    with pytest.raises(ModelValidationError):
        params_from_dict(d)


def _same_bits(a, b) -> bool:
    """Equal shapes and bytes, so -0.0 and +0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()



@hst.composite
def _sampled_paths(draw):
    """A TimePath of 1 to 5 points with rows of 1 to 3 entries, some -0.0,
    and times on its grid points, between them, before its start, past its
    end and at +-inf."""
    size, width = draw(hst.integers(1, 5)), draw(hst.integers(1, 3))
    steps = draw(hst.lists(hst.floats(1e-3, 10.0), min_size=size - 1, max_size=size - 1))
    grid = np.cumsum([draw(hst.floats(-5.0, 5.0))] + steps)
    value = hst.sampled_from([-0.0, 0.0, 1.0, -2.5]) | hst.floats(-1e3, 1e3)
    values = np.array(draw(hst.lists(hst.lists(value, min_size=width, max_size=width),
                                     min_size=size, max_size=size)))
    fractions = hst.floats(0.0, 1.0, exclude_max=True)
    times = draw(hst.lists(hst.one_of(
        hst.sampled_from(grid.tolist() + [-np.inf, np.inf]),
        hst.tuples(hst.integers(0, size - 1), fractions).map(
            lambda kf: grid[kf[0]] + kf[1] * (grid[min(kf[0] + 1, size - 1)] - grid[kf[0]])),
        hst.floats(1e-6, 50.0).map(lambda d: grid[0] - d),
        hst.floats(1e-6, 50.0).map(lambda d: grid[-1] + d)), min_size=1, max_size=12))
    return TimePath(grid, values), np.array(times)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(case=_sampled_paths())
def test_interp_at_an_array_of_times_is_each_one_time_call(case):
    # the one interpolation routine takes one time or an array of times; row
    # k of the array call is the one-time call at times[k], bit for bit (so
    # -0.0 rows stay -0.0), and a time off the grid raises no warning, inf
    # included
    path, times = case
    table = path(times)
    assert table.shape == times.shape + path.values.shape[1:]
    for k, t in enumerate(times.tolist()):
        assert _same_bits(table[k], path(t))
        assert _same_bits(table[k], path(np.float64(t)))
    assert _same_bits(_interp(path.grid, path.values, times[:1].reshape(())), path(times[0]))
    assert _same_bits(path(times.reshape(-1, 1)), table[:, None])


def test_interp_of_a_one_and_a_two_point_path():
    one = TimePath([1.0], [[-0.0, 2.0]])
    assert _same_bits(one(np.array([-np.inf, 1.0, 3.0, np.inf])), np.array([[-0.0, 2.0]] * 4))
    two = TimePath([0.0, 2.0], [[-0.0], [4.0]])
    assert _same_bits(two(np.array([-1.0, 0.0, 0.5, 2.0, 7.0])),
                      np.array([[-0.0], [-0.0], [1.0], [4.0], [4.0]]))
    assert _same_bits(two(np.array([], dtype=float)), np.empty((0, 1)))
