import json

import numpy as np
import pytest

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
from mflq.model import TimePath, validation_issues

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
                               {"grid": [0.0, 0.0], "values": [[1.0], [2.0]]}],
                         ids=["row-count", "not-increasing"])
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
