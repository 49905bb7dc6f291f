import numpy as np
import pytest

from mflq import ModelParams

# Scalar benchmark family used throughout: B = Q = R = 1, Gamma = -0.2,
# eta = 5, rho = 0.6, f = 1, sigma = 0.1, initial states ~ N(5, 0.5).


def scalar_params(A=1.0, G=-0.2, **overrides):
    base = dict(A=A, B=1.0, G=G, Q=1.0, R=1.0, Gamma=-0.2, eta=5.0,
                rho=0.6, f=1.0, sigma=0.1, x_bar0=5.0, init_cov=0.5)
    base.update(overrides)
    return ModelParams(**base)


@pytest.fixture
def social_params():
    """Cooperative benchmark: A = 1, G = -0.2."""
    return scalar_params()


@pytest.fixture
def game_params():
    """Competitive benchmark: A = 1, G = 0."""
    return scalar_params(G=0.0)


@pytest.fixture
def homogeneous_params():
    """f = 0, G = 0 variant used by the representation equivalences."""
    return scalar_params(G=0.0, f=0.0)


def planar_model(**overrides):
    base = dict(A=[[0.1, 0.0], [-1.0, 0.2]], B=[[1.0], [1.0]],
                G=[[-0.5, 0.0], [0.0, -0.3]], Q=np.eye(2), R=[[1.0]],
                Gamma=[[1.0, 0.0], [1.0, 1.0]], eta=[0.0, 0.5], rho=0.6,
                f=[1.0, 1.0], sigma=[0.5, 0.5], x_bar0=[5.0, 5.0],
                init_cov=0.5 * np.eye(2))
    base.update(overrides)
    return ModelParams(**base)


@pytest.fixture
def planar_params():
    return planar_model()


def pytest_runtest_logreport(report):
    # One visible PASS/FAIL line per acceptance criterion, regardless of
    # output capturing.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    print(f"\n[acceptance] {name}: {status}", flush=True)
