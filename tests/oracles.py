"""Hand-derived closed forms that the tests check the package against.

Each oracle is written from the paper's formulas alone and calls no
synthesis, Riccati or stability code of the package: it only reads what a
caller hands it (a model's numbers, or a gains object's accessors) and
raises the package's error types where a test expects them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mflq.errors import ModelValidationError


# ---------------------------------------------------------------------------
# the paper's scalar example
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Example1Result:
    individual_ok: bool        # (a - rho/2)^2 + b^2 q / r > 0
    average_ok: bool           # (a + g - rho/2)^2 + (b^2/r)(1-gamma)^2 q > 0
    delta: float               # 4 [ (a - rho/2)^2 + b^2 q / r ]
    p: float                   # nonnegative stabilizing root
    closed_loop: float         # a - b^2 p / r - rho/2
    identity_residual: float   # closed_loop + sqrt(delta)/2


def scalar_example1(a: float, b: float, q: float, r: float, rho: float,
                    g: float = 0.0, gamma: float = 0.0) -> Example1Result:
    """Closed-form scalar solvability data.

    The quadratic (b^2/r) p^2 - (2a - rho) p - q = 0 has the rho-stabilizing
    root p = [(2a - rho) + sqrt(delta)] / (2 b^2 / r) when b != 0, and the
    shifted closed loop then equals -sqrt(delta)/2 identically.
    """
    if r <= 0:
        raise ModelValidationError("scalar criteria need r > 0")
    half = a - rho / 2.0
    delta = 4.0 * (half * half + b * b * q / r)
    individual_ok = half * half + b * b * q / r > 0.0
    half_g = a + g - rho / 2.0
    average_ok = half_g * half_g + (b * b / r) * (1.0 - gamma) ** 2 * q > 0.0
    if b != 0.0:
        p = ((2.0 * a - rho) + np.sqrt(delta)) / (2.0 * b * b / r)
        closed_loop = a - b * b * p / r - rho / 2.0
        residual = closed_loop + np.sqrt(delta) / 2.0
    else:
        # linear equation; defined only away from a = rho/2
        p = q / (rho - 2.0 * a) if rho != 2.0 * a else np.inf
        closed_loop = a - rho / 2.0
        residual = np.nan
    return Example1Result(
        individual_ok=bool(individual_ok),
        average_ok=bool(average_ok),
        delta=float(delta),
        p=float(p),
        closed_loop=float(closed_loop),
        identity_residual=float(residual),
    )


# ---------------------------------------------------------------------------
# the population adjoint
# ---------------------------------------------------------------------------

def adjoint_coefficients(gains, N: int, t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion loadings of the population adjoint processes of cooperative
    ``gains`` at t.

    beta_self = P sigma + K sigma / N (own noise), beta_cross = K sigma / N
    (every other agent's noise); requires a constant sigma.
    """
    if callable(gains.params.sigma):
        raise ValueError("adjoint coefficients are reported for constant sigma only")
    sig = gains.params.sigma_at(t)
    cross = (gains.K_at(t) @ sig) / float(N)
    return gains.P_at(t) @ sig + cross, cross
