"""Hand-derived closed forms that the tests check the package against.

Each oracle is written from the paper's formulas alone and calls no
synthesis, Riccati or stability code of the package: it only reads what a
caller hands it (a model's numbers, or a gains object's accessors) and
raises the package's error types where a test expects them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from mflq.errors import ModelValidationError
from mflq.model import TimePath


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


# ---------------------------------------------------------------------------
# the finite-horizon synthesis from whole-interval exponentials
# ---------------------------------------------------------------------------

def offset_slope(rho, Acl, s, forcing):
    """ds/dt of  rho s = ds/dt + Acl^T s + forcing, for one s (n,) or a path
    of them (K+1, n) with one Acl (K+1, n, n) per row."""
    return rho * s - (Acl.swapaxes(-1, -2) @ s[..., None])[..., 0] - forcing


def forcing_pieces(f) -> list:
    """A constant forcing or a ``TimePath`` as polynomial pieces (t0, c),
    c (3, n): f(t) = c[0] + c[1] (t - t0) + c[2] (t - t0)^2 from t0 to the
    next piece's t0; the first piece also covers the times before its t0,
    which is exact for a ``TimePath`` only from its first knot on."""
    if not isinstance(f, TimePath):
        f = np.atleast_1d(np.asarray(f, dtype=float))
        return [(0.0, np.array([f, 0.0 * f, 0.0 * f]))]
    slopes = np.diff(f.values, axis=0) / np.diff(f.grid)[:, None]
    zero = np.zeros_like(f.values[0])
    return ([(t0, np.array([v, d, zero])) for t0, v, d in zip(f.grid, f.values, slopes)]
            + [(f.grid[-1], np.array([f.values[-1], zero, zero]))])


def _backward_states(M, forcing_columns, pieces, grid, terminal):
    """y at every grid time for y' = M y + C(t) [1, tau, tau^2], C the
    piece's ``forcing_columns(c)`` (m, 3) and tau = t - t0, given as the
    affine function ``terminal`` (m, k) of k coordinates at grid[-1] (the
    last one the constant): (K+1, m, k).  Each time is reached from the end
    of its piece by one exponential of [[M, C], [0, N]] on [y; 1; tau;
    tau^2], whatever the distance; only the pieces are chained."""
    m, k = terminal.shape
    out = np.empty((grid.size, m, k))
    y, hi = terminal, grid[-1]
    for j in range(len(pieces) - 1, -1, -1):
        t0, c = pieces[j]
        lo = t0 if j else -math.inf
        if lo >= hi:
            continue
        G = np.zeros((m + 3, m + 3))
        G[:m, :m], G[:m, m:] = M, forcing_columns(c)
        G[m + 1, m], G[m + 2, m + 1] = 1.0, 2.0
        z = np.zeros((m + 3, k))
        z[:m], z[m:, -1] = y, [1.0, hi - t0, (hi - t0) ** 2]
        at = (grid <= hi) & (grid > lo)
        out[at] = (expm(G * (grid[at] - hi)[:, None, None]) @ z)[:, :m]
        if lo <= grid[0]:
            break
        y, hi = (expm(G * (lo - hi)) @ z)[:m], lo
    return out


def _mean_field_weights(params, problem):
    """(A1, W, e) of the mean-field root's equation
    rho X = X' + A1^T X + X (A + G) - X S X + W and its offset's forcing e,
    from the paper: Pi's for the social optimum, P_bar's for the game."""
    Q, I = params.Q, np.eye(params.n)
    IG = I - params.Gamma
    if problem == "social":
        return params.A + params.G, IG.T @ Q @ IG, IG.T @ Q @ params.eta
    return params.A, Q @ IG, Q @ params.eta


def exact_finite_synthesis(params, problem, grid, pieces):
    """(P, X, s, x_bar) on ``grid`` of the finite-horizon synthesis with zero
    terminal data at grid[-1], X = Pi (social) or P_bar (game), for the
    forcing given as ``forcing_pieces``.

    Radon's lemma on the whole interval, without stepping: the averaged state
    and adjoint (x, p) obey [x; p]' = H [x; p] + [f; e],
    H = [[A + G, -S], [-W, rho I - A1^T]], and every (x(T), p(T) = 0) gives
    x(t) = U x(T) + u, p(t) = V x(T) + v, so X = V U^{-1}, s = v - X u, and
    x_bar(t) is the x(t) of the x(T) that starts at x_bar0.  P is the same
    construction for [[A, -S], [-Q, rho I - A^T]] without forcing.
    """
    A, n, rho = params.A, params.n, params.rho
    S = params.B @ np.linalg.solve(params.R, params.B.T)
    A1, W, e = _mean_field_weights(params, problem)
    terminal = np.vstack((np.eye(n, n + 1), np.zeros((n, n + 1))))

    def roots(A1, A2, W, forcing_columns):
        H = np.block([[A2, -S], [-W, rho * np.eye(n) - A1.T]])
        Z = _backward_states(H, forcing_columns, pieces, grid, terminal)
        U, V = Z[:, :n, :n], Z[:, n:, :n]
        return np.linalg.solve(np.swapaxes(U, 1, 2), np.swapaxes(V, 1, 2)).swapaxes(1, 2), Z

    P, _ = roots(A, A, params.Q, lambda c: np.zeros((2 * n, 3)))
    X, Z = roots(A1, A + params.G, W, lambda c: np.vstack((c.T, np.eye(1, 3) * e[:, None])))
    u, v = Z[:, :n, n], Z[:, n:, n]
    s = v - (X @ u[..., None])[..., 0]
    x_T = np.linalg.solve(Z[0, :n, :n], params.x_bar0 - u[0])
    return P, X, s, (Z[:, :n, :n] @ x_T) + u


def exact_constant_root_offset(params, problem, X, grid, s_end, pieces):
    """The offset on ``grid`` of  rho s = s' + (A1 - S X^T)^T s + X f - e
    for a constant root X, from ``s_end`` at grid[-1], each time reached by
    one exponential of its piece: s' = L s - X f + e, L = rho I -
    (A1 - S X^T)^T, decays backward when X is the stabilizing root."""
    A1, _, e = _mean_field_weights(params, problem)
    S = params.B @ np.linalg.solve(params.R, params.B.T)
    L = params.rho * np.eye(params.n) - (A1 - S @ X.T).T
    columns = lambda c: -X @ c.T + np.eye(1, 3) * e[:, None]
    return _backward_states(L, columns, pieces, grid, np.asarray(s_end, dtype=float)[:, None])[..., 0]
