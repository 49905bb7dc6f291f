"""Monte Carlo engine for the coupled N-agent system.

Euler–Maruyama with explicit (current-step) average coupling: each agent gets
its own scalar Brownian motion and the per-(replication, agent) noise streams
are split off the base seed with counter-style spawn keys, so enlarging the
population never reshuffles the noise of existing agents.  That makes common
random number comparisons across laws and population sizes exact.

Studies built on top of the stepper:

- ``convergence_study``   mean-field gap and per-agent social cost gap vs N,
  with log-log regression slopes;
- ``nash_deviation_search``   best affine unilateral deviation for agent 1
  against the rest of the population held at equilibrium.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace as _dc_replace

import numpy as np
from scipy.integrate import trapezoid

from .errors import ModelValidationError, SimulationUnstableError
from .model import ModelParams
from .social import (
    SocialGains,
    _feedback,
    _r_inv_bt,
    centralized_law,
    social_law,
    synth_social_finite,
    synth_social_infinite,
)
from .game import GameGains, game_law
from .stability import sqrt_psd

__all__ = [
    "SimConfig",
    "TrajectoryBundle",
    "CostReport",
    "GapSample",
    "draw_agents",
    "simulate",
    "evaluate_costs",
    "meanfield_gap",
    "mean_se",
    "ConvergenceStudy",
    "convergence_study",
    "affine_deviation_grid",
    "NashDeviationReport",
    "nash_deviation_search",
    "export_trajectory_csv",
    "export_study_csv",
]

_STATE_CAP = 1e12


@dataclass(frozen=True)
class SimConfig:
    """Population size, grid, replication count, and the base seed.

    ``init_mean`` / ``init_cov`` override the model's initial-state Gaussian
    when given.  T must be an integer multiple of dt.
    """

    N: int
    dt: float
    T: float
    replications: int = 1
    seed: int = 0
    init_mean: np.ndarray | None = None
    init_cov: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def validate(self) -> None:
        if self.N < 1 or self.replications < 1:
            raise ModelValidationError("need N >= 1 and replications >= 1")
        if self.dt <= 0 or self.T <= 0:
            raise ModelValidationError("need dt > 0 and T > 0")
        if abs(self.steps * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ModelValidationError("T must be an integer multiple of dt")

    def with_N(self, N: int) -> "SimConfig":
        return _dc_replace(self, N=N)


@dataclass(frozen=True, eq=False)
class TrajectoryBundle:
    grid: np.ndarray       # (K+1,)
    states: np.ndarray     # (K+1, N, n)
    controls: np.ndarray   # (K+1, N, r)
    avg: np.ndarray        # (K+1, n), the per-step population average
    xbar_ref: np.ndarray | None = None   # synthesized mean-field path on grid
    rep: int = 0

    @property
    def N(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True, eq=False)
class CostReport:
    J: np.ndarray          # per-agent discounted cost, (N,)
    J_soc: float           # sum over agents
    per_agent: float       # J_soc / N
    method: str
    horizon: str
    tail_bound: np.ndarray | None = None  # per-agent e^{-rho T} tail estimate


@dataclass(frozen=True)
class GapSample:
    sup_gap: float     # max_t |x^(N) - x_bar|^2
    disc_gap: float    # discounted integral of |x^(N) - x_bar|^2


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("MFLQ_THREADS")
    return max(1, int(env)) if env else 1


def _pmap(fn, items, threads):
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# draws and the stepper
# ---------------------------------------------------------------------------

def draw_agents(params: ModelParams, config: SimConfig, rep: int = 0):
    """Initial states and Brownian increments for one replication.

    Returns ``(init_states (N, n), noise (K, N))``.  Agent i's stream is
    seeded by ``SeedSequence(seed, spawn_key=(rep, i))`` and its initial state
    is drawn before its increments, so the draw depends only on (seed, rep, i).
    """
    n, N, K = params.n, config.N, config.steps
    mean = params.x_bar0 if config.init_mean is None else np.asarray(config.init_mean, float)
    cov = params.init_cov if config.init_cov is None else np.asarray(config.init_cov, float)
    L = sqrt_psd(cov)
    x0 = np.empty((N, n))
    xi = np.empty((K, N))
    for i in range(N):
        g = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(config.seed, spawn_key=(rep, i))))
        x0[i] = mean + L @ g.standard_normal(n)
        xi[:, i] = g.standard_normal(K)
    return x0, xi


def simulate(params: ModelParams, law, config: SimConfig, rep: int = 0,
             noise: np.ndarray | None = None,
             init_states: np.ndarray | None = None,
             xbar_ref: np.ndarray | None = None) -> TrajectoryBundle:
    """Euler–Maruyama pass of the coupled population under ``law(t, X)``.

    ``law`` receives the full (N, n) state block and returns (N, r) controls;
    decentralized laws simply act row-wise.  The average entering the drift at
    step k is the recorded ``avg[k]`` itself.
    """
    config.validate()
    n, r, N, K = params.n, params.r, config.N, config.steps
    dt = config.dt
    grid = config.grid()
    if noise is None or init_states is None:
        x0_d, xi_d = draw_agents(params, config, rep)
        init_states = x0_d if init_states is None else np.asarray(init_states, float)
        noise = xi_d if noise is None else np.asarray(noise, float)

    A_T, B_T, G_T = params.A.T.copy(), params.B.T.copy(), params.G.T.copy()
    f_const = params.f_at(0.0) if params.constant_forcing else None
    sigma_fixed = not callable(params.sigma)
    sig_const = params.sigma_at(0.0) if sigma_fixed else None
    sqrt_dt = np.sqrt(dt)

    X = np.array(init_states, dtype=float).reshape(N, n)
    states = np.empty((K + 1, N, n))
    controls = np.empty((K + 1, N, r))
    avg = np.empty((K + 1, n))
    for k in range(K + 1):
        t = float(grid[k])
        states[k] = X
        a = X.mean(axis=0)
        avg[k] = a
        U = np.asarray(law(t, X), float).reshape(N, r)
        controls[k] = U
        if k == K:
            break
        f_t = f_const if f_const is not None else params.f_at(t)
        sig = sig_const if sigma_fixed else params.sigma_at(t)
        drift = X @ A_T + U @ B_T + (a @ G_T + f_t)
        X = X + drift * dt + (sqrt_dt * noise[k])[:, None] * sig
        if not np.isfinite(X).all() or np.max(np.abs(X)) > _STATE_CAP:
            raise SimulationUnstableError(
                f"state overflow at t = {grid[k + 1]:g}; the simulated loop is "
                "unstable at this step size", t_escape=float(grid[k + 1]))

    if xbar_ref is None and hasattr(law, "x_bar_at"):
        xbar_ref = np.array([law.x_bar_at(t) for t in grid])
    return TrajectoryBundle(grid=grid, states=states, controls=controls,
                            avg=avg, xbar_ref=xbar_ref, rep=rep)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def _tracking_integrand(params: ModelParams, states, controls, avg):
    """Pointwise cost density per agent; ``avg`` may be shared (K+1, n) or
    per-column (K+1, N, n)."""
    ref = avg @ params.Gamma.T
    if ref.ndim == 2:
        ref = ref[:, None, :]
    D = states - ref - params.eta
    q = np.einsum("...n,nm,...m->...", D, params.Q, D)
    r = np.einsum("...n,nm,...m->...", controls, params.R, controls)
    return q + r


def evaluate_costs(bundle: TrajectoryBundle, params: ModelParams,
                   horizon: str = "finite") -> CostReport:
    """Discounted trapezoidal quadrature of each agent's running cost."""
    if horizon not in ("finite", "infinite"):
        raise ValueError("horizon must be 'finite' or 'infinite'")
    g = _tracking_integrand(params, bundle.states, bundle.controls, bundle.avg)
    disc = np.exp(-params.rho * bundle.grid)
    J = trapezoid(disc[:, None] * g, bundle.grid, axis=0)
    tail = disc[-1] * g[-1] / params.rho if horizon == "infinite" else None
    J_soc = float(J.sum())
    return CostReport(J=J, J_soc=J_soc, per_agent=J_soc / bundle.N,
                      method="trapezoid", horizon=horizon, tail_bound=tail)


def meanfield_gap(bundle: TrajectoryBundle, rho: float) -> GapSample:
    """Squared deviation between the population average and the synthesized
    mean-field path: sup over the grid and the discounted integral."""
    if bundle.xbar_ref is None:
        raise ValueError("bundle carries no mean-field reference path")
    diff = bundle.avg - bundle.xbar_ref
    sq = np.einsum("kn,kn->k", diff, diff)
    disc = np.exp(-rho * bundle.grid)
    return GapSample(sup_gap=float(np.max(sq)),
                     disc_gap=float(trapezoid(disc * sq, bundle.grid)))


def mean_se(samples) -> tuple[float, float]:
    a = np.asarray(samples, float)
    if a.size < 2:
        return float(a.mean()), float("inf")
    return float(a.mean()), float(a.std(ddof=1) / np.sqrt(a.size))


def _loglog_fit(N_list, y):
    x = np.log(np.asarray(N_list, float))
    z = np.log(np.asarray(y, float))
    xc = x - x.mean()
    slope = float(xc @ (z - z.mean()) / (xc @ xc))
    intercept = float(z.mean() - slope * x.mean())
    resid = z - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    se = float(np.sqrt(resid @ resid / dof / (xc @ xc)))
    return slope, se, intercept


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConvergenceStudy:
    N_list: tuple
    replications: int
    horizon: str
    gap_sup_mean: np.ndarray | None
    gap_sup_se: np.ndarray | None
    gap_disc_mean: np.ndarray | None
    gap_disc_se: np.ndarray | None
    gap_slope: float | None
    gap_slope_se: float | None
    dJ_mean: np.ndarray | None        # per-agent social cost gap (u_hat - u_check)
    dJ_se: np.ndarray | None
    dJ_scaled: np.ndarray | None      # dJ * sqrt(N)
    flags: tuple
    details: dict = field(default_factory=dict)

    def rows(self):
        out = []
        for i, N in enumerate(self.N_list):
            if self.gap_disc_mean is not None:
                out.append((N, "gap_disc", self.gap_disc_mean[i], self.gap_disc_se[i]))
                out.append((N, "gap_sup", self.gap_sup_mean[i], self.gap_sup_se[i]))
            if self.dJ_mean is not None:
                out.append((N, "social_gap_per_agent", self.dJ_mean[i], self.dJ_se[i]))
        if self.gap_slope is not None:
            out.append((0, "gap_disc_slope", self.gap_slope, self.gap_slope_se))
        return out


def convergence_study(params: ModelParams, N_list, config: SimConfig,
                      horizon: str = "finite", metrics=("gap", "social"),
                      gains: SocialGains | None = None,
                      threads: int | None = None) -> ConvergenceStudy:
    """Mean-field gap and social optimality gap across population sizes.

    The decentralized law (precomputed mean-field path) and the centralized
    optimum (actual population average in the feedback) share gains and noise;
    the per-agent cost gap dJ(N) is their paired difference divided by N.
    """
    config.validate()
    N_list = tuple(int(N) for N in N_list)
    threads = _resolve_threads(threads)
    if gains is None:
        if horizon == "finite":
            gains = synth_social_finite(params, config.T, steps=config.steps)
        else:
            gains = synth_social_infinite(params)
    elif gains.horizon == "finite":
        step = gains.grid[1] - gains.grid[0]
        ratio = step / config.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ModelValidationError("dt must divide the gains grid step")
    dec = social_law(gains)
    cen = centralized_law(gains)
    grid = config.grid()
    xbar_ref = np.array([gains.x_bar_at(t) for t in grid])

    want_gap = "gap" in metrics
    want_social = "social" in metrics
    cost_h = "finite" if gains.horizon == "finite" else "infinite"

    gap_sup = np.empty((len(N_list), config.replications)) if want_gap else None
    gap_disc = np.empty_like(gap_sup) if want_gap else None
    dJ = np.empty((len(N_list), config.replications)) if want_social else None

    for iN, N in enumerate(N_list):
        cfgN = config.with_N(N)

        def one_rep(rep, cfgN=cfgN, N=N):
            x0, xi = draw_agents(params, cfgN, rep)
            b_dec = simulate(params, dec, cfgN, rep, noise=xi, init_states=x0,
                             xbar_ref=xbar_ref)
            sup = disc = d = None
            if want_gap:
                gs = meanfield_gap(b_dec, params.rho)
                sup, disc = gs.sup_gap, gs.disc_gap
            if want_social:
                b_cen = simulate(params, cen, cfgN, rep, noise=xi, init_states=x0)
                J_dec = evaluate_costs(b_dec, params, cost_h).J_soc
                J_cen = evaluate_costs(b_cen, params, cost_h).J_soc
                d = (J_dec - J_cen) / N
            return sup, disc, d

        for rep, (sup, disc, d) in enumerate(_pmap(one_rep, range(config.replications), threads)):
            if want_gap:
                gap_sup[iN, rep] = sup
                gap_disc[iN, rep] = disc
            if want_social:
                dJ[iN, rep] = d

    flags = []

    def agg(samples):
        mean = np.empty(len(N_list))
        se = np.empty(len(N_list))
        for i in range(len(N_list)):
            mean[i], se[i] = mean_se(samples[i])
        return mean, se

    gap_sup_m = gap_sup_s = gap_disc_m = gap_disc_s = None
    slope = slope_se = None
    if want_gap:
        gap_sup_m, gap_sup_s = agg(gap_sup)
        gap_disc_m, gap_disc_s = agg(gap_disc)
        slope, slope_se, _ = _loglog_fit(N_list, gap_disc_m)
        if np.any(gap_disc_m < 2 * gap_disc_s):
            flags.append("gap: insufficient replications (CI overlaps zero)")
    dJ_m = dJ_s = dJ_scaled = None
    if want_social:
        dJ_m, dJ_s = agg(dJ)
        dJ_scaled = dJ_m * np.sqrt(np.asarray(N_list, float))
        if np.any(np.abs(dJ_m) < 2 * dJ_s):
            flags.append("social gap: insufficient replications (CI overlaps zero)")

    return ConvergenceStudy(
        N_list=N_list, replications=config.replications, horizon=gains.horizon,
        gap_sup_mean=gap_sup_m, gap_sup_se=gap_sup_s,
        gap_disc_mean=gap_disc_m, gap_disc_se=gap_disc_s,
        gap_slope=slope, gap_slope_se=slope_se,
        dJ_mean=dJ_m, dJ_se=dJ_s, dJ_scaled=dJ_scaled,
        flags=tuple(flags),
        details={"dt": config.dt, "T": config.T, "seed": config.seed},
    )


# ---------------------------------------------------------------------------
# unilateral deviations
# ---------------------------------------------------------------------------

def affine_deviation_grid(span: float = 0.5, points: int = 5):
    """Cartesian (dP, dc) grid of affine perturbations, centred on (0, 0)."""
    vals = np.linspace(-span, span, points)
    return [(float(a), float(b)) for a in vals for b in vals]


@dataclass(frozen=True, eq=False)
class NashDeviationReport:
    N: int
    grid: tuple                       # ((dP, dc), ...)
    improvement_mean: np.ndarray      # J_1(equilibrium) - J_1(deviation)
    improvement_se: np.ndarray
    max_improvement: float
    max_entry: tuple
    max_se: float
    baseline_J1: float
    baseline_J1_se: float
    details: dict = field(default_factory=dict)

    def rows(self):
        out = [(self.N, "baseline_J1", self.baseline_J1, self.baseline_J1_se)]
        for (dp, dc), m, s in zip(self.grid, self.improvement_mean, self.improvement_se):
            out.append((self.N, f"improvement[dP={dp:g},dc={dc:g}]", m, s))
        out.append((self.N, "max_improvement", self.max_improvement, self.max_se))
        return out


def _normalize_deviation(n: int, dp, dc):
    dP = np.asarray(dp, float)
    if dP.ndim == 0:
        dP = float(dP) * np.eye(n)
    dcv = np.asarray(dc, float)
    if dcv.ndim == 0:
        dcv = float(dcv) * np.ones(n)
    return dP, dcv


def _deviation_law(gains: GameGains, dP: np.ndarray, dc: np.ndarray):
    RB = _r_inv_bt(gains.params)

    def law(t, X):
        return _feedback(RB, gains.P_at(t) + dP, X,
                         gains._offset_at(t, gains.x_bar_at(t)) + dc)

    return law


def _simulate_isolated(params: ModelParams, law, config: SimConfig,
                       init_states: np.ndarray, noise: np.ndarray):
    """Independent copies of a single agent (valid when G = 0): rows of the
    state block never interact, so replications batch as rows."""
    M, n = init_states.shape
    r, K = params.r, config.steps
    grid = config.grid()
    A_T, B_T = params.A.T.copy(), params.B.T.copy()
    f_const = params.f_at(0.0) if params.constant_forcing else None
    sigma_fixed = not callable(params.sigma)
    sig_const = params.sigma_at(0.0) if sigma_fixed else None
    sqrt_dt = np.sqrt(config.dt)

    X = np.array(init_states, dtype=float)
    states = np.empty((K + 1, M, n))
    controls = np.empty((K + 1, M, r))
    for k in range(K + 1):
        t = float(grid[k])
        states[k] = X
        U = np.asarray(law(t, X), float).reshape(M, r)
        controls[k] = U
        if k == K:
            break
        f_t = f_const if f_const is not None else params.f_at(t)
        sig = sig_const if sigma_fixed else params.sigma_at(t)
        X = X + (X @ A_T + U @ B_T + f_t) * config.dt \
            + (sqrt_dt * noise[k])[:, None] * sig
        if not np.isfinite(X).all() or np.max(np.abs(X)) > _STATE_CAP:
            raise SimulationUnstableError(
                f"state overflow at t = {grid[k + 1]:g} under the deviation law",
                t_escape=float(grid[k + 1]))
    return states, controls


def _agent_cost(params: ModelParams, grid, states, controls, avg):
    g = _tracking_integrand(params, states, controls, avg)
    disc = np.exp(-params.rho * grid)
    return trapezoid(disc[:, None] * g, grid, axis=0)


def nash_deviation_search(params: ModelParams, gains: GameGains,
                          config: SimConfig, grid=None,
                          threads: int | None = None) -> NashDeviationReport:
    """Best unilateral affine deviation for agent 1.

    Agents 2..N follow the equilibrium strategy; agent 1 tries
    u_1 = -R^{-1} B^T ((P + dP) x_1 + (P_bar - P) x_bar + s_hat + dc) over the
    perturbation grid, under common random numbers.  Positive improvement
    means the deviation beats the equilibrium; the zero deviation is the
    identical law and scores exactly 0 by construction.
    """
    config.validate()
    if grid is None:
        grid = affine_deviation_grid()
    grid = tuple((dp, dc) for dp, dc in grid)
    threads = _resolve_threads(threads)
    n, N, M = params.n, config.N, config.replications
    horizon = "infinite" if gains.horizon == "infinite" else "finite"
    law_eq = game_law(gains)
    decoupled = float(np.max(np.abs(params.G))) == 0.0

    full_draws: dict = {}

    def base_rep(rep):
        x0, xi = draw_agents(params, config, rep)
        b = simulate(params, law_eq, config, rep, noise=xi, init_states=x0)
        if not decoupled:
            full_draws[rep] = (x0, xi)   # needed to replay deviations exactly
        return (b.states[:, 0, :].copy(), b.controls[:, 0, :].copy(),
                b.avg, xi[:, 0].copy(), x0[0].copy())

    base = _pmap(base_rep, range(M), threads)
    sim_grid = config.grid()
    x1_base = np.stack([t[0] for t in base], axis=1)     # (K+1, M, n)
    u1_base = np.stack([t[1] for t in base], axis=1)
    avg_base = np.stack([t[2] for t in base], axis=1)    # (K+1, M, n)
    J1_base = _agent_cost(params, sim_grid, x1_base, u1_base, avg_base)
    base_mean, base_se = mean_se(J1_base)

    xi1 = np.stack([t[3] for t in base], axis=1)         # (K, M)
    x01 = np.stack([t[4] for t in base], axis=0)         # (M, n)
    del base

    def score(entry):
        dp, dc = entry
        dP, dcv = _normalize_deviation(n, dp, dc)
        if np.all(dP == 0.0) and np.all(dcv == 0.0):
            return np.zeros(M)
        law_dev = _deviation_law(gains, dP, dcv)
        if decoupled:
            x1_dev, u1_dev = _simulate_isolated(params, law_dev, config, x01, xi1)
            avg_dev = avg_base + (x1_dev - x1_base) / N
            J1_dev = _agent_cost(params, sim_grid, x1_dev, u1_dev, avg_dev)
        else:
            J1_dev = np.empty(M)
            for rep in range(M):
                def mixed(t, X):
                    U = np.asarray(law_eq(t, X), float).reshape(config.N, params.r)
                    U[0] = np.asarray(law_dev(t, X[:1]), float).reshape(1, params.r)[0]
                    return U
                x0, xi = full_draws[rep]
                b = simulate(params, mixed, config, rep, noise=xi, init_states=x0)
                J1_dev[rep] = evaluate_costs(b, params, horizon).J[0]
        return J1_base - J1_dev

    per_entry = _pmap(score, grid, threads)
    imp_mean = np.empty(len(grid))
    imp_se = np.empty(len(grid))
    for i, samples in enumerate(per_entry):
        imp_mean[i], imp_se[i] = mean_se(samples)
    best = int(np.argmax(imp_mean))
    return NashDeviationReport(
        N=N, grid=grid, improvement_mean=imp_mean, improvement_se=imp_se,
        max_improvement=float(imp_mean[best]), max_entry=grid[best],
        max_se=float(imp_se[best]), baseline_J1=base_mean, baseline_J1_se=base_se,
        details={"replications": M, "dt": config.dt, "T": config.T,
                 "seed": config.seed, "decoupled_fast_path": decoupled},
    )


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return f"{float(v):.17g}"


def export_trajectory_csv(path, bundles) -> None:
    """States and controls, one row per (replication, time, agent)."""
    if isinstance(bundles, TrajectoryBundle):
        bundles = [bundles]
    first = bundles[0]
    n = first.states.shape[2]
    r = first.controls.shape[2]
    header = (["replication", "t", "agent_id"]
              + [f"x{j}" for j in range(n)] + [f"u{j}" for j in range(r)])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for b in bundles:
            for k, t in enumerate(b.grid):
                for i in range(b.N):
                    w.writerow([b.rep, _fmt(t), i]
                               + [_fmt(v) for v in b.states[k, i]]
                               + [_fmt(v) for v in b.controls[k, i]])


def export_study_csv(path, rows) -> None:
    """(N, metric, estimate, stderr) rows; N = 0 marks aggregate entries."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "metric", "estimate", "stderr"])
        for N, metric, est, se in rows:
            w.writerow([N, metric, _fmt(est), _fmt(se)])
