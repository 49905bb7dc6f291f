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
import math
import os
from dataclasses import dataclass, field, replace as _dc_replace

import numpy as np
from scipy.integrate import trapezoid

from .errors import ModelValidationError, SimulationUnstableError
from .model import ModelParams, _as_int, _as_real
from .social import (
    _law,
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
_BLOCK_BYTES = 2 * 1024 * 1024   # cap on one (K+1, m, N, n) array of a replication block
_NUM = "%.17g"                   # the one number format of every CSV artifact
_CSV_CHUNK_VALUES = 1 << 12      # numbers formatted per write of a CSV table


@dataclass(frozen=True)
class SimConfig:
    """Population size, grid, replication count, and the base seed.

    T must be an integer multiple of dt.
    """

    N: int
    dt: float
    T: float
    replications: int = 1
    seed: int = 0

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def validate(self) -> None:
        _as_int("sim.N", self.N, 1)
        _as_int("sim.replications", self.replications, 1)
        _as_int("sim.seed", self.seed, 0)
        _as_real("sim.dt", self.dt, True)
        _as_real("sim.T", self.T, True)
        if abs(self.steps * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ModelValidationError("T must be an integer multiple of dt")

    def with_N(self, N: int) -> "SimConfig":
        return _dc_replace(self, N=N)


@dataclass(frozen=True, eq=False)
class TrajectoryBundle:
    grid: np.ndarray       # (K+1,)
    states: np.ndarray     # (K+1, N, n), or (K+1, M, N, n) for a block
    controls: np.ndarray   # (K+1, N, r), or (K+1, M, N, r)
    avg: np.ndarray        # (K+1, n) or (K+1, M, n), the per-step population average
    rep: int = 0

    @property
    def N(self) -> int:
        return self.states.shape[-2]


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


# ---------------------------------------------------------------------------
# draws and the stepper
# ---------------------------------------------------------------------------

def draw_agents(params: ModelParams, config: SimConfig, rep: int = 0):
    """Initial states, drawn from the model's N(x_bar0, init_cov), and
    Brownian increments for one replication.

    Returns ``(init_states (N, n), noise (K, N))``.  Agent i's stream is
    seeded by ``SeedSequence(seed, spawn_key=(rep, i))`` and its initial state
    is drawn before its increments, so the draw depends only on (seed, rep, i).
    """
    n, N, K = params.n, config.N, config.steps
    L = sqrt_psd(params.init_cov)
    x0 = np.empty((N, n))
    xi = np.empty((K, N))
    for i in range(N):
        g = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(config.seed, spawn_key=(rep, i))))
        x0[i] = params.x_bar0 + L @ g.standard_normal(n)
        xi[:, i] = g.standard_normal(K)
    return x0, xi


def simulate(params: ModelParams, law, config: SimConfig, rep: int = 0,
             noise: np.ndarray | None = None,
             init_states: np.ndarray | None = None) -> TrajectoryBundle:
    """Euler–Maruyama pass of the coupled population under ``law(t, X)``.

    ``law`` receives the full (N, n) state block and returns (N, r) controls;
    decentralized laws simply act row-wise.  The average entering the drift at
    step k is the recorded ``avg[k]`` itself.  With G = 0 the rows never
    interact, so independent copies of one agent can be stepped as rows.

    A block of M replications is stepped at once when ``noise`` is (K, M, N)
    and ``init_states`` (M, N, n); both must then be given.  Each replication
    is coupled through its own average, the law sees (M, N, n) states, and
    the bundle holds (K+1, M, N, n) states, (K+1, M, N, r) controls and
    (K+1, M, n) averages.
    """
    config.validate()
    n, r, N, K = params.n, params.r, config.N, config.steps
    dt = config.dt
    grid = config.grid()
    if noise is None or init_states is None:
        if np.ndim(noise) > 2 or np.ndim(init_states) > 2:
            raise ValueError("a block of replications needs both noise and init_states")
        x0_d, xi_d = draw_agents(params, config, rep)
        init_states = x0_d if init_states is None else init_states
        noise = xi_d if noise is None else noise
    noise = np.asarray(noise, float)
    lead = noise.shape[1:-1]   # () for one replication, (M,) for a block

    A_T, B_T, G_T = params.A.T.copy(), params.B.T.copy(), params.G.T.copy()
    coupled = bool(np.any(G_T))
    sqrt_dt = np.sqrt(dt)

    X = np.array(init_states, dtype=float).reshape(*lead, N, n)
    states = np.empty((K + 1, *lead, N, n))
    controls = np.empty((K + 1, *lead, N, r))
    for k, t in enumerate(grid.tolist()):
        states[k] = X
        U = np.asarray(law(t, X), float).reshape(*lead, N, r)
        controls[k] = U
        if k == K:
            break
        f_t = params.f_at(t)
        if coupled:
            x_avg = X.sum(axis=-2, keepdims=True) / N   # X.mean's own arithmetic
            drift = X @ A_T + U @ B_T + (x_avg @ G_T + f_t)
        else:
            drift = X @ A_T + U @ B_T + f_t
        X = X + drift * dt + (sqrt_dt * noise[k])[..., None] * params.sigma_at(t)
        if not np.abs(X).max() <= _STATE_CAP:   # also true for NaN and +-inf
            raise SimulationUnstableError(
                f"state overflow at t = {grid[k + 1]:g}; the simulated loop is "
                "unstable at this step size", t_escape=float(grid[k + 1]))
    return TrajectoryBundle(grid=grid, states=states, controls=controls,
                            avg=states.mean(axis=-2), rep=rep)


def _block_size(steps: int, N: int, n: int) -> int:
    """Replications per block: a (K+1, m, N, n) float array stays within
    ``_BLOCK_BYTES``, with at least one replication."""
    return max(1, _BLOCK_BYTES // ((steps + 1) * N * n * 8))


def _replication_blocks(params: ModelParams, config: SimConfig):
    """Yield ``(reps, init_states (m, N, n), noise (K, m, N))`` over the
    replications of ``config``, drawn one replication at a time."""
    N, n, K = config.N, params.n, config.steps
    m = _block_size(K, N, n)
    for start in range(0, config.replications, m):
        reps = range(start, min(start + m, config.replications))
        x0 = np.empty((len(reps), N, n))
        xi = np.empty((K, len(reps), N))
        for j, rep in enumerate(reps):
            x0[j], xi[:, j] = draw_agents(params, config, rep)
        yield reps, x0, xi


def _replication(block: TrajectoryBundle, j: int, rep: int) -> TrajectoryBundle:
    """The j-th replication of a block, as a one-replication bundle of views."""
    return TrajectoryBundle(grid=block.grid, states=block.states[:, j],
                            controls=block.controls[:, j], avg=block.avg[:, j], rep=rep)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def _one_replication(bundle: TrajectoryBundle, what: str) -> None:
    """Refuse a block bundle: ``what`` reduces one replication's (K+1, N, n)."""
    if bundle.states.ndim != 3:
        raise ValueError(f"{what} takes (K+1, N, n) bundles, got states of shape "
                         f"{bundle.states.shape}; pass a block one replication at a time")


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


def _agent_cost(params: ModelParams, grid, states, controls, avg):
    """Discounted trapezoidal quadrature of the running cost of each column
    of ``states`` (K+1, m, n)."""
    g = _tracking_integrand(params, states, controls, avg)
    disc = np.exp(-params.rho * grid)
    return trapezoid(disc[:, None] * g, grid, axis=0)


def evaluate_costs(bundle: TrajectoryBundle, params: ModelParams,
                   horizon: str = "finite") -> CostReport:
    """Discounted trapezoidal quadrature of each agent's running cost."""
    if horizon not in ("finite", "infinite"):
        raise ValueError("horizon must be 'finite' or 'infinite'")
    _one_replication(bundle, "evaluate_costs")
    J = _agent_cost(params, bundle.grid, bundle.states, bundle.controls, bundle.avg)
    tail = None
    if horizon == "infinite":   # the discounted running cost at T, held past T
        g_T = _tracking_integrand(params, bundle.states[-1], bundle.controls[-1], bundle.avg[-1])
        tail = np.exp(-params.rho * bundle.grid[-1]) * g_T / params.rho
    J_soc = float(J.sum())
    return CostReport(J=J, J_soc=J_soc, per_agent=J_soc / bundle.N,
                      method="trapezoid", horizon=horizon, tail_bound=tail)


def meanfield_gap(bundle: TrajectoryBundle, x_bar: np.ndarray, rho: float) -> GapSample:
    """Squared deviation between the population average and the synthesized
    mean-field path ``x_bar`` (one row per grid time): sup over the grid and
    the discounted integral."""
    _one_replication(bundle, "meanfield_gap")
    if np.shape(x_bar) != bundle.avg.shape:
        raise ValueError(f"meanfield_gap needs x_bar of shape {bundle.avg.shape}, one row "
                         f"per grid time, got {np.shape(x_bar)}")
    diff = bundle.avg - x_bar
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
    """Least-squares slope of log y on log N, its standard error and the
    intercept.  Below three sizes there is no residual degree of freedom and
    the error is inf; with a single distinct size there is no slope either."""
    x = np.log(np.asarray(N_list, float))
    z = np.log(np.asarray(y, float))
    xc = x - x.mean()
    if not xc.any():
        return None, math.inf, None
    slope = float(xc @ (z - z.mean()) / (xc @ xc))
    intercept = float(z.mean() - slope * x.mean())
    resid = z - (intercept + slope * x)
    se = float(np.sqrt(resid @ resid / (x.size - 2) / (xc @ xc))) if x.size > 2 else math.inf
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
                      horizon: str = "finite", metrics=("gap", "social")) -> ConvergenceStudy:
    """Mean-field gap and social optimality gap across population sizes.

    The decentralized law (precomputed mean-field path) and the centralized
    optimum (actual population average in the feedback) share gains and noise;
    the per-agent cost gap dJ(N) is their paired difference divided by N.
    """
    config.validate()
    N_list = tuple(_as_int("population size N", N, 1) for N in N_list)
    if not N_list:
        raise ModelValidationError("convergence study needs at least one population size")
    if horizon == "finite":
        gains = synth_social_finite(params, config.T, steps=config.steps)
    else:
        gains = synth_social_infinite(params)
    dec = social_law(gains)
    cen = centralized_law(gains)
    x_bar = np.array([gains.x_bar_at(t) for t in config.grid()])

    want_gap = "gap" in metrics
    want_social = "social" in metrics

    gap_sup = np.empty((len(N_list), config.replications)) if want_gap else None
    gap_disc = np.empty_like(gap_sup) if want_gap else None
    dJ = np.empty((len(N_list), config.replications)) if want_social else None

    for iN, N in enumerate(N_list):
        cfgN = config.with_N(N)
        for reps, x0, xi in _replication_blocks(params, cfgN):
            b_dec = simulate(params, dec, cfgN, noise=xi, init_states=x0)
            J_dec = []
            for j, rep in enumerate(reps):
                b = _replication(b_dec, j, rep)
                if want_gap:
                    gs = meanfield_gap(b, x_bar, params.rho)
                    gap_sup[iN, rep], gap_disc[iN, rep] = gs.sup_gap, gs.disc_gap
                if want_social:
                    J_dec.append(evaluate_costs(b, params, gains.horizon).J_soc)
            del b_dec, b   # free the decentralized block before the centralized one
            if want_social:
                b_cen = simulate(params, cen, cfgN, noise=xi, init_states=x0)
                for j, rep in enumerate(reps):
                    J_cen = evaluate_costs(_replication(b_cen, j, rep), params,
                                           gains.horizon).J_soc
                    dJ[iN, rep] = (J_dec[j] - J_cen) / N
                del b_cen
            del x0, xi   # one block's arrays alive at a time

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
    """Cartesian (dP, dc) grid of affine perturbations, centred on (0, 0);
    ``span`` must be real and finite, ``points`` an integer >= 1."""
    _as_real("deviation span", span, False)
    _as_int("deviation points", points, 1)
    vals = np.linspace(-float(span), float(span), points)
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


def _first_agent_deviates(law_eq, law_dev):
    """Simulation law: agent 1 (column 0 of each replication) follows
    ``law_dev``, the others ``law_eq``."""
    def law(t, X):
        U = law_eq(t, X)
        U[..., :1, :] = law_dev(t, X[..., :1, :])
        return U

    return law


def nash_deviation_search(params: ModelParams, gains: GameGains,
                          config: SimConfig, grid=None) -> NashDeviationReport:
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
    n, r, N, M = params.n, params.r, config.N, config.replications
    law_eq = game_law(gains)
    decoupled = float(np.max(np.abs(params.G))) == 0.0
    sim_grid = config.grid()
    K = config.steps

    laws = {None: law_eq}   # grid index (None: the equilibrium) -> law stepped per block
    stacked = []            # decoupled non-zero deviations, stepped together below
    for i, (dp, dc) in enumerate(grid):
        dP, dcv = _normalize_deviation(n, dp, dc)
        if np.all(dP == 0.0) and np.all(dcv == 0.0):
            continue   # the equilibrium law itself, scored by the baseline
        if decoupled:
            stacked.append((i, dP, dcv))
        else:
            laws[i] = _first_agent_deviates(law_eq, _law(gains, dP=dP, dc=dcv))

    # agent 1's rows under the equilibrium and, with G != 0 (a deviation feeds
    # back through the average), under each coupled deviation, all stepped on
    # the same block draws; agent 1's own draws are kept for the decoupled replay
    rows = {i: tuple(np.empty((K + 1, M, d)) for d in (n, r, n)) for i in laws}
    xi1 = np.empty((K, M))
    x01 = np.empty((M, n))
    for reps, x0, xi in _replication_blocks(params, config):
        blk = slice(reps.start, reps.stop)
        xi1[:, blk], x01[blk] = xi[:, :, 0], x0[:, 0]
        for i, law in laws.items():
            b = simulate(params, law, config, noise=xi, init_states=x0)
            for row, part in zip(rows[i], (b.states[:, :, 0], b.controls[:, :, 0], b.avg)):
                row[:, blk] = part
            del b
        del x0, xi   # one block's arrays alive at a time
    J1 = {i: _agent_cost(params, sim_grid, *rows[i]) for i in laws}
    J1_base = J1.pop(None)
    x1_base, _, avg_base = rows[None]
    base_mean, base_se = mean_se(J1_base)

    # agent 1's M replications under E deviations are independent copies: step
    # them as an (E, M) block of rows
    per_block = _block_size(K, M, n)
    for start in range(0, len(stacked), per_block):
        chunk = stacked[start:start + per_block]
        E = len(chunk)
        law_dev = _law(gains, dP=np.stack([d[1] for d in chunk]),
                       dc=np.stack([d[2] for d in chunk])[:, None])
        b = simulate(params, law_dev, config.with_N(M),
                     noise=np.broadcast_to(xi1[:, None], (K, E, M)),
                     init_states=np.broadcast_to(x01, (E, M, n)))
        for e, (i, _, _) in enumerate(chunk):
            avg_dev = avg_base + (b.states[:, e] - x1_base) / N
            J1[i] = _agent_cost(params, sim_grid, b.states[:, e], b.controls[:, e], avg_dev)
        del b

    imp_mean = np.empty(len(grid))
    imp_se = np.empty(len(grid))
    for i in range(len(grid)):
        imp_mean[i], imp_se[i] = mean_se(J1_base - J1.get(i, J1_base))
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
    return _NUM % float(v)


def _write_rows(fh, row: str, table: np.ndarray) -> None:
    """Write each row of the 2-D ``table`` with the printf format ``row``,
    formatting about ``_CSV_CHUNK_VALUES`` numbers per write."""
    step = max(1, _CSV_CHUNK_VALUES // table.shape[1])
    for i in range(0, len(table), step):
        part = table[i:i + step]
        fh.write((row * len(part)) % tuple(part.ravel().tolist()))


def _write_trajectory(fh, b: TrajectoryBundle) -> None:
    """One replication's rows, (replication, time, agent) order."""
    n, r = b.states.shape[2], b.controls.shape[2]
    # replication, time and agent id enter the row format as text, so only
    # states and controls are formatted per row
    agents = [f",{i}" + ("," + _NUM) * (n + r) + "\r\n" for i in range(b.N)]
    steps = max(1, _CSV_CHUNK_VALUES // (b.N * (n + r)))
    for k in range(0, b.grid.size, steps):
        heads = [f"{b.rep}," + _fmt(t) for t in b.grid[k:k + steps]]
        values = np.concatenate([b.states[k:k + steps], b.controls[k:k + steps]], axis=2)
        fh.write("".join([h + h.join(agents) for h in heads])
                 % tuple(values.ravel().tolist()))


def export_trajectory_csv(path, bundles) -> None:
    """States and controls, one row per (replication, time, agent).

    ``bundles`` is one bundle or any iterable of them, each written as it
    arrives, so a generator stepping one replication at a time never holds
    them all.  Block bundles are refused; pass their replications one at a
    time.  Any failure, the iterable's own included, leaves no partial file.
    """
    if isinstance(bundles, TrajectoryBundle):
        bundles = [bundles]
    fh = open(path, "w", newline="")
    try:
        with fh:
            header = True
            for b in bundles:
                _one_replication(b, "export_trajectory_csv")
                if header:
                    n, r = b.states.shape[2], b.controls.shape[2]
                    fh.write(",".join(["replication", "t", "agent_id"] + [f"x{j}" for j in range(n)]
                                      + [f"u{j}" for j in range(r)]) + "\r\n")
                    header = False
                _write_trajectory(fh, b)
            if header:
                raise ValueError("export_trajectory_csv got no bundles")
    except BaseException:
        os.remove(path)
        raise


def export_study_csv(path, rows) -> None:
    """(N, metric, estimate, stderr) rows; N = 0 marks aggregate entries."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "metric", "estimate", "stderr"])
        for N, metric, est, se in rows:
            w.writerow([N, metric, _fmt(est), _fmt(se)])
