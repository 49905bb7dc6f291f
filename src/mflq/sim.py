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
import operator
import os
from dataclasses import dataclass, field, replace as _dc_replace

import numpy as np

from .errors import ModelValidationError, SimulationUnstableError
from .model import ModelParams, _as_int, _as_real
from .riccati import default_grid
from .social import (
    _Gains,
    _affine,
    _average,
    _coupled_offset,
    _dot,
    _r_inv_bt,
    _rows,
    synth_social_finite,
    synth_social_infinite,
)
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
_BLOCK_BYTES = 9 * 512 * 1024    # 4.5 MiB cap on the arrays a replication block holds for its whole pass
_WINDOW = 16                     # grid steps a study records between reductions
_NUM = "%.17g"                   # the one number format of every CSV artifact
_CSV_CHUNK_VALUES = 1 << 12      # numbers formatted per write of a CSV table

# numpy's SeedSequence hash with its pool of 4 words (O'Neill, "Developing a
# seed_seq alternative", pcg-random.org, 2015), all arithmetic mod 2**32
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875       # hashes the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED       # hashes the pool into the state words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class SimConfig:
    """Population size, grid, replication count, and the base seed.

    T must be an integer multiple of dt.  A config is validated when it is
    built, so ``with_N`` and ``dataclasses.replace`` refuse invalid fields too.
    """

    N: int
    dt: float
    T: float
    replications: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    def grid(self) -> np.ndarray:
        return default_grid(self.T, self.steps)

    def validate(self) -> None:
        _as_int("sim.N", self.N, 1)
        if self.N >= 1 << 32:   # an agent's spawn-key word is one uint32 in _stream_seeds
            raise ModelValidationError(f"need sim.N < 2**32, got {self.N!r}")
        _as_int("sim.replications", self.replications, 1)
        _as_int("sim.seed", self.seed, 0)
        _as_real("sim.dt", self.dt, True)
        _as_real("sim.T", self.T, True)
        if not math.isfinite(float(self.T) / float(self.dt)):   # before int() reads the ratio
            raise ModelValidationError(f"need a finite sim.T / sim.dt, got {self.T!r} / {self.dt!r}")
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
    rep: int = 0

    @property
    def N(self) -> int:
        return self.states.shape[-2]


@dataclass(frozen=True, eq=False)
class CostReport:
    J: np.ndarray          # per-agent discounted cost, (N,)
    J_soc: float           # sum over agents
    per_agent: float       # J_soc / N
    horizon: str
    tail_bound: np.ndarray | None = None  # per-agent e^{-rho T} tail estimate


@dataclass(frozen=True)
class GapSample:
    sup_gap: float     # max_t |x^(N) - x_bar|^2
    disc_gap: float    # discounted integral of |x^(N) - x_bar|^2


# ---------------------------------------------------------------------------
# draws and the stepper
# ---------------------------------------------------------------------------

def _hash_constants(h: int, mult: int, k: int):
    """The hash constant before and after each of k steps ``h <- h * mult``,
    as two uint32 arrays."""
    before, after = [], []
    for _ in range(k):
        before.append(h)
        h = h * mult & _MASK32
        after.append(h)
    return np.array(before, np.uint32), np.array(after, np.uint32)


# the 8 output words' constants, as (2, 4): the output cycles twice over the pool
_OUT_XOR, _OUT_MUL = (c.reshape(2, 4) for c in _hash_constants(_INIT_B, _MULT_B, 8))


def _stream_seeds(seed: int, rep: int, agents: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(rep, i)).generate_state(4, np.uint64)``
    for every agent i of the uint32 array ``agents``, as (len(agents), 4) rows.

    The entropy is seed's 32-bit words zero-padded to 4, rep's words, then i.
    The pool mixed from the (seed, rep) prefix is therefore
    ``SeedSequence(seed, spawn_key=(rep,)).pool``, after 4 steps of the hash
    constant per prefix word.  Mixing i into the 4 pool words and hashing the
    pool into the 8 output words run on (len(agents), 4) and (len(agents), 8)
    uint32 arrays, whose products wrap mod 2**32 as the hash's do; the hash
    constants are the same for every agent."""
    pool = np.random.SeedSequence(seed, spawn_key=(rep,)).pool

    def words(v):
        return max(1, -(-operator.index(v).bit_length() // 32))

    h = _INIT_A * pow(_MULT_A, 4 * (max(4, words(seed)) + words(rep)), 1 << 32) & _MASK32
    xor, mul = _hash_constants(h, _MULT_A, 4)
    v = (agents[:, None] ^ xor) * mul
    v ^= v >> 16
    v = _MIX_L * pool - _MIX_R * v
    v ^= v >> 16
    state = (v[:, None] ^ _OUT_XOR) * _OUT_MUL
    state ^= state >> 16
    return state.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _StateRow(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is one precomputed ``_stream_seeds`` row,
    for ``PCG64``, which seeds itself from 4 uint64 words."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"a stream seed row holds 4 uint64 words, not {n_words} {dtype}")
        return self.row


def draw_agents(params: ModelParams, config: SimConfig, rep: int = 0):
    """Initial states, drawn from the model's N(x_bar0, init_cov), and
    Brownian increments for one replication.

    Returns ``(init_states (N, n), noise (K, N))``.  Agent i's stream is
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(rep, i))))`` and its
    initial state is drawn before its increments, so the draw depends only on
    (seed, rep, i).  The N seed states come from one vectorized pass of the
    SeedSequence hash (``_stream_seeds``); agent N - 1's is checked against
    numpy's own ``SeedSequence`` on every call.  Column i of ``noise`` holds
    stream i's increments.  This is the one-replication case of
    ``_draw_block``.
    """
    x0, xi = _draw_block(params, config, range(rep, rep + 1))
    return x0[0], xi[:, 0]


def simulate(params: ModelParams, law, config: SimConfig, rep: int = 0) -> TrajectoryBundle:
    """Euler–Maruyama pass of replication ``rep`` of the coupled population
    under ``law(t, X)``, on the draws ``draw_agents(params, config, rep)``.

    ``law`` receives the full (N, n) state block and returns (N, r) controls;
    decentralized laws simply act row-wise.  The average entering the drift at
    step k is the recorded ``avg[k]`` itself.  ``rep`` must be an integer >= 0.
    """
    rep = _as_int("rep", rep, 0)
    init_states, noise = draw_agents(params, config, rep)
    times = config.grid().tolist()
    # one window of K+1 rows: the whole pass, recorded in place
    (_, states, controls), = _steps(params, lambda k, X, x: law(times[k], X), config, noise,
                                    init_states, config.steps + 1)
    return TrajectoryBundle(grid=config.grid(), states=states, controls=controls,
                            avg=_average(states)[..., 0, :], rep=rep)


def _steps(params: ModelParams, law, config: SimConfig, noise, init_states, window: int):
    """The Euler–Maruyama pass of ``simulate`` on given draws, recorded a
    window at a time; ``law(k, X, x)`` gives the controls at grid step k.
    Noise (K, *lead, N) and initial states (*lead, N, n) of any other shape
    are refused before the first step.

    x is the population average of X, (*lead, 1, n), formed once per step
    when the drift reads it (G != 0) and handed to the law, or None when
    G = 0; a law that needs the average and gets None forms it itself, so
    each step averages at most once.

    Yields ``(k0, states, controls)``: grid steps k0, k0+1, ... as
    (w, *lead, N, n) states and (w, *lead, N, r) controls, w = ``window``
    except for a shorter last window.  The arrays are one buffer refilled in
    place, so a consumer keeps what it needs before asking for the next.

    Any lead shape steps at once: () for one replication (``simulate``),
    (L, *block) for L populations stacked on one block's draws
    (``_stacked_steps``).  Each product with a 2-D matrix is one 2-D BLAS
    call (``_dot``), and the coupling average is ``_average``, reduced on
    one (-1, N, n) view.
    """
    n, r, N, K = params.n, params.r, config.N, config.steps
    dt = config.dt
    grid = config.grid()
    noise = np.asarray(noise, float)
    lead = noise.shape[1:-1]   # (), (M,) for a block, (L, M) for a stack

    A_T, B_T, G_T = params.A.T.copy(), params.B.T.copy(), params.G.T.copy()
    coupled = bool(np.any(G_T))
    sqrt_dt = np.sqrt(dt)

    X = np.array(init_states, dtype=float)
    if noise.ndim < 2 or (len(noise), noise.shape[-1]) != (K, N) or X.shape != (*lead, N, n):
        raise ValueError(f"need noise (K, *lead, N) and init_states (*lead, N, n) with K = {K}, "
                         f"N = {N}, n = {n}; got noise {noise.shape} and init_states {X.shape}")
    window = min(window, K + 1)
    states = np.empty((window, *lead, N, n))
    controls = np.empty((window, *lead, N, r))
    # what the state does not change: f and sigma at each step's time, and
    # the noise terms, formed _WINDOW steps at a time on the draws without
    # the copies a stack broadcasts (stride 0), then broadcast in the update
    f, sigma = params.f_at(grid[:-1]), params.sigma_at(grid[:-1])
    own = noise[(slice(None),) + tuple(slice(0, 1) if st == 0 else slice(None)
                                       for st in noise.strides[1:])]
    sigma = sigma.reshape(K, *(1,) * (own.ndim - 1), -1)
    k0 = 0
    for k in range(K + 1):
        j = k - k0
        states[j] = X
        x = _average(X) if coupled else None
        U = np.asarray(law(k, X, x), float).reshape(*lead, N, r)
        controls[j] = U
        if j + 1 == window or k == K:
            yield k0, states[:j + 1], controls[:j + 1]
            k0 = k + 1
        if k == K:
            break
        if k % _WINDOW == 0:
            shocks = (sqrt_dt * own[k:k + _WINDOW])[..., None] * sigma[k:k + _WINDOW]
        if coupled:
            drift = _dot(X, A_T) + _dot(U, B_T) + (_dot(x, G_T) + f[k])
        else:
            drift = _dot(X, A_T) + _dot(U, B_T) + f[k]
        X = X + drift * dt + shocks[k % _WINDOW]
        if not np.abs(X).max() <= _STATE_CAP:   # also true for NaN and +-inf
            raise SimulationUnstableError(
                f"state overflow at t = {grid[k + 1]:g}; the simulated loop is "
                "unstable at this step size", t_escape=float(grid[k + 1]))


def _stacked_steps(params: ModelParams, law, L: int, config: SimConfig, noise, init_states):
    """``_steps`` of ``law`` on L copies of one block's draws, noise
    (K, *block, N) and initial states (*block, N, n), stacked on a new
    leading axis, as one pass of ``_WINDOW`` steps per window.

    States are (w, L, *block, N, n); the copies are broadcast views, so no
    draw is copied, and ``law`` sees the whole (L, *block, N, n) stack.
    """
    noise = np.broadcast_to(noise[:, None], (len(noise), L, *noise.shape[1:]))
    init_states = np.broadcast_to(init_states, (L, *np.shape(init_states)))
    return _steps(params, law, config, noise, init_states, _WINDOW)


def _row_law(RB: np.ndarray, *parts):
    """The stepper's law (k, X, x) -> U of tables (P, K, o) from ``_rows``:
    each part ``(where, table)`` sets U[where] to ``_affine`` of its row k on
    X[where], in order, so a later part overwrites an earlier one.  The
    first parts cover the whole stack: ``(..., table)``, or one table per
    population, ``(0, table_0), (1, table_1), ...``.

    Population tables share one P (the convergence study's decentralized
    and centralized tables do), so they act as one part: P x is one
    ``_affine`` over the whole stack, with population i's own offset, its o
    plus, on a centralized row (K not None), K times its average x[i]."""
    pops = []
    for where, table in parts:
        if not (isinstance(where, int) and where == len(pops)):
            break
        pops.append(table)
    if not pops and parts[0][0] is not ...:
        raise ValueError("a law's first parts must cover the whole stack")
    if any(not np.array_equal(P, pops[0][0]) for P, _, _ in pops):
        raise ValueError("the population tables of a law must share one P")
    parts = parts[len(pops):]

    def law(k, X, x):
        U = None
        if pops:
            o = np.empty((*X.shape[:-2], 1, X.shape[-1]))
            for i, (_, K, o_i) in zip(range(len(X)), pops, strict=True):   # one table per population
                o[i] = o_i[k] if K is None else _coupled_offset(
                    K[k], _average(X[i]) if x is None else x[i], o_i[k])
            U = _affine(RB, pops[0][0][k], None, o, X)
        for where, (P, K, o) in parts:
            u = _affine(RB, P[k], None if K is None else K[k], o[k], X[where])
            if U is None:   # a first part over the whole stack gives U itself
                U = u
            else:
                U[where] = u
        return U

    return law


def _replication_blocks(params: ModelParams, config: SimConfig, n_laws: int):
    """Yield ``(reps, init_states (m, N, n), noise (K, m, N))`` over the
    replications of ``config``, drawn one replication at a time, for a study
    that steps ``n_laws`` laws stacked on each block.

    A block holds at least one replication and otherwise stays within
    ``_BLOCK_BYTES`` of what its replications hold for the whole pass: each
    one's (K, N) draws and its rows of the stacked window buffers,
    ``n_laws`` x ``_WINDOW`` x N x (n + r) numbers.  The generator keeps no
    reference to a block it has yielded, so a caller that drops it holds one
    block's draws at a time."""
    m = max(1, _BLOCK_BYTES // (8 * config.N * (config.steps
                                                + n_laws * _WINDOW * (params.n + params.r))))
    for start in range(0, config.replications, m):
        reps = range(start, min(start + m, config.replications))
        yield (reps, *_draw_block(params, config, reps))


def _draw_block(params: ModelParams, config: SimConfig, reps: range):
    """``draw_agents`` for each of ``reps``, as initial states (m, N, n) and
    noise (K, m, N); the square root of ``init_cov`` is taken once.  A
    stream's normals come from one ``standard_normal`` call, which draws
    them bit for bit as the two calls of ``draw_agents``'s definition do."""
    n, N, K = params.n, config.N, config.steps
    L = sqrt_psd(params.init_cov)
    x0 = np.empty((len(reps), N, n))
    xi = np.empty((K, len(reps), N))
    # each stream's draws in one contiguous row, drawn by one call: its
    # initial state's n normals, then its K increments
    z = np.empty((N, n + K))
    for j, rep in enumerate(reps):
        want = np.random.SeedSequence(config.seed, spawn_key=(rep, N - 1)).generate_state(
            4, np.uint64)
        rows = _stream_seeds(config.seed, rep, np.arange(N, dtype=np.uint32))
        if not np.array_equal(rows[-1], want):
            raise RuntimeError(f"the vectorized SeedSequence hash disagrees with numpy "
                               f"{np.__version__}'s SeedSequence at (seed {config.seed}, "
                               f"rep {rep}, agent {N - 1})")
        for row, x, w in zip(rows, x0[j], z):
            np.random.Generator(np.random.PCG64(_StateRow(row))).standard_normal(out=w)
            # L @ z one agent at a time: a batched product may move bits for n >= 2
            np.matmul(L, w[:n], out=x)
        xi[:, j] = z[:, n:].T
    x0 += params.x_bar0
    return x0, xi


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def _tracking_integrand(params: ModelParams, states, controls, avg):
    """Pointwise cost density per agent; ``avg`` broadcasts against
    ``states``: shared (K+1, 1, n) or per-column (K+1, N, n)."""
    D = states - avg @ params.Gamma.T
    D -= params.eta
    g = np.einsum("...n,nm,...m->...", D, params.Q, D)
    del D   # one window-sized array fewer at a study pass's peak
    g += np.einsum("...n,nm,...m->...", controls, params.R, controls)
    return g


class _Trapezoid:
    """The package's one quadrature: the discounted trapezoid on ``grid``,
    fed a window of integrand rows at a time.  ``add(k0, g)`` takes rows
    g (w, ...) for grid steps k0, k0+1, ..., windows in order from k0 = 0,
    and returns ``total``, the integral so far, one array that later adds
    may update in place.

    The terms d (y[k] + y[k+1]) / 2 of y = e^{-rho t} g are added one step
    after another, so a column's integral does not depend on how the grid is
    split into windows or on which other columns share its rows.  A window
    at least as wide as it is tall adds its rows in place, one after
    another; a taller one runs the same order through ``np.add.accumulate``,
    which loops once per column."""

    def __init__(self, grid, rho: float):
        self.disc = np.exp(-rho * grid)
        self.d = np.diff(grid)
        self.total = 0.0

    def add(self, k0: int, g):
        k = k0 + len(g)
        col = (-1,) + (1,) * (g.ndim - 1)
        y = self.disc[k0:k].reshape(col) * g
        if not k0:   # a one-row grid integrates to zeros of the columns' shape
            self.total, self.last = np.zeros(g.shape[1:]), y[:0]
        y = np.concatenate((self.last, y))   # the previous window's last row opens this one
        terms = self.d[k - len(y):k - 1].reshape(col) * (y[1:] + y[:-1]) / 2.0
        if self.total.size >= len(terms):
            for term in terms:
                self.total += term
        else:   # with the running total as row 0, each term is added after the one before
            self.total = np.add.accumulate(np.concatenate((self.total[None], terms)))[-1].copy()
        self.last = y[-1:]
        return self.total


def evaluate_costs(bundle: TrajectoryBundle, params: ModelParams,
                   horizon: str = "finite") -> CostReport:
    """Discounted trapezoidal quadrature of each agent's running cost."""
    if horizon not in ("finite", "infinite"):
        raise ValueError("horizon must be 'finite' or 'infinite'")
    J = _Trapezoid(bundle.grid, params.rho).add(
        0, _tracking_integrand(params, bundle.states, bundle.controls, bundle.avg[:, None]))
    tail = None
    if horizon == "infinite":   # the discounted running cost at T, held past T
        g_T = _tracking_integrand(params, bundle.states[-1], bundle.controls[-1], bundle.avg[-1])
        tail = np.exp(-params.rho * bundle.grid[-1]) * g_T / params.rho
    J_soc = float(J.sum())
    return CostReport(J=J, J_soc=J_soc, per_agent=J_soc / bundle.N,
                      horizon=horizon, tail_bound=tail)


def meanfield_gap(bundle: TrajectoryBundle, x_bar: np.ndarray, rho: float) -> GapSample:
    """Squared deviation between the population average and the synthesized
    mean-field path ``x_bar`` (one row per grid time): sup over the grid and
    the discounted integral."""
    if np.shape(x_bar) != bundle.avg.shape:
        raise ValueError(f"meanfield_gap needs x_bar of shape {bundle.avg.shape}, one row "
                         f"per grid time, got {np.shape(x_bar)}")
    (sup,), (disc,) = _gap(bundle.avg[:, None], x_bar, rho, bundle.grid)
    return GapSample(sup_gap=float(sup), disc_gap=float(disc))


def _gap(avg, x_bar, rho: float, grid):
    """``meanfield_gap`` of a block's average rows (K+1, m, n): the sup (m,)
    and the discounted integral (m,), through ``_Trapezoid``."""
    diff = avg - x_bar[:, None]
    sq = np.einsum("kmn,kmn->km", diff, diff)
    return sq.max(axis=0), _Trapezoid(grid, rho).add(0, sq)


def mean_se(samples) -> tuple[float, float]:
    a = np.asarray(samples, float)
    if a.size < 2:
        return float(a.mean()), float("inf")
    return float(a.mean()), float(a.std(ddof=1) / np.sqrt(a.size))


def _loglog_fit(N_list, y):
    """Least-squares slope of log y on log N and its standard error.  Below
    three sizes there is no residual degree of freedom and the error is inf;
    with a single distinct size there is no slope either."""
    x = np.log(np.asarray(N_list, float))
    z = np.log(np.asarray(y, float))
    xc = x - x.mean()
    if not xc.any():
        return None, math.inf
    slope = float(xc @ (z - z.mean()) / (xc @ xc))
    intercept = float(z.mean() - slope * x.mean())
    resid = z - (intercept + slope * x)
    se = float(np.sqrt(resid @ resid / (x.size - 2) / (xc @ xc))) if x.size > 2 else math.inf
    return slope, se


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


def _study_pass(params: ModelParams, law, L: int, config: SimConfig, noise, init_states,
                cost: bool):
    """Step a block under ``law``, L tables stacked by ``_row_law``, in one
    pass (``_stacked_steps``, population i on table i), a window at a time,
    keeping only the first table's average rows (K+1, m, n), reduced by
    ``_average``, and, with ``cost``, each agent's discounted cost (L, m, N),
    ``_Trapezoid``'s reduction of ``evaluate_costs``'s integrand.
    """
    avg = np.empty((config.steps + 1, *noise.shape[1:-1], params.n))
    J = _Trapezoid(config.grid(), params.rho)
    stack = _stacked_steps(params, law, L, config, noise, init_states)
    for k0, S, U in stack:
        S_avg = _average(S)
        avg[k0:k0 + len(S)] = S_avg[:, 0, ..., 0, :]
        if cost:
            J.add(k0, _tracking_integrand(params, S, U, S_avg))
    return avg, J.total


def convergence_study(params: ModelParams, N_list, config: SimConfig,
                      horizon: str = "finite", metrics=("gap", "social")) -> ConvergenceStudy:
    """Mean-field gap and social optimality gap across population sizes.

    The decentralized law (precomputed mean-field path) and the centralized
    optimum (actual population average in the feedback) share gains and noise;
    the per-agent cost gap dJ(N) is their paired difference divided by N.
    ``horizon`` is "finite" or "infinite"; ``metrics`` is a non-empty list or
    tuple of "gap" and "social".
    """
    N_list = tuple(_as_int("population size N", N, 1) for N in N_list)
    if not N_list:
        raise ModelValidationError("convergence study needs at least one population size")
    if horizon not in ("finite", "infinite"):
        raise ModelValidationError(f"horizon must be 'finite' or 'infinite', got {horizon!r}")
    if not (isinstance(metrics, (list, tuple)) and metrics
            and all(m in ("gap", "social") for m in metrics)):
        raise ModelValidationError("convergence metrics must list 'gap' and/or 'social', "
                                   f"got {metrics!r}")
    if horizon == "finite":
        gains = synth_social_finite(params, config.T, steps=config.steps)
    else:
        gains = synth_social_infinite(params)
    grid = config.grid()
    x_bar = gains.x_bar_at(grid)

    want_gap = "gap" in metrics
    want_social = "social" in metrics
    # the decentralized law's table (index 0) and, for the social gap, the
    # centralized one's (index 1), stepped together on each block's draws
    tables = [_rows(gains, grid, centralized=c) for c in (False, True)[:1 + want_social]]
    law = _row_law(_r_inv_bt(gains.params), *enumerate(tables))

    gap_sup = np.empty((len(N_list), config.replications)) if want_gap else None
    gap_disc = np.empty_like(gap_sup) if want_gap else None
    dJ = np.empty((len(N_list), config.replications)) if want_social else None

    for iN, N in enumerate(N_list):
        cfgN = config.with_N(N)
        for reps, x0, xi in _replication_blocks(params, cfgN, len(tables)):
            avg, J = _study_pass(params, law, len(tables), cfgN, xi, x0, want_social)
            blk = slice(reps.start, reps.stop)
            if want_gap:
                gap_sup[iN, blk], gap_disc[iN, blk] = _gap(avg, x_bar, params.rho, grid)
            if want_social:   # each agent row summed as evaluate_costs sums J
                dJ[iN, blk] = (J[0].sum(axis=-1) - J[1].sum(axis=-1)) / N
            del x0, xi   # one block's draws alive at a time

    flags = []

    def agg(samples):   # mean and stderr per population size
        return np.array([mean_se(s) for s in samples]).T

    gap_sup_m = gap_sup_s = gap_disc_m = gap_disc_s = None
    slope = slope_se = None
    if want_gap:
        gap_sup_m, gap_sup_s = agg(gap_sup)
        gap_disc_m, gap_disc_s = agg(gap_disc)
        slope, slope_se = _loglog_fit(N_list, gap_disc_m)
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
    """Cartesian (dP, dc) grid of affine perturbations, ``points`` evenly
    spaced values in [-span, span] on each axis.  It holds the zero deviation
    (0, 0) only for odd ``points``: ``points=4`` omits it and ``points=1`` is
    the lone entry (-span, -span), so a search's ``max_improvement`` may be
    negative.  ``span`` must be real and its grid's width 2 |span| finite,
    ``points`` an integer >= 1."""
    if not math.isfinite(2.0 * float(_as_real("deviation span", span, False))):
        raise ModelValidationError(f"deviation span {span!r} is too large: the grid's width "
                                   "2 |span| overflows")
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
            out.append((self.N, f"improvement[dP={_label(dp)},dc={_label(dc)}]", m, s))
        out.append((self.N, "max_improvement", self.max_improvement, self.max_se))
        return out


def _label(v) -> str:
    """A grid entry's text: ``%g`` of a scalar, or of an array's values in
    row-major order, space-separated inside brackets."""
    if np.ndim(v) == 0:
        return f"{v:g}"
    return "[" + " ".join(f"{x:g}" for x in np.ravel(v).tolist()) + "]"


def _normalize_deviation(i: int, n: int, dp, dc):
    """Grid entry ``i`` as (dP (n, n), dc (n,)): a scalar dP stands for
    dP I, a scalar dc for dc 1.  Any other shape, or a non-finite entry, is
    refused."""
    dP, dcv = np.asarray(dp, float), np.asarray(dc, float)
    if dP.shape not in ((), (n, n)) or dcv.shape not in ((), (n,)):
        raise ModelValidationError(
            f"deviation grid entry {i} (dP, dc) has shapes {dP.shape} and {dcv.shape}; "
            f"dP must be a scalar or ({n}, {n}), dc a scalar or ({n},)")
    if not (np.all(np.isfinite(dP)) and np.all(np.isfinite(dcv))):
        raise ModelValidationError(f"deviation grid entry {i} (dP, dc) is not finite")
    if dP.ndim == 0:
        dP = float(dP) * np.eye(n)
    if dcv.ndim == 0:
        dcv = float(dcv) * np.ones(n)
    return dP, dcv


def nash_deviation_search(params: ModelParams, gains: _Gains,
                          config: SimConfig, grid=None) -> NashDeviationReport:
    """Best unilateral affine deviation for agent 1.

    Agents 2..N follow the equilibrium strategy; agent 1 tries
    u_1 = -R^{-1} B^T ((P + dP) x_1 + (P_bar - P) x_bar + s_hat + dc) over the
    perturbation grid, under common random numbers.  Positive improvement
    means the deviation beats the equilibrium; the zero deviation is the
    identical law and scores exactly 0 by construction.

    The equilibrium is one table and the E non-zero entries another,
    ``_rows(gains, grid, dP=(E, n, n), dc=(E, 1, n))``, both built once.
    With G != 0 the equilibrium population and E copies with agent 1 on each
    deviation step as one stack; with G = 0 the equilibrium steps alone and
    agent 1's draws are replayed, E deviations stacked on its M replications
    (``_stacked_steps``).  Agent 1's costs are reduced window by window
    (``_Trapezoid``).
    """
    if grid is None:
        grid = affine_deviation_grid()
    grid = tuple((dp, dc) for dp, dc in grid)
    if not grid:
        raise ModelValidationError("the deviation grid is empty")
    n, N, M = params.n, config.N, config.replications
    decoupled = float(np.max(np.abs(params.G))) == 0.0
    sim_grid = config.grid()
    K = config.steps

    devs = [_normalize_deviation(i, n, dp, dc) for i, (dp, dc) in enumerate(grid)]
    # a zero entry is the equilibrium law itself, scored by the baseline
    idx = [i for i, (dP, dc) in enumerate(devs) if dP.any() or dc.any()]
    E = len(idx)
    dP = np.reshape([devs[i][0] for i in idx], (E, n, n))
    dc = np.reshape([devs[i][1] for i in idx], (E, 1, n))

    RB, eq = _r_inv_bt(gains.params), (..., _rows(gains, sim_grid))
    dev = _rows(gains, sim_grid, dP=dP, dc=dc)
    L, law = 1, _row_law(RB, eq)
    if not decoupled and E:   # a deviation feeds back through the average:
        # population 1 + e steps agent 1 (column 0) on deviation e
        L, law = 1 + E, _row_law(RB, eq, (np.s_[1:, :, 0], dev))

    # agent 1's cost in row 0 under the equilibrium, in row 1 + e under
    # deviation e, reduced window by window
    J1 = np.empty((1 + E, M))
    replay = decoupled and E > 0
    if replay:   # what the replay reads: agent 1's draws, equilibrium rows and average
        xi1, x01 = np.empty((K, M)), np.empty((M, n))
        x1, avg = np.empty((K + 1, M, n)), np.empty((K + 1, M, n))
    for reps, x0, xi in _replication_blocks(params, config, L):
        blk = slice(reps.start, reps.stop)
        cost = _Trapezoid(sim_grid, params.rho)
        for k0, S, U in _stacked_steps(params, law, L, config, xi, x0):
            S_avg = _average(S)[..., 0, :]
            cost.add(k0, _tracking_integrand(params, S[..., 0, :], U[..., 0, :], S_avg))
            if replay:
                k = k0 + len(S)
                x1[k0:k, blk], avg[k0:k, blk] = S[:, 0, :, 0], S_avg[:, 0]
        J1[:L, blk] = cost.total
        if replay:
            xi1[:, blk], x01[blk] = xi[:, :, 0], x0[:, 0]
        del x0, xi   # one block's draws alive at a time

    if replay:
        # agent 1's M replications are independent copies: step them as the
        # M agents of one uncoupled population, stacked on the E deviations
        cost = _Trapezoid(sim_grid, params.rho)
        for k0, S, U in _stacked_steps(params, _row_law(RB, (..., dev)), E,
                                       config.with_N(M), xi1, x01):
            k = k0 + len(S)
            cost.add(k0, _tracking_integrand(params, S, U,
                                             avg[k0:k, None] + (S - x1[k0:k, None]) / N))
        J1[1:] = cost.total

    base_mean, base_se = mean_se(J1[0])
    row = dict(zip(idx, range(1, 1 + E)))
    imp_mean, imp_se = np.array([mean_se(J1[0] - J1[row.get(i, 0)]) for i in range(len(grid))]).T
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

    ``bundles`` is any iterable of bundles, each written as it arrives, so
    a generator stepping one replication at a time never holds them all.
    Any failure, the iterable's own included, leaves no partial file.
    """
    fh = open(path, "w", newline="")
    try:
        with fh:
            header = True
            for b in bundles:
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
