"""Span tracer that times mflq's layers from outside the package.

Every module of the package calls the others through its module globals
(``from .riccati import integrate_backward`` binds a global name in
``mflq.social``).  ``Tracer.install`` replaces each such binding of a traced
function with a wrapper that records a span, and ``Tracer.restore`` puts the
originals back.  Spans are kept in memory as parallel lists; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

import mflq
from mflq import cli, game, model, riccati, sim, social, stability

MODULES = (mflq, riccati, social, game, sim, cli, stability, model)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_det_sweep(tracer, fn, args, kwargs, result):
    # finite_horizon_solvable's own step rule: ceil(T / resolution), clipped to
    # [10, 200000]; it stops early only when the determinant crosses zero.
    a = _bound(fn, args, kwargs)
    steps = min(max(int(np.ceil(a["T"] / a["resolution"])), 10), 200_000)
    tracer.counts["riccati.det_sweep.steps"] += steps


def _count_rk4(tracer, fn, args, kwargs, result):
    tracer.counts["riccati.backward_rk4.steps"] += len(_bound(fn, args, kwargs)["grid"]) - 1


def _count_draw(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cfg = a["config"]
    tracer.counts["sim.draw.streams"] += cfg.N
    key = (cfg.seed, a["rep"])
    tracer.distinct[key] = max(tracer.distinct.get(key, 0), cfg.N)


def _count_step(tracer, fn, args, kwargs, result):
    iters, N = result.states.shape[0], result.states.shape[1]
    tracer.counts["sim.step.loop_iters"] += iters
    tracer.counts["sim.step.agent_steps"] += iters * N
    tracer.counts["sim.trajectory_bytes"] += result.states.nbytes + result.controls.nbytes


def _count_csv(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    bundles = a["bundles"]
    if isinstance(bundles, sim.TrajectoryBundle):
        bundles = [bundles]
    tracer.counts["sim.csv.rows"] += sum(b.grid.size * b.N for b in bundles)
    tracer.counts["sim.csv.bytes"] += os.path.getsize(a["path"])


def _cli_span(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}_cmd"


# (defining module, function, span name or argv -> span name, counter)
TRACED = (
    (riccati, "finite_horizon_solvable", "riccati.det_sweep", _count_det_sweep),
    (riccati, "integrate_backward", "riccati.backward_rk4", _count_rk4),
    (riccati, "solve_are_stable_subspace", "riccati.are", None),
    (social, "synth_social_finite", "social.synth", None),
    (social, "synth_social_infinite", "social.synth", None),
    (game, "synth_game_finite", "game.synth", None),
    (game, "synth_game_infinite", "game.synth", None),
    (sim, "draw_agents", "sim.draw", _count_draw),
    (sim, "simulate", "sim.step", _count_step),
    (sim, "nash_deviation_search", "sim.nash_grid", None),
    (sim, "evaluate_costs", "sim.quadrature", None),
    (sim, "meanfield_gap", "sim.quadrature", None),
    (sim, "export_trajectory_csv", "sim.csv", _count_csv),
    (cli, "main", _cli_span, None),
)

# Law factories: the closures they return are what the stepper calls per step.
LAWS = (
    (social, "social_law", "social.law"),
    (social, "centralized_law", "social.law"),
    (game, "game_law", "game.law"),
)

# metric -> the span whose summed self time it reports; with cli.self_s and
# other.s these partition the traced wall time.
SELF_TIMES = {
    "riccati.det_sweep.s": "riccati.det_sweep",
    "riccati.backward_rk4.s": "riccati.backward_rk4",
    "riccati.are.s": "riccati.are",
    "social.synth.self_s": "social.synth",
    "game.synth.self_s": "game.synth",
    "social.law.s": "social.law",
    "game.law.s": "game.law",
    "sim.draw.s": "sim.draw",
    "sim.step.self_s": "sim.step",
    "sim.nash_grid.self_s": "sim.nash_grid",
    "sim.quadrature.s": "sim.quadrature",
    "sim.csv.s": "sim.csv",
}
CLI_COMMANDS = ("cli.synth_cmd", "cli.simulate_cmd")
LAYERS = ("riccati", "social", "game", "sim", "cli")


class Tracer:
    """In-memory spans plus counters for one traced operation."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts = defaultdict(float)
        self.distinct: dict = {}            # (seed, rep) -> largest N drawn
        self._stack: list[int] = []
        self._patched: list[tuple] = []     # (module, attribute, original)
        self._wrappers: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name.split(".")[0] + ".raised"] += 1
                raise
            finally:
                tracer._close(i)
            if count is not None:
                count(tracer, fn, args, kwargs, result)
            return result

        return traced

    def _wrap_law_factory(self, factory, span):
        tracer = self

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            law = factory(*args, **kwargs)

            def traced_law(t, X):
                i = tracer._open(span)
                try:
                    return law(t, X)
                except Exception:
                    tracer.counts[span.split(".")[0] + ".raised"] += 1
                    raise
                finally:
                    tracer._close(i)

            traced_law.x_bar_at = law.x_bar_at
            return traced_law

        return traced_factory

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        self._wrappers.append(wrapper)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        for mod, attr, span, count in TRACED:
            fn = getattr(mod, attr)
            self._replace_everywhere(fn, self._wrap(fn, span, count))
        for mod, attr, span in LAWS:
            fn = getattr(mod, attr)
            self._replace_everywhere(fn, self._wrap_law_factory(fn, span))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        clean = all(getattr(mod, attr) is original for mod, attr, original in self._patched)
        clean = clean and not any(v is w for mod in MODULES for v in vars(mod).values()
                                  for w in self._wrappers)
        self._patched.clear()
        return clean

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer metrics of one traced operation that took ``wall`` s."""
        names = np.array(self.names, dtype=object)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child

        def self_of(name):
            return float(self_time[names == name].sum())

        def calls(name):
            return float(np.count_nonzero(names == name))

        c = self.counts
        m = {metric: self_of(span) for metric, span in SELF_TIMES.items()}
        m["cli.self_s"] = sum(self_of(span) for span in CLI_COMMANDS)
        for span in CLI_COMMANDS:
            m[span + ".s"] = float(dur[names == span].sum())
        m["other.s"] = wall - float(dur[~nested].sum())
        streams = c["sim.draw.streams"]
        m.update({
            "riccati.det_sweep.steps": c["riccati.det_sweep.steps"],
            "riccati.backward_rk4.steps": c["riccati.backward_rk4.steps"],
            "social.law.calls": calls("social.law"),
            "game.law.calls": calls("game.law"),
            "sim.draw.streams": streams,
            "sim.draw.unique_ratio": sum(self.distinct.values()) / streams if streams else 0.0,
            "sim.step.loop_iters": c["sim.step.loop_iters"],
            "sim.step.agent_steps": c["sim.step.agent_steps"],
            "sim.step.ns_per_agent_step": (1e9 * m["sim.step.self_s"] / c["sim.step.agent_steps"]
                                           if c["sim.step.agent_steps"] else 0.0),
            "sim.quadrature.calls": calls("sim.quadrature"),
            "sim.trajectory_mb": c["sim.trajectory_bytes"] / 1e6,
            "sim.csv.rows": c["sim.csv.rows"],
            "sim.csv.mb": c["sim.csv.bytes"] / 1e6,
        })
        for layer in LAYERS:
            m[layer + ".raised"] = c[layer + ".raised"]
        return m

    def write(self, path) -> None:
        """Dump the spans as [name, parent, start, end] rows."""
        rows = [[n, p, s, e] for n, p, s, e in
                zip(self.names, self.parents, self.starts, self.ends)]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


def partition_error(metrics: dict, wall: float) -> float:
    """|sum of self times + cli.self_s + other.s - wall|; zero up to rounding
    unless a span is left open or has no metric."""
    parts = [*SELF_TIMES, "cli.self_s", "other.s"]
    return abs(sum(metrics[p] for p in parts) - wall)
