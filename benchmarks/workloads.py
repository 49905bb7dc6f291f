"""The benchmark's workloads: inputs built from a seed, the timed operation,
its output check and the digest of its outputs.

Each workload calls the package through module attributes
(``sim.convergence_study``, ``cli.main``) at call time, so the tracer's
wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from mflq import ModelParams, SimConfig, cli, game, sim

# replication counts and horizons per scale; "tiny" is the smoke-test and
# warm-up size
SIZES = {
    "mc_social_finite": {
        "full": {"replications": 30, "T": 5.0},
        "tiny": {"replications": 4, "T": 1.0},
    },
    "nash_game_infinite": {
        "full": {"replications": 12, "T": 5.0},
        "tiny": {"replications": 2, "T": 0.5},
    },
    "cli_export": {
        "full": {"replications": 5, "horizon_T": 200.0, "N": 50, "T": 10.0},
        "tiny": {"replications": 2, "horizon_T": 5.0, "N": 5, "T": 1.0},
    },
}

DT = 0.01
MC_N_LIST = (8, 32, 128)
NASH_N_LIST = (10, 50, 200)


def scalar_model(G: float) -> dict:
    """The scalar family of the package's tests: A = B = Q = R = 1."""
    return dict(A=1.0, B=1.0, G=G, Q=1.0, R=1.0, Gamma=-0.2, eta=5.0,
                rho=0.6, f=1.0, sigma=0.1, x_bar0=5.0, init_cov=0.5)


def _sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class McSocialFinite:
    """Convergence study of the cooperative model on a finite horizon."""

    name = "mc_social_finite"

    def __init__(self, seed: int, size: dict, workdir: str):
        self.params = ModelParams(**scalar_model(G=-0.2))
        self.config = SimConfig(N=MC_N_LIST[0], dt=DT, T=size["T"],
                                replications=size["replications"], seed=seed)

    def run(self):
        return sim.convergence_study(self.params, MC_N_LIST, self.config,
                                     horizon="finite", metrics=("gap", "social"))

    @staticmethod
    def _stats(st):
        return (st.gap_sup_mean, st.gap_sup_se, st.gap_disc_mean, st.gap_disc_se,
                [st.gap_slope, st.gap_slope_se], st.dJ_mean, st.dJ_se, st.dJ_scaled)

    def digest(self, st) -> str:
        return _sha256_arrays(*self._stats(st))

    def check(self, st) -> list[str]:
        bad = []
        if not all(np.isfinite(a).all() for a in self._stats(st)):
            bad.append("non-finite statistic")
        if not np.all(st.gap_disc_mean > 0):
            bad.append(f"gap_disc_mean not positive: {st.gap_disc_mean}")
        if not -1.5 < st.gap_slope < -0.5:
            bad.append(f"gap_slope {st.gap_slope} outside (-1.5, -0.5)")
        if np.any(st.dJ_mean < -3.0 * st.dJ_se):
            bad.append(f"dJ_mean {st.dJ_mean} below -3 se {st.dJ_se}")
        return bad

    def discard(self, st) -> None:
        pass


class NashGameInfinite:
    """Infinite-horizon game gains, then the unilateral deviation search."""

    name = "nash_game_infinite"

    def __init__(self, seed: int, size: dict, workdir: str):
        self.params = ModelParams(**scalar_model(G=0.0))
        self.config = SimConfig(N=NASH_N_LIST[0], dt=DT, T=size["T"],
                                replications=size["replications"], seed=seed)

    def run(self):
        gains = game.synth_game_infinite(self.params)
        return [sim.nash_deviation_search(self.params, gains, self.config.with_N(N))
                for N in NASH_N_LIST]

    @staticmethod
    def _stats(rep):
        return (rep.improvement_mean, rep.improvement_se,
                [rep.max_improvement, rep.max_se, rep.baseline_J1, rep.baseline_J1_se])

    def digest(self, reports) -> str:
        return _sha256_arrays(*(a for rep in reports for a in self._stats(rep)))

    def check(self, reports) -> list[str]:
        bad = []
        for rep in reports:
            if not all(np.isfinite(a).all() for a in self._stats(rep)):
                bad.append(f"N={rep.N}: non-finite statistic")
            zero = rep.grid.index((0.0, 0.0))
            if rep.improvement_mean[zero] != 0.0:
                bad.append(f"N={rep.N}: zero deviation scores {rep.improvement_mean[zero]}")
            if not rep.max_improvement >= 0.0:
                bad.append(f"N={rep.N}: max_improvement {rep.max_improvement} < 0")
        return bad

    def discard(self, reports) -> None:
        pass


class CliExport:
    """``mflq synth`` then ``mflq simulate`` on a finite-horizon game config."""

    name = "cli_export"
    HEADER = "replication,t,agent_id,x0,u0"

    def __init__(self, seed: int, size: dict, workdir: str):
        self.size = size
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "config.json")
        config = {
            "model": scalar_model(G=0.0),
            "problem": "game",
            "horizon": {"kind": "finite", "T": size["horizon_T"]},
            "sim": {"N": size["N"], "dt": DT, "T": size["T"],
                    "replications": size["replications"], "seed": seed},
        }
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        self._runs = 0

    def run(self):
        self._runs += 1
        out = os.path.join(self.workdir, f"out{self._runs}")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (cli.main(["synth", "--config", self.config_path, "--out", out]),
                     cli.main(["simulate", "--config", self.config_path, "--out", out]))
        return codes, out

    def digest(self, result) -> str:
        _, out = result
        h = hashlib.sha256()
        for name in ("gains.json", "costs.json", "trajectories.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        return h.hexdigest()

    def check(self, result) -> list[str]:
        codes, out = result
        if codes != (0, 0):
            return [f"exit codes {codes}"]
        bad = self._check_csv(os.path.join(out, "trajectories.csv"))
        with open(os.path.join(out, "costs.json")) as fh:
            costs = json.load(fh)
        if not all(math.isfinite(v) for v in costs.values()):
            bad.append(f"non-finite cost summary: {costs}")
        with open(os.path.join(out, "gains.json")) as fh:
            gains = json.load(fh)["gains"]
        points = 2001   # the synthesis default of 2000 steps
        for key in ("P", "P_bar", "s_hat"):
            if len(gains.get(key, ())) != points:
                bad.append(f"gains.json {key} is not on the {points}-point grid")
        if not gains["meta"]["solvability_min_det"] > 0:
            bad.append("solvability_min_det not positive")
        return bad

    def _check_csv(self, path) -> list[str]:
        s = self.size
        want = s["replications"] * (round(s["T"] / DT) + 1) * s["N"]
        rows = 0
        with open(path) as fh:
            if fh.readline().rstrip("\r\n") != self.HEADER:
                return ["bad trajectories.csv header"]
            for line in fh:
                rows += 1
                rep, t, agent, x, u = line.rstrip("\r\n").split(",")
                if (str(int(rep)) != rep or str(int(agent)) != agent
                        or any(f"{float(v):.17g}" != v for v in (t, x, u))):
                    return [f"trajectories.csv row {rows} does not round-trip: {line!r}"]
        if rows != want:
            return [f"trajectories.csv has {rows} rows, expected {want}"]
        return []

    def discard(self, result) -> None:
        shutil.rmtree(result[1], ignore_errors=True)


WORKLOADS = {w.name: w for w in (McSocialFinite, NashGameInfinite, CliExport)}
