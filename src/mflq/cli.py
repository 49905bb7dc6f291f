"""Command-line front end.

Subcommands: ``synth`` (gains to JSON), ``stabilize`` (solvability report),
``simulate`` (trajectory CSV + cost summary), ``study`` (convergence / nash /
representation), and ``figures`` (canned desk-scale reproductions).  Exit
codes: 0 ok, 2 config error, 3 infeasibility, 4 numerical failure.

Experiment configs are JSON::

    {
      "model":   { ...ModelParams fields... },
      "problem": "social" | "game",
      "horizon": "infinite" | {"kind": "finite", "T": 5.0},
      "sim":     {"N": 50, "dt": 0.01, "T": 10.0, "replications": 1, "seed": 0},
      "study":   {"kind": "convergence", "N_list": [8, 32, 128]}
               | {"kind": "nash", "span": 0.5, "points": 5, "N_list": [50]}
               | {"kind": "representation"}
    }
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import MFLQError, ModelValidationError
from .model import (
    ModelParams,
    _as_int,
    _as_real,
    _jsonify,
    _known_keys,
    params_from_dict,
    params_to_dict,
)
from .stability import analyze
from .social import SocialGains, social_law, synth_social_finite, synth_social_infinite
from .game import (
    GameGains,
    game_law,
    representation_check_game,
    representation_check_social,
    synth_game_finite,
    synth_game_infinite,
)
from .sim import (
    _NUM,
    SimConfig,
    _write_rows,
    affine_deviation_grid,
    convergence_study,
    evaluate_costs,
    export_study_csv,
    export_trajectory_csv,
    meanfield_gap,
    mean_se,
    nash_deviation_search,
    simulate,
)

__all__ = ["main"]

_EXIT = {"config": 2, "infeasible": 3, "numerical": 4}
_FIGURE_SEED = 20


def _null_non_finite(obj) -> None:
    """Set each non-finite number in the lists and dicts of ``obj`` to None,
    in place (JSON has no Infinity or NaN); ``_jsonify`` builds them afresh,
    so a copy would only cost memory."""
    for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(v, (dict, list)):
            _null_non_finite(v)
        elif isinstance(v, float) and not math.isfinite(v):
            obj[k] = None


def _output(out: str, name: str) -> str:
    """The path of output ``name`` in the ``--out`` directory ``out``, which
    is created here, at a command's first write, so a command that fails on
    its config or arguments creates nothing.  A path that cannot be a
    directory (an existing file, or a path under one) is a config error."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ModelValidationError(f"cannot use --out {out} as an output directory: {e}") from e
    return os.path.join(out, name)


def _write_json(path, payload):
    payload = _jsonify(payload)
    _null_non_finite(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Experiment:
    params: ModelParams
    problem: str
    horizon: dict
    sim: SimConfig | None
    study: dict | None


def _normalize_horizon(h) -> dict:
    if h is None or h == "infinite":
        return {"kind": "infinite"}
    if h == "finite":
        raise ModelValidationError("finite horizon needs a T value")
    if isinstance(h, dict) and h.get("kind") in ("finite", "infinite"):
        _known_keys("horizon", h, ("kind", "T") if h["kind"] == "finite" else ("kind",))
        if h["kind"] == "finite":
            if "T" not in h:
                raise ModelValidationError("finite horizon needs a T value")
            _as_real("T", h["T"], True)
        return h
    raise ModelValidationError(f"unrecognized horizon setting: {h!r}")


def load_experiment(path: str) -> Experiment:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ModelValidationError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ModelValidationError(f"config {path} is not valid JSON: {e}") from e
    _known_keys("", raw, ("model", "problem", "horizon", "sim", "study"))
    if "model" not in raw:
        raise ModelValidationError("config is missing the 'model' section")
    params = params_from_dict(raw["model"])
    problem = raw.get("problem", "social")
    if problem not in ("social", "game"):
        raise ModelValidationError("problem must be 'social' or 'game'")
    horizon = _normalize_horizon(raw.get("horizon"))
    sim = None
    if raw.get("sim") is not None:
        fields = [f.name for f in dataclasses.fields(SimConfig)]
        try:
            sim = SimConfig(**_known_keys("sim", raw["sim"], fields))
        except TypeError as e:
            raise ModelValidationError(f"bad sim section: {e}") from e
    if raw.get("study") is not None and not isinstance(raw["study"], dict):
        raise ModelValidationError("the 'study' section must be a JSON object")
    return Experiment(params=params, problem=problem, horizon=horizon,
                      sim=sim, study=raw.get("study"))


def _synthesize(exp: Experiment):
    if exp.problem == "social":
        if exp.horizon["kind"] == "finite":
            return synth_social_finite(exp.params, float(exp.horizon["T"]))
        return synth_social_infinite(exp.params)
    if exp.horizon["kind"] == "finite":
        return synth_game_finite(exp.params, float(exp.horizon["T"]))
    return synth_game_infinite(exp.params)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _inputs_sha256(exp: Experiment) -> str:
    """sha256 of all the gains depend on: the model, the problem and the
    horizon (not the sim section or the seed)."""
    return _sha256(json.dumps({"model": params_to_dict(exp.params), "problem": exp.problem,
                               "horizon": exp.horizon}, sort_keys=True).encode())


def _gains(exp: Experiment, out: str):
    """The gains ``mflq synth`` wrote to ``out/gains.json`` when the
    ``out/run.json`` beside it shows they came from this config and this
    mflq and were not edited since; otherwise synthesized afresh."""
    try:
        with open(os.path.join(out, "run.json")) as fh:
            stamp = json.load(fh)
        with open(os.path.join(out, "gains.json"), "rb") as fh:
            raw = fh.read()
        if (stamp["mflq_version"] == __version__
                and stamp["inputs_sha256"] == _inputs_sha256(exp)
                and stamp["gains_sha256"] == _sha256(raw)):
            cls = SocialGains if exp.problem == "social" else GameGains
            return cls.from_dict(json.loads(raw)["gains"], exp.params)
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        pass   # no stamp, or a stale or unreadable one
    return _synthesize(exp)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    exp = load_experiment(args.config)
    gains = _synthesize(exp)
    path = _output(args.out, "gains.json")
    _write_json(path, {"problem": exp.problem, "horizon": exp.horizon,
                       "gains": gains.to_dict()})
    with open(path, "rb") as fh:
        gains_sha256 = _sha256(fh.read())
    _write_json(_output(args.out, "run.json"), {
        "command": "synth", "mflq_version": __version__,
        "inputs_sha256": _inputs_sha256(exp), "gains_sha256": gains_sha256})
    print(f"synthesized {exp.problem} gains ({gains.horizon} horizon) -> {path}")
    return 0


def cmd_stabilize(args) -> int:
    exp = load_experiment(args.config)
    report = analyze(exp.params)
    path = _output(args.out, "stabilization.json")
    _write_json(path, report.to_dict())
    print(report.render())
    print(f"report -> {path}")
    return 0


def cmd_simulate(args) -> int:
    exp = load_experiment(args.config)
    if exp.sim is None:
        raise ModelValidationError("config is missing the 'sim' section")
    cfg = _override_seed(exp.sim, args.seed)
    gains = _gains(exp, args.out)
    law = (social_law if exp.problem == "social" else game_law)(gains)
    x_bar = gains.x_bar_at(cfg.grid())
    reports, gaps = [], []

    def replications():
        for rep in range(cfg.replications):
            b = simulate(exp.params, law, cfg, rep)
            reports.append(evaluate_costs(b, exp.params, gains.horizon))
            gaps.append(meanfield_gap(b, x_bar, exp.params.rho))
            yield b

    traj_path = _output(args.out, "trajectories.csv")
    export_trajectory_csv(traj_path, replications())
    J_soc = [r.J_soc for r in reports]
    summary = {
        "N": cfg.N, "replications": cfg.replications, "seed": cfg.seed,
        "J_soc_mean": mean_se(J_soc)[0], "J_soc_se": mean_se(J_soc)[1],
        "per_agent_mean": mean_se([r.per_agent for r in reports])[0],
        "gap_sup_mean": mean_se([g.sup_gap for g in gaps])[0],
        "gap_disc_mean": mean_se([g.disc_gap for g in gaps])[0],
    }
    cost_path = _output(args.out, "costs.json")
    _write_json(cost_path, summary)
    print(f"trajectories -> {traj_path}\ncosts -> {cost_path}")
    return 0


def cmd_study(args) -> int:
    exp = load_experiment(args.config)
    if exp.study is None:
        raise ModelValidationError("config is missing the 'study' section")
    kind = exp.study.get("kind")
    if kind == "convergence":
        _known_keys("study", exp.study, ("kind", "N_list", "metrics"))
        if exp.sim is None:
            raise ModelValidationError("convergence study needs a 'sim' section")
        cfg = _override_seed(exp.sim, args.seed)
        if exp.problem != "social":
            raise ModelValidationError("convergence study requires problem = 'social'")
        if exp.horizon["kind"] == "finite" and exp.horizon["T"] != cfg.T:
            raise ModelValidationError("convergence study runs on [0, sim.T]; a finite "
                                       "horizon.T must equal sim.T")
        N_list = exp.study.get("N_list")
        if not (isinstance(N_list, list)
                and len({_as_int("population size N", N, 1) for N in N_list}) >= 3):
            raise ModelValidationError("convergence study needs N_list with >= 3 distinct sizes")
        study = convergence_study(exp.params, N_list, cfg, horizon=exp.horizon["kind"],
                                  metrics=exp.study.get("metrics", ["gap", "social"]))
        path = _output(args.out, "convergence.csv")
        export_study_csv(path, study.rows())
        _write_json(_output(args.out, "convergence.json"), {
            "N_list": list(study.N_list), "gap_slope": study.gap_slope,
            "gap_slope_se": study.gap_slope_se,
            "dJ_scaled": study.dJ_scaled, "flags": list(study.flags),
        })
        for flag in study.flags:
            print(f"warning: {flag}")
        print(f"study -> {path}")
        return 0
    if kind == "nash":
        _known_keys("study", exp.study, ("kind", "span", "points", "N_list"))
        if exp.problem != "game":
            raise ModelValidationError("nash study requires problem = 'game'")
        if exp.sim is None:
            raise ModelValidationError("nash study needs a 'sim' section")
        cfg = _override_seed(exp.sim, args.seed)
        N_list = exp.study.get("N_list", [cfg.N])
        if not (isinstance(N_list, list) and N_list):
            raise ModelValidationError("nash study needs a non-empty N_list")
        for N in N_list:
            _as_int("population size N", N, 1)
        grid = affine_deviation_grid(span=exp.study.get("span", 0.5),
                                     points=exp.study.get("points", 5))
        gains = _gains(exp, args.out)
        rows = []
        for N in N_list:
            rep = nash_deviation_search(exp.params, gains, cfg.with_N(N), grid=grid)
            rows.extend(rep.rows())
            print(f"N={N}: max improvement {rep.max_improvement:.6g} "
                  f"(se {rep.max_se:.2g}) at {rep.max_entry}")
        path = _output(args.out, "nash.csv")
        export_study_csv(path, rows)
        print(f"study -> {path}")
        return 0
    if kind == "representation":
        _known_keys("study", exp.study, ("kind",))
        if exp.horizon["kind"] == "finite":
            raise ModelValidationError("representation study runs on the infinite horizon only")
        check = (representation_check_social if exp.problem == "social"
                 else representation_check_game)
        report = check(exp.params)
        path = _output(args.out, "representation.json")
        _write_json(path, report.to_dict())
        print(f"{exp.problem} representation check: "
              f"{'PASS' if report.passed else 'FAIL'} -> {path}")
        return 0 if report.passed else 4
    raise ModelValidationError(f"unrecognized study kind: {kind!r}")


# ---------------------------------------------------------------------------
# canned figures
# ---------------------------------------------------------------------------

def _scalar_model(A: float, G: float) -> ModelParams:
    return ModelParams(A=A, B=1.0, G=G, Q=1.0, R=1.0, Gamma=-0.2, eta=5.0,
                       rho=0.6, f=1.0, sigma=0.1, x_bar0=5.0, init_cov=0.5)


def _planar_model() -> ModelParams:
    return ModelParams(
        A=[[0.1, 0.0], [-1.0, 0.2]],
        B=[[1.0], [1.0]],
        G=[[-0.5, 0.0], [0.0, -0.3]],
        Q=np.eye(2), R=[[1.0]],
        Gamma=[[1.0, 0.0], [1.0, 1.0]],
        eta=[0.0, 0.5], rho=0.6, f=[1.0, 1.0], sigma=[0.5, 0.5],
        x_bar0=[5.0, 5.0], init_cov=0.5 * np.eye(2),
    )


def _fig_sim(params: ModelParams, problem: str, seed: int):
    """One replication under the infinite-horizon law, and the mean-field
    path it tracks on the same grid."""
    gains = (synth_social_infinite(params) if problem == "social"
             else synth_game_infinite(params))
    cfg = SimConfig(N=50, dt=0.01, T=10.0, replications=1, seed=seed)
    law = (social_law if problem == "social" else game_law)(gains)
    return simulate(params, law, cfg, rep=0), gains.x_bar_at(cfg.grid())


def _population_csv(path, bundle, x_bar, component: int = 0):
    N = bundle.N
    table = np.column_stack([bundle.grid, x_bar[:, component],
                             bundle.avg[:, component], bundle.states[:, :, component]])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", "xbar", "xavg"] + [f"agent{i}" for i in range(N)]) + "\n")
        _write_rows(fh, ",".join([_NUM] * (N + 3)) + "\n", table)


def _overlay_csv(path, b_soc, x_soc, b_game, x_game):
    table = np.column_stack([b_soc.grid, x_soc[:, 0], b_soc.avg[:, 0],
                             x_game[:, 0], b_game.avg[:, 0]])
    with open(path, "w", newline="") as fh:
        fh.write("t,xbar_PS,xavg_PS,xbar_PG,xavg_PG\n")
        _write_rows(fh, ",".join([_NUM] * 5) + "\n", table)


def _check_figure(which: int) -> None:
    if _as_int("figure", which, 1) not in range(1, 8):
        raise ModelValidationError(f"no such figure: {which} (valid: 1..7)")


def make_figure(which: int, out: str, seed: int | None = None) -> str:
    """Write the CSV behind one canned figure and return its path."""
    seed = _FIGURE_SEED if seed is None else seed
    _check_figure(which)
    path = _output(out, f"fig{which}.csv")
    if which == 1:
        _population_csv(path, *_fig_sim(_scalar_model(0.2, -0.2), "social", seed))
    elif which == 2:
        _population_csv(path, *_fig_sim(_scalar_model(1.0, -0.2), "social", seed))
    elif which == 3:
        _population_csv(path, *_fig_sim(_scalar_model(0.2, 0.0), "game", seed))
    elif which == 4:
        _population_csv(path, *_fig_sim(_scalar_model(1.0, 0.0), "game", seed))
    elif which == 5:
        _overlay_csv(path, *_fig_sim(_scalar_model(0.2, -0.2), "social", seed),
                     *_fig_sim(_scalar_model(0.2, 0.0), "game", seed))
    else:
        _population_csv(path, *_fig_sim(_planar_model(), "social", seed),
                        component=which - 6)
    return path


def cmd_figures(args) -> int:
    if args.which == "all":
        which = list(range(1, 8))
    else:
        try:
            which = [int(w) for w in str(args.which).split(",")]
        except ValueError:
            raise ModelValidationError(f"bad --which value: {args.which!r}")
    for w in which:   # check every number before the first figure is written
        _check_figure(w)
    for w in which:
        print(f"fig{w} -> {make_figure(w, args.out, args.seed)}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _override_seed(cfg: SimConfig, seed: int | None) -> SimConfig:
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mflq",
        description="Synthesis, stability analysis, and Monte Carlo studies "
                    "for mean-field linear-quadratic control.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_config=True):
        if needs_config:
            sp.add_argument("--config", required=True, help="experiment JSON")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the simulation seed")

    common(sub.add_parser("synth", help="synthesize gains to JSON"))
    common(sub.add_parser("stabilize", help="stabilization / solvability report"))
    common(sub.add_parser("simulate", help="run the population and export CSVs"))
    common(sub.add_parser("study", help="convergence / nash / representation study"))
    figs = sub.add_parser("figures", help="regenerate canned figure CSVs")
    figs.add_argument("--which", default="all", help="figure number, list, or 'all'")
    common(figs, needs_config=False)
    return p


_COMMANDS = {
    "synth": cmd_synth,
    "stabilize": cmd_stabilize,
    "simulate": cmd_simulate,
    "study": cmd_study,
    "figures": cmd_figures,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MFLQError as e:
        print(json.dumps({"error": str(e), "category": e.category}),
              file=sys.stderr)
        return _EXIT.get(e.category, 4)


if __name__ == "__main__":
    sys.exit(main())
