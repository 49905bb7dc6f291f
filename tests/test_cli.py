"""End-to-end checks of the command-line front end, driven in-process through
``main(argv)`` so exit codes and artifacts are asserted directly."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from mflq import __version__, cli, sim
from mflq.game import game_law
from mflq.social import social_law
from mflq.cli import (
    _overlay_csv,
    _population_csv,
    _synthesize,
    _write_json,
    load_experiment,
    main,
    make_figure,
)
from mflq.errors import ModelValidationError
from mflq.model import TimePath
from mflq.sim import TrajectoryBundle

BENCH = {"A": 1.0, "B": 1.0, "G": -0.2, "Q": 1.0, "R": 1.0, "Gamma": -0.2,
         "eta": 5.0, "rho": 0.6, "f": 1.0, "sigma": 0.1, "x_bar0": 5.0,
         "init_cov": 0.5}
PLANAR = {"A": [[0.1, 0.0], [-1.0, 0.2]], "B": [[1.0], [1.0]],
          "G": [[-0.5, 0.0], [0.0, -0.3]], "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
          "Gamma": [[1.0, 0.0], [1.0, 1.0]], "eta": [0.0, 0.5], "rho": 0.6,
          "f": [1.0, 1.0], "sigma": [0.5, 0.5], "x_bar0": [5.0, 5.0],
          "init_cov": [[0.5, 0.0], [0.0, 0.5]]}


def _write_config(path, **sections):
    with open(path, "w") as fh:
        json.dump(sections, fh)
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_synth_social_writes_gains(tmp_path):
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        horizon="infinite")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "gains.json")
    assert payload["problem"] == "social"
    assert payload["gains"]["Pi"][0][0] == pytest.approx(1.8, abs=1e-10)
    assert payload["gains"]["s"][0] == pytest.approx(-2.625, abs=1e-10)


def test_synth_game_finite_horizon(tmp_path):
    model = dict(BENCH, G=0.0)
    cfg = _write_config(tmp_path / "exp.json", model=model, problem="game",
                        horizon={"kind": "finite", "T": 1.0})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "gains.json")
    assert payload["horizon"] == {"kind": "finite", "T": 1.0}
    # terminal data sits at the end of the stored paths
    assert payload["gains"]["P_bar"][-1] == [[0.0]]


def test_trivial_coupling_returns_plain_lq(tmp_path):
    model = dict(BENCH, G=0.0, Gamma=0.0, eta=0.0, f=0.0)
    cfg = _write_config(tmp_path / "exp.json", model=model, problem="social")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
    gains = _read_json(tmp_path / "gains.json")["gains"]
    assert abs(gains["K"][0][0]) < 1e-12
    assert abs(gains["s"][0]) < 1e-12


def test_infeasible_mean_field_exit_code(tmp_path, capsys):
    model = dict(BENCH, A=0.5, Gamma=1.0, eta=0.0)
    cfg = _write_config(tmp_path / "exp.json", model=model, problem="social")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "infeasible"
    assert "initial mean" in err["error"]
    assert not (tmp_path / "gains.json").exists() and not (tmp_path / "run.json").exists()


def test_a_non_finite_mean_path_exits_4_and_writes_no_gains(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.json", model=dict(BENCH, A=1e160), horizon="infinite")
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["category"] == "numerical" and "mean-field path is not finite" in err["error"]
    assert not (out / "gains.json").exists()


def test_game_infinite_with_coupling_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="game",
                        horizon="infinite")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["category"] == "config"


def test_malformed_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["synth", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    no_model = _write_config(tmp_path / "nm.json", problem="social")
    assert main(["synth", "--config", no_model, "--out", str(tmp_path)]) == 2
    bad_h = _write_config(tmp_path / "h.json", model=BENCH, horizon="finite")
    assert main(["synth", "--config", bad_h, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_stabilize_reports_verdicts(tmp_path, capsys):
    cfg = _write_config(tmp_path / "a.json", model=BENCH)
    assert main(["stabilize", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _read_json(tmp_path / "stabilization.json")
    assert report["verdict"] == "consistent-true"
    assert "consistent-true" in capsys.readouterr().out

    uncontrollable = _write_config(tmp_path / "b.json", model=dict(BENCH, B=0.0))
    assert main(["stabilize", "--config", uncontrollable, "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "stabilization.json")["verdict"] == "consistent-false"

    degenerate = _write_config(tmp_path / "c.json",
                               model=dict(BENCH, A=0.5, Gamma=1.0, eta=0.0))
    assert main(["stabilize", "--config", degenerate, "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "stabilization.json")["verdict"] == "premise-violated"
    capsys.readouterr()


@pytest.mark.parametrize("weight", ["init_cov", "Q"])
def test_a_weight_validate_accepts_passes_every_command(tmp_path, capsys, weight):
    # an eigenvalue of -5e-11 lies within validation's tolerance, and the
    # square roots of init_cov (simulate) and Q (stabilize) accept it too
    cfg = _write_config(tmp_path / "exp.json", model=dict(BENCH, **{weight: -5e-11}),
                        problem="social", horizon={"kind": "finite", "T": 1.0},
                        sim={"N": 3, "dt": 0.05, "T": 1.0, "replications": 1, "seed": 0})
    for command in ("synth", "simulate", "stabilize"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0, command
    capsys.readouterr()


def test_simulate_writes_trajectories_and_costs(tmp_path):
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        sim={"N": 4, "dt": 0.05, "T": 1.0, "replications": 2,
                             "seed": 3})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "trajectories.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replication", "t", "agent_id", "x0", "u0"]
    assert len(rows) == 1 + 2 * 21 * 4   # reps * (K+1) * N
    costs = _read_json(tmp_path / "costs.json")
    assert costs["replications"] == 2
    assert np.isfinite(costs["J_soc_mean"])
    assert "gap_disc_mean" in costs


@pytest.mark.parametrize("problem, horizon", [
    ("social", "infinite"),
    ("game", {"kind": "finite", "T": 2.0}),
])
def test_simulate_streams_the_files_of_the_full_list(tmp_path, problem, horizon):
    model = dict(BENCH, G=0.0) if problem == "game" else BENCH
    cfg = _write_config(tmp_path / "exp.json", model=model, problem=problem, horizon=horizon,
                        sim={"N": 4, "dt": 0.05, "T": 1.0, "replications": 3, "seed": 2})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    # reference: keep every replication's bundle, then write them all at once
    exp = load_experiment(cfg)
    gains = _synthesize(exp)
    law = (social_law if problem == "social" else game_law)(gains)
    bundles = [sim.simulate(exp.params, law, exp.sim, rep) for rep in range(3)]
    sim.export_trajectory_csv(tmp_path / "ref.csv", bundles)
    assert (out / "trajectories.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    reports = [sim.evaluate_costs(b, exp.params, gains.horizon) for b in bundles]
    x_bar = np.array([gains.x_bar_at(t) for t in exp.sim.grid()])
    gaps = [sim.meanfield_gap(b, x_bar, exp.params.rho) for b in bundles]
    J_soc = [r.J_soc for r in reports]
    _write_json(tmp_path / "ref.json", {
        "N": 4, "replications": 3, "seed": 2,
        "J_soc_mean": sim.mean_se(J_soc)[0], "J_soc_se": sim.mean_se(J_soc)[1],
        "per_agent_mean": sim.mean_se([r.per_agent for r in reports])[0],
        "gap_sup_mean": sim.mean_se([g.sup_gap for g in gaps])[0],
        "gap_disc_mean": sim.mean_se([g.disc_gap for g in gaps])[0],
    })
    assert (out / "costs.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_failed_simulate_leaves_no_trajectories(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        horizon={"kind": "finite", "T": 1.0},
                        sim={"N": 2, "dt": 0.01, "T": 3.0, "seed": 0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "trajectories.csv").exists()
    assert not (tmp_path / "costs.json").exists()


def test_simulate_seed_override_is_reproducible(tmp_path):
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        sim={"N": 3, "dt": 0.05, "T": 1.0, "seed": 0})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "7"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "7"]) == 0
    assert (out_a / "trajectories.csv").read_bytes() == \
        (out_b / "trajectories.csv").read_bytes()


def test_study_requires_sections(tmp_path, capsys):
    no_study = _write_config(tmp_path / "a.json", model=BENCH)
    assert main(["study", "--config", no_study, "--out", str(tmp_path)]) == 2
    unknown = _write_config(tmp_path / "b.json", model=BENCH,
                            study={"kind": "mystery"})
    assert main(["study", "--config", unknown, "--out", str(tmp_path)]) == 2
    short = _write_config(tmp_path / "c.json", model=BENCH,
                          sim={"N": 4, "dt": 0.05, "T": 1.0},
                          study={"kind": "convergence", "N_list": [4, 8]})
    assert main(["study", "--config", short, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("problem, horizon", [
    ("social", "infinite"), ("social", {"kind": "finite", "T": 3.0}),
    ("game", "infinite"), ("game", {"kind": "finite", "T": 3.0}),
], ids=["social-infinite", "social-finite", "game-infinite", "game-finite"])
def test_synth_with_sampled_forcing(tmp_path, problem, horizon):
    # "f": {"grid", "values"} reaches the synthesis as the same sampled path
    grid = np.linspace(0.0, 40.0, 81)
    values = (1.0 + 0.5 * np.sin(grid))[:, None]
    model = dict(BENCH, G=0.0, f={"grid": grid.tolist(), "values": values.tolist()})
    cfg = _write_config(tmp_path / "exp.json", model=model, problem=problem, horizon=horizon)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
    gains = _read_json(tmp_path / "gains.json")["gains"]
    direct = _synthesize(load_experiment(cfg))
    assert isinstance(direct.params.f, TimePath)
    offset = direct.s if problem == "social" else direct.s_hat
    assert offset.shape == (2001, 1) and np.ptp(offset) > 0.1   # a path, not a constant
    assert np.array_equal(gains["s" if problem == "social" else "s_hat"], offset)
    assert np.array_equal(gains["x_bar"], direct.x_bar)


def test_study_convergence_artifacts_and_determinism(tmp_path):
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        horizon="infinite",
                        sim={"N": 4, "dt": 0.05, "T": 1.0, "replications": 4,
                             "seed": 0},
                        study={"kind": "convergence", "N_list": [4, 8, 16]})
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["study", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["study", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "convergence.csv").read_bytes() == \
        (out2 / "convergence.csv").read_bytes()
    summary = _read_json(out1 / "convergence.json")
    assert summary["N_list"] == [4, 8, 16]
    assert summary["gap_slope"] < 0.0


def _strict_json(path):
    """``path`` parsed as JSON proper, which has no Infinity or NaN."""
    def refuse(token):
        raise ValueError(f"{path.name} holds {token}, which is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_non_finite_numbers_are_written_as_null(tmp_path, capsys):
    # one replication has no standard error
    one_rep = _write_config(tmp_path / "sim.json", model=BENCH, problem="social",
                            sim={"N": 4, "dt": 0.05, "T": 1.0, "replications": 1, "seed": 0})
    assert main(["simulate", "--config", one_rep, "--out", str(tmp_path)]) == 0
    costs = _strict_json(tmp_path / "costs.json")
    assert costs["J_soc_se"] is None and np.isfinite(costs["J_soc_mean"])
    # one distinct population size has no slope: the study refuses it
    same_N = _write_config(tmp_path / "study.json", model=BENCH, problem="social",
                           sim={"N": 4, "dt": 0.05, "T": 1.0, "replications": 2, "seed": 0},
                           study={"kind": "convergence", "N_list": [4, 4, 4]})
    assert main(["study", "--config", same_N, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "convergence.json").exists()
    _write_json(tmp_path / "x.json", {"a": [np.inf, 1.5, (-np.inf, 2)], "b": np.float64("nan")})
    assert _strict_json(tmp_path / "x.json") == {"a": [None, 1.5, [None, 2]], "b": None}
    capsys.readouterr()


def test_study_nash_requires_game_and_runs(tmp_path, capsys):
    wrong = _write_config(tmp_path / "w.json", model=dict(BENCH, G=0.0),
                          problem="social",
                          sim={"N": 3, "dt": 0.05, "T": 1.0},
                          study={"kind": "nash"})
    assert main(["study", "--config", wrong, "--out", str(tmp_path)]) == 2
    cfg = _write_config(tmp_path / "g.json", model=dict(BENCH, G=0.0),
                        problem="game", horizon="infinite",
                        sim={"N": 3, "dt": 0.05, "T": 1.0, "replications": 2,
                             "seed": 1},
                        study={"kind": "nash", "span": 0.2, "points": 3,
                               "N_list": [3]})
    assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "nash.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    metrics = [r[1] for r in rows[1:]]
    assert "baseline_J1" in metrics and "max_improvement" in metrics
    assert "max improvement" in capsys.readouterr().out


def test_study_representation_passes(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.json", model=dict(BENCH, G=0.0, f=0.0),
                        problem="game", study={"kind": "representation"})
    assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = _read_json(tmp_path / "representation.json")
    assert report["passed"] is True
    assert report["gain_label"] == "K_star"
    assert "PASS" in capsys.readouterr().out


def test_figure_population_csv_layout(tmp_path):
    path = make_figure(1, str(tmp_path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "xbar", "xavg"] + [f"agent{i}" for i in range(50)]
    assert len(rows) == 1 + 1001
    # the realized average column is the mean of the agent columns
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.max(np.abs(data[:, 2] - data[:, 3:].mean(axis=1))) < 1e-13


def test_figure_overlay_layout_and_determinism(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = make_figure(5, str(tmp_path / "a"))
    with open(p1, newline="") as fh:
        header = fh.readline().strip()
    assert header == "t,xbar_PS,xavg_PS,xbar_PG,xavg_PG"
    p2 = make_figure(5, str(tmp_path / "b"))
    with open(p1, "rb") as fa, open(p2, "rb") as fb:
        assert fa.read() == fb.read()


def _reference_row(values):
    return ",".join("{:.17g}".format(v) for v in values) + "\n"


@pytest.mark.parametrize("chunk", [None, 7])
def test_figure_writers_match_per_value_formatting(tmp_path, monkeypatch, chunk):
    if chunk is not None:   # one row per write
        monkeypatch.setattr(sim, "_CSV_CHUNK_VALUES", chunk)
    rng = np.random.default_rng(3)
    states = rng.standard_normal((4, 3, 2))
    states[1, 2, 1] = -0.0
    states[2, 0, 1] = 1e-300
    grid = np.array([0.0, 0.1, 0.2, 0.30000000000000004])
    b = TrajectoryBundle(grid=grid, states=states, controls=np.zeros((4, 3, 1)),
                         avg=states.mean(axis=1))
    x_bar = rng.standard_normal((4, 2))
    _population_csv(tmp_path / "pop.csv", b, x_bar, component=1)
    _overlay_csv(tmp_path / "overlay.csv", b, x_bar, b, 2.0 * x_bar)
    pop = "t,xbar,xavg,agent0,agent1,agent2\n" + "".join(
        _reference_row([t, x_bar[k, 1], b.avg[k, 1], *b.states[k, :, 1]])
        for k, t in enumerate(grid))
    overlay = "t,xbar_PS,xavg_PS,xbar_PG,xavg_PG\n" + "".join(
        _reference_row([t, x_bar[k, 0], b.avg[k, 0], 2.0 * x_bar[k, 0], b.avg[k, 0]])
        for k, t in enumerate(grid))
    assert (tmp_path / "pop.csv").read_text() == pop
    assert (tmp_path / "overlay.csv").read_text() == overlay


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["synth", "figures"])
def test_unusable_out_directory_exits_2(tmp_path, capsys, command, under_file):
    # --out naming an existing file, or a path beneath one, is a config error
    # reported as one JSON line, not a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if under_file else blocker
    argv = (["synth", "--config", _write_config(tmp_path / "exp.json", model=BENCH,
                                                 problem="social", horizon="infinite")]
            if command == "synth" else ["figures", "--which", "6"])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["category"] == "config"
    assert blocker.read_text() == ""


@pytest.mark.parametrize("case", ["synth-missing-config", "study-malformed",
                                  "simulate-overflowing-steps", "figures-9", "figures-1,9"])
def test_failed_command_creates_no_out_directory(tmp_path, capsys, case):
    # --out is made at a command's first write, so a command refused on its
    # config or arguments leaves no directory behind
    out = tmp_path / "new" / "a" / "b"
    if case == "synth-missing-config":
        argv = ["synth", "--config", str(tmp_path / "missing.json")]
    elif case == "study-malformed":
        argv = ["study", "--config", _write_config(
            tmp_path / "exp.json", model=BENCH, sim=_TINY_SIM,
            study={"kind": "convergence", "N_list": [2, 2, 3]})]
    elif case == "simulate-overflowing-steps":   # T / dt is inf
        argv = ["simulate", "--config", _write_config(
            tmp_path / "exp.json", model=BENCH, sim={"N": 1, "dt": 1e-300, "T": 1e10, "seed": 0})]
    else:
        argv = ["figures", "--which", case.split("-")[1]]
    assert main(argv + ["--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["category"] == "config"
    assert not (tmp_path / "new").exists()


def test_figures_subcommand_and_bad_selection(tmp_path, capsys):
    assert main(["figures", "--which", "6,7", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig6.csv").exists() and (tmp_path / "fig7.csv").exists()
    assert main(["figures", "--which", "9", "--out", str(tmp_path)]) == 2
    assert main(["figures", "--which", "nope", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("which", [True, 1.0], ids=["bool", "float"])
def test_make_figure_takes_an_integer_number(tmp_path, which):
    # range(1, 8) holds True and 1.0, which named fig files figTrue and fig1.0
    with pytest.raises(ModelValidationError, match="integer figure"):
        make_figure(which, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_console_entry_point(tmp_path):
    # one subprocess pass to cover the installed script path end to end
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social")
    proc = subprocess.run(
        [sys.executable, "-m", "mflq.cli", "synth", "--config", cfg,
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synthesized social gains" in proc.stdout


def test_threads_option_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(tmp_path / "exp.json"), "--out", str(tmp_path),
              "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_game_singular_offset_exit_3(tmp_path, capsys):
    # Gamma = I zeroes the consistency weight, so the closed loop is A and its
    # eigenvalue 0.6 sits exactly at the discount rate
    model = {"A": [[0.3, 0.0], [0.0, 0.6]], "B": np.eye(2).tolist(),
             "G": np.zeros((2, 2)).tolist(), "Q": np.eye(2).tolist(),
             "R": np.eye(2).tolist(), "Gamma": np.eye(2).tolist(),
             "eta": [0.0, 0.0], "rho": 0.6, "f": [0.0, 0.0], "sigma": [0.1, 0.1],
             "x_bar0": [1.0, 1.0], "init_cov": np.zeros((2, 2)).tolist()}
    cfg = _write_config(tmp_path / "exp.json", model=model, problem="game",
                        horizon="infinite")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "infeasible"
    assert "offset equation singular" in err["error"]


def test_simulate_past_finite_gains_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        horizon={"kind": "finite", "T": 1.0},
                        sim={"N": 2, "dt": 0.01, "T": 3.0, "seed": 0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "config"
    assert "end at t=1;" in err["error"]


@pytest.mark.parametrize("sim_patch, argv", [
    ({"N": 2.5}, []),
    ({"replications": 1.0}, []),
    ({"seed": -1}, []),
    ({}, ["--seed", "-3"]),
    ({"dt": "0.1"}, []),
    ({"T": None}, []),
    ({"N": True}, []),
    ({"seed": False}, []),
    ({"dt": True}, []),
    ({"replications": True}, []),
], ids=["N-fractional", "replications-float", "seed-negative", "seed-flag-negative",
        "dt-string", "T-null", "N-true", "seed-false", "dt-true", "replications-true"])
def test_simulate_bad_sim_values_exit_2(tmp_path, capsys, sim_patch, argv):
    sim = {"N": 2, "dt": 0.1, "T": 1.0, "seed": 0, **sim_patch}
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        horizon="infinite", sim=sim)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), *argv]) == 2
    assert json.loads(capsys.readouterr().err)["category"] == "config"


def test_synth_game_determinant_overflow_exit_4(tmp_path, capsys):
    model = dict(BENCH, G=0.0)
    cfg = _write_config(tmp_path / "exp.json", model=model, problem="game",
                        horizon={"kind": "finite", "T": 1000.0})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "numerical"
    assert "determinant sweep overflowed" in err["error"]


def test_synth_determinant_overflow_stderr_is_one_json_record(tmp_path):
    cfg = _write_config(tmp_path / "exp.json", model=dict(BENCH, G=0.0), problem="game",
                        horizon={"kind": "finite", "T": 1000.0})
    proc = subprocess.run(
        [sys.executable, "-m", "mflq.cli", "synth", "--config", cfg,
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["category"] == "numerical"


_TINY_SIM = {"N": 2, "dt": 0.1, "T": 0.2, "seed": 0}


@pytest.mark.parametrize("command, config", [
    ("synth", 5),
    ("synth", {"model": 5}),
    ("synth", {"model": dict(BENCH, A="abc")}),
    ("study", {"model": BENCH, "study": [1]}),
    ("synth", {"model": BENCH, "horizon": {"kind": "finite", "T": "abc"}}),
    ("study", {"model": dict(BENCH, G=0.0), "problem": "game", "sim": _TINY_SIM,
               "study": {"kind": "nash", "points": 0}}),
    ("study", {"model": BENCH, "sim": _TINY_SIM,
               "study": {"kind": "convergence", "N_list": ["a", 2, 3]}}),
    ("study", {"model": BENCH, "sim": _TINY_SIM,
               "study": {"kind": "convergence", "N_list": [0, 2, 3]}}),
    # three entries but one distinct size: no slope to fit
    ("study", {"model": BENCH, "sim": _TINY_SIM,
               "study": {"kind": "convergence", "N_list": [2, 2, 2]}}),
    ("study", {"model": BENCH, "sim": _TINY_SIM,
               "study": {"kind": "convergence", "N_list": [2, 3, 4], "metrics": 5}}),
    ("simulate", {"model": BENCH, "sim": dict(_TINY_SIM, init_mean="abc")}),
    # the convergence study synthesizes social gains on [0, sim.T] only
    ("study", {"model": dict(BENCH, G=0.0), "problem": "game", "sim": _TINY_SIM,
               "study": {"kind": "convergence", "N_list": [2, 3, 4]}}),
    ("study", {"model": BENCH, "horizon": {"kind": "finite", "T": 1.0}, "sim": _TINY_SIM,
               "study": {"kind": "convergence", "N_list": [2, 3, 4]}}),
    # JSON booleans and numeric strings are not numbers, and n, r are integers
    ("synth", {"model": BENCH, "horizon": {"kind": "finite", "T": True}}),
    ("study", {"model": dict(BENCH, G=0.0), "problem": "game", "sim": _TINY_SIM,
               "study": {"kind": "nash", "points": True}}),
    ("study", {"model": dict(BENCH, G=0.0), "problem": "game", "sim": _TINY_SIM,
               "study": {"kind": "nash", "span": True}}),
    ("study", {"model": BENCH, "sim": _TINY_SIM,
               "study": {"kind": "convergence", "N_list": [True, 2, 3]}}),
    ("synth", {"model": dict(BENCH, rho="0.6")}),
    ("synth", {"model": dict(BENCH, rho=True)}),
    ("synth", {"model": dict(BENCH, A=True)}),
    ("synth", {"model": dict(BENCH, eta="5")}),
    ("synth", {"model": dict(BENCH, n=1.7, r=1)}),
    # a lone n or r must agree with the shape of B, and sampled rows are n-vectors
    ("synth", {"model": dict(PLANAR, n=7)}),
    ("synth", {"model": dict(PLANAR, r=3)}),
    ("synth", {"model": dict(PLANAR, f={"grid": [0, 1], "values": [[1, 2, 3], [1, 2, 3]]})}),
    # a nash study with no sizes has nothing to report
    ("study", {"model": dict(BENCH, G=0.0), "problem": "game", "sim": _TINY_SIM,
               "study": {"kind": "nash", "N_list": []}}),
    # the representation check runs on the infinite horizon only
    ("study", {"model": dict(BENCH, G=0.0, f=0.0), "horizon": {"kind": "finite", "T": 1.0},
               "study": {"kind": "representation"}}),
    # every model number is finite, sampled grids included
    ("synth", {"model": dict(BENCH, f=float("nan"))}),
    ("simulate", {"model": dict(BENCH, sigma=float("inf")), "sim": _TINY_SIM}),
    ("simulate", {"model": dict(BENCH, init_cov=float("nan")), "sim": _TINY_SIM}),
    ("synth", {"model": dict(BENCH, Q=float("nan"))}),
    ("synth", {"model": dict(BENCH, R=float("nan"))}),
    ("simulate", {"model": dict(BENCH, f={"grid": [0, 1], "values": [[1.0], [float("nan")]]}),
                  "sim": _TINY_SIM}),
    ("synth", {"model": dict(BENCH, f={"grid": [0, float("nan")], "values": [[1.0], [2.0]]})}),
    # finite entries whose derived weights overflow: S = B R^-1 B^T, Gamma^T Q Gamma
    ("synth", {"model": dict(BENCH, B=1e200)}),
    ("stabilize", {"model": dict(BENCH, Gamma=1e160)}),
    # a deviation span whose grid width 2 |span| overflows
    ("study", {"model": dict(BENCH, G=0.0), "problem": "game", "sim": _TINY_SIM,
               "study": {"kind": "nash", "span": 1e308}}),
], ids=["top-level-number", "model-number", "model-field-string", "study-list",
        "horizon-T-string", "nash-points-zero", "N_list-string", "N_list-zero",
        "N_list-repeated", "metrics-number", "init_mean-string", "convergence-game",
        "convergence-horizon-T-not-sim-T", "horizon-T-true", "nash-points-true",
        "nash-span-true", "N_list-true", "rho-string", "rho-true", "A-true",
        "eta-string", "n-fractional", "n-lone-disagrees", "r-lone-disagrees",
        "f-sampled-width", "nash-N_list-empty", "representation-finite", "f-nan",
        "sigma-inf", "init_cov-nan", "Q-nan", "R-nan", "f-sampled-nan", "f-grid-nan",
        "B-overflows-S", "Gamma-overflows-weights", "nash-span-overflows"])
def test_malformed_config_exits_2_with_one_json_line(tmp_path, capsys, command, config):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["category"] == "config"


@pytest.mark.parametrize("command, config, key", [
    ("synth", {"model": BENCH, "horizn": "finite"}, "horizn"),
    ("synth", {"model": dict(BENCH, Gama=0.1)}, "model.Gama"),
    ("synth", {"model": BENCH, "horizon": {"kind": "finite", "T": 5, "steps": 50}},
     "horizon.steps"),
    ("synth", {"model": BENCH, "horizon": {"kind": "infinite", "T": 5}}, "horizon.T"),
    ("synth", {"model": dict(BENCH, f={"grid": [0, 1], "values": [[1.0], [2.0]], "kind": 1})},
     "model.f.kind"),
    # the initial law is model data (x_bar0, init_cov), not a sim setting
    ("simulate", {"model": BENCH, "sim": dict(_TINY_SIM, init_mean=[1.0, 2.0])},
     "sim.init_mean"),
    ("simulate", {"model": BENCH, "sim": dict(_TINY_SIM, init_cov=[[0.5, 0.0], [0.0, 0.5]])},
     "sim.init_cov"),
    ("study", {"model": dict(BENCH, G=0.0), "problem": "game", "sim": _TINY_SIM,
               "study": {"kind": "nash", "N_lsit": [2]}}, "study.N_lsit"),
    ("study", {"model": BENCH, "sim": _TINY_SIM,
               "study": {"kind": "convergence", "N_list": [2, 3, 4], "span": 0.5}}, "study.span"),
    ("study", {"model": dict(BENCH, G=0.0, f=0.0), "study": {"kind": "representation", "N": 3}},
     "study.N"),
], ids=["top-level", "model", "horizon-finite", "horizon-infinite", "sampled-path",
        "sim-init_mean", "sim-init_cov", "study-nash", "study-convergence",
        "study-representation"])
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, command, config, key):
    path = _write_config(tmp_path / "exp.json", **config)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "config"
    assert f"unknown config key {key!r}" in err["error"]
    assert not (tmp_path / "gains.json").exists()


@pytest.mark.parametrize("T", ["-5", "0", "1e400"])
def test_non_positive_or_infinite_finite_horizon_exits_2(tmp_path, capsys, T):
    # written as raw JSON text: 1e400 parses to inf
    path = tmp_path / "exp.json"
    path.write_text('{"model": %s, "problem": "game", "horizon": {"kind": "finite", "T": %s}}'
                    % (json.dumps(dict(BENCH, G=0.0)), T))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "config" and "real, finite T > 0" in err["error"]
    assert not (tmp_path / "gains.json").exists()


def test_lone_n_that_agrees_with_B_is_accepted(tmp_path):
    cfg = _write_config(tmp_path / "exp.json", model=dict(PLANAR, n=2))
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# reuse of the gains `mflq synth` wrote
# ---------------------------------------------------------------------------

_REUSE_SIM = {"N": 3, "dt": 0.05, "T": 1.0, "replications": 2, "seed": 1}
_NASH = {"kind": "nash", "span": 0.2, "points": 3, "N_list": [2, 3]}
_ARTIFACTS = ("trajectories.csv", "costs.json", "nash.csv")


def _reuse_config(tmp_path, name="exp.json", problem="game", horizon="infinite", **model):
    base = dict(BENCH, G=0.0) if problem == "game" else BENCH
    study = _NASH if problem == "game" else None
    return _write_config(tmp_path / name, model=dict(base, **model), problem=problem,
                         horizon=horizon, sim=_REUSE_SIM, study=study)


def _simulate_and_study(cfg, out):
    """``mflq simulate`` and, for a game, the nash study; the artifacts' bytes."""
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    if load_experiment(cfg).problem == "game":
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in _ARTIFACTS if (out / name).exists()}


def test_synth_stamps_run_json(tmp_path):
    cfg = _reuse_config(tmp_path)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    stamp = _read_json(tmp_path / "a" / "run.json")
    assert set(stamp) == {"command", "mflq_version", "inputs_sha256", "gains_sha256"}
    assert stamp["command"] == "synth" and stamp["mflq_version"] == __version__
    assert stamp["gains_sha256"] == cli._sha256((tmp_path / "a" / "gains.json").read_bytes())
    # the gains do not depend on the sim section or the seed, so neither does the stamp
    other = _write_config(tmp_path / "other.json", **dict(
        _read_json(cfg), sim=dict(_REUSE_SIM, seed=9, N=7)))
    assert main(["synth", "--config", other, "--out", str(tmp_path / "b"), "--seed", "4"]) == 0
    assert _read_json(tmp_path / "b" / "run.json") == stamp


@pytest.mark.parametrize("problem, horizon", [
    ("social", "infinite"), ("social", {"kind": "finite", "T": 1.5}),
    ("game", "infinite"), ("game", {"kind": "finite", "T": 1.5}),
], ids=["social-infinite", "social-finite", "game-infinite", "game-finite"])
def test_simulate_and_nash_study_reuse_synth_gains(tmp_path, monkeypatch, problem, horizon):
    cfg = _reuse_config(tmp_path, problem=problem, horizon=horizon)
    fresh = _simulate_and_study(cfg, tmp_path / "fresh")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "reused")]) == 0

    def refuse(exp):
        raise AssertionError("synthesized again")

    monkeypatch.setattr(cli, "_synthesize", refuse)
    reused = _simulate_and_study(cfg, tmp_path / "reused")
    assert len(fresh) == (3 if problem == "game" else 2)
    assert reused == fresh


def _drop_run_json(out):
    (out / "run.json").unlink()


def _edit_gains(out):
    payload = _read_json(out / "gains.json")
    payload["gains"]["P_bar"] = (2.0 * np.array(payload["gains"]["P_bar"])).tolist()
    _write_json(out / "gains.json", payload)


def _change_model(out):
    assert main(["synth", "--config", _reuse_config(out, "old.json", eta=4.0),
                 "--out", str(out)]) == 0


def _other_version(out):
    stamp = _read_json(out / "run.json")
    _write_json(out / "run.json", dict(stamp, mflq_version="0.0.0"))


def _garble_run_json(out):
    (out / "run.json").write_text("{not json")


@pytest.mark.parametrize("spoil", [_drop_run_json, _edit_gains, _change_model,
                                   _other_version, _garble_run_json],
                         ids=["no-run-json", "edited-gains", "changed-model",
                              "other-version", "unparsable-run-json"])
def test_a_stale_stamp_falls_back_to_synthesis(tmp_path, monkeypatch, spoil):
    cfg = _reuse_config(tmp_path)
    fresh = _simulate_and_study(cfg, tmp_path / "fresh")
    out = tmp_path / "stale"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    spoil(out)
    calls = []
    monkeypatch.setattr(cli, "_synthesize", lambda exp: calls.append(exp) or _synthesize(exp))
    assert _simulate_and_study(cfg, out) == fresh
    assert len(calls) == 2   # simulate and the nash study each synthesized
