"""End-to-end checks of the command-line front end, driven in-process through
``main(argv)`` so exit codes and artifacts are asserted directly."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mflq.cli import main, make_figure

BENCH = {"A": 1.0, "B": 1.0, "G": -0.2, "Q": 1.0, "R": 1.0, "Gamma": -0.2,
         "eta": 5.0, "rho": 0.6, "f": 1.0, "sigma": 0.1, "x_bar0": 5.0,
         "init_cov": 0.5}


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


def test_study_convergence_artifacts_and_thread_invariance(tmp_path):
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        horizon="infinite",
                        sim={"N": 4, "dt": 0.05, "T": 1.0, "replications": 4,
                             "seed": 0},
                        study={"kind": "convergence", "N_list": [4, 8, 16]})
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["study", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["study", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "convergence.csv").read_bytes() == \
        (out2 / "convergence.csv").read_bytes()
    summary = _read_json(out1 / "convergence.json")
    assert summary["N_list"] == [4, 8, 16]
    assert summary["gap_slope"] < 0.0


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


def test_figures_subcommand_and_bad_selection(tmp_path, capsys):
    assert main(["figures", "--which", "6,7", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig6.csv").exists() and (tmp_path / "fig7.csv").exists()
    assert main(["figures", "--which", "9", "--out", str(tmp_path)]) == 2
    assert main(["figures", "--which", "nope", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    # one subprocess pass to cover the installed script path end to end
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social")
    proc = subprocess.run(
        [sys.executable, "-m", "mflq.cli", "synth", "--config", cfg,
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synthesized social gains" in proc.stdout


def test_threads_option_leaves_environment_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv("MFLQ_THREADS", raising=False)
    before = dict(os.environ)
    cfg = _write_config(tmp_path / "exp.json", model=BENCH, problem="social",
                        horizon="infinite",
                        sim={"N": 4, "dt": 0.05, "T": 1.0, "replications": 2,
                             "seed": 0},
                        study={"kind": "convergence", "N_list": [4, 8, 16]})
    assert main(["study", "--config", cfg, "--out", str(tmp_path), "--threads", "2"]) == 0
    assert dict(os.environ) == before


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
