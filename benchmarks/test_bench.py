"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, on the default seed and one other.

    python -m pytest -q benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, *SPEC["command"][1:]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [*COMMAND, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_untraced_and_traced(workload, seed):
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        *_, record_line, result_line = proc.stdout.splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        record = json.loads(record_line)["record"]
        assert result["correct"], record["operations"]
        assert result["attempted"] >= 1 + trace and result["failed"] == 0
        spec = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == spec
        assert record["environment"]["seed"] == seed
        digests[trace] = {op["digest"] for op in record["operations"]}
    # one digest across the untraced run and both kinds of operation in the
    # traced run: tracing does not perturb the outputs
    assert len(digests[0] | digests[1]) == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
