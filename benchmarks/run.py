"""mflq benchmark: one workload per process, untraced or traced.

    python3 benchmarks/run.py --workload mc_social_finite --seed 0 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The timed operation repeats until ``--seconds`` would be exceeded.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced operations alternate and it carries the
per-layer metrics.  The line before it is the run record (environment,
seed, per-operation times and output digests).  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = {"full": 5, "tiny": 1}
WORKLOAD_NAMES = ("mc_social_finite", "nash_game_infinite", "cli_export")


def _parse(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs the smoke-test sizes")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    """Import mflq from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mflq
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import mflq from {src}: {exc}")
    if Path(mflq.__file__).resolve().parent.parent != src:
        raise SystemExit(f"benchmark: mflq was imported from {mflq.__file__}, not {src}")
    return mflq


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy
    import mflq

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mflq": mflq.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in (*THREAD_VARS, "MFLQ_THREADS")},
        "seed": seed,
    }


def _setup_times(args) -> list[dict]:
    """Set-up time of fresh processes that import, build the inputs and warm
    up: their wall time, and the same in seconds at the reference speed,
    from the kernel samples each process takes while it sets up."""
    from reference import NOMINAL_UNIT_S

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    probes = []
    for _ in range(SETUP_PROBES[args.scale]):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, timeout=150, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        ref = json.loads(proc.stdout.splitlines()[-1])
        probes.append({"wall_s": wall, **ref,
                       "setup_s": (wall - ref["spent_s"]) * NOMINAL_UNIT_S / ref["unit_s"]})
    return probes


def _setup_only(args) -> int:
    """One set-up probe: import the package, build the inputs and warm up,
    timing the reference kernel throughout; print what the samples cost."""
    from reference import Reference

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        with Reference() as ref:
            _import_package()
            workdir.mkdir(parents=True, exist_ok=True)
            _prepare(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"spent_s": ref.spent_s, "unit_s": ref.unit_s}))
    return 0


def _prepare(args, workdir):
    """Build the workload's inputs from the seed and warm it up at tiny size."""
    from workloads import SIZES, WORKLOADS

    cls = WORKLOADS[args.workload]
    warm = cls(args.seed, SIZES[args.workload]["tiny"], workdir)
    warm.discard(warm.run())
    return cls(args.seed, SIZES[args.workload][args.scale], workdir)


def _run_ops(wl, seconds: float, trace: bool):
    """Repeat the operation; with ``trace`` every second one is traced.
    Untraced operations are timed against the host-speed reference."""
    import spans
    from reference import Reference

    ops, verdicts, first_digest, last_tracer = [], {}, None, None
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if trace and len(ops) % 2 == 1 else None
        if tracer:
            tracer.install()
        op = {"traced": tracer is not None, "failures": []}
        result = None
        ref = None if tracer else Reference()
        t0 = time.perf_counter()
        try:
            with ref or contextlib.nullcontext():
                result = wl.run()
        except Exception as exc:   # a failing operation is counted, not fatal
            op["failures"].append(f"raised {exc!r}")
        finally:
            op["wall_s"] = time.perf_counter() - t0 - (ref.spent_s if ref else 0.0)
            restored = tracer.restore() if tracer else True
        if ref:
            op["ref_unit_s"] = ref.unit_s
            op["wall_ref"] = op["wall_s"] / ref.unit_s
        if result is not None:
            try:
                digest = op["digest"] = wl.digest(result)
                if digest not in verdicts:
                    verdicts[digest] = wl.check(result)
                op["failures"] += verdicts[digest]
                first_digest = first_digest or digest
                if digest != first_digest:
                    op["failures"].append("output differs from the first operation's")
            except Exception as exc:
                op["failures"].append(f"check raised {exc!r}")
            wl.discard(result)
        if tracer:
            last_tracer = tracer
            op["layers"] = tracer.layer_metrics(op["wall_s"])
            if not restored:
                op["failures"].append("a traced function was not restored")
            if spans.partition_error(op["layers"], op["wall_s"]) > 1e-6 * op["wall_s"]:
                op["failures"].append("layer self times do not sum to the wall time")
        ops.append(op)
        elapsed = time.perf_counter() - start
        if len(ops) >= (2 if trace else 1) and elapsed + op["wall_s"] > seconds:
            return ops, last_tracer


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MFLQ_THREADS", None)
    if args.setup_only:
        return _setup_only(args)
    _import_package()

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else _setup_times(args)
        wl = _prepare(args, str(workdir))
        ops, last_tracer = _run_ops(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = [op for op in ops if not op["traced"]]
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        values = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                      - statistics.median(op["wall_s"] for op in untraced))
        last_tracer.write(OUT / f"{args.workload}.spans.json")
    else:
        values = {
            "wall_ref": statistics.median(op["wall_ref"] for op in untraced),
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    failed = sum(1 for op in ops if op["failures"])
    record = {
        "workload": args.workload, "scale": args.scale, "trace": args.trace,
        "seconds": args.seconds, "environment": _environment(args.seed),
        "setup_probes_s": setup,
        "operations": [{k: op.get(k) for k in ("traced", "wall_s", "ref_unit_s", "wall_ref",
                                               "digest", "failures")}
                       for op in ops],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
