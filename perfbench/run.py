"""fdematel benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload survey-paper --seed 1 --seconds 25 --trace 0

The run measures set-up time in fresh interpreters before and after it
runs the workload's ops in a worker process (worker.py), as a closed loop
with one client for --seconds of op time. The worker generates each op's
input from --seed before the op, and checks every output. The run prints
each metric by name with its unit, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the worker alternates untraced and
traced ops, and the metrics are the per-layer ones (see spans.py). The exit
code is non-zero when any op or check failed, or when the checkout has no
fdematel sources.

BLAS is pinned to at most nproc threads here, in the runner, for the
set-up probes and the worker alike.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_tmp"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS pin)

import gen  # noqa: E402
import spans  # noqa: E402

#: Every run must finish within this many seconds.
DEADLINE_S = 170.0
#: setup_s is the median over rounds of each round's fastest fresh
#: interpreter. Half the rounds run before the worker and half after it, so
#: that one slow spell of the host does not set the figure.
SETUP_ROUNDS = 4
SETUP_PROBES_PER_ROUND = 3

#: name -> kind, sizes (full / smoke), and why the workload exists.
WORKLOADS = {
    "survey-paper": {
        "kind": "survey",
        "full": {"n": 29, "k": 10},
        "smoke": {"n": 5, "k": 3},
        "why": "the paper's case-study panel size (N=29, K=10): fixed per-call costs of CLI, "
        "report and diagram are a visible share",
    },
    "crisp-report": {
        "kind": "crisp",
        "full": {"n": 150},
        "smoke": {"n": 9},
        "why": "N=150 crisp CSV bypasses CFCS: isolates CSV parsing and JSON report rendering",
    },
    "sensitivity": {
        "kind": "sensitivity",
        "full": {"n": 600},
        "smoke": {"n": 12},
        "why": "N=600 noise-robustness re-analysis through the library API: the only workload "
        "where the engine (normalize, LU solve, scoring) dominates",
    },
}

#: End-to-end metrics in the result line: name -> unit. The fastest op
#: gates the program's own speed. The median, the tail and the throughput
#: (one over the mean op time) are printed too, but do not gate: on a
#: shared host CPU speed drops by 1.3-1.7x for seconds to minutes at a
#: time, and every statistic but the fastest op moves with the share of
#: the run spent in those periods (README.md has the measured spreads).
END_TO_END = {
    "latency_min_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed end-to-end metrics that do not gate: name -> unit.
REPORTED = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_s": "1/s",
}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(env: dict, rounds: int, warm_up: bool) -> list:
    """Wall seconds for a fresh interpreter to import fdematel and its CLI,
    as one list of SETUP_PROBES_PER_ROUND samples per round."""
    cmd = [sys.executable, "-c", "import fdematel, fdematel.cli"]
    if warm_up:  # only warms the bytecode and page caches
        subprocess.run(cmd, env=env, check=True, timeout=60)
    samples = []
    for _ in range(rounds):
        round_samples = []
        for _ in range(SETUP_PROBES_PER_ROUND):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, timeout=60)
            round_samples.append(time.perf_counter() - t0)
        samples.append(round_samples)
    return samples


def tail(latencies: list):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond). With fewer than eleven samples no
    percentile qualifies, and the minimum is reported with what lies beyond."""
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def measure(workload: str, seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    """One benchmark run; returns everything main() prints."""
    started = time.monotonic()
    env = program_env()
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        setup = [] if traced else measure_setup(env, SETUP_ROUNDS // 2, warm_up=True)
        spec = {
            "workload": workload,
            "kind": WORKLOADS[workload]["kind"],
            "dims": WORKLOADS[workload][size],
            "seed": seed,
            "seconds": seconds,
            "trace": traced,
            "src": str(SRC),
            "out_dir": str(run_dir),
            "result_path": str(run_dir / "result.json"),
            "spans_path": str(run_dir / "spans.json"),
        }
        if spec["kind"] == "sensitivity":
            # written here, so that generating it leaves nothing in the worker's heap
            base = run_dir / "base.csv"
            base.write_bytes(gen.make_input(seed, workload, 0, spec["kind"], spec["dims"])[0])
            spec["base_path"] = str(base)
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        budget = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=env,
            stdout=sys.stderr,
            timeout=max(budget, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        if not traced:
            setup += measure_setup(env, SETUP_ROUNDS - SETUP_ROUNDS // 2, warm_up=False)
        result = json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
        if traced:
            recorded = json.loads(Path(spec["spans_path"]).read_text(encoding="utf-8"))
            result["layers"] = spans.layer_metrics(
                recorded["spans"],
                recorded["counts"],
                dict(recorded["latencies"]),
                result["latencies"],
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass

    lat = result["latencies"]
    tail_value, tail_pct, beyond = tail(lat)
    result.update(
        workload=workload,
        seed=seed,
        environment=environment(),
        setup_samples=setup,
        latency_min_s=min(lat),
        latency_p50_s=statistics.median(lat),
        latency_tail_s=tail_value,
        tail_percentile=tail_pct,
        tail_beyond=beyond,
        throughput_ops_s=len(lat) / sum(lat),
        peak_rss_mb=result["peak_rss_kb"] * 1024 / 1e6,
    )
    if setup:
        result["setup_s"] = statistics.median(min(r) for r in setup)
    return result


def report_lines(r: dict, traced: bool) -> list:
    env = r["environment"]
    lines = [
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"program: {r['fdematel']}",
        "inputs: " + json.dumps(r["inputs"]),
        f"workload {r['workload']} seed {r['seed']}: closed loop, 1 client, "
        f"{len(r['latencies'])} untraced ops",
        f"  latency_min_s     {r['latency_min_s']:.6f} s",
        f"  latency_p50_s     {r['latency_p50_s']:.6f} s",
        f"  latency_tail_s    {r['latency_tail_s']:.6f} s  "
        f"(p{r['tail_percentile']:.1f} of {len(r['latencies'])} samples, {r['tail_beyond']} beyond)",
        f"  throughput_ops_s  {r['throughput_ops_s']:.4f} 1/s",
    ]
    if "setup_s" in r:
        lines.append(
            f"  setup_s           {r['setup_s']:.6f} s  (median over {len(r['setup_samples'])} rounds of the "
            f"fastest of {SETUP_PROBES_PER_ROUND} fresh interpreters)"
        )
    if not traced:
        lines.append(f"  peak_rss_mb       {r['peak_rss_mb']:.2f} MB")
    lines.append(f"  failed_share      {r['failed'] / r['attempted']:.4f}  ({r['failed']} of {r['attempted']})")
    for msg in r["errors"]:
        lines.append(f"  error: {msg}")
    if traced:
        lines.append("per-layer, median per traced op:")
        for name, unit in spans.LAYER_UNITS.items():
            lines.append(f"  {name:<28}{r['layers'][name]:.6g} {unit}")
    return lines


def result_line(r: dict, traced: bool) -> dict:
    if traced:
        metrics = {name: {"value": r["layers"][name], "unit": unit} for name, unit in spans.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "fdematel" / "__init__.py").is_file():
        print(f"perfbench: no fdematel sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    r = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for line in report_lines(r, bool(args.trace)):
        print(line)
    print(json.dumps(result_line(r, bool(args.trace))))
    return 0 if r["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
