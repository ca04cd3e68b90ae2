"""Benchmark of kreinspace: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload solve-strict --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (with ``--workload all``, one such object per
workload, keyed by name).  The line before it names every metric with its
unit.  See ``bench/README.md`` for the workloads and what each metric
should move.

Each workload runs in a fresh process (``bench/worker.py``) with
``KREIN_THREADS=1`` set before numpy loads.  Times are CPU seconds of that
single-threaded process; the loop's wall time is in the detail line.
``setup_s`` is the median of several fresh processes that each import
``kreinspace`` and generate the workload's instances.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"
WORKLOADS = ("suite-small", "solve-strict", "solve-boundary")
SETUP_SAMPLES = 5
DEADLINE_S = 175.0  # one workload, set-up included; the caller allows 180
PREDICTED_QUADRATURE_SHARE = {"suite-small": 0.18, "solve-strict": 0.50}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # let kreinspace derive them from KREIN_THREADS
    env["KREIN_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run the worker to completion and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(run_worker([*common, "--setup-only"], 60.0)["setup_s"])
    res = run_worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace)],
        max(deadline - time.monotonic(), 1.0),
    )
    setup.append(res["setup_s"])
    solve_s = res["solve_s"]
    q1, p50, q3 = quartiles(solve_s)
    mismatched = res["determinism"]["mismatched"]
    detail = {
        "workload": workload,
        "seed": seed,
        "blas_threads": res["blas_threads"],
        "blas_threads_source": res["blas_threads_source"],
        "instances": res["instances"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "harness_failed": res["harness_failed"],
        "solve_s": {
            "count": len(solve_s), "q1": q1, "p50": p50, "q3": q3, "tail": tail(solve_s)
        },
        "reference_s": res["reference_s"],
        "pass_cpu_s": res["pass_cpu_s"],
        "wall_s": res["wall_s"],
        "determinism": res["determinism"],
    }
    if trace:
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in res["per_layer"].items()
        }
        detail["solve_s_traced_p50"] = statistics.median(res["solve_s_traced"])
        share = res["per_layer"]["projectors._quadrature_sum.self_share"]
        detail["quadrature_sum_self_share"] = {
            "measured": share,
            "predicted": PREDICTED_QUADRATURE_SHARE.get(workload),
        }
    else:
        metrics = {
            "instances_per_s": {"value": res["instances_per_s"], "unit": "1/s"},
            "solve_s_p50": {"value": p50, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        detail["setup_s_samples"] = setup
    return {
        "detail": detail,
        "result": {
            "correct": res["failed"] == 0 and not mismatched,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        },
    }


def unit_of(name: str) -> str:
    field = name.rsplit(".", 1)[-1]
    if field in ("total_s", "self_s"):
        return "s/inst"
    if field in ("accept_ratio", "self_share", "overhead"):
        return "ratio"
    if field == "resolvent_gflop":
        return "Gflop/inst"
    if field == "resolvent_bytes":
        return "GB/inst"
    return "count/inst"


def summary_line(out: dict) -> str:
    d, metrics = out["detail"], out["result"]["metrics"]
    parts = [f"{d['workload']} seed={d['seed']}"]
    shown = ("instances_per_s", "solve_s_p50", "setup_s", "peak_rss_mb")
    for name in shown:
        if name in metrics:
            parts.append(f"{name}={metrics[name]['value']:.6g} {metrics[name]['unit']}")
    parts.append(
        f"fail_frac={d['fail_frac']:.6g} ratio ({d['failed']}/{d['attempted']})"
    )
    parts.append(f"blas_threads={d['blas_threads']}")
    if "quadrature_sum_self_share" in d:
        share = d["quadrature_sum_self_share"]
        predicted = share["predicted"]
        predicted = "" if predicted is None else f" (predicted {predicted})"
        parts.append(f"quadrature_sum_self_share={share['measured']:.3f}{predicted}")
        parts.append(
            "solve_theorem_self_share="
            f"{metrics['solver.solve_theorem.self_share']['value']:.4f}"
        )
        parts.append(f"trace_overhead={metrics['trace.overhead']['value']:.4f}")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "kreinspace" / "__init__.py").is_file():
        print(f"error: no kreinspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            out = run_workload(workload, args.seed, args.seconds, args.trace)
            print(json.dumps(out["detail"]))
            print(summary_line(out))
            results[workload] = out["result"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
