"""One benchmark workload, run in a fresh process by ``bench/run.py``.

The process starts with ``KREIN_THREADS=1`` in its environment and imports
nothing that loads numpy before ``kreinspace``, so the package's thread cap
reaches the BLAS pools.  It then

1. times its own set-up: ``import kreinspace`` and generating the
   workload's instances with ``harness.random_dissipative``;
2. confirms the BLAS thread cap from the loaded OpenBLAS libraries and
   refuses to measure without it;
3. computes the reference ``K`` of every instance for the correctness gate;
4. runs instances one at a time (closed loop, one caller) in two passes:
   the first for about half of ``--seconds``, the second over the same
   instances again, gating each result;
5. prints one JSON object as its last line of standard output and writes it
   to ``bench/out/result-<workload>-seed<n>-trace<t>.json``.

Times are CPU seconds of this single-threaded process (``time.process_time``).
On a shared virtual machine the wall clock also counts stretches in which
the host runs other tenants: one 24+24 solve took 5.0 to 7.8 s of wall time
in back-to-back processes at 5.0 to 5.5 s of CPU time.  The wall time of
the measured loop is still recorded.

With ``--trace 1`` each pass solves every instance twice, once with only
``solve_theorem`` timed and once with every layer function wrapped in a
span; the order alternates between instances.  The untimed-layer solves give
the untraced solve times the tracing overhead is measured against.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"

WORKLOADS = ("suite-small", "solve-strict", "solve-boundary")
SUITE_MARGINS = (0.0, 0.1, 1.0)
SOLVE_SIZE = 24
SOLVE_COUNT = 16
# suite-small's first pass stops at a multiple of 8 instances: a prefix of the
# bit-reversed order of that length samples each eighth of the sizes equally
BLOCK = {"suite-small": 8}

# The layer functions the traced run wraps, by defining module.
TARGETS = {
    "solver": (
        "solve_theorem",
        "_select_mu",
        "solve_uniformly_dissipative",
        "_upper_projector",
        "_assemble_report",
        "_newton_polish",
    ),
    "projectors": (
        "default_contour_radius",
        "riesz_projector_quadrature",
        "_batch_sigma_min",
        "_refine_probes",
        "_contour_nodes",
        "_quadrature_sum",
        "riesz_projector_exact",
        "_finish_report",
        "invariant_subspace_from_projector",
    ),
    "blocks": ("schur_data", "dissipativity_margin", "condition_i_margin"),
    "numerics": ("operator_norm", "solve_shifted"),
    "geometry": ("angle_operator_from_subspace", "maximality_witness"),
    "harness": ("check_instance",),
    "serialize": ("report_to_dict",),
}
SPAN_FIELDS = ("calls", "total_s", "self_s", "failed")
COUNTS = (
    "solver.cells",
    "solver.cells_quadrature",
    "solver.cells_schur",
    "solver.mu_doublings",
    "solver.newton_steps",
    "projectors.probes",
    "projectors.resolvent_nodes",
    "projectors.resolvent_gflop",
    "projectors.resolvent_bytes",
)


def spread_order(n: int) -> list[int]:
    """``range(n)`` in bit-reversed order, so every prefix samples all of it."""
    bits = max(1, (n - 1).bit_length())
    order = (int(f"{k:0{bits}b}"[::-1], 2) for k in range(1 << bits))
    return [k for k in order if k < n]


def schedule(workload: str, seed: int) -> list[tuple]:
    """``(p, m, margin, coupling_scale, spec seed)`` of every instance.

    Sizes, margins and couplings follow a fixed order, the same in every
    run, and the seed draws only the matrices.  A run covers a prefix of the
    list whose length depends on the machine's speed, so the order makes
    every prefix a cross-section of the whole list: the run median is then
    taken over the same mix of sizes however many instances fit.  A run
    that outlasts the list starts it again.
    """
    if workload == "suite-small":
        # every (p, m, margin) with p, m in [2, 10], sorted by size so that
        # the bit-reversed order spreads each prefix from small to large
        combos = sorted(
            (
                (p, m, margin)
                for p in range(2, 11)
                for m in range(2, 11)
                for margin in SUITE_MARGINS
            ),
            key=lambda c: (c[0] + c[1], c[0], c[2]),
        )
        rows = [(*combos[k], 1.0) for k in spread_order(len(combos))]
    elif workload == "solve-strict":
        rows = [
            (SOLVE_SIZE, SOLVE_SIZE, (0.1, 1.0)[i % 2], 1.0) for i in range(SOLVE_COUNT)
        ]
    elif workload == "solve-boundary":
        rows = [
            (SOLVE_SIZE, SOLVE_SIZE, (0.0, 1e-6)[i % 2], 30.0)
            for i in range(SOLVE_COUNT)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(*row, seed * 1000 + i) for i, row in enumerate(rows)]


@dataclass
class Instance:
    spec: object
    a: object
    problem: dict | None  # the problem document of the solve workloads
    k_ref: object = None

    @property
    def key(self) -> str:
        s = self.spec
        return (
            f"{s.p}x{s.m}/margin={s.margin!r}"
            f"/coupling={s.coupling_scale!r}/seed={s.seed}"
        )


# ---------------------------------------------------------------------------
# workload operations: each returns (report document, harness verdict)
# ---------------------------------------------------------------------------


def run_suite_instance(ks, inst):
    """``kreinspace verify --suite`` traffic: one instance per suite call."""
    result = ks.harness.run_property_suite([inst.spec]).results[0]
    if result.error is not None:
        raise RuntimeError(result.error)
    cfg = ks.solver.SolverConfig()
    return ks.serialize.report_to_dict(result.report, inst.a.norm(), cfg), result.passed


def run_solve_instance(ks, inst):
    """``kreinspace solve`` in-process, certified as ``kreinspace verify`` does."""
    a, overrides = ks.serialize.problem_from_dict(inst.problem)
    cfg = ks.serialize.config_from_overrides(overrides)
    rep = ks.solver.solve_theorem(a, cfg)
    doc = ks.serialize.report_to_dict(rep, a.norm(), cfg)
    ks.serialize.dump_json(doc)
    return doc, ks.harness.check_instance(a, rep, cfg, seed=inst.spec.seed).passed


def attempt(ks, gate, op, inst) -> dict:
    record = {"key": inst.key, "failed": [], "digest": None, "harness_passed": False}
    try:
        doc, record["harness_passed"] = op(ks, inst)
    except Exception as exc:  # a raising solve is a gated failure, not a crash
        record["failed"] = [f"raised {type(exc).__name__}: {exc}"]
        record["traceback"] = traceback.format_exc()
        return record
    k = gate.k_from_pairs(doc["K"])
    record["failed"] = gate.failed_checks(inst.a, k, doc["maximal"], inst.k_ref)
    record["digest"] = gate.digest(doc["K"])
    return record


# ---------------------------------------------------------------------------
# environment checks
# ---------------------------------------------------------------------------


def blas_threads() -> tuple[int, str]:
    """Thread count of the loaded OpenBLAS libraries, asked of the libraries.

    Falls back to the environment variables when no OpenBLAS query symbol
    is found; returns 0 when neither source gives a count.
    """
    import ctypes

    import numpy
    import scipy

    counts = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    counts.append(int(fn()))
                    break
    if counts:
        return max(counts), "openblas"
    values = {
        os.environ.get(v, "")
        for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    if len(values) == 1 and (value := values.pop()).isdigit():
        return int(value), "environment"
    return 0, "unknown"


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kreinspace").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(records) -> dict:
    """Compare each instance's K digest within the run and with earlier runs.

    Earlier digests are kept per source version in ``bench/out``, so two
    runs of the same code on the same seed must give bit-identical K.
    """
    seen: dict[str, str] = {}
    mismatched = set()
    for r in records:
        if r["digest"] is None:
            continue
        if seen.setdefault(r["key"], r["digest"]) != r["digest"]:
            mismatched.add(r["key"])
    store = OUT / f"digests-{source_hash()}.json"
    earlier = json.loads(store.read_text()) if store.exists() else {}
    compared = 0
    for key, value in seen.items():
        if key in earlier:
            compared += 1
            if earlier[key] != value:
                mismatched.add(key)
        else:
            earlier[key] = value
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(earlier, sort_keys=True))
    os.replace(tmp, store)
    return {"compared_with_earlier_runs": compared, "mismatched": sorted(mismatched)}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _count_probes(args, kwargs, result, counts):
    counts["projectors.probes"] += len(args[0])


def _count_resolvents(args, kwargs, result, counts):
    # computed, not measured: a complex LU inverse is ~8 d^3 real flops per
    # node, the Frobenius screen and weighted sum ~12 d^2; the arrays
    # touched per node (shifted matrix, inverse, three reads) are 5 x 16 d^2 bytes
    d, nodes = args[0].shape[0], len(args[1])
    counts["projectors.resolvent_nodes"] += nodes
    counts["projectors.resolvent_gflop"] += nodes * (8 * d**3 + 12 * d**2) / 1e9
    counts["projectors.resolvent_bytes"] += nodes * 80 * d**2 / 1e9


def _count_mu_doublings(args, kwargs, result, counts):
    import numpy as np

    start = 1.0 + float(np.linalg.norm(args[0].a22, 2))
    counts["solver.mu_doublings"] += round(math.log2(result.imag / start))


def _count_cells(args, kwargs, result, counts):
    trace = result.convergence_trace
    counts["solver.cells"] += len(trace)
    counts["solver.cells_schur"] += sum(t.projector_method == "schur" for t in trace)
    counts["solver.cells_quadrature"] += sum(
        t.ok and t.projector_method != "schur" for t in trace
    )


def layer_recorder(spans, modules):
    import scipy.linalg

    targets = [
        (importlib.import_module(f"kreinspace.{mod}"), f)
        for mod, fns in TARGETS.items()
        for f in fns
    ]
    hooks = {
        "projectors._batch_sigma_min": _count_probes,
        "projectors._quadrature_sum": _count_resolvents,
        "solver._select_mu": _count_mu_doublings,
        "solver.solve_theorem": _count_cells,
    }
    # each Newton step is one Sylvester solve inside _newton_polish
    counters = [
        (
            scipy.linalg,
            "solve_sylvester",
            "solver.newton_steps",
            "solver._newton_polish",
        )
    ]
    return spans.Recorder(modules, targets, hooks, counters)


def layer_metrics(spans, recorder, traced: int) -> dict:
    """Per-instance layer metrics of the traced run."""
    table = spans.summarize(recorder.spans)
    out = {}
    for mod, fns in TARGETS.items():
        for fn in fns:
            row = table.get(f"{mod}.{fn}", dict.fromkeys(SPAN_FIELDS, 0))
            for field in SPAN_FIELDS:
                out[f"{mod}.{fn}.{field}"] = row[field] / traced
    for name in COUNTS:
        out[name] = recorder.counts[name] / traced
    kids = spans.children_of(recorder.spans)
    quad = "projectors.riesz_projector_quadrature"
    tried = [s for s in recorder.spans if s.name == quad]
    fallbacks = 0
    for span, children in zip(recorder.spans, kids):
        if span.name == "solver._upper_projector":
            names = {recorder.spans[k].name for k in children}
            fallbacks += quad in names and "projectors.riesz_projector_exact" in names
    out["projectors.quadrature.escalations"] = (
        sum(s.error == "QuadratureNotConverged" for s in tried) / traced
    )
    out["projectors.quadrature.fallbacks"] = fallbacks / traced
    out["projectors.quadrature.accept_ratio"] = (
        sum(s.error is None for s in tried) / len(tried) if tried else 1.0
    )
    solve_total = table["solver.solve_theorem"]["total_s"]
    out["solver.solve_theorem.self_share"] = (
        table["solver.solve_theorem"]["self_s"] / solve_total
    )
    out["projectors._quadrature_sum.self_share"] = (
        table.get("projectors._quadrature_sum", {"self_s": 0.0})["self_s"] / solve_total
    )
    return out


def write_spans(recorder, workload: str) -> None:
    names = sorted({s.name for s in recorder.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "fields": ["name", "start", "end", "parent", "request", "error"],
        "names": names,
        "spans": [
            [index[s.name], s.start, s.end, s.parent, s.request, s.error]
            for s in recorder.spans
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{workload}.json").write_text(json.dumps(doc, separators=(",", ":")))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def best_solve_times(recorder, records) -> list[float]:
    """Per instance, the faster of its two ``solve_theorem`` times on ``recorder``.

    The two passes run the same instances about half a run apart, so a
    stretch in which the host slows this CPU rarely hits both solves.
    """
    took = {
        s.request: s.end - s.start
        for s in recorder.spans
        if s.name == "solver.solve_theorem"
    }
    best: dict[int, float] = {}
    for r in records:
        if r["request"] in took:
            best[r["index"]] = min(best.get(r["index"], math.inf), took[r["request"]])
    return list(best.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.process_time()
    import kreinspace as ks
    from kreinspace import harness, serialize

    instances = []
    for p, m, margin, coupling, spec_seed in schedule(args.workload, args.seed):
        spec = harness.InstanceSpec(
            p, m, margin=margin, coupling_scale=coupling, seed=spec_seed
        )
        a = harness.random_dissipative(spec)
        suite = args.workload == "suite-small"
        problem = None if suite else serialize.problem_to_dict(a)
        instances.append(Instance(spec, a, problem))
    setup_s = time.process_time() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    package = Path(ks.__file__).resolve().parent
    if package != ROOT / "src" / "kreinspace":
        print(
            f"error: kreinspace imported from {package}, not this checkout",
            file=sys.stderr,
        )
        return 2
    threads, thread_source = blas_threads()
    if threads != 1:
        print(
            f"error: BLAS thread cap is {threads} ({thread_source}), need 1; "
            "refusing to measure",
            file=sys.stderr,
        )
        return 2

    import gate
    import spans

    t_ref = time.process_time()
    for inst in instances:
        try:
            inst.k_ref = gate.reference_k(inst.a)
        except ks.KreinError as exc:
            print(f"warning: no reference for {inst.key}: {exc}", file=sys.stderr)
    reference_s = time.process_time() - t_ref

    modules = [
        mod for name, mod in sys.modules.items() if name.split(".")[0] == "kreinspace"
    ]
    timer = spans.Recorder(modules, [(ks.solver, "solve_theorem")])
    traced = layer_recorder(spans, modules) if args.trace else None
    op = run_suite_instance if args.workload == "suite-small" else run_solve_instance

    records = []
    pass_cpu_s = []
    start = time.perf_counter()
    block = BLOCK.get(args.workload, 1)

    def first_pass_goes_on(k: int) -> bool:
        """Finish the current block; start another if it fits in half the run."""
        elapsed = time.perf_counter() - start
        return k % block != 0 or elapsed * (k + block) / k <= args.seconds / 2

    count = None  # instances in the first pass; the second repeats them
    for pass_no in range(2):
        cpu0 = time.process_time()
        k = 0
        while k == 0 or (k < count if count else first_pass_goes_on(k)):
            inst = instances[k % len(instances)]
            if traced is None:
                order = [timer]
            else:  # alternate which recorder sees the instance first
                order = [timer, traced] if k % 2 == 0 else [traced, timer]
            for recorder in order:
                recorder.request = len(records)
                with recorder.installed():
                    record = attempt(ks, gate, op, inst)
                record.update(
                    index=k,
                    pass_no=pass_no,
                    request=recorder.request,
                    traced=recorder is traced,
                )
                records.append(record)
            k += 1
        count = k
        pass_cpu_s.append(time.process_time() - cpu0)
    wall_s = time.perf_counter() - start

    failures = [r for r in records if r["failed"]]
    for r in failures[:5]:
        print(f"gate failure {r['key']}: {r['failed']}", file=sys.stderr)
        if "traceback" in r:
            print(r["traceback"], file=sys.stderr)
    untraced = best_solve_times(timer, records)
    faster = min(range(2), key=pass_cpu_s.__getitem__)
    passed = sum(
        not r["failed"] for r in records if r["pass_no"] == faster and not r["traced"]
    )
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": threads,
        "blas_threads_source": thread_source,
        "setup_s": setup_s,
        "reference_s": reference_s,
        "wall_s": wall_s,
        "pass_cpu_s": pass_cpu_s,
        "instances": count,
        "attempted": len(records),
        "failed": len(failures),
        "harness_failed": sum(not r["harness_passed"] for r in records),
        "instances_per_s": passed / pass_cpu_s[faster],
        "solve_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "determinism": check_digests(records),
    }
    if traced is not None:
        traced_times = best_solve_times(traced, records)
        result["solve_s_traced"] = traced_times
        n_traced = sum(s.name == "solver.solve_theorem" for s in traced.spans)
        result["per_layer"] = layer_metrics(spans, traced, n_traced)
        result["per_layer"]["trace.overhead"] = (
            statistics.median(traced_times) / statistics.median(untraced) - 1.0
        )
        write_spans(traced, args.workload)
    result["keys"] = [inst.key for inst in instances[: min(count, len(instances))]]
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
