"""Command-line front end.

Subcommands: ``generate`` (random problem files), ``solve`` (full pipeline,
JSON report), ``verify`` (per-estimate property checks on one problem or a
seeded suite, optional CSV sidecar), ``spectrum`` (eigenvalue and transfer
decay data).  Machine-readable output goes to stdout; the human summary of
``verify`` goes to stderr.

Exit codes are part of the stable interface:
    0  success / all checks passed
    1  a check or suite row failed
    2  bad input: a KreinError raised on the input values, an unreadable or
       unwritable path, or bad flags; stderr holds one ``error:`` line, or
       argparse's usage and message
    3  the operator is not dissipative (or its negative block is not dominant)
    4  the regularization tail did not converge (report still emitted)

Only :func:`main` turns errors into exit codes.  Any other exception is a
defect of the program and propagates with its traceback.

The environment variable KREIN_THREADS caps BLAS parallelism; it is applied
at package import, before numpy is loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import scipy.linalg

from . import blocks, errors, harness, projectors, serialize, solver


def _seed_count(text: str) -> int:
    """``--seeds``: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _heights(text: str) -> list[float]:
    """``--profile``: comma-separated numbers."""
    try:
        return [float(h) for h in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinspace",
        description="Invariant subspaces of dissipative operators in Krein spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random dissipative problem file")
    gen.set_defaults(run=_cmd_generate)
    gen.add_argument("--p", type=int, required=True, help="dimension of H+")
    gen.add_argument("--m", type=int, required=True, help="dimension of H-")
    gen.add_argument("--margin", type=float, default=0.0, help="target dissipativity margin")
    gen.add_argument("--coupling", type=float, default=1.0, help="off-diagonal block scale")
    gen.add_argument("--decay", type=float, default=0.0, help="extra -i diag profile on A22")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    slv = sub.add_parser("solve", help="run the solver on a problem file")
    slv.set_defaults(run=_cmd_solve)
    slv.add_argument("problem", type=str)
    slv.add_argument("--out", type=str, default=None, help="also write the report here")

    ver = sub.add_parser("verify", help="property-check one problem or a seeded suite")
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("problem", type=str, nargs="?", default=None)
    ver.add_argument("--suite", action="store_true")
    ver.add_argument("--seeds", type=_seed_count, default=10, help="suite size")
    ver.add_argument("--seed", type=int, default=0, help="first suite seed")
    ver.add_argument("--p", type=int, default=3)
    ver.add_argument("--m", type=int, default=3)
    ver.add_argument("--margin", type=float, default=0.5)
    ver.add_argument("--coupling", type=float, default=1.0)
    ver.add_argument("--decay", type=float, default=0.0)
    ver.add_argument("--csv", type=str, default=None, help="CSV sidecar path")
    ver.add_argument("--out", type=str, default=None, help="also write the JSON report here")

    spc = sub.add_parser("spectrum", help="eigenvalue data for a problem file")
    spc.set_defaults(run=_cmd_spectrum)
    spc.add_argument("problem", type=str)
    spc.add_argument(
        "--profile",
        type=_heights,
        default=None,
        help="comma-separated increasing heights for the transfer decay profile",
    )
    return parser


def _emit(text: str, path: str | None) -> None:
    if path:
        _atomic_write(path, text)
    sys.stdout.write(text)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _instance_spec(args, seed: int):
    """The instance the ``--p/--m/--margin/--coupling/--decay`` flags describe."""
    return harness.InstanceSpec(
        p=args.p,
        m=args.m,
        margin=args.margin,
        a22_decay=args.decay,
        coupling_scale=args.coupling,
        seed=seed,
    )


def _cmd_generate(args) -> int:
    a = harness.random_dissipative(_instance_spec(args, args.seed))
    _emit(serialize.dump_json(serialize.problem_to_dict(a)), args.out)
    return 0


def _load(path: str):
    a, overrides = serialize.load_problem(path)
    return a, serialize.config_from_overrides(overrides)


def _solve_file(path: str, out: str | None):
    """Load and solve a problem file: ``(a, cfg, report)``.

    A failed solve ends the command here: exit 3 (not dissipative) and
    exit 4 (no convergence, with the partial report) write their error
    document to stdout and ``out`` first.
    """
    a, cfg = _load(path)
    try:
        return a, cfg, solver.solve_theorem(a, cfg)
    except (errors.NotDissipative, errors.ConditionIFailed) as exc:
        _emit(serialize.dump_json({"error": f"{type(exc).__name__}: {exc}"}), out)
        sys.exit(3)
    except errors.NoCauchyConvergence as exc:
        doc = {"error": f"NoCauchyConvergence: {exc}"}
        if exc.report is not None:
            doc["report"] = serialize.report_to_dict(exc.report, a.norm(), cfg)
        _emit(serialize.dump_json(doc), out)
        sys.exit(4)


def _cmd_solve(args) -> int:
    a, cfg, rep = _solve_file(args.problem, args.out)
    doc = serialize.report_to_dict(rep, a.norm(), cfg)
    _emit(serialize.dump_json(doc), args.out)
    return 0 if doc["acceptance"]["passed"] else 1


def _write_csv(path: str, results) -> None:
    lines = [serialize.CSV_HEADER]
    lines.extend(serialize.csv_row(r) for r in results)
    _atomic_write(path, "\n".join(lines) + "\n")


def _cmd_verify(args) -> int:
    if args.suite:
        seeds = range(args.seed, args.seed + args.seeds)
        suite = harness.run_property_suite([_instance_spec(args, s) for s in seeds])
    elif args.problem:
        a, cfg, rep = _solve_file(args.problem, args.out)
        result = harness.check_instance(a, rep, cfg, seed=-1)
        suite = harness.SuiteReport([result], result.passed)
    else:
        print("error: supply a problem file or --suite", file=sys.stderr)
        return 2
    results = suite.results
    doc = {
        "passed": bool(suite.passed),
        "no_cauchy_count": suite.no_cauchy_count,
        "rows": [serialize.row_to_dict(r) for r in results],
        "failure_artifacts": suite.failure_artifacts,
    }
    if args.csv:
        _write_csv(args.csv, results)
    _emit(serialize.dump_json(doc), args.out)
    n_pass = sum(1 for r in results if r.passed)
    print(f"verify: {n_pass}/{len(results)} instances passed", file=sys.stderr)
    return 0 if suite.passed else 1


def _cmd_spectrum(args) -> int:
    a, _ = _load(args.problem)
    full = a.to_matrix()
    # eigenvalues from a Schur form; the restriction keeps real ones of both types
    eigs = scipy.linalg.schur(full, output="complex")[0].diagonal()
    radius = projectors.default_contour_radius(full)
    doc = {
        "spectrum_A": serialize.spectrum_pairs(eigs),
        "spectrum_restriction": serialize.spectrum_pairs(eigs[eigs.imag > -1e-9]),
        "contour_used": {
            "kind": "semicircle_upper",
            "radius": radius,
            "nodes": projectors.NODE_BUDGET,
            "rule": projectors.QUADRATURE_RULE,
        },
        "g_decay_profile": None,
    }
    if args.profile is not None:
        profile = blocks.g_decay_profile(a, args.profile)
        doc["g_decay_profile"] = [[h, v] for h, v in zip(args.profile, profile.tolist())]
    sys.stdout.write(serialize.dump_json(doc))
    return 0


def main(argv=None) -> int:
    """Run one command; return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on bad flags; a failed solve
        # exits 3 or 4 once its error document is written
        return exc.code or 0
    except errors.KreinError as exc:
        message = f"{type(exc).__name__}: {exc}"
    except OSError as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
