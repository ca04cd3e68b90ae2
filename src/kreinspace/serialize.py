"""Problem-file and report serialization.

Complex scalars are stored as two-element [re, im] arrays everywhere (never
strings), so files parse bit-exactly across languages.  A problem file is

    {
      "version": "1",
      "structure": {"p": 2, "m": 2},
      "blocks": {"A11": [[[re, im], ...], ...], "A12": ..., "A21": ..., "A22": ...},
      "solver": { ... optional config overrides ... }
    }

JSON is dumped with sorted keys and fixed indentation, so a fixed seed
reproduces byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .blocks import BlockOperator
from .errors import KreinError
from .geometry import KreinStructure
from .solver import SolveReport, SolverConfig

# The columns of a verify row, in CSV order: the integer identity columns,
# then the measured values.  Each column reads the InstanceResult attribute
# of its lower-cased name.
_ROW_IDS = ("seed", "p", "m")
_ROW_VALUES = (
    "margin",
    "K_norm",
    "riccati_residual",
    "invariance_residual",
    "min_im_restriction",
    "estimate10_slack",
    "estimate11_slack",
    "g_bound_ratio",
)
CSV_HEADER = ",".join(_ROW_IDS + _ROW_VALUES)

# the "solver" keys a problem file may set
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(SolverConfig))


class ProblemFormatError(KreinError):
    """The problem file violates the v1 schema."""


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _is_number(x) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ProblemFormatError(f"complex entries must be [re, im], got {pair!r}")
    re, im = pair
    if not _is_number(re) or not _is_number(im):
        raise ProblemFormatError(f"complex entries must be numeric, got {pair!r}")
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ProblemFormatError(f"non-finite entry {pair!r}")
    return complex(re, im)


def matrix_to_pairs(m) -> list:
    arr = np.asarray(m, dtype=np.complex128)
    return [[complex_to_pair(z) for z in row] for row in arr]


def pairs_to_matrix(data, shape: tuple[int, int], name: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != shape[0]:
        raise ProblemFormatError(f"{name} must have {shape[0]} rows")
    out = np.empty(shape, dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise ProblemFormatError(f"{name} row {i} must have {shape[1]} entries")
        for j, pair in enumerate(row):
            out[i, j] = pair_to_complex(pair)
    return out


def problem_to_dict(a: BlockOperator, solver: dict | None = None) -> dict:
    doc = {
        "version": "1",
        "structure": {"p": a.structure.p, "m": a.structure.m},
        "blocks": {
            "A11": matrix_to_pairs(a.a11),
            "A12": matrix_to_pairs(a.a12),
            "A21": matrix_to_pairs(a.a21),
            "A22": matrix_to_pairs(a.a22),
        },
    }
    if solver:
        doc["solver"] = solver
    return doc


def problem_from_dict(doc) -> tuple[BlockOperator, dict]:
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    if doc.get("version") != "1":
        raise ProblemFormatError(f"unsupported version {doc.get('version')!r}")
    structure = doc.get("structure")
    if not isinstance(structure, dict):
        raise ProblemFormatError("missing structure object")
    p, m = structure.get("p"), structure.get("m")
    if not _is_integer(p) or not _is_integer(m):
        raise ProblemFormatError(f"structure p and m must be integers, got {structure!r}")
    if p < 1 or m < 1:
        raise ProblemFormatError(f"need p, m >= 1, got p={p}, m={m}")
    blocks = doc.get("blocks")
    if not isinstance(blocks, dict):
        raise ProblemFormatError("missing blocks object")
    shapes = {"A11": (p, p), "A12": (p, m), "A21": (m, p), "A22": (m, m)}
    mats = {}
    for name, shape in shapes.items():
        if name not in blocks:
            raise ProblemFormatError(f"missing block {name}")
        mats[name] = pairs_to_matrix(blocks[name], shape, name)
    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        raise ProblemFormatError("solver overrides must be an object")
    unknown = set(solver) - _CONFIG_KEYS
    if unknown:
        raise ProblemFormatError(f"unknown solver keys: {sorted(unknown)}")
    a = BlockOperator(
        KreinStructure(p, m), mats["A11"], mats["A12"], mats["A21"], mats["A22"]
    )
    return a, solver


def config_from_overrides(overrides: dict) -> SolverConfig:
    """The :class:`SolverConfig` of a problem file's ``"solver"`` object.

    Only ``mu`` is converted here, from its ``[re, im]`` pair; every value
    is checked by ``SolverConfig`` itself, and what it rejects is raised as
    :class:`ProblemFormatError`.
    """
    kwargs = dict(overrides)
    if kwargs.get("mu") is not None:
        kwargs["mu"] = pair_to_complex(kwargs["mu"])
    try:
        return SolverConfig(**kwargs)
    except (KreinError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"bad solver overrides {overrides!r}: {exc}") from exc


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_problem(path: str) -> tuple[BlockOperator, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return problem_from_dict(doc)


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _json_value(x):
    if isinstance(x, float):
        return _finite_or_none(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def record_to_dict(record) -> dict:
    """A dataclass record as JSON, one key per field in declaration order.

    Non-finite floats become ``None`` and numpy bools ``bool``; ints, strs,
    bools and ``None`` pass through unchanged.
    """
    return {
        f.name: _json_value(getattr(record, f.name))
        for f in dataclasses.fields(record)
    }


def spectrum_pairs(values) -> list:
    ordered = sorted(
        (complex(z) for z in np.asarray(values)), key=lambda z: (-z.imag, z.real)
    )
    return [complex_to_pair(z) for z in ordered]


def acceptance_triple(rep: SolveReport, norm_a: float, cfg: SolverConfig) -> dict:
    """The acceptance checks of a solve, recomputable from the report fields."""
    k_ok = rep.k_norm <= 1.0 + cfg.norm_slack
    inv_ok = rep.invariance_residual <= cfg.invariance_tol * norm_a
    spec_ok = rep.min_im_restriction() >= -cfg.spec_slack
    return {
        "k_norm_ok": bool(k_ok),
        "invariance_ok": bool(inv_ok),
        "spectrum_ok": bool(spec_ok),
        "maximal_ok": bool(rep.maximal),
        "passed": bool(k_ok and inv_ok and spec_ok and rep.maximal),
        "thresholds": {
            "k_norm": 1.0 + cfg.norm_slack,
            "invariance": cfg.invariance_tol * norm_a,
            "min_im": -cfg.spec_slack,
        },
    }


def report_to_dict(rep: SolveReport, norm_a: float, cfg: SolverConfig) -> dict:
    return {
        "K": matrix_to_pairs(rep.k.matrix),
        "K_norm": _finite_or_none(rep.k_norm),
        "L_op": matrix_to_pairs(rep.l_op),
        "riccati_residual": _finite_or_none(rep.riccati_residual),
        "invariance_residual": _finite_or_none(rep.invariance_residual),
        "restriction_spectrum": spectrum_pairs(rep.restriction_spectrum),
        "mu": complex_to_pair(rep.mu),
        "margin": _finite_or_none(rep.margin),
        "operator_norm": _finite_or_none(norm_a),
        "maximal": bool(rep.maximal),
        "polish_method": rep.polish_method,
        "estimate10": record_to_dict(rep.estimate10),
        "estimate11": record_to_dict(rep.estimate11),
        "convergence_trace": [record_to_dict(t) for t in rep.convergence_trace],
        "acceptance": acceptance_triple(rep, norm_a, cfg),
    }


def csv_row(result) -> str:
    """One verify row under :data:`CSV_HEADER`."""

    def fmt(x):
        x = float(x)
        if math.isnan(x):
            return "nan"
        return f"{x:.12g}"

    ids = [str(getattr(result, c)) for c in _ROW_IDS]
    values = [fmt(getattr(result, c.lower())) for c in _ROW_VALUES]
    return ",".join(ids + values)


def row_to_dict(result) -> dict:
    """One verify row as JSON: the CSV columns, the verdict and the checks."""
    doc = {c: getattr(result, c) for c in _ROW_IDS}
    doc.update((c, _finite_or_none(getattr(result, c.lower()))) for c in _ROW_VALUES)
    doc["passed"] = bool(result.passed)
    doc["error"] = result.error
    doc["checks"] = {k: bool(v) for k, v in result.checks.items()}
    return doc
