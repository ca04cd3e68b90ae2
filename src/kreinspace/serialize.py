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
reproduces byte-identical output.  :func:`dump_json` writes exactly the bytes
of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for every document.
With ``indent`` set the standard library encodes in pure Python, so the writer
hands each list nested to one depth throughout, with ints and floats at the
bottom and no empty list, to the C encoder in one call and adds only the
indentation.  That covers every matrix of ``[re, im]`` pairs; such a list may
be ragged, and its numbers may be -0.0, NaN or infinite.  Every other list
and dict is walked member by member, as the indented encoder walks it.

The reader converts a block of exact ``list`` rows and pairs of exact ``int``
and ``float`` entries in one numpy call; any other block, and any block with
a non-finite or out-of-range entry, goes through the per-entry loop, which
accepts and rejects what it always has.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import json
import math
from json.encoder import encode_basestring_ascii

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
    try:
        z = complex(re, im)
    except OverflowError:
        # an int literal beyond the float range
        raise ProblemFormatError(f"entry beyond the float range {pair!r}") from None
    if not cmath.isfinite(z):
        raise ProblemFormatError(f"non-finite entry {pair!r}")
    return z


def matrix_to_pairs(m) -> list:
    arr = np.ascontiguousarray(m, dtype=np.complex128)
    return arr.view(np.float64).reshape(*arr.shape, 2).tolist()


def _bulk_matrix(data, shape: tuple[int, int]) -> np.ndarray | None:
    """The matrix of a block of plain pairs, or None for the loop to judge.

    Rows and pairs must be exact lists and entries exact ints or floats, so
    the one conversion accepts nothing the loop would reject.
    """
    rows, cols = shape
    if type(data) is not list or len(data) != rows:
        return None
    if set(map(type, data)) != {list} or set(map(len, data)) != {cols}:
        return None
    pairs = list(itertools.chain.from_iterable(data))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    if not set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}:
        return None
    try:
        values = np.array(data, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(np.complex128).reshape(shape)


def pairs_to_matrix(data, shape: tuple[int, int], name: str) -> np.ndarray:
    bulk = _bulk_matrix(data, shape)
    if bulk is not None:
        return bulk
    if not isinstance(data, list) or len(data) != shape[0]:
        raise ProblemFormatError(f"{name} must have {shape[0]} rows")
    # each row is checked before it is converted, so no array of the declared
    # shape exists before the data matches it
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise ProblemFormatError(f"{name} row {i} must have {shape[1]} entries")
        rows.append([pair_to_complex(pair) for pair in row])
    return np.array(rows, dtype=np.complex128)


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
    except KreinError as exc:
        raise ProblemFormatError(f"bad solver overrides {overrides!r}: {exc}") from exc


def dump_json(doc) -> str:
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` writes it."""
    out: list[str] = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)


_INDENT = "  "
_CONTAINERS = (list, tuple, dict)


def _write(value, level: int, out: list[str]) -> None:
    """Append ``value`` as the indented encoder writes it at indent ``level``."""
    if not (isinstance(value, _CONTAINERS) and value):
        out.append(_scalar(value))
        return
    is_dict = isinstance(value, dict)
    if not is_dict:
        spliced = _splice_numbers(value, level)
        if spliced is not None:
            out.append(spliced)
            return
    inner = "\n" + _INDENT * (level + 1)
    close = "\n" + _INDENT * level
    if is_dict:
        out.append("{")
        for i, (key, v) in enumerate(sorted(value.items())):
            out.append(("," if i else "") + inner + _key(key) + ": ")
            _write(v, level + 1, out)
        out.append(close + "}")
    else:
        out.append("[")
        for i, v in enumerate(value):
            out.append(("," if i else "") + inner)
            _write(v, level + 1, out)
        out.append(close + "]")


def _scalar(value) -> str:
    """A scalar or an empty container, which reads the same without indentation."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    # NaN, the infinities, subclasses, empty containers, and the TypeError of
    # what JSON cannot hold, from the encoder itself
    return json.dumps(value)


def _key(key) -> str:
    """A dict key as the encoder writes it: a string, or a scalar's JSON text quoted."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _splice_numbers(value, level: int) -> str | None:
    """``value`` indented at ``level`` from one compact C-encoder call, or None.

    Applies to a list nested to the same depth D throughout, with no empty
    list and ints or floats at the bottom.  Its compact text then holds only
    numbers, brackets and separators, and a separator between siblings D - j
    lists deep reads ``"]" * j + ", " + "[" * j``.  Each is replaced by its
    indented form, longest first, and the shape is checked on the way: every
    bracket must be in the leading or trailing run of D or in a replaced
    separator.  ``None`` sends the list back to the member-by-member walk.
    """
    depth, first = 0, value
    while isinstance(first, (list, tuple)) and first:
        depth, first = depth + 1, first[0]
    if isinstance(first, bool) or not isinstance(first, (int, float)):
        return None
    text = json.dumps(value)
    # strings, objects, true, false and null each need one of these characters
    if any(c in text for c in '"{ul') or "[]" in text:
        return None
    if not (text.startswith("[" * depth) and text.endswith("]" * depth)):
        return None
    # line breaks before the brackets at the depths 1..D, and before a number
    breaks = ["\n" + _INDENT * (level + k) for k in range(depth + 1)]
    body = text[depth:-depth]
    brackets = depth
    for j in range(depth - 1, -1, -1):
        closing = "".join(breaks[k] + "]" for k in range(depth - 1, depth - 1 - j, -1))
        opening = "".join(breaks[k] + "[" for k in range(depth - j, depth))
        separator = "]" * j + ", " + "[" * j
        indented = closing + "," + opening + breaks[depth]
        spliced = body.replace(separator, indented)
        # each replacement lengthens the text by the same amount
        replaced = (len(spliced) - len(body)) // (len(indented) - len(separator))
        brackets += j * replaced
        body = spliced
    # the text is valid JSON, so its "]" count equals its "[" count
    if text.count("[") != brackets:
        return None
    head = "[" + "".join(breaks[k] + "[" for k in range(1, depth)) + breaks[depth]
    tail = "".join(breaks[k] + "]" for k in range(depth - 1, -1, -1))
    return head + body + tail


def load_problem(path: str) -> tuple[BlockOperator, dict]:
    """The operator and solver overrides of a problem file.

    A file that is not UTF-8, not JSON, nested too deeply for the parser or
    off the schema raises :class:`ProblemFormatError`; a path that cannot be
    opened raises ``OSError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.loads(fh.read())
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(f"not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise ProblemFormatError("invalid JSON: nested too deeply") from None
    return problem_from_dict(doc)


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _json_value(x):
    if isinstance(x, float):
        return _finite_or_none(x)
    return x


def record_to_dict(record) -> dict:
    """A dataclass record as JSON, one key per field in declaration order.

    Non-finite floats become ``None``; ints, strs, bools and ``None`` pass
    through unchanged.
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
