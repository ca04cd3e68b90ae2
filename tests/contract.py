"""The CLI contract corpus: fixed commands, their inputs and expected outputs.

``tests/data/contract/`` holds the problem files the commands read and
``expected.json``, the exit code, stdout, stderr and CSV sidecar of every
command.  ``tests/test_contract.py`` replays the commands against it:
exit codes, JSON key sets, list lengths, strings, the CSV header and the
``generate`` bytes must match exactly, numbers to ``REL_TOL``/``ABS_TOL``.

Regenerate the expected outputs after a deliberate change of output with

    PYTHONPATH=src python tests/contract.py

and say in CHANGES.md why they moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

# numpy is not loaded yet: one BLAS thread, as in the test session
os.environ.setdefault("KREIN_THREADS", "1")

import kreinspace  # noqa: E402, F401
from kreinspace.blocks import assemble  # noqa: E402
from kreinspace.cli import main  # noqa: E402
from kreinspace.serialize import dump_json, problem_to_dict  # noqa: E402

DATA = Path(__file__).parent / "data" / "contract"
REL_TOL = 1e-9
ABS_TOL = 1e-12
# (p, m, margin, seed) of the generated problems, all at coupling 5
GENERATED = [
    (4, 4, 0, 0), (4, 4, 0.1, 1), (5, 3, 1, 2), (6, 6, 0, 3), (3, 5, 1e-6, 4), (8, 8, 0.1, 5),
]
# the scalar problem whose regularization tail does not converge (exit 4)
NO_CAUCHY = "no_cauchy.json"


def _generate_argv(p, m, margin, seed):
    return [
        "generate", "--p", str(p), "--m", str(m), "--margin", str(margin),
        "--coupling", "5", "--seed", str(seed),
    ]


def _problem_name(p, m, margin, seed):
    return f"p{p}_m{m}_margin{margin}_seed{seed}.json"


def write_no_cauchy(path: Path) -> None:
    a = assemble([[1.0]], [[1.0]], [[-1.0]], [[-1.0]])
    solver = {"eps_schedule": [1.0, 0.5, 0.25, 1e-4], "polish": False}
    path.write_text(dump_json(problem_to_dict(a, solver)))


def commands() -> dict[str, list[str]]:
    """Every command of the corpus by name; ``{data}``/``{csv}`` are paths."""
    cmds = {}
    problems = [_problem_name(*g) for g in GENERATED] + [NO_CAUCHY]
    for g in GENERATED:
        cmds["generate " + _problem_name(*g)] = _generate_argv(*g)
    for name in problems:
        path = "{data}/" + name
        cmds["solve " + name] = ["solve", path]
        cmds["verify " + name] = ["verify", path, "--csv", "{csv}"]
        cmds["spectrum " + name] = ["spectrum", path, "--profile", "1,10,100"]
    cmds["verify --suite"] = [
        "verify", "--suite", "--seeds", "6", "--p", "3", "--m", "4",
        "--margin", "0.1", "--csv", "{csv}",
    ]
    return cmds


def run_command(argv: list[str], data: Path) -> dict:
    """Run one CLI command in process: exit code, stdout, stderr and CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "out.csv")
        args = [a.format(data=data, csv=csv_path) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        csv = Path(csv_path).read_text() if os.path.exists(csv_path) else None
    stdout = out.getvalue()
    if argv[0] != "generate" and stdout:
        stdout = json.loads(stdout)
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue(), "csv": csv}


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Where one command's ``actual`` outcome departs from ``expected``."""
    found = [
        f"{key}: {actual[key]!r} != {expected[key]!r}"
        for key in ("exit", "stderr")
        if actual[key] != expected[key]
    ]
    found += _json_mismatches(expected["stdout"], actual["stdout"], "stdout")
    if (expected["csv"] is None) != (actual["csv"] is None):
        found.append("csv: present on one side only")
    elif expected["csv"] is not None:
        exp_lines, act_lines = expected["csv"].splitlines(), actual["csv"].splitlines()
        if exp_lines[:1] != act_lines[:1]:
            found.append("csv: header differs")
        found += _json_mismatches(_csv_rows(exp_lines), _csv_rows(act_lines), "csv")
    return found


def _json_mismatches(expected, actual, where: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ"]
        return [
            m for k in expected for m in _json_mismatches(expected[k], actual[k], f"{where}.{k}")
        ]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: lengths differ"]
        return [
            m for i, (e, a) in enumerate(zip(expected, actual))
            for m in _json_mismatches(e, a, f"{where}[{i}]")
        ]
    if _is_number(expected) and _is_number(actual):
        same = (math.isnan(expected) and math.isnan(actual)) or math.isclose(
            expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
        return [] if same else [f"{where}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _csv_rows(lines: list[str]) -> list[list]:
    return [[_csv_field(f) for f in line.split(",")] for line in lines[1:]]


def _csv_field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def regenerate() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    write_no_cauchy(DATA / NO_CAUCHY)
    for g in GENERATED:
        doc = run_command(_generate_argv(*g), DATA)
        (DATA / _problem_name(*g)).write_text(doc["stdout"])
    expected = {
        name: run_command(argv, DATA)
        for name, argv in commands().items()
        if argv[0] != "generate"
    }
    (DATA / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {DATA}", file=sys.stderr)
