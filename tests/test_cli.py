"""Command-line interface: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kreinspace
from kreinspace.blocks import assemble
from kreinspace.cli import main
from kreinspace.serialize import CSV_HEADER, dump_json, problem_to_dict


def write_problem(path, a, solver=None):
    path.write_text(dump_json(problem_to_dict(a, solver)))
    return str(path)


@pytest.fixture
def ij_problem(tmp_path):
    a = assemble([[1j]], [[0.0]], [[0.0]], [[-1j]])
    return write_problem(tmp_path / "ij.json", a)


@pytest.fixture
def anti_problem(tmp_path):
    a = assemble([[-1j]], [[0.0]], [[0.0]], [[1j]])
    return write_problem(tmp_path / "anti.json", a)


@pytest.fixture
def triangular_problem(tmp_path):
    a = assemble([[1j]], [[1.0]], [[0.0]], [[-1j]])
    return write_problem(tmp_path / "tri.json", a)


@pytest.fixture
def scalar_block_problem(tmp_path):
    a = assemble([[0.0]], [[1.0]], [[1.0]], [[-1j]])
    return write_problem(tmp_path / "sb.json", a)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_deterministic(capsys):
    code1, out1, _ = run(capsys, "generate", "--p", "2", "--m", "2", "--margin", "0.5", "--seed", "7")
    code2, out2, _ = run(capsys, "generate", "--p", "2", "--m", "2", "--margin", "0.5", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["version"] == "1"
    assert doc["structure"] == {"p": 2, "m": 2}


def test_generate_margin_is_met(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code, _, _ = run(
        capsys, "generate", "--p", "2", "--m", "2", "--margin", "0.5",
        "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    from kreinspace.blocks import dissipativity_margin
    from kreinspace.serialize import load_problem

    a, _ = load_problem(str(out_path))
    assert dissipativity_margin(a) >= 0.5 - 1e-10


def test_generate_rejects_bad_dimension(capsys):
    code, _, err = run(capsys, "generate", "--p", "0", "--m", "2")
    assert code == 2
    assert "error" in err


def test_solve_ij(capsys, ij_problem):
    code, out, _ = run(capsys, "solve", ij_problem)
    assert code == 0
    doc = json.loads(out)
    k = np.array(doc["K"], dtype=float)
    assert np.abs(k).max() <= 1e-10
    assert doc["restriction_spectrum"][0] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert doc["acceptance"]["passed"] is True


def test_solve_anti_dissipative_exit_3(capsys, anti_problem):
    code, out, _ = run(capsys, "solve", anti_problem)
    assert code == 3
    assert "NotDissipative" in json.loads(out)["error"]


def test_solve_triangular(capsys, triangular_problem):
    code, out, _ = run(capsys, "solve", triangular_problem)
    assert code == 0
    doc = json.loads(out)
    assert np.abs(np.array(doc["K"])).max() <= 1e-8
    assert doc["restriction_spectrum"][0] == pytest.approx([0.0, 1.0], abs=1e-8)


def test_solve_deterministic(capsys, triangular_problem):
    _, out1, _ = run(capsys, "solve", triangular_problem)
    _, out2, _ = run(capsys, "solve", triangular_problem)
    assert out1 == out2


def test_solve_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2


def test_solve_bad_schema(capsys, tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"version": "1", "structure": {"p": 1, "m": 1}}))
    code, _, _ = run(capsys, "solve", str(bad))
    assert code == 2


def test_solve_inconsistent_override(capsys, tmp_path):
    # galerkin dims that do not reach p are an input error
    a = assemble([[1j]], [[0.0]], [[0.0]], [[-1j]])
    path = write_problem(tmp_path / "p.json", a, solver={"galerkin_dims": [2, 3]})
    code, _, err = run(capsys, "solve", path)
    assert code == 2
    assert "error" in err


def test_solve_empty_galerkin_dims_exit_2(capsys, tmp_path):
    a = assemble([[1j]], [[0.0]], [[0.0]], [[-1j]])
    path = write_problem(tmp_path / "p.json", a, solver={"galerkin_dims": []})
    code, out, err = run(capsys, "solve", path)
    assert code == 2
    assert out == ""
    assert "galerkin dims must be nonempty" in err
    assert "Traceback" not in err


def test_exit_code_recomputable_from_report(capsys, tmp_path):
    # re-checking the acceptance triple from the report fields gives the code
    from kreinspace.harness import InstanceSpec, random_dissipative

    a = random_dissipative(InstanceSpec(p=2, m=2, margin=0.5, seed=1))
    path = write_problem(tmp_path / "p.json", a)
    code, out, _ = run(capsys, "solve", path)
    doc = json.loads(out)
    acc = doc["acceptance"]
    redo = (
        doc["K_norm"] <= acc["thresholds"]["k_norm"]
        and doc["invariance_residual"] <= acc["thresholds"]["invariance"]
        and min(im for _, im in doc["restriction_spectrum"]) >= acc["thresholds"]["min_im"]
        and doc["maximal"]
    )
    assert (0 if redo else 1) == code


def test_verify_single_problem_csv(capsys, tmp_path):
    from kreinspace.harness import InstanceSpec, random_dissipative

    a = random_dissipative(InstanceSpec(p=2, m=2, margin=0.5, seed=2))
    path = write_problem(
        tmp_path / "p.json", a, solver={"eps_schedule": [0.5, 0.25, 0.125, 1e-4]}
    )
    csv_path = tmp_path / "out.csv"
    code, out, err = run(capsys, "verify", path, "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("-1,2,2,")
    assert "1/1 instances passed" in err


def test_verify_suite(capsys, tmp_path):
    code, out, err = run(
        capsys, "verify", "--suite", "--seeds", "3", "--p", "2", "--m", "2",
        "--margin", "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["rows"]) == 3
    assert "3/3" in err


def test_verify_suite_negative_control(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "--seeds", "2", "--p", "2", "--m", "2",
        "--margin", "-0.5",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert all("NotDissipative" in (r["error"] or "") for r in doc["rows"])
    assert doc["failure_artifacts"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--p", "2", "--m", "2", "--decay", "nan"],
        ["generate", "--p", "2", "--m", "2", "--margin", "inf"],
        ["verify", "--suite", "--seeds", "1", "--decay", "nan"],
        ["verify", "--suite", "--seeds", "1", "--margin", "nan"],
        ["verify", "--suite", "--seeds", "1", "--coupling", "nan"],
        ["generate", "--p", "2", "--m", "2", "--decay", "1e308"],
    ],
)
def test_non_finite_instance_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be finite" in err


# the solve still overflows in A22 - mu, with mu near |A22|, until the
# problem is scaled first; the warnings are not what this test checks
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_entries_near_the_float_maximum_exit_2(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--p", "2", "--m", "2", "--margin", "1e308")
    assert code == 0
    path = tmp_path / "margin.json"
    path.write_text(out)
    for command in ("solve", "verify"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error: NonFinite:")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "spectrum", str(path))
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("command", ["generate", "solve", "verify"])
@pytest.mark.parametrize("target", ["missing/out.json", "existing_dir"])
def test_unwritable_output_path_exit_2(capsys, tmp_path, ij_problem, command, target):
    (tmp_path / "existing_dir").mkdir()
    path = str(tmp_path / target)
    argv = {
        "generate": ["generate", "--p", "2", "--m", "2", "--out", path],
        "solve": ["solve", ij_problem, "--out", path],
        "verify": ["verify", ij_problem, "--csv", path],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {path}:")
    assert sorted(tmp_path.rglob("*")) == before


def test_verify_needs_input(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_spectrum_diagonal(capsys, tmp_path):
    from kreinspace.geometry import KreinStructure
    from kreinspace.blocks import decompose

    a = decompose(np.diag([2j, -3j]), KreinStructure(1, 1))
    path = write_problem(tmp_path / "d.json", a)
    code, out, _ = run(capsys, "spectrum", path)
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["spectrum_A"], [[0.0, 2.0], [0.0, -3.0]], atol=1e-12)


def test_spectrum_triangular_and_restriction(capsys, triangular_problem):
    code, out, _ = run(capsys, "spectrum", triangular_problem)
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["spectrum_A"], [[0.0, 1.0], [0.0, -1.0]], atol=1e-12)
    np.testing.assert_allclose(doc["spectrum_restriction"], [[0.0, 1.0]], atol=1e-12)
    assert doc["contour_used"]["kind"] == "semicircle_upper"


def test_spectrum_profile(capsys, scalar_block_problem):
    code, out, _ = run(capsys, "spectrum", scalar_block_problem, "--profile", "1,10,100")
    assert code == 0
    doc = json.loads(out)
    values = [v for _, v in doc["g_decay_profile"]]
    assert values == pytest.approx([0.5, 1 / 11, 1 / 101], abs=1e-12)


def test_spectrum_bad_profile(capsys, scalar_block_problem):
    code, _, _ = run(capsys, "spectrum", scalar_block_problem, "--profile", "10,1")
    assert code == 2


@pytest.mark.parametrize("profile", ["1,nan", "1,inf"])
def test_spectrum_non_finite_profile(capsys, recwarn, scalar_block_problem, profile):
    code, _, err = run(capsys, "spectrum", scalar_block_problem, "--profile", profile)
    assert code == 2
    assert "heights" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_unknown_flag_exit_2(capsys):
    code, _, _ = run(capsys, "generate", "--p", "2", "--m", "2", "--bogus")
    assert code == 2


def test_no_cauchy_exit_4_emits_report(capsys, tmp_path):
    a = assemble([[1.0]], [[1.0]], [[-1.0]], [[-1.0]])
    solver = {"eps_schedule": [1.0, 0.5, 0.25, 1e-4], "polish": False}
    path = write_problem(tmp_path / "no_cauchy.json", a, solver)
    for command in ("solve", "verify"):
        code, out, _ = run(capsys, command, path)
        assert code == 4
        doc = json.loads(out)
        assert doc["error"].startswith("NoCauchyConvergence")
        assert doc["report"]["convergence_trace"]


@pytest.mark.parametrize(
    "a, solver",
    [
        # the exit-4 file, with every acceptance threshold opened wide
        (
            assemble([[1.0]], [[1.0]], [[-1.0]], [[-1.0]]),
            {
                "eps_schedule": [1.0, 0.5, 0.25, 1e-4],
                "polish": False,
                "riccati_tol": 1e9,
                "invariance_tol": 1e9,
                "norm_slack": 1e9,
                "spec_slack": 1e9,
            },
        ),
        # an anti-dissipative operator, with the dissipativity test opened wide
        (assemble([[-1j]], [[0.0]], [[0.0]], [[1j]]), {"dissipativity_tol": 1e9}),
    ],
)
def test_problem_file_cannot_move_thresholds(capsys, tmp_path, a, solver):
    path = write_problem(tmp_path / "p.json", a, solver)
    for command in ("solve", "verify"):
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert "unknown solver keys" in err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_suite_rejects_empty_suite(capsys, seeds):
    code, out, err = run(capsys, "verify", "--suite", "--seeds", seeds)
    assert code == 2
    assert out == ""
    assert "--seeds" in err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("blocks", "A12", [[[False, True]]]),
        ("structure", "p", True),
        ("solver", "mu", [False, True]),
        ("solver", "polish", "no"),
        ("solver", "galerkin_dims", [1.7]),
        ("solver", "galerkin_dims", [True]),
        ("solver", "eps_schedule", 0.5),
        ("solver", "eps_schedule", ["0.5", 1e-4]),
        # well typed, but SolverConfig rejects the values
        ("solver", "eps_schedule", [0.5, 0.5, 1e-4]),
        ("solver", "galerkin_dims", [2, 2]),
        ("solver", "galerkin_dims", 3),
        # an int literal beyond the float range
        ("blocks", "A12", [[[10**400, 0.0]]]),
        ("solver", "eps_schedule", [10**400, 1e-5]),
    ],
)
def test_problem_file_values_are_type_checked(capsys, tmp_path, section, key, value):
    from kreinspace.serialize import (
        ProblemFormatError,
        config_from_overrides,
        load_problem,
    )

    doc = problem_to_dict(assemble([[1j]], [[0.0]], [[0.0]], [[-1j]]))
    doc.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(dump_json(doc))
    with pytest.raises(ProblemFormatError):
        config_from_overrides(load_problem(str(path))[1])
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not_utf8", "nested_100000_deep"],
)
def test_unreadable_problem_file_exit_2(capsys, tmp_path, content):
    from kreinspace.serialize import ProblemFormatError, load_problem

    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ProblemFormatError):
        load_problem(str(path))
    for command in ("solve", "verify", "spectrum"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ProblemFormatError:")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "missing.json"],
        ["verify", "."],
        ["spectrum", "{problem}", "--profile", "1,x"],
        ["verify", "--suite", "--seeds", "2", "--p", "0"],
    ],
    ids=["missing", "directory", "profile_not_numbers", "p_zero"],
)
def test_bad_input_exit_2_without_traceback(capsys, monkeypatch, tmp_path, ij_problem, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *(a.format(problem=ij_problem) for a in argv))
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err


def _raise_type_error(*args, **kwargs):
    raise TypeError("injected defect")


@pytest.mark.parametrize(
    "target, argv",
    [
        ("serialize.problem_from_dict", ["solve", "{problem}"]),
        ("serialize.problem_from_dict", ["verify", "{problem}"]),
        ("harness.random_dissipative", ["generate", "--p", "2", "--m", "2"]),
        ("blocks.g_decay_profile", ["spectrum", "{problem}", "--profile", "1,10"]),
    ],
    ids=["solve", "verify", "generate", "spectrum"],
)
def test_library_defect_is_not_bad_input(monkeypatch, ij_problem, target, argv):
    # only KreinError and OSError mean bad input; a defect keeps its traceback
    monkeypatch.setattr(f"kreinspace.{target}", _raise_type_error)
    with pytest.raises(TypeError, match="injected defect"):
        main([a.format(problem=ij_problem) for a in argv])


def test_solver_config_defect_is_not_a_format_error(monkeypatch, ij_problem):
    # SolverConfig raises a KreinError for every bad value, so anything else
    # is a defect and must not read as a malformed file (exit 2)
    from kreinspace.serialize import config_from_overrides

    monkeypatch.setattr("kreinspace.serialize.SolverConfig", _raise_type_error)
    with pytest.raises(TypeError, match="injected defect"):
        config_from_overrides({})
    with pytest.raises(TypeError, match="injected defect"):
        main(["solve", ij_problem])


def test_krein_threads_sets_blas_variables():
    # a fresh interpreter each time: the cap only acts before numpy is loaded
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(kreinspace.__file__).parents[1])
    probe = "import os, kreinspace; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    for value, expected in (("2", "2"), ("bogus", "None")):
        env["KREIN_THREADS"] = value
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == expected
