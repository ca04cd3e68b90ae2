"""Instance generator and batch suite behavior."""

import math
import sys

import numpy as np
import pytest

from kreinspace import blocks, harness, projectors, serialize
from kreinspace.blocks import (
    dissipativity_margin,
    factorization_residual,
    resolvent_identity_residuals,
    schur_data,
)
from kreinspace.errors import KreinError
from kreinspace.harness import (
    InstanceSpec,
    check_instance,
    random_dissipative,
    run_property_suite,
)
from kreinspace.solver import SolverConfig, solve_theorem, solve_uniformly_dissipative

FAST = SolverConfig(eps_schedule=(0.5, 0.25, 0.125, 1e-4))


def test_determinism():
    spec = InstanceSpec(p=3, m=4, margin=0.3, seed=21)
    a = random_dissipative(spec)
    b = random_dissipative(spec)
    np.testing.assert_array_equal(a.to_matrix(), b.to_matrix())


def test_seed_changes_instance():
    a = random_dissipative(InstanceSpec(p=3, m=3, seed=1))
    b = random_dissipative(InstanceSpec(p=3, m=3, seed=2))
    assert np.linalg.norm(a.to_matrix() - b.to_matrix(), 2) > 0.1


def test_margin_is_exact():
    a = random_dissipative(InstanceSpec(p=4, m=4, margin=0.25, seed=3))
    assert dissipativity_margin(a) == pytest.approx(0.25, abs=1e-9)


def test_negative_margin_target():
    a = random_dissipative(InstanceSpec(p=2, m=2, margin=-1.0, seed=4))
    assert dissipativity_margin(a) == pytest.approx(-1.0, abs=1e-9)


def test_a22_decay_adds_dominance():
    base = InstanceSpec(p=3, m=3, margin=0.1, seed=5)
    heavy = InstanceSpec(p=3, m=3, margin=0.1, a22_decay=2.0, seed=5)
    a = random_dissipative(base)
    b = random_dissipative(heavy)
    for name in ("a11", "a12", "a21"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert dissipativity_margin(b) >= dissipativity_margin(a) - 1e-12
    profile = 2.0 * (1.0 + np.arange(3)) / 3
    np.testing.assert_array_equal(b.a22, a.a22 - 1j * np.diag(profile))


def test_zero_coupling_decouples():
    a = random_dissipative(InstanceSpec(p=3, m=2, margin=0.5, coupling_scale=0.0, seed=6))
    np.testing.assert_array_equal(a.a12, np.zeros((3, 2)))
    np.testing.assert_array_equal(a.a21, np.zeros((2, 3)))
    rep = solve_theorem(a, FAST)
    assert rep.k_norm <= 1e-8


def test_suite_passes_on_dissipative_ensemble():
    specs = [InstanceSpec(p=3, m=3, margin=0.5, seed=s) for s in range(4)]
    suite = run_property_suite(specs, FAST)
    assert suite.passed
    assert suite.no_cauchy_count == 0
    for row in suite.results:
        assert row.passed and row.error is None
        assert row.k_norm < 1.0
        assert row.estimate10_slack >= -1e-8


def test_suite_cross_checks_quadrature_against_schur(monkeypatch):
    specs = [InstanceSpec(p=3, m=3, margin=0.1, seed=s) for s in range(2)]
    suite = run_property_suite(specs, FAST)
    assert suite.passed
    for row in suite.results:
        assert row.checks["quadrature"]
        assert row.quadrature_gap <= 1e-7
    # a sign iteration that never settles fails the check, and the suite
    monkeypatch.setattr(projectors, "SIGN_TOL", -1.0)
    suite = run_property_suite(specs[:1], FAST)
    row = suite.results[0]
    assert row.error is None
    assert row.checks["quadrature"] is False and row.quadrature_gap == np.inf
    assert not row.passed and not suite.passed
    assert suite.failure_artifacts[0]["checks"]["quadrature"] is False


@pytest.fixture(scope="module")
def solved_24():
    a = random_dissipative(InstanceSpec(p=24, m=24, margin=0.1, seed=0))
    return a, solve_theorem(a)


def test_check_instance_runs_no_floor_svd(monkeypatch, solved_24):
    # every shifted stack of a 24+24 check clears the screen of shifted_stack
    floor_svds = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "shifted_stack":
            floor_svds.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    a, rep = solved_24
    assert check_instance(a, rep, SolverConfig(), seed=0).passed
    assert floor_svds == []


def test_default_cross_check_takes_five_or_six_sign_steps(monkeypatch, solved_24):
    # A + iJ keeps its spectrum margin + 1 from the axis, so the scaled
    # Newton sign iteration settles in a few LU steps
    used = []
    original = harness._sign_projector

    def recording(mat, clearance):
        q, steps = original(mat, clearance)
        used.append(steps)
        return q, steps

    monkeypatch.setattr(harness, "_sign_projector", recording)
    a, rep = solved_24
    res = check_instance(a, rep, SolverConfig(), seed=0)
    assert res.checks["quadrature"] and res.quadrature_gap <= 1e-13
    assert len(used) == 1 and used[0] in (5, 6)


def test_check_instance_runs_no_contour_quadrature(monkeypatch, solved_24):
    def refuses(*args, **kwargs):
        raise AssertionError("the harness ran the contour quadrature")

    monkeypatch.setattr(projectors, "_contour_nodes", refuses)
    a, rep = solved_24
    res = check_instance(a, rep, SolverConfig(), seed=0)
    assert res.passed and res.checks["quadrature"]


def test_check_instance_identities_equal_the_scalar_helpers():
    # margin 0 skips the G bound, so the identity samples are the first
    # draws of the instance's generator; each is checked here as its own
    # one-shift stack
    spec = InstanceSpec(p=4, m=3, margin=0.0, seed=9)
    a = random_dissipative(spec)
    res = check_instance(a, solve_theorem(a), SolverConfig(), seed=spec.seed)
    rng = np.random.Generator(np.random.Philox(key=spec.seed, counter=1))
    worst_fact = worst_id = 0.0
    for _ in range(3):
        mu = rng.uniform(-2, 2) + 1j * rng.uniform(0.5, 3.0)
        lam = rng.uniform(-2, 2) + 1j * rng.uniform(0.5, 3.0)
        eps = rng.uniform(1e-6, 1.0)
        sd = schur_data(a, [mu])
        worst_fact = max(worst_fact, float(factorization_residual(a, sd)[0]))
        ident = resolvent_identity_residuals(a, sd, [lam], [eps])
        worst_id = max(worst_id, *(float(r[0]) for r in ident))
    assert res.factorization_worst == worst_fact
    assert res.identity_worst == worst_id
    assert res.checks["factorization"] and res.checks["identities"]


@pytest.mark.parametrize("margin, stacks", [(0.1, 5), (1.0, 5), (0.0, 3), (1e-9, 3)])
def test_check_instance_builds_each_stack_once(monkeypatch, margin, stacks):
    # the G bound, the identities' mu, lambda and mu + i eps, and the
    # asymptotics; the last and first are vacuous at margin <= 1e-8
    spec = InstanceSpec(p=4, m=3, margin=margin, seed=4)
    a = random_dissipative(spec)
    rep = solve_theorem(a)
    calls = []
    original = blocks.shifted_stack

    def counting(m, mu):
        calls.append(np.shape(mu))
        return original(m, mu)

    monkeypatch.setattr(blocks, "shifted_stack", counting)
    assert check_instance(a, rep, SolverConfig(), seed=spec.seed).passed
    assert len(calls) == stacks


def test_suite_negative_control():
    specs = [
        InstanceSpec(p=2, m=2, margin=0.5, seed=0),
        InstanceSpec(p=2, m=2, margin=-0.5, seed=1),
    ]
    suite = run_property_suite(specs, FAST)
    assert not suite.passed
    bad = suite.results[1]
    assert bad.error is not None and "NotDissipative" in bad.error
    assert suite.failure_artifacts
    assert suite.failure_artifacts[0]["spec"]["seed"] == 1


def test_suite_draws_each_instance_once(monkeypatch):
    # the failure artifact reuses the drawn instance
    drawn = []
    original = harness.random_dissipative

    def counting(spec):
        drawn.append(spec.seed)
        return original(spec)

    monkeypatch.setattr(harness, "random_dissipative", counting)
    specs = [
        InstanceSpec(p=2, m=2, margin=0.5, seed=0),
        InstanceSpec(p=2, m=2, margin=-0.5, seed=1),
    ]
    suite = run_property_suite(specs, FAST)
    assert drawn == [0, 1]
    assert suite.failure_artifacts[0]["problem"] == serialize.problem_to_dict(
        original(specs[1])
    )


def test_scaling_covariance():
    # scaling A leaves K unchanged (K does not depend on the report's mu)
    a = random_dissipative(InstanceSpec(p=3, m=3, margin=0.6, seed=7))
    s = 2.0
    scaled = type(a)(a.structure, s * a.a11, s * a.a12, s * a.a21, s * a.a22)
    r1 = solve_uniformly_dissipative(a)
    r2 = solve_uniformly_dissipative(scaled)
    np.testing.assert_allclose(r1.k.matrix, r2.k.matrix, atol=1e-8)


def test_unitary_covariance():
    rng = np.random.Generator(np.random.Philox(8))
    a = random_dissipative(InstanceSpec(p=3, m=3, margin=0.6, seed=9))
    up, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    um, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    u = np.block(
        [[up, np.zeros((3, 3))], [np.zeros((3, 3)), um]]
    )
    rotated = type(a)(
        a.structure,
        up @ a.a11 @ up.conj().T,
        up @ a.a12 @ um.conj().T,
        um @ a.a21 @ up.conj().T,
        um @ a.a22 @ um.conj().T,
    )
    np.testing.assert_allclose(
        rotated.to_matrix(), u @ a.to_matrix() @ u.conj().T, atol=1e-12
    )
    r1 = solve_uniformly_dissipative(a)
    r2 = solve_uniformly_dissipative(rotated)
    np.testing.assert_allclose(r2.k.matrix, um @ r1.k.matrix @ up.conj().T, atol=1e-8)


def test_spec_validation():
    with pytest.raises(Exception):
        InstanceSpec(p=0, m=2)
    with pytest.raises(Exception):
        InstanceSpec(p=2, m=2, coupling_scale=-1.0)
    for field, value in [
        ("margin", math.nan),
        ("margin", -math.inf),
        ("a22_decay", math.nan),
        ("a22_decay", math.inf),
        ("coupling_scale", math.nan),
        ("coupling_scale", math.inf),
    ]:
        with pytest.raises(KreinError, match=f"{field} must be finite"):
            InstanceSpec(p=2, m=2, **{field: value})
    # a negative margin stays allowed: it makes a negative control
    assert InstanceSpec(p=2, m=2, margin=-0.5).margin == -0.5


@pytest.mark.parametrize(
    ("field", "value"), [("p", 2.5), ("m", True), ("seed", 2.0), ("seed", False)]
)
def test_spec_rejects_non_integer_fields(field, value):
    kwargs = {"p": 2, "m": 2, field: value}
    with pytest.raises(KreinError, match=f"{field} must be an integer"):
        InstanceSpec(**kwargs)


def test_spec_accepts_numpy_integers():
    spec = InstanceSpec(p=np.int64(2), m=np.int32(3), seed=np.uint8(4))
    assert (spec.p, spec.m, spec.seed) == (2, 3, 4)
    assert all(type(x) is int for x in (spec.p, spec.m, spec.seed))
    np.testing.assert_array_equal(
        random_dissipative(spec).to_matrix(),
        random_dissipative(InstanceSpec(p=2, m=3, seed=4)).to_matrix(),
    )
