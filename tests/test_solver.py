"""The regularized Galerkin pipeline and its Riccati layer."""

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg

from kreinspace import projectors, solver
from kreinspace.blocks import assemble, decompose, dissipativity_margin, schur_data
from kreinspace.errors import (
    DimensionMismatch,
    NoCauchyConvergence,
    NotDissipative,
    NotNonnegative,
    NotUniformlyDissipative,
    QuadratureNotConverged,
)
from kreinspace.geometry import (
    AngleOperator,
    KreinStructure,
    angle_operator_from_subspace,
)
from kreinspace.harness import InstanceSpec, random_dissipative
from kreinspace.numerics import operator_norm
from kreinspace.projectors import (
    default_contour_radius,
    invariant_subspace_from_projector,
    riesz_projector_quadrature,
)
from kreinspace.serialize import acceptance_triple, report_to_dict
from kreinspace.solver import (
    DOUBLE_LIMIT_EPS_SCHEDULE,
    SolverConfig,
    galerkin_truncate,
    graph_defect,
    regularize,
    riccati_residual,
    solve_theorem,
    solve_uniformly_dissipative,
)

I_J = assemble([[1j]], [[0.0]], [[0.0]], [[-1j]])
TRIANGULAR = assemble([[1j]], [[1.0]], [[0.0]], [[-1j]])
# JA is Hermitian and singular: margin exactly 0, nilpotent, neutral eigenline
BOUNDARY = assemble([[1.0]], [[1.0]], [[-1.0]], [[-1.0]])

FAST = SolverConfig(eps_schedule=(0.5, 0.25, 0.125, 1e-4))


def manufactured_invariant_pair(seed, p=3, m=3, k_scale=0.8):
    """Build (A, K) with the graph of K exactly invariant."""
    rng = np.random.Generator(np.random.Philox(seed))
    a11 = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    a12 = rng.standard_normal((p, m)) + 1j * rng.standard_normal((p, m))
    a22 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    k = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
    k *= k_scale / np.linalg.norm(k, 2)
    a21 = k @ a11 + k @ a12 @ k - a22 @ k
    return assemble(a11, a12, a21, a22), k


def test_regularize_zero_is_identity():
    a = random_dissipative(InstanceSpec(p=2, m=2, margin=0.1, seed=0))
    b = regularize(a, 0.0)
    np.testing.assert_array_equal(a.to_matrix(), b.to_matrix())


def test_regularize_zero_operator():
    zero = assemble([[0.0]], [[0.0]], [[0.0]], [[0.0]])
    b = regularize(zero, 1.0)
    np.testing.assert_allclose(b.to_matrix(), np.diag([1j, -1j]))
    assert dissipativity_margin(b) == pytest.approx(1.0)


def test_regularize_shifts_margin_exactly():
    a = random_dissipative(InstanceSpec(p=3, m=4, margin=0.0, seed=1))
    before = dissipativity_margin(a)
    after = dissipativity_margin(regularize(a, 0.3))
    assert after - before == pytest.approx(0.3, abs=1e-12)


def test_galerkin_full_dimension_is_identity():
    a = random_dissipative(InstanceSpec(p=3, m=2, margin=0.2, seed=2))
    b = galerkin_truncate(a, 3)
    # the full-dimension compression is the operator itself, not a rebuilt copy
    assert b is a


def test_galerkin_single_coordinate():
    a = decompose(np.diag([1j, 2j, -1j]), KreinStructure(2, 1))
    b = galerkin_truncate(a, 1)
    np.testing.assert_allclose(b.a11, [[1j]])
    np.testing.assert_allclose(b.a22, [[-1j]])


def test_galerkin_congruence_oracle():
    # the coordinate basis compresses to the leading block slices exactly
    a = random_dissipative(InstanceSpec(p=3, m=2, margin=0.1, seed=4))
    b = galerkin_truncate(a, 2)
    np.testing.assert_array_equal(b.a11, a.a11[:2, :2])
    np.testing.assert_array_equal(b.a12, a.a12[:2, :])
    np.testing.assert_array_equal(b.a21, a.a21[:, :2])
    np.testing.assert_array_equal(b.a22, a.a22)


def test_riccati_zero_cases():
    a = assemble([[1j]], [[1.0]], [[0.0]], [[-1j]])
    res, l_op = riccati_residual(a, AngleOperator(KreinStructure(1, 1), [[0.0]]), 1j)
    assert res <= 1e-14
    np.testing.assert_allclose(l_op, [[0.0]])


def test_riccati_matches_graph_defect():
    a, k_mat = manufactured_invariant_pair(seed=6)
    k_bad = k_mat + 0.01
    s = KreinStructure(3, 3)
    mu = 1j * (1.0 + np.linalg.norm(a.a22, 2))
    res_good, _ = riccati_residual(a, AngleOperator(s, k_mat), mu)
    res_bad, _ = riccati_residual(a, AngleOperator(s, k_bad), mu)
    assert res_good <= 1e-10
    assert res_bad == pytest.approx(np.linalg.norm(graph_defect(a, k_bad), 2), rel=1e-9)
    # the residual does not depend on the shift
    res_bad2, _ = riccati_residual(a, AngleOperator(s, k_bad), 5j + 1)
    assert res_bad2 == pytest.approx(res_bad, rel=1e-9)


def test_riccati_invariance_equivalence():
    # |defect|/2 <= invariance residual <= |defect| for contractions
    rng = np.random.Generator(np.random.Philox(7))
    hits = 0
    for seed in range(100):
        a, k_mat = manufactured_invariant_pair(seed=100 + seed)
        if rng.random() < 0.5:
            k_mat = k_mat + rng.uniform(1e-4, 1e-1) * rng.standard_normal((3, 3))
            nrm = np.linalg.norm(k_mat, 2)
            if nrm > 1.0:
                k_mat /= nrm
        defect = np.linalg.norm(graph_defect(a, k_mat), 2)
        stacked = np.vstack([np.eye(3), k_mat])
        basis, _ = np.linalg.qr(stacked)
        full = a.to_matrix()
        inv = np.linalg.norm(
            full @ basis - basis @ (basis.conj().T @ full @ basis), 2
        )
        assert inv <= defect + 1e-12
        assert inv >= defect / 2 - 1e-12
        hits += defect > 1e-12
    assert 20 <= hits <= 80  # both branches exercised


def test_restriction_matrix_trivial():
    a = decompose(np.diag([1j, -1j]), KreinStructure(1, 1))
    sd = schur_data(a, 2j)
    _, l_op = riccati_residual(a, AngleOperator(KreinStructure(1, 1), [[0.0]]), 2j)
    r = sd.s + sd.g @ l_op
    np.testing.assert_allclose(r, [[1j]], atol=1e-14)


def test_restriction_matrix_manufactured():
    a, k_mat = manufactured_invariant_pair(seed=8)
    s = KreinStructure(3, 3)
    mu = 1j * (1.0 + np.linalg.norm(a.a22, 2))
    sd = schur_data(a, mu)
    _, l_op = riccati_residual(a, AngleOperator(s, k_mat), mu)
    r = sd.s + sd.g @ l_op
    np.testing.assert_allclose(r, a.a11 + a.a12 @ k_mat, atol=1e-9)
    # compression oracle on the orthonormalized graph
    stacked = np.vstack([np.eye(3), k_mat])
    basis, _ = np.linalg.qr(stacked)
    compressed = basis.conj().T @ a.to_matrix() @ basis
    got = np.sort_complex(np.linalg.eigvals(r))
    want = np.sort_complex(np.linalg.eigvals(compressed))
    np.testing.assert_allclose(got, want, atol=1e-7)


def test_solve_uniform_ij():
    rep = solve_uniformly_dissipative(I_J)
    np.testing.assert_allclose(rep.k.matrix, [[0.0]], atol=1e-10)
    np.testing.assert_allclose(rep.restriction_spectrum, [1j], atol=1e-10)
    assert rep.estimate10.lower_bound == pytest.approx(2 / np.pi, rel=1e-9)
    assert rep.estimate10.min_rayleigh == pytest.approx(1.0, abs=1e-10)
    assert rep.maximal


def test_solve_uniform_triangular():
    rep = solve_uniformly_dissipative(TRIANGULAR)
    np.testing.assert_allclose(rep.k.matrix, [[0.0]], atol=1e-9)
    np.testing.assert_allclose(rep.l_op, [[0.0]], atol=1e-9)
    assert rep.riccati_residual <= 1e-9
    np.testing.assert_allclose(rep.restriction_spectrum, [1j], atol=1e-9)


def test_solve_uniform_requires_margin():
    with pytest.raises(NotUniformlyDissipative):
        solve_uniformly_dissipative(BOUNDARY)


def quadrature_k(a):
    """K of the range of the contour-quadrature projector, built without the solver."""
    full = a.to_matrix()
    rep = riesz_projector_quadrature(full, default_contour_radius(full))
    subspace = invariant_subspace_from_projector(full, rep, a.structure)
    return angle_operator_from_subspace(subspace).matrix


def test_solve_uniform_quadrature_vs_exact():
    for seed in (10, 11, 12):
        a = random_dissipative(InstanceSpec(p=4, m=3, margin=0.5, seed=seed))
        rep = solve_uniformly_dissipative(a)
        assert rep.k_norm < 1.0
        np.testing.assert_allclose(rep.k.matrix, quadrature_k(a), rtol=0, atol=1e-10)
        assert rep.riccati_residual <= 1e-8 * (
            np.linalg.norm(schur_data(a, rep.mu).s, 2) + abs(rep.mu)
        )
        assert rep_min_im(rep) > 0


def test_quadrature_ladder_budgets_and_fallback(monkeypatch):
    # solve_theorem reads K from Schur bases only; the quadrature is never reached
    calls = []

    def never_converges(*args):
        calls.append(args)
        raise QuadratureNotConverged("forced")

    monkeypatch.setattr(projectors, "riesz_projector_quadrature", never_converges)
    monkeypatch.setattr(projectors, "_contour_nodes", never_converges)
    a = random_dissipative(InstanceSpec(4, 3, 0.5, seed=1))
    rep = solve_theorem(a, FAST)
    assert rep.convergence_trace
    assert all(t.ok and t.projector_method == "schur" for t in rep.convergence_trace)
    assert calls == []


def rep_min_im(rep):
    return float(np.min(rep.restriction_spectrum.imag))


def test_solve_theorem_ij():
    rep = solve_theorem(I_J, FAST)
    np.testing.assert_allclose(rep.k.matrix, [[0.0]], atol=1e-10)
    np.testing.assert_allclose(rep.restriction_spectrum, [1j], atol=1e-10)
    cells = [t for t in rep.convergence_trace if t.ok]
    assert cells and all(t.k_norm <= 1e-9 for t in cells)
    assert rep.maximal


def test_solve_theorem_matches_direct_solve():
    a = random_dissipative(InstanceSpec(p=6, m=6, margin=0.8, seed=13))
    rep_full = solve_theorem(a)
    np.testing.assert_allclose(rep_full.k.matrix, quadrature_k(a), atol=1e-6)


def test_solve_theorem_trace_contracts():
    a = random_dissipative(InstanceSpec(p=4, m=4, margin=0.3, seed=14))
    cfg = SolverConfig(eps_schedule=DOUBLE_LIMIT_EPS_SCHEDULE, galerkin_dims=(1, 2, 4))
    rep = solve_theorem(a, cfg)
    assert {t.n for t in rep.convergence_trace} == {1, 2, 4}
    cells = [t for t in rep.convergence_trace if t.ok]
    assert cells
    assert all(t.k_norm < 1.0 for t in cells)
    assert all(t.l_bound_ok for t in cells)
    assert all(t.restriction_min_im > 0 for t in cells)
    # the full-dimension tail decreases geometrically
    diffs = [t.k_dist_prev for t in cells if t.n == 4 and t.k_dist_prev is not None]
    assert diffs[-1] <= diffs[2]


@pytest.mark.parametrize(
    "spec",
    [
        InstanceSpec(p=4, m=4, margin=0.0, seed=0),
        InstanceSpec(p=4, m=3, margin=1e-6, seed=1),
        InstanceSpec(p=5, m=4, margin=0.1, seed=2),
        InstanceSpec(p=3, m=5, margin=1.0, seed=3),
        InstanceSpec(p=4, m=4, margin=0.0, coupling_scale=30.0, seed=4),
        InstanceSpec(p=1, m=3, margin=0.1, seed=5),
        InstanceSpec(p=3, m=1, margin=1e-6, coupling_scale=30.0, seed=6),
    ],
)
def test_default_schedule_is_the_double_limit_tail(spec):
    a = random_dissipative(spec)
    p = spec.p
    full_cfg = SolverConfig(
        eps_schedule=DOUBLE_LIMIT_EPS_SCHEDULE,
        galerkin_dims=sorted({math.ceil(p / 4), math.ceil(p / 2), p}),
    )
    cfg = SolverConfig()
    rep = solve_theorem(a, cfg)
    full = solve_theorem(a, full_cfg)
    # the two schedules continue their tail cells from Schur forms taken at
    # different eps, so they agree at rounding level
    np.testing.assert_allclose(rep.k.matrix, full.k.matrix, rtol=0, atol=1e-14)
    assert (rep.mu, rep.polish_method) == (full.mu, full.polish_method)
    doc, full_doc = (report_to_dict(r, a.norm(), cfg) for r in (rep, full))
    del doc["convergence_trace"], full_doc["convergence_trace"]
    assert_docs_close(doc, full_doc, 1e-12)
    # the default cells are the last three full-dimension cells of the grid
    assert len(rep.convergence_trace) == 3
    assert all(t.n == p for t in rep.convergence_trace)
    tail = [t for t in full.convergence_trace if t.n == p][-3:]
    for got, want in zip(rep.convergence_trace, tail):
        assert (got.eps, got.ok, got.l_bound_ok) == (want.eps, want.ok, want.l_bound_ok)
        np.testing.assert_allclose(
            [got.k_norm, got.l_norm, got.restriction_min_im],
            [want.k_norm, want.l_norm, want.restriction_min_im],
            rtol=1e-12,
            atol=1e-12,
        )


def assert_docs_close(got, want, tol, path="report"):
    """Equal JSON documents, but numbers may differ by tol (relative above 1)."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_docs_close(got[key], want[key], tol, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_docs_close(g, w, tol, f"{path}[{i}]")
    elif isinstance(want, float) and math.isfinite(want):
        assert abs(got - want) <= tol * max(1.0, abs(want)), (path, got, want)
    else:
        assert got == want, path


def _fresh_cells(monkeypatch):
    """Make every cell take its own sorted Schur form, as before continuation."""
    monkeypatch.setattr(solver, "_continued_angle_operator", lambda *args: None)


def _record_continuations(monkeypatch):
    """Record (cell, continued K or None) for every continuation attempt."""
    attempts = []
    continued = solver._continued_angle_operator

    def recorder(cell, form, norm_bound):
        k = continued(cell, form, norm_bound)
        attempts.append((cell, k))
        return k

    monkeypatch.setattr(solver, "_continued_angle_operator", recorder)
    return attempts


def _fresh_cell(cell):
    k, _ = solver._upper_projector(cell, dissipativity_margin(cell), cell.norm())
    return k.matrix


CONTINUATION_SPECS = [
    InstanceSpec(p=4, m=4, margin=0.0, seed=20),
    InstanceSpec(p=5, m=3, margin=1e-6, seed=21),
    InstanceSpec(p=4, m=5, margin=0.1, seed=22),
    InstanceSpec(p=3, m=3, margin=1.0, seed=23),
    InstanceSpec(p=4, m=4, margin=0.0, coupling_scale=30.0, seed=24),
    InstanceSpec(p=1, m=3, margin=1e-6, seed=25),
    InstanceSpec(p=3, m=1, margin=0.1, coupling_scale=30.0, seed=26),
]


@pytest.mark.parametrize("spec", CONTINUATION_SPECS)
def test_continued_cells_match_fresh_schur_cells(spec, monkeypatch):
    a = random_dissipative(spec)
    p = spec.p
    grid = SolverConfig(
        eps_schedule=DOUBLE_LIMIT_EPS_SCHEDULE,
        galerkin_dims=sorted({math.ceil(p / 4), math.ceil(p / 2), p}),
    )
    for cfg in (SolverConfig(), grid):
        attempts = _record_continuations(monkeypatch)
        rep = solve_theorem(a, cfg)
        continued = [(cell, k) for cell, k in attempts if k is not None]
        # the default tail continues both later cells; the grid continues
        # cells in every Galerkin row
        if cfg.galerkin_dims is None:
            assert len(continued) == 2
        else:
            rows = {cell.structure.p for cell, _ in continued}
            assert rows == set(grid.galerkin_dims)
        for cell, k in continued:
            np.testing.assert_allclose(k, _fresh_cell(cell), rtol=0, atol=1e-13)
        # every trace number is the one of the cell's own Schur form
        prev = {}
        for t in rep.convergence_trace:
            assert t.ok and t.projector_method == "schur"
            cell = regularize(galerkin_truncate(a, t.n), t.eps)
            k = _fresh_cell(cell)
            k_tilde = np.zeros((spec.m, p), dtype=complex)
            k_tilde[:, : t.n] = k
            l_op = cell.a21 + (cell.a22 - rep.mu * np.eye(spec.m)) @ k
            restriction = cell.a11 + cell.a12 @ k
            want = [
                np.linalg.norm(k, 2),
                np.linalg.norm(l_op, 2),
                np.min(np.linalg.eigvals(restriction).imag),
            ]
            got = [t.k_norm, t.l_norm, t.restriction_min_im]
            if t.n in prev:
                want.append(np.linalg.norm(k_tilde - prev[t.n], 2))
                got.append(t.k_dist_prev)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            prev[t.n] = k_tilde


def test_boundary_block_falls_back_to_fresh_schur_forms(monkeypatch):
    # the Riccati continuation contracts too slowly where the two
    # eigenvalues of the nilpotent block close in on 0 as sqrt(eps)
    attempts = _record_continuations(monkeypatch)
    rep = solve_theorem(BOUNDARY)
    assert [k for _, k in attempts] == [None, None]
    _fresh_cells(monkeypatch)
    fresh = solve_theorem(BOUNDARY)
    np.testing.assert_array_equal(rep.k.matrix, fresh.k.matrix)
    assert report_to_dict(rep, 2.0, SolverConfig()) == report_to_dict(
        fresh, 2.0, SolverConfig()
    )


def _solve_docs(a, cfgs):
    return [report_to_dict(solve_theorem(a, cfg), a.norm(), cfg) for cfg in cfgs]


def test_non_contracting_continuation_is_the_fresh_route(monkeypatch):
    a = random_dissipative(InstanceSpec(p=5, m=4, margin=0.1, seed=27))
    cfgs = (
        SolverConfig(),
        SolverConfig(eps_schedule=DOUBLE_LIMIT_EPS_SCHEDULE, galerkin_dims=(2, 3, 5)),
    )
    attempts = _record_continuations(monkeypatch)
    steps = []

    def zero_step(t22, t11, rhs, isgn):
        # a zero step leaves the residual where it was
        steps.append(isgn)
        return np.zeros_like(rhs), 1.0, 0

    monkeypatch.setattr(solver.scipy.linalg.lapack, "ztrsyl", zero_step)
    stalled = _solve_docs(a, cfgs)
    # each attempt gives up at its first step that does not shrink the residual
    assert attempts and all(k is None for _, k in attempts)
    assert len(steps) == len(attempts)
    monkeypatch.undo()
    _fresh_cells(monkeypatch)
    assert stalled == _solve_docs(a, cfgs)


def _ztrsyl_reports_failure(monkeypatch):
    original = scipy.linalg.lapack.ztrsyl

    def failing(*args, **kwargs):
        x, scale, _ = original(*args, **kwargs)
        return x, scale, 1

    monkeypatch.setattr(solver.scipy.linalg.lapack, "ztrsyl", failing)


def _continued_subspace_is_not_nonnegative(monkeypatch):
    def refusing(subspace):
        if sys._getframe(1).f_code.co_name == "_continued_angle_operator":
            raise NotNonnegative("injected")
        return angle_operator_from_subspace(subspace)

    monkeypatch.setattr(solver, "angle_operator_from_subspace", refusing)


@pytest.mark.parametrize(
    "fault",
    [_ztrsyl_reports_failure, _continued_subspace_is_not_nonnegative],
    ids=["ztrsyl_info", "not_nonnegative"],
)
def test_failed_continuation_takes_its_own_schur_form(monkeypatch, fault):
    a = random_dissipative(InstanceSpec(4, 4, 0.1, seed=0))
    cfg = SolverConfig()
    continued = solve_theorem(a, cfg)
    attempts = _record_continuations(monkeypatch)
    forms = []
    upper = solver._upper_projector

    def counting(*args):
        forms.append(args)
        return upper(*args)

    monkeypatch.setattr(solver, "_upper_projector", counting)
    fault(monkeypatch)
    rep = solve_theorem(a, cfg)
    # both later cells give up on the continuation: three Schur forms
    assert [k for _, k in attempts] == [None, None]
    assert len(forms) == 3
    assert acceptance_triple(rep, a.norm(), cfg)["passed"]
    np.testing.assert_allclose(rep.k.matrix, continued.k.matrix, rtol=0, atol=1e-15)
    monkeypatch.undo()
    _fresh_cells(monkeypatch)
    assert report_to_dict(rep, a.norm(), cfg) == report_to_dict(
        solve_theorem(a, cfg), a.norm(), cfg
    )


def _shifted_below_zero(a, delta):
    """A - i delta J: the margin drops by delta."""
    p, m = a.structure.p, a.structure.m
    return assemble(
        a.a11 - 1j * delta * np.eye(p), a.a12, a.a21, a.a22 + 1j * delta * np.eye(m)
    )


@pytest.mark.parametrize(
    "a",
    [
        _shifted_below_zero(BOUNDARY, 3e-11),
        _shifted_below_zero(
            random_dissipative(InstanceSpec(p=3, m=3, margin=0.0, seed=28)), 3e-11
        ),
    ],
    ids=["boundary", "random"],
)
def test_failed_guard_is_recomputed_fresh_with_its_error(a, monkeypatch):
    # margin about -3e-11: the last cell's margin is 0 to rounding, so the
    # cell is not continued and the fresh route records the error; the
    # replacement continuation returns the K of a lower spectral subspace,
    # whose restriction fails the min Im > margin/2 guard
    p = a.structure.p
    cfg = SolverConfig(eps_schedule=(2.0**-12, 2.0**-13, 2.0**-14, 3e-11))

    def lower_subspace(cell, form, norm_bound):
        _, z, _ = scipy.linalg.schur(
            cell.to_matrix(), output="complex", sort=lambda w: w.imag < 0
        )
        return np.linalg.solve(z[:p, :p].T, z[p:, :p].T).T

    continued = solver._continued_angle_operator
    _fresh_cells(monkeypatch)
    fresh = report_to_dict(solve_theorem(a, cfg), a.norm(), cfg)
    error = fresh["convergence_trace"][-1]["error"]
    assert error.startswith("NotUniformlyDissipative: margin ")
    assert error.endswith(" is not positive")
    monkeypatch.setattr(solver, "_continued_angle_operator", lower_subspace)
    assert report_to_dict(solve_theorem(a, cfg), a.norm(), cfg) == fresh
    # the real continuation: the same error text, numbers to rounding level
    monkeypatch.setattr(solver, "_continued_angle_operator", continued)
    doc = report_to_dict(solve_theorem(a, cfg), a.norm(), cfg)
    assert_docs_close(doc, fresh, 1e-12)


@pytest.mark.parametrize("spec", CONTINUATION_SPECS)
def test_regularized_margin_is_the_margin_plus_eps(spec):
    # solve_theorem takes a full-dimension cell's margin as margin0 + eps
    a = random_dissipative(spec)
    margin0 = dissipativity_margin(a)
    for eps in DOUBLE_LIMIT_EPS_SCHEDULE:
        got = dissipativity_margin(regularize(a, eps))
        assert abs(got - (margin0 + eps)) <= 1e-14 * max(1.0, a.norm())


def test_solve_theorem_boundary_neutral_limit():
    # margin is exactly zero and the limit graph is the neutral eigenline
    assert dissipativity_margin(BOUNDARY) == pytest.approx(0.0, abs=1e-12)
    rep = solve_theorem(BOUNDARY)
    np.testing.assert_allclose(rep.k.matrix, [[-1.0]], atol=1e-5)
    assert rep.k_norm <= 1.0 + 1e-8
    assert rep.riccati_residual <= 1e-10
    assert abs(rep.min_im_restriction()) <= 1e-5


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_solve_theorem_survives_entries_above_1e154(scale):
    # a squared 1e200 overflows; the continuation's residual norm must not
    # square it, and K has no units, so it does not move with the scale
    a = random_dissipative(InstanceSpec(p=4, m=4, margin=0.1, seed=0))
    big = type(a)(a.structure, *(scale * b for b in (a.a11, a.a12, a.a21, a.a22)))
    ref = solve_theorem(a).k.matrix
    assert np.linalg.norm(solve_theorem(big).k.matrix - ref, 2) <= 1e-13


def test_solve_theorem_rejects_anti_dissipative():
    anti = assemble([[-1j]], [[0.0]], [[0.0]], [[1j]])
    with pytest.raises(NotDissipative):
        solve_theorem(anti)


def test_solve_theorem_reports_unstable_tail():
    cfg = SolverConfig(eps_schedule=(1.0, 0.5, 0.25, 1e-4), polish=False)
    with pytest.raises(NoCauchyConvergence) as info:
        solve_theorem(BOUNDARY, cfg)
    assert info.value.report is not None
    assert info.value.report.k_norm <= 1.0 + 1e-6


def test_solver_config_settings_and_fixed_thresholds():
    names = {f.name for f in dataclasses.fields(SolverConfig)}
    assert names == {"eps_schedule", "galerkin_dims", "polish"}
    cfg = SolverConfig()
    assert (cfg.riccati_tol, cfg.invariance_tol) == (1e-8, 1e-7)
    assert (cfg.norm_slack, cfg.spec_slack) == (1e-8, 1e-6)
    assert (cfg.cauchy_tol, cfg.dissipativity_tol) == (1e-6, 1e-10)
    with pytest.raises(TypeError):
        SolverConfig(invariance_tol=1e9)


def test_solver_config_validation():
    with pytest.raises(DimensionMismatch):
        SolverConfig(eps_schedule=(0.5, 0.5, 1e-4))
    with pytest.raises(DimensionMismatch):
        SolverConfig(eps_schedule=(0.5, 0.25))  # does not reach 1e-4
    with pytest.raises(DimensionMismatch):
        SolverConfig(eps_schedule=(2.0, 1e-4))
    with pytest.raises(DimensionMismatch):
        SolverConfig(galerkin_dims=(2, 2))
    with pytest.raises(DimensionMismatch, match="galerkin dims must be nonempty"):
        SolverConfig(galerkin_dims=())
    for dims in ((1.5, 3), (True, 3)):
        with pytest.raises(DimensionMismatch, match="galerkin dim must be an integer"):
            SolverConfig(galerkin_dims=dims)
    assert SolverConfig(galerkin_dims=(np.int64(1), 3)).galerkin_dims == (1, 3)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("polish", "no", "polish must be a bool"),
        ("polish", 1, "polish must be a bool"),
        ("polish", np.bool_(True), "polish must be a bool"),
        ("eps_schedule", ("0.5", 1e-5), "eps values must be real numbers"),
        ("eps_schedule", (True, 1e-5), "eps values must be real numbers"),
        ("eps_schedule", (0.5 + 0j, 1e-5), "eps values must be real numbers"),
        ("eps_schedule", 0.5, "eps schedule must be a sequence"),
        ("galerkin_dims", 3, "galerkin dims must be a sequence"),
    ],
)
def test_solver_config_rejects_what_a_problem_file_cannot_pass(field, value, match):
    with pytest.raises(DimensionMismatch, match=match):
        SolverConfig(**{field: value})


def test_solver_config_accepts_numpy_numbers():
    cfg = SolverConfig(eps_schedule=(np.float64(0.5), np.float32(1e-5)))
    assert cfg.eps_schedule == (0.5, float(np.float32(1e-5)))


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
def test_regularize_rejects_unusable_eps(eps):
    with pytest.raises(DimensionMismatch, match="eps must be finite and nonnegative"):
        regularize(I_J, eps)


def test_default_solve_builds_the_transfer_data_once(monkeypatch):
    # mu selection reads |G| alone; only the schedule's stack forms S, F, G
    calls = []
    original = solver.schur_data

    def counting(a, mu):
        calls.append(np.shape(mu))
        return original(a, mu)

    monkeypatch.setattr(solver, "schur_data", counting)
    a = random_dissipative(InstanceSpec(p=4, m=3, margin=0.1, seed=3))
    solver._select_mu(a, np.array([0.5, 0.25, 0.0]))
    assert calls == []
    solve_theorem(a)
    assert calls == [(4,)]
    rep = solve_uniformly_dissipative(a)
    assert calls == [(4,), ()]
    # the Riccati residual and L read no transfer data
    riccati_residual(a, rep.k, rep.mu)
    assert calls == [(4,), ()]


@pytest.mark.parametrize("solve", [solve_theorem, solve_uniformly_dissipative])
@pytest.mark.parametrize(
    "spec",
    [InstanceSpec(4, 3, margin=0.1, seed=0), InstanceSpec(6, 6, margin=1.0, seed=5)],
)
def test_report_certificates_have_one_formula_each(solve, spec):
    # the residual is the norm of the shift-free graph defect, L is
    # A21 + (A22 - mu) K and the restriction spectrum that of A11 + A12 K,
    # bit for bit; none goes through the transfer data S + G L
    a = random_dissipative(spec)
    rep = solve(a)
    k_mat = rep.k.matrix
    assert rep.riccati_residual == operator_norm(graph_defect(a, k_mat))
    np.testing.assert_array_equal(
        rep.restriction_spectrum, np.linalg.eigvals(a.a11 + a.a12 @ k_mat)
    )
    res, l_op = riccati_residual(a, rep.k, rep.mu)
    assert res == rep.riccati_residual
    np.testing.assert_array_equal(rep.l_op, l_op)
    np.testing.assert_array_equal(
        l_op, a.a21 + (a.a22 - rep.mu * np.eye(spec.m)) @ k_mat
    )


def test_estimate_11_is_decided_on_every_solve():
    # mu keeps |G(mu)| < 1/2, so the cap is finite and holds is a bool
    for rep in (solve_uniformly_dissipative(TRIANGULAR), solve_theorem(BOUNDARY)):
        est11 = rep.estimate11
        assert est11.gamma < 0.5
        assert math.isfinite(est11.bound)
        assert type(est11.holds) is bool and est11.holds
        for cell in rep.convergence_trace:
            assert type(cell.ok) is bool and type(cell.l_bound_ok) is bool


@pytest.mark.parametrize(
    "spec, offset",
    [
        (InstanceSpec(p=3, m=3, margin=0.0, seed=30), 1e-3),
        (InstanceSpec(p=4, m=2, margin=0.1, seed=31), 1e-2),
        (InstanceSpec(p=2, m=5, margin=1.0, coupling_scale=30.0, seed=32), 1e-4),
        (InstanceSpec(p=3, m=3, margin=0.1, seed=33), 0.0),
        (InstanceSpec(p=3, m=3, margin=0.1, seed=34), 0.5),
    ],
)
def test_newton_polish_contract(spec, offset):
    a = random_dissipative(spec)
    k_limit = solve_theorem(a, SolverConfig(polish=False)).k.matrix
    rng = np.random.Generator(np.random.Philox(spec.seed))
    shape = k_limit.shape
    k0 = k_limit + offset * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    res0 = operator_norm(graph_defect(a, k0))
    k, res, improved = solver._newton_polish(a, k0, a.norm(), res0)
    assert res == operator_norm(graph_defect(a, k))
    assert res <= res0
    assert improved == (res < 0.999 * res0)
    assert np.linalg.norm(k - k0, 2) <= solver._NEWTON_MAX_STEP
    if 0.0 < offset < 0.1:
        assert improved


@pytest.mark.parametrize("polish", [True, False])
def test_solve_forms_the_defect_of_the_accepted_k_once(monkeypatch, polish):
    # the report takes the Riccati residual the selection or the polish
    # already computed for the accepted K
    defects = []
    original = solver.graph_defect

    def spy(a, k_mat):
        defects.append(np.array(k_mat))
        return original(a, k_mat)

    monkeypatch.setattr(solver, "graph_defect", spy)
    a = random_dissipative(InstanceSpec(4, 4, 0.1, seed=0))
    rep = solve_theorem(a, SolverConfig(polish=polish))
    assert rep.polish_method == ("newton" if polish else "richardson")
    assert sum(np.array_equal(k, rep.k.matrix) for k in defects) == 1
    assert rep.riccati_residual == operator_norm(original(a, rep.k.matrix))


def test_non_finite_newton_correction_stops_the_polish(monkeypatch):
    a = random_dissipative(InstanceSpec(4, 4, 0.1, seed=0))
    unpolished = solve_theorem(a, SolverConfig(polish=False))
    sylvester = scipy.linalg.solve_sylvester
    calls = []

    def nan_correction(*args):
        delta = sylvester(*args)
        delta[0, 0] = np.nan
        calls.append(1)
        return delta

    monkeypatch.setattr(scipy.linalg, "solve_sylvester", nan_correction)
    rep = solve_theorem(a)
    assert calls
    assert rep.polish_method == unpolished.polish_method
    assert np.array_equal(rep.k.matrix, unpolished.k.matrix)
