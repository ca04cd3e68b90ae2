"""The regularized Galerkin pipeline and its Riccati layer."""

import numpy as np
import pytest

from kreinspace import solver
from kreinspace.blocks import assemble, decompose, dissipativity_margin, schur_data
from kreinspace.errors import (
    DimensionMismatch,
    NoCauchyConvergence,
    NotDissipative,
    NotUniformlyDissipative,
    QuadratureNotConverged,
    RankDeficientBasis,
)
from kreinspace.geometry import AngleOperator, KreinStructure
from kreinspace.harness import InstanceSpec, random_dissipative
from kreinspace.solver import (
    SolverConfig,
    galerkin_truncate,
    graph_defect,
    maximal_dissipativity_check,
    regularize,
    restriction_matrix,
    riccati_residual,
    solve_theorem,
    solve_uniformly_dissipative,
)

I_J = assemble([[1j]], [[0.0]], [[0.0]], [[-1j]])
TRIANGULAR = assemble([[1j]], [[1.0]], [[0.0]], [[-1j]])
# JA is Hermitian and singular: margin exactly 0, nilpotent, neutral eigenline
BOUNDARY = assemble([[1.0]], [[1.0]], [[-1.0]], [[-1.0]])

FAST = SolverConfig(eps_schedule=(0.5, 0.25, 0.125, 1e-4), contour_nodes=64)


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
    np.testing.assert_allclose(b.to_matrix(), a.to_matrix(), atol=1e-14)


def test_galerkin_single_coordinate():
    a = decompose(np.diag([1j, 2j, -1j]), KreinStructure(2, 1))
    b = galerkin_truncate(a, 1)
    np.testing.assert_allclose(b.a11, [[1j]])
    np.testing.assert_allclose(b.a22, [[-1j]])


def test_galerkin_congruence_oracle():
    rng = np.random.Generator(np.random.Philox(3))
    a = random_dissipative(InstanceSpec(p=3, m=2, margin=0.1, seed=4))
    raw = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    q, _ = np.linalg.qr(raw)
    b = galerkin_truncate(a, 2, q)  # orthonormal input is kept verbatim
    np.testing.assert_allclose(b.a11, q.conj().T @ a.a11 @ q, atol=1e-12)
    np.testing.assert_allclose(b.a21, a.a21 @ q, atol=1e-12)
    # a raw basis is orthonormalized onto the same column space
    c = galerkin_truncate(a, 2, raw)
    got = np.sort_complex(np.linalg.eigvals(c.a11))
    want = np.sort_complex(np.linalg.eigvals(b.a11))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_galerkin_rank_deficient_basis():
    a = random_dissipative(InstanceSpec(p=3, m=2, margin=0.1, seed=5))
    bad = np.ones((3, 2), dtype=complex)
    with pytest.raises(RankDeficientBasis):
        galerkin_truncate(a, 2, bad)


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
    r = restriction_matrix(a, AngleOperator(KreinStructure(1, 1), [[0.0]]), 2j)
    np.testing.assert_allclose(r, [[1j]], atol=1e-14)


def test_restriction_matrix_manufactured():
    a, k_mat = manufactured_invariant_pair(seed=8)
    s = KreinStructure(3, 3)
    mu = 1j * (1.0 + np.linalg.norm(a.a22, 2))
    r = restriction_matrix(a, AngleOperator(s, k_mat), mu)
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


def test_solve_uniform_quadrature_vs_exact():
    for seed in (10, 11, 12):
        a = random_dissipative(InstanceSpec(p=4, m=3, margin=0.5, seed=seed))
        r1 = solve_uniformly_dissipative(a, projector="quadrature")
        r2 = solve_uniformly_dissipative(a, projector="exact")
        assert r1.k_norm < 1.0
        np.testing.assert_allclose(r1.k.matrix, r2.k.matrix, atol=1e-7)
        assert r1.riccati_residual <= 1e-8 * (
            np.linalg.norm(schur_data(a, r1.mu).s, 2) + abs(r1.mu)
        )
        assert rep_min_im(r1) > 0


LADDER_CASE = InstanceSpec(4, 3, 0.5, seed=1)


def test_quadrature_ladder_budgets_and_fallback(monkeypatch):
    budgets = []

    def never_converges(full, contour, *args, **kwargs):
        budgets.append(contour.nodes)
        raise QuadratureNotConverged("forced")

    monkeypatch.setattr(solver, "riesz_projector_quadrature", never_converges)
    a = random_dissipative(LADDER_CASE)
    rep = solve_uniformly_dissipative(a, projector="auto")
    assert budgets == [64, 128, 256, 512]
    assert rep.projector_method == "schur"
    budgets.clear()
    with pytest.raises(QuadratureNotConverged):
        solve_uniformly_dissipative(a, projector="quadrature")
    assert budgets == [64, 128, 256, 512]


def test_quadrature_ladder_escalates_on_real_instance(monkeypatch):
    budgets = []
    original = solver.riesz_projector_quadrature

    def recording(full, contour, *args, **kwargs):
        budgets.append(contour.nodes)
        return original(full, contour, *args, **kwargs)

    monkeypatch.setattr(solver, "riesz_projector_quadrature", recording)
    a = random_dissipative(LADDER_CASE)
    cfg = SolverConfig(contour_nodes=16)
    rep = solve_uniformly_dissipative(a, cfg, projector="quadrature")
    assert budgets == [16, 32, 64]
    assert rep.projector_method == "gauss_segments"
    ref = solve_uniformly_dissipative(a, cfg, projector="exact")
    assert np.linalg.norm(rep.k.matrix - ref.k.matrix, 2) <= 2e-15


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
    rep_direct = solve_uniformly_dissipative(a)
    rep_full = solve_theorem(a)
    np.testing.assert_allclose(rep_full.k.matrix, rep_direct.k.matrix, atol=1e-6)


def test_solve_theorem_trace_contracts():
    a = random_dissipative(InstanceSpec(p=4, m=4, margin=0.3, seed=14))
    rep = solve_theorem(a)
    cells = [t for t in rep.convergence_trace if t.ok]
    assert cells
    assert all(t.k_norm < 1.0 for t in cells)
    assert all(t.l_bound_ok for t in cells)
    assert all(t.restriction_min_im > 0 for t in cells)
    # the full-dimension tail decreases geometrically
    diffs = [t.k_dist_prev for t in cells if t.n == 4 and t.k_dist_prev is not None]
    assert diffs[-1] <= diffs[2]


def test_solve_theorem_boundary_neutral_limit():
    # margin is exactly zero and the limit graph is the neutral eigenline
    assert dissipativity_margin(BOUNDARY) == pytest.approx(0.0, abs=1e-12)
    rep = solve_theorem(BOUNDARY)
    np.testing.assert_allclose(rep.k.matrix, [[-1.0]], atol=1e-5)
    assert rep.k_norm <= 1.0 + 1e-8
    assert rep.riccati_residual <= 1e-10
    assert abs(rep.min_im_restriction()) <= 1e-5


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


def test_solver_config_validation():
    with pytest.raises(DimensionMismatch):
        SolverConfig(eps_schedule=(0.5, 0.5, 1e-4))
    with pytest.raises(DimensionMismatch):
        SolverConfig(eps_schedule=(0.5, 0.25))  # does not reach 1e-4
    with pytest.raises(DimensionMismatch):
        SolverConfig(eps_schedule=(2.0, 1e-4))
    with pytest.raises(DimensionMismatch):
        SolverConfig(galerkin_dims=(2, 2))


def test_solve_theorem_fixed_mu_gate():
    a = random_dissipative(InstanceSpec(p=2, m=2, margin=0.5, seed=15))
    bad = SolverConfig(mu=0.01j, eps_schedule=(0.5, 1e-4))
    with pytest.raises(DimensionMismatch):
        solve_theorem(a, bad)


def test_maximal_dissipativity_check():
    assert maximal_dissipativity_check(I_J).passed
    assert maximal_dissipativity_check(I_J).margin == pytest.approx(1.0)
    anti = assemble([[-1j]], [[0.0]], [[0.0]], [[1j]])
    rep = maximal_dissipativity_check(anti)
    assert not rep.passed and rep.margin == pytest.approx(-1.0)
    rnd = random_dissipative(InstanceSpec(p=3, m=3, margin=0.0, seed=16))
    assert maximal_dissipativity_check(rnd).passed
