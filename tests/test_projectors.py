"""Riesz projectors: quadrature vs the Schur-split oracle."""

import numpy as np
import pytest
import scipy.linalg

from kreinspace import projectors
from kreinspace.errors import (
    BoundaryEigenvalue,
    ContourTooClose,
    DimensionMismatch,
    QuadratureNotConverged,
)
from kreinspace.geometry import KreinStructure, Subspace, angle_operator_from_subspace
from kreinspace.harness import InstanceSpec, random_dissipative
from kreinspace.numerics import operator_norm
from kreinspace.projectors import (
    _sign_projector,
    default_contour_radius,
    invariant_subspace_from_projector,
    riesz_projector_exact,
    riesz_projector_quadrature,
    upper_schur_form,
)
from kreinspace.solver import regularize

TRIANGULAR = np.array([[1j, 1.0], [0.0, -1j]])
# eigenprojector onto span{e1} along span{(1, -2i)}
TRIANGULAR_Q = np.array([[1.0, -0.5j], [0.0, 0.0]])


def eigenprojector_oracle(a, selector):
    """Independent projector from a plain eigenvector basis (diagonalizable a)."""
    w, v = np.linalg.eig(a)
    mask = np.array([selector(z) for z in w], dtype=float)
    return v @ np.diag(mask) @ np.linalg.inv(v)


def random_gapped(rng, d, gap=0.1, radius=2.0):
    im = rng.uniform(gap, radius, d) * rng.choice([-1.0, 1.0], d)
    re = rng.uniform(-1.5, 1.5, d)
    w = re + 1j * im
    v = np.eye(d) + 0.35 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return v @ np.diag(w) @ np.linalg.inv(v), w


def test_quadrature_diagonal():
    rep = riesz_projector_quadrature(np.diag([2j, -3j]), 10.0)
    np.testing.assert_allclose(rep.q_plus, np.diag([1.0, 0.0]), atol=1e-9)
    assert rep.trace == pytest.approx(1.0, abs=1e-9)


def test_quadrature_triangular_matches_eigenprojector():
    oracle = eigenprojector_oracle(TRIANGULAR, lambda z: z.imag > 0)
    np.testing.assert_allclose(oracle, TRIANGULAR_Q, atol=1e-14)
    rep = riesz_projector_quadrature(TRIANGULAR, 10.0)
    np.testing.assert_allclose(rep.q_plus, TRIANGULAR_Q, atol=1e-9)


def test_quadrature_nothing_enclosed():
    rep = riesz_projector_quadrature(np.diag([-1j, -2j, -0.5j]), 10.0)
    np.testing.assert_allclose(rep.q_plus, np.zeros((3, 3)), atol=1e-9)


def test_quadrature_defect_contracts():
    rng = np.random.Generator(np.random.Philox(0))
    a, w = random_gapped(rng, 6)
    rep = riesz_projector_quadrature(a, 2 * (np.max(np.abs(w)) + 1))
    norm_a = np.linalg.norm(a, 2)
    assert rep.idempotency_defect <= 1e-8
    assert rep.commutation_defect <= 1e-8 * norm_a
    assert abs(rep.trace - round(rep.trace)) <= 1e-6
    assert round(rep.trace) == sum(1 for z in w if z.imag > 0)


def test_quadrature_exact_agreement():
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(30):
        d = int(rng.integers(2, 8))
        a, w = random_gapped(rng, d)
        q1 = riesz_projector_quadrature(a, 2.0 * (np.max(np.abs(w)) + 1.0))
        q2 = riesz_projector_exact(a)
        assert np.linalg.norm(q1.q_plus - q2.q_plus, 2) <= 1e-7


def test_quadrature_contour_deformation():
    rng = np.random.Generator(np.random.Philox(2))
    a, w = random_gapped(rng, 5)
    r = 2.0 * (np.max(np.abs(w)) + 1.0)
    q1 = riesz_projector_quadrature(a, r)
    q2 = riesz_projector_quadrature(a, 2 * r)
    assert np.linalg.norm(q1.q_plus - q2.q_plus, 2) <= 1e-8


def test_quadrature_contour_too_close():
    with pytest.raises(ContourTooClose):
        riesz_projector_quadrature(np.diag([1.0 + 0j, 2j]), 10.0)


LADDER_CASE = InstanceSpec(4, 3, 0.5, seed=1)


def record_rungs(monkeypatch):
    """The (segment, arc) panel counts of every rung the ladder sums."""
    rungs = []
    original = projectors._contour_nodes

    def recording(radius, split, *profiles):
        rungs.append(split)
        return original(radius, split, *profiles)

    monkeypatch.setattr(projectors, "_contour_nodes", recording)
    return rungs


def count_nodes(monkeypatch):
    """The resolvent nodes of every rung the ladder sums, one count per rung."""
    counted = []
    original = projectors._quadrature_sum

    def counting(a, lams, weights, gap):
        counted.append(lams.size)
        return original(a, lams, weights, gap)

    monkeypatch.setattr(projectors, "_quadrature_sum", counting)
    return counted


def test_quadrature_not_converged_reports(monkeypatch):
    # a negative tolerance fails every rung: the ladder climbs to the top
    rungs = record_rungs(monkeypatch)
    monkeypatch.setattr(projectors, "REFINE_TOL", -1.0)
    a = random_dissipative(LADDER_CASE).to_matrix()
    with pytest.raises(QuadratureNotConverged, match="the 3010-node Kronrod sum"):
        riesz_projector_quadrature(a, default_contour_radius(a))
    assert rungs == [
        (2, 1), (3, 2), (4, 3), (6, 4), (9, 6), (13, 9), (19, 13), (28, 19), (42, 28)
    ]


def test_ladder_top_rung_holds_sixteen_times_the_budget(monkeypatch):
    rungs = record_rungs(monkeypatch)
    monkeypatch.setattr(projectors, "REFINE_TOL", -1.0)
    a = random_dissipative(LADDER_CASE).to_matrix()
    with pytest.raises(QuadratureNotConverged):
        riesz_projector_quadrature(a, default_contour_radius(a))
    budget, order = projectors.NODE_BUDGET, projectors.GAUSS_PANEL_ORDER
    gauss_points = [order * sum(split) for split in rungs]
    assert gauss_points[0] == order * (budget // order)
    # the ladder stops at the first rung that reaches 16 times the budget
    assert gauss_points[-2] < projectors.LADDER_REACH * budget <= gauss_points[-1]
    # every rung gives both pieces max(1, n // 2) more panels
    for (seg, arc), nxt in zip(rungs, rungs[1:]):
        assert nxt == (seg + max(1, seg // 2), arc + max(1, arc // 2))


def test_quadrature_ladder_escalates_on_real_instance(monkeypatch):
    # an eigenvalue 0.127 from the axis against R = 7: the G21 comparator
    # lags the K43 sum, and the ladder climbs four rungs past the first
    rungs = record_rungs(monkeypatch)
    counted = count_nodes(monkeypatch)
    a, w = random_gapped(np.random.Generator(np.random.Philox(0)), 6)
    rep = riesz_projector_quadrature(a, 2 * (np.max(np.abs(w)) + 1))
    assert rungs == [(2, 1), (3, 2), (4, 3), (6, 4), (9, 6)]
    assert sum(counted) == projectors.KRONROD_PANEL_ORDER * (3 + 5 + 7 + 10 + 15)
    ref = riesz_projector_exact(a)
    assert np.linalg.norm(rep.q_plus - ref.q_plus, 2) <= 1e-13


def probe_profiles(a, radius):
    """The probe points and running measures the quadrature grades panels by."""
    seen = []
    original = projectors._contour_nodes

    def recording(radius, split, *profiles):
        seen.append(profiles)
        return original(radius, split, *profiles)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projectors, "_contour_nodes", recording)
        riesz_projector_quadrature(a, radius)
    return seen[0]


@pytest.mark.parametrize("case", ["gapped", "ladder"])
def test_contour_nodes_keep_the_budget(case):
    if case == "gapped":
        a, w = random_gapped(np.random.Generator(np.random.Philox(0)), 6)
        radius = 2 * (np.max(np.abs(w)) + 1)
    else:
        a = random_dissipative(LADDER_CASE).to_matrix()
        radius = default_contour_radius(a)
    profiles = probe_profiles(a, radius)
    split = projectors._panel_split(*profiles)
    assert min(split) >= 1
    panels = projectors.NODE_BUDGET // projectors.GAUSS_PANEL_ORDER
    assert sum(split) == panels
    lams, weights = projectors._contour_nodes(radius, split, *profiles)
    assert lams.size == projectors.KRONROD_PANEL_ORDER * panels
    assert weights.shape == (2, lams.size)


def test_each_rung_evaluates_43_nodes_per_panel(monkeypatch):
    counted = count_nodes(monkeypatch)
    rng = np.random.Generator(np.random.Philox(0))
    a, w = random_gapped(rng, 6)
    riesz_projector_quadrature(a, 2 * (np.max(np.abs(w)) + 1))
    # this spectrum needs four rungs past the first
    assert counted == [43 * 3, 43 * 5, 43 * 7, 43 * 10, 43 * 15]


def test_each_rung_inverts_one_panel_at_a_time(monkeypatch):
    batches = []
    original = np.linalg.inv

    def recording(stack):
        batches.append(len(stack))
        return original(stack)

    counted = count_nodes(monkeypatch)
    rng = np.random.Generator(np.random.Philox(0))
    a, w = random_gapped(rng, 6)
    monkeypatch.setattr(np.linalg, "inv", recording)
    riesz_projector_quadrature(a, 2 * (np.max(np.abs(w)) + 1))
    assert max(batches) == projectors.KRONROD_PANEL_ORDER
    assert sum(batches) == sum(counted)


def test_kronrod_rule_extends_the_gauss_rule():
    x, (kronrod, gauss) = projectors._KRONROD_X, projectors._KRONROD_W
    assert x.size == projectors.KRONROD_PANEL_ORDER
    for degree in range(65):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(kronrod @ x**degree - exact) <= 1e-14
    # the 21 Gauss nodes are the odd-indexed Kronrod nodes
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(projectors.GAUSS_PANEL_ORDER)
    np.testing.assert_allclose(x[1::2], gauss_x, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(gauss[1::2], gauss_w)
    assert np.all(gauss[::2] == 0.0)
    assert np.all(kronrod > 0.0)
    assert np.all(np.diff(x) > 0.0)


# QUADPACK's qk15 (Piessens et al., 1983): the nonnegative nodes of the
# 15-point Kronrod rule, from 0 up, and their weights
QK15_X = [
    0.0,
    0.2077849550078985,
    0.4058451513773972,
    0.5860872354676911,
    0.7415311855993944,
    0.8648644233597691,
    0.9491079123427585,
    0.9914553711208126,
]
QK15_W = [
    0.2094821410847278,
    0.2044329400752989,
    0.1903505780647854,
    0.1690047266392679,
    0.1406532597155259,
    0.1047900103222502,
    0.06309209262997855,
    0.02293532201052922,
]


def test_kronrod_rule_reproduces_quadpack_qk15():
    x, (kronrod, _) = projectors._kronrod_rule(7)
    np.testing.assert_allclose(x, np.r_[-np.array(QK15_X[:0:-1]), QK15_X], rtol=0, atol=1e-15)
    np.testing.assert_allclose(kronrod, np.r_[QK15_W[:0:-1], QK15_W], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 7, 15, 30])
def test_kronrod_rule_is_exact_to_degree_3n_plus_1(n):
    x, (kronrod, gauss) = projectors._kronrod_rule(n)
    for degree in range(3 * n + 2):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(kronrod @ x**degree - exact) <= 1e-14
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x[1::2], gauss_x, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(gauss[1::2], gauss_w)
    assert np.all(kronrod > 0.0)


@pytest.mark.parametrize("normal", [True, False])
def test_eigenvalue_between_coarse_probes_is_caught(normal):
    # the 9 segment probes of [-R, R] sit R / 4 apart; an eigenvalue 0.5 gap
    # above the segment, midway between the probes at 0 and R / 4
    radius = 10.0
    lam = radius / 8 + 0.5j * projectors.GAP_FACTOR * radius
    d = np.diag([lam, 2j, -1j + 0.5, 1j - 1.0])
    if normal:
        a = d
    else:
        v = np.eye(4) + np.triu(np.full((4, 4), 0.8), 1)
        a = v @ d @ np.linalg.inv(v)
    with pytest.raises(ContourTooClose):
        riesz_projector_quadrature(a, radius)


@pytest.mark.parametrize(
    "spec",
    [
        InstanceSpec(3, 4, margin=0.0, seed=0),
        InstanceSpec(2, 2, margin=0.1, coupling_scale=30.0, seed=1),
        InstanceSpec(5, 1, margin=1.0, a22_decay=2.0, seed=2),
    ],
)
def test_sign_projector_agrees_with_the_quadrature(spec):
    # LU steps against graded resolvent sums: two routes that share no code
    a = regularize(random_dissipative(spec), 1.0).to_matrix()
    q, steps = _sign_projector(a, spec.margin + 1.0)
    quad = riesz_projector_quadrature(a, default_contour_radius(a))
    assert np.linalg.norm(q - quad.q_plus, 2) <= 1e-12
    assert steps <= 8


def test_sign_projector_stops_at_its_cap_on_a_real_eigenvalue():
    # R = 4.4 and clearance 1 give a cap of ceil(log2 4.4) + 10 = 13 steps
    with pytest.raises(BoundaryEigenvalue, match="did not settle in 13 steps"):
        _sign_projector(np.diag([1.0, 2j]), 1.0)
    rng = np.random.Generator(np.random.Philox(3))
    v = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = v @ np.diag([0.7, 1j, -1j, 2 + 1j, -2 - 0.5j]) @ np.linalg.inv(v)
    with pytest.raises(BoundaryEigenvalue):
        _sign_projector(a, 0.5)
    # -i A singular: the first LU reports it
    with pytest.raises(BoundaryEigenvalue, match="sign iterate 1 is singular"):
        _sign_projector(np.array([[1.0, 1.0], [-1.0, -1.0]], dtype=complex), 1.0)


@pytest.mark.parametrize("clearance", [0.0, -1.0, np.nan, np.inf])
def test_sign_projector_refuses_a_clearance_that_bounds_no_step_count(clearance):
    # the step cap takes log2(R / clearance), which a clearance outside
    # (0, inf) would turn into a bare ZeroDivisionError or ValueError
    with pytest.raises(BoundaryEigenvalue, match="bounds no sign step count"):
        _sign_projector(np.diag([1j, -1j]), clearance)


def test_sign_projector_takes_at_least_ten_steps_on_a_wide_clearance():
    # a clearance above R makes log2(R / clearance) negative; the cap stays 10
    q, steps = _sign_projector(np.diag([1j, -1j]), 1e300)
    np.testing.assert_array_equal(q, np.diag([1.0, 0.0]))
    assert steps <= 10


def test_sign_projector_checks_its_settled_iterate(monkeypatch):
    a = random_dissipative(InstanceSpec(3, 3, margin=0.5, seed=4)).to_matrix()
    assert _sign_projector(a, 0.5)[1] <= 8
    monkeypatch.setattr(projectors, "_SIGN_RESIDUAL_TOL", -1.0)
    with pytest.raises(BoundaryEigenvalue, match="settled sign iterate"):
        _sign_projector(a, 0.5)


def test_invariance_of_range():
    rng = np.random.Generator(np.random.Philox(3))
    a, w = random_gapped(rng, 6)
    rep = riesz_projector_quadrature(a, 2 * (np.max(np.abs(w)) + 1))
    sub = invariant_subspace_from_projector(a, rep, KreinStructure(3, 3))
    b = sub.basis
    resid = np.linalg.norm(a @ b - b @ (b.conj().T @ a @ b), 2)
    assert resid <= 1e-7 * np.linalg.norm(a, 2)


def test_exact_diagonal():
    rep = riesz_projector_exact(np.diag([1j, -1j]))
    np.testing.assert_allclose(rep.q_plus, np.diag([1.0, 0.0]), atol=1e-12)


def test_exact_triangular():
    rep = riesz_projector_exact(TRIANGULAR)
    np.testing.assert_allclose(rep.q_plus, TRIANGULAR_Q, atol=1e-12)


def test_exact_full_spectrum():
    rep = riesz_projector_exact(5j * np.eye(3))
    np.testing.assert_allclose(rep.q_plus, np.eye(3), atol=1e-14)


def test_exact_boundary_eigenvalue():
    with pytest.raises(BoundaryEigenvalue):
        riesz_projector_exact(np.diag([1.0 + 0j, 2j]))


def test_exact_boundary_eigenvalue_needs_a_usable_tol():
    # the exact route's fixed 1e-9 sees the eigenvalue 1e-12 i; NaN or a
    # negative Schur tol used to switch the check off and select 2 eigenvalues
    near = np.diag([1j, 1e-12j, -1j])
    with pytest.raises(BoundaryEigenvalue):
        riesz_projector_exact(near)
    for tol in (np.nan, -1e-9, np.inf):
        with pytest.raises(DimensionMismatch, match="tol must be finite and nonnegative"):
            upper_schur_form(near, tol=tol)


def test_upper_schur_form_matches_projector_route():
    for seed in (10, 11, 12):
        op = random_dissipative(InstanceSpec(p=4, m=3, margin=0.5, seed=seed))
        a = op.to_matrix()
        _, z, sdim = upper_schur_form(a, tol=0.25)
        direct = Subspace(op.structure, z[:, :sdim])
        rep = riesz_projector_exact(a)
        via_projector = invariant_subspace_from_projector(a, rep, op.structure)
        k1 = angle_operator_from_subspace(direct).matrix
        k2 = angle_operator_from_subspace(via_projector).matrix
        assert np.linalg.norm(k1 - k2, 2) <= 1e-12


def test_upper_schur_form_boundary_and_empty():
    with pytest.raises(BoundaryEigenvalue):
        upper_schur_form(np.diag([1j, 1e-12j, -1j]), tol=1e-9)
    a = np.diag([-1j, -2j + 0.5, -0.1j])
    assert upper_schur_form(a, tol=1e-9)[2] == 0


def test_upper_schur_form_refuses_a_failed_reordering(monkeypatch):
    a = random_dissipative(InstanceSpec(4, 4, 0.1, seed=0)).to_matrix()
    schur = scipy.linalg.schur

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(scipy.linalg, "schur", failing)
    with pytest.raises(BoundaryEigenvalue, match="Schur reordering failed: injected"):
        upper_schur_form(a, tol=1e-9)

    def miscounting(*args, **kwargs):
        t, z, sdim = schur(*args, **kwargs)
        return t, z, sdim + 1

    monkeypatch.setattr(scipy.linalg, "schur", miscounting)
    with pytest.raises(BoundaryEigenvalue, match="selected 5 eigenvalues, expected 4"):
        upper_schur_form(a, tol=1e-9)


def test_exact_accepts_only_the_open_upper_region():
    # a closed region would take every real eigenvalue, of either sign type;
    # the maximal nonnegative subspace takes only those of positive type
    for region in ("upper_closed", "lower_open"):
        with pytest.raises(DimensionMismatch, match="unknown region"):
            riesz_projector_exact(np.diag([1.0 + 0j, -2j]), region)


def test_subspace_extraction_diagonal():
    rep = riesz_projector_exact(np.diag([1j, -1j]))
    sub = invariant_subspace_from_projector(
        np.diag([1j, -1j]), rep, KreinStructure(1, 1)
    )
    np.testing.assert_allclose(np.abs(sub.basis), [[1.0], [0.0]], atol=1e-12)
    # a 2 x 2 projector is no projector of a 3 x 3 operator
    larger = np.diag([1j, 2j, -1j])
    with pytest.raises(DimensionMismatch, match="projector of shape"):
        invariant_subspace_from_projector(larger, rep, KreinStructure(2, 1))


def test_subspace_extraction_oblique():
    rep = riesz_projector_exact(TRIANGULAR)
    sub = invariant_subspace_from_projector(TRIANGULAR, rep, KreinStructure(1, 1))
    # column space of [[1, -i/2], [0, 0]] is span{e1}
    np.testing.assert_allclose(np.abs(sub.basis), [[1.0], [0.0]], atol=1e-12)


def test_subspace_extraction_zero_projector():
    a = np.diag([-1j, -2j])
    rep = riesz_projector_exact(a)
    assert invariant_subspace_from_projector(a, rep, KreinStructure(1, 1)) is None


def test_default_radius_is_the_operator_norm_bound():
    # a Jordan-like block: |A| = 10 while every eigenvalue is within 1 of 0
    a = np.array([[1j, 10.0], [0.0, -1j]])
    r = default_contour_radius(a)
    assert r == 2.0 * max(1.0, 1.1 * operator_norm(a))
    assert r > np.max(np.abs(np.linalg.eigvals(a)))
    assert default_contour_radius(np.zeros((2, 2))) == 2.0


def test_default_radius_covers_spectrum():
    rng = np.random.Generator(np.random.Philox(4))
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    r = default_contour_radius(a)
    assert r >= 2.0
    assert r >= 1.5 * np.max(np.abs(np.linalg.eigvals(a)))


def test_contour_validation(monkeypatch):
    counted = count_nodes(monkeypatch)
    for radius in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(DimensionMismatch, match="radius must be positive"):
            riesz_projector_quadrature(TRIANGULAR, radius)
    assert counted == []
    # one rung of 3 panels, 43 Kronrod nodes each
    riesz_projector_quadrature(TRIANGULAR, 5.0)
    assert counted == [129]
