"""Block operators, transfer data, and the quantitative resolvent checks."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinspace.blocks import (
    GBoundReport,
    assemble,
    condition_i_margin,
    decompose,
    dissipativity_margin,
    factorization_residual,
    g_decay_profile,
    g_norms,
    g_uniform_bound_check,
    half_range_norm,
    resolvent_asymptotics_check,
    resolvent_identity_residuals,
    schur_data,
)
from kreinspace.errors import (
    ConditionIFailed,
    DimensionMismatch,
    NonFinite,
    NotUniformlyDissipative,
    SingularShift,
)
from kreinspace.geometry import KreinStructure
from kreinspace.harness import InstanceSpec, check_instance, random_dissipative
from kreinspace import blocks
from kreinspace.numerics import operator_norm, solve_shifted
from kreinspace.solver import SolverConfig, solve_theorem


def scalar_block():
    """p = m = 1 with A11 = 0, A12 = A21 = 1, A22 = -i."""
    return assemble([[0.0]], [[1.0]], [[1.0]], [[-1j]])


def i_j_operator():
    return assemble([[1j]], [[0.0]], [[0.0]], [[-1j]])


def triangular():
    return assemble([[1j]], [[1.0]], [[0.0]], [[-1j]])


def one_shift_factorization(a, mu):
    """The LDU defect at one shift, checked as a one-shift stack."""
    return float(factorization_residual(a, schur_data(a, [mu]))[0])


def test_an_operator_keeps_read_only_copies_of_its_blocks():
    # |A| and the margin are computed once, so no block may change after it
    rng = np.random.Generator(np.random.Philox(2))
    mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    before = mat.copy()
    a = decompose(mat, KreinStructure(2, 3))
    norm, margin = a.norm(), dissipativity_margin(a)
    for name in ("a11", "a12", "a21", "a22"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name)[0, 0] = 7.0
    mat[:] = 0.0
    np.testing.assert_array_equal(a.to_matrix(), before)
    assert a.norm() == norm == operator_norm(before)
    assert dissipativity_margin(a) == margin
    assert margin == dissipativity_margin(decompose(before, a.structure))


def test_a_replaced_operator_computes_its_own_norm_and_margin():
    a = random_dissipative(InstanceSpec(p=2, m=3, margin=0.5, seed=4))
    norm, margin = a.norm(), dissipativity_margin(a)
    b = dataclasses.replace(a, a11=a.a11 + 3j * np.eye(2))
    fresh = decompose(b.to_matrix(), b.structure)
    assert b.norm() == fresh.norm() != norm
    assert dissipativity_margin(b) == dissipativity_margin(fresh) != margin
    assert a.norm() == norm and dissipativity_margin(a) == margin


def test_assemble_decompose_diagonal():
    a = decompose(np.diag([1j, -1j]), KreinStructure(1, 1))
    np.testing.assert_allclose(a.a11, [[1j]])
    np.testing.assert_allclose(a.a12, [[0]])
    np.testing.assert_allclose(a.a21, [[0]])
    np.testing.assert_allclose(a.a22, [[-1j]])


def test_assemble_decompose_triangular():
    a = decompose(np.array([[1j, 1.0], [0.0, -1j]]), KreinStructure(1, 1))
    np.testing.assert_allclose(a.a12, [[1.0]])


def test_partition_round_trip():
    rng = np.random.Generator(np.random.Philox(0))
    full = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = decompose(full, KreinStructure(1, 3))
    np.testing.assert_array_equal(a.to_matrix(), full)
    b = assemble(a.a11, a.a12, a.a21, a.a22)
    np.testing.assert_array_equal(b.to_matrix(), full)


def test_margin_of_ij():
    assert dissipativity_margin(i_j_operator()) == pytest.approx(1.0)


def test_margin_sign_flip():
    a = assemble([[-1j]], [[0.0]], [[0.0]], [[1j]])
    assert dissipativity_margin(a) == pytest.approx(-1.0)


def test_margin_triangular():
    # oracle: eigenvalues of [[1, -i/2], [i/2, 1]] are 1 +/- 1/2
    half = np.array([[1.0, -0.5j], [0.5j, 1.0]])
    eigs = np.linalg.eigvalsh(half)
    np.testing.assert_allclose(eigs, [0.5, 1.5], atol=1e-14)
    assert dissipativity_margin(triangular()) == pytest.approx(0.5)


def test_margins_of_entries_near_the_float_maximum_stay_finite():
    # the Hermitian parts are halved before they are summed, so entries
    # near 1e308 do not overflow on the way
    a = random_dissipative(InstanceSpec(p=2, m=2, margin=1e308))
    assert np.isfinite(blocks.imag_part(a.to_matrix())).all()
    assert dissipativity_margin(a) == pytest.approx(1e308)
    assert condition_i_margin(a) == pytest.approx(1e308)


@pytest.mark.parametrize("coupling, margin", [(0.0, 0.1), (1.0, 0.0), (0.0, 0.0)])
@pytest.mark.parametrize("p, m", [(1, 1), (3, 5), (6, 2)])
def test_margin_negates_the_h_minus_rows_bit_for_bit(monkeypatch, p, m, coupling, margin):
    # JA is A with its H- rows negated: the margin equals the one read off
    # the dense product J @ A exactly, and the product is never formed
    spec = InstanceSpec(p, m, margin=margin, coupling_scale=coupling)
    for seed in range(3):
        a = random_dissipative(dataclasses.replace(spec, seed=seed))
        ja = a.structure.signature() @ a.to_matrix()
        want = np.linalg.eigvalsh(blocks.imag_part(ja))[0]
        with monkeypatch.context() as patch:
            patch.setattr(KreinStructure, "signature", None)
            assert dissipativity_margin(a) == want


def test_schur_decoupled():
    a = i_j_operator()
    sd = schur_data(a, 2j)
    np.testing.assert_allclose(sd.s, [[1j]])
    np.testing.assert_allclose(sd.f, [[0.0]])
    np.testing.assert_allclose(sd.g, [[0.0]])


def test_schur_scalar_oracle():
    # 1/(-i - i) = i/2, so F = G = i/2 and S = 0 - 1 * (i/2) * 1 = -i/2
    sd = schur_data(scalar_block(), 1j)
    np.testing.assert_allclose(sd.f, [[0.5j]], atol=1e-14)
    np.testing.assert_allclose(sd.g, [[0.5j]], atol=1e-14)
    np.testing.assert_allclose(sd.s, [[-0.5j]], atol=1e-14)


def test_schur_defining_relations():
    rng = np.random.Generator(np.random.Philox(1))
    spec = InstanceSpec(p=3, m=4, margin=0.3, seed=5)
    a = random_dissipative(spec)
    for _ in range(5):
        mu = complex(rng.standard_normal(), 0.5 + rng.random())
        sd = schur_data(a, mu)
        shifted = a.a22 - mu * np.eye(4)
        assert np.linalg.norm(shifted @ sd.f - a.a21, 2) <= 1e-9 * np.linalg.norm(
            a.a21, 2
        ) + 1e-12
        assert np.linalg.norm(sd.g @ shifted - a.a12, 2) <= 1e-9 * np.linalg.norm(
            a.a12, 2
        ) + 1e-12
        np.testing.assert_allclose(sd.s, a.a11 - a.a12 @ sd.f, atol=1e-12)


def test_schur_singular_shift():
    with pytest.raises(SingularShift):
        schur_data(scalar_block(), -1j)


def test_factorization_diagonal():
    a = decompose(np.diag([1j, -1j]), KreinStructure(1, 1))
    assert one_shift_factorization(a, 2j) <= 1e-12


def test_factorization_scalar_block():
    assert one_shift_factorization(scalar_block(), 1j) <= 1e-12


def test_factorization_random_dissipative():
    a = random_dissipative(InstanceSpec(p=3, m=3, margin=0.5, seed=2))
    assert one_shift_factorization(a, 1j) <= 1e-9


def test_factorization_many_shifts():
    rng = np.random.Generator(np.random.Philox(3))
    for seed in range(5):
        a = random_dissipative(InstanceSpec(p=2, m=4, margin=0.1, seed=seed))
        for _ in range(10):
            mu = complex(2 * rng.standard_normal(), 0.2 + 2 * rng.random())
            assert one_shift_factorization(a, mu) <= 1e-9


def test_g_decay_zero_coupling():
    prof = g_decay_profile(i_j_operator(), [1.0, 10.0, 100.0])
    assert all(v == 0.0 for v in prof)


def test_g_decay_scalar_values():
    # |G(i h)| = 1/|-i - i h| = 1/(1 + h)
    prof = g_decay_profile(scalar_block(), [1.0, 10.0, 100.0])
    np.testing.assert_allclose(prof, [0.5, 1 / 11, 1 / 101], atol=1e-12)


def test_g_decay_resolvent_rate():
    # with |A22| <= 1 the resolvent bound forces ratio ~ 1/10 between h=10, 100
    rng = np.random.Generator(np.random.Philox(4))
    for _ in range(5):
        a22 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a22 = 0.4 * a22 / np.linalg.norm(a22, 2) - 0.6j * np.eye(3)
        a12 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        a = assemble(np.zeros((2, 2)), a12, np.zeros((3, 2)), a22)
        prof = g_decay_profile(a, [10.0, 100.0])
        ratio = prof[1] / prof[0]
        assert 0.1 / 3 <= ratio <= 0.1 * 3


def test_g_decay_requires_dominant_a22():
    a = assemble([[0.0]], [[1.0]], [[1.0]], [[1j]])
    with pytest.raises(ConditionIFailed):
        g_decay_profile(a, [1.0, 10.0])


@pytest.mark.parametrize("height", [np.nan, np.inf])
def test_g_decay_rejects_non_finite_heights(height):
    with pytest.raises(DimensionMismatch, match="heights"):
        g_decay_profile(scalar_block(), [1.0, height])


def test_g_bound_decoupled():
    rep = g_uniform_bound_check(i_j_operator(), [0.0, 1j, 1 + 1j])
    assert rep.max_ratio == 0.0 and rep.passed


def test_g_bound_scalar_triangular():
    # |G(0)| = |1/(-i)| = 1, a = 2 |A P+| (1 + 1e-6) with |A P+| = 1, eps = 1/2
    a = triangular()
    assert half_range_norm(a) == pytest.approx(1.0)
    rep = g_uniform_bound_check(a, [0.0])
    assert rep.eps == pytest.approx(0.5)
    assert rep.bound >= 10.0
    assert rep.max_ratio == pytest.approx(1.0 / rep.bound, rel=1e-9)
    assert rep.passed


def test_g_bound_random_ensemble():
    rng = np.random.Generator(np.random.Philox(5))
    a = random_dissipative(InstanceSpec(p=4, m=4, margin=0.4, seed=9))
    lams = rng.uniform(-5, 5, 20) + 1j * rng.uniform(0, 5, 20)
    rep = g_uniform_bound_check(a, lams)
    assert rep.eps == dissipativity_margin(a)
    assert rep.passed


def _g_bound_at_every_sample(a, lams):
    """The G bound's report from |G| at every sample, which the check must match."""
    eps = dissipativity_margin(a)
    a_const = 2.0 * half_range_norm(a) * (1.0 + blocks._EPS_A)
    bound = 2.0 + 2.0 * a_const / eps
    ratios = g_norms(a, lams) / bound
    k = int(np.argmax(ratios))
    worst = float(ratios[k])
    worst_lam = complex(lams[k]) if worst > 0.0 else 0j
    return GBoundReport(a_const, eps, bound, worst, worst_lam, worst <= 1.0 + 1e-9)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.sampled_from([1, 2, 5]),
    st.sampled_from([1, 3, 7]),
    st.sampled_from([0.1, 1.0]),
    st.sampled_from([0.0, 1.0, 30.0]),
    st.sampled_from([2.0**-600, 1.0, 2.0**600]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_g_bound_report_equals_the_all_samples_formula(
    p, m, margin, coupling, scale, twice, seed
):
    # p = 1 or m = 1 makes every G rank one (|G|_2 = |G|_F), coupling 0 makes
    # G = 0 (worst_lambda 0), and a sample set given twice ties every ratio
    spec = InstanceSpec(p, m, margin, coupling_scale=coupling, seed=seed)
    base = random_dissipative(spec)
    a = decompose(scale * base.to_matrix(), base.structure)
    rng = np.random.Generator(np.random.Philox(seed))
    radius = 2.0 * (1.0 + a.norm())
    lams = rng.uniform(-radius, radius, 12) + 1j * rng.uniform(0.0, radius, 12)
    if twice:
        lams = np.concatenate([lams, lams[::-1]])
    got = g_uniform_bound_check(a, lams)
    assert repr(got) == repr(_g_bound_at_every_sample(a, lams))


def test_g_bound_takes_the_svd_of_few_samples(monkeypatch):
    # the seed-0 24+24 instance at check_instance's 50 samples: at most a
    # few samples, and |A P+|, go through the SVD
    a = random_dissipative(InstanceSpec(24, 24, 0.1, seed=0))
    rng = np.random.Generator(np.random.Philox(key=0, counter=1))
    radius = 2.0 * (1.0 + a.norm())
    lams = np.concatenate(
        [
            rng.uniform(-radius, radius, 25) + 1j * rng.uniform(0.0, radius, 25),
            rng.uniform(-radius, radius, 25),
        ]
    )
    slices = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        slices.append(int(np.prod(np.shape(x)[:-2])))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rep = g_uniform_bound_check(a, lams)
    monkeypatch.undo()
    assert sum(slices) < 50
    assert repr(rep) == repr(_g_bound_at_every_sample(a, lams))


def test_g_bound_requires_margin():
    # J A = diag(0, i): dissipative with margin exactly 0
    a = assemble([[0.0]], [[0.0]], [[0.0]], [[-1j]])
    assert dissipativity_margin(a) == 0.0
    with pytest.raises(NotUniformlyDissipative):
        g_uniform_bound_check(a, [1j])


def test_asymptotics_ij_constant():
    # |(i - 10i)^{-1} + (10i)^{-1}| = 1/90, so C at radius 10 is about 1.11
    a = i_j_operator()
    sd = schur_data(a, 10j)
    val = abs(1.0 / (sd.s[0, 0] - 10j) + 1.0 / 10j)
    assert val == pytest.approx(1 / 90, abs=1e-14)
    rep = resolvent_asymptotics_check(a, [10.0, 20.0])
    assert rep.passed
    assert rep.constants[0] <= 1.5


def test_asymptotics_block_diagonal_identity_exact():
    rng = np.random.Generator(np.random.Philox(6))
    a11 = rng.standard_normal((2, 2)) + 1j * (np.eye(2) + 0.1)
    a = assemble(a11 + 3j * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), -3j * np.eye(2))
    assert dissipativity_margin(a) > 0
    rep = resolvent_asymptotics_check(a, [30.0, 60.0])
    assert rep.eq_identity_defect <= 1e-10
    assert rep.passed


def test_asymptotics_scalar_block_identity():
    # direct 2x2 inverse oracle at lambda = 5i, z = e1
    a = scalar_block()
    lam = 5j
    full = a.to_matrix()
    inv = np.linalg.inv(lam * np.eye(2) - full)
    sd = schur_data(a, lam)
    lhs = inv[0, 0]
    rhs = 1.0 / (lam - sd.s[0, 0])
    assert abs(lhs - rhs) <= 1e-10


def test_resolvent_identity_random():
    rng = np.random.Generator(np.random.Philox(7))
    a = random_dissipative(InstanceSpec(p=3, m=5, margin=0.2, seed=11))
    for _ in range(10):
        lam = complex(rng.standard_normal(), 0.3 + rng.random())
        mu = complex(rng.standard_normal(), 0.3 + rng.random())
        two_point, _, _ = resolvent_identity_residuals(a, schur_data(a, [mu]), [lam], [0.5])
        assert two_point[0] <= 1e-9


def test_shift_perturbation_identities():
    rng = np.random.Generator(np.random.Philox(8))
    a = random_dissipative(InstanceSpec(p=3, m=3, margin=0.2, seed=12))
    for _ in range(10):
        mu = complex(rng.standard_normal(), 0.3 + rng.random())
        eps = float(rng.uniform(1e-6, 1.0))
        _, g_res, s_res = resolvent_identity_residuals(a, schur_data(a, [mu]), [mu], [eps])
        assert g_res[0] <= 1e-9
        assert s_res[0] <= 1e-9


def test_shift_perturbation_sign_is_sharp():
    # flipping the correction sign must break the identity
    a = scalar_block()
    mu, eps = 1j, 1.0
    sd_mu = schur_data(a, mu)
    sd_up = schur_data(a, mu + 1j * eps)
    good = np.linalg.norm(sd_up.s - (sd_mu.s - 1j * eps * sd_up.g @ sd_mu.f), 2)
    flipped = np.linalg.norm(sd_up.s - (sd_mu.s + 1j * eps * sd_up.g @ sd_mu.f), 2)
    assert good <= 1e-14
    assert flipped > 1e-2


def test_transfer_invertibility_tracks_spectrum():
    # sigma_min(S(lambda) - lambda) vanishes exactly on the upper spectrum
    a = random_dissipative(InstanceSpec(p=3, m=3, margin=0.5, seed=13))
    eigs = np.linalg.eigvals(a.to_matrix())
    upper = [z for z in eigs if z.imag > 0]
    assert upper
    for lam in upper:
        sd = schur_data(a, lam)
        smin = np.linalg.svd(sd.s - lam * np.eye(3), compute_uv=False)[-1]
        assert smin <= 1e-8 * a.norm()
    off = upper[0] + 0.7j
    if min(abs(off - z) for z in eigs) > 0.3:
        sd = schur_data(a, off)
        smin = np.linalg.svd(sd.s - off * np.eye(3), compute_uv=False)[-1]
        assert smin > 1e-4


# ---------------------------------------------------------------------------
# stacked shifts against a per-shift reference in plain numpy
# ---------------------------------------------------------------------------

STACK_SPECS = (
    InstanceSpec(p=4, m=3, margin=0.1, seed=21),
    InstanceSpec(p=3, m=5, margin=1.0, seed=22),
    InstanceSpec(p=5, m=4, margin=1e-6, coupling_scale=30.0, seed=23),
)


def _close(x, y, rel=1e-12):
    return abs(x - y) <= rel * max(abs(x), abs(y))


def _reference_g(a, lam):
    return a.a12 @ np.linalg.inv(a.a22 - lam * np.eye(a.structure.m))


def _reference_g_bound(a, eps, lams):
    """One sample at a time: (max ratio, first worst sample, passed)."""
    a_const = 2.0 * np.linalg.norm(np.vstack([a.a11, a.a21]), 2) * (1.0 + 1e-6)
    bound = 2.0 + 2.0 * a_const / eps
    worst, worst_lam = 0.0, 0j
    for lam in lams:
        ratio = np.linalg.norm(_reference_g(a, lam), 2) / bound
        if ratio > worst:
            worst, worst_lam = ratio, complex(lam)
    return worst, worst_lam, worst <= 1.0 + 1e-9


def _reference_asymptotics(a, radii, seed):
    """One shift at a time: (constants, identity defect, scale of the forms)."""
    p, d = a.structure.p, a.structure.dim
    rng = np.random.Generator(np.random.Philox(seed))
    zs = rng.standard_normal((4, p)) + 1j * rng.standard_normal((4, p))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    constants, defect, scale = [], 0.0, 0.0
    for r in sorted(radii):
        c_fit = 0.0
        for theta in np.linspace(0.0, np.pi, 16):
            lam = r * np.exp(1j * theta)
            s = a.a11 - _reference_g(a, lam) @ a.a21
            s_res = np.linalg.inv(lam * np.eye(p) - s)
            inv_plus = np.eye(p) / lam - s_res
            c_fit = max(c_fit, abs(lam) ** 2 * np.linalg.norm(inv_plus, 2))
            top_left = np.linalg.inv(lam * np.eye(d) - a.to_matrix())[:p, :p]
            for z in zs:
                lhs, rhs = np.vdot(z, top_left @ z), np.vdot(z, s_res @ z)
                defect = max(defect, abs(lhs - rhs))
                scale = max(scale, abs(lhs))
        constants.append(c_fit)
    return constants, defect, scale


@pytest.mark.parametrize("spec", STACK_SPECS)
def test_stacked_schur_data_matches_scalar_calls(spec):
    a = random_dissipative(spec)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    mus = rng.uniform(-3, 3, 9) + 1j * rng.uniform(0.1, 3, 9)
    stack = schur_data(a, mus)
    np.testing.assert_array_equal(stack.mu, mus)
    assert stack.s.shape == (9, spec.p, spec.p)
    for k, mu in enumerate(mus):
        one = schur_data(a, mu)
        assert isinstance(one.mu, complex) and one.s.ndim == 2
        for name in ("s", "f", "g"):
            x, y = getattr(stack, name)[k], getattr(one, name)
            assert np.linalg.norm(x - y, 2) <= 1e-14 * np.linalg.norm(y, 2)


@pytest.mark.parametrize("spec", STACK_SPECS)
def test_stacked_schur_data_matches_separate_solves_bitwise(spec):
    # one floor check serves F and G; the two solves keep their bits
    a = random_dissipative(spec)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    mus = rng.uniform(-3, 3, 9) + 1j * rng.uniform(0.1, 3, 9)
    stack = schur_data(a, mus)
    np.testing.assert_array_equal(stack.f, solve_shifted(a.a22, mus, a.a21))
    np.testing.assert_array_equal(
        stack.g, np.swapaxes(solve_shifted(a.a22.T, mus, a.a12.T), -1, -2)
    )


def test_stacked_schur_data_names_the_first_singular_shift():
    a = assemble([[0.0]], [[1.0, 1.0]], [[1.0], [1.0]], np.diag([-1j, -2j]))
    with pytest.raises(SingularShift, match=r"mu = \(-?0-2j\)"):
        schur_data(a, np.array([1j, -2j, -1j]))


@pytest.mark.parametrize("spec", STACK_SPECS)
def test_stacked_identity_helpers_match_scalar_calls_bitwise(spec):
    # each defect of a 4-shift stack equals that of its one-shift stack
    a = random_dissipative(spec)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    mus = rng.uniform(-2, 2, 4) + 1j * rng.uniform(0.5, 3, 4)
    lams = rng.uniform(-2, 2, 4) + 1j * rng.uniform(0.5, 3, 4)
    epss = rng.uniform(1e-6, 1.0, 4)
    sd = schur_data(a, mus)
    fact = factorization_residual(a, sd)
    ident = resolvent_identity_residuals(a, sd, lams, epss)
    assert fact.shape == (4,)
    assert len(ident) == 3 and all(r.shape == (4,) for r in ident)
    for k in range(mus.size):
        one = schur_data(a, mus[k : k + 1])
        one_fact = factorization_residual(a, one)
        one_ident = resolvent_identity_residuals(a, one, lams[k : k + 1], epss[k : k + 1])
        assert fact[k] == one_fact[0]
        assert tuple(r[k] for r in ident) == tuple(r[0] for r in one_ident)


@pytest.mark.parametrize(
    "lam, eps",
    [
        ("short", "full"),
        ("full", "short"),
        ("scalar", "full"),
        ("full", "scalar"),
        ("column", "full"),
    ],
)
def test_identity_samples_must_match_the_stack(lam, eps):
    a = random_dissipative(STACK_SPECS[0])
    mus = np.array([1j, 1 + 2j, -1 + 1j])
    sd = schur_data(a, mus)
    shapes = {
        "full": np.full(3, 0.5),
        "short": np.full(2, 0.5),
        "scalar": 0.5,
        "column": np.full((3, 1), 0.5),
    }
    with pytest.raises(DimensionMismatch, match="length 3"):
        resolvent_identity_residuals(a, sd, shapes[lam] + 1j, shapes[eps])


def test_identity_checks_reject_a_one_shift_transfer_data():
    # schur_data at a scalar shift holds 2-D blocks, not a stack
    a = scalar_block()
    sd = schur_data(a, 1j)
    with pytest.raises(DimensionMismatch, match="stack"):
        factorization_residual(a, sd)
    with pytest.raises(DimensionMismatch, match="stack"):
        resolvent_identity_residuals(a, sd, [2j], [0.5])


@pytest.mark.parametrize("spec", STACK_SPECS)
def test_resolvent_identities_share_the_mu_stack(monkeypatch, spec):
    # the caller's A22 - mu stack serves all three identities: a call checks
    # only the 2 stacks A22 - lambda and A22 - mu - i eps
    a = random_dissipative(spec)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    mus = rng.uniform(-2, 2, 3) + 1j * rng.uniform(0.5, 3, 3)
    lams = rng.uniform(-2, 2, 3) + 1j * rng.uniform(0.5, 3, 3)
    epss = rng.uniform(1e-6, 1.0, 3)
    sd = schur_data(a, mus)
    calls = []
    original = blocks.shifted_stack

    def counting(m, mu):
        calls.append(mu)
        return original(m, mu)

    monkeypatch.setattr(blocks, "shifted_stack", counting)
    resolvent_identity_residuals(a, sd, lams, epss)
    assert len(calls) == 2
    factorization_residual(a, sd)
    assert len(calls) == 2
    one = schur_data(a, mus[:1])
    assert len(calls) == 3
    resolvent_identity_residuals(a, one, lams[:1], epss[:1])
    assert len(calls) == 5


@pytest.mark.parametrize("spec", STACK_SPECS)
def test_g_bound_matches_per_sample_reference(spec):
    a = random_dissipative(spec)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    radius = 2.0 * (1.0 + a.norm())
    lams = np.concatenate(
        [
            rng.uniform(-radius, radius, 25) + 1j * rng.uniform(0.0, radius, 25),
            rng.uniform(-radius, radius, 25),
        ]
    )
    margin = dissipativity_margin(a)
    rep = g_uniform_bound_check(a, lams)
    worst, worst_lam, passed = _reference_g_bound(a, margin, lams)
    assert _close(rep.max_ratio, worst)
    assert _close(rep.worst_lambda, worst_lam)
    assert rep.passed == passed


@pytest.mark.parametrize("spec", STACK_SPECS)
def test_asymptotics_matches_per_shift_reference(spec):
    a = random_dissipative(spec)
    r0 = 8.0 * (1.0 + a.norm())
    rep = resolvent_asymptotics_check(a, [r0, 2.0 * r0], seed=spec.seed)
    constants, defect, scale = _reference_asymptotics(a, [r0, 2.0 * r0], spec.seed)
    assert all(_close(x, y) for x, y in zip(rep.constants, constants))
    # the identity is exact, so both defects are rounding noise: they agree
    # to 1e-12 relative to the size of the quadratic forms they compare
    assert abs(rep.eq_identity_defect - defect) <= 1e-12 * scale
    assert rep.passed == (max(constants) / min(constants) <= 4.0 and defect <= 1e-8)


def test_asymptotics_forms_no_g_stack(monkeypatch):
    # the probe reads S and F's solve only; G = A12 (A22 - lambda)^{-1} is unused
    def no_g(*args):
        raise AssertionError("the asymptotics probe formed a G stack")

    monkeypatch.setattr(blocks, "_applied_left", no_g)
    a = random_dissipative(STACK_SPECS[0])
    r0 = 8.0 * (1.0 + a.norm())
    assert resolvent_asymptotics_check(a, [r0, 2.0 * r0]).passed


@pytest.mark.parametrize("seed", range(3))
def test_asymptotics_and_check_instance_pass_at_scale_1e200(seed):
    # the probe's radii reach 16 (1 + |A|) ~ 1e201, whose square overflows,
    # so C is formed as |lambda| (|lambda| |(S - lambda)^{-1} + 1/lambda|)
    a = random_dissipative(InstanceSpec(p=2, m=3, margin=0.1, seed=seed))
    big = decompose(1e200 * a.to_matrix(), a.structure)
    r0 = 8.0 * (1.0 + big.norm())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = resolvent_asymptotics_check(big, [r0, 2.0 * r0], seed=seed)
        solved = solve_theorem(big)
        row = check_instance(big, solved, SolverConfig(), seed=seed)
    assert rep.passed and np.isfinite(rep.constants).all()
    assert row.checks["asymptotics"] and row.passed


def test_g_bound_rejects_lower_samples_and_empty_sets():
    a = i_j_operator()
    with pytest.raises(DimensionMismatch, match="closed upper half-plane"):
        g_uniform_bound_check(a, [1j, 2.0 - 1e-3j, -1j])
    with pytest.raises(DimensionMismatch):
        g_uniform_bound_check(a, [])


@pytest.mark.parametrize(
    "name, value",
    [("lam", np.nan), ("lam", complex(0.0, np.inf)), ("eps", np.inf), ("eps", np.nan)],
)
def test_identity_checks_reject_non_finite_samples(monkeypatch, name, value):
    # named where it enters, before any stack is built and with no warning
    a = random_dissipative(STACK_SPECS[0])
    sd = schur_data(a, np.array([1j, 1 + 2j, -1 + 1j]))
    samples = {"lam": np.array([2j, 1 + 1j, 0.5j]), "eps": np.full(3, 0.5)}
    samples[name][1] = value
    calls = []
    monkeypatch.setattr(blocks, "shifted_stack", lambda *args: calls.append(args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFinite, match=f"^{name} contains NaN or Inf"):
            resolvent_identity_residuals(a, sd, samples["lam"], samples["eps"])
    assert caught == [] and calls == []


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, np.nan)])
def test_g_bound_rejects_non_finite_samples(monkeypatch, value):
    a = random_dissipative(STACK_SPECS[0])
    calls = []
    monkeypatch.setattr(blocks, "shifted_stack", lambda *args: calls.append(args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFinite, match="^sample_lambdas contains NaN or Inf"):
            g_uniform_bound_check(a, [1j, value, 2.0])
    assert caught == [] and calls == []


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_asymptotics_rejects_unusable_seeds(monkeypatch, seed):
    # checked before any shift stack is built, as the radii are
    def no_solve(*args):
        raise AssertionError("solved before the seed was checked")

    monkeypatch.setattr(blocks, "shifted_stack", no_solve)
    a = random_dissipative(InstanceSpec(p=3, m=3, margin=0.5))
    with pytest.raises(DimensionMismatch, match="seed"):
        resolvent_asymptotics_check(a, [10.0, 20.0], seed=seed)


def test_asymptotics_accepts_numpy_integer_seeds():
    a = random_dissipative(InstanceSpec(p=3, m=3, margin=0.5))
    assert resolvent_asymptotics_check(a, [10.0, 20.0], seed=np.int64(3)) == (
        resolvent_asymptotics_check(a, [10.0, 20.0], seed=3)
    )


@pytest.mark.parametrize(
    "radii", [[0.0, 1.0], [50.0, np.inf], [50.0, np.nan], [-50.0, 100.0], [50.0, 50.0], [5.0]]
)
def test_asymptotics_rejects_unusable_radii(monkeypatch, radii):
    # checked before any shift stack is built: no solve, no numpy warning
    def no_solve(*args):
        raise AssertionError("solved before the radii were checked")

    monkeypatch.setattr(blocks, "shifted_stack", no_solve)
    a = random_dissipative(InstanceSpec(p=3, m=3, margin=0.5))
    with pytest.raises(DimensionMismatch, match="radii"):
        resolvent_asymptotics_check(a, radii)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 1e3),
)
def test_condition_i_margin_is_at_least_the_dissipativity_margin(p, m, seed, scale):
    # Im(-A22) is the H- diagonal block of Im(JA), so by Cauchy interlacing
    # its least eigenvalue is at least Im(JA)'s: once solve_theorem's
    # NotDissipative gate passes, its ConditionIFailed gate can fail only by
    # rounding, which is why no test reaches that raise
    rng = np.random.default_rng(seed)
    d = p + m
    full = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    a = decompose(full, KreinStructure(p, m))
    slack = 1e-13 * np.linalg.norm(full, 2)
    assert condition_i_margin(a) >= dissipativity_margin(a) - slack
