"""Indefinite geometry: classification, angle operators, maximality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kreinspace import geometry
from kreinspace.errors import DimensionMismatch, NormExceeded, NotMaximal, NotNonnegative
from kreinspace.geometry import (
    CLASSIFY_TOL,
    INDEFINITE,
    NEGATIVE_TOUCHING,
    NONNEGATIVE,
    UNIFORMLY_POSITIVE,
    AngleOperator,
    KreinStructure,
    Subspace,
    angle_operator_from_subspace,
    classify_subspace,
    indefinite_inner_product,
    maximality_witness,
    subspace_from_angle_operator,
)

S11 = KreinStructure(1, 1)


def unit(vec):
    v = np.asarray(vec, dtype=complex)
    return v / np.linalg.norm(v)


def column_subspace(structure, *vecs):
    basis = np.column_stack([unit(v) for v in vecs])
    return Subspace(structure, basis)


def test_inner_product_axes():
    assert indefinite_inner_product(S11, [1, 0], [1, 0]) == pytest.approx(1.0)
    assert indefinite_inner_product(S11, [0, 1], [0, 1]) == pytest.approx(-1.0)
    assert indefinite_inner_product(S11, [1, 1], [1, 1]) == pytest.approx(0.0)


def test_inner_product_convention():
    # conjugate-linear in the second slot
    val = indefinite_inner_product(S11, [1j, 0], [1, 0])
    assert val == pytest.approx(1j)
    val = indefinite_inner_product(S11, [1, 0], [1j, 0])
    assert val == pytest.approx(-1j)


def test_signature_involution():
    s = KreinStructure(2, 3)
    j = s.signature()
    np.testing.assert_allclose(j, j.conj().T)
    np.testing.assert_allclose(j @ j, np.eye(5), atol=1e-15)


@pytest.mark.parametrize(("p", "m", "field"), [(2.5, 3, "p"), (True, 2, "p"), (2, 3.0, "m")])
def test_structure_rejects_non_integer_dimensions(p, m, field):
    with pytest.raises(DimensionMismatch, match=f"{field} must be an integer"):
        KreinStructure(p, m)


def test_structure_accepts_numpy_integers():
    s = KreinStructure(np.int64(2), np.int32(3))
    assert s.dim == 5 and type(s.p) is int and type(s.m) is int


def test_classify_positive_axis():
    cls = classify_subspace(column_subspace(S11, [1, 0]))
    assert cls.kind == UNIFORMLY_POSITIVE
    assert cls.delta == pytest.approx(1.0)


def test_classify_neutral_line():
    cls = classify_subspace(column_subspace(S11, [1, 1]))
    assert cls.kind == NONNEGATIVE
    assert cls.lambda_min == pytest.approx(0.0, abs=1e-12)


def test_classify_negative_axis():
    cls = classify_subspace(column_subspace(S11, [0, 1]))
    assert cls.kind == NEGATIVE_TOUCHING
    assert cls.lambda_min == pytest.approx(-1.0)


def test_classify_indefinite():
    cls = classify_subspace(column_subspace(S11, [1, 0], [0, 1]))
    assert cls.kind == INDEFINITE


def test_angle_operator_positive_axis():
    k = angle_operator_from_subspace(column_subspace(S11, [1, 0]))
    np.testing.assert_allclose(k.matrix, [[0.0]], atol=1e-14)


def test_angle_operator_graph_line():
    # x- = K x+ on the basis vector gives K = 0.5
    k = angle_operator_from_subspace(column_subspace(S11, [1, 0.5]))
    np.testing.assert_allclose(k.matrix, [[0.5]], atol=1e-12)


def test_angle_operator_neutral_line():
    k = angle_operator_from_subspace(column_subspace(S11, [1, 1]))
    np.testing.assert_allclose(k.matrix, [[1.0]], atol=1e-12)
    assert k.norm == pytest.approx(1.0)


def test_angle_operator_rejects_negative():
    with pytest.raises(NotNonnegative):
        angle_operator_from_subspace(column_subspace(S11, [0, 1]))


def test_angle_operator_rejects_non_maximal():
    s = KreinStructure(2, 1)
    with pytest.raises(NotMaximal):
        angle_operator_from_subspace(column_subspace(s, [1, 0, 0]))


def _gram_deviation_basis(deviation):
    """A (k+1)-by-k basis B with B*B = I + diag(deviation) up to rounding."""
    k = len(deviation)
    basis = np.zeros((k + 1, k), dtype=complex)
    basis[:k] = np.diag(np.sqrt(1.0 + np.asarray(deviation)))
    return basis


def _count_operator_norms(monkeypatch):
    calls = []
    original = geometry.operator_norm

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(geometry, "operator_norm", counting)
    return calls


def test_subspace_passes_a_small_frobenius_deviation_without_an_svd(monkeypatch):
    calls = _count_operator_norms(monkeypatch)
    Subspace(KreinStructure(2, 2), _gram_deviation_basis([4e-11, -4e-11, 4e-11]))
    assert calls == []


def test_subspace_decides_a_large_frobenius_deviation_by_its_spectral_norm(monkeypatch):
    # |D|_F = 1.2e-10 exceeds the tolerance, |D|_2 = 6e-11 does not
    calls = _count_operator_norms(monkeypatch)
    Subspace(KreinStructure(3, 2), _gram_deviation_basis([6e-11, -6e-11, 6e-11, 6e-11]))
    assert len(calls) == 1
    assert 1e-10 < np.linalg.norm(calls[0]) and np.linalg.norm(calls[0], 2) < 1e-10


def test_subspace_rejects_a_spectral_deviation_above_the_tolerance(monkeypatch):
    calls = _count_operator_norms(monkeypatch)
    with pytest.raises(DimensionMismatch, match="not orthonormal"):
        Subspace(KreinStructure(2, 2), _gram_deviation_basis([1.5e-10, 0.0, 0.0]))
    assert len(calls) == 1


#: Smallest sigma_min(B+)^2 seen over the examples of
#: ``test_nonnegative_subspace_plus_block_is_well_conditioned``: 0.5000000000000001,
#: at |K| = 1, where the subspace holds a neutral vector and the exact value
#: is 1/(1 + |K|^2) = 1/2.
PLUS_BLOCK_BOUND = (1.0 - 1e-10 - CLASSIFY_TOL) / 2.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 0.9, 1.0 - 1e-9, 1.0]),
    st.booleans(),
)
def test_nonnegative_subspace_plus_block_is_well_conditioned(p, m, seed, k_norm, drop):
    # B+*B+ = (B*B + B*JB)/2 >= (1 - 1e-10 - CLASSIFY_TOL)/2 on any nonnegative
    # subspace that passes Subspace, which is why angle_operator_from_subspace
    # needs no rank test of B+; a graph of |K| = 1 holds a neutral vector
    rng = np.random.Generator(np.random.Philox(seed))
    s = KreinStructure(p, m)
    k_mat = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
    k_mat *= k_norm / np.linalg.norm(k_mat, 2)
    graph = np.vstack([np.eye(p), k_mat])
    # a subspace of the graph, of dimension p - 1 when a column is dropped
    k = p - 1 if drop and p > 1 else p
    mix = rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))
    sub = Subspace(s, np.linalg.qr(graph @ mix)[0])
    assert classify_subspace(sub).kind in (NONNEGATIVE, UNIFORMLY_POSITIVE)
    sigma_min = np.linalg.svd(sub.plus_block(), compute_uv=False)[-1]
    assert sigma_min**2 >= PLUS_BLOCK_BOUND


def test_angle_operator_makes_no_svd(monkeypatch):
    sub = subspace_from_angle_operator(
        AngleOperator(KreinStructure(3, 2), np.full((2, 3), 0.2))
    )
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    angle_operator_from_subspace(sub)
    assert calls == []


def test_subspace_from_zero_angle():
    s = KreinStructure(2, 2)
    sub = subspace_from_angle_operator(AngleOperator(s, np.zeros((2, 2))))
    np.testing.assert_allclose(np.abs(sub.plus_block()), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(sub.minus_block(), np.zeros((2, 2)), atol=1e-12)


def test_subspace_from_unit_angle_is_neutral():
    sub = subspace_from_angle_operator(AngleOperator(S11, [[1.0]]))
    cls = classify_subspace(sub)
    assert cls.kind == NONNEGATIVE


def test_subspace_from_contraction_is_uniformly_positive():
    # Gram oracle: basis (1, i/2)/sqrt(1.25), B*JB = (1 - 1/4)/1.25 = 0.6
    sub = subspace_from_angle_operator(AngleOperator(S11, [[0.5j]]))
    cls = classify_subspace(sub)
    assert cls.kind == UNIFORMLY_POSITIVE
    assert cls.delta == pytest.approx(0.6, abs=1e-12)


def test_subspace_norm_gate():
    with pytest.raises(NormExceeded):
        subspace_from_angle_operator(AngleOperator(S11, [[1.1]]))


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.float64, (3, 2), elements=st.floats(-1, 1)),
    arrays(np.float64, (3, 2), elements=st.floats(-1, 1)),
)
def test_angle_round_trip(re, im):
    s = KreinStructure(2, 3)
    k_mat = (re + 1j * im).astype(complex)
    nrm = np.linalg.norm(k_mat, 2)
    if nrm > 1.0:
        k_mat = k_mat * (0.999 / nrm)
    k = AngleOperator(s, k_mat)
    back = angle_operator_from_subspace(subspace_from_angle_operator(k))
    np.testing.assert_allclose(back.matrix, k_mat, atol=1e-8)


def test_graph_vectors_dominated_by_plus_part():
    rng = np.random.Generator(np.random.Philox(5))
    s = KreinStructure(3, 2)
    k_mat = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    k_mat *= 0.97 / np.linalg.norm(k_mat, 2)
    for _ in range(50):
        x_plus = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x_minus = k_mat @ x_plus
        assert np.linalg.norm(x_plus) >= np.linalg.norm(x_minus) - 1e-12


def test_norm_dichotomy():
    rng = np.random.Generator(np.random.Philox(6))
    s = KreinStructure(3, 3)
    base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base /= np.linalg.norm(base, 2)
    for target in (0.3, 0.9, 0.99999, 1.0):
        sub = subspace_from_angle_operator(AngleOperator(s, target * base))
        cls = classify_subspace(sub)
        if target < 1.0 - 1e-8:
            assert cls.kind == UNIFORMLY_POSITIVE
        else:
            assert cls.kind in (NONNEGATIVE, UNIFORMLY_POSITIVE)
    sub = subspace_from_angle_operator(AngleOperator(s, base))
    assert classify_subspace(sub).kind == NONNEGATIVE


def test_rayleigh_bound_matches_contraction_norm():
    # both directions with factor-2 slack:
    #   |K| <= 1 - delta  =>  min [x,x]/(x,x) >= delta/2
    #   min [x,x]/(x,x) >= delta  =>  |K| <= 1 - delta/2
    rng = np.random.Generator(np.random.Philox(7))
    s = KreinStructure(3, 3)
    base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base /= np.linalg.norm(base, 2)
    for target in (0.1, 0.4, 0.7, 0.95):
        k_norm = target
        sub = subspace_from_angle_operator(AngleOperator(s, k_norm * base))
        rayleigh = classify_subspace(sub).lambda_min
        exact = (1 - k_norm**2) / (1 + k_norm**2)
        assert rayleigh == pytest.approx(exact, abs=1e-10)
        delta = 1.0 - k_norm
        assert rayleigh >= delta / 2 - 1e-12
        assert k_norm <= 1.0 - rayleigh / 2 + 1e-12


def test_witness_partial_coordinate_subspace():
    s = KreinStructure(2, 1)
    w = maximality_witness(column_subspace(s, [1, 0, 0]))
    assert w is not None
    np.testing.assert_allclose(np.abs(w), [0, 1, 0], atol=1e-12)


def test_witness_none_for_full_graph():
    s = KreinStructure(2, 1)
    sub = subspace_from_angle_operator(AngleOperator(s, np.zeros((1, 2))))
    assert maximality_witness(sub) is None


def test_witness_diagonal_line():
    # L = span{(1,0,1)}: the plus-projection spans e1 only, e2 is orthogonal
    s = KreinStructure(2, 1)
    w = maximality_witness(column_subspace(s, [1, 0, 1]))
    assert w is not None
    assert abs(w[1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(w[0]) <= 1e-12 and abs(w[2]) <= 1e-12


def test_witness_appears_when_column_dropped():
    rng = np.random.Generator(np.random.Philox(8))
    s = KreinStructure(3, 3)
    k_mat = 0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    k_mat /= max(1.0, np.linalg.norm(k_mat, 2) / 0.8)
    sub = subspace_from_angle_operator(AngleOperator(s, k_mat))
    assert maximality_witness(sub) is None
    clipped = Subspace(s, sub.basis[:, :2])
    assert maximality_witness(clipped) is not None
