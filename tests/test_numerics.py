"""Contracts of the dense linear-algebra kernel."""

import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kreinspace.errors import DimensionMismatch, NonFinite, SingularShift
from kreinspace.numerics import (
    eigendecomposition,
    operator_norm,
    orthonormalize,
    smallest_singular_value,
    solve_shifted,
    validate_matrix,
)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_identity():
    for n in (1, 2, 5):
        assert operator_norm(np.eye(n)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_diagonal():
    assert operator_norm([[3, 0], [0, 4]]) == pytest.approx(4.0, abs=1e-12)


def test_validate_rejects_nonfinite():
    with pytest.raises(NonFinite):
        validate_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(NonFinite):
        validate_matrix([[np.inf * 1j, 0], [0, 1]])


def test_validate_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        validate_matrix(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        validate_matrix(np.zeros((0, 2)))


def test_solve_shifted_zero_matrix():
    # (0 - (-1)) X = I  =>  X = I
    x = solve_shifted(np.zeros((2, 2)), -1.0, np.eye(2))
    np.testing.assert_allclose(x, np.eye(2), atol=1e-14)


def test_solve_shifted_diagonal():
    x = solve_shifted(np.diag([2.0, 3.0]), 1.0, np.eye(2))
    np.testing.assert_allclose(x, np.diag([1.0, 0.5]), atol=1e-14)


def test_solve_shifted_nilpotent_shift():
    # oracle: 2x2 inverse by the adjugate formula
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    shifted = m - 1j * np.eye(2)
    det = shifted[0, 0] * shifted[1, 1] - shifted[0, 1] * shifted[1, 0]
    inv = (
        np.array([[shifted[1, 1], -shifted[0, 1]], [-shifted[1, 0], shifted[0, 0]]])
        / det
    )
    x = solve_shifted(m, 1j, np.eye(2))
    np.testing.assert_allclose(x, inv, atol=1e-14)
    np.testing.assert_allclose(shifted @ x, np.eye(2), atol=1e-14)


def test_solve_shifted_singular():
    with pytest.raises(SingularShift):
        solve_shifted(np.diag([2.0, 3.0]), 2.0, np.eye(2))


def test_solve_shifted_residual_contract():
    rng = np.random.Generator(np.random.Philox(0))
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mu = complex(rng.standard_normal(), 1.0 + rng.random())
        b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        x = solve_shifted(m, mu, b)
        resid = np.linalg.norm((m - mu * np.eye(n)) @ x - b, 2)
        bound = 1e-10 * (operator_norm(m) + abs(mu)) * max(np.linalg.norm(x, 2), 1e-30)
        assert resid <= bound


def test_eigendecomposition_diagonal():
    w, _ = eigendecomposition(np.diag([1j, -1j]))
    np.testing.assert_allclose(sorted(w, key=lambda z: z.imag), [-1j, 1j], atol=1e-14)


def test_eigendecomposition_triangular():
    w, _ = eigendecomposition(np.array([[1j, 1.0], [0.0, -1j]]))
    np.testing.assert_allclose(sorted(w, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)


def test_eigendecomposition_residual_is_the_oracle():
    rng = np.random.Generator(np.random.Philox(1))
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    w, v = eigendecomposition(m)
    for k in range(5):
        resid = np.linalg.norm(m @ v[:, k] - w[k] * v[:, k])
        assert resid <= 1e-8 * operator_norm(m)


def test_eigenvalue_sum_equals_trace():
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, _ = eigendecomposition(m)
        assert abs(w.sum() - np.trace(m)) <= 1e-8 * operator_norm(m) * n


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
    arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
)
def test_operator_norm_unitary_invariance(re, im):
    m = re + 1j * im
    rng = np.random.Generator(np.random.Philox(3))
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert operator_norm(u @ m @ v) == pytest.approx(operator_norm(m), abs=1e-9)


def test_orthonormalize_rank():
    basis = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    q, rank = orthonormalize(basis)
    assert rank == 1
    assert q.shape == (3, 1)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(1), atol=1e-12)


def test_smallest_singular_value():
    assert smallest_singular_value(np.diag([3.0, 4.0])) == pytest.approx(3.0)


def _openblas_thread_counts():
    """Thread counts reported by the OpenBLAS copies bundled with numpy/scipy."""
    counts = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    counts.append(int(fn()))
                    break
    return counts


def test_suite_blas_runs_single_threaded():
    # conftest sets KREIN_THREADS=1 before numpy loads
    counts = _openblas_thread_counts()
    if not counts:
        pytest.skip("no bundled OpenBLAS with a thread-count query")
    assert counts == [1] * len(counts)
