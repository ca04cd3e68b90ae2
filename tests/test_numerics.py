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
    SINGULAR_FLOOR,
    operator_norm,
    operator_norms,
    shifted_stack,
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


@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (3, 4, 4), (5, 2, 7), (2, 7, 3), (4, 24, 24)]
)
def test_operator_norms_equal_numpy_spectral_norms(shape):
    rng = np.random.Generator(np.random.Philox(sum(shape)))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.testing.assert_array_equal(
        operator_norms(stack), np.linalg.norm(stack, 2, axis=(-2, -1))
    )


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


def _random_shift_case(seed, n=6, k=7):
    rng = np.random.Generator(np.random.Philox(seed))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mus = rng.standard_normal(k) + 1j * (1.0 + rng.random(k))
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    return m, mus, b


def test_solve_shifted_stack_matches_scalar_calls():
    for seed in range(5):
        m, mus, b = _random_shift_case(seed)
        xs = solve_shifted(m, mus, b)
        assert xs.shape == (mus.size, *b.shape)
        for mu, x in zip(mus, xs):
            resid = np.linalg.norm((m - mu * np.eye(m.shape[0])) @ x - b, 2)
            assert resid <= 1e-10 * (operator_norm(m) + abs(mu)) * np.linalg.norm(x, 2)
            x_one = solve_shifted(m, mu, b)
            assert np.linalg.norm(x - x_one, 2) <= 1e-14 * np.linalg.norm(x_one, 2)


def test_solve_shifted_stack_names_the_singular_shift():
    m = np.diag([2.0, 3.0, 5.0]).astype(complex)
    with pytest.raises(SingularShift, match=r"mu = \(3\+0j\)"):
        solve_shifted(m, np.array([1j, 3.0, 5.0, 2j]), np.eye(3))


def floor_checked_by_svd(m, mu):
    """The stack of M - mu_k I with the floor check run by an SVD of every shift."""
    a = np.asarray(m, dtype=np.complex128)
    mus = np.asarray(mu, dtype=np.complex128).reshape(-1)
    shifted = np.repeat(a[np.newaxis], mus.size, axis=0)
    diag = np.arange(a.shape[0])
    shifted[:, diag, diag] -= mus[:, np.newaxis]
    sings = np.linalg.svd(shifted, compute_uv=False)
    below = sings[:, -1] < SINGULAR_FLOOR * np.maximum(sings[:, 0], 1.0)
    if below.any():
        k = int(np.argmax(below))
        raise SingularShift(
            f"sigma_min(M - mu I) = {sings[k, -1]:.3e} below floor; "
            f"mu = {complex(mus[k])} is numerically in the spectrum"
        )
    return shifted


def _outcome(fn, m, mus):
    try:
        return fn(m, mus), None
    except SingularShift as exc:
        return None, str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["far", "inside", "near", "at"]), min_size=1, max_size=6),
    st.sampled_from([1e-3, 1.0, 1e3, 1e200]),
)
def test_shifted_stack_screen_matches_an_svd_of_every_shift(n, seed, kinds, scale):
    # far shifts are cleared by the screen; shifts inside the numerical range,
    # near an eigenvalue or at one go through the SVD and may raise
    rng = np.random.Generator(np.random.Philox(seed))
    m = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    eigs = np.linalg.eigvals(m)
    norm = np.linalg.norm(m, 2)
    mus = []
    for kind in kinds:
        eig = eigs[rng.integers(n)]
        phase = np.exp(2j * np.pi * rng.random())
        if kind == "far":
            mus.append((2.0 + 10.0 * rng.random()) * norm * phase)
        elif kind == "inside":
            mus.append(eig + 1e-3 * norm * phase)
        elif kind == "near":
            mus.append(eig + 10.0 ** rng.uniform(-14, -10) * max(norm, 1.0) * phase)
        else:
            mus.append(eig)
    mus = np.array(mus)
    got, got_err = _outcome(shifted_stack, m, mus)
    want, want_err = _outcome(floor_checked_by_svd, m, mus)
    assert got_err == want_err
    if want_err is None:
        np.testing.assert_array_equal(got, want)


def test_shifted_stack_screens_entries_near_the_float_maximum():
    # the screen's Hermitian parts are halved before they are summed
    m = np.diag([1e308, -1e308j]) + 1e307
    np.testing.assert_array_equal(
        shifted_stack(m, np.array([1j, 2.0])), floor_checked_by_svd(m, [1j, 2.0])
    )


def test_solve_shifted_scalar_shift_returns_2d():
    m, mus, b = _random_shift_case(7)
    assert solve_shifted(m, mus[0], b).shape == b.shape
    assert solve_shifted(m, complex(mus[0]), b).shape == b.shape
    assert solve_shifted(m, mus[:1], b).shape == (1, *b.shape)


def test_solve_shifted_rejects_bad_shifts():
    m, _, b = _random_shift_case(8)
    for bad in (np.nan, [1j, np.inf], [1j, complex(0.0, np.nan)]):
        with pytest.raises(NonFinite):
            solve_shifted(m, bad, b)
    with pytest.raises(DimensionMismatch):
        solve_shifted(m, np.array([], dtype=complex), b)
    with pytest.raises(DimensionMismatch):
        solve_shifted(m, np.ones((2, 2)) * 1j, b)


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
