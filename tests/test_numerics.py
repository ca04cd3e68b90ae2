"""Contracts of the dense linear-algebra kernel."""

import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kreinspace import numerics
from kreinspace.errors import DimensionMismatch, NonFinite, SingularShift
from kreinspace.numerics import (
    SINGULAR_FLOOR,
    operator_norm,
    operator_norms,
    shifted,
    shifted_stack,
    solve_shifted,
    top_operator_norms,
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


def _first_worst(norms, bound):
    """(index, ratio) of the first largest norm / bound, as the G bound states it."""
    ratios = norms / bound
    k = int(np.argmax(ratios))
    return k, float(ratios[k])


@st.composite
def _screened_stacks(draw):
    """Stacks with ties, rank-one and zero slices, scaled by 2^-600, 1 or 2^600."""
    k, r, c = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(["random", "rank_one", "zero", "duplicates", "ulps"]))
    stack = rng.standard_normal((k, r, c)) + 1j * rng.standard_normal((k, r, c))
    if kind == "rank_one":
        stack = stack[:, :, :1] * stack[:, :1, :]
    elif kind == "zero":
        stack = np.zeros_like(stack)
    elif kind == "duplicates":
        stack = stack[rng.integers(0, min(k, 2), k)]
    elif kind == "ulps":
        # one slice scaled by a few ulps each way: near-ties of every norm
        stack = stack[0] * (1.0 + np.finfo(float).eps * rng.integers(-3, 4, (k, 1, 1)))
    scale = draw(st.sampled_from([2.0**-600, 1.0, 2.0**600]))
    bound = draw(st.floats(0.5, 100.0)) * scale
    return stack * scale, bound


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_screened_stacks())
def test_top_operator_norms_give_the_largest_norm_and_its_first_ratio(case):
    # entries near 2^600 would overflow an unscaled Frobenius norm into a
    # RuntimeWarning, an error in this suite
    stack, bound = case
    every = operator_norms(stack)
    idx, norms = top_operator_norms(stack)
    assert np.all(np.diff(idx) > 0)
    np.testing.assert_array_equal(norms, every[idx])
    assert norms.max() == every.max()
    k, worst = _first_worst(norms, bound)
    assert (idx[k], worst) == _first_worst(every, bound)


def test_top_operator_norms_keep_the_first_of_a_tie_after_the_division(monkeypatch):
    # two rank-one slices whose norms are one ulp apart and whose ratios to
    # the bound 2.5 round to the same value: the first sample wins, though
    # its norm is the smaller one.  |M|_F = |M|_2 up to rounding, and the
    # first slice's Frobenius norm falls below the second's spectral norm,
    # so without the slack the screen would drop it
    rng = np.random.Generator(np.random.Philox(11))
    u, v = rng.standard_normal((2, 4, 1)) + 1j * rng.standard_normal((2, 4, 1))
    u_up = u.copy()
    u_up[0, 0] = np.nextafter(np.nextafter(u.real[0, 0], 9.0), 9.0) + 1j * u.imag[0, 0]
    stack = np.stack([u * v[:3].T, u_up * v[:3].T])
    every = operator_norms(stack)
    assert every[1] == np.nextafter(every[0], 9.0) and every[0] / 2.5 == every[1] / 2.5
    idx, norms = top_operator_norms(stack)
    assert list(idx) == [0, 1]
    assert _first_worst(norms, 2.5) == _first_worst(every, 2.5) == (0, every[0] / 2.5)
    monkeypatch.setattr(numerics, "_SCREEN_SLACK", 1.0)
    assert list(top_operator_norms(stack)[0]) == [1]


def test_top_operator_norms_skip_the_slices_that_cannot_reach_the_maximum():
    stack = np.stack([np.eye(3), 5.0 * np.eye(3), np.diag([5.0, 0.0, 0.0])])
    idx, norms = top_operator_norms(stack)
    # |I|_F = 1.7 < 5 cannot reach it; |diag(5, 0, 0)|_F = 5 can
    assert list(idx) == [1, 2] and list(norms) == [5.0, 5.0]


def test_shifted_equals_the_identity_product_formula_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(11))
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    stack = rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5))
    mus = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    m_before, stack_before = m.copy(), stack.copy()
    eye = np.eye(5)
    # one matrix, shifted by each of the 1-D shifts
    np.testing.assert_array_equal(shifted(m, mus), m - mus[:, None, None] * eye)
    # a stack, slice k shifted by mus[k]
    np.testing.assert_array_equal(shifted(stack, mus), stack - mus[:, None, None] * eye)
    # the inputs are left untouched
    np.testing.assert_array_equal(m, m_before)
    np.testing.assert_array_equal(stack, stack_before)


def test_shifted_of_the_negated_matrix_is_lambda_minus_a():
    rng = np.random.Generator(np.random.Philox(4))
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    lams = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    expected = lams[:, None, None] * np.eye(5) - a[None, :, :]
    assert (shifted(-a, -lams) == expected).all()


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
