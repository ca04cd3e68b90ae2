"""Dense complex linear-algebra kernel.

Matrices are plain 2-D ``numpy.ndarray`` objects with complex128 entries;
:func:`validate_matrix` is the single entry gate that enforces finiteness and
shape.  The numerically delicate primitives live here and are backed by
LAPACK (via numpy/scipy); each carries an accuracy contract that the test
suite checks, and the contract, not the algorithm, is what the rest of the
package relies on.

Shifted solves take the shift as a batch dimension: :func:`shifted_stack`
builds the ``(k, d, d)`` stack of shifted matrices for a 1-D array of shifts
and checks it against the singular floor, and :func:`solve_shifted` solves
it in one batched LU call, so a caller that samples many shifts pays the
per-call overhead once.  A caller that solves with the same stack twice, or
with its transpose, checks it once.  The floor check first screens every
shift with two certified bounds, a lower bound on sigma_min from the
numerical range and an upper bound on sigma_max from the Frobenius norm;
only a shift the screen cannot clear goes through the batched SVD, so the
check raises for exactly the shifts an SVD of every one would flag.

Everything in this module is a pure function over immutable values and safe
to call concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFinite, SingularShift

#: Relative floor below which a shifted matrix counts as singular.
SINGULAR_FLOOR = 1e-12


def validate_matrix(m, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a validated 2-D complex128 array.

    Raises :class:`DimensionMismatch` for wrong dimensionality or empty axes
    and :class:`NonFinite` for NaN/Inf entries.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains NaN or Inf entries")
    return a


def validate_int(value, name: str) -> int:
    """Return ``value`` as an int: Python and numpy integers pass, bools do not.

    Anything else raises :class:`DimensionMismatch` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionMismatch(f"{name} must be an integer, got {value!r}")
    return int(value)


def validate_vector(x, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Return ``x`` as a validated 1-D complex128 array of optional length."""
    a = np.asarray(x, dtype=np.complex128).reshape(-1)
    if length is not None and a.shape[0] != length:
        raise DimensionMismatch(f"{name} must have length {length}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains NaN or Inf entries")
    return a


def operator_norm(m) -> float:
    """Largest singular value of ``m`` (spectral norm)."""
    a = validate_matrix(m)
    # LAPACK returns the singular values in descending order
    return float(np.linalg.svd(a, compute_uv=False)[0])


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a ``(k, r, c)`` stack, as a length-k array."""
    # the largest singular values, as np.linalg.norm(stack, 2, axis=(-2, -1))
    # computes them, without its reduction overhead
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def shifted_stack(m, mu) -> np.ndarray:
    """The ``(k, d, d)`` stack of the matrices M - mu_k I, each one checked.

    ``mu`` is one shift (a one-element stack) or a 1-D array of k shifts.
    A shifted matrix whose smallest singular value falls below
    ``SINGULAR_FLOOR * max(sigma_max, 1)`` raises :class:`SingularShift`
    naming the first such shift and its sigma_min.  The check holds for the
    transposed stack as well, which has the same singular values.
    Non-finite shifts raise :class:`NonFinite`, an empty shift array
    :class:`DimensionMismatch`.

    Most shifts are cleared without an SVD.  For every shift,
    ``sigma_min(M - mu) >= dist(mu, W(M)) >= dist(mu, box)``, where W(M) is
    the numerical range and the box is the product of the eigenvalue ranges
    of the Hermitian and skew-Hermitian parts of M (at most two Hermitian
    eigenvalue problems per stack, not per shift), and
    ``sigma_max(M - mu) <= |M|_F + |mu|``.  A shift whose lower
    bound, less a rounding slack, is at least twice the floor of its upper
    bound cannot fail the check and is cleared.  The others go through one
    batched SVD, which decides as the check always has; the first shift to
    fail among them is the first shift of the whole stack to fail.  The
    returned stack does not depend on the screen.
    """
    a = validate_matrix(m, "M")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"M must be square, got {a.shape}")
    shifts = np.asarray(mu, dtype=np.complex128)
    if shifts.ndim > 1 or shifts.size == 0:
        raise DimensionMismatch(
            f"mu must be a scalar or a nonempty 1-D array, got shape {shifts.shape}"
        )
    if not np.all(np.isfinite(shifts)):
        raise NonFinite("mu contains NaN or Inf entries")
    mus = shifts.reshape(-1)
    d = a.shape[0]
    shifted = np.repeat(a[np.newaxis], mus.size, axis=0)
    diag = np.arange(d)
    shifted[:, diag, diag] -= mus[:, np.newaxis]
    unscreened = np.flatnonzero(~_clears_floor(a, mus))
    if unscreened.size:
        sings = np.linalg.svd(shifted[unscreened], compute_uv=False)
        below = sings[:, -1] < SINGULAR_FLOOR * np.maximum(sings[:, 0], 1.0)
        if below.any():
            i = int(np.argmax(below))
            raise SingularShift(
                f"sigma_min(M - mu I) = {sings[i, -1]:.3e} below floor; "
                f"mu = {complex(mus[unscreened[i]])} is numerically in the spectrum"
            )
    return shifted


def _clears_floor(a: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Which shifts the certified bounds of :func:`shifted_stack` clear of the floor.

    W(M) lies in the strip of the skew-Hermitian part's eigenvalue range and
    in the box the Hermitian part's range cuts from that strip; the box is
    formed only when the strip leaves a shift uncleared.
    """
    # BLAS nrm2 scales its sum of squares, so |M|_F does not overflow for
    # entries above 1e154 as np.linalg.norm does; an inf would clear nothing
    upper = scipy.linalg.blas.dznrm2(a.ravel()) + np.abs(mus)
    # the eigenvalues and the distance are backward stable, with errors of a
    # few d eps |M - mu|; twice the floor leaves the SVD's own rounding room
    need = 4.0 * a.shape[0] * np.finfo(float).eps * upper
    need += 2.0 * SINGULAR_FLOOR * np.maximum(upper, 1.0)
    dist = np.zeros(mus.size)
    clear = np.zeros(mus.size, dtype=bool)
    # Im W(M) = Re W(-iM), the eigenvalue range of the Hermitian part of -iM
    for turn, coord in ((-1j, mus.imag), (1.0, mus.real)):
        b = turn * a
        # halving before the sum keeps entries near the float maximum finite
        w, _, info = scipy.linalg.lapack.zheev(0.5 * b + 0.5 * b.conj().T, compute_v=0)
        if info:  # no converged range, no bound
            break
        dist = np.hypot(dist, np.maximum(np.maximum(w[0] - coord, coord - w[-1]), 0.0))
        clear = dist >= need
        if clear.all():
            break
    return clear


def solve_shifted(m, mu, b) -> np.ndarray:
    """Solve (M - mu*I) X = B for X, for one shift or a 1-D array of shifts.

    With an array of k shifts the shift is a batch dimension: the
    :func:`shifted_stack` of the k matrices M - mu_k I is built and checked
    once and solved by one batched LU solve, and the result is the
    ``(k, d, n)`` stack of the X_k.  A scalar shift runs as a one-element
    stack and returns the 2-D X.

    A shifted matrix below the singular floor raises :class:`SingularShift`
    (see :func:`shifted_stack`).  Each returned X_k satisfies
    ``|(M - mu_k I) X_k - B| <= 1e-10 (|M| + |mu_k|) |X_k|``.
    """
    rhs = validate_matrix(b, "B")
    shifted = shifted_stack(m, mu)
    if shifted.shape[1] != rhs.shape[0]:
        raise DimensionMismatch(
            f"B has {rhs.shape[0]} rows, expected {shifted.shape[1]}"
        )
    # numpy < 2 reads a 2-D right-hand side of a stacked solve as a stack of
    # vectors, so B is broadcast to (k, d, n) explicitly
    x = np.linalg.solve(shifted, np.broadcast_to(rhs, (shifted.shape[0], *rhs.shape)))
    return x if np.ndim(mu) else x[0]
