"""Dense complex linear-algebra kernel.

Matrices are plain 2-D ``numpy.ndarray`` objects with complex128 entries;
:func:`validate_matrix` is the single entry gate that enforces finiteness and
shape.  The numerically delicate primitives live here and are backed by
LAPACK (via numpy/scipy); each carries an accuracy contract that the test
suite checks, and the contract, not the algorithm, is what the rest of the
package relies on.

This module owns every shifted stack of the package and its singular floor:
:func:`shifted` forms the ``(k, d, d)`` stack of M - mu_k I for a 1-D array
of shifts, :func:`shifted_stack` forms it and checks it against the floor,
and :func:`solve_shifted` solves a checked stack in one batched LU call, so
a caller that samples many shifts pays the per-call overhead once.  A
caller that solves with the same stack twice, or with its transpose, checks
it once.  The floor check first screens every shift with two certified
bounds, a lower bound on sigma_min from the numerical range and an upper
bound on sigma_max from the Frobenius norm; only a shift the screen cannot
clear goes through the batched SVD, so the check raises for exactly the
shifts an SVD of every one would flag.

A caller that needs only the largest spectral norm of a stack, and where it
sits, calls :func:`top_operator_norms`: it takes the SVD of the slice of
largest Frobenius norm, then of the slices whose Frobenius norm, times the
relative slack :data:`_SCREEN_SLACK` far above rounding, reaches that
slice's spectral norm, since no other slice can.

Everything in this module is a pure function over immutable values and safe
to call concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFinite, SingularShift

#: Relative floor below which a shifted matrix counts as singular.
SINGULAR_FLOOR = 1e-12

# the Frobenius screen of top_operator_norms keeps a slice whose Frobenius
# norm times this reaches the largest spectral norm; far above the rounding
# of either norm, it keeps every slice that ties with the largest one
_SCREEN_SLACK = 1.0 + 1e-12


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
    if not np.isfinite(a).all():
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
    if not np.isfinite(a).all():
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


def top_operator_norms(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slices of a ``(k, r, c)`` stack that can hold its largest spectral norm.

    Returns the increasing indices of those slices and their spectral norms,
    each bit for bit as :func:`operator_norms` computes it, so the largest
    of them is ``operator_norms(stack).max()``.  The slice of largest
    Frobenius norm goes first through the SVD; ``|M|_2 <= |M|_F`` rules out
    every slice whose Frobenius norm times :data:`_SCREEN_SLACK` stays
    below the spectral norm of that first slice, and the others go through
    one batched SVD.  The slack, far above the rounding of either norm,
    keeps every slice whose spectral norm ties with the largest one to
    rounding, so a ratio of these norms to a common bound has its first
    argmax among them.  The Frobenius norms are scaled by each slice's
    largest entry, so they do not overflow while that entry stays below
    about the float maximum over sqrt(r c) (entries of 1e250 are fine).
    """
    mags = np.abs(stack).reshape(stack.shape[0], -1)
    peak = mags.max(axis=1)
    peak[peak == 0.0] = 1.0
    fro = peak * np.sqrt(np.sum(np.square(mags / peak[:, np.newaxis]), axis=1))
    first = int(np.argmax(fro))
    norms = np.zeros(stack.shape[0])
    norms[first] = operator_norms(stack[first : first + 1])[0]
    reach = fro * _SCREEN_SLACK >= norms[first]
    reach[first] = False
    if reach.any():
        norms[reach] = operator_norms(stack[reach])
    reach[first] = True
    return np.flatnonzero(reach), norms[reach]


def shifted(m: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """The ``(k, d, d)`` stack of M - mu_k I, as a new array and unchecked.

    ``m`` is a complex128 d x d matrix, shifted by each shift of the 1-D
    ``mus``, or a ``(k, d, d)`` stack, slice k shifted by ``mus[k]``.  The
    stack of lambda_k - A is ``shifted(-a, -lams)``, bit for bit.
    """
    out = np.repeat(m[np.newaxis], mus.size, axis=0) if m.ndim == 2 else m.copy()
    diag = np.arange(m.shape[-1])
    out[:, diag, diag] -= mus[:, np.newaxis]
    return out


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
    if not np.isfinite(shifts).all():
        raise NonFinite("mu contains NaN or Inf entries")
    mus = shifts.reshape(-1)
    stack = shifted(a, mus)
    unscreened = np.flatnonzero(~_clears_floor(a, mus))
    if unscreened.size:
        sings = np.linalg.svd(stack[unscreened], compute_uv=False)
        below = sings[:, -1] < SINGULAR_FLOOR * np.maximum(sings[:, 0], 1.0)
        if below.any():
            i = int(np.argmax(below))
            raise SingularShift(
                f"sigma_min(M - mu I) = {sings[i, -1]:.3e} below floor; "
                f"mu = {complex(mus[unscreened[i]])} is numerically in the spectrum"
            )
    return stack


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
    stack = shifted_stack(m, mu)
    if stack.shape[1] != rhs.shape[0]:
        raise DimensionMismatch(
            f"B has {rhs.shape[0]} rows, expected {stack.shape[1]}"
        )
    # numpy < 2 reads a 2-D right-hand side of a stacked solve as a stack of
    # vectors, so B is broadcast to (k, d, n) explicitly
    x = np.linalg.solve(stack, np.broadcast_to(rhs, (stack.shape[0], *rhs.shape)))
    return x if np.ndim(mu) else x[0]
