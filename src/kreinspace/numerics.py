"""Dense complex linear-algebra kernel.

Matrices are plain 2-D ``numpy.ndarray`` objects with complex128 entries;
:func:`validate_matrix` is the single entry gate that enforces finiteness and
shape.  The numerically delicate primitives live here and are backed by
LAPACK (via numpy/scipy); each carries an accuracy contract that the test
suite checks, and the contract, not the algorithm, is what the rest of the
package relies on.

Everything in this module is a pure function over immutable values and safe
to call concurrently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NoConvergence, NonFinite, SingularShift

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
    return float(np.linalg.norm(a, 2))


def smallest_singular_value(m) -> float:
    a = validate_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def solve_shifted(m, mu: complex, b, floor: float = SINGULAR_FLOOR) -> np.ndarray:
    """Solve (M - mu*I) X = B for X.

    The shifted matrix is rejected as :class:`SingularShift` when its smallest
    singular value falls below ``floor`` times its norm.  The returned X
    satisfies ``|(M - mu I) X - B| <= 1e-10 (|M| + |mu|) |X|``.
    """
    a = validate_matrix(m, "M")
    rhs = validate_matrix(b, "B")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"M must be square, got {a.shape}")
    if a.shape[0] != rhs.shape[0]:
        raise DimensionMismatch(
            f"B has {rhs.shape[0]} rows, expected {a.shape[0]}"
        )
    shifted = a - complex(mu) * np.eye(a.shape[0])
    sings = np.linalg.svd(shifted, compute_uv=False)
    if sings[-1] < floor * max(sings[0], 1.0):
        raise SingularShift(
            f"sigma_min(M - mu I) = {sings[-1]:.3e} below floor; "
            f"mu = {mu} is numerically in the spectrum"
        )
    return scipy.linalg.solve(shifted, rhs)


def eigendecomposition(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (with multiplicity) and unit eigenvectors of a square matrix.

    Each returned pair satisfies |M v_k - w_k v_k| <= 1e-8 |M|.
    """
    a = validate_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    try:
        w, v = scipy.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK cap
        raise NoConvergence(str(exc)) from exc
    return w, v


def orthonormalize(m, rank_tol: float | None = None) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the column space of ``m`` with its numerical rank.

    SVD based so that near-dependent columns are detected; ``rank_tol``
    defaults to the usual machine-precision scale.
    """
    a = validate_matrix(m)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if rank_tol is None:
        rank_tol = max(a.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > rank_tol))
    return u[:, :rank], rank
