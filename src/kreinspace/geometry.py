"""Geometry of the indefinite inner product [x, y] = (Jx, y).

The ambient space is C^(p+m) split into a positive component H+ (first p
coordinates) and a negative component H- (last m coordinates); the signature
operator is always J = diag(I_p, -I_m).  Arbitrary self-adjoint involutions
must be reduced to this form by the caller.

Convention: the Euclidean product (x, y) is linear in the first argument and
conjugate-linear in the second, so [x, x] is always real.  All tests are
written against this convention.

A maximal nonnegative subspace is stored either as an orthonormal basis
(:class:`Subspace`) or as the graph of its angle operator
(:class:`AngleOperator`), the m-by-p contraction K with
L = {(x+, K x+) : x+ in H+}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotMaximal, NotNonnegative, NormExceeded
from .numerics import operator_norm, validate_int, validate_matrix, validate_vector

#: Classification labels returned by :func:`classify_subspace`.
NEGATIVE_TOUCHING = "negative_touching"
NONNEGATIVE = "nonnegative"
UNIFORMLY_POSITIVE = "uniformly_positive"
INDEFINITE = "indefinite"

#: Gram-eigenvalue tolerance of :func:`classify_subspace`:
#: 1e-9 * (1 + |B|^2) with |B| = 1 for orthonormal bases.
CLASSIFY_TOL = 2e-9


@dataclass(frozen=True)
class KreinStructure:
    """Dimensions of the positive and negative components (integers)."""

    p: int
    m: int

    def __post_init__(self):
        for name in ("p", "m"):
            object.__setattr__(self, name, validate_int(getattr(self, name), name))
        if self.p < 1 or self.m < 1:
            raise DimensionMismatch(f"need p >= 1 and m >= 1, got p={self.p}, m={self.m}")

    @property
    def dim(self) -> int:
        return self.p + self.m

    def signature(self) -> np.ndarray:
        """The signature matrix J = diag(I_p, -I_m)."""
        j = np.ones(self.dim)
        j[self.p:] = -1.0
        return np.diag(j).astype(np.complex128)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^(p+m) given by an orthonormal basis matrix.

    ``basis`` has shape (p+m, k) with orthonormal columns (checked to 1e-10).
    """

    structure: KreinStructure
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = validate_matrix(self.basis, "basis")
        n, k = b.shape
        if n != self.structure.dim:
            raise DimensionMismatch(
                f"basis has {n} rows, expected {self.structure.dim}"
            )
        if not 1 <= k <= n:
            raise DimensionMismatch(f"need 1 <= dim <= {n}, got {k}")
        gram = b.conj().T @ b
        if np.linalg.norm(gram - np.eye(k), 2) > 1e-10:
            raise DimensionMismatch("basis columns are not orthonormal to 1e-10")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def plus_block(self) -> np.ndarray:
        return self.basis[: self.structure.p]

    def minus_block(self) -> np.ndarray:
        return self.basis[self.structure.p:]


@dataclass(frozen=True)
class AngleOperator:
    """The m-by-p matrix K whose graph {(x+, K x+)} encodes a subspace."""

    structure: KreinStructure
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = validate_matrix(self.matrix, "K")
        if k.shape != (self.structure.m, self.structure.p):
            raise DimensionMismatch(
                f"K must be {self.structure.m}x{self.structure.p}, got {k.shape}"
            )
        object.__setattr__(self, "matrix", k)

    @property
    def norm(self) -> float:
        return operator_norm(self.matrix)


@dataclass(frozen=True)
class SubspaceClass:
    """Result of :func:`classify_subspace`.

    ``delta`` is the uniform positivity constant lambda_min(B* J B) and is
    set only for the uniformly positive case.
    """

    kind: str
    lambda_min: float
    lambda_max: float
    delta: float | None = None


def indefinite_inner_product(structure: KreinStructure, x, y) -> complex:
    """[x, y] = (Jx, y), conjugate-linear in the second argument."""
    xv = validate_vector(x, structure.dim, "x")
    yv = validate_vector(y, structure.dim, "y")
    jx = xv.copy()
    jx[structure.p:] *= -1.0
    return complex(np.vdot(yv, jx))


def gram_matrix(L: Subspace) -> np.ndarray:
    """The indefinite Gram matrix B* J B of the basis of ``L`` (Hermitian)."""
    b = L.basis
    jb = b.copy()
    jb[L.structure.p:] *= -1.0
    g = b.conj().T @ jb
    return 0.5 * (g + g.conj().T)


def classify_subspace(L: Subspace) -> SubspaceClass:
    """Classify ``L`` by the spectrum of its indefinite Gram matrix.

    With orthonormal basis B, min_x [x,x]/(x,x) over L equals
    lambda_min(B* J B), so the classification reduces to eigenvalue signs.
    Eigenvalues within ``CLASSIFY_TOL`` of zero count as zero; ties go to
    the inclusive "nonnegative" label.
    """
    eigs = np.linalg.eigvalsh(gram_matrix(L))
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo > CLASSIFY_TOL:
        return SubspaceClass(UNIFORMLY_POSITIVE, lo, hi, delta=lo)
    if lo >= -CLASSIFY_TOL:
        return SubspaceClass(NONNEGATIVE, lo, hi)
    if hi > CLASSIFY_TOL:
        return SubspaceClass(INDEFINITE, lo, hi)
    return SubspaceClass(NEGATIVE_TOUCHING, lo, hi)


def angle_operator_from_subspace(L: Subspace) -> AngleOperator:
    """Recover K from a maximal nonnegative subspace.

    The restriction of the orthoprojector onto H+ to ``L`` must be a
    bijection onto H+ (this is the maximality criterion); then
    K = B- B+^{-1} for any basis B of L.
    """
    s = L.structure
    cls = classify_subspace(L)
    if cls.kind not in (NONNEGATIVE, UNIFORMLY_POSITIVE):
        raise NotNonnegative(f"subspace classifies as {cls.kind}")
    if L.dim != s.p:
        raise NotMaximal(f"dim L = {L.dim}, need {s.p} for maximality")
    b_plus = L.plus_block()
    sings = np.linalg.svd(b_plus, compute_uv=False)
    if sings[-1] < 1e-8:
        raise NotMaximal(
            f"projection onto H+ is rank deficient (sigma_min = {sings[-1]:.3e})"
        )
    # K B+ = B-  =>  K = B- B+^{-1}
    k = np.linalg.solve(b_plus.T, L.minus_block().T).T
    return AngleOperator(s, k)


def subspace_from_angle_operator(K: AngleOperator) -> Subspace:
    """Column space of [I; K], orthonormalized.

    Nonnegative only for contractions, hence |K| <= 1 + 1e-8 is enforced.
    """
    if K.norm > 1.0 + 1e-8:
        raise NormExceeded(f"|K| = {K.norm:.12f} exceeds 1 + 1e-8")
    s = K.structure
    stacked = np.vstack([np.eye(s.p, dtype=np.complex128), K.matrix])
    q, _ = np.linalg.qr(stacked)
    return Subspace(s, q)


def maximality_witness(L: Subspace) -> np.ndarray | None:
    """A unit vector of H+ orthogonal to ``L``, or None when L is maximal.

    For y+ in H+ the indefinite and Euclidean products against L agree, so
    the witness condition is plain Euclidean orthogonality of the H+
    components.  The returned vector is embedded in C^(p+m).
    """
    s = L.structure
    b_plus = L.plus_block()
    u, sings, _ = np.linalg.svd(b_plus, full_matrices=True)
    rank = int(np.sum(sings > 1e-8))
    if rank >= s.p:
        return None
    witness = np.zeros(s.dim, dtype=np.complex128)
    witness[: s.p] = u[:, rank]
    return witness
