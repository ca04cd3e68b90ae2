"""Correctness gate applied to every benchmark instance.

An instance fails when its solve raised, when the acceptance triple fails
(``|K| <= 1 + 1e-8``, invariance residual ``<= 1e-7 |A|``, restriction
spectrum ``>= -1e-6``, and the report's maximality verdict holds), or when
``K`` is more than 1e-8 away in operator norm from a reference computed
before timing starts.  The triple is recomputed here from ``A`` and the
serialized ``K``, not read from the report.

The reference goes through the sorted-Schur projector oracle on the full
matrix, a route that shares no quadrature, Galerkin or regularization code
with ``solve_theorem``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from kreinspace import geometry, projectors

K_NORM_SLACK = 1e-8
INVARIANCE_TOL = 1e-7
SPECTRUM_SLACK = 1e-6
REFERENCE_TOL = 1e-8


def reference_k(a) -> np.ndarray:
    """Angle operator of the upper spectral subspace of the full matrix."""
    full = a.to_matrix()
    rep = projectors.riesz_projector_exact(full, "upper_open")
    subspace = projectors.invariant_subspace_from_projector(full, rep, a.structure)
    return geometry.angle_operator_from_subspace(subspace).matrix


def k_from_pairs(pairs) -> np.ndarray:
    """The m x p matrix K from its serialized ``[re, im]`` pairs."""
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def digest(pairs) -> str:
    """SHA-256 of the serialized K; equal digests mean bit-identical K."""
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def failed_checks(a, k: np.ndarray, maximal: bool, k_ref) -> list[str]:
    """Names of the gate checks that ``K`` fails; empty when it passes.

    ``k_ref`` is None when the reference could not be computed, which fails
    the instance.
    """
    if k.shape != (a.structure.m, a.structure.p) or not np.all(np.isfinite(k)):
        return ["shape"]
    failures = []
    full = a.to_matrix()
    if np.linalg.norm(k, 2) > 1.0 + K_NORM_SLACK:
        failures.append("k_norm")
    basis, _ = np.linalg.qr(np.vstack([np.eye(a.structure.p), k]))
    ab = full @ basis
    residual = np.linalg.norm(ab - basis @ (basis.conj().T @ ab), 2)
    if residual > INVARIANCE_TOL * np.linalg.norm(full, 2):
        failures.append("invariance")
    spectrum = np.linalg.eigvals(a.a11 + a.a12 @ k)
    if spectrum.imag.min() < -SPECTRUM_SLACK:
        failures.append("spectrum")
    if not maximal:
        failures.append("maximal")
    if k_ref is None or np.linalg.norm(k - k_ref, 2) > REFERENCE_TOL:
        failures.append("reference")
    return failures
