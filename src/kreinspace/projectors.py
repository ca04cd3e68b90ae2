"""Riesz spectral projectors for the upper half-plane.

Two independent routes to the same projector:

* :func:`riesz_projector_quadrature` discretizes (2 pi i)^{-1} times the
  contour integral of the resolvent over a closed contour made of the
  segment [-R, R] and the upper semicircle of radius R;
* :func:`riesz_projector_exact` splits a sorted complex Schur form with a
  Sylvester solve and serves as the oracle the quadrature is tested against.

The quadrature grades its Gauss panels by the local spectral clearance
sigma_min(lambda - A) probed along the contour: panel lengths shrink in
proportion to the clearance, which keeps the node count logarithmic in
R/clearance instead of linear.  A uniform "trapezoid" rule (trapezoid on the
arc, uniform Gauss panels on the segment) is kept for comparison; the defect
contracts, checked by doubling the node budget, are normative for both.
Each call sums the resolvent at the contour's node budget and at twice that
budget and returns the doubled sum.  The solver calls it on a ladder of four
budgets, by default 64, 128, 256 and 512, and climbs one rung whenever the
doubling check fails.

Resolvent evaluations at the nodes are independent; they are evaluated as one
batched solve and reduced in a fixed order, so results are reproducible
bit-for-bit for a given node budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BoundaryEigenvalue,
    ContourTooClose,
    DimensionMismatch,
    HypothesisViolated,
    QuadratureNotConverged,
    RankAmbiguous,
)
from .geometry import KreinStructure, Subspace
from .numerics import operator_norm, validate_matrix

GAUSS_PANEL_ORDER = 8
_SEGMENT_PROBES = 33
_ARC_PROBES = 17

_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _gauss_cache:
        _gauss_cache[order] = np.polynomial.legendre.leggauss(order)
    return _gauss_cache[order]


@dataclass(frozen=True)
class Contour:
    """Closed contour: segment [-R, R] plus the upper semicircle of radius R."""

    radius: float
    nodes: int = 128
    rule: str = "gauss_segments"
    kind: str = "semicircle_upper"

    def __post_init__(self):
        if self.kind != "semicircle_upper":
            raise DimensionMismatch(f"unsupported contour kind {self.kind!r}")
        if self.rule not in ("gauss_segments", "trapezoid"):
            raise DimensionMismatch(f"unsupported rule {self.rule!r}")
        if not self.radius > 0:
            raise DimensionMismatch("contour radius must be positive")
        if self.nodes < 16 or self.nodes % 2:
            raise DimensionMismatch("node count must be even and at least 16")


@dataclass
class ProjectorReport:
    q_plus: np.ndarray = field(repr=False)
    idempotency_defect: float = 0.0
    commutation_defect: float = 0.0
    enclosed_eigenvalues: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    trace: float = 0.0
    method: str = "exact"
    # resolvent nodes of both quadrature sums; 0 for the Schur oracle
    nodes_used: int = 0
    # cached SVD of q_plus, shared with the subspace extraction
    svd_u: np.ndarray | None = field(default=None, repr=False)
    svd_s: np.ndarray | None = field(default=None, repr=False)


def default_contour_radius(a, iterations: int = 40, seed: int = 0) -> float:
    """R = 2 max(1, spectral bound) with the bound from power iteration on A*A."""
    mat = validate_matrix(a)
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal(mat.shape[0]) + 1j * rng.standard_normal(mat.shape[0])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iterations):
        w = mat.conj().T @ (mat @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            break
        est = np.sqrt(nrm)
        v = w / nrm
    return 2.0 * max(1.0, 1.1 * est)


# ---------------------------------------------------------------------------
# quadrature internals
# ---------------------------------------------------------------------------


def _shifted_stack(lams: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The stack of lambda_k I - A, one d x d slice per node."""
    d = a.shape[0]
    shifted = np.empty((lams.size, d, d), dtype=np.complex128)
    shifted[:] = -a
    diag = np.arange(d)
    shifted[:, diag, diag] += lams[:, None]
    return shifted


def _batch_sigma_min(lams: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(_shifted_stack(lams, a), compute_uv=False)[:, -1]


def _refine_probes(xs, cs, mat, to_lambda, floor: float, rounds: int = 20):
    """Bisect probe intervals whose clearance is small against their width.

    Coarse probing can step right over a narrow resolvent spike; refinement
    continues until the local spacing drops well below the local clearance or
    below ``floor`` (the too-close threshold), so an eigenvalue sitting on
    the contour is actually seen.
    """
    xs = np.asarray(xs, dtype=float)
    cs = np.asarray(cs, dtype=float)
    for _ in range(rounds):
        width = np.diff(xs)
        tight = (np.minimum(cs[:-1], cs[1:]) < 2.0 * width) & (width > 0.5 * floor)
        if not np.any(tight):
            break
        mids = 0.5 * (xs[:-1] + xs[1:])[tight]
        mid_c = _batch_sigma_min(to_lambda(mids), mat)
        xs = np.concatenate([xs, mids])
        cs = np.concatenate([cs, mid_c])
        order = np.argsort(xs)
        xs, cs = xs[order], cs[order]
    return xs, cs


def _panel_min_clearance(lo, hi, probe_x, probe_c) -> float:
    i0, i1 = np.searchsorted(probe_x, (lo, hi))
    inner = probe_c[i0:i1]
    ends = (np.interp(lo, probe_x, probe_c), np.interp(hi, probe_x, probe_c))
    return float(min(inner.min() if inner.size else np.inf, *ends))


def _graded_panels(lo, hi, probe_x, probe_c, budget, order):
    """Split [lo, hi] into panels whose length tracks the local clearance."""
    density = 1.0 / probe_c
    measure = np.trapezoid(density, probe_x)
    count = max(1, int(round(budget / order)))
    panels = []
    x = lo
    step_measure = measure / count
    guard = 6 * count + 32
    while x < hi - 1e-14 * max(abs(hi), 1.0) and len(panels) < guard:
        c_here = np.interp(x, probe_x, probe_c)
        # a panel must not straddle a clearance dip: re-fit to the minimum
        for _ in range(3):
            end = min(x + step_measure * c_here, hi)
            c_min = _panel_min_clearance(x, end, probe_x, probe_c)
            if c_min >= 0.99 * c_here:
                break
            c_here = c_min
        panels.append((x, end))
        x = end
    if panels and panels[-1][1] < hi:
        panels.append((panels[-1][1], hi))
    return panels


def _uniform_panels(lo, hi, budget, order):
    count = max(1, budget // order)
    edges = np.linspace(lo, hi, count + 1)
    return list(zip(edges[:-1], edges[1:]))


def _panel_nodes(panels, order):
    xi, wi = _gauss(order)
    xs, ws = [], []
    for lo, hi in panels:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        xs.append(mid + half * xi)
        ws.append(half * wi)
    return np.concatenate(xs), np.concatenate(ws)


def _contour_nodes(contour: Contour, budget: int, seg_profile, arc_profile):
    """All contour nodes with complex weights including the orientation factor."""
    r = contour.radius
    seg_x, seg_c = seg_profile
    arc_t, arc_c = arc_profile
    q = GAUSS_PANEL_ORDER
    if contour.rule == "trapezoid":
        n_arc = max(8, int(round(budget * np.pi / (np.pi + 2.0))))
        n_seg = max(q, budget - n_arc)
        panels = _uniform_panels(-r, r, n_seg, q)
        ts, tw = _panel_nodes(panels, q)
        thetas = np.linspace(0.0, np.pi, n_arc)
        h = np.pi / (n_arc - 1)
        th_w = np.full(n_arc, h)
        th_w[0] = th_w[-1] = h / 2.0
    else:
        seg_measure = np.trapezoid(1.0 / seg_c, seg_x)
        arc_measure = np.trapezoid(r / arc_c, arc_t)
        total = seg_measure + arc_measure
        n_seg = int(round(budget * seg_measure / total))
        n_seg = min(max(n_seg, q), budget - q)
        n_arc = budget - n_seg
        ts, tw = _panel_nodes(_graded_panels(-r, r, seg_x, seg_c, n_seg, q), q)
        arc_panels = _graded_panels(0.0, np.pi, arc_t, arc_c / r, n_arc, q)
        thetas, th_w = _panel_nodes(arc_panels, q)
    lam_seg = ts.astype(np.complex128)
    w_seg = tw.astype(np.complex128)
    lam_arc = r * np.exp(1j * thetas)
    w_arc = th_w * 1j * lam_arc
    lams = np.concatenate([lam_seg, lam_arc])
    weights = np.concatenate([w_seg, w_arc]) / (2j * np.pi)
    return lams, weights


def _quadrature_sum(a: np.ndarray, lams: np.ndarray, weights: np.ndarray, gap: float):
    try:
        inverses = np.linalg.inv(_shifted_stack(lams, a))
    except np.linalg.LinAlgError as exc:
        raise ContourTooClose(f"resolvent singular on the contour: {exc}") from exc
    # sigma_min >= 1/frobenius(inverse); only ambiguous nodes get the exact check
    frob = np.sqrt(
        np.einsum("kij,kij->k", inverses.real, inverses.real)
        + np.einsum("kij,kij->k", inverses.imag, inverses.imag)
    )
    suspect = np.where(1.0 / frob < gap)[0]
    if suspect.size:
        exact = _batch_sigma_min(lams[suspect], a)
        if exact.min() < gap:
            k = suspect[int(np.argmin(exact))]
            raise ContourTooClose(
                f"sigma_min(lambda - A) = {exact.min():.3e} < {gap:.3e} "
                f"at contour node {lams[k]:.6g}"
            )
    return np.einsum("k,kij->ij", weights, inverses)


def riesz_projector_quadrature(
    a,
    contour: Contour,
    gap_factor: float = 1e-6,
    refine_tol: float = 1e-8,
) -> ProjectorReport:
    """Quadrature realization of the upper Riesz projector.

    The node budget of the contour is evaluated twice (once doubled) and the
    doubled sum is returned; a projector change above ``refine_tol`` raises
    :class:`QuadratureNotConverged`, an eigenvalue within ``gap_factor * R``
    of the contour raises :class:`ContourTooClose`.  The report's
    ``nodes_used`` counts the resolvent nodes of both sums; the graded rule
    may place more nodes than the budget.  The caller is responsible for a
    radius that encloses the whole upper spectrum.
    """
    mat = validate_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    r = contour.radius
    gap = gap_factor * r
    seg_x = np.linspace(-r, r, _SEGMENT_PROBES)
    seg_c = _batch_sigma_min(seg_x.astype(np.complex128), mat)
    seg_x, seg_c = _refine_probes(
        seg_x, seg_c, mat, lambda x: x.astype(np.complex128), floor=gap
    )
    arc_t = np.linspace(0.0, np.pi, _ARC_PROBES)
    arc_c = _batch_sigma_min(r * np.exp(1j * arc_t), mat)
    arc_t, arc_c = _refine_probes(
        arc_t, arc_c, mat, lambda t: r * np.exp(1j * t), floor=gap / r
    )
    min_clear = min(seg_c.min(), arc_c.min())
    if min_clear < gap:
        raise ContourTooClose(
            f"probed clearance {min_clear:.3e} below threshold {gap:.3e}"
        )
    seg_c = np.maximum(seg_c, gap)
    arc_c = np.maximum(arc_c, gap)
    results = []
    evaluated = 0
    for budget in (contour.nodes, 2 * contour.nodes):
        lams, weights = _contour_nodes(contour, budget, (seg_x, seg_c), (arc_t, arc_c))
        results.append(_quadrature_sum(mat, lams, weights, gap))
        evaluated += lams.size
    drift = operator_norm(results[1] - results[0])
    if drift > refine_tol:
        raise QuadratureNotConverged(
            f"doubling the node budget moved the projector by {drift:.3e}"
        )
    q = results[1]
    tr = float(np.trace(q).real)
    if abs(tr - round(tr)) > 1e-6:
        raise QuadratureNotConverged(
            f"projector trace {tr:.8f} is not within 1e-6 of an integer"
        )
    return _finish_report(mat, q, method=contour.rule, nodes=evaluated)


def _finish_report(mat, q, method, nodes=0, enclosed=None) -> ProjectorReport:
    idem = operator_norm(q @ q - q)
    comm = operator_norm(mat @ q - q @ mat)
    tr = float(np.trace(q).real)
    svd_u = svd_s = None
    if enclosed is None:
        k = int(round(tr))
        svd_u, svd_s, _ = np.linalg.svd(q)
        if k <= 0:
            enclosed = np.empty(0, dtype=np.complex128)
        else:
            basis = svd_u[:, :k]
            enclosed = np.linalg.eigvals(basis.conj().T @ mat @ basis)
    return ProjectorReport(
        q_plus=q,
        idempotency_defect=idem,
        commutation_defect=comm,
        enclosed_eigenvalues=np.asarray(enclosed, dtype=np.complex128),
        trace=tr,
        method=method,
        nodes_used=nodes,
        svd_u=svd_u,
        svd_s=svd_s,
    )


# ---------------------------------------------------------------------------
# exact oracle via sorted Schur form
# ---------------------------------------------------------------------------


def riesz_projector_exact(a, region: str = "upper_open", tol: float = 1e-9) -> ProjectorReport:
    """Spectral projector onto the generalized eigenspaces of the upper region.

    ``region`` is "upper_open" (Im > 0; eigenvalues within ``tol`` of the
    real axis raise :class:`BoundaryEigenvalue`) or "upper_closed"
    (Im >= -tol).  Computed from a sorted complex Schur form; the coupling
    block is resolved by a Sylvester solve, which is the invariant-subspace
    refinement of a plain eigenvector sum.
    """
    mat = validate_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    if region not in ("upper_open", "upper_closed"):
        raise DimensionMismatch(f"unknown region {region!r}")
    eigs = np.linalg.eigvals(mat)
    if region == "upper_open":
        if np.any(np.abs(eigs.imag) < tol):
            worst = eigs[np.argmin(np.abs(eigs.imag))]
            raise BoundaryEigenvalue(
                f"eigenvalue {worst:.6g} within {tol:.1e} of the real axis"
            )
        cut = 0.0
    else:
        cut = -tol
    selector = lambda z: z.imag > cut  # noqa: E731 - passed to LAPACK gees
    t, z, sdim = scipy.linalg.schur(mat, output="complex", sort=selector)
    expected = int(np.sum(eigs.imag > cut))
    if sdim != expected:
        raise BoundaryEigenvalue(
            f"Schur reordering selected {sdim} eigenvalues, expected {expected}; "
            "spectrum straddles the splitting boundary"
        )
    d = mat.shape[0]
    k = int(sdim)
    if k == 0:
        q = np.zeros_like(mat)
        enclosed = np.empty(0, dtype=np.complex128)
    elif k == d:
        q = np.eye(d, dtype=np.complex128)
        enclosed = np.diag(t)
    else:
        t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
        x = scipy.linalg.solve_sylvester(t11, -t22, t12)
        core = np.zeros((d, d), dtype=np.complex128)
        core[:k, :k] = np.eye(k)
        core[:k, k:] = x
        q = z @ core @ z.conj().T
        enclosed = np.diag(t11)
    return _finish_report(mat, q, method="schur", enclosed=enclosed)


def invariant_subspace_from_projector(
    a, report: ProjectorReport, structure: KreinStructure
) -> Subspace | None:
    """Orthonormal basis of the projector range as a :class:`Subspace`.

    The rank is taken from the projector trace; a missing singular-value gap
    there raises :class:`RankAmbiguous`.  The zero projector yields None.
    """
    mat = validate_matrix(a)
    q = report.q_plus
    tr = float(np.trace(q).real)
    k = int(round(tr))
    if abs(tr - k) > 1e-6:
        raise RankAmbiguous(f"projector trace {tr:.8f} is far from an integer")
    if k == 0:
        return None
    if report.svd_u is not None:
        u, sings = report.svd_u, report.svd_s
    else:
        u, sings, _ = np.linalg.svd(q)
    if sings[k - 1] < 0.1 or (k < q.shape[0] and sings[k] > 0.5 * sings[k - 1]):
        raise RankAmbiguous(
            f"no singular-value gap at rank {k}: "
            f"s[k-1]={sings[k - 1]:.3e}, s[k]={sings[k] if k < q.shape[0] else 0.0:.3e}"
        )
    return Subspace(structure, u[:, :k])


# ---------------------------------------------------------------------------
# norm-limit spectral stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle in the complex plane."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        if self.re_lo >= self.re_hi or self.im_lo >= self.im_hi:
            raise DimensionMismatch("rectangle must have positive extent")

    def signed_distance(self, z: complex) -> float:
        """Positive outside the rectangle, negative inside."""
        dx = max(self.re_lo - z.real, 0.0, z.real - self.re_hi)
        dy = max(self.im_lo - z.imag, 0.0, z.imag - self.im_hi)
        if dx > 0.0 or dy > 0.0:
            return float(np.hypot(dx, dy))
        return -min(
            z.real - self.re_lo,
            self.re_hi - z.real,
            z.imag - self.im_lo,
            self.im_hi - z.imag,
        )


@dataclass(frozen=True)
class StabilityReport:
    sequence_min_distance: tuple[float, ...]
    limit_min_distance: float
    passed: bool


def spectral_stability_check(
    t_sequence, t_limit, omega: Rectangle, tol: float = 1e-9
) -> StabilityReport:
    """Norm convergence keeps a spectrum-free region spectrum free.

    Every approximant must avoid ``omega`` (otherwise
    :class:`HypothesisViolated` fires, a harness signal); the limit is then
    asserted to avoid it as well, with at least ``tol`` clearance from the
    boundary.
    """
    limit = validate_matrix(t_limit, "T_limit")
    mats = [validate_matrix(t, f"T_{i}") for i, t in enumerate(t_sequence)]
    if not mats:
        raise DimensionMismatch("empty approximating sequence")
    gaps = [operator_norm(t - limit) for t in mats]
    for g_prev, g_next in zip(gaps, gaps[1:]):
        if g_next > g_prev + 1e-12:
            raise DimensionMismatch("approximation errors must be non-increasing")
    seq_dists = []
    for i, t in enumerate(mats):
        dists = [omega.signed_distance(z) for z in np.linalg.eigvals(t)]
        worst = min(dists)
        if worst <= 0.0:
            raise HypothesisViolated(
                f"approximant {i} has an eigenvalue inside the probed region"
            )
        seq_dists.append(worst)
    limit_dist = min(omega.signed_distance(z) for z in np.linalg.eigvals(limit))
    return StabilityReport(tuple(seq_dists), float(limit_dist), limit_dist >= tol)
