"""Riesz spectral projectors and invariant subspaces of the upper half-plane.

Three independent routes to the upper spectral projector:

* :func:`riesz_projector_quadrature` discretizes (2 pi i)^{-1} times the
  contour integral of the resolvent over a closed contour made of the
  segment [-R, R] and the upper semicircle of radius R;
* :func:`riesz_projector_exact` splits a sorted complex Schur form with a
  Sylvester solve;
* the private ``_sign_projector`` forms (I + sign(-i A)) / 2 by the
  determinant-scaled Newton sign iteration, from LU factorizations alone.

The sorted Schur form also gives the projector's range directly, as its
leading Schur vectors: :func:`upper_schur_form` returns the whole form,
which is how the solver computes the first cell of each Galerkin row.  The
sign iteration is the cross-check of the Schur projector in
``harness.check_instance``: it needs 5 to 7 LU steps where the quadrature
needs 129 resolvents.  The quadrature is the paper's own construction and
stays independent of the Schur route; acceptance criterion 2 and the
projector tests check it against the Schur projector.  Its range, through
:func:`invariant_subspace_from_projector`, gives the quadrature's own K.

The quadrature has one rule: 21-point Gauss panels embedded in their
43-point Kronrod extension (G21 inside K43), built once at import from the
rule's definition, the Gauss nodes plus the zeros of the Stieltjes
polynomial with weights exact to degree 42, and graded by the local spectral
clearance sigma_min(lambda - A) probed along the contour.  Each panel
carries an equal share of the integral of 1/clearance, so panel lengths
shrink in proportion to the clearance, which keeps the node count
logarithmic in R/clearance instead of linear.  A call takes the radius R
alone.  It probes the contour once (9 segment and 5 arc probes, bisected
where the clearance is tight) and climbs a ladder of panel counts.  A rung
evaluates the 43 Kronrod nodes of every panel and forms two sums from them:
the K43 sum and the G21 sum on the same panels, the coarser comparator.
The call returns the K43 sum of the first rung whose two sums differ by at
most 1e-8 and whose trace is an integer.  The first rung holds the whole
panels of ``NODE_BUDGET`` (64) Gauss points, 3 panels and 129 resolvents,
split between the segment and the arc by their measures; each further rung
gives both pieces about half more panels, ``max(1, n // 2)``, up to the
first rung with at least ``LADDER_REACH`` (16) times 64 Gauss points.  An
eigenvalue within 1e-6 R of the contour fails the call.

Resolvent evaluations at the nodes are independent; each panel's 43 nodes
are evaluated as one batched inverse and both sums are accumulated panel by
panel in a fixed order, so results are reproducible bit-for-bit and the
working set stays at one panel's inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BoundaryEigenvalue,
    ContourTooClose,
    DimensionMismatch,
    QuadratureNotConverged,
    RankAmbiguous,
)
from .geometry import KreinStructure, Subspace
from .numerics import operator_norm, shifted, validate_matrix

#: the quadrature rule ``kreinspace spectrum`` reports as ``contour_used.rule``
QUADRATURE_RULE = "gauss_segments"
#: Gauss points per panel
GAUSS_PANEL_ORDER = 21
#: Gauss points of the ladder's first rung, which buys NODE_BUDGET // 21 = 3 panels
NODE_BUDGET = 64
#: resolvent nodes per panel: the Kronrod extension of the Gauss points
KRONROD_PANEL_ORDER = 2 * GAUSS_PANEL_ORDER + 1
# an eigenvalue closer than GAP_FACTOR * R to the contour is too close
GAP_FACTOR = 1e-6
# largest gap allowed between a rung's Kronrod sum and its Gauss sum
REFINE_TOL = 1e-8
# the ladder's top rung has at least LADDER_REACH * NODE_BUDGET Gauss points
LADDER_REACH = 16
_SEGMENT_PROBES = 9
_ARC_PROBES = 5
# the sign iteration settles at a relative 1-norm change of at most SIGN_TOL
SIGN_TOL = 5e-13
# largest |X^2 - I|_1 / |X|_1^2 accepted from a settled sign iteration
_SIGN_RESIDUAL_TOL = 1e-10


def _kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod rule on [-1, 1] and its embedded Gauss rule.

    Built from the rule's definition, by two small, well-conditioned solves.
    The nodes are the n Gauss nodes and the n + 1 zeros of the Stieltjes
    polynomial E = P_{n+1} + sum_{k<=n} c_k P_k, for which P_n E is
    orthogonal to P_0 ... P_n; the (2n+2)-point Gauss rule integrates these
    triple products, of degree at most 3n + 1, exactly.  The weights
    integrate P_0 ... P_2n exactly.  The rule is exact to degree 3n + 1 and
    holds the n Gauss nodes as its odd-indexed nodes.  Returns the nodes
    and a ``(2, 2n+1)`` weight array: the Kronrod weights, then the Gauss
    weights on the embedded nodes and zero on the others.
    """
    leg = np.polynomial.legendre
    gauss_x, gauss_w = leg.leggauss(n)
    t, tw = leg.leggauss(2 * n + 2)
    p = leg.legvander(t, n + 1)
    moments = (tw * p[:, n] * p[:, : n + 1].T) @ p
    c = np.linalg.solve(moments[:, : n + 1], -moments[:, n + 1])
    x = np.sort(np.concatenate([gauss_x, leg.legroots(np.append(c, 1.0))]))
    # the rule is symmetric about 0; averaging the mirror images keeps it so
    x = 0.5 * (x - x[::-1])
    # the integrals of P_0 ... P_2n over [-1, 1] are 2, 0, ..., 0
    w = np.linalg.solve(leg.legvander(x, 2 * n).T, np.eye(2 * n + 1)[0] * 2.0)
    weights = np.zeros((2, 2 * n + 1))
    weights[0] = 0.5 * (w + w[::-1])
    weights[1, 1::2] = gauss_w
    return x, weights


_KRONROD_X, _KRONROD_W = _kronrod_rule(GAUSS_PANEL_ORDER)


@dataclass
class ProjectorReport:
    q_plus: np.ndarray = field(repr=False)
    idempotency_defect: float = 0.0
    commutation_defect: float = 0.0
    trace: float = 0.0


def default_contour_radius(a) -> float:
    """R = 2 max(1, 1.1 |A|), which encloses the spectrum since rho(A) <= |A|."""
    return 2.0 * max(1.0, 1.1 * operator_norm(a))


# ---------------------------------------------------------------------------
# quadrature internals
# ---------------------------------------------------------------------------


def _batch_sigma_min(lams: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(shifted(-a, -lams), compute_uv=False)[:, -1]


def _refine_probes(xs, cs, mat, to_lambda, floor: float):
    """Bisect probe intervals whose clearance is small against their width.

    Coarse probing can step right over a narrow resolvent spike; refinement
    continues, for at most 20 rounds, until the local spacing drops well below
    the local clearance or below ``floor`` (the too-close threshold), so an
    eigenvalue sitting on the contour is actually seen.
    """
    xs = np.asarray(xs, dtype=float)
    cs = np.asarray(cs, dtype=float)
    for _ in range(20):
        width = np.diff(xs)
        tight = (np.minimum(cs[:-1], cs[1:]) < 2.0 * width) & (width > 0.5 * floor)
        if not tight.any():
            break
        mids = 0.5 * (xs[:-1] + xs[1:])[tight]
        mid_c = _batch_sigma_min(to_lambda(mids), mat)
        xs = np.concatenate([xs, mids])
        cs = np.concatenate([cs, mid_c])
        order = np.argsort(xs)
        xs, cs = xs[order], cs[order]
    return xs, cs


def _running_measure(x, c):
    """Running trapezoid integral of 1/c over the probe points x."""
    density = 1.0 / c
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(x)
    return np.concatenate(([0.0], np.cumsum(steps)))


def _panel_nodes(x, measure, count):
    """Kronrod nodes and the two weight rows of ``count`` panels of equal measure.

    The panel edges invert the running measure by interpolation, so panel
    lengths track the local clearance and a clearance dip inside a panel
    shortens it.  Each panel's 43 nodes are contiguous; the weights are a
    ``(2, 43 count)`` array, the Kronrod row and then the Gauss row.
    """
    edges = np.interp(np.linspace(0.0, measure[-1], count + 1), measure, x)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _KRONROD_X
    weights = half[None, :, None] * _KRONROD_W[:, None, :]
    return nodes.ravel(), weights.reshape(2, -1)


def _panel_split(seg_profile, arc_profile) -> tuple[int, int]:
    """Segment and arc panel counts of the ladder's first rung.

    ``NODE_BUDGET // GAUSS_PANEL_ORDER`` panels, split between segment and
    arc in proportion to their measures of 1/clearance, with at least one
    panel on each.
    """
    seg_measure, arc_measure = seg_profile[1][-1], arc_profile[1][-1]
    panels = NODE_BUDGET // GAUSS_PANEL_ORDER
    share = seg_measure / (seg_measure + arc_measure)
    n_seg = min(max(int(round(panels * share)), 1), panels - 1)
    return n_seg, panels - n_seg


def _contour_nodes(r: float, split, seg_profile, arc_profile):
    """All contour nodes with complex weights including the orientation factor.

    The profiles pair the probe points with the running measure of
    1/clearance.  ``split`` holds the equal-measure panel counts of the
    segment and of the arc, so a rung evaluates exactly
    ``KRONROD_PANEL_ORDER * sum(split)`` nodes.  The weights are a
    ``(2, nodes)`` array: the Kronrod sum's row and the Gauss sum's row.
    """
    n_seg, n_arc = split
    ts, tw = _panel_nodes(*seg_profile, n_seg)
    thetas, th_w = _panel_nodes(*arc_profile, n_arc)
    lam_arc = r * np.exp(1j * thetas)
    lams = np.concatenate([ts, lam_arc])
    weights = np.concatenate([tw, th_w * 1j * lam_arc], axis=1) / (2j * np.pi)
    return lams, weights


def _quadrature_sum(a: np.ndarray, lams: np.ndarray, weights: np.ndarray, gap: float):
    """The weighted resolvent sums of one rung, one ``(d, d)`` sum per weight row.

    The nodes are inverted one panel (``KRONROD_PANEL_ORDER`` nodes) at a
    time, and each panel's inverses enter every sum through one product, so
    at most one panel's inverses are held at once.
    """
    d = a.shape[0]
    sums = np.zeros((weights.shape[0], d * d), dtype=np.complex128)
    for start in range(0, lams.size, KRONROD_PANEL_ORDER):
        panel = slice(start, start + KRONROD_PANEL_ORDER)
        try:
            inverses = np.linalg.inv(shifted(-a, -lams[panel]))
        except np.linalg.LinAlgError as exc:
            raise ContourTooClose(f"resolvent singular on the contour: {exc}") from exc
        # sigma_min >= 1/frobenius(inverse); only ambiguous nodes get the exact check
        frob = np.sqrt(
            np.einsum("kij,kij->k", inverses.real, inverses.real)
            + np.einsum("kij,kij->k", inverses.imag, inverses.imag)
        )
        suspect = start + np.where(1.0 / frob < gap)[0]
        if suspect.size:
            exact = _batch_sigma_min(lams[suspect], a)
            if exact.min() < gap:
                k = suspect[int(np.argmin(exact))]
                raise ContourTooClose(
                    f"sigma_min(lambda - A) = {exact.min():.3e} < {gap:.3e} "
                    f"at contour node {lams[k]:.6g}"
                )
        sums += weights[:, panel] @ inverses.reshape(-1, d * d)
    return sums.reshape(-1, d, d)


def riesz_projector_quadrature(a, radius: float) -> ProjectorReport:
    """Quadrature realization of the upper Riesz projector.

    The contour is the segment [-R, R] plus the upper semicircle of radius
    R = ``radius``, which must be positive and finite.  It is probed once
    and the graded Gauss-Kronrod rule (G21 inside K43) climbs a ladder of
    panel counts.  The first rung holds ``NODE_BUDGET // GAUSS_PANEL_ORDER``
    (3) panels, split into segment and arc panels by their measures; each
    further rung gives the segment and the arc ``max(1, n // 2)`` more
    equal-measure panels each, up to the first rung with at least
    ``LADDER_REACH * NODE_BUDGET`` (1024) Gauss points.  A rung evaluates
    the 43 Kronrod nodes of each panel, 129 resolvents on the first.  Its
    K43 sum is returned when it differs from the G21 sum on the same panels
    by at most ``REFINE_TOL`` (1e-8) and its trace lies within 1e-6 of an
    integer; if the top rung fails either check,
    :class:`QuadratureNotConverged` is raised.  An eigenvalue within
    ``GAP_FACTOR * R`` (1e-6 R) of the contour raises
    :class:`ContourTooClose`.  The caller is responsible for a radius that
    encloses the whole upper spectrum.
    """
    mat = validate_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    if not 0 < radius < np.inf:
        raise DimensionMismatch("contour radius must be positive and finite")
    r = radius
    gap = GAP_FACTOR * r
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
    # the arc's clearance per radian is its clearance per arc length over R
    profiles = (
        (seg_x, _running_measure(seg_x, np.maximum(seg_c, gap))),
        (arc_t, _running_measure(arc_t, np.maximum(arc_c, gap) / r)),
    )
    split = _panel_split(*profiles)
    while True:
        lams, weights = _contour_nodes(r, split, *profiles)
        kronrod, gauss = _quadrature_sum(mat, lams, weights, gap)
        drift = operator_norm(kronrod - gauss)
        tr = float(np.trace(kronrod).real)
        if drift <= REFINE_TOL and abs(tr - round(tr)) <= 1e-6:
            return _finish_report(mat, kronrod)
        if GAUSS_PANEL_ORDER * sum(split) >= LADDER_REACH * NODE_BUDGET:
            raise QuadratureNotConverged(
                f"the {lams.size}-node Kronrod sum differs from its Gauss sum "
                f"by {drift:.3e} (trace {tr:.8f})"
            )
        # the next rung gives each piece about half more panels
        split = tuple(n + max(1, n // 2) for n in split)


# ---------------------------------------------------------------------------
# Newton sign iteration
# ---------------------------------------------------------------------------


def _sign_projector(mat: np.ndarray, clearance: float) -> tuple[np.ndarray, int]:
    """The upper Riesz projector ``(I + sign(-i M)) / 2`` and its LU steps.

    The determinant-scaled Newton iteration ``X <- (mu X + (mu X)^{-1}) / 2``
    runs from ``X_0 = -i M``, with ``mu = |det X|^{-1/d}`` read off the LU
    factors that also give the inverse (Higham, *Functions of Matrices*,
    SIAM 2008, ch. 5; Kenney & Laub, SIAM J. Matrix Anal. Appl. 13, 1992).
    It uses LU factorizations only, so it shares nothing with the Schur
    route.  It stops once the relative 1-norm change of a step is at most
    ``SIGN_TOL`` (5e-13).  ``clearance`` is the caller's lower bound on
    the distance of the spectrum from the real axis.  The iteration is
    capped at ``max(ceil(log2(R / clearance)), 0) + 10`` steps, R the
    :func:`default_contour_radius` of M.  An exactly singular iterate, no
    settling within the cap, ``|X^2 - I|_1 > 1e-10 |X|_1^2`` or a projector
    trace more than 1e-6 from an integer raise :class:`BoundaryEigenvalue`:
    an eigenvalue on or near the real axis leaves the sign undefined.  So
    does a clearance outside (0, inf), which bounds no step count.
    """
    if not 0.0 < clearance < math.inf:  # NaN fails the range test
        raise BoundaryEigenvalue(f"clearance {clearance} bounds no sign step count")
    d = mat.shape[0]
    cap = max(math.ceil(math.log2(default_contour_radius(mat) / clearance)), 0) + 10
    eye = np.eye(d, dtype=np.complex128)
    x = -1j * mat
    for step in range(1, cap + 1):
        lu, piv, info = scipy.linalg.lapack.zgetrf(x)
        if info > 0:
            raise BoundaryEigenvalue(f"sign iterate {step} is singular")
        inv, _ = scipy.linalg.lapack.zgetri(lu, piv)
        # |det X| is the product of |U_kk|; its log mean cannot overflow
        mu = np.exp(-np.mean(np.log(np.abs(np.diag(lu)))))
        new = 0.5 * (mu * x + inv / mu)
        change = np.linalg.norm(new - x, 1) / np.linalg.norm(new, 1)
        x = new
        if change <= SIGN_TOL:
            break
    else:
        raise BoundaryEigenvalue(
            f"the sign iteration did not settle in {cap} steps "
            f"(last relative change {change:.3e})"
        )
    residual = np.linalg.norm(x @ x - eye, 1) / np.linalg.norm(x, 1) ** 2
    q = 0.5 * (eye + x)
    tr = float(np.trace(q).real)
    if not residual <= _SIGN_RESIDUAL_TOL or abs(tr - round(tr)) > 1e-6:
        raise BoundaryEigenvalue(
            f"the settled sign iterate has |X^2 - I| = {residual:.3e} |X|^2 "
            f"and projector trace {tr:.8f}"
        )
    return q, step


def _finish_report(mat, q) -> ProjectorReport:
    return ProjectorReport(
        q_plus=q,
        idempotency_defect=operator_norm(q @ q - q),
        commutation_defect=operator_norm(mat @ q - q @ mat),
        trace=float(np.trace(q).real),
    )


# ---------------------------------------------------------------------------
# exact oracle via sorted Schur form
# ---------------------------------------------------------------------------


def upper_schur_form(a, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Sorted complex Schur form ``(T, Z, sdim)``, eigenvalues with Im > 0 first.

    A = Z T Z* with T upper triangular; the leading sdim columns of Z span
    the invariant subspace of the sdim eigenvalues with Im > 0 (Laub's Schur
    method: no projector is formed).  The eigenvalues are read from the
    diagonal of T.  An eigenvalue within ``tol`` of the real axis, a
    reordering LAPACK cannot carry out, or a selection count that disagrees
    with that diagonal raises :class:`BoundaryEigenvalue`: the spectrum
    straddles the real axis.  ``tol`` is finite and >= 0.
    """
    mat = validate_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    if not 0.0 <= tol < np.inf:  # NaN fails the range test
        raise DimensionMismatch(f"tol must be finite and nonnegative, got {tol}")
    try:
        t, z, sdim = scipy.linalg.schur(mat, output="complex", sort=lambda w: w.imag > 0.0)
    except np.linalg.LinAlgError as exc:
        raise BoundaryEigenvalue(f"Schur reordering failed: {exc}") from exc
    eigs = np.diag(t)
    if (np.abs(eigs.imag) < tol).any():
        worst = eigs[np.argmin(np.abs(eigs.imag))]
        raise BoundaryEigenvalue(
            f"eigenvalue {worst:.6g} within {tol:.1e} of the real axis"
        )
    expected = int(np.sum(eigs.imag > 0.0))
    if sdim != expected:
        raise BoundaryEigenvalue(
            f"Schur reordering selected {sdim} eigenvalues, expected {expected}; "
            "spectrum straddles the splitting boundary"
        )
    return t, z, int(sdim)


def riesz_projector_exact(a, region: str = "upper_open") -> ProjectorReport:
    """Spectral projector onto the generalized eigenspaces with Im > 0.

    ``region`` must be "upper_open", the one region there is.  An
    eigenvalue within 1e-9 of the real axis raises
    :class:`BoundaryEigenvalue` (:func:`upper_schur_form` with that
    ``tol``).  The coupling block of the
    Schur form is resolved by a Sylvester solve, which is the
    invariant-subspace refinement of a plain eigenvector sum.
    """
    if region != "upper_open":
        raise DimensionMismatch(f"unknown region {region!r}")
    mat = validate_matrix(a)
    return _finish_report(mat, _schur_projector(mat, 1e-9))


def _schur_projector(mat: np.ndarray, tol: float) -> np.ndarray:
    """The projector of :func:`riesz_projector_exact`.

    For a caller that reads only the projector: no defects are computed.
    """
    t, z, k = upper_schur_form(mat, tol)
    d = mat.shape[0]
    if k == 0:
        return np.zeros_like(mat)
    if k == d:
        return np.eye(d, dtype=np.complex128)
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    # T11 X - X T22 = T12 on blocks that are already triangular
    x, scale, _ = scipy.linalg.lapack.ztrsyl(t11, t22, t12, isgn=-1)
    x /= scale
    core = np.zeros((d, d), dtype=np.complex128)
    core[:k, :k] = np.eye(k)
    core[:k, k:] = x
    return z @ core @ z.conj().T


def invariant_subspace_from_projector(
    a, report: ProjectorReport, structure: KreinStructure
) -> Subspace | None:
    """Orthonormal basis of the projector range as a :class:`Subspace`.

    The rank is taken from the projector trace; a missing singular-value gap
    there raises :class:`RankAmbiguous`.  The zero projector yields None.  A
    projector of another shape than ``a`` raises :class:`DimensionMismatch`.
    """
    mat = validate_matrix(a)
    q = report.q_plus
    if q.shape != mat.shape:
        raise DimensionMismatch(
            f"projector of shape {q.shape} for an operator of shape {mat.shape}"
        )
    tr = float(np.trace(q).real)
    k = int(round(tr))
    if abs(tr - k) > 1e-6:
        raise RankAmbiguous(f"projector trace {tr:.8f} is far from an integer")
    if k == 0:
        return None
    u, sings, _ = np.linalg.svd(q)
    if sings[k - 1] < 0.1 or (k < q.shape[0] and sings[k] > 0.5 * sings[k - 1]):
        raise RankAmbiguous(
            f"no singular-value gap at rank {k}: "
            f"s[k-1]={sings[k - 1]:.3e}, s[k]={sings[k] if k < q.shape[0] else 0.0:.3e}"
        )
    return Subspace(structure, u[:, :k])
