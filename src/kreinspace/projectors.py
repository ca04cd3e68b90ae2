"""Riesz spectral projectors and invariant subspaces of the upper half-plane.

Two independent routes to the upper spectral projector:

* :func:`riesz_projector_quadrature` discretizes (2 pi i)^{-1} times the
  contour integral of the resolvent over a closed contour made of the
  segment [-R, R] and the upper semicircle of radius R;
* :func:`riesz_projector_exact` splits a sorted complex Schur form with a
  Sylvester solve.

The sorted Schur form also gives the projector's range directly:
:func:`upper_invariant_subspace` returns its leading Schur vectors, and
:func:`upper_schur_form` the whole form, which is how the solver computes
the first cell of each Galerkin row.  The quadrature is the paper's own
construction and stays independent of the Schur route; it serves as the
cross-check of the Schur projector (``harness.check_instance``, acceptance
criterion 2) and as the ``"quadrature"`` route of
``solver.solve_uniformly_dissipative``.

The quadrature has one rule: 21-point Gauss panels embedded in their
43-point Kronrod extension (G21 inside K43), graded by the local spectral
clearance sigma_min(lambda - A) probed along the contour.  Each panel
carries an equal share of the integral of 1/clearance, so panel lengths
shrink in proportion to the clearance, which keeps the node count
logarithmic in R/clearance instead of linear.  A node budget counts Gauss
points and buys ``max(2, budget // 21)`` whole panels.  Each call probes the
contour once (9 segment and 5 arc probes, bisected where the clearance is
tight) and climbs a ladder of panel counts.  A rung evaluates the 43 Kronrod
nodes of every panel and forms two sums from them: the K43 sum and the G21
sum on the same panels, the coarser comparator.  The call returns the K43
sum of the first rung whose two sums differ by at most 1e-8 and whose trace
is an integer.  The first rung is the contour's budget, split between the
segment and the arc by their measures; each further rung gives both pieces
about half more panels, ``max(1, n // 2)``, up to the first rung with at
least ``LADDER_REACH`` (16) times the budget's Gauss points.  By default
that is 3 panels, 129 resolvents.  An eigenvalue within 1e-6 R of the
contour fails the call.  The harness's cross-check reads only the
projector, so it calls the ladder without the report's defects, SVD and
eigenvalues.

Resolvent evaluations at the nodes are independent; each panel's 43 nodes
are evaluated as one batched inverse and both sums are accumulated panel by
panel in a fixed order, so results are reproducible bit-for-bit for a given
node budget and the working set stays at one panel's inverses.
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

#: ``ProjectorReport.method`` of the quadrature route
QUADRATURE_RULE = "gauss_segments"
#: Gauss points per panel; a node budget counts these
GAUSS_PANEL_ORDER = 21
#: resolvent nodes per panel: the Kronrod extension of the Gauss points
KRONROD_PANEL_ORDER = 2 * GAUSS_PANEL_ORDER + 1
# an eigenvalue closer than GAP_FACTOR * R to the contour is too close
GAP_FACTOR = 1e-6
# largest gap allowed between a rung's Kronrod sum and its Gauss sum
REFINE_TOL = 1e-8
# the ladder's top rung has at least LADDER_REACH times the budget's Gauss points
LADDER_REACH = 16
_SEGMENT_PROBES = 9
_ARC_PROBES = 5


def _kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod rule on [-1, 1] and its embedded Gauss rule.

    Laurie's algorithm ("Calculation of Gauss-Kronrod quadrature rules",
    Math. Comp. 66, 1997; after Gautschi's ``r_kronrod``) extends the
    Legendre recurrence to the Jacobi-Kronrod matrix.  Its eigenvalues are
    the nodes, and 2 times the squared first eigenvector components are the
    weights.  The rule is exact to degree 3n + 1 and holds the n Gauss
    nodes as its odd-indexed nodes.  Returns the nodes and a ``(2, 2n+1)``
    weight array: the Kronrod weights, then the Gauss weights on the
    embedded nodes and zero on the others.
    """
    size = (3 * n) // 2 + 2
    # the Legendre recurrence: a_i = 0, b_0 = 2, b_i = i^2 / (4 i^2 - 1)
    i = np.arange(1, size, dtype=float)
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    b[0] = 2.0
    b[1:size] = i**2 / (4.0 * i**2 - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        lo = m - k
        s[k + 1] = np.cumsum(
            (a[k + n + 1] - a[lo]) * t[k + 1] + b[k + n + 1] * s[k] - b[lo] * s[k + 1]
        )
        s, t = t, s
    j = np.arange(n // 2 + 1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        lo = m - k
        j = n - 1 - lo
        s[j + 1] = np.cumsum(
            -(a[k + n + 1] - a[lo]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[lo] * s[j + 2]
        )
        j = j[-1]
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    x, v = scipy.linalg.eigh_tridiagonal(a, np.sqrt(b[1:]))
    w = b[0] * v[0] ** 2
    weights = np.zeros((2, 2 * n + 1))
    # the rule is symmetric about 0; averaging the mirror images keeps it so
    x = 0.5 * (x - x[::-1])
    weights[0] = 0.5 * (w + w[::-1])
    weights[1, 1::2] = np.polynomial.legendre.leggauss(n)[1]
    return x, weights


_KRONROD_X, _KRONROD_W = _kronrod_rule(GAUSS_PANEL_ORDER)


@dataclass(frozen=True)
class Contour:
    """Closed contour: segment [-R, R] plus the upper semicircle of radius R."""

    radius: float
    nodes: int = 64

    def __post_init__(self):
        if not self.radius > 0:
            raise DimensionMismatch("contour radius must be positive")
        # a budget buys max(2, nodes // GAUSS_PANEL_ORDER) panels, so small
        # budgets all buy the same two
        if self.nodes < 32 or self.nodes % 2:
            raise DimensionMismatch("node count must be even and at least 32")


@dataclass
class ProjectorReport:
    q_plus: np.ndarray = field(repr=False)
    idempotency_defect: float = 0.0
    commutation_defect: float = 0.0
    enclosed_eigenvalues: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    trace: float = 0.0
    method: str = "exact"
    # resolvent nodes of every rung of the quadrature ladder; 0 for the Schur oracle
    nodes_used: int = 0
    # cached SVD of q_plus, shared with the subspace extraction
    svd_u: np.ndarray | None = field(default=None, repr=False)
    svd_s: np.ndarray | None = field(default=None, repr=False)


def default_contour_radius(a) -> float:
    """R = 2 max(1, 1.1 |A|), which encloses the spectrum since rho(A) <= |A|."""
    return 2.0 * max(1.0, 1.1 * operator_norm(a))


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
        if not np.any(tight):
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


def _panel_split(budget: int, seg_profile, arc_profile) -> tuple[int, int]:
    """Segment and arc panel counts of a node budget.

    The budget counts Gauss points and buys
    ``max(2, budget // GAUSS_PANEL_ORDER)`` panels,
    split between segment and arc in proportion to their measures of
    1/clearance, with at least one panel on each.
    """
    seg_measure, arc_measure = seg_profile[1][-1], arc_profile[1][-1]
    panels = max(2, budget // GAUSS_PANEL_ORDER)
    share = seg_measure / (seg_measure + arc_measure)
    n_seg = min(max(int(round(panels * share)), 1), panels - 1)
    return n_seg, panels - n_seg


def _contour_nodes(contour: Contour, split, seg_profile, arc_profile):
    """All contour nodes with complex weights including the orientation factor.

    The profiles pair the probe points with the running measure of
    1/clearance.  ``split`` holds the equal-measure panel counts of the
    segment and of the arc, so a rung evaluates exactly
    ``KRONROD_PANEL_ORDER * sum(split)`` nodes.  The weights are a
    ``(2, nodes)`` array: the Kronrod sum's row and the Gauss sum's row.
    """
    r = contour.radius
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
            inverses = np.linalg.inv(_shifted_stack(lams[panel], a))
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


def riesz_projector_quadrature(a, contour: Contour) -> ProjectorReport:
    """Quadrature realization of the upper Riesz projector.

    The contour is probed once and the graded Gauss-Kronrod rule (G21
    inside K43) climbs a ladder of panel counts.  The first rung is the
    contour's node budget, which counts Gauss points and buys
    ``max(2, b // GAUSS_PANEL_ORDER)`` panels, split into segment and arc
    panels by their measures; each further rung gives the segment and the
    arc ``max(1, n // 2)`` more equal-measure panels each, up to the first
    rung with at least ``LADDER_REACH`` (16) times the budget's Gauss
    points.  A rung evaluates the 43 Kronrod nodes of each panel.  Its K43
    sum is returned when it differs from the G21 sum on the same panels by
    at most ``REFINE_TOL`` (1e-8) and its trace lies within 1e-6 of an
    integer; if the top rung fails either check,
    :class:`QuadratureNotConverged` is raised.  An eigenvalue within
    ``GAP_FACTOR * R`` (1e-6 R) of the contour raises
    :class:`ContourTooClose`.  The report's ``nodes_used`` counts the
    resolvent nodes of every rung evaluated, ``KRONROD_PANEL_ORDER`` per
    panel.  The caller is responsible for a radius that encloses the whole
    upper spectrum.
    """
    mat = validate_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    q, nodes = _quadrature_projector(mat, contour)
    return _finish_report(mat, q, method=QUADRATURE_RULE, nodes=nodes)


def _quadrature_projector(mat: np.ndarray, contour: Contour) -> tuple[np.ndarray, int]:
    """The accepted Kronrod sum of a square matrix and the nodes the ladder used.

    This is :func:`riesz_projector_quadrature` without the report's
    defects, SVD and enclosed eigenvalues, for a caller that reads only the
    projector.  The node count covers every rung evaluated, 43 resolvents
    per panel; at the default budget one rung of 3 panels is 129.
    """
    r = contour.radius
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
    split = _panel_split(contour.nodes, *profiles)
    top = LADDER_REACH * contour.nodes
    evaluated = 0
    while True:
        lams, weights = _contour_nodes(contour, split, *profiles)
        kronrod, gauss = _quadrature_sum(mat, lams, weights, gap)
        evaluated += lams.size
        drift = operator_norm(kronrod - gauss)
        tr = float(np.trace(kronrod).real)
        if drift <= REFINE_TOL and abs(tr - round(tr)) <= 1e-6:
            return kronrod, evaluated
        if GAUSS_PANEL_ORDER * sum(split) >= top:
            raise QuadratureNotConverged(
                f"the {lams.size}-node Kronrod sum differs from its Gauss sum "
                f"by {drift:.3e} (trace {tr:.8f})"
            )
        # the next rung gives each piece about half more panels
        split = tuple(n + max(1, n // 2) for n in split)


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


def _upper_schur(mat: np.ndarray, region: str, tol: float):
    """Complex Schur form ``(T, Z, sdim)`` with the upper eigenvalues first.

    ``region`` is "upper_open" (Im > 0; eigenvalues within ``tol`` of the
    real axis raise :class:`BoundaryEigenvalue`) or "upper_closed"
    (Im >= -tol).  The eigenvalues are read from the diagonal of T.  A
    reordering LAPACK cannot carry out, or a selection count that disagrees
    with that diagonal, means the spectrum straddles the splitting boundary
    and raises :class:`BoundaryEigenvalue` as well.
    """
    if region not in ("upper_open", "upper_closed"):
        raise DimensionMismatch(f"unknown region {region!r}")
    cut = 0.0 if region == "upper_open" else -tol
    selector = lambda z: z.imag > cut  # noqa: E731 - passed to LAPACK gees
    try:
        t, z, sdim = scipy.linalg.schur(mat, output="complex", sort=selector)
    except np.linalg.LinAlgError as exc:
        raise BoundaryEigenvalue(f"Schur reordering failed: {exc}") from exc
    eigs = np.diag(t)
    if region == "upper_open" and np.any(np.abs(eigs.imag) < tol):
        worst = eigs[np.argmin(np.abs(eigs.imag))]
        raise BoundaryEigenvalue(
            f"eigenvalue {worst:.6g} within {tol:.1e} of the real axis"
        )
    expected = int(np.sum(eigs.imag > cut))
    if sdim != expected:
        raise BoundaryEigenvalue(
            f"Schur reordering selected {sdim} eigenvalues, expected {expected}; "
            "spectrum straddles the splitting boundary"
        )
    return t, z, int(sdim)


def riesz_projector_exact(a, region: str = "upper_open", tol: float = 1e-9) -> ProjectorReport:
    """Spectral projector onto the generalized eigenspaces of the upper region.

    ``region`` and ``tol`` are those of the sorted Schur form (eigenvalues
    within ``tol`` of the real axis raise :class:`BoundaryEigenvalue` for
    "upper_open"; "upper_closed" keeps Im >= -tol).  The coupling block of
    the Schur form is resolved by a Sylvester solve, which is the
    invariant-subspace refinement of a plain eigenvector sum.
    """
    mat = validate_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    q, enclosed = _schur_projector(mat, region, tol)
    return _finish_report(mat, q, method="schur", enclosed=enclosed)


def _schur_projector(mat: np.ndarray, region: str, tol: float):
    """The projector of :func:`riesz_projector_exact` and its enclosed eigenvalues.

    For a caller that reads only the projector: no defects are computed.
    """
    t, z, k = _upper_schur(mat, region, tol)
    d = mat.shape[0]
    if k == 0:
        return np.zeros_like(mat), np.empty(0, dtype=np.complex128)
    if k == d:
        return np.eye(d, dtype=np.complex128), np.diag(t)
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    # T11 X - X T22 = T12 on blocks that are already triangular
    x, scale, _ = scipy.linalg.lapack.ztrsyl(t11, t22, t12, isgn=-1)
    x /= scale
    core = np.zeros((d, d), dtype=np.complex128)
    core[:k, :k] = np.eye(k)
    core[:k, k:] = x
    return z @ core @ z.conj().T, np.diag(t11)


def upper_schur_form(a, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Sorted complex Schur form ``(T, Z, sdim)``, eigenvalues with Im > 0 first.

    A = Z T Z* with T upper triangular; the leading sdim columns of Z span
    the invariant subspace of the sdim eigenvalues with Im > 0.  An
    eigenvalue within ``tol`` of the real axis raises
    :class:`BoundaryEigenvalue`.
    """
    mat = validate_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    return _upper_schur(mat, "upper_open", tol)


def upper_invariant_subspace(a, structure: KreinStructure, tol: float) -> Subspace | None:
    """The invariant subspace of the eigenvalues with Im > 0, or None if none.

    Its orthonormal basis is the leading Schur vectors of the sorted complex
    Schur form (Laub's Schur method, :func:`upper_schur_form`), so no
    projector is formed.  An eigenvalue within ``tol`` of the real axis
    raises :class:`BoundaryEigenvalue`.
    """
    _, z, sdim = upper_schur_form(a, tol)
    return Subspace(structure, z[:, :sdim]) if sdim else None


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


def spectral_stability_check(t_sequence, t_limit, omega: Rectangle) -> StabilityReport:
    """Norm convergence keeps a spectrum-free region spectrum free.

    Every approximant must avoid ``omega`` (otherwise
    :class:`HypothesisViolated` fires, a harness signal); the limit is then
    asserted to avoid it as well, with at least 1e-9 clearance from the
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
    return StabilityReport(tuple(seq_dists), float(limit_dist), limit_dist >= 1e-9)
