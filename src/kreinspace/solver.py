"""Invariant-subspace solver for dissipative block operators.

The computational route follows the constructive double limit: compress the
positive component to growing Galerkin subspaces, add the regularization
i*eps*J which raises the dissipativity margin by exactly eps, take each
regularized cell's invariant subspace for the eigenvalues with Im > 0 (the
range of its upper Riesz projector) in a sorted complex Schur basis, read
off the angle operator K of that subspace, and drive eps down a geometric
schedule.  A cell computes only what its trace
records: |K|, |L| with L = A21 + (A22 - mu) K, and min Im of the spectrum of
A11 + A12 K.  Every cell result is recorded in a convergence trace; the
accepted K is the small-eps limit, finished off by a Newton step on the
graph-invariance Riccati equation

    A21 + A22 K - K A11 - K A12 K = 0,

which is the shift-free form of L = K(S - mu + G L) with
L = A21 + (A22 - mu) K.  The residual of that equation vanishes exactly when
the graph of K is invariant, and the spectrum of the restriction to the
graph equals the spectrum of S + G L (= A11 + A12 K), independent of mu.

By default a solve runs only the tail of the double limit's full-dimension
row, eps in {2^-12, 2^-13, 2^-14} at Galerkin dimension p: the accepted K
depends only on the last two full-dimension cells (Richardson extrapolation,
then Newton), so the earlier cells would only lengthen the trace.  The whole
double limit, Galerkin dimensions ceil(p/4), ceil(p/2), p against
:data:`DOUBLE_LIMIT_EPS_SCHEDULE`, runs when the two settings ask for it.

The full report, with its certificates, is assembled once, for the limit.
The contour quadrature of the paper is not on this path, nor on the
harness's, which cross-checks the Schur projector by the sign iteration.

Each Galerkin row computes a sorted Schur form (T, Z) for its first cell
and keeps it.  The later cells of the row differ from it by i (eps - eps') J, so
each is continued in the kept basis: simplified Newton on the graph Riccati
equation of Z* cell Z, one triangular Sylvester solve with the diagonal
blocks of T per step, gives the cell's subspace as Z [I; X].  A continuation
whose residual does not shrink on every step, or whose subspace fails a
check, is recomputed from the cell's own Schur form, which then becomes the
kept one; this is what happens where the separation of the two spectral
halves closes in as eps -> 0.  A cell's result therefore depends on the
earlier cells of its row, and the schedule order fixes it, so reports are
deterministic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .blocks import (
    DISSIPATIVITY_TOL,
    BlockOperator,
    SchurData,
    condition_i_margin,
    dissipativity_margin,
    g_norms,
    schur_data,
)
from .errors import (
    BoundaryEigenvalue,
    ConditionIFailed,
    DimensionMismatch,
    KreinError,
    NoCauchyConvergence,
    NotDissipative,
    NotMaximal,
    NotNonnegative,
    NotUniformlyDissipative,
    SingularShift,
)
from .geometry import (
    AngleOperator,
    KreinStructure,
    Subspace,
    angle_operator_from_subspace,
    gram_matrix,
    maximality_witness,
)
from .numerics import operator_norm, operator_norms, validate_int
from .projectors import upper_schur_form

# the full eps row of the double limit; the default solve runs only its tail,
# whose last two cells are all that Richardson extrapolation and Newton read
DOUBLE_LIMIT_EPS_SCHEDULE = tuple(2.0 ** (-k) for k in range(15))
_DEFAULT_EPS_SCHEDULE = DOUBLE_LIMIT_EPS_SCHEDULE[-3:]
# mu must keep |G(mu + i eps)| below this across the schedule
_MU_COUPLING_BOUND = 0.5
# Newton polish: cap on the total correction, and on the number of steps
_NEWTON_MAX_STEP = 0.1
_NEWTON_MAX_ITER = 30
# continuation of a later cell in its row's kept Schur basis: at most this
# many simplified Newton steps
_CONTINUATION_MAX_STEPS = 8


def _is_number(x, kind) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def _sequence(value, name: str) -> tuple:
    """``value`` as a tuple; a scalar raises :class:`DimensionMismatch` naming ``name``."""
    try:
        return tuple(value)
    except TypeError:
        raise DimensionMismatch(f"{name} must be a sequence, got {value!r}") from None


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the regularized Galerkin pipeline.

    ``mu`` fixes the transfer-function shift; None selects the smallest
    i*t with |G(i t + i eps)| < 1/2 across the whole schedule.  The real
    epsilon schedule must decrease strictly and reach 1e-4 or below; the
    default is the last three values of :data:`DOUBLE_LIMIT_EPS_SCHEDULE`.
    ``galerkin_dims`` lists the Galerkin dimensions (None: p alone) and the
    bool ``polish`` turns the final Newton polish on.  As in a problem file,
    a bool or a string is no number.  The full double-limit
    trace is ``SolverConfig(eps_schedule=DOUBLE_LIMIT_EPS_SCHEDULE,
    galerkin_dims=(ceil(p/4), ceil(p/2), p))``; it yields the same K to
    rounding level.  Every cell takes K from a sorted Schur basis of its
    upper spectral subspace: the first cell of a Galerkin row from its own
    form (:func:`projectors.upper_schur_form`), the later ones by
    continuation in the kept form, with the own form as the fallback; no
    setting selects another route.

    The certificate thresholds are class constants: readable as
    ``cfg.invariance_tol`` and so on, never set per instance.
    """

    mu: complex | None = None
    eps_schedule: tuple[float, ...] = _DEFAULT_EPS_SCHEDULE
    galerkin_dims: tuple[int, ...] | None = None
    polish: bool = True

    riccati_tol: ClassVar[float] = 1e-8
    invariance_tol: ClassVar[float] = 1e-7
    norm_slack: ClassVar[float] = 1e-8
    spec_slack: ClassVar[float] = 1e-6
    cauchy_tol: ClassVar[float] = 1e-6
    dissipativity_tol: ClassVar[float] = DISSIPATIVITY_TOL

    def __post_init__(self):
        if not (self.mu is None or _is_number(self.mu, numbers.Number)):
            raise DimensionMismatch(f"mu must be None or a number, got {self.mu!r}")
        if not isinstance(self.polish, bool):
            raise DimensionMismatch(f"polish must be a bool, got {self.polish!r}")
        eps = _sequence(self.eps_schedule, "eps schedule")
        if not all(_is_number(e, numbers.Real) for e in eps):
            raise DimensionMismatch(f"eps values must be real numbers, got {eps!r}")
        eps = tuple(float(e) for e in eps)
        if not eps:
            raise DimensionMismatch("eps schedule must be nonempty")
        if any(not 0.0 < e <= 1.0 for e in eps):
            raise DimensionMismatch("eps values must lie in (0, 1]")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise DimensionMismatch("eps schedule must decrease strictly")
        if eps[-1] > 1e-4:
            raise DimensionMismatch("eps schedule must reach 1e-4 or below")
        object.__setattr__(self, "eps_schedule", eps)
        if self.galerkin_dims is not None:
            dims = _sequence(self.galerkin_dims, "galerkin dims")
            dims = tuple(validate_int(n, "galerkin dim") for n in dims)
            if not dims:
                raise DimensionMismatch("galerkin dims must be nonempty")
            if any(n < 1 for n in dims) or any(
                n2 <= n1 for n1, n2 in zip(dims, dims[1:])
            ):
                raise DimensionMismatch("galerkin dims must be strictly increasing")
            object.__setattr__(self, "galerkin_dims", dims)


@dataclass(frozen=True)
class Estimate10:
    """Lower bound on the indefinite Rayleigh quotient over the solution space."""

    eps: float
    a_plus_norm: float
    lower_bound: float
    min_rayleigh: float

    @property
    def slack(self) -> float:
        return self.min_rayleigh - self.lower_bound


@dataclass(frozen=True)
class Estimate11:
    """Norm cap on the restriction through the transfer data at mu.

    Every solve keeps gamma = |G(mu)| < 1/2, so ``bound`` is finite.
    """

    gamma: float
    s_norm: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class CellTrace:
    n: int
    eps: float
    ok: bool
    error: str | None = None
    k_norm: float = math.nan
    l_norm: float = math.nan
    k_dist_prev: float | None = None
    restriction_min_im: float = math.nan
    projector_method: str = ""
    l_bound_ok: bool = True


@dataclass
class SolveReport:
    k: AngleOperator
    l_op: np.ndarray = field(repr=False)
    riccati_residual: float = math.nan
    invariance_residual: float = math.nan
    restriction_spectrum: np.ndarray = field(default=None, repr=False)
    k_norm: float = math.nan
    estimate10: Estimate10 | None = None
    estimate11: Estimate11 | None = None
    convergence_trace: list[CellTrace] = field(default_factory=list)
    mu: complex = 0j
    margin: float = math.nan
    witness: np.ndarray | None = None
    polish_method: str = "none"

    @property
    def maximal(self) -> bool:
        return self.witness is None

    def min_im_restriction(self) -> float:
        return float(np.min(self.restriction_spectrum.imag))


# ---------------------------------------------------------------------------
# elementary pipeline operations
# ---------------------------------------------------------------------------


def regularize(a: BlockOperator, eps: float) -> BlockOperator:
    """A + i eps J for a finite eps >= 0; the margin grows by exactly eps."""
    eps = float(eps)
    if not 0.0 <= eps < math.inf:  # NaN fails the range test
        raise DimensionMismatch(f"eps must be finite and nonnegative, got {eps}")
    s = a.structure
    return BlockOperator(
        s,
        a.a11 + 1j * eps * np.eye(s.p),
        a.a12,
        a.a21,
        a.a22 - 1j * eps * np.eye(s.m),
    )


def galerkin_truncate(a: BlockOperator, n: int) -> BlockOperator:
    """Compress the positive component to its leading n coordinates.

    The Galerkin space is the span of the first n coordinate vectors of H+.
    The negative component is kept whole, so the result acts on C^(n+m).
    """
    p = a.structure.p
    if not 1 <= n <= p:
        raise DimensionMismatch(f"need 1 <= n <= {p}, got {n}")
    return BlockOperator(
        KreinStructure(n, a.structure.m), a.a11[:n, :n], a.a12[:n], a.a21[:, :n], a.a22
    )


def graph_defect(a: BlockOperator, k_mat: np.ndarray) -> np.ndarray:
    """A21 + A22 K - K A11 - K A12 K; zero iff the graph of K is invariant."""
    return a.a21 + a.a22 @ k_mat - k_mat @ a.a11 - k_mat @ (a.a12 @ k_mat)


def _riccati_from_schur(
    a: BlockOperator, k_mat: np.ndarray, sd: SchurData
) -> tuple[float, np.ndarray]:
    l_op = a.a21 + (a.a22 - sd.mu * np.eye(a.structure.m)) @ k_mat
    rhs = k_mat @ (sd.s - sd.mu * np.eye(a.structure.p) + sd.g @ l_op)
    return operator_norm(l_op - rhs), l_op


def riccati_residual(
    a: BlockOperator, k: AngleOperator, mu: complex
) -> tuple[float, np.ndarray]:
    """Residual of L = K(S - mu + G L) together with L = A21 + (A22 - mu) K.

    The residual is independent of mu (it collapses to :func:`graph_defect`)
    and vanishes exactly on invariant graphs.
    """
    sd = schur_data(a, mu)
    return _riccati_from_schur(a, k.matrix, sd)


def _select_mu(a: BlockOperator, eps_values) -> complex:
    """Smallest i*t (doubling t) with |G(i t + i eps)| < 1/2 for all eps.

    Each doubling is one :func:`blocks.g_norms` stack of the shifts i t + i eps.
    """
    t = 1.0 + operator_norm(a.a22)
    eps = np.asarray(eps_values, dtype=np.float64)
    for _ in range(64):
        mu = 1j * t
        try:
            worst = float(np.max(g_norms(a, mu + 1j * eps)))
        except SingularShift:
            worst = math.inf
        if worst < _MU_COUPLING_BOUND:
            return mu
        t *= 2.0
    raise KreinError("no shift with small transfer coupling found")  # pragma: no cover


# ---------------------------------------------------------------------------
# single uniformly dissipative solve
# ---------------------------------------------------------------------------

# what a cell can raise; the trace records it and the Galerkin row stops
_CELL_ERRORS = (
    BoundaryEigenvalue,
    NotMaximal,
    NotNonnegative,
    NotUniformlyDissipative,
)


def _upper_projector(
    a: BlockOperator, margin: float, norm_bound: float
) -> tuple[AngleOperator, tuple[np.ndarray, np.ndarray]]:
    """Angle operator of the upper spectral subspace of a strictly dissipative A.

    ``margin`` is the dissipativity margin of A and ``norm_bound`` an upper
    bound on |A|; a margin at or below 1e-14 max(norm_bound, 1) raises
    :class:`NotUniformlyDissipative`.  K is read from the leading vectors of
    the sorted Schur form, which is returned alongside as ``(T, Z)``.  A
    subspace of dimension other than p raises :class:`NotMaximal`.
    """
    if margin <= 1e-14 * max(norm_bound, 1.0):
        raise NotUniformlyDissipative(f"margin {margin:.3e} is not positive")
    t, z, sdim = upper_schur_form(a.to_matrix(), tol=margin / 2.0)
    if sdim != a.structure.p:
        raise NotMaximal(
            f"upper spectral subspace has dimension {sdim}, expected {a.structure.p}"
        )
    return angle_operator_from_subspace(Subspace(a.structure, z[:, :sdim])), (t, z)


def _continued_angle_operator(
    cell: BlockOperator, form: tuple[np.ndarray, np.ndarray], norm_bound: float
) -> np.ndarray | None:
    """K of the cell's invariant subspace continued in a kept Schur basis.

    ``form`` = (T, Z) is the sorted Schur form of a nearby matrix.  In the
    basis Z the cell reads M = Z* cell Z, and the graph Z [I; X] is
    invariant under the cell iff

        M21 + M22 X - X M11 - X M12 X = 0.

    Simplified Newton solves this from X = 0, each step one triangular
    Sylvester solve T22 dX - dX T11 = -residual with the kept diagonal
    blocks of T (Demmel, Computing 38, 1987).  The subspace is checked by
    :class:`Subspace` and :func:`angle_operator_from_subspace` (orthonormal,
    nonnegative, maximal).  Returns None, after the first step that shows
    it, when the residual does not contract fast enough to reach rounding
    level within ``_CONTINUATION_MAX_STEPS`` steps, or when a check fails.
    """
    t, z = form
    p, d = cell.structure.p, cell.structure.dim
    mat = z.conj().T @ cell.to_matrix() @ z
    m11, m12, m21, m22 = mat[:p, :p], mat[:p, p:], mat[p:, :p], mat[p:, p:]
    t11, t22 = t[:p, :p], t[p:, p:]
    tol = d * np.finfo(float).eps * norm_bound
    x = np.zeros_like(m21)
    defect = m21
    # BLAS nrm2 scales its sum of squares: no overflow for entries above 1e154
    res = float(scipy.linalg.blas.dznrm2(defect.ravel()))
    steps = 0
    while res > tol:
        delta, scale, info = scipy.linalg.lapack.ztrsyl(t22, t11, -defect, isgn=-1)
        if info != 0:
            return None
        x = x + delta / scale
        defect = m21 + m22 @ x - x @ (m11 + m12 @ x)
        res_next = float(scipy.linalg.blas.dznrm2(defect.ravel()))
        steps += 1
        # go on only while the observed contraction, kept up over the steps
        # left, reaches rounding level; a residual that grows never does
        rate = res_next / res
        if not res_next * rate ** (_CONTINUATION_MAX_STEPS - steps) <= tol:
            return None
        res = res_next
    basis, _ = np.linalg.qr(np.vstack([np.eye(p, dtype=np.complex128), x]))
    try:
        return angle_operator_from_subspace(Subspace(cell.structure, z @ basis)).matrix
    except (DimensionMismatch, NotMaximal, NotNonnegative):
        return None


def _solve_cell(
    cell: BlockOperator,
    margin: float,
    norm_bound: float,
    form: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray]]:
    """K of one regularized cell and min Im of the spectrum of A11 + A12 K.

    With ``form``, the sorted Schur form of an earlier cell of the Galerkin
    row, the cell is continued in that basis.  A continued K is accepted
    when the cell's margin is positive and min Im clears margin/2, the
    threshold of :class:`BoundaryEigenvalue`.  Then every eigenpair
    (lambda, x) has Im(lambda) [x, x] >= margin |x|^2, so a p-dimensional
    nonnegative invariant subspace is exactly the upper spectral one.  Any
    other cell gets its own Schur form from :func:`_upper_projector`, which
    raises what a cell can raise.  Returns (K, min Im, the Schur form the
    row keeps: ``form`` for a continued cell, the cell's own after a
    fallback).
    """
    if form is not None and margin > 1e-14 * max(norm_bound, 1.0):
        k_cell = _continued_angle_operator(cell, form, norm_bound)
        if k_cell is not None:
            min_im = _restriction_min_im(cell, k_cell)
            if min_im > margin / 2.0:
                return k_cell, min_im, form
    k, form = _upper_projector(cell, margin, norm_bound)
    return k.matrix, _restriction_min_im(cell, k.matrix), form


def _restriction_min_im(a: BlockOperator, k_mat: np.ndarray) -> float:
    """min Im of the spectrum of A11 + A12 K, the restriction to the graph of K."""
    return float(np.min(np.linalg.eigvals(a.a11 + a.a12 @ k_mat).imag))


def solve_uniformly_dissipative(a: BlockOperator) -> SolveReport:
    """Solve one strictly dissipative instance through its upper spectral subspace.

    With a positive margin the real axis belongs to the resolvent set, so
    the eigenvalues with Im > 0 span the maximal uniformly positive
    invariant subspace; its angle operator is read from the sorted Schur
    basis that :func:`solve_theorem` computes for a Galerkin row's first
    cell.  The report's shift mu is the smallest i*t with |G(i t)| < 1/2.
    The report certifies the graph of the returned K.
    """
    margin = dissipativity_margin(a)
    k, _ = _upper_projector(a, margin, a.norm())
    return _assemble_report(a, k, margin, schur_data(a, _select_mu(a, (0.0,))))


def _assemble_report(
    a: BlockOperator,
    k: AngleOperator,
    margin: float,
    sd: SchurData,
    trace: list[CellTrace] | None = None,
    polish_method: str = "none",
) -> SolveReport:
    """The report of K with its certificates; ``sd`` is the transfer data at its mu."""
    s = a.structure
    res, l_op = _riccati_from_schur(a, k.matrix, sd)
    restriction = sd.s + sd.g @ l_op
    spectrum = np.linalg.eigvals(restriction)
    stacked = np.vstack([np.eye(s.p, dtype=np.complex128), k.matrix])
    basis, _ = np.linalg.qr(stacked)
    subspace = Subspace(s, basis)
    b = subspace.basis
    full = a.to_matrix()
    ab = full @ b
    invariance = operator_norm(ab - b @ (b.conj().T @ ab))
    min_rayleigh = float(np.linalg.eigvalsh(gram_matrix(subspace))[0])
    a_plus_norm = operator_norm(b.conj().T @ ab)
    lower = 2.0 * margin / (np.pi * a_plus_norm) if a_plus_norm > 0 else 0.0
    est10 = Estimate10(margin, a_plus_norm, lower, min_rayleigh)
    gamma = operator_norm(sd.g)
    s_norm = operator_norm(sd.s)
    bound = 2.0 * (s_norm + gamma / (1.0 - gamma) * (s_norm + abs(sd.mu)))
    est11 = Estimate11(gamma, s_norm, bound, a_plus_norm <= bound + 1e-8)
    return SolveReport(
        k=k,
        l_op=l_op,
        riccati_residual=res,
        invariance_residual=invariance,
        restriction_spectrum=spectrum,
        k_norm=k.norm,
        estimate10=est10,
        estimate11=est11,
        convergence_trace=trace or [],
        mu=complex(sd.mu),
        margin=margin,
        witness=maximality_witness(subspace),
        polish_method=polish_method,
    )


# ---------------------------------------------------------------------------
# Newton polish of the graph-invariance equation
# ---------------------------------------------------------------------------


def _newton_polish(
    a: BlockOperator, k0: np.ndarray, a_norm: float, res0: float
) -> tuple[np.ndarray, float, bool]:
    """Refine K by Newton steps on the graph Riccati equation.

    Each step is one Sylvester solve; ``a_norm`` is |A| and ``res0`` the
    defect norm of ``k0``, which the caller has already computed.  The total
    correction is capped so the polish can only sharpen the branch the
    regularization already selected, never jump to another one.  A step is
    accepted only when it lowers the defect norm, so the last iterate is the
    best one.  Returns (last iterate, its defect norm, whether the entry
    point was improved).
    """
    scale = max(a_norm, 1e-300)
    k = np.array(k0, dtype=np.complex128)
    res = res0
    moved = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        if res <= 1e-15 * scale:
            break
        try:
            delta = scipy.linalg.solve_sylvester(
                a.a22 - k @ a.a12, -(a.a11 + a.a12 @ k), -graph_defect(a, k)
            )
        except (np.linalg.LinAlgError, ValueError):
            break
        step = operator_norm(delta)
        if not np.isfinite(step) or moved + step > _NEWTON_MAX_STEP:
            break
        k_next = k + delta
        res_next = operator_norm(graph_defect(a, k_next))
        if res_next >= res:
            break
        k, res = k_next, res_next
        moved += step
    return k, res, res < 0.999 * res0


# ---------------------------------------------------------------------------
# the full double-limit pipeline
# ---------------------------------------------------------------------------


def solve_theorem(a: BlockOperator, cfg: SolverConfig | None = None) -> SolveReport:
    """Compute a maximal nonnegative invariant subspace of a dissipative A.

    Requirements: dissipativity margin >= -tol and -A22 dissipative on H-.
    Iterates Galerkin dimension x epsilon cells, zero-extends each cell angle
    operator back to m x p, checks the epsilon tail for stabilization, and
    polishes the limit on the shift-free Riccati equation.  The default
    ``cfg`` runs three cells, the full-dimension tail of the double limit;
    see :class:`SolverConfig` for the whole grid.  The convergence trace
    records every cell; when the tail misses the Cauchy tolerance and the
    assembled K also fails the a-posteriori Riccati certificate,
    :class:`NoCauchyConvergence` is raised with the partial report attached.
    """
    if cfg is None:
        cfg = SolverConfig()
    s = a.structure
    p = s.p
    margin0 = dissipativity_margin(a)
    a_norm = a.norm()
    scale = max(a_norm, 1.0)
    if margin0 < -cfg.dissipativity_tol * scale:
        raise NotDissipative(f"margin {margin0:.3e} below tolerance")
    if condition_i_margin(a) < -cfg.dissipativity_tol * scale:
        raise ConditionIFailed("-A22 is not dissipative on the negative component")
    dims = cfg.galerkin_dims
    if dims is None:
        dims = (p,)
    if dims[-1] != p:
        raise DimensionMismatch("the last Galerkin dimension must equal p")
    eps_all = np.array((*cfg.eps_schedule, 0.0))
    mu = _select_mu(a, eps_all) if cfg.mu is None else complex(cfg.mu)
    sd_all = schur_data(a, mu + 1j * eps_all)
    if cfg.mu is not None:
        worst = float(np.max(operator_norms(sd_all.g)))
        if worst >= _MU_COUPLING_BOUND:
            raise DimensionMismatch(
                f"fixed mu gives |G(mu + i eps)| = {worst:.3f} >= 1/2"
            )
    # continuity constant of i eps + S(mu + i eps) over the schedule
    i_eps = 1j * eps_all[:, np.newaxis, np.newaxis] * np.eye(p)
    c_const = float(np.max(operator_norms(i_eps + sd_all.s)))
    l_cap = 2.0 * (c_const + abs(mu))

    trace: list[CellTrace] = []
    final_ks: list[np.ndarray] = []
    final_eps: list[float] = []
    shift_m = mu * np.eye(s.m)
    for n in dims:
        a_n = galerkin_truncate(a, n)
        prev = None
        form = None  # the sorted Schur form the row continues from
        for eps in cfg.eps_schedule:
            cell = regularize(a_n, eps)
            # regularization raises the margin by exactly eps, and |cell| by
            # at most eps (a compression has no larger norm than A)
            margin = margin0 + eps if n == p else dissipativity_margin(cell)
            try:
                k_cell, min_im, form = _solve_cell(cell, margin, a_norm + eps, form)
            except _CELL_ERRORS as exc:
                trace.append(
                    CellTrace(n, eps, ok=False, error=f"{type(exc).__name__}: {exc}")
                )
                break
            k_tilde = np.zeros((s.m, p), dtype=np.complex128)
            k_tilde[:, :n] = k_cell
            dist = None if prev is None else operator_norm(k_tilde - prev)
            # L = A21 + (A22 - mu) K; S + G L equals A11 + A12 K
            l_norm = operator_norm(cell.a21 + (cell.a22 - shift_m) @ k_cell)
            trace.append(
                CellTrace(
                    n,
                    eps,
                    ok=True,
                    k_norm=operator_norm(k_cell),
                    l_norm=l_norm,
                    k_dist_prev=dist,
                    restriction_min_im=min_im,
                    projector_method="schur",
                    l_bound_ok=l_norm <= l_cap * (1.0 + 1e-6),
                )
            )
            if n == p:
                final_ks.append(k_tilde)
                final_eps.append(eps)
            prev = k_tilde

    if not final_ks:
        raise NoCauchyConvergence("no full-dimension cell could be solved", report=None)
    # the full-dimension cells' distances to their predecessors
    diffs = [t.k_dist_prev for t in trace if t.n == p and t.k_dist_prev is not None]
    tail_converged = bool(diffs) and diffs[-1] <= cfg.cauchy_tol

    candidates = [final_ks[-1]]
    if len(final_ks) >= 2:
        # the schedule decreases strictly, so r < 1
        r = final_eps[-1] / final_eps[-2]
        candidates.append((final_ks[-1] - r * final_ks[-2]) / (1.0 - r))
    defects = [operator_norm(graph_defect(a, k)) for k in candidates]
    best = min(range(len(candidates)), key=defects.__getitem__)
    k_best = candidates[best]
    polish_method = "richardson" if best == 1 else "none"
    if cfg.polish:
        k_polished, _, improved = _newton_polish(a, k_best, a_norm, defects[best])
        if improved:
            k_best, polish_method = k_polished, "newton"

    # the eps = 0 slice of the schedule's stack is the transfer data at mu
    sd_mu = SchurData(mu, sd_all.s[-1], sd_all.f[-1], sd_all.g[-1])
    report = _assemble_report(
        a,
        AngleOperator(s, k_best),
        margin0,
        sd_mu,
        trace=trace,
        polish_method=polish_method,
    )
    # a limit is accepted when the tail met the Cauchy tolerance or the
    # assembled K passes the a-posteriori Riccati certificate
    certified = report.riccati_residual <= cfg.riccati_tol * (
        report.estimate11.s_norm + abs(mu)
    )
    if len(diffs) >= 2 and not tail_converged and not certified:
        raise NoCauchyConvergence(
            f"epsilon tail did not stabilize (last difference {diffs[-1]:.3e}) "
            f"and the limit candidate fails the Riccati certificate "
            f"(residual {report.riccati_residual:.3e})",
            report=report,
        )
    return report
