"""Random instance generation and the batch property suite.

Instances are drawn from a Ginibre-style model: JA = R + iH with Hermitian R
arbitrary and Hermitian H shifted so that lambda_min(H) equals the requested
margin exactly, hence A = J(R + iH) has that dissipativity margin by
construction.  The stream comes from a counter-based generator (Philox), so
a seed pins the matrices bit-for-bit on every platform.

The suite runs the full solver on each instance and re-checks the quantified
estimates (Rayleigh lower bound, restriction norm cap, uniform transfer
bound, factorization and perturbation identities, resolvent asymptotics), so
one call machine-checks everything on an ensemble.  The identity checks
share one transfer-data stack at their 3 sampled shifts.  The suite also
cross-checks, once per instance on the regularized operator A + iJ, the
sorted-Schur projector the solver builds its cells from against the scaled
Newton sign iteration, which reaches the same upper Riesz projector through
LU factorizations alone.  The check keeps its original names,
``checks["quadrature"]`` and ``InstanceResult.quadrature_gap``, which now
mean that this independent LU-only route agrees with the Schur projector;
the paper's contour quadrature is checked against the Schur projector by
acceptance criterion 2 and the projector tests instead.  The cross-check
reads only the two projectors, so it computes neither route's defects.
Failures are data: offending instances are kept in the report for replay,
and the suite passes only with zero failures.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .blocks import (
    BlockOperator,
    decompose,
    factorization_residual,
    g_uniform_bound_check,
    resolvent_asymptotics_check,
    resolvent_identity_residuals,
    schur_data,
)
from .errors import KreinError, NoCauchyConvergence
from .geometry import KreinStructure
from .numerics import operator_norm, validate_int
from .projectors import _schur_projector, _sign_projector
from .solver import SolveReport, SolverConfig, regularize, solve_theorem

_IDENTITY_TOL = 1e-9
_ESTIMATE_TOL = 1e-8
# sign against Schur projector, relative to max(1, |Q|): criterion 2's bound
_QUADRATURE_TOL = 1e-7


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one random dissipative instance.

    ``margin`` is the exact dissipativity margin of the result (negative
    targets intentionally produce non-dissipative instances for negative
    controls).  ``a22_decay`` adds -i times a positive diagonal profile to
    A22, making the negative block dominant; ``coupling_scale`` scales the
    off-diagonal blocks.  All three must be finite; ``p``, ``m`` and
    ``seed`` are integers (numpy integers are accepted, bools are not).
    """

    p: int
    m: int
    margin: float = 0.0
    a22_decay: float = 0.0
    coupling_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("p", "m", "seed"):
            object.__setattr__(self, name, validate_int(getattr(self, name), name))
        if self.p < 1 or self.m < 1:
            raise KreinError(f"need p, m >= 1, got p={self.p}, m={self.m}")
        # numpy's own limit on an array's bytes, for the (p+m)x(p+m) complex A
        dim = self.p + self.m
        if 16 * dim * dim > np.iinfo(np.intp).max:
            raise KreinError(f"p + m = {dim} is beyond numpy's array size limit")
        for name in ("margin", "a22_decay", "coupling_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise KreinError(f"{name} must be a real number, got {value!r}")
            if not _within_float_range(value):
                raise KreinError(f"{name} must be finite, got {value}")
        if self.coupling_scale < 0 or self.a22_decay < 0:
            raise KreinError("coupling_scale and a22_decay must be nonnegative")
        if self.seed < 0:
            raise KreinError("seed must be nonnegative")


def _within_float_range(value) -> bool:
    """Whether the real ``value`` is a finite float."""
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an int beyond the float range
        return False


def _hermitian_ginibre(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / (2.0 * math.sqrt(n))


def random_dissipative(spec: InstanceSpec) -> BlockOperator:
    """Draw the block operator described by ``spec`` (deterministic per seed).

    Fields that put A beyond the float range raise :class:`KreinError`.
    """
    s = KreinStructure(spec.p, spec.m)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    d = s.dim
    r_part = _hermitian_ginibre(rng, d)
    h_part = _hermitian_ginibre(rng, d)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in (r_part, h_part):
            block[: s.p, s.p:] *= spec.coupling_scale
            block[s.p:, : s.p] *= spec.coupling_scale
        # eigvalsh needs finite entries; an overflowed block leaves A NaN
        lowest = np.linalg.eigvalsh(h_part)[0] if np.isfinite(h_part).all() else np.nan
        h_part += (spec.margin - float(lowest)) * np.eye(d)
        a_mat = s.signature() @ (r_part + 1j * h_part)
        if spec.a22_decay > 0:
            profile = spec.a22_decay * (1.0 + np.arange(s.m)) / s.m
            a_mat[s.p:, s.p:] -= 1j * np.diag(profile)
    if not np.isfinite(a_mat).all():
        raise KreinError(f"the entries of A must be finite, got {spec}")
    return decompose(a_mat, s)


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------


@dataclass
class InstanceResult:
    seed: int
    p: int
    m: int
    margin: float
    passed: bool = False
    error: str | None = None
    k_norm: float = math.nan
    riccati_residual: float = math.nan
    invariance_residual: float = math.nan
    min_im_restriction: float = math.nan
    estimate10_slack: float = math.nan
    estimate11_slack: float = math.nan
    g_bound_ratio: float = math.nan
    factorization_worst: float = math.nan
    identity_worst: float = math.nan
    asymptotics_ratio: float = math.nan
    # |Q_sign - Q_schur| on A + iJ (the name predates the sign route);
    # inf when either route raised
    quadrature_gap: float = math.nan
    checks: dict = field(default_factory=dict)
    report: SolveReport | None = field(default=None, repr=False)


@dataclass
class SuiteReport:
    results: list[InstanceResult]
    passed: bool
    no_cauchy_count: int = 0
    failure_artifacts: list[dict] = field(default_factory=list)


def check_instance(
    a: BlockOperator,
    rep: SolveReport,
    cfg: SolverConfig,
    seed: int = -1,
    margin_label: float | None = None,
) -> InstanceResult:
    """Re-check every quantified estimate on one solved instance.

    The checks build 5 shifted stacks of A22, 3 at margin <= 1e-8.
    ``checks["quadrature"]`` compares the Newton sign projector of A + iJ,
    an independent LU-only route, with its sorted-Schur projector
    (``quadrature_gap``); no contour quadrature runs.
    """
    rng = np.random.Generator(np.random.Philox(key=max(seed, 0), counter=1))
    norm_a = a.norm()
    res = InstanceResult(
        seed=seed,
        p=a.structure.p,
        m=a.structure.m,
        margin=rep.margin if margin_label is None else margin_label,
    )
    checks: dict[str, bool] = {}
    res.report = rep
    res.k_norm = rep.k_norm
    res.riccati_residual = rep.riccati_residual
    res.invariance_residual = rep.invariance_residual
    res.min_im_restriction = rep.min_im_restriction()
    triple = serialize.acceptance_triple(rep, norm_a, cfg)
    for name in ("k_norm", "invariance", "spectrum", "maximal"):
        checks[name] = triple[f"{name}_ok"]

    res.estimate10_slack = rep.estimate10.slack
    checks["estimate10"] = res.estimate10_slack >= -_ESTIMATE_TOL
    res.estimate11_slack = rep.estimate11.bound - rep.estimate10.a_plus_norm
    checks["estimate11"] = rep.estimate11.holds

    margin = rep.margin
    if margin > 1e-8:
        radius = 2.0 * (1.0 + norm_a)
        lams = np.concatenate(
            [
                rng.uniform(-radius, radius, 25) + 1j * rng.uniform(0.0, radius, 25),
                rng.uniform(-radius, radius, 25),
            ]
        )
        g_rep = g_uniform_bound_check(a, lams)
        res.g_bound_ratio = g_rep.max_ratio
        checks["g_bound"] = g_rep.passed
    else:
        res.g_bound_ratio = 0.0
        checks["g_bound"] = True  # the bound is vacuous without a uniform margin

    # three (mu, lambda, eps) samples, drawn in that order; one mu stack for both
    draws = [
        (
            rng.uniform(-2, 2) + 1j * rng.uniform(0.5, 3.0),
            rng.uniform(-2, 2) + 1j * rng.uniform(0.5, 3.0),
            rng.uniform(1e-6, 1.0),
        )
        for _ in range(3)
    ]
    mus, lams, epss = (np.array(column) for column in zip(*draws))
    sd = schur_data(a, mus)
    worst_fact = float(np.max(factorization_residual(a, sd)))
    worst_id = float(np.max(resolvent_identity_residuals(a, sd, lams, epss)))
    res.factorization_worst = worst_fact
    res.identity_worst = worst_id
    checks["factorization"] = worst_fact <= _IDENTITY_TOL
    checks["identities"] = worst_id <= _IDENTITY_TOL

    if margin > 1e-8:
        r0 = 8.0 * (1.0 + norm_a)
        asym = resolvent_asymptotics_check(a, [r0, 2.0 * r0], seed=max(seed, 0))
        res.asymptotics_ratio = asym.stability_ratio
        checks["asymptotics"] = asym.passed
    else:
        checks["asymptotics"] = True

    res.quadrature_gap, checks["quadrature"] = _projector_cross_check(a, margin)

    cells = [t for t in rep.convergence_trace if t.ok]
    checks["cells"] = all(t.k_norm < 1.0 for t in cells) and all(
        t.l_bound_ok for t in cells
    )

    res.checks = checks
    res.passed = all(checks.values())
    return res


def _projector_cross_check(a: BlockOperator, margin: float) -> tuple[float, bool]:
    """Sign and Schur projectors of A + iJ: their gap, and whether it is small.

    The regularization raises the margin to ``margin + 1``, so every
    eigenvalue is at least that far from the real axis, which bounds the
    sign iteration's step count; A + iJ is the solver's first
    full-dimension cell under ``DOUBLE_LIMIT_EPS_SCHEDULE``.  A margin <= -1
    leaves no clearance: the sign route raises and the gap reads inf.
    """
    cell = regularize(a, 1.0).to_matrix()
    try:
        sign, _ = _sign_projector(cell, margin + 1.0)
        schur = _schur_projector(cell, (margin + 1.0) / 2.0)
    except KreinError:
        return math.inf, False
    gap = operator_norm(sign - schur)
    # max(1, |Q|) >= 1, so a gap within the tolerance needs no |Q|
    return gap, gap <= _QUADRATURE_TOL or gap <= _QUADRATURE_TOL * operator_norm(schur)


def run_property_suite(specs, cfg: SolverConfig | None = None) -> SuiteReport:
    """Generate, solve, and estimate-check every instance of ``specs``.

    A failed row's artifact is built at once; no drawn instance outlives its row.
    """
    if cfg is None:
        cfg = SolverConfig()
    results: list[InstanceResult] = []
    artifacts: list[dict] = []
    no_cauchy = 0
    for spec in specs:
        a = random_dissipative(spec)
        row = InstanceResult(seed=spec.seed, p=spec.p, m=spec.m, margin=spec.margin)
        try:
            rep = solve_theorem(a, cfg)
        except KreinError as exc:
            row.error = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, NoCauchyConvergence):
                no_cauchy += 1
                row.report = exc.report
        else:
            row = check_instance(a, rep, cfg, seed=spec.seed, margin_label=spec.margin)
        results.append(row)
        if not row.passed:
            artifacts.append(
                {
                    "spec": dataclasses.asdict(spec),
                    "problem": serialize.problem_to_dict(a),
                    "error": row.error,
                    "checks": {k: bool(v) for k, v in row.checks.items()},
                }
            )
    return SuiteReport(results, not artifacts, no_cauchy, artifacts)
