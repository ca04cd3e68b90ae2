"""Block operator matrices and their Schur-complement transfer data.

An operator A on C^(p+m) is stored as the four blocks of

    A = [[A11, A12],
         [A21, A22]]

with respect to the splitting H+ (+) H-.  For a shift mu off the spectrum of
A22 the transfer data

    G(mu) = A12 (A22 - mu)^{-1}      (p x m)
    F(mu) = (A22 - mu)^{-1} A21      (m x p)
    S(mu) = A11 - A12 F(mu)          (p x p, the transfer function)

factor the whole operator as an exact block LDU identity,

    A = mu + [[1, G], [0, 1]] diag(S - mu, A22 - mu) [[1, 0], [F, 1]],

which underlies every resolvent formula used downstream.  This module also
houses the dissipativity margin, the finite checks of the four structural
conditions (dominant A22, bounded F/S, effectively-low-rank G), and the
quantitative resolvent estimates that the verification harness asserts on
random ensembles.

All functions here are pure.  Shift samples are stacked: :func:`schur_data`
takes a 1-D array of shifts and returns the transfer data as stacks, so each
check that samples many shifts (the uniform bound on G, the resolvent
asymptotics, the decay profile) solves all of them in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionIFailed, DimensionMismatch, NotUniformlyDissipative
from .geometry import KreinStructure
from .numerics import operator_norm, operator_norms, solve_shifted, validate_matrix

_EPS_A = 1e-6  # relative headroom on the half-norm constant a > 2|A P+|
#: A dissipativity margin down to -DISSIPATIVITY_TOL counts as dissipative.
DISSIPATIVITY_TOL = 1e-10


@dataclass(frozen=True)
class BlockOperator:
    """The four complex blocks of an operator matrix on H+ (+) H-."""

    structure: KreinStructure
    a11: np.ndarray = field(repr=False)
    a12: np.ndarray = field(repr=False)
    a21: np.ndarray = field(repr=False)
    a22: np.ndarray = field(repr=False)

    def __post_init__(self):
        p, m = self.structure.p, self.structure.m
        shapes = {"a11": (p, p), "a12": (p, m), "a21": (m, p), "a22": (m, m)}
        for name, want in shapes.items():
            block = validate_matrix(getattr(self, name), name)
            if block.shape != want:
                raise DimensionMismatch(f"{name} must be {want}, got {block.shape}")
            object.__setattr__(self, name, block)

    def to_matrix(self) -> np.ndarray:
        return np.block([[self.a11, self.a12], [self.a21, self.a22]])

    def norm(self) -> float:
        return operator_norm(self.to_matrix())


def assemble(a11, a12, a21, a22) -> BlockOperator:
    """Build a :class:`BlockOperator` from four blocks (shapes fix p and m)."""
    a11 = validate_matrix(a11, "a11")
    a22 = validate_matrix(a22, "a22")
    if a11.shape[0] != a11.shape[1] or a22.shape[0] != a22.shape[1]:
        raise DimensionMismatch("diagonal blocks must be square")
    structure = KreinStructure(a11.shape[0], a22.shape[0])
    return BlockOperator(structure, a11, a12, a21, a22)


def decompose(a, structure: KreinStructure) -> BlockOperator:
    """Partition a (p+m) x (p+m) matrix into blocks; exact, lossless."""
    mat = validate_matrix(a, "A")
    d = structure.dim
    if mat.shape != (d, d):
        raise DimensionMismatch(f"A must be {d}x{d}, got {mat.shape}")
    p = structure.p
    return BlockOperator(
        structure, mat[:p, :p], mat[:p, p:], mat[p:, :p], mat[p:, p:]
    )


def imag_part(m) -> np.ndarray:
    """Hermitian imaginary part (M - M*) / (2i)."""
    a = validate_matrix(m)
    return (a - a.conj().T) / 2j


def dissipativity_margin(a: BlockOperator) -> float:
    """lambda_min of the Hermitian part (JA - (JA)*)/(2i).

    Positive iff A is uniformly dissipative in the indefinite metric with
    that constant; nonnegative iff dissipative.
    """
    ja = a.structure.signature() @ a.to_matrix()
    return float(np.linalg.eigvalsh(imag_part(ja))[0])


@dataclass(frozen=True)
class SchurData:
    """Transfer data S, F, G of a block operator at the shift mu.

    For an array of k shifts ``mu`` is that array and ``s``, ``f``, ``g``
    are the ``(k, p, p)``, ``(k, m, p)`` and ``(k, p, m)`` stacks.
    """

    mu: complex | np.ndarray
    s: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)


def _resolvent_applied_left(a22: np.ndarray, mu, b: np.ndarray) -> np.ndarray:
    """B (A22 - mu)^{-1} via a transposed solve; a stack for an array of shifts."""
    return np.swapaxes(solve_shifted(a22.T, mu, b.T), -1, -2)


def schur_data(a: BlockOperator, mu) -> SchurData:
    """Compute S(mu), F(mu), G(mu); raises SingularShift near sigma(A22).

    ``mu`` is one shift or a 1-D array of shifts.  For an array the result
    holds stacks, slice k being the transfer data at ``mu[k]``, computed in
    one batched solve per block.  Each shift meets the singular floor of
    :func:`numerics.solve_shifted` on its own; the first that does not
    raises :class:`SingularShift`.
    """
    f = solve_shifted(a.a22, mu, a.a21)
    g = _resolvent_applied_left(a.a22, mu, a.a12)
    s = a.a11 - a.a12 @ f
    shifts = np.asarray(mu, dtype=np.complex128)
    return SchurData(complex(mu) if shifts.ndim == 0 else shifts, s, f, g)


def factorization_residual(a: BlockOperator, mu: complex) -> float:
    """Relative defect of the block LDU identity at mu.

    The identity is exact for finite matrices, so the residual is at
    rounding level (contract: <= 1e-9) whenever mu clears sigma(A22).
    """
    sd = schur_data(a, mu)
    p, m = a.structure.p, a.structure.m
    eye_p = np.eye(p, dtype=np.complex128)
    eye_m = np.eye(m, dtype=np.complex128)
    upper = np.block([[eye_p, sd.g], [np.zeros((m, p)), eye_m]])
    diag = np.block(
        [
            [sd.s - mu * eye_p, np.zeros((p, m))],
            [np.zeros((m, p)), a.a22 - mu * eye_m],
        ]
    )
    lower = np.block([[eye_p, np.zeros((p, m))], [sd.f, eye_m]])
    recon = mu * np.eye(a.structure.dim) + upper @ diag @ lower
    denom = a.norm()
    if denom == 0.0:
        denom = 1.0
    return operator_norm(a.to_matrix() - recon) / denom


# ---------------------------------------------------------------------------
# structural condition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionCaps:
    """Optional caps for the structural condition report.

    ``f_cap``/``s_cap`` model families whose transfer data should stay
    bounded.  Condition (i) allows a margin down to ``-DISSIPATIVITY_TOL``;
    condition (iii) is report-only: all finite matrices are compact, so the
    fraction of singular values of G(mu) above 1e-2 times the largest is
    reported and never capped.
    """

    f_cap: float | None = None
    s_cap: float | None = None


@dataclass(frozen=True)
class ConditionItem:
    value: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ConditionsReport:
    cond_i: ConditionItem
    cond_ii: ConditionItem
    cond_iii: ConditionItem
    cond_iv: ConditionItem
    g_singular_values: np.ndarray = field(repr=False, default=None)

    @property
    def all_passed(self) -> bool:
        return all(
            item.passed
            for item in (self.cond_i, self.cond_ii, self.cond_iii, self.cond_iv)
        )


def check_theorem_conditions(
    a: BlockOperator, mu: complex, caps: ConditionCaps | None = None
) -> ConditionsReport:
    """Finite-dimensional report of the four structural conditions.

    (i)   -A22 dissipative on H- (Euclidean sense), i.e. Im A22 <= tol;
    (ii)  |F(mu)| reported, optionally capped;
    (iii) singular-value concentration of G(mu) (report-only);
    (iv)  |S(mu)| reported, optionally capped.
    """
    if caps is None:
        caps = ConditionCaps()
    if mu.imag <= 0:
        raise DimensionMismatch("mu must lie in the open upper half-plane")
    im_a22_max = -condition_i_margin(a)
    cond_i = ConditionItem(
        value=-im_a22_max,
        passed=im_a22_max <= DISSIPATIVITY_TOL,
        detail="margin of -A22 in H-",
    )
    sd = schur_data(a, mu)
    f_norm = operator_norm(sd.f)
    cond_ii = ConditionItem(
        value=f_norm,
        passed=caps.f_cap is None or f_norm <= caps.f_cap,
        detail="|F(mu)|",
    )
    g_sv = np.linalg.svd(sd.g, compute_uv=False)
    if g_sv[0] > 0:
        effective = float(np.mean(g_sv / g_sv[0] > 1e-2))
    else:
        effective = 0.0
    cond_iii = ConditionItem(
        value=effective,
        passed=True,
        detail="fraction of singular values of G above the decay threshold",
    )
    s_norm = operator_norm(sd.s)
    cond_iv = ConditionItem(
        value=s_norm,
        passed=caps.s_cap is None or s_norm <= caps.s_cap,
        detail="|S(mu)|",
    )
    return ConditionsReport(cond_i, cond_ii, cond_iii, cond_iv, g_singular_values=g_sv)


def condition_i_margin(a: BlockOperator) -> float:
    """Dissipativity margin of -A22 on H-: -lambda_max(Im A22)."""
    return -float(np.linalg.eigvalsh(imag_part(a.a22))[-1])


# ---------------------------------------------------------------------------
# decay and bound diagnostics for G
# ---------------------------------------------------------------------------


DECAY_HORIZON = 100.0


@dataclass(frozen=True)
class DecayProfile:
    """Norms |G(i h)| along the imaginary axis.

    The resolvent bound |(A22 - i h)^{-1}| <= 1/h forces decay to zero, so
    the envelope checks assert last <= first and, past ``DECAY_HORIZON``, a
    drop below the decay tolerance 2 |A12| / ``DECAY_HORIZON``.
    """

    points: tuple[tuple[float, float], ...]
    last_le_first: bool
    tail_below_tol: bool
    decay_tol: float


def g_decay_profile(a: BlockOperator, heights) -> DecayProfile:
    """Evaluate |G(i h)| for increasing heights h > 0."""
    hs = [float(h) for h in heights]
    if not hs or any(h <= 0 for h in hs) or any(
        h2 <= h1 for h1, h2 in zip(hs, hs[1:])
    ):
        raise DimensionMismatch("heights must be strictly increasing and positive")
    if condition_i_margin(a) < -DISSIPATIVITY_TOL:
        raise ConditionIFailed("-A22 is not dissipative; the profile is undefined")
    decay_tol = 2.0 * operator_norm(a.a12) / DECAY_HORIZON
    norms = operator_norms(_resolvent_applied_left(a.a22, 1j * np.array(hs), a.a12))
    values = [(h, float(n)) for h, n in zip(hs, norms)]
    last_le_first = values[-1][1] <= values[0][1] + 1e-14
    tail_below = values[-1][0] <= DECAY_HORIZON or values[-1][1] <= decay_tol
    return DecayProfile(tuple(values), last_le_first, tail_below, decay_tol)


@dataclass(frozen=True)
class GBoundReport:
    a_const: float
    eps: float
    bound: float
    max_ratio: float
    worst_lambda: complex
    passed: bool


def half_range_norm(a: BlockOperator) -> float:
    """|A P+|, the norm of the first block column."""
    return operator_norm(np.vstack([a.a11, a.a21]))


def g_uniform_bound_check(a: BlockOperator, eps: float, sample_lambdas) -> GBoundReport:
    """Check |G(lambda)| <= 2 + 2a/eps on the closed upper half-plane.

    Requires the uniform margin ``eps`` > 0 (then A22 - lambda is invertible
    at every sample); a = 2 |A P+| (1 + 1e-6).  All samples are solved as one
    stack of G(lambda); ``worst_lambda`` is the first sample of largest
    ratio, and 0 when every ratio is 0.  An empty sample set raises
    :class:`DimensionMismatch`.
    """
    eps = float(eps)
    margin = dissipativity_margin(a)
    if eps <= 0 or margin < eps - 1e-12:
        raise NotUniformlyDissipative(
            f"need margin >= eps > 0, got margin={margin:.3e}, eps={eps:.3e}"
        )
    a_const = 2.0 * half_range_norm(a) * (1.0 + _EPS_A)
    bound = 2.0 + 2.0 * a_const / eps
    lams = np.asarray(sample_lambdas, dtype=np.complex128).reshape(-1)
    below = lams.imag < -1e-12
    if below.any():
        lam = complex(lams[np.argmax(below)])
        raise DimensionMismatch(f"sample {lam} is not in the closed upper half-plane")
    ratios = operator_norms(_resolvent_applied_left(a.a22, lams, a.a12)) / bound
    k = int(np.argmax(ratios))
    worst = float(ratios[k])
    worst_lam = complex(lams[k]) if worst > 0.0 else 0j
    return GBoundReport(a_const, eps, bound, worst, worst_lam, worst <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# resolvent asymptotics and algebraic identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticsReport:
    radii: tuple[float, ...]
    constants: tuple[float, ...]
    stability_ratio: float
    eq_identity_defect: float
    passed: bool


def resolvent_asymptotics_check(
    a: BlockOperator, radii, seed: int = 0
) -> AsymptoticsReport:
    """Probe (S(lambda) - lambda)^{-1} = -1/lambda + O(1/lambda^2).

    For each radius the constant C = max |lambda|^2 |(S-lambda)^{-1} +
    1/lambda| is fitted at 16 shifts on an upper semicircle; C must be
    stable within a factor 4 across the two largest radii.  The compression
    identity ((lambda - A)^{-1} z, z) = ((lambda - S(lambda))^{-1} z, z) for
    4 random unit z in H+ (drawn from ``seed``) is checked alongside to 1e-8
    (it is exact, so the defect stays at rounding level).  The 16 shifts of
    a radius are one stack: one :func:`schur_data` call, one solve of
    S - lambda, and one solve of lambda - A for the p columns whose top-left
    block the identity reads.
    """
    rs = sorted(float(r) for r in radii)
    if len(rs) < 2:
        raise DimensionMismatch("need at least two radii")
    if dissipativity_margin(a) <= 0:
        raise NotUniformlyDissipative("asymptotics probe needs a positive margin")
    p = a.structure.p
    rng = np.random.Generator(np.random.Philox(seed))
    zs = rng.standard_normal((4, p)) + 1j * rng.standard_normal((4, p))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    full = a.to_matrix()
    eye_p = np.eye(p, dtype=np.complex128)
    eye_full = np.eye(a.structure.dim, dtype=np.complex128)
    constants = []
    worst_identity = 0.0
    thetas = np.linspace(0.0, np.pi, 16)
    for r in rs:
        lams = r * np.exp(1j * thetas)
        lam_eye = lams[:, np.newaxis, np.newaxis]
        sd = schur_data(a, lams)
        # (S - lambda)^{-1}; (lambda - S)^{-1} is its negative
        inv = np.linalg.solve(
            sd.s - lam_eye * eye_p, np.broadcast_to(eye_p, sd.s.shape)
        )
        c_fit = np.abs(lams) ** 2 * operator_norms(inv + eye_p / lam_eye)
        constants.append(float(np.max(c_fit)))
        top_left = np.linalg.solve(
            lam_eye * eye_full - full,
            np.broadcast_to(eye_full[:, :p], (lams.size, a.structure.dim, p)),
        )[:, :p, :]
        lhs = np.einsum("zi,kij,zj->kz", zs.conj(), top_left, zs)
        rhs = np.einsum("zi,kij,zj->kz", zs.conj(), -inv, zs)
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs - rhs))))
    c_hi, c_lo = max(constants[-2:]), min(constants[-2:])
    if c_hi < 1e-12:
        ratio = 1.0
    else:
        ratio = c_hi / max(c_lo, 1e-300)
    passed = ratio <= 4.0 and worst_identity <= 1e-8
    return AsymptoticsReport(tuple(rs), tuple(constants), ratio, worst_identity, passed)


def g_resolvent_identity_residual(a: BlockOperator, lam: complex, mu: complex) -> float:
    """Relative defect of G(lambda) = G(mu) + (lambda-mu) G(mu) (A22-lambda)^{-1}."""
    g_lam = _resolvent_applied_left(a.a22, lam, a.a12)
    g_mu = _resolvent_applied_left(a.a22, mu, a.a12)
    recon = g_mu + (complex(lam) - complex(mu)) * _resolvent_applied_left(
        a.a22, lam, g_mu
    )
    scale = max(operator_norm(g_lam), 1e-300)
    return operator_norm(g_lam - recon) / scale


def schur_perturbation_residuals(
    a: BlockOperator, mu: complex, eps: float
) -> tuple[float, float]:
    """Relative defects of the shift-perturbation identities

        G(mu + i eps) = G(mu) + i eps G(mu) (A22 - i eps - mu)^{-1}
        S(mu + i eps) = S(mu) - i eps G(mu + i eps) F(mu)

    Both are exact resolvent algebra, so the defects sit at rounding level.
    """
    eps = float(eps)
    mu_shift = complex(mu) + 1j * eps
    sd_mu = schur_data(a, mu)
    sd_up = schur_data(a, mu_shift)
    g_recon = sd_mu.g + 1j * eps * _resolvent_applied_left(a.a22, mu_shift, sd_mu.g)
    g_res = operator_norm(sd_up.g - g_recon) / max(operator_norm(sd_up.g), 1e-300)
    s_recon = sd_mu.s - 1j * eps * (sd_up.g @ sd_mu.f)
    s_res = operator_norm(sd_up.s - s_recon) / max(operator_norm(sd_up.s), 1e-300)
    return g_res, s_res
