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
houses the dissipativity margin, condition (i)'s margin of -A22 (the
dissipativity of -A22 on H-, which the solver requires), and the
quantitative resolvent estimates that the verification harness asserts on
random ensembles.

All functions here are pure.  Shift samples are stacked: :func:`schur_data`
takes a 1-D array of shifts and returns the transfer data as stacks, so each
check that samples many shifts solves all of them in one batched call.
Each transfer quantity is computed once for all its readers: :func:`g_norms`
forms only |G| (for the bound on G, the decay profile and the solver's mu),
and the identity checks take the :class:`SchurData` stack they verify, so
a caller builds the A22 - mu stack once for both.  Each stack of
A22 - mu_k is checked against the singular floor once, and its transpose
solves, which have the same singular values, reuse that check.  Each check
takes only what it cannot derive: the uniform bound on G reads its eps from
:func:`dissipativity_margin`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionIFailed, DimensionMismatch, NotUniformlyDissipative
from .geometry import KreinStructure
from .numerics import operator_norm, operator_norms, shifted_stack
from .numerics import validate_int, validate_matrix, validate_vector

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
        p, d = self.structure.p, self.structure.dim
        full = np.empty((d, d), dtype=np.complex128)
        full[:p, :p], full[:p, p:] = self.a11, self.a12
        full[p:, :p], full[p:, p:] = self.a21, self.a22
        return full

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
    # halving before the difference keeps entries near the float maximum finite
    return a / 2j - a.conj().T / 2j


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


def _applied_left(shifted: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack of B_k (A22 - mu_k)^{-1} from the checked stack of A22 - mu_k.

    ``b`` is one matrix for every shift or a ``(k, p, m)`` stack, slice k
    paired with shift k.  Each slice is the transposed solve
    (A22 - mu_k)^T X = B_k^T.
    """
    bt = np.swapaxes(b, -1, -2)
    x = np.linalg.solve(
        np.swapaxes(shifted, -1, -2),
        np.broadcast_to(bt, (shifted.shape[0], *bt.shape[-2:])),
    )
    return np.swapaxes(x, -1, -2)


def schur_data(a: BlockOperator, mu) -> SchurData:
    """Compute S(mu), F(mu), G(mu); raises SingularShift near sigma(A22).

    ``mu`` is one shift or a 1-D array of shifts.  For an array the result
    holds stacks, slice k being the transfer data at ``mu[k]``.  The stack of
    A22 - mu_k is checked once against the singular floor of
    :func:`numerics.shifted_stack` (the first shift that fails raises
    :class:`SingularShift`); F is one batched solve with it and G one with
    its transpose, which has the same singular values.
    """
    return _schur_stack(a, mu, shifted_stack(a.a22, mu))


def _schur_stack(a: BlockOperator, mu, shifted: np.ndarray) -> SchurData:
    """:func:`schur_data` at the shifts ``mu`` of the checked stack A22 - mu_k."""
    s, f = _schur_complements(a, shifted)
    g = _applied_left(shifted, a.a12)
    if np.ndim(mu):
        mu = np.asarray(mu, dtype=np.complex128)
    else:
        mu, s, f, g = complex(mu), s[0], f[0], g[0]
    return SchurData(mu, s, f, g)


def _schur_complements(a: BlockOperator, shifted: np.ndarray):
    """The stacks S = A11 - A12 F and F = (A22 - mu_k)^{-1} A21 of a checked stack."""
    k = shifted.shape[0]
    f = np.linalg.solve(shifted, np.broadcast_to(a.a21, (k, *a.a21.shape)))
    return a.a11 - a.a12 @ f, f


def _stack_shifts(sd: SchurData) -> np.ndarray:
    """The shift array of a :func:`schur_data` stack (DimensionMismatch if none)."""
    if np.ndim(sd.mu) != 1:
        raise DimensionMismatch("the transfer data must be a stack of 1-D shifts")
    return sd.mu


def factorization_residual(a: BlockOperator, sd: SchurData) -> np.ndarray:
    """Relative defect of the block LDU identity at each shift of the stack ``sd``.

    ``sd`` is the :func:`schur_data` of ``a`` at a 1-D array of shifts.  The
    identity is exact for finite matrices, so each residual is at rounding
    level (contract: <= 1e-9) whenever the shift clears sigma(A22).
    """
    mus = _stack_shifts(sd)
    p, d = a.structure.p, a.structure.dim
    mu_eye = mus[:, np.newaxis, np.newaxis]
    eye = np.eye(d, dtype=np.complex128)
    upper = np.repeat(eye[np.newaxis], mus.size, axis=0)
    upper[:, :p, p:] = sd.g
    diag = np.zeros_like(upper)
    diag[:, :p, :p] = sd.s - mu_eye * eye[:p, :p]
    diag[:, p:, p:] = a.a22 - mu_eye * eye[p:, p:]
    lower = np.repeat(eye[np.newaxis], mus.size, axis=0)
    lower[:, p:, :p] = sd.f
    recon = mu_eye * eye + upper @ diag @ lower
    return operator_norms(a.to_matrix() - recon) / (a.norm() or 1.0)


# ---------------------------------------------------------------------------
# condition (i): -A22 dissipative on H-
# ---------------------------------------------------------------------------


def condition_i_margin(a: BlockOperator) -> float:
    """Dissipativity margin of -A22 on H-: -lambda_max(Im A22)."""
    return -float(np.linalg.eigvalsh(imag_part(a.a22))[-1])


# ---------------------------------------------------------------------------
# decay and bound diagnostics for G
# ---------------------------------------------------------------------------


def g_norms(a: BlockOperator, shifts) -> np.ndarray:
    """|G(mu_k)| at each of the shifts mu_k; F and S are not formed."""
    return operator_norms(_applied_left(shifted_stack(a.a22, shifts), a.a12))


def g_decay_profile(a: BlockOperator, heights) -> np.ndarray:
    """The array of |G(i h)| at finite, strictly increasing heights h > 0.

    Condition (i) gives |(A22 - i h)^{-1}| <= 1/h, so the values decay to
    zero like |A12| / h; an operator that fails it raises
    :class:`ConditionIFailed`.
    """
    hs = [float(h) for h in heights]
    # a comparison with NaN is false, so NaN fails the range test
    if not hs or not all(0 < h < np.inf for h in hs) or any(
        h2 <= h1 for h1, h2 in zip(hs, hs[1:])
    ):
        raise DimensionMismatch(
            "heights must be finite, positive and strictly increasing"
        )
    if condition_i_margin(a) < -DISSIPATIVITY_TOL:
        raise ConditionIFailed("-A22 is not dissipative; the profile is undefined")
    return g_norms(a, 1j * np.array(hs))


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


def g_uniform_bound_check(a: BlockOperator, sample_lambdas) -> GBoundReport:
    """Check |G(lambda)| <= 2 + 2a/eps on the closed upper half-plane.

    ``eps`` is the dissipativity margin of A (a smaller one only loosens the
    bound); a margin <= 0 raises :class:`NotUniformlyDissipative`, and a
    positive one makes A22 - lambda invertible at every sample.
    a = 2 |A P+| (1 + 1e-6).  All samples are one :func:`g_norms` stack;
    ``worst_lambda`` is the first sample of largest ratio, and 0
    when every ratio is 0.  A NaN or infinite sample raises
    :class:`NonFinite`, an empty sample set :class:`DimensionMismatch`.
    """
    lams = validate_vector(sample_lambdas, name="sample_lambdas")
    eps = dissipativity_margin(a)
    if eps <= 0:
        raise NotUniformlyDissipative(f"need a positive margin, got {eps:.3e}")
    a_const = 2.0 * half_range_norm(a) * (1.0 + _EPS_A)
    bound = 2.0 + 2.0 * a_const / eps
    below = lams.imag < -1e-12
    if below.any():
        lam = complex(lams[np.argmax(below)])
        raise DimensionMismatch(f"sample {lam} is not in the closed upper half-plane")
    ratios = g_norms(a, lams) / bound
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
    4 random unit z in H+ (drawn from the integer ``seed`` >= 0) is checked
    alongside to 1e-8
    (it is exact, so the defect stays at rounding level).  The 16 shifts of
    every radius are one stack: one floor-checked A22 - lambda stack with
    one solve for F and none for G (which the probe never reads), one solve
    of S - lambda, and one solve of lambda - A for the 4 vectors (z, 0),
    since the identity reads only z* [(lambda - A)^{-1}]_11 z.
    """
    rs = sorted(float(r) for r in radii)
    # a comparison with NaN is false, so NaN fails the range test
    if len(set(rs)) < 2 or not all(0 < r < np.inf for r in rs):
        raise DimensionMismatch(
            f"radii must be finite, positive and hold two distinct values, got {rs}"
        )
    if validate_int(seed, "seed") < 0:
        raise DimensionMismatch(f"seed must be nonnegative, got {seed}")
    if dissipativity_margin(a) <= 0:
        raise NotUniformlyDissipative("asymptotics probe needs a positive margin")
    p = a.structure.p
    rng = np.random.Generator(np.random.Philox(seed))
    zs = rng.standard_normal((4, p)) + 1j * rng.standard_normal((4, p))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    full = a.to_matrix()
    d = a.structure.dim
    eye_p = np.eye(p, dtype=np.complex128)
    # the columns (z, 0) of the 4 test vectors
    z_full = np.zeros((d, len(zs)), dtype=np.complex128)
    z_full[:p] = zs.T
    thetas = np.linspace(0.0, np.pi, 16)
    lams = (np.array(rs)[:, np.newaxis] * np.exp(1j * thetas)).ravel()
    lam_eye = lams[:, np.newaxis, np.newaxis]
    s, _ = _schur_complements(a, shifted_stack(a.a22, lams))
    # (S - lambda)^{-1}; (lambda - S)^{-1} is its negative
    inv = np.linalg.solve(s - lam_eye * eye_p, np.broadcast_to(eye_p, s.shape))
    c_fit = np.abs(lams) ** 2 * operator_norms(inv + eye_p / lam_eye)
    constants = [float(c) for c in np.max(c_fit.reshape(len(rs), -1), axis=1)]
    applied = np.linalg.solve(
        lam_eye * np.eye(d) - full, np.broadcast_to(z_full, (lams.size, *z_full.shape))
    )
    lhs = np.einsum("zi,kiz->kz", zs.conj(), applied[:, :p, :])
    rhs = np.einsum("zi,kij,zj->kz", zs.conj(), -inv, zs)
    worst_identity = float(np.max(np.abs(lhs - rhs)))
    c_hi, c_lo = max(constants[-2:]), min(constants[-2:])
    if c_hi < 1e-12:
        ratio = 1.0
    else:
        ratio = c_hi / max(c_lo, 1e-300)
    passed = ratio <= 4.0 and worst_identity <= 1e-8
    return AsymptoticsReport(tuple(rs), tuple(constants), ratio, worst_identity, passed)


def _relative_defects(exact: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """|exact_k - recon_k| / |exact_k| for each slice of two stacks."""
    return operator_norms(exact - recon) / np.maximum(operator_norms(exact), 1e-300)


def resolvent_identity_residuals(a: BlockOperator, sd: SchurData, lam, eps):
    """Relative defects of the three resolvent identities of the transfer data

        G(lambda)     = G(mu) + (lambda - mu) G(mu) (A22 - lambda)^{-1}
        G(mu + i eps) = G(mu) + i eps G(mu) (A22 - i eps - mu)^{-1}
        S(mu + i eps) = S(mu) - i eps G(mu + i eps) F(mu)

    All three are exact resolvent algebra, so the defects sit at rounding
    level.  ``sd`` is the :func:`schur_data` of ``a`` at a 1-D array of
    shifts mu, and ``lam`` and ``eps`` are 1-D arrays of the same length
    (else :class:`DimensionMismatch`), sample k being (lam[k], mu[k],
    eps[k]); a NaN or infinite ``lam`` or ``eps`` raises :class:`NonFinite`
    before any stack is built.  The call checks two more stacks,
    A22 - lambda and A22 - mu - i eps, and returns the triple of defect
    arrays (two-point, G shift, S shift).
    """
    mus = _stack_shifts(sd)
    lams = np.asarray(lam, dtype=np.complex128)
    epss = np.asarray(eps, dtype=float)
    if lams.shape != mus.shape or epss.shape != mus.shape:
        raise DimensionMismatch(f"lam and eps must be 1-D arrays of length {mus.size}")
    validate_vector(lams, name="lam")
    validate_vector(epss, name="eps")
    shifted_lam = shifted_stack(a.a22, lams)
    lam_step = (lams - mus)[:, np.newaxis, np.newaxis]
    two_point = _relative_defects(
        _applied_left(shifted_lam, a.a12),
        sd.g + lam_step * _applied_left(shifted_lam, sd.g),
    )
    i_eps = (1j * epss)[:, np.newaxis, np.newaxis]
    mu_shift = mus + 1j * epss
    shifted_up = shifted_stack(a.a22, mu_shift)
    sd_up = _schur_stack(a, mu_shift, shifted_up)
    g_shift = _relative_defects(sd_up.g, sd.g + i_eps * _applied_left(shifted_up, sd.g))
    s_shift = _relative_defects(sd_up.s, sd.s - i_eps * (sd_up.g @ sd.f))
    return two_point, g_shift, s_shift
