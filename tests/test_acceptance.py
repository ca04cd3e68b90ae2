"""Acceptance suite: every quantitative guarantee checked end to end.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -v -rA``).  The shared 200-instance
ensemble (sizes up to 20+20, margins 0, 0.1, and 1) is solved once and
reused by the criteria that quantify over it.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from kreinspace.blocks import (
    assemble,
    decompose,
    dissipativity_margin,
    factorization_residual,
    g_uniform_bound_check,
    resolvent_asymptotics_check,
    resolvent_identity_residuals,
    schur_data,
)
from kreinspace.errors import NotDissipative, SingularShift
from kreinspace.geometry import (
    NONNEGATIVE,
    AngleOperator,
    KreinStructure,
    classify_subspace,
    indefinite_inner_product,
    maximality_witness,
    subspace_from_angle_operator,
)
from kreinspace.harness import InstanceSpec, random_dissipative
from kreinspace.projectors import riesz_projector_exact, riesz_projector_quadrature
from kreinspace.solver import (
    DOUBLE_LIMIT_EPS_SCHEDULE,
    SolverConfig,
    graph_defect,
    regularize,
    riccati_residual,
    solve_theorem,
    solve_uniformly_dissipative,
)

ENSEMBLE_SIZE = 200
MARGINS = (0.0, 0.1, 1.0)
RUNTIME_CAP_SECONDS = 300.0

SUMMARY_LINES: list[str] = []


def _line(num, ok, detail=""):
    text = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}  {detail}"
    SUMMARY_LINES.append(text)
    print(text)


@dataclass
class SolvedInstance:
    spec: InstanceSpec
    a: object
    report: object
    error: str | None
    seconds: float


def _ensemble_specs():
    size_rng = np.random.Generator(np.random.Philox(777))
    specs = []
    for seed in range(ENSEMBLE_SIZE):
        if seed < ENSEMBLE_SIZE - 16:
            p = int(size_rng.integers(2, 11))
            m = int(size_rng.integers(2, 11))
        elif seed < ENSEMBLE_SIZE - 2:
            p = int(size_rng.integers(11, 17))
            m = int(size_rng.integers(11, 17))
        else:
            p = int(size_rng.integers(17, 21))
            m = int(size_rng.integers(17, 21))
        specs.append(
            InstanceSpec(p=p, m=m, margin=MARGINS[seed % 3], seed=seed)
        )
    return specs


@pytest.fixture(scope="module")
def ensemble():
    # the full-dimension eps row of the double limit, which criterion 10 reads;
    # K is the one the default three-cell tail gives
    cfg = SolverConfig(eps_schedule=DOUBLE_LIMIT_EPS_SCHEDULE)
    solved = []
    for spec in _ensemble_specs():
        a = random_dissipative(spec)
        start = time.perf_counter()
        try:
            rep = solve_theorem(a, cfg)
            err = None
        except Exception as exc:  # noqa: BLE001 - failures are data here
            rep = None
            err = f"{type(exc).__name__}: {exc}"
        solved.append(SolvedInstance(spec, a, rep, err, time.perf_counter() - start))
    return solved


def test_criterion_1_theorem_conclusion_suite(ensemble):
    """Angle contraction, invariance, upper restriction spectrum, maximality."""
    failures = []
    for inst in ensemble:
        if inst.error is not None:
            failures.append((inst.spec.seed, inst.error))
            continue
        rep = inst.report
        norm_a = inst.a.norm()
        ok = (
            rep.k_norm <= 1.0 + 1e-8
            and rep.invariance_residual <= 1e-7 * norm_a
            and rep.min_im_restriction() >= -1e-6
            and rep.maximal
        )
        if not ok:
            failures.append(
                (
                    inst.spec.seed,
                    f"k={rep.k_norm:.9f} inv={rep.invariance_residual:.2e} "
                    f"minIm={rep.min_im_restriction():.2e} max={rep.maximal}",
                )
            )
    total = sum(inst.seconds for inst in ensemble)
    ok = not failures and total <= RUNTIME_CAP_SECONDS
    _line(1, ok, f"{len(ensemble)} instances, {len(failures)} failures, {total:.0f}s")
    assert not failures, failures[:5]
    assert total <= RUNTIME_CAP_SECONDS


def test_criterion_2_projector_oracle_agreement():
    """Quadrature and Schur-split projectors agree to 1e-7 at gap 0.1."""
    rng = np.random.Generator(np.random.Philox(42))
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        im = rng.uniform(0.1, 2.0, d) * rng.choice([-1.0, 1.0], d)
        re = rng.uniform(-1.5, 1.5, d)
        w = re + 1j * im
        v = np.eye(d) + 0.35 * (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )
        a = v @ np.diag(w) @ np.linalg.inv(v)
        q_quad = riesz_projector_quadrature(a, 2.0 * (np.max(np.abs(w)) + 1.0))
        q_exact = riesz_projector_exact(a)
        worst = max(worst, np.linalg.norm(q_quad.q_plus - q_exact.q_plus, 2))
    _line(2, worst <= 1e-7, f"worst |dQ| = {worst:.2e} over 100 instances")
    assert worst <= 1e-7


def _manufactured_pair(seed, perturb):
    rng = np.random.Generator(np.random.Philox(seed))
    p = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    a11 = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    a12 = rng.standard_normal((p, m)) + 1j * rng.standard_normal((p, m))
    a22 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    k = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
    k *= 0.8 / np.linalg.norm(k, 2)
    a21 = k @ a11 + k @ a12 @ k - a22 @ k
    if perturb:
        scale = float(rng.uniform(1e-4, 1e-1))
        a21 = a21 + scale * (
            rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
        )
    return assemble(a11, a12, a21, a22), k


def test_criterion_3_riccati_invariance_equivalence():
    """Riccati residual <= 1e-9 iff direct invariance residual <= 1e-8."""
    agree = True
    for case in range(200):
        perturb = case >= 100
        a, k_mat = _manufactured_pair(1000 + case, perturb)
        p = a.structure.p
        s = KreinStructure(p, a.structure.m)
        mu = 1j * (1.0 + np.linalg.norm(a.a22, 2))
        res, _ = riccati_residual(a, AngleOperator(s, k_mat), mu)
        stacked = np.vstack([np.eye(p), k_mat])
        basis, _ = np.linalg.qr(stacked)
        full = a.to_matrix()
        inv_res = np.linalg.norm(
            full @ basis - basis @ (basis.conj().T @ full @ basis), 2
        )
        left = res <= 1e-9
        right = inv_res <= 1e-8
        if left != right or left == perturb:
            agree = False
    _line(3, agree, "200 manufactured/perturbed pairs, both directions")
    assert agree


def test_criterion_4_rayleigh_lower_bound(ensemble):
    """min [x,x]/(x,x) over the solution space >= 2 eps / (pi |A+|) - 1e-8."""
    failures = []
    for inst in ensemble:
        for eps in (1.0, 0.1, 0.01):
            rep = solve_uniformly_dissipative(regularize(inst.a, eps))
            bound = 2.0 * eps / (np.pi * rep.estimate10.a_plus_norm)
            if rep.estimate10.min_rayleigh < bound - 1e-8:
                failures.append((inst.spec.seed, eps))
    _line(4, not failures, f"3 regularizations x {len(ensemble)} instances")
    assert not failures, failures[:5]


def test_criterion_5_restriction_norm_cap(ensemble):
    """|A+| <= 2(|S| + gamma (1-gamma)^{-1} (|S| + |mu|)) whenever gamma < 1."""
    failures = []
    checked = 0
    for inst in ensemble:
        if inst.report is None:
            continue
        est11 = inst.report.estimate11
        est10 = inst.report.estimate10
        if est11.gamma < 1.0:
            checked += 1
            if est10.a_plus_norm > est11.bound + 1e-8:
                failures.append(inst.spec.seed)
    _line(5, not failures and checked, f"{checked} instances with gamma < 1")
    assert checked and not failures


def test_estimate_11_is_decided_on_every_report(ensemble):
    """mu keeps |G(mu)| < 1/2, so the cap is finite and holds is a bool."""
    reports = [inst.report for inst in ensemble if inst.report is not None]
    assert len(reports) == len(ensemble)
    for rep in reports:
        est11 = rep.estimate11
        assert est11.gamma < 0.5
        assert math.isfinite(est11.bound)
        assert type(est11.holds) is bool


def test_criterion_6_uniform_transfer_bound(ensemble):
    """|G(lambda)| <= 2 + 2a/eps at 50 upper samples, a = 2|A P+|(1+1e-6)."""
    failures = []
    checked = 0
    for inst in ensemble:
        margin = dissipativity_margin(inst.a)
        if margin <= 1e-8:
            continue  # the cap is vacuous without a uniform margin
        checked += 1
        rng = np.random.Generator(np.random.Philox(key=inst.spec.seed, counter=2))
        radius = 2.0 * (1.0 + inst.a.norm())
        lams = np.concatenate(
            [
                rng.uniform(-radius, radius, 30) + 1j * rng.uniform(0, radius, 30),
                rng.uniform(-radius, radius, 20),
            ]
        )
        rep = g_uniform_bound_check(inst.a, lams)
        if not rep.passed:
            failures.append(inst.spec.seed)
    _line(6, not failures and checked, f"{checked} strictly dissipative instances")
    assert checked and not failures


def test_criterion_7_factorization_identity(ensemble):
    """Block LDU reconstruction residual <= 1e-9 at 10 shifts per instance."""
    worst = 0.0
    for inst in ensemble:
        rng = np.random.Generator(np.random.Philox(key=inst.spec.seed, counter=3))
        norm22 = np.linalg.norm(inst.a.a22, 2)
        for _ in range(10):
            mu = complex(rng.uniform(-2, 2) * (1 + norm22), rng.uniform(0.3, 2.5))
            try:
                sd = schur_data(inst.a, [mu])
            except SingularShift:
                continue
            worst = max(worst, float(factorization_residual(inst.a, sd)[0]))
    _line(7, worst <= 1e-9, f"worst relative residual {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_8_resolvent_identities(ensemble):
    """Shift-perturbation and two-point resolvent identities at 1e-9."""
    worst = 0.0
    for inst in ensemble:
        rng = np.random.Generator(np.random.Philox(key=inst.spec.seed, counter=4))
        for _ in range(3):
            mu = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            eps = float(rng.uniform(1e-6, 1.0))
            ident = resolvent_identity_residuals(
                inst.a, schur_data(inst.a, [mu]), [lam], [eps]
            )
            worst = max(worst, *(float(r[0]) for r in ident))
    _line(8, worst <= 1e-9, f"worst relative residual {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_9_transfer_asymptotics(ensemble):
    """|(S(l)-l)^{-1} + 1/l| <= C/|l|^2 with C stable within factor 4."""
    failures = []
    checked = 0
    for inst in ensemble:
        if dissipativity_margin(inst.a) <= 1e-8:
            continue
        checked += 1
        r0 = 8.0 * (1.0 + inst.a.norm())
        rep = resolvent_asymptotics_check(inst.a, [r0, 2 * r0], seed=inst.spec.seed)
        if not rep.passed:
            failures.append((inst.spec.seed, rep.stability_ratio))
    _line(9, not failures and checked, f"{checked} instances, radii R and 2R")
    assert checked and not failures, failures[:5]


def test_criterion_10_regularization_tail(ensemble):
    """Tail differences decrease monotonically after a short burn-in."""
    monotone = 0
    considered = 0
    short_tails = []
    no_cauchy = sum(
        1 for inst in ensemble if inst.error and "NoCauchy" in inst.error
    )
    for inst in ensemble:
        if inst.spec.margin <= 0.0 or inst.report is None:
            continue
        considered += 1
        p = inst.spec.p
        diffs = [
            t.k_dist_prev
            for t in inst.report.convergence_trace
            if t.n == p and t.ok and t.k_dist_prev is not None
        ]
        tail = diffs[3:]
        if len(tail) < 2:
            short_tails.append((inst.spec.seed, len(tail)))
        violations = [
            i
            for i in range(len(tail) - 1)
            if tail[i + 1] > max(1.05 * tail[i], 1e-7)
        ]
        if not violations:
            monotone += 1
    rate = monotone / considered if considered else 0.0
    _line(
        10,
        rate >= 0.95 and not short_tails,
        f"monotone on {monotone}/{considered} strict instances "
        f"({rate:.1%}), {len(short_tails)} with fewer than 2 tail differences; "
        f"non-convergence count {no_cauchy} (reported, not hidden)",
    )
    assert considered
    assert not short_tails, short_tails[:5]
    assert rate >= 0.95


def test_criterion_11_golden_cases():
    """The three closed-form cases, each against its independent oracle."""
    s11 = KreinStructure(1, 1)

    # case 1: A = iJ; the whole pipeline is a fixed point
    ij = assemble([[1j]], [[0.0]], [[0.0]], [[-1j]])
    rep = solve_theorem(ij)
    case1 = (
        float(np.abs(rep.k.matrix).max()) <= 1e-10
        and np.allclose(rep.restriction_spectrum, [1j], atol=1e-10)
    )

    # case 2: upper-triangular coupling; oracle is the explicit eigenprojector
    tri = np.array([[1j, 1.0], [0.0, -1j]])
    w, v = np.linalg.eig(tri)
    mask = np.diag((w.imag > 0).astype(float))
    oracle_q = v @ mask @ np.linalg.inv(v)
    assert np.allclose(oracle_q, [[1.0, -0.5j], [0.0, 0.0]], atol=1e-14)
    q_rep = riesz_projector_quadrature(tri, 10.0)
    rep2 = solve_theorem(decompose(tri, s11))
    case2 = (
        np.linalg.norm(q_rep.q_plus - oracle_q, 2) <= 1e-7
        and float(np.abs(rep2.k.matrix).max()) <= 1e-8
        and np.allclose(rep2.restriction_spectrum, [1j], atol=1e-8)
    )

    # case 3: the neutral-boundary matrix [[0,1],[1,0]].  The exact
    # eigendecomposition oracle gives real spectrum {1,-1} with the neutral
    # eigenline (1,1)/sqrt(2), i.e. angle operator K = [1] with |K| = 1 and
    # real restriction spectrum.  Note JA here is skew-Hermitian, so the
    # dissipativity margin is -1 (the Hermitian part (JA-(JA)*)/(2i) has
    # eigenvalues +/-1, not 0): the operator lies outside the solver's
    # admissible class and the pipeline must reject it, while the stated
    # subspace facts are verified directly through the angle-operator layer.
    bnd = assemble([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    w3, v3 = np.linalg.eig(bnd.to_matrix())
    order = np.argsort(-w3.real)
    w3, v3 = w3[order], v3[:, order]
    vec_plus = v3[:, 0] / v3[0, 0]
    case3 = bool(np.allclose(w3, [1.0, -1.0], atol=1e-12))
    case3 &= np.allclose(vec_plus, [1.0, 1.0], atol=1e-12)
    case3 &= abs(indefinite_inner_product(s11, vec_plus, vec_plus)) <= 1e-12
    assert dissipativity_margin(bnd) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(NotDissipative):
        solve_theorem(bnd)
    k_one = AngleOperator(s11, [[1.0]])
    case3 &= abs(k_one.norm - 1.0) <= 1e-12
    res, l_one = riccati_residual(bnd, k_one, 2j)
    case3 &= res <= 1e-12
    sd3 = schur_data(bnd, 2j)
    restr = sd3.s + sd3.g @ l_one
    spec3 = np.linalg.eigvals(restr)
    case3 &= np.allclose(spec3, [1.0], atol=1e-12)
    case3 &= float(np.abs(spec3.imag).max()) <= 1e-6
    graph = subspace_from_angle_operator(k_one)
    case3 &= classify_subspace(graph).kind == NONNEGATIVE
    case3 &= maximality_witness(graph) is None
    # the mirrored neutral line is the only other invariant direction
    case3 &= float(np.abs(graph_defect(bnd, np.array([[-1.0]]))).max()) <= 1e-12

    ok = case1 and case2 and case3
    _line(11, ok, f"iJ={case1} triangular={case2} neutral-boundary={case3}")
    assert case1 and case2 and case3
