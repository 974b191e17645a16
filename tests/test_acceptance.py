"""Acceptance suite: one test per criterion, stated tolerances pinned.

Each test prints a single pass line on success; any failure is an
ordinary pytest failure.  Exact criteria compare rationals with ``==``;
floating criteria use the tolerances fixed here and nowhere else.
"""

import json
import time
from fractions import Fraction

import pytest

from densities import pairs_density
from forms import diag
from formlab.ball import (BallDomain, WeightFunction, b_term_alternate_pairs,
                          b_term_pairs, canonical_weight)
from formlab.cli import RunConfig, run_suites
from formlab.curvature import (ChartMetric, bochner_residual, curvature_at,
                               gallot_meyer_check, weitzenbock_at)
from formlab.harmonic import BasisCache
from formlab.identities import (adjunction_residual,
                                boundary_adjointness_residual,
                                hessian_expansion_residual,
                                pointwise_hessian_estimate,
                                product_rule_residual, pullback_split_residual,
                                replay_proof_chain, verify_function_reilly,
                                verify_pohozhaev, verify_unweighted_reilly,
                                verify_weighted_reilly)
from formlab.polynomials import Polynomial
from formlab.polyform import PolyForm, PolyVectorField
from formlab.quadrature import (RadialDensity, integrate_ball,
                                integrate_sphere, mc_oracle, unit_sphere_measure)
from formlab.sampling import (random_admissible_hessian, random_constant_form,
                              random_density, random_form, random_polynomial,
                              random_vector, random_vector_field, rng_for)
from formlab.spectral import assemble_operator
from oracle import (block_gram, certify_eigenvalue, full_stiffness, mat_sub, nullity,
                    scalar_mul)

SEED = 20240811
FLOAT_EIGEN_TOL = 1e-8
RESCALE_TOL = 1e-10
MC_SIGMA = 3.0
MC_SAMPLES = 10 ** 6

DEGREE_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]


def report(line: str) -> None:
    print(f"[PASS] {line}")


def test_criterion_01_weighted_reilly_randomized():
    """>= 50 randomized weighted identity cases, residual exactly 0."""
    t0 = time.time()
    rng = rng_for(SEED, "c1")
    cases = 0
    for m, p in DEGREE_PAIRS:
        dom = BallDomain(m, Fraction(1))
        for trial in range(6):
            omega = random_form(rng, m, p, 4, density=0.35)
            weight = WeightFunction.polynomial(
                random_polynomial(rng, m, 4, density=0.35))
            rep = verify_weighted_reilly(weight, omega, dom)
            assert rep.residual == 0, (m, p, trial, rep.residual)
            cases += 1
        for trial in range(3):
            omega = random_form(rng, m, p, 4, density=0.35)
            rep = verify_weighted_reilly(canonical_weight(dom), omega, dom)
            assert rep.residual == 0, (m, p, trial, rep.residual)
            cases += 1
    elapsed = time.time() - t0
    assert cases >= 50
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds budget"
    report(f"criterion 1: weighted identity residual 0 on {cases} cases "
           f"(m in 2..4, degrees <= 4) in {elapsed:.1f}s")


def test_criterion_02_specialisations():
    """Unweighted and function-case specialisations, term for term."""
    rng = rng_for(SEED, "c2")
    for m in (2, 3, 4):
        dom = BallDomain(m, Fraction(1))
        unit = WeightFunction.polynomial(Polynomial.one(m))
        for p in range(1, m):
            omega = random_form(rng, m, p, 3)
            rw = verify_weighted_reilly(unit, omega, dom)
            ru = verify_unweighted_reilly(omega, dom)
            assert rw.residual == 0 and ru.residual == 0
            for key in ("contraction", "hessian", "laplacian", "normal_pullback"):
                assert rw.terms[key] == 0
            assert rw.terms["lhs_energy"] == ru.terms["energy"] - ru.terms["gradient"]
            assert rw.terms["codifferential"] == ru.terms["codifferential"]
            assert rw.terms["shape"] == ru.terms["shape"]
        u = random_polynomial(rng, m, 3)
        for weight in (unit, canonical_weight(dom),
                       WeightFunction.polynomial(random_polynomial(rng, m, 3))):
            rf = verify_function_reilly(weight, u, dom)
            rw = verify_weighted_reilly(weight, PolyForm.from_function(u).d(), dom)
            assert rf.residual == 0 and rw.residual == 0
            assert rf.terms["lhs_energy"] == rw.terms["lhs_energy"]
    report("criterion 2: f=1 and gradient-form specialisations exact, "
           "term for term")


def test_criterion_03_pohozhaev():
    """>= 20 randomized vector-field identity cases, residual exactly 0."""
    rng = rng_for(SEED, "c3")
    cases = 0
    for m in (2, 3, 4):
        dom = BallDomain(m, Fraction(1))
        special = [PolyVectorField.position(m),
                   PolyVectorField(canonical_weight(dom).grad)]
        for p in range(0, m):
            phi = random_form(rng, m, p, 3)
            for F in special + [random_vector_field(rng, m, 2)]:
                rep = verify_pohozhaev(F, phi, dom)
                assert rep.residual == 0, (m, p, rep.residual)
                cases += 1
    assert cases >= 20
    report(f"criterion 3: vector-field identity residual 0 on {cases} cases "
           "(including the position field and the weight gradient)")


def test_criterion_04_pointwise_lemmas():
    """Pointwise expansion lemmas and boundary relations, all exact."""
    rng = rng_for(SEED, "c4")
    counts = dict(product=0, expansion=0, adjointness=0, splitting=0,
                  adjunction=0, pullback=0)
    for m in (2, 3, 4):
        dom = BallDomain(m, Fraction(1))
        for p in range(1, m + 1):
            w = random_form(rng, m, p, 3)
            F = random_vector_field(rng, m, 2)
            f = random_polynomial(rng, m, 3)
            assert product_rule_residual(F, w)
            counts["product"] += 1
            if p <= m - 1:
                assert hessian_expansion_residual(f, w)
                counts["expansion"] += 1
                assert boundary_adjointness_residual(
                    random_form(rng, m, p, 2),
                    random_form(rng, m, p + 1, 2), dom) == 0
                counts["adjointness"] += 1
            from formlab.ball import normal_split_residual
            assert normal_split_residual(w, dom) == 0
            counts["splitting"] += 1
            assert pullback_split_residual(w, dom) == 0
            counts["pullback"] += 1
            phi = random_constant_form(rng, m, p)
            psi = random_constant_form(rng, m, p - 1)
            assert adjunction_residual(phi, psi, random_vector(rng, m))
            counts["adjunction"] += 1
    report("criterion 4: pointwise lemmas exact "
           f"({sum(counts.values())} checks: {counts})")


@pytest.fixture(scope="module")
def acache():
    return BasisCache()


@pytest.fixture(scope="module")
def spectra_m3(acache):
    return {op: assemble_operator(op, 3, 1, 2, 1, acache)
            for op in ("dtn", "dtn-neumann", "hodge-boundary")}


def test_criterion_05_dtn_ball_spectra(acache, spectra_m3):
    """First positive eigenvalues with multiplicities, certified."""
    asm, rep = spectra_m3["dtn"]
    assert abs(rep.first_positive() - 2.0) <= FLOAT_EIGEN_TOL
    assert rep.eigenvalues[0].multiplicity == 3
    assert certify_eigenvalue(asm, Fraction(2)) == 3

    asm41, rep41 = assemble_operator("dtn", 4, 1, 1, 1, acache)
    assert abs(rep41.first_positive() - 2.0) <= FLOAT_EIGEN_TOL
    assert rep41.eigenvalues[0].multiplicity == 6
    assert certify_eigenvalue(asm41, Fraction(2)) == 6

    asm42, rep42 = assemble_operator("dtn", 4, 2, 1, 1, acache)
    assert abs(rep42.first_positive() - 3.0) <= FLOAT_EIGEN_TOL
    assert rep42.eigenvalues[0].multiplicity == 4
    assert certify_eigenvalue(asm42, Fraction(3)) == 4
    report("criterion 5: first positive eigenvalues 2(x3), 2(x6), 3(x4) "
           "certified by exact nullity and float agreement <= 1e-8")


def test_criterion_06_neumann_variant(spectra_m3):
    """Both lowest blocks of the Neumann-type operator, plus ordering."""
    asm, rep = spectra_m3["dtn-neumann"]
    blocks = {(b["kind"], b["l"]): b for b in rep.blocks}
    for v in blocks[("exact", 1)]["eigenvalues"]:
        assert abs(v - 5.0 / 3.0) <= FLOAT_EIGEN_TOL
    for v in blocks[("coexact", 1)]["eigenvalues"]:
        assert abs(v - 2.0) <= FLOAT_EIGEN_TOL
    assert certify_eigenvalue(asm, Fraction(5, 3)) == 3
    nu1 = rep.first_positive()
    sigma1 = spectra_m3["dtn"][1].first_positive()
    assert abs(nu1 - 5.0 / 3.0) <= FLOAT_EIGEN_TOL
    assert nu1 <= sigma1 + FLOAT_EIGEN_TOL
    report("criterion 6: Neumann-variant eigenvalues 5/3 and 2 on the "
           "lowest blocks; nu_1 = 5/3 <= sigma_1 = 2")


def test_criterion_07_boundary_laplacian_and_comparison(spectra_m3):
    """Boundary Laplacian blocks, and the comparison equality certified."""
    asm, rep = spectra_m3["hodge-boundary"]
    for b in rep.blocks:
        if b["l"] == 1:
            for v in b["eigenvalues"]:
                assert abs(v - 2.0) <= FLOAT_EIGEN_TOL
    # co-closed certification: nullity of A - 2G on the coexact blocks
    row_kinds = [blk.kind for blk in asm.blocks for _ in blk.basis]
    keep = [i for i, kind in enumerate(row_kinds) if kind == "coexact"]
    A_full, G_full = full_stiffness(asm), block_gram(asm)
    A = [[A_full[i][j] for j in keep] for i in keep]
    G = [[G_full[i][j] for j in keep] for i in keep]
    shifted = mat_sub(A, scalar_mul(Fraction(2), G))
    assert nullity(shifted, len(keep)) == 3

    # sigma_k (n - p) c = lambda_k for k = 1..3, exact on both sides
    d_asm, _ = spectra_m3["dtn"]
    assert certify_eigenvalue(d_asm, Fraction(2)) == 3  # sigma_k = 2, k<=3
    n, p, c = 2, 1, Fraction(1)
    assert Fraction(2) * (n - p) * c == Fraction(2)  # lambda_k = 2
    report("criterion 7: boundary Laplacian eigenvalue 2 on both lowest "
           "blocks; comparison equality certified exactly for k = 1..3")


def test_criterion_08_equality_chain(acache):
    """Sharp-bound replay on the unit ball, then rescaled first
    eigenvalues within 1e-10."""
    rep = replay_proof_chain("sharp-bound", 1, BallDomain(3, Fraction(1)), acache)
    assert rep.passed, rep.checks
    for c in (Fraction(1, 2), Fraction(1), Fraction(3)):
        _, srep = assemble_operator("dtn", 3, 1, 1, 1 / c, acache)
        target = float(2 * c)
        assert abs(srep.first_positive() - target) <= RESCALE_TOL * max(1, target)
        chain = replay_proof_chain("sharp-bound", 1, BallDomain(3, 1 / c), acache)
        assert chain.passed
        assert Fraction(chain.details["sigma"]) == 2 * c
    report("criterion 8: equality chain exact (parallel differential, "
           "proportional normal trace); sigma_1 = (p+1)c at c in {1/2, 1, 3}")


def test_criterion_09_strict_bound_and_shape_expression(acache, spectra_m3):
    """Strict half bound on every computed case; the two shape-term
    expressions agree exactly on differentials."""
    rng = rng_for(SEED, "c9")
    checked = 0
    for m, p in [(3, 1), (4, 1), (4, 2)]:
        _, rep = assemble_operator("dtn", m, p, 1, 1, acache)
        sigma1 = rep.first_positive()
        assert sigma1 > (p + 1) / 2.0
        checked += 1
    for m, p in DEGREE_PAIRS:
        if p > m - 1:
            continue
        dom = BallDomain(m, Fraction(1))
        phi = random_form(rng, m, p, 3)
        w = phi.d()
        diff = (pairs_density(b_term_pairs(w, dom), m)
                - pairs_density(b_term_alternate_pairs(w, dom), m))
        sq = diff * diff
        assert integrate_sphere(sq, 1) == 0
    chain = replay_proof_chain("nonsharp", 1, BallDomain(3, Fraction(1)), acache)
    assert chain.passed
    report(f"criterion 9: sigma_1 > (p+1)c/2 strict on {checked} spectra; "
           "two-term shape expression exact on differentials")


def test_criterion_10_hessian_estimate():
    """100 randomized admissible Hessians, zero violations; isotropic
    equality exact."""
    rng = rng_for(SEED, "c10")
    violations = 0
    for trial in range(100):
        m = rng.randint(2, 4)
        c = Fraction(rng.randint(1, 3))
        eps = Fraction(rng.randint(0, 3), 7) * c
        H = random_admissible_hessian(rng, m, c, eps)
        eta = random_constant_form(rng, m, rng.randint(1, m))
        rep = pointwise_hessian_estimate(H, eta, c, eps)
        assert rep.admissible
        if not rep.passed:
            violations += 1
    assert violations == 0
    iso = diag([Fraction(-2)] * 3)
    eta = random_constant_form(rng, 3, 2)
    rep = pointwise_hessian_estimate(iso, eta, Fraction(2), Fraction(0))
    assert rep.equality and rep.margin == 0
    report("criterion 10: eigenvalue-sum estimate holds on 100 admissible "
           "Hessians, isotropic case achieves exact equality")


def test_criterion_11_quadrature_oracle():
    """Exact moments against the stochastic oracle, plus closed values."""
    assert integrate_ball(RadialDensity(3, {0: 1}), 1) == Fraction(1, 3)
    x1 = Polynomial.variable(3, 1)
    assert integrate_sphere(x1 * x1, 1) == Fraction(1, 3)

    rng = rng_for(SEED, "c11")
    worst = 0.0
    for trial in range(20):
        m = rng.randint(2, 4)
        region = "ball" if trial % 2 == 0 else "sphere"
        dens = random_density(rng, m, 3, min_exponent=-1 if region == "ball" else -2)
        exact = float(integrate_ball(dens, 1) if region == "ball"
                      else integrate_sphere(dens, 1)) * unit_sphere_measure(m)
        est, err = mc_oracle(dens, 1, MC_SAMPLES, seed=SEED + trial, region=region)
        sigma_dev = abs(est - exact) / max(err, 1e-30)
        worst = max(worst, sigma_dev)
        assert sigma_dev <= MC_SIGMA, (trial, m, region, sigma_dev)
    report(f"criterion 11: 20 randomized densities match the stochastic "
           f"oracle (worst deviation {worst:.2f} sigma); closed values exact")


def test_criterion_12_curvature_module():
    """Flat chart exact zeros; round chart constant curvature and scalar
    curvature term; the Bochner formula exactly; curvature-operator
    lower bound by exact PSD tests."""
    F = Fraction
    pts3 = ([0, 0, 0], [F(1, 5), F(-1, 10), F(3, 20)], [F(3, 10), F(1, 4), F(-1, 5)])
    flat = ChartMetric.flat(3)
    for pt in pts3:
        data = curvature_at(flat, pt)
        assert data.has_constant_curvature(0)
        for p in (1, 2):
            assert not any(map(any, weitzenbock_at(flat, pt, p, data)))
    rng = rng_for(SEED, "c12")
    omega = random_form(rng, 3, 1, 3)
    assert bochner_residual(flat, omega, pts3[1]).is_zero()

    rs = ChartMetric.round_sphere(3)
    for pt in pts3:
        data = curvature_at(rs, pt)
        assert data.has_constant_curvature(1)
        for p in (1, 2):
            W = weitzenbock_at(rs, pt, p, data)
            assert W == [[p * (3 - p) * (i == j) for j in range(3)] for i in range(3)]
    lin = random_form(rng, 3, 1, 1)
    assert bochner_residual(rs, lin, pts3[1]).is_zero()
    assert gallot_meyer_check(rs, 1, 1, pts3)
    assert not gallot_meyer_check(rs, 1, 2, pts3)
    report("criterion 12: flat zeros, round constant curvature and scalar term "
           "p(m-p) Id, Bochner residual 0, curvature bound holds at 1 and not at 2, "
           "all exact")


def test_criterion_13_determinism():
    """Byte-identical reports (modulo timing) at any parallelism."""
    def run(jobs):
        cfg = RunConfig(suites=["identities"], dims=[2], l_max=1,
                        seed=SEED, jobs=jobs)
        rep = run_suites(cfg)
        rep.pop("timing")
        return json.dumps(rep, sort_keys=True)

    first = run(1)
    assert first == run(1) == run(2) == run(4)
    report("criterion 13: identical config and seed give byte-identical "
           "reports at parallelism 1, 2 and 4")
