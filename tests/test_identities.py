"""Integral identity checks: exact residuals, specialisations, replays."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlab import ball, cli, identities
from formlab.ball import (BallDomain, WeightFunction, boundary_delta_rep,
                          canonical_weight, normal_part)
from formlab.cli import FLOAT_TOLERANCE, _float_form, _float_weight
from formlab.identities import (pointwise_hessian_estimate, replay_proof_chain,
                                verify_function_reilly, verify_pohozhaev,
                                verify_stokes, verify_unweighted_reilly,
                                verify_weighted_reilly, weighted_reilly_terms)
from formlab.polynomials import Polynomial
from formlab.polyform import PolyForm, PolyVectorField
from formlab.quadrature import integrate_ball, integrate_sphere
from formlab.sampling import (random_admissible_hessian, random_constant_form,
                              random_form, random_polynomial,
                              random_vector_field, rng_for)
from forms import covariant_gradient, diag

DOM3 = BallDomain(3, Fraction(1))


def x(k, m=3):
    return Polynomial.variable(m, k)


class TestStokes:
    def test_linear_function_case(self):
        rep = verify_stokes(PolyForm.from_function(x(1)),
                            PolyForm.basis(3, (1,)), DOM3)
        assert rep.passed and rep.residual == 0
        # both sides are the х1^2 boundary moment
        assert rep.lhs == Fraction(1, 3)

    def test_random_forms(self):
        rng = rng_for(40, "stokes")
        for m in (2, 3, 4):
            dom = BallDomain(m, Fraction(1))
            for p in range(0, m):
                phi = random_form(rng, m, p, 3)
                psi = random_form(rng, m, p + 1, 3)
                assert verify_stokes(phi, psi, dom).passed

    def test_tangential_target_kills_boundary_term(self):
        # psi with identically vanishing normal contraction
        psi = PolyForm(3, 1, {(1,): x(2), (2,): -x(1)})
        phi = PolyForm.from_function(random_polynomial(rng_for(41, "tang"), 3, 2))
        rep = verify_stokes(phi, psi, DOM3)
        assert rep.passed and rep.terms["boundary"] == 0

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_stokes(PolyForm.basis(3, (1,)), PolyForm.basis(3, (2,)), DOM3)


class TestWeightedReilly:
    def test_random_cases_all_dimensions(self):
        rng = rng_for(42, "reilly")
        for m in (2, 3, 4):
            dom = BallDomain(m, Fraction(1))
            for p in range(1, m):
                omega = random_form(rng, m, p, 3)
                weight = WeightFunction.polynomial(random_polynomial(rng, m, 3))
                rep = verify_weighted_reilly(weight, omega, dom)
                assert rep.passed, (m, p, rep.residual)

    def test_radial_polynomial_weight(self):
        r2 = Polynomial.radius_squared(3)
        weight = WeightFunction.polynomial(
            Polynomial.one(3) + r2 - r2 * r2 * Fraction(2))
        omega = random_form(rng_for(43, "radial"), 3, 2, 3)
        assert verify_weighted_reilly(weight, omega, DOM3).passed

    def test_top_degree(self):
        omega = random_form(rng_for(44, "top"), 3, 3, 2)
        weight = WeightFunction.polynomial(random_polynomial(rng_for(44, "topw"), 3, 2))
        assert verify_weighted_reilly(weight, omega, DOM3).passed

    def test_unweighted_specialisation_term_for_term(self):
        rng = rng_for(45, "unweighted")
        for m in (2, 3):
            dom = BallDomain(m, Fraction(1))
            for p in range(1, m + 1):
                omega = random_form(rng, m, p, 3)
                weight = WeightFunction.polynomial(Polynomial.one(m))
                rw = verify_weighted_reilly(weight, omega, dom)
                ru = verify_unweighted_reilly(omega, dom)
                assert rw.passed and ru.passed
                # weight-derivative terms vanish identically
                for key in ("contraction", "hessian", "laplacian", "normal_pullback"):
                    assert rw.terms[key] == 0
                # matching terms agree exactly
                assert rw.terms["lhs_energy"] == \
                    ru.terms["energy"] - ru.terms["gradient"]
                assert rw.terms["codifferential"] == ru.terms["codifferential"]
                assert rw.terms["shape"] == ru.terms["shape"]

    def test_canonical_weight_kills_boundary_f_terms(self, cache):
        # omega = d(phi) for the lowest coexact eigenform: boundary terms
        # carrying the weight itself drop since the weight vanishes there
        omega = cache.get(3, 1, 1, "H-normal-null")[0].d()
        rep = verify_weighted_reilly(canonical_weight(DOM3), omega, DOM3)
        assert rep.passed
        assert rep.terms["codifferential"] == 0
        assert rep.terms["shape"] == 0

    def test_different_radii(self):
        rng = rng_for(46, "radii")
        for R in (Fraction(1, 2), Fraction(2), Fraction(3, 2)):
            dom = BallDomain(3, R)
            omega = random_form(rng, 3, 1, 3)
            weight = WeightFunction.polynomial(random_polynomial(rng, 3, 3))
            assert verify_weighted_reilly(weight, omega, dom).passed
            assert verify_weighted_reilly(canonical_weight(dom), omega, dom).passed


def product_reilly_terms(weight, omega, domain):
    """The weighted identity's terms computed the direct way: each
    integrand is built as a polynomial and then integrated.  The oracle for the moment
    contraction of ``weighted_reilly_terms``; it shares none of the
    library's pair builders."""
    m, p, R = domain.m, omega.p, domain.radius
    n, c = domain.boundary_dim, domain.curvature
    delta_sq = omega.delta().norm_sq() if p >= 1 else Polynomial.zero(m)
    d_sq = omega.d().norm_sq() if p <= m - 1 else Polynomial.zero(m)
    grad_sq = sum((g.norm_sq() for g in covariant_gradient(omega)), Polynomial.zero(m))
    lhs_density = weight.f * (delta_sq + d_sq - grad_sq)

    contraction = Polynomial.zero(m)
    if p <= m - 1:
        dw = omega.d()
        for k in range(1, m + 1):
            comps = [Polynomial.zero(m)] * m
            comps[k - 1] = Polynomial.one(m)
            pairing = omega.inner(dw.interior(comps))
            if pairing:
                contraction = contraction + weight.grad[k - 1] * pairing
    contraction = contraction * (-2)

    hessian = Polynomial.zero(m)
    for i in range(m):
        for j in range(m):
            unit = [[Polynomial.zero(m)] * m for _ in range(m)]
            unit[i][j] = Polynomial.one(m)
            hessian = hessian + weight.hess[i][j] * omega.inner(omega.lift_by(unit))

    i_n = normal_part(omega, domain) if p >= 1 else None
    i_n_sq = i_n.inner(i_n) if i_n is not None else Polynomial.zero(m)
    jstar_sq = omega.norm_sq() - i_n_sq
    if p >= 1:
        codiff = weight.f * (2 * boundary_delta_rep(omega, domain).inner(i_n))
        b_form = (p * c) * jstar_sq + (n * c) * i_n_sq - ((p - 1) * c) * i_n_sq
        shape = weight.f * b_form
    else:
        codiff = shape = Polynomial.zero(m)
    return {
        "lhs_energy": integrate_ball(lhs_density, R),
        "contraction": integrate_ball(contraction, R),
        "hessian": integrate_ball(hessian, R),
        "laplacian": integrate_ball(weight.lap * omega.norm_sq(), R),
        "normal_pullback": integrate_sphere(weight.normal_derivative(domain) * jstar_sq * (-1), R),
        "codifferential": integrate_sphere(codiff, R),
        "shape": integrate_sphere(shape, R),
    }


class TestMomentContraction:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_terms_equal_product_oracle(self, m):
        rng = rng_for(60, "oracle", m)
        radii = (Fraction(1), Fraction(1, 2), Fraction(7, 3))
        for p in range(0, m + 1):
            for kind in ("polynomial", "canonical", "unit"):
                dom = BallDomain(m, radii[(p + len(kind)) % 3])
                omega = random_form(rng, m, p, 3 if m < 4 else 2)
                if kind == "polynomial":
                    weight = WeightFunction.polynomial(random_polynomial(rng, m, 3))
                elif kind == "canonical":
                    weight = canonical_weight(dom)
                else:
                    weight = WeightFunction.polynomial(Polynomial.one(m))
                got = weighted_reilly_terms(weight, omega, dom)
                assert got == product_reilly_terms(weight, omega, dom), (m, p, kind)


class TestFloatTolerance:
    def _float_case(self, R):
        rng = rng_for(61, "float", R)
        dom = BallDomain(3, R)
        omega = _float_form(random_form(rng, 3, 2, 3))
        weight = _float_weight(WeightFunction.polynomial(random_polynomial(rng, 3, 3)))
        return weight, omega, dom

    @pytest.mark.parametrize("R", [Fraction(1, 8), 1, 4, 8])
    def test_rounding_passes_at_any_radius(self, R):
        weight, omega, dom = self._float_case(R)
        rep = verify_weighted_reilly(weight, omega, dom, FLOAT_TOLERANCE)
        assert rep.passed, (rep.residual, rep.terms)

    @pytest.mark.parametrize("R", [Fraction(1, 8), 1, 4, 8])
    def test_term_off_by_1e_9_fails(self, R, monkeypatch):
        weight, omega, dom = self._float_case(R)
        terms = weighted_reilly_terms(weight, omega, dom)
        name = max(terms, key=lambda k: abs(terms[k]))
        bad = dict(terms, **{name: terms[name] * (1 + 1e-9)})
        monkeypatch.setattr(identities, "weighted_reilly_terms", lambda *args: bad)
        assert not verify_weighted_reilly(weight, omega, dom, FLOAT_TOLERANCE).passed

    def test_cancelling_top_degree_terms_pass(self):
        # p = m: |J* w|^2 vanishes on the sphere, so normal_pullback is a
        # rounding remainder of two large cancelling integrals
        rng = rng_for(11, "reilly", 3, 3, "4", 1)
        dom = BallDomain(3, 4)
        omega = _float_form(random_form(rng, 3, 3, 3))
        weight = _float_weight(WeightFunction.polynomial(random_polynomial(rng, 3, 3)))
        rep = verify_weighted_reilly(weight, omega, dom, FLOAT_TOLERANCE)
        assert rep.passed, rep.terms


class TestFunctionReilly:
    def test_linear_function(self):
        rep = verify_function_reilly(WeightFunction.polynomial(Polynomial.one(3)), x(1), DOM3)
        assert rep.passed
        assert rep.lhs == 0  # second-order terms vanish for linear u

    def test_quadratic_with_canonical_weight(self):
        rep = verify_function_reilly(canonical_weight(DOM3), x(1) * x(1), DOM3)
        assert rep.passed

    def test_agreement_with_form_version(self):
        rng = rng_for(47, "fn-agree")
        for m in (2, 3):
            dom = BallDomain(m, Fraction(1))
            u = random_polynomial(rng, m, 3)
            weight = WeightFunction.polynomial(random_polynomial(rng, m, 2))
            rf = verify_function_reilly(weight, u, dom)
            rw = verify_weighted_reilly(weight, PolyForm.from_function(u).d(), dom)
            assert rf.passed and rw.passed
            assert rf.residual == rw.residual == 0
            # the interior energies agree exactly: (lap u)^2 - |Hess u|^2
            assert rf.terms["lhs_energy"] == rw.terms["lhs_energy"]


class TestPohozhaev:
    def test_euler_field_structure(self):
        # F = x: div F = m and the Jacobian term is (p+1) |d phi|^2
        rng = rng_for(48, "poh-euler")
        m = 3
        phi = random_form(rng, m, 1, 3)
        rep = verify_pohozhaev(PolyVectorField.position(m), phi, DOM3)
        assert rep.passed
        from formlab.quadrature import integrate_ball
        d_sq = integrate_ball(phi.d().norm_sq(), 1)
        assert rep.lhs == m * d_sq
        assert rep.terms["jacobian"] == 2 * (phi.p + 1) * d_sq

    def test_weight_gradient_field(self):
        rng = rng_for(49, "poh-weight")
        for m in (2, 3, 4):
            dom = BallDomain(m, Fraction(1))
            F = PolyVectorField(canonical_weight(dom).grad)
            phi = random_form(rng, m, min(1, m - 1), 3)
            assert verify_pohozhaev(F, phi, dom).passed

    def test_constant_field(self):
        phi = random_form(rng_for(50, "poh-const"), 3, 1, 3)
        rep = verify_pohozhaev(PolyVectorField.constant(3, [1, -2, 3]), phi, DOM3)
        assert rep.passed
        assert rep.lhs == 0  # div F = 0

    def test_random_fields(self):
        rng = rng_for(51, "poh-rand")
        for _ in range(5):
            m = rng.randint(2, 4)
            p = rng.randint(0, m - 1)
            phi = random_form(rng, m, p, 3)
            F = random_vector_field(rng, m, 2)
            assert verify_pohozhaev(F, phi, BallDomain(m, Fraction(1))).passed


class TestHessianEstimate:
    def test_isotropic_equality(self):
        c = Fraction(1)
        H = diag([-c] * 3)
        eta = random_constant_form(rng_for(52, "iso"), 3, 2)
        rep = pointwise_hessian_estimate(H, eta, c, Fraction(0))
        assert rep.passed and rep.equality and rep.margin == 0

    def test_randomized_admissible(self):
        """No input makes a mutant that passes a margin below 0 fail:
        ``pointwise_hessian_estimate`` with ``passed = True`` for every
        admissible Hessian is equivalent to it on correct code, since
        margin >= 0 is the theorem for admissible Hessians.  So this
        decision has no negative control; an inadmissible Hessian fails
        (``test_precondition_violation_reported``)."""
        rng = rng_for(53, "hess")
        c = Fraction(1)
        for _ in range(30):
            m = rng.randint(2, 4)
            eps = Fraction(rng.randint(0, 2), 5) * c
            H = random_admissible_hessian(rng, m, c, eps)
            eta = random_constant_form(rng, m, rng.randint(1, m))
            rep = pointwise_hessian_estimate(H, eta, c, eps)
            assert rep.admissible and rep.passed

    def test_degenerate_epsilon(self):
        # eps = c: lower bound 0, any negative-semidefinite Hessian works
        H = diag([Fraction(0), Fraction(-1), Fraction(-2)])
        eta = random_constant_form(rng_for(54, "deg"), 3, 1)
        rep = pointwise_hessian_estimate(H, eta, Fraction(1), Fraction(1))
        assert rep.passed

    def test_precondition_violation_reported(self):
        H = diag([Fraction(1), Fraction(-2), Fraction(-2)])
        eta = random_constant_form(rng_for(55, "bad"), 3, 1)
        rep = pointwise_hessian_estimate(H, eta, Fraction(1), Fraction(0))
        assert not rep.admissible and not rep.passed


class TestProofChains:
    @pytest.mark.parametrize("kind", ["sharp-bound", "comparison", "nonsharp"])
    def test_unit_ball_m3(self, kind, cache):
        rep = replay_proof_chain(kind, 1, DOM3, cache)
        assert rep.passed, rep.checks

    def test_sharp_bound_rescaled(self, cache):
        for c in (Fraction(1, 2), Fraction(1), Fraction(3)):
            dom = BallDomain(3, 1 / c)
            rep = replay_proof_chain("sharp-bound", 1, dom, cache)
            assert rep.passed
            assert Fraction(rep.details["sigma"]) == 2 * c

    def test_higher_degree(self, cache):
        rep = replay_proof_chain("sharp-bound", 2, DOM3, cache)
        assert rep.passed

    @pytest.mark.parametrize("m, p", [(3, 1), (4, 1), (4, 2)])
    def test_comparison_pointwise_sum_rejects_doubled_weight(self, m, p, cache,
                                                             monkeypatch):
        for R in (Fraction(1), Fraction(1, 2), Fraction(7, 3)):
            dom = BallDomain(m, R)
            checks = replay_proof_chain("comparison", p, dom, cache).checks
            pointwise = [k for k in checks if k.startswith("pointwise-sum")]
            assert pointwise and all(checks[k] for k in pointwise)
        real = ball.canonical_weight

        def doubled(dom):
            return WeightFunction("doubled", real(dom).f * 2)
        monkeypatch.setattr(ball, "canonical_weight", doubled)
        for R in (Fraction(1), Fraction(1, 2), Fraction(7, 3)):
            checks = replay_proof_chain("comparison", p, BallDomain(m, R), cache).checks
            assert not any(v for k, v in checks.items() if k.startswith("pointwise-sum"))

    def test_comparison_needs_room(self, cache):
        with pytest.raises(ValueError):
            replay_proof_chain("comparison", 2, DOM3, cache)


class _SwappedBlockCache:
    """A basis cache whose answer to the chains' one request, the first
    eigenform block (m, 1, p, "H-normal-null"), is another basis."""

    def __init__(self, basis, m, p):
        self.basis, self.request = basis, (m, 1, p, "H-normal-null")

    def get(self, m, l, p, kind):
        assert (m, l, p, kind) == self.request
        return self.basis


class TestProofChainNegativeControls:
    """Each chain check that reads the trial forms fails on a block that
    is not the first eigenform block."""

    @staticmethod
    def _failed(kind, p, dom, basis, names):
        """Whether the named checks fail on every form of basis."""
        rep = replay_proof_chain(kind, p, dom, _SwappedBlockCache(basis, dom.m, p))
        assert rep.details["sigma"] == str((p + 1) / dom.radius)
        return not any(rep.checks[f"{name}[{i}]"] for i in range(len(basis)) for name in names)

    @pytest.mark.parametrize("m, p, R", [(3, 1, Fraction(1)), (4, 2, Fraction(7, 3))])
    def test_second_coexact_block(self, cache, m, p, R):
        # l = 2: sigma_phi = (p+2)c, d phi is not parallel, and the normal
        # trace is (p+2)c J* phi, not (p+1)c J* phi
        dom = BallDomain(m, R)
        block = cache.get(m, 2, p, "H-normal-null")
        assert self._failed("sharp-bound", p, dom, block,
                            ["parallel-differential", "normal-trace-proportional"])
        assert self._failed("comparison", p, dom, block, ["eigenvalue-product"])

    @pytest.mark.parametrize("m, p, R", [(3, 1, Fraction(1)), (4, 2, Fraction(7, 3))])
    def test_closed_block(self, cache, m, p, R):
        # closed degree-1 fields: d phi = 0, so sigma_phi = 0
        dom = BallDomain(m, R)
        block = cache.get(m, 1, p, "H-closed")
        assert block
        assert self._failed("nonsharp", p, dom, block, ["strict-half-bound"])
        assert self._failed("comparison", p, dom, block, ["eigenvalue-product"])


def _in_mode(mode, *objects):
    """The objects with ``TrackedFloat`` coefficients in float mode, and
    the mode's tolerance."""
    if mode == "exact":
        return (*objects, 0)
    return (*(cli._FLOAT[type(o)](o) for o in objects), FLOAT_TOLERANCE)


def _doubled(monkeypatch, module, name):
    """Replace module.name by twice its value."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) * 2)


class TestIdentityNegativeControl:
    """Each identity decision fails when one term is mis-scaled: the
    exact decision and, where the verifier takes a tolerance, the float
    one.  Each check first passes on the same input."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_doubled_shape_term_fails(self, monkeypatch, p, mode):
        rng = rng_for(62, "doubled-shape", p)
        omega = random_form(rng, 3, p, 3)
        weight = WeightFunction.polynomial(random_polynomial(rng, 3, 3))
        tolerance = 0
        if mode == "float":
            omega, weight, tolerance = _float_form(omega), _float_weight(weight), FLOAT_TOLERANCE
        assert verify_weighted_reilly(weight, omega, DOM3, tolerance).passed
        real = identities.b_term_pairs

        def doubled(form, domain):
            return [(2 * s, a, b) for s, a, b in real(form, domain)]
        monkeypatch.setattr(identities, "b_term_pairs", doubled)
        rep = verify_weighted_reilly(weight, omega, DOM3, tolerance)
        assert not rep.passed
        assert rep.residual != 0

    @staticmethod
    def _fails(verify, monkeypatch, module, name, *args):
        """verify(*args) passes, then fails with a nonzero residual once
        module.name returns twice its value."""
        assert verify(*args).passed
        _doubled(monkeypatch, module, name)
        rep = verify(*args)
        assert not rep.passed
        assert rep.residual != 0

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_doubled_boundary_integral_fails_stokes(self, monkeypatch, p, mode):
        # Stokes' one sphere integral, doubled through the domain's seam
        rng = rng_for(63, "stokes-boundary", p)
        phi, psi, tolerance = _in_mode(mode, random_form(rng, 3, p, 3),
                                       random_form(rng, 3, p + 1, 3))
        self._fails(verify_stokes, monkeypatch, BallDomain, "boundary",
                    phi, psi, DOM3, tolerance)

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_doubled_jacobian_fails_pohozhaev(self, monkeypatch, p, mode):
        rng = rng_for(64, "poh-jacobian", p)
        F, phi, tolerance = _in_mode(mode, random_vector_field(rng, 3, 2),
                                     random_form(rng, 3, p, 3))
        self._fails(verify_pohozhaev, monkeypatch, identities, "gradient_action",
                    F, phi, DOM3, tolerance)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_doubled_boundary_laplacian_fails_function_reilly(self, monkeypatch, mode):
        # lap^S u, read from the boundary codifferential of du
        rng = rng_for(65, "fn-boundary")
        weight, u, tolerance = _in_mode(
            mode, WeightFunction.polynomial(random_polynomial(rng, 3, 2)),
            random_polynomial(rng, 3, 3))
        self._fails(verify_function_reilly, monkeypatch, identities, "boundary_delta_rep",
                    weight, u, DOM3, tolerance)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_doubled_shape_term_fails_unweighted_reilly(self, monkeypatch, p, mode):
        rng = rng_for(66, "unweighted-shape", p)
        omega, tolerance = _in_mode(mode, random_form(rng, 3, p, 3))
        assert verify_unweighted_reilly(omega, DOM3, tolerance).passed
        real = identities.b_term_pairs
        monkeypatch.setattr(identities, "b_term_pairs", lambda form, domain: [
            (2 * s, a, b) for s, a, b in real(form, domain)])
        rep = verify_unweighted_reilly(omega, DOM3, tolerance)
        assert not rep.passed
        assert rep.residual != 0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_doubled_gradient_action_fails_product_rule(self, monkeypatch, p):
        rng = rng_for(67, "product-rule", p)
        F, w = random_vector_field(rng, 3, 2), random_form(rng, 3, p, 2)
        assert identities.product_rule_residual(F, w)
        _doubled(monkeypatch, identities, "gradient_action")
        assert not identities.product_rule_residual(F, w)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_doubled_normal_part_fails_pullback_split(self, monkeypatch, p):
        w = random_form(rng_for(68, "split", p), 3, p, 2)
        assert identities.pullback_split_residual(w, DOM3) == 0
        _doubled(monkeypatch, identities, "normal_part")
        assert identities.pullback_split_residual(w, DOM3) != 0

    @pytest.mark.parametrize("p", [0, 1])
    def test_doubled_boundary_codifferential_fails_adjointness(self, monkeypatch, p):
        rng = rng_for(69, "adjoint", p)
        alpha, beta = random_form(rng, 3, p, 2), random_form(rng, 3, p + 1, 2)
        assert identities.boundary_adjointness_residual(alpha, beta, DOM3) == 0
        _doubled(monkeypatch, identities, "boundary_delta_rep")
        assert identities.boundary_adjointness_residual(alpha, beta, DOM3) != 0


# ---------------------------------------------------------------------------
# Property tests: exact residuals over drawn dimensions, degrees and radii.
# ---------------------------------------------------------------------------

def _rationalised(form: PolyForm, rng) -> PolyForm:
    """The form with each coefficient divided by 1..5, so that both the
    int and the Fraction coefficient paths run."""
    return PolyForm(form.m, form.p, {
        I: Polynomial(form.m, {e: Fraction(c, rng.randint(1, 5))
                               for e, c in poly.terms.items()})
        for I, poly in form.coeffs.items()})


@st.composite
def identity_cases(draw, p_range):
    """(m, p, domain, degree, rng, rational) with p drawn from
    ``p_range(m)``, R in [1/7, 7] and polynomial degree <= 3."""
    m = draw(st.integers(2, 4))
    lo, hi = p_range(m)
    p = draw(st.integers(lo, hi))
    R = draw(st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7))
    degree = draw(st.integers(0, 3))
    rng = rng_for(draw(st.integers(0, 2 ** 32)), "hypothesis-identities")
    return m, p, BallDomain(m, R), degree, rng, draw(st.booleans())


def _drawn_form(rng, m, p, degree, rational) -> PolyForm:
    form = random_form(rng, m, p, degree)
    return _rationalised(form, rng) if rational else form


class TestIdentitiesProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=identity_cases(lambda m: (0, m)))
    def test_weighted_reilly(self, case):
        m, p, dom, degree, rng, rational = case
        omega = _drawn_form(rng, m, p, degree, rational)
        poly = _drawn_form(rng, m, 0, degree, rational).coefficient(())
        rep = verify_weighted_reilly(WeightFunction.polynomial(poly), omega, dom)
        assert rep.passed and rep.residual == 0, (m, p, dom.radius, rep.terms)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=identity_cases(lambda m: (0, m - 1)))
    def test_stokes(self, case):
        m, p, dom, degree, rng, rational = case
        phi = _drawn_form(rng, m, p, degree, rational)
        psi = _drawn_form(rng, m, p + 1, degree, rational)
        rep = verify_stokes(phi, psi, dom)
        assert rep.passed and rep.residual == 0, (m, p, dom.radius, rep.terms)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=identity_cases(lambda m: (0, m - 1)))
    def test_pohozhaev(self, case):
        m, p, dom, degree, rng, rational = case
        phi = _drawn_form(rng, m, p, degree, rational)
        F = PolyVectorField([_drawn_form(rng, m, 0, min(degree, 2), rational).coefficient(())
                             for _ in range(m)])
        rep = verify_pohozhaev(F, phi, dom)
        assert rep.passed and rep.residual == 0, (m, p, dom.radius, rep.terms)
