"""Boundary calculus on the sphere: normals, pullbacks, shape terms,
tangential operators, weight functions."""

from fractions import Fraction

import pytest

from densities import jstar_density, pairs_density
from formlab.ball import (BallDomain, WeightFunction, b_term_alternate_pairs,
                          b_term_pairs, boundary_delta_rep, canonical_weight,
                          normal_part, normal_split_residual)
from formlab.polynomials import Polynomial, monomial_exponents
from formlab.polyform import PolyForm, PolyVectorField
from formlab.cli import _float_poly
from formlab.identities import TrackedFloat
from formlab.quadrature import RadialDensity, integrate_pairs, integrate_sphere
from formlab.sampling import random_density, random_form, random_polynomial, rng_for
from forms import hodge_laplacian, volume

DOM3 = BallDomain(3, Fraction(1))


def x(k, m=3):
    return Polynomial.variable(m, k)


def sphere_int(density, dom):
    return integrate_sphere(density, dom.radius)


def trace_norm_sq(w, dom):
    """int_S |J* w|^2, integrated from its product density."""
    return sphere_int(jstar_density(w, w, dom), dom)


def b_density(w, dom):
    """B(w, w) as a pointwise density on the sphere."""
    return pairs_density(b_term_pairs(w, dom), dom.m)


class TestNormalField:
    def test_inner_normal_at_axis_point(self):
        N = DOM3.normal_field()
        assert [c.evaluate([1, 0, 0]) for c in N.components] == [-1, 0, 0]

    def test_unit_length_on_boundary(self):
        N = DOM3.normal_field()
        norm_sq = N.dot(N)
        # |N|^2 - 1 vanishes on the sphere
        assert sphere_int(norm_sq - Polynomial.one(3), DOM3) == 0
        sq_dev = (norm_sq - Polynomial.one(3)) * (norm_sq - Polynomial.one(3))
        assert sphere_int(sq_dev, DOM3) == 0

    def test_radius_two(self):
        dom = BallDomain(3, Fraction(2))
        N = dom.normal_field()
        assert [c.evaluate([0, 2, 0]) for c in N.components] == [0, -1, 0]

    def test_built_once_outside_fields(self):
        dom, twin = BallDomain(3, Fraction(2)), BallDomain(3, Fraction(2))
        assert dom.normal_field() is dom.normal_field()
        assert dom == twin and hash(dom) == hash(twin)
        assert repr(dom) == "BallDomain(m=3, radius=Fraction(2, 1))"


class TestIntegrationSeam:
    """``interior`` and ``boundary`` are ``integrate_pairs`` with the
    domain's radius and region, bit for bit."""

    @staticmethod
    def _case(rng, mode):
        pairs = [(rng.choice([1, -2, Fraction(3, 4)]), random_polynomial(rng, 3, 3),
                  random_polynomial(rng, 3, 3)) for _ in range(4)]
        density = random_density(rng, 3, 2, min_exponent=-1)
        weights = [random_polynomial(rng, 3, 2), density, Fraction(5, 3)]
        if mode == "float":
            pairs = [(s, _float_poly(a), _float_poly(b)) for s, a, b in pairs]
            weights = [_float_poly(weights[0]),
                       RadialDensity(3, {j: _float_poly(P) for j, P in density.parts.items()}),
                       TrackedFloat(5 / 3)]
        return pairs, weights

    @pytest.mark.parametrize("R", [1, Fraction(1, 2), Fraction(7, 3)])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_equals_integrate_pairs(self, R, mode):
        dom = BallDomain(3, R)
        pairs, weights = self._case(rng_for(70, "seam", str(R), mode), mode)
        for weight in weights:
            for got, region in ((dom.interior(pairs, weight), "ball"),
                                (dom.boundary(pairs, weight), "sphere")):
                want = integrate_pairs(pairs, R, weight, region)
                assert type(got) is type(want) and got == want, (region, weight)
                assert getattr(got, "magnitude", None) == getattr(want, "magnitude", None)
                assert got != 0
        assert dom.interior(pairs) == integrate_pairs(pairs, R, 1, "ball")
        assert dom.boundary(pairs) == integrate_pairs(pairs, R)


class TestNormalContraction:
    def test_one_form(self):
        got = normal_part(PolyForm.basis(3, (1,)), DOM3)
        assert got == PolyForm(3, 0, {(): -x(1)})

    def test_tangential_form_vanishes(self):
        w = PolyForm(3, 1, {(1,): x(2), (2,): -x(1)})
        assert w.interior(PolyVectorField.position(3)).is_zero()
        assert normal_part(w, DOM3).is_zero()

    def test_two_form_expansion(self):
        got = normal_part(PolyForm.basis(3, (1, 2)), DOM3)
        assert got == PolyForm(3, 1, {(2,): -x(1), (1,): x(2)})

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            normal_part(PolyForm.from_function(x(1)), DOM3)


class TestBoundaryInner:
    def test_constant_one_form(self):
        assert trace_norm_sq(PolyForm.basis(3, (1,)), DOM3) == Fraction(2, 3)

    def test_volume_pullback_full_measure(self):
        rep = volume(3).interior(PolyVectorField.position(3))
        assert trace_norm_sq(rep, DOM3) == 1  # |S^2| after normalisation

    def test_orthogonal_representatives(self):
        a, b = PolyForm.basis(3, (1,)), PolyForm.basis(3, (2,))
        assert sphere_int(jstar_density(a, b, DOM3), DOM3) == 0

    def test_pointwise_split(self):
        rng = rng_for(30, "split")
        for _ in range(6):
            m = rng.randint(2, 4)
            dom = BallDomain(m, Fraction(1))
            p = rng.randint(1, m)
            w = random_form(rng, m, p, 2)
            i_n = normal_part(w, dom)
            density = w.norm_sq() - jstar_density(w, w, dom) - i_n.norm_sq()
            assert sphere_int(density, dom) == 0


class TestBTerm:
    def test_unit_sphere_one_form(self):
        got = b_density(PolyForm.basis(3, (1,)), DOM3)
        assert got == Polynomial.one(3) + x(1) * x(1)

    def test_tangential_reduces_to_shape_term(self):
        w = PolyForm(3, 1, {(1,): x(2), (2,): -x(1)})
        got = b_density(w, DOM3)
        assert got == jstar_density(w, w, DOM3) * DOM3.curvature

    def test_radius_scaling(self):
        # every curvature factor halves at doubled radius: comparing at
        # corresponding boundary points x and 2x
        w = PolyForm.basis(3, (1,))
        dom2 = BallDomain(3, Fraction(2))
        b1 = b_density(w, DOM3)
        b2 = b_density(w, dom2)
        for pt in ([Fraction(1), 0, 0], [Fraction(3, 5), Fraction(4, 5), 0]):
            double = [2 * v for v in pt]
            assert b2.evaluate(double) * 2 == b1.evaluate(pt)

    def test_alternate_agrees_on_exact_forms(self):
        rng = rng_for(31, "balt")
        for _ in range(8):
            m = rng.randint(2, 4)
            dom = BallDomain(m, Fraction(rng.randint(1, 2)))
            p = rng.randint(1, m - 1)
            phi = random_form(rng, m, p, 3)
            w = phi.d()
            diff = b_density(w, dom) - pairs_density(b_term_alternate_pairs(w, dom), m)
            assert sphere_int(diff * diff, dom) == 0


class TestBoundaryOperators:
    def test_d_commutes_with_pullback(self):
        got = PolyForm(3, 1, {(1,): x(2)}).d()
        want = PolyForm(3, 2, {(1, 2): Polynomial.constant(3, -1)})
        assert trace_norm_sq(got - want, DOM3) == 0

    def test_d_squared_zero(self):
        f = random_polynomial(rng_for(32, "dd"), 3, 3)
        assert trace_norm_sq(PolyForm.from_function(f).d().d(), DOM3) == 0

    def test_delta_example_on_circle_harmonic(self):
        # delta^S of the pullback of dx1 on S^2 is the first spherical
        # harmonic scaled by the boundary dimension
        rep = boundary_delta_rep(PolyForm.basis(3, (1,)), DOM3)
        assert rep == PolyForm(3, 0, {(): x(1) * 2})

    def test_delta_delta_zero(self):
        rng = rng_for(33, "deltadelta")
        for _ in range(5):
            w = random_form(rng, 3, 2, 2)
            twice = boundary_delta_rep(boundary_delta_rep(w, DOM3), DOM3)
            assert trace_norm_sq(twice, DOM3) == 0

    def test_adjointness_gram(self):
        rng = rng_for(34, "adjoint")
        for m in (2, 3, 4):
            dom = BallDomain(m, Fraction(1))
            for p in range(1, m):
                alphas = [random_form(rng, m, p - 1, 2) for _ in range(2)]
                betas = [random_form(rng, m, p, 2) for _ in range(2)]
                for a in alphas:
                    for b in betas:
                        lhs = sphere_int(jstar_density(a.d(), b, dom), dom)
                        rhs = sphere_int(jstar_density(
                            a, boundary_delta_rep(b, dom), dom), dom)
                        assert lhs == rhs

    def test_coclosed_basis_killed(self, cache):
        for w in cache.get(3, 1, 1, "H-normal-null"):
            assert trace_norm_sq(boundary_delta_rep(w, DOM3), DOM3) == 0


class TestNormalSplitIdentity:
    def test_random_forms(self):
        rng = rng_for(35, "split-id")
        for m in (2, 3, 4):
            dom = BallDomain(m, Fraction(1))
            for p in range(1, m + 1):
                w = random_form(rng, m, p, 2)
                assert normal_split_residual(w, dom) == 0

    def test_constant_form(self):
        assert normal_split_residual(PolyForm.basis(3, (1, 2)), DOM3) == 0

    def test_radius_two(self):
        rng = rng_for(36, "split-id-R2")
        dom = BallDomain(3, Fraction(2))
        w = random_form(rng, 3, 1, 3)
        assert normal_split_residual(w, dom) == 0


class TestCanonicalWeight:
    def test_center_value(self):
        wf = canonical_weight(DOM3)
        assert wf.f.evaluate([0, 0, 0]) == Fraction(1, 2)

    def test_vanishes_on_boundary(self):
        wf = canonical_weight(DOM3)
        sq = wf.f * wf.f
        assert integrate_sphere(sq, DOM3.radius) == 0

    def test_unit_normal_derivative(self):
        for R in (Fraction(1), Fraction(2), Fraction(1, 3)):
            dom = BallDomain(3, R)
            wf = canonical_weight(dom)
            fn = wf.normal_derivative(dom)
            dev = fn - 1
            assert integrate_sphere(dev * dev, R) == 0

    def test_hessian_is_isotropic(self):
        dom = BallDomain(3, Fraction(2))
        wf = canonical_weight(dom)
        c = dom.curvature
        for a in range(3):
            for l in range(3):
                assert wf.hess[a][l] == (-c if a == l else 0)

    def test_laplacian(self):
        wf = canonical_weight(DOM3)
        assert wf.lap == 3

    def test_center_value_from_depth(self):
        # f(0) = rho_max - c rho_max^2 / 2 with rho_max = R
        for R in (Fraction(1), Fraction(3, 2)):
            dom = BallDomain(2, R)
            wf = canonical_weight(dom)
            c = dom.curvature
            assert wf.f.evaluate([0, 0]) == R - c * R * R / 2


class TestWeightFunction:
    def test_polynomial_weight_derivatives(self):
        f = x(1) * x(2) + x(3) * x(3)
        wf = WeightFunction.polynomial(f)
        assert wf.grad[0] == x(2)
        assert wf.lap == -2

    def test_constant_one(self):
        wf = WeightFunction.polynomial(Polynomial.one(3))
        assert all(g.is_zero() for g in wf.grad)
        assert wf.lap.is_zero()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_derivatives_match_the_form_calculus(self, m):
        rng = rng_for(37, "weight-derivatives", m)
        for _ in range(5):
            f = random_polynomial(rng, m, 4)
            wf = WeightFunction.polynomial(f)
            assert wf.lap == hodge_laplacian(PolyForm.from_function(f)).coefficient(())
            assert [list(row) for row in wf.hess] == \
                PolyVectorField.from_gradient(f).jacobian()

    @pytest.mark.parametrize("R", [1, Fraction(1, 2), Fraction(7, 3)])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_normal_derivative_of_homogeneous_weight(self, m, R):
        # Euler's identity: <grad f, -x/R> = -(k/R) f for f homogeneous of degree k
        rng = rng_for(38, "euler", m, str(R))
        dom = BallDomain(m, R)
        for k in range(4):
            terms = {e: rng.randint(1, 3) for e in monomial_exponents(m, k)
                     if rng.random() < 0.5} or {monomial_exponents(m, k)[0]: 1}
            f = Polynomial(m, terms)
            assert WeightFunction.polynomial(f).normal_derivative(dom) == f * (-k / dom.radius)
