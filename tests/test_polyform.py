"""Flat-space calculus on polynomial forms."""

from fractions import Fraction

import pytest

from densities import pairs_density
from formlab.identities import _gradient_pairs
from formlab.polynomials import Polynomial
from formlab.cli import _float_form
from formlab.polyform import PolyForm, PolyVectorField, gradient_action
from formlab.sampling import (random_form, random_polynomial,
                              random_vector_field, rng_for)
from forms import covariant_gradient, hodge_laplacian, homogeneous_parts, volume
from oracle import unit_vector_delta


def x(m, k):
    return Polynomial.variable(m, k)


class TestPolynomialConstructor:
    def test_outside_input_is_checked(self):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Polynomial(2, {(-1, 0): 1})

    def test_operations_keep_the_canonical_form(self):
        # results go through the private constructor: zeros dropped,
        # denominator-1 fractions stored as ints, exponents as tuples
        a = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): 1})
        b = Polynomial(2, {(1, 0): Fraction(-1, 2), (0, 0): Fraction(3)})
        assert (a + b).terms == {(0, 1): 1, (0, 0): 3}
        assert type((a * 2).terms[(1, 0)]) is int
        assert (a - a).terms == {} and (a * 0).terms == {}
        assert (a * b).partial(1).terms == {(1, 0): Fraction(-1, 2), (0, 1): Fraction(-1, 2),
                                            (0, 0): Fraction(3, 2)}


class TestPolyFormConstructor:
    def test_outside_input_is_checked(self):
        for p, I in ((1, (4,)), (2, (2, 1)), (2, (1, 1)), (2, (1,))):
            with pytest.raises(ValueError, match="bad multi-index"):
                PolyForm(3, p, {I: 1})

    def test_calculus_results_drop_zero_coefficients(self):
        w = PolyForm(3, 1, {(1,): x(3, 1), (2,): x(3, 3) * x(3, 3)})
        assert (w - w).coeffs == {} and (w * 0).coeffs == {}
        assert w.d() == PolyForm(3, 2, {(2, 3): x(3, 3) * (-2)})
        assert set(w.partial(1).coeffs) == {(1,)}
        assert w.interior([0, 0, 1]).coeffs == {}


class TestExteriorDerivative:
    def test_single_term(self):
        w = PolyForm(3, 1, {(1,): x(3, 2)})
        assert w.d() == PolyForm(3, 2, {(1, 2): Polynomial.constant(3, -1)})

    def test_exact_closedness(self):
        assert PolyForm(3, 1, {(1,): x(3, 1)}).d().is_zero()

    def test_rotational(self):
        w = PolyForm(3, 1, {(2,): x(3, 1), (1,): -x(3, 2)})
        assert w.d() == PolyForm(3, 2, {(1, 2): Polynomial.constant(3, 2)})

    def test_top_degree_rejected(self):
        with pytest.raises(ValueError):
            volume(3).d()

    def test_dd_zero_random(self):
        rng = rng_for(10, "ddzero")
        for _ in range(10):
            m = rng.randint(2, 4)
            p = rng.randint(0, m - 2)
            w = random_form(rng, m, p, 3)
            assert w.d().d().is_zero()


class TestCodifferential:
    def test_sign_convention(self):
        assert PolyForm(3, 1, {(1,): x(3, 1)}).delta() == \
            PolyForm(3, 0, {(): Polynomial.constant(3, -1)})

    def test_mixed_term(self):
        assert PolyForm(3, 1, {(1,): x(3, 2)}).delta().is_zero()

    def test_two_form_divergence(self):
        # componentwise divergence: no x2/x3 dependence in the coefficient
        assert PolyForm(3, 2, {(2, 3): x(3, 1)}).delta().is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            PolyForm.from_function(x(3, 1)).delta()

    def test_delta_delta_zero_random(self):
        rng = rng_for(11, "deldel")
        for _ in range(10):
            m = rng.randint(2, 4)
            p = rng.randint(2, m)
            w = random_form(rng, m, p, 3)
            assert w.delta().delta().is_zero()

    @staticmethod
    def _layout(form):
        """Keys, exponents, values and coefficient types in dict order, with
        the tracked magnitude of a float coefficient."""
        return [(I, [(e, type(c), c, getattr(c, "magnitude", None))
                     for e, c in poly.terms.items()])
                for I, poly in form.coeffs.items()]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_equals_the_unit_vector_reference(self, m):
        # exact forms mix int and Fraction coefficients, and their
        # TrackedFloat copies must round the same sums in the same order
        rng = rng_for(11, "delta-reference", m)
        for p in range(1, m + 1):
            for _ in range(2):
                w = random_form(rng, m, p, 3 if m <= 4 else 2) \
                    + random_form(rng, m, p, 2, density=0.2) * Fraction(1, 3)
                for form in (w, _float_form(w)):
                    got, ref = form.delta(), unit_vector_delta(form)
                    assert got == ref
                    assert self._layout(got) == self._layout(ref)


class TestLaplacian:
    def test_function_convention(self):
        f = Polynomial.radius_squared(3)
        assert hodge_laplacian(PolyForm.from_function(f)) == \
            PolyForm(3, 0, {(): Polynomial.constant(3, -6)})

    def test_linear_coefficients_harmonic(self):
        assert hodge_laplacian(PolyForm(3, 1, {(2,): x(3, 1)})).is_zero()

    def test_harmonic_quadratic(self):
        f = x(3, 1) * x(3, 1) - x(3, 2) * x(3, 2)
        assert hodge_laplacian(PolyForm.from_function(f)).is_zero()

    def test_flat_bochner_is_componentwise(self):
        # Hodge Laplacian equals minus the componentwise Laplacian
        rng = rng_for(12, "bochner")
        for _ in range(10):
            m = rng.randint(2, 4)
            p = rng.randint(0, m)
            w = random_form(rng, m, p, 4)
            rough = PolyForm.zero(m, p)
            for k in range(1, m + 1):
                rough = rough + w.partial(k).partial(k)
            assert hodge_laplacian(w) == -rough


class TestRoughLaplacian:
    def test_is_minus_the_hodge_laplacian(self):
        rng = rng_for(13, "rough-laplacian")
        for m in (2, 3, 4):
            for p in range(m + 1):
                for degree in (2, 4):
                    w = random_form(rng, m, p, degree) * Fraction(1, 3)
                    assert w.rough_laplacian() == -hodge_laplacian(w)

    def test_builds_no_polynomial_sums(self, monkeypatch):
        w = random_form(rng_for(14, "rough-laplacian"), 4, 2, 3)
        want = -hodge_laplacian(w)

        def no_add(*args):
            raise AssertionError("Polynomial.__add__ called")
        monkeypatch.setattr(Polynomial, "__add__", no_add)
        monkeypatch.setattr(Polynomial, "__radd__", no_add)
        assert w.rough_laplacian() == want


class TestCovariantGradient:
    def test_single_derivative(self):
        w = PolyForm(3, 1, {(2,): x(3, 1)})
        grads = covariant_gradient(w)
        assert grads[0] == PolyForm(3, 1, {(2,): Polynomial.one(3)})
        assert grads[1].is_zero() and grads[2].is_zero()

    def test_parallel_form(self):
        w = PolyForm.basis(3, (1, 3))
        assert all(g.is_zero() for g in covariant_gradient(w))

    def test_product_rule(self):
        w = PolyForm(3, 1, {(1,): x(3, 1) * x(3, 2)})
        grads = covariant_gradient(w)
        assert grads[0] == PolyForm(3, 1, {(1,): x(3, 2)})
        assert grads[1] == PolyForm(3, 1, {(1,): x(3, 1)})
        assert grads[2].is_zero()

    def test_gradient_norm_matches_components(self):
        rng = rng_for(13, "gradnorm")
        w = random_form(rng, 3, 2, 3)
        total = Polynomial.zero(3)
        for g in covariant_gradient(w):
            total = total + g.norm_sq()
        assert pairs_density(_gradient_pairs(w), 3) == total


class TestInteriorField:
    def test_position_field(self):
        w = PolyForm.basis(3, (1, 2))
        got = w.interior(PolyVectorField.position(3))
        assert got == PolyForm(3, 1, {(2,): x(3, 1), (1,): -x(3, 2)})

    def test_constant_field(self):
        w = PolyForm.basis(3, (1,))
        assert w.interior(PolyVectorField.constant(3, [1, 0, 0])) == \
            PolyForm(3, 0, {(): Polynomial.one(3)})

    def test_zero_field(self):
        w = PolyForm.basis(3, (1, 2))
        assert w.interior(PolyVectorField.zero(3)).is_zero()


class TestGradientAction:
    def test_position_field_gives_degree(self):
        rng = rng_for(14, "euler-lift")
        for p in (1, 2, 3):
            w = random_form(rng, 3, p, 2)
            assert gradient_action(PolyVectorField.position(3), w) == w * Fraction(p)

    def test_constant_field_gives_zero(self):
        w = PolyForm.basis(3, (1, 2))
        F = PolyVectorField.constant(3, [2, -1, 3])
        assert gradient_action(F, w).is_zero()

    def test_quadratic_potential(self):
        # grad(|x|^2/2) = x, its Jacobian is the identity: 2-forms scale by 2
        f = Polynomial.radius_squared(3) * Fraction(1, 2)
        F = PolyVectorField.from_gradient(f)
        w = PolyForm.basis(3, (1, 2))
        assert gradient_action(F, w) == w * Fraction(2)


class TestDirectionalDerivative:
    def test_constant_direction(self):
        w = PolyForm(3, 1, {(2,): x(3, 1)})
        F = PolyVectorField.constant(3, [1, 0, 0])
        assert w.deriv_along(F) == PolyForm.basis(3, (2,))

    def test_euler_identity(self):
        rng = rng_for(15, "euler")
        for _ in range(5):
            m = rng.randint(2, 4)
            p = rng.randint(0, m)
            w = random_form(rng, m, p, 3)
            pos = PolyVectorField.position(m)
            expected = PolyForm.zero(m, p)
            for deg, part in homogeneous_parts(w).items():
                expected = expected + part * Fraction(deg)
            assert w.deriv_along(pos) == expected

    def test_zero_field(self):
        w = PolyForm(3, 2, {(1, 2): x(3, 3)})
        assert w.deriv_along(PolyVectorField.zero(3)).is_zero()


class TestPointwiseLemmas:
    def test_interior_derivative_product_rule(self):
        # d(i_F w) = -i_F(dw) + grad_F w + (nabla F)(w)
        rng = rng_for(16, "prop-product")
        for _ in range(8):
            m = rng.randint(2, 4)
            p = rng.randint(1, m - 1)
            w = random_form(rng, m, p, 3)
            F = random_vector_field(rng, m, 2)
            lhs = w.interior(F).d()
            rhs = -(w.d().interior(F)) + w.deriv_along(F) + gradient_action(F, w)
            assert (lhs - rhs).is_zero()

    def test_weighted_wedge_expansion(self):
        # delta(df ^ w) = (lap f) w - grad_{grad f} w + Hess f(w) - df ^ delta w
        rng = rng_for(17, "prop-expansion")
        for _ in range(8):
            m = rng.randint(2, 4)
            p = rng.randint(1, m - 1)
            w = random_form(rng, m, p, 3)
            f = random_polynomial(rng, m, 3)
            df = PolyVectorField.from_gradient(f).dual_one_form()
            lhs = df.wedge(w).delta()
            lap_f = hodge_laplacian(PolyForm.from_function(f)).coefficient(())
            rhs = (w * lap_f - w.deriv_along(PolyVectorField.from_gradient(f))
                   + w.lift_by(PolyVectorField.from_gradient(f).jacobian())
                   - df.wedge(w.delta()))
            assert (lhs - rhs).is_zero()

    def test_weighted_codifferential(self):
        # delta(f w) = -i_{grad f} w + f delta w
        rng = rng_for(18, "prop-weighted")
        for _ in range(8):
            m = rng.randint(2, 4)
            p = rng.randint(1, m)
            w = random_form(rng, m, p, 3)
            f = random_polynomial(rng, m, 3)
            fw = PolyForm(m, p, {I: c * f for I, c in w.coeffs.items()})
            delta_w = w.delta()
            rhs = -w.interior(PolyVectorField.from_gradient(f)) + \
                PolyForm(m, p - 1, {I: c * f for I, c in delta_w.coeffs.items()})
            assert (fw.delta() - rhs).is_zero()


def test_homogeneous_parts_roundtrip():
    rng = rng_for(19, "homog")
    w = random_form(rng, 3, 1, 4)
    total = PolyForm.zero(3, 1)
    for part in homogeneous_parts(w).values():
        total = total + part
    assert total == w
