"""Pointwise exterior algebra: wedge, interior, star, inner, lifts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlab.exterior import ConstantForm, multi_indices, sort_with_sign, star_index
from formlab.polyform import PolyForm
from formlab.polynomials import Polynomial
from formlab.sampling import (random_constant_form, random_vector, rng_for)

from forms import diag


def basis(m, *I):
    return ConstantForm.basis(m, I)


class TestWedge:
    def test_basis_product(self):
        assert basis(3, 1).wedge(basis(3, 2)) == basis(3, 1, 2)

    def test_anticommutativity(self):
        assert basis(3, 2).wedge(basis(3, 1)) == -basis(3, 1, 2)

    def test_linearity_and_nilpotence(self):
        a = basis(3, 1) + basis(3, 2)
        assert a.wedge(basis(3, 1)) == -basis(3, 1, 2)

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            basis(2, 1, 2).wedge(basis(2, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            basis(2, 1).wedge(basis(3, 2))

    def test_associativity_random(self):
        rng = rng_for(1, "assoc")
        for _ in range(10):
            m = rng.randint(2, 4)
            a = random_constant_form(rng, m, 1)
            b = random_constant_form(rng, m, 1)
            c = random_constant_form(rng, m, min(1, m - 2)) if m >= 3 else None
            if c is None:
                continue
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


class TestInterior:
    def test_basis_contraction(self):
        assert basis(3, 1, 2).interior([1, 0, 0]) == basis(3, 2)

    def test_absent_index(self):
        assert basis(3, 1, 2).interior([0, 0, 1]).is_zero()

    def test_sign_from_position(self):
        assert basis(3, 1, 2).interior([0, 1, 0]) == -basis(3, 1)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            ConstantForm(3, 0, {(): Fraction(1)}).interior([1, 0, 0])

    def test_nilpotence(self):
        rng = rng_for(2, "nilpotent")
        for _ in range(10):
            m = rng.randint(2, 4)
            p = rng.randint(2, m)
            a = random_constant_form(rng, m, p)
            X = random_vector(rng, m)
            assert a.interior(X).interior(X).is_zero()

    def test_antiderivation(self):
        rng = rng_for(3, "antiderivation")
        for _ in range(12):
            m = rng.randint(3, 4)
            pa = rng.randint(1, m - 1)
            pb = rng.randint(1, m - pa)
            a = random_constant_form(rng, m, pa)
            b = random_constant_form(rng, m, pb)
            X = random_vector(rng, m)
            lhs = a.wedge(b).interior(X)
            rhs = a.interior(X).wedge(b) + a.wedge(b.interior(X)) * Fraction((-1) ** pa)
            assert lhs == rhs


class TestStar:
    def test_orientation_m3(self):
        assert basis(3, 1).star() == basis(3, 2, 3)

    def test_volume_form(self):
        assert basis(3, 1, 2, 3).star() == ConstantForm(3, 0, {(): Fraction(1)})

    def test_double_star_m2(self):
        assert basis(2, 1).star().star() == -basis(2, 1)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_double_star_sign_all_bases(self, m):
        for p in range(m + 1):
            sign = (-1) ** (p * (m - p))
            for I in multi_indices(m, p):
                b = basis(m, *I)
                assert b.star().star() == b * Fraction(sign)

    def test_star_isometry(self):
        rng = rng_for(4, "star-iso")
        for _ in range(10):
            m = rng.randint(2, 4)
            p = rng.randint(0, m)
            a = random_constant_form(rng, m, p)
            assert a.star().norm_sq() == a.norm_sq()


class TestInner:
    def test_orthonormal_basis(self):
        assert basis(3, 1, 2).inner(basis(3, 1, 2)) == 1

    def test_distinct_basis_elements(self):
        assert basis(3, 1, 2).inner(basis(3, 1, 3)) == 0

    def test_bilinearity(self):
        assert (basis(3, 1) * Fraction(2)).inner(basis(3, 1) * Fraction(3)) == 6

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            basis(3, 1).inner(basis(3, 1, 2))


class TestTensorLift:
    def test_diagonal(self):
        T = diag([Fraction(5), Fraction(7), Fraction(11)])
        assert basis(3, 1, 2).lift_by(T) == basis(3, 1, 2) * Fraction(12)

    def test_identity_gives_degree(self):
        rng = rng_for(5, "lift-id")
        for _ in range(8):
            m = rng.randint(2, 4)
            p = rng.randint(1, m)
            a = random_constant_form(rng, m, p)
            assert a.lift_by(diag([Fraction(1)] * m)) == a * Fraction(p)

    def test_degree_zero_convention(self):
        f = ConstantForm(3, 0, {(): Fraction(4)})
        assert f.lift_by(diag([Fraction(1)] * 3)).is_zero()

    def test_diagonal_eigenvalues_are_index_sums(self):
        values = [Fraction(2), Fraction(-1), Fraction(3), Fraction(5)]
        T = diag(values)
        for p in range(1, 5):
            for I in multi_indices(4, p):
                expected = sum(values[i - 1] for i in I)
                assert basis(4, *I).lift_by(T) == basis(4, *I) * expected

    def test_linearity_in_tensor_and_form(self):
        rng = rng_for(6, "lift-lin")
        for _ in range(6):
            m = rng.randint(2, 4)
            p = rng.randint(1, m)
            a = random_constant_form(rng, m, p)
            b = random_constant_form(rng, m, p)
            T1 = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
            T2 = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
            S = [[T1[i][j] + T2[i][j] for j in range(m)] for i in range(m)]
            assert a.lift_by(S) == a.lift_by(T1) + a.lift_by(T2)
            assert (a + b).lift_by(T1) == a.lift_by(T1) + b.lift_by(T1)

    @pytest.mark.parametrize("cls", [ConstantForm, PolyForm])
    @pytest.mark.parametrize("rows, got", [
        ([[1, 0, 0, 9], [0, 1, 0, 9], [0, 0, 1, 9]], "3x4"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [9, 9, 9]], "4x3"),
        ([[1, 0], [0, 1]], "2x2"),
        ([[1, 0, 0], [0, 1], [0, 0, 1]], "3x2/3"),
    ], ids=["too-wide", "too-tall", "too-short", "ragged"])
    def test_matrix_not_m_by_m_is_rejected(self, cls, rows, got):
        # every degree, 0 included, checks the shape before lifting
        for p in range(4):
            w = cls.basis(3, tuple(range(1, p + 1)))
            with pytest.raises(ValueError, match=f"needs a 3x3 matrix, got {got}$"):
                w.lift_by(rows)


class TestAdjunction:
    def test_wedge_interior_adjoint_random(self):
        rng = rng_for(7, "adjunction")
        for _ in range(20):
            m = rng.randint(2, 4)
            q = rng.randint(1, m)
            phi = random_constant_form(rng, m, q)
            psi = random_constant_form(rng, m, q - 1)
            X = random_vector(rng, m)
            xform = ConstantForm(m, 1, {(k,): X[k - 1] for k in range(1, m + 1)
                                        if X[k - 1]})
            assert phi.inner(xform.wedge(psi)) == phi.interior(X).inner(psi)


def test_sort_with_sign_detects_repeats():
    assert sort_with_sign((2, 1, 3)) == (-1, (1, 2, 3))
    assert sort_with_sign((2, 2)) == (0, None)


def test_star_index_partition():
    sign, comp = star_index((1, 3), 4)
    assert comp == (2, 4)
    assert sign in (-1, 1)


# ---------------------------------------------------------------------------
# ConstantForm and PolyForm share one class body (exterior.FormBody).
# ---------------------------------------------------------------------------

_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _form_pairs(draw):
    """(m, a, b, c, s, X, T): constant forms a, b of one degree p and c of
    a degree that wedges with a, all at m = 2..4, a scalar s, a vector X
    and a matrix T, with small rational entries."""
    m = draw(st.integers(2, 4))
    p = draw(st.integers(0, m))
    q = draw(st.integers(0, m - p))

    def form(deg):
        idx = multi_indices(m, deg)
        return ConstantForm(m, deg, dict(zip(idx, draw(st.lists(
            _SMALL, min_size=len(idx), max_size=len(idx))))))

    vec = st.lists(_SMALL, min_size=m, max_size=m)
    return (m, form(p), form(p), form(q), draw(_SMALL), draw(vec),
            [draw(vec) for _ in range(m)])


def _as_poly(form: ConstantForm) -> PolyForm:
    return PolyForm(form.m, form.p, form.coeffs)


class TestSharedFormBody:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=_form_pairs())
    def test_constant_and_polynomial_forms_agree(self, case):
        m, a, b, c, s, X, T = case
        pa, pb, pc = _as_poly(a), _as_poly(b), _as_poly(c)
        assert pa + pb == _as_poly(a + b)
        assert pa - pb == _as_poly(a - b)
        assert -pa == _as_poly(-a)
        assert pa * s == _as_poly(a * s) == s * pa
        assert pa.wedge(pc) == _as_poly(a.wedge(c))
        assert pa.star() == _as_poly(a.star())
        assert pa.inner(pb) == Polynomial.constant(m, a.inner(b))
        assert pa.norm_sq() == Polynomial.constant(m, a.norm_sq())
        assert pa.lift_by(T) == _as_poly(a.lift_by(T))
        assert pa.is_zero() == a.is_zero()
        if a.p >= 1:
            assert pa.interior(X) == _as_poly(a.interior(X))

    @pytest.mark.parametrize("coeffs", [{}, {(1,): Fraction(1)}, {(2,): Fraction(-1, 2)}])
    def test_constant_form_never_equals_polynomial_form(self, coeffs):
        const, poly = ConstantForm(3, 1, coeffs), PolyForm(3, 1, coeffs)
        assert const != poly and poly != const
        assert const == ConstantForm(3, 1, coeffs) and poly == PolyForm(3, 1, coeffs)
        assert type(const + const) is ConstantForm and type(poly + poly) is PolyForm

    @pytest.mark.parametrize("cls", [ConstantForm, PolyForm])
    def test_constructors_reject_bad_indices_and_degrees(self, cls):
        for p, I in ((1, (4,)), (1, (0,)), (2, (2, 1)), (2, (1, 1)), (2, (1,))):
            with pytest.raises(ValueError, match="bad multi-index"):
                cls(3, p, {I: 1})
        for p in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                cls(3, p)
