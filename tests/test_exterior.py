"""Pointwise exterior algebra: wedge, interior, star, inner, lifts."""

from fractions import Fraction

import pytest

from formlab.exterior import (ConstantForm, LinearEndomorphism, multi_indices,
                              sort_with_sign, star_index)
from formlab.sampling import (random_constant_form, random_vector, rng_for)


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
        T = LinearEndomorphism.diagonal([Fraction(5), Fraction(7), Fraction(11)])
        assert T.lift(basis(3, 1, 2)) == basis(3, 1, 2) * Fraction(12)

    def test_identity_gives_degree(self):
        rng = rng_for(5, "lift-id")
        for _ in range(8):
            m = rng.randint(2, 4)
            p = rng.randint(1, m)
            a = random_constant_form(rng, m, p)
            assert LinearEndomorphism.diagonal([Fraction(1)] * m).lift(a) == a * Fraction(p)

    def test_degree_zero_convention(self):
        T = LinearEndomorphism.diagonal([Fraction(1)] * 3)
        f = ConstantForm(3, 0, {(): Fraction(4)})
        assert T.lift(f).is_zero()

    def test_diagonal_eigenvalues_are_index_sums(self):
        diag = [Fraction(2), Fraction(-1), Fraction(3), Fraction(5)]
        T = LinearEndomorphism.diagonal(diag)
        for p in range(1, 5):
            for I in multi_indices(4, p):
                expected = sum(diag[i - 1] for i in I)
                assert T.lift(basis(4, *I)) == basis(4, *I) * expected

    def test_linearity_in_tensor_and_form(self):
        rng = rng_for(6, "lift-lin")
        for _ in range(6):
            m = rng.randint(2, 4)
            p = rng.randint(1, m)
            a = random_constant_form(rng, m, p)
            b = random_constant_form(rng, m, p)
            T1 = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
            T2 = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
            S = LinearEndomorphism([[T1[i][j] + T2[i][j] for j in range(m)]
                                    for i in range(m)])
            assert S.lift(a) == LinearEndomorphism(T1).lift(a) + LinearEndomorphism(T2).lift(a)
            assert LinearEndomorphism(T1).lift(a + b) == \
                LinearEndomorphism(T1).lift(a) + LinearEndomorphism(T1).lift(b)


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
