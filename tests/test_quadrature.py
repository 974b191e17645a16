"""Exact sphere/ball moments against closed values and the MC oracle."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densities import whole_array_mc_oracle
from formlab.polynomials import Polynomial
from formlab.quadrature import (MC_BLOCK, MC_DRAW_CHUNK, RadialDensity,
                                integrate_ball, integrate_pairs, integrate_sphere,
                                mc_oracle, sphere_average, unit_sphere_measure)
from formlab.sampling import random_density, random_polynomial, rng_for


def poly_x1sq(m=3):
    x1 = Polynomial.variable(m, 1)
    return x1 * x1


class TestSphereAverage:
    def test_quadratic_by_symmetry(self):
        assert sphere_average((2, 0, 0)) == Fraction(1, 3)

    def test_quartic(self):
        assert sphere_average((4, 0, 0)) == Fraction(1, 5)

    def test_mixed(self):
        assert sphere_average((2, 2, 0)) == Fraction(1, 15)

    def test_odd_vanishes(self):
        assert sphere_average((1, 2, 0)) == 0

    def test_sum_of_squares_is_one(self):
        for m in (2, 3, 4, 5):
            total = sum(sphere_average(tuple(2 * int(i == j) for i in range(m)))
                        for j in range(m))
            assert total == 1

    def test_monte_carlo_agreement(self):
        # quartic and mixed averages against the stochastic oracle
        for expo in ((4, 0, 0), (2, 2, 0)):
            terms = {expo: Fraction(1)}
            dens = RadialDensity(3, {0: Polynomial(3, terms)})
            est, err = mc_oracle(dens, 1, 10 ** 6, seed=101, region="sphere")
            exact = float(sphere_average(expo)) * unit_sphere_measure(3)
            assert abs(est - exact) <= 3 * err


class TestIntegrateSphere:
    def test_total_measure(self):
        got = integrate_sphere(RadialDensity(3, {0: 1}), 1)
        assert got == 1

    def test_quadratic_density(self):
        got = integrate_sphere(RadialDensity(3, {0: poly_x1sq()}), 1)
        assert got == Fraction(1, 3)

    def test_radial_factor_and_area_scaling(self):
        dens = RadialDensity(3, {2: Polynomial.one(3)})
        got = integrate_sphere(dens, 2)
        assert got == 16  # R^2 * R^2 area scaling


class TestIntegrateBall:
    def test_volume(self):
        got = integrate_ball(RadialDensity(3, {0: 1}), 1)
        assert got == Fraction(1, 3)
        assert abs(float(got) * unit_sphere_measure(3) - 4 * math.pi / 3) < 1e-12

    def test_radial_separation(self):
        got = integrate_ball(RadialDensity(3, {0: poly_x1sq()}), 1)
        assert got == Fraction(1, 15)

    def test_negative_radial_exponent(self):
        dens = RadialDensity(3, {-1: poly_x1sq()})
        assert integrate_ball(dens, 1) == Fraction(1, 12)

    def test_non_integrable_rejected(self):
        dens = RadialDensity(3, {-3: Polynomial.one(3)})
        with pytest.raises(ValueError):
            integrate_ball(dens, 1)

    def test_radial_exponent_floor(self):
        with pytest.raises(ValueError):
            RadialDensity(3, {-4: Polynomial.one(3)})


class TestHomogeneityAndLinearity:
    def test_radius_homogeneity(self):
        rng = rng_for(20, "homogeneity")
        for _ in range(5):
            m = rng.randint(2, 4)
            d = rng.randint(0, 3)
            from formlab.polynomials import monomial_exponents
            expo = rng.choice(monomial_exponents(m, d))
            dens = RadialDensity(m, {0: Polynomial(m, {expo: Fraction(1)})})
            R = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            ball_1 = integrate_ball(dens, 1)
            assert integrate_ball(dens, R) == R ** (d + m) * ball_1
            sph_1 = integrate_sphere(dens, 1)
            assert integrate_sphere(dens, R) == R ** (d + m - 1) * sph_1

    def test_linearity(self):
        rng = rng_for(21, "linearity")
        m = 3
        d1 = random_density(rng, m, 3, min_exponent=-1)
        d2 = random_density(rng, m, 3, min_exponent=-1)
        total = RadialDensity(m, {j: d1.parts.get(j, 0) + d2.parts.get(j, 0)
                                  for j in d1.parts.keys() | d2.parts.keys()})
        assert integrate_ball(total, 1) == \
            integrate_ball(d1, 1) + integrate_ball(d2, 1)

    @pytest.mark.parametrize("R", [1, Fraction(1, 2), Fraction(7, 3)])
    def test_polynomial_matches_density_path(self, R):
        rng = rng_for(24, "polynomial-path")
        for m in (2, 3, 4):
            q = random_polynomial(rng, m, 4)
            dens = RadialDensity(m, {0: q})
            assert integrate_sphere(q, R) == integrate_sphere(dens, R)
            assert integrate_ball(q, R) == integrate_ball(dens, R)

    def test_positivity(self):
        # squares integrate to non-negative values
        rng = rng_for(22, "positivity")
        for _ in range(5):
            d = random_density(rng, 3, 2, min_exponent=0)
            # d = p0 + r p1, so d^2 = p0^2 + 2 r p0 p1 + r^2 p1^2
            p0, p1 = (d.parts.get(j, Polynomial.zero(3)) for j in (0, 1))
            sq = RadialDensity(3, {0: p0 * p0, 1: p0 * p1 * 2, 2: p1 * p1})
            assert integrate_ball(sq, 1) >= 0
            assert integrate_sphere(sq, 1) >= 0


def polynomials(m: int, max_exponent: int = 3):
    """Mixed-degree polynomials whose exponents are odd as well as even."""
    expos = st.tuples(*[st.integers(0, max_exponent)] * m)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(expos, coeffs, max_size=6).map(lambda t: Polynomial(m, t))


@st.composite
def weighted_pairs(draw):
    """(m, pairs, weight): one to three triples (s, a, b), the first with
    s = 1, and a weight that is the unit scalar, a rational, a polynomial,
    or a radial density with exponents from -1 to 1."""
    m = draw(st.sampled_from((2, 3, 4)))
    scalars = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    first = st.tuples(st.just(1), polynomials(m), polynomials(m))
    triples = st.tuples(scalars, polynomials(m), polynomials(m))
    pairs = [draw(first)] + draw(st.lists(triples, max_size=2))
    weight = draw(st.one_of(
        st.just(1), scalars, polynomials(m, 2),
        st.dictionaries(st.integers(-1, 1), polynomials(m, 2), max_size=3)
        .map(lambda parts: RadialDensity(m, parts))))
    return m, pairs, weight


def integral_of_terms(density: RadialDensity, R, region: str) -> Fraction:
    """The integral of a built density, monomial by monomial: the
    reference for the moment contraction, independent of it."""
    total = Fraction(0)
    for j, poly in density.parts.items():
        for expo, c in poly.terms.items():
            power = j + sum(expo) + density.m - (region == "sphere")
            if region == "ball" and power <= 0:
                raise ValueError("non-integrable")
            avg = sphere_average(expo)
            total += c * avg * R ** power / (power if region == "ball" else 1)
    return total


def _as_density(m, weight) -> RadialDensity:
    return weight if isinstance(weight, RadialDensity) else RadialDensity(m, {0: weight})


def times(density: RadialDensity, q: Polynomial) -> RadialDensity:
    """``density * q``, built part by part."""
    return RadialDensity(density.m, {j: P * q for j, P in density.parts.items()})


class TestSpherePairing:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(case=weighted_pairs(),
           R=st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(7, 3))),
           region=st.sampled_from(("sphere", "ball")))
    def test_equals_integral_of_product(self, case, R, region):
        m, pairs, weight = case
        _, a, b = pairs[0]
        got = integrate_pairs([(1, a, b)], R)
        assert isinstance(got, Fraction)
        assert got == integrate_sphere(a * b, R)

        product = Polynomial.zero(m)
        for s, a, b in pairs:
            product = product + a * b * s
        density = times(_as_density(m, weight), product)
        got = integrate_pairs(pairs, R, weight, region)
        assert isinstance(got, Fraction)
        assert got == integral_of_terms(density, R, region)
        integrate = integrate_ball if region == "ball" else integrate_sphere
        assert integrate(density, R) == got

    def test_non_integrable_pair_rejected_as_on_the_product(self):
        m = 2
        weight = RadialDensity(m, {-3: Polynomial.one(m)})
        one, x1 = Polynomial.one(m), Polynomial.variable(m, 1)
        # r^-3 (power -1), and r^-3 x1 (power 0, odd moment): both rejected
        for a, b in ((one, one), (x1, one)):
            with pytest.raises(ValueError):
                integral_of_terms(times(weight, a * b), 1, "ball")
            with pytest.raises(ValueError):
                integrate_pairs([(1, a, b)], 1, weight, "ball")
            with pytest.raises(ValueError):
                integrate_ball(times(weight, a * b), 1)
        # r^-3 x1^2 (power 1) is integrable, and on the sphere nothing is rejected
        assert integrate_pairs([(1, x1, x1)], 1, weight, "ball") == \
            integral_of_terms(times(weight, x1 * x1), 1, "ball")
        assert integrate_pairs([(1, one, one)], 2, weight) == \
            integral_of_terms(weight, 2, "sphere")
        # a pair whose accumulated coefficient cancels is not rejected
        assert integrate_pairs([(1, one, one), (-1, one, one)], 1, weight, "ball") == 0

    def test_odd_pairs_vanish(self):
        x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
        assert integrate_pairs([(1, x1, x2 * x2)], 1) == 0
        assert integrate_pairs([(1, x1, x1)], Fraction(1, 2)) == \
            Fraction(1, 3) * Fraction(1, 2) ** 4

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            integrate_pairs([(1, Polynomial.variable(2, 1), Polynomial.variable(3, 1))], 1)


class TestMonteCarloOracle:
    def test_ball_volume(self):
        est, err = mc_oracle(RadialDensity(3, {0: 1}), 1, 10 ** 6, seed=7)
        assert abs(est - 4 * math.pi / 3) <= max(3 * err, 1e-9)

    def test_sphere_moment(self):
        est, err = mc_oracle(RadialDensity(3, {0: poly_x1sq()}), 1,
                             10 ** 6, seed=8, region="sphere")
        exact = unit_sphere_measure(3) / 3  # = 4 pi / 3
        assert abs(est - exact) <= 3 * err

    def test_seed_determinism(self):
        dens = random_density(rng_for(23, "mc"), 3, 3, min_exponent=-1)
        a = mc_oracle(dens, 1, 10 ** 4, seed=42)
        b = mc_oracle(dens, 1, 10 ** 4, seed=42)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_oracle(RadialDensity(3, {0: 1}), 1, 100, seed=1)

    @staticmethod
    def three_part_density(m, region, tag):
        # an r^0 part and two others, so that r and several powers of
        # each coordinate are taken
        rng = rng_for(29, tag, m, region)
        low = -1 if region == "ball" else -3
        return RadialDensity(m, {j: random_polynomial(rng, m, 3, density=0.3)
                                 for j in (low, 0, 1)})

    @pytest.mark.parametrize("region", ["ball", "sphere"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_same_bits_as_whole_array_evaluation(self, m, region):
        # 10^5 + 7 samples end in a partial block, and 250 000 take two
        # draw chunks
        assert (10 ** 5 + 7) % MC_BLOCK and 250_000 > MC_DRAW_CHUNK
        dens = self.three_part_density(m, region, "blocks")
        for samples in (10 ** 4, 10 ** 5 + 7, 250_000):
            for R in (Fraction(1), Fraction(7, 3)):
                seed = 1000 * m + samples % 1000
                assert mc_oracle(dens, R, samples, seed, region) == \
                    whole_array_mc_oracle(dens, R, samples, seed, region)

    def test_working_set_is_bounded(self):
        # numpy reports its buffers to tracemalloc; the bound holds the
        # draws (normals and uniforms) and the values of all n samples,
        # and 2 MB for the blocks
        m, n = 3, 10 ** 5
        dens = self.three_part_density(m, "ball", "memory")
        mc_oracle(dens, 1, 10 ** 4, seed=1)  # numpy and its modules load here
        tracemalloc.start()
        try:
            mc_oracle(dens, 1, n, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (m + 2) + 2 * 2 ** 20

    @pytest.mark.parametrize("radius", [-1, 0, Fraction(-1, 2), -0.5])
    def test_non_positive_radius_rejected(self, radius):
        dens = RadialDensity(3, {0: 1})
        with pytest.raises(ValueError, match="radius"):
            mc_oracle(dens, radius, 10 ** 4, seed=1)
        with pytest.raises(ValueError, match="radius"):
            integrate_ball(dens, radius)
        with pytest.raises(ValueError, match="radius"):
            integrate_sphere(dens, radius)
        one = Polynomial.one(3)
        with pytest.raises(ValueError, match="radius"):
            integrate_pairs([(1, one, one)], radius)


class TestRadialDensityAlgebra:
    def test_even_exponents_fold(self):
        dens = RadialDensity(3, {4: Polynomial.one(3)})
        assert set(dens.parts) == {0}
        r2 = Polynomial.radius_squared(3)
        assert dens.parts[0] == r2 * r2
