"""Seeded random inputs for the verification suites.

Coefficients are small integers (|c| <= 3) so exact arithmetic stays
fast and any failure reproduces from the seed alone; polynomial
coefficients are drawn as plain ``int``, the canonical form of an
integral exact coefficient.  ``random.Random`` is used for its
cross-platform stability on integer draws.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exterior import ConstantForm, multi_indices
from .polynomials import Polynomial, monomial_exponents
from .polyform import PolyForm, PolyVectorField
from .quadrature import RadialDensity

MAX_COEFF = 3


def rng_for(seed: int, *context) -> random.Random:
    """Independent stream derived from the seed and a context tuple."""
    return random.Random((seed, *context).__repr__())


def random_polynomial(rng: random.Random, m: int, max_degree: int,
                      density: float = 0.4) -> Polynomial:
    terms = {}
    for d in range(max_degree + 1):
        for e in monomial_exponents(m, d):
            if rng.random() < density:
                c = rng.randint(-MAX_COEFF, MAX_COEFF)
                if c:
                    terms[e] = c
    if not terms:
        terms[(0,) * m] = rng.randint(1, MAX_COEFF)
    return Polynomial(m, terms)


def random_form(rng: random.Random, m: int, p: int, max_degree: int,
                density: float = 0.4) -> PolyForm:
    coeffs = {I: random_polynomial(rng, m, max_degree, density)
              for I in multi_indices(m, p)}
    return PolyForm(m, p, coeffs)


def random_vector_field(rng: random.Random, m: int, max_degree: int) -> PolyVectorField:
    return PolyVectorField([random_polynomial(rng, m, max_degree)
                            for _ in range(m)])


def random_constant_form(rng: random.Random, m: int, p: int) -> ConstantForm:
    coeffs = {}
    for I in multi_indices(m, p):
        c = rng.randint(-MAX_COEFF, MAX_COEFF)
        if c:
            coeffs[I] = Fraction(c)
    if not coeffs:
        coeffs[multi_indices(m, p)[0]] = Fraction(1)
    return ConstantForm(m, p, coeffs)


def random_vector(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    v = [Fraction(rng.randint(-MAX_COEFF, MAX_COEFF)) for _ in range(m)]
    if all(c == 0 for c in v):
        v[rng.randrange(m)] = Fraction(1)
    return tuple(v)


def random_admissible_hessian(rng: random.Random, m: int, c: Fraction,
                              eps: Fraction) -> list[list[Fraction]]:
    """The rows of a Hessian with -H >= (c - eps) Id by construction:
    -H = (c - eps) Id + B^T B with small integer B."""
    B = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
    return [[-((c - eps) * int(i == j) + sum(B[k][i] * B[k][j] for k in range(m)))
             for j in range(m)] for i in range(m)]


def random_density(rng: random.Random, m: int, max_degree: int,
                   min_exponent: int = -2) -> RadialDensity:
    """Random radial density with exponents in [min_exponent, 1]."""
    parts = {}
    for j in range(min_exponent, 2):
        if rng.random() < 0.5:
            parts[j] = random_polynomial(rng, m, max_degree, density=0.3)
    if not parts:
        parts[0] = random_polynomial(rng, m, max_degree, density=0.5)
    return RadialDensity(m, parts)
