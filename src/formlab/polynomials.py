"""Sparse multivariate polynomials.

A polynomial in ``m`` variables is a map from exponent tuples to
coefficients.  Coefficients are exact rationals by default; the same
class works unchanged with ``float`` coefficients for the floating mode,
since every operation only uses ring arithmetic on the stored values.

Canonical form: zero coefficients are pruned eagerly; an exact
coefficient with denominator 1 is stored as its ``int`` numerator and
every other exact coefficient as a reduced ``fractions.Fraction``, so
integral products and sums (most of the work at small integer
coefficients) run as ``int`` arithmetic in C instead of ``Fraction``
arithmetic with a ``gcd`` per operation.  Floats (and float subclasses)
are stored as given.  Coefficients are multiplied, added and subtracted
here but never divided, since ``int / int`` would be a float.  Whenever
a deterministic order is needed terms are listed in graded
lexicographic order of their exponents.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

Exponents = tuple[int, ...]


def grlex_key(expo: Exponents) -> tuple:
    return (sum(expo), expo)


def monomial_exponents(m: int, degree: int) -> list[Exponents]:
    """All exponent tuples of the given total degree, grlex order."""
    out = []
    for bars in itertools.combinations(range(degree + m - 1), m - 1):
        expo = []
        prev = -1
        for b in bars:
            expo.append(b - prev - 1)
            prev = b
        expo.append(degree + m - 2 - prev)
        out.append(tuple(expo))
    return sorted(out, key=grlex_key)


def _canonical(terms: dict) -> dict:
    """Drop zero coefficients; store a denominator-1 ``Fraction`` as its
    ``int`` numerator."""
    clean = {}
    for expo, c in terms.items():
        if c == 0:
            continue
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        clean[expo] = c
    return clean


class Polynomial:
    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        checked = {}
        if terms:
            for expo, c in terms.items():
                expo = tuple(expo)
                if len(expo) != m or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo} for m={m}")
                checked[expo] = c
        self.m = m
        self.terms = _canonical(checked)

    @classmethod
    def _of(cls, m: int, terms: dict) -> "Polynomial":
        """Private constructor for terms whose exponent tuples are valid
        by construction (the results of ``+``, ``-``, ``*`` and
        ``partial``): canonical form without the exponent check."""
        self = object.__new__(cls)
        self.m = m
        self.terms = _canonical(terms)
        return self

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, m: int) -> "Polynomial":
        return cls(m)

    @classmethod
    def constant(cls, m: int, c) -> "Polynomial":
        return cls(m, {(0,) * m: c})

    @classmethod
    def one(cls, m: int) -> "Polynomial":
        return cls.constant(m, 1)

    @classmethod
    def variable(cls, m: int, k: int) -> "Polynomial":
        """The coordinate x_k, 1-based."""
        if not 1 <= k <= m:
            raise ValueError(f"variable index {k} out of range 1..{m}")
        expo = tuple(int(i == k - 1) for i in range(m))
        return cls(m, {expo: 1})

    @classmethod
    def radius_squared(cls, m: int) -> "Polynomial":
        return cls(m, {tuple(2 * int(i == j) for i in range(m)): 1 for j in range(m)})

    # -- ring structure -----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.m != self.m:
                raise ValueError("variable count mismatch")
            return other
        return Polynomial.constant(self.m, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Polynomial._of(self.m, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.m, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return Polynomial.zero(self.m)
            return Polynomial._of(self.m, {e: c * other for e, c in self.terms.items()})
        if other.m != self.m:
            raise ValueError("variable count mismatch")
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial._of(self.m, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.m == other.m and self.terms == other.terms
        return self.terms == Polynomial.constant(self.m, other).terms

    def __bool__(self):
        return bool(self.terms)

    __hash__ = None

    # -- calculus and structure ---------------------------------------
    def partial(self, k: int) -> "Polynomial":
        """d/dx_k, 1-based."""
        terms = {}
        i = k - 1
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            terms[ne] = terms.get(ne, 0) + c * e[i]
        return Polynomial._of(self.m, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, expo: Exponents):
        return self.terms.get(tuple(expo), 0)

    def evaluate(self, point):
        if len(point) != self.m:
            raise ValueError("point dimension mismatch")
        total = 0
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                if ei:
                    v = v * xi ** ei
            total = total + v
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{p}" if p > 1 else f"x{i + 1}"
                            for i, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)
