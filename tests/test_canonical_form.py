"""Canonical form of exact coefficients, and exact linear algebra on it.

An exact coefficient with denominator 1 is stored as an ``int``, every
other one as a reduced ``Fraction``; float-mode coefficients pass
through untouched.  Linear algebra on int input must stay exact.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from formlab import linalg
from formlab.cli import _float_form
from formlab.exterior import multi_indices
from formlab.harmonic import KINDS, BasisCache
from formlab.identities import TrackedFloat
from formlab.polynomials import Polynomial
from formlab.polyform import PolyForm, PolyVectorField
from formlab.sampling import random_form, random_polynomial, rng_for
from oracle import dense_nullspace, dense_rref, rank, solve


def is_canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_canonical_poly(poly: Polynomial):
    assert all(is_canonical(c) for c in poly.terms.values()), poly.terms


def assert_canonical_form(form: PolyForm):
    for poly in form.coeffs.values():
        assert_canonical_poly(poly)


def rational_polynomial(rng, m, degree) -> Polynomial:
    """Small integers over denominators 1..3, so ints and proper
    fractions both occur."""
    base = random_polynomial(rng, m, degree)
    return Polynomial(m, {e: Fraction(c, rng.randint(1, 3)) for e, c in base.terms.items()})


def rational_form(rng, m, p, degree) -> PolyForm:
    return PolyForm(m, p, {I: rational_polynomial(rng, m, degree)
                           for I in multi_indices(m, p)})


class TestPolynomialCanonicalForm:
    def test_constructors_store_ints(self):
        for poly in (Polynomial.one(3), Polynomial.variable(3, 2),
                     Polynomial.radius_squared(3), Polynomial.constant(3, Fraction(4, 2))):
            assert all(type(c) is int for c in poly.terms.values())
        assert Polynomial.constant(3, Fraction(4, 2)).terms == {(0, 0, 0): 2}
        assert Polynomial.constant(3, Fraction(1, 2)).terms == {(0, 0, 0): Fraction(1, 2)}
        assert type(Polynomial.one(3).coefficient((1, 0, 0))) is int

    def test_sampled_polynomials_store_ints(self):
        rng = rng_for(5, "canonical-sampling")
        for m in (2, 3, 4):
            poly = random_polynomial(rng, m, 3)
            assert poly and all(type(c) is int for c in poly.terms.values())

    def test_ring_operations_and_partials(self):
        rng = rng_for(11, "canonical-ring")
        seen = set()
        for m in (2, 3, 4):
            for _ in range(6):
                a = rational_polynomial(rng, m, 2)
                b = rational_polynomial(rng, m, 2)
                results = [a + b, a - b, a * b, a * Fraction(6), 3 * a, a ** 2]
                results += [a.partial(k) for k in range(1, m + 1)]
                for poly in results:
                    assert_canonical_poly(poly)
                    seen.update(type(c) for c in poly.terms.values())
        assert seen == {int, Fraction}

    def test_form_calculus(self):
        rng = rng_for(12, "canonical-forms")
        for m in (2, 3, 4):
            for p in range(m + 1):
                w = rational_form(rng, m, p, 2)
                field = PolyVectorField([rational_polynomial(rng, m, 1) for _ in range(m)])
                if p < m:
                    assert_canonical_form(w.d())
                    assert_canonical_form(w.wedge(rational_form(rng, m, 1, 1)))
                if p > 0:
                    assert_canonical_form(w.delta())
                    assert_canonical_form(w.interior(field))

    def test_integral_results_of_fractions_demote(self):
        half = Polynomial.constant(2, Fraction(1, 2)) * Polynomial.variable(2, 1)
        twice = half + half
        assert twice.terms == {(1, 0): 1}
        assert type(twice.terms[(1, 0)]) is int


class TestFloatCoefficients:
    def test_tracked_floats_pass_through(self):
        c = TrackedFloat(0.5, magnitude=4.0)
        poly = Polynomial(2, {(1, 0): c})
        assert poly.terms[(1, 0)] is c
        prod = poly * Polynomial.one(2)
        assert type(prod.terms[(1, 0)]) is TrackedFloat
        assert prod.terms[(1, 0)].magnitude == 4.0
        assert (poly + poly).terms[(1, 0)].magnitude == 8.0

    def test_float_form_calculus_keeps_tracked_floats(self):
        rng = rng_for(13, "canonical-float")
        w = _float_form(random_form(rng, 3, 1, 2))
        for poly in w.coeffs.values():
            for c in poly.terms.values():
                assert type(c) is TrackedFloat and c.magnitude == abs(c)
        for out in (w.d(), w.delta(), w * Fraction(1, 3)):
            for poly in out.coeffs.values():
                assert all(type(c) is TrackedFloat and c.magnitude >= abs(c)
                           for c in poly.terms.values())


class TestCacheRoundTrip:
    def test_disk_load_gives_canonical_coefficients(self, tmp_path):
        built = [BasisCache(str(tmp_path)).get(3, 2, 1, kind) for kind in KINDS]
        loaded = [BasisCache(str(tmp_path)).get(3, 2, 1, kind) for kind in KINDS]
        assert loaded == built
        coeffs = [c for basis in loaded for form in basis
                  for poly in form.coeffs.values() for c in poly.terms.values()]
        assert coeffs and all(is_canonical(c) for c in coeffs)
        assert any(type(c) is int for c in coeffs)


class TestLinalgExactness:
    INT_CASES = [
        [[2, 1], [1, 1]],
        [[3, 1, 1]],
        [[0, 2, 4], [1, 3, 5], [2, 4, 7]],
        [[10, 8, 16], [8, 32, 0], [16, 0, 32]],
    ]

    @staticmethod
    def exact(rows):
        return [[Fraction(v) for v in row] for row in rows]

    @staticmethod
    def assert_no_floats(rows):
        assert not any(isinstance(v, float) for row in rows for v in row)

    @staticmethod
    def sparse(rows):
        return [{j: v for j, v in enumerate(row) if v} for row in rows]

    def test_rref_nullspace_rank(self):
        for rows in self.INT_CASES:
            n = len(rows[0])
            red = linalg.rref(self.sparse(rows))
            self.assert_no_floats(row.values() for row in red.values())
            assert red == linalg.rref(self.sparse(self.exact(rows)))
            null = linalg.nullspace(self.sparse(rows), n)
            self.assert_no_floats(vec.values() for vec in null)
            assert null == linalg.nullspace(self.sparse(self.exact(rows)), n)
            assert rank(rows) == rank(self.exact(rows))
        assert linalg.rref(self.sparse([[2, 1], [1, 1]])) == {0: {0: 1}, 1: {1: 1}}
        assert linalg.nullspace(self.sparse([[3, 1, 1]]), 3) == [{0: Fraction(-1, 3), 1: 1},
                                                                 {0: Fraction(-1, 3), 2: 1}]

    def test_solve(self):
        rows, rhs = [[2, 1], [1, 3]], [[1, 0], [0, 1]]
        x = solve(rows, rhs)
        self.assert_no_floats(x)
        assert x == solve(self.exact(rows), self.exact(rhs))
        assert x == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]

    def test_positive_semidefinite(self):
        # a singular Gram matrix: float pivots leave a negative rounding residue
        gram = [[10, 8, 16], [8, 32, 0], [16, 0, 32]]
        assert linalg.is_positive_semidefinite(gram)
        assert linalg.is_positive_semidefinite(self.exact(gram))
        assert not linalg.is_positive_semidefinite([[1, 2], [2, 1]])

    @staticmethod
    def leibniz_det(a):
        n = len(a)
        total = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
            total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
        return total

    def test_definiteness_matches_principal_minors(self):
        # Sylvester's criterion for definiteness, and every principal
        # minor non-negative for semidefiniteness, with minors by the
        # Leibniz formula, on seeded symmetric rational matrices of sizes
        # 0..4: arbitrary ones, B B^T of every rank (PSD, singular below
        # full rank) and B D B^T with D of mixed sign (indefinite)
        rng = random.Random(32)

        def entry():
            return rng.choice([rng.randint(-3, 3),
                               Fraction(rng.randint(-3, 3), rng.randint(2, 4))])

        def product(b, d):
            return [[sum(x * di * y for x, di, y in zip(u, d, v)) for v in b] for u in b]
        outcomes = {"definite": 0, "semidefinite": 0, "neither": 0}
        for _ in range(600):
            n = rng.randint(0, 4)
            kind = rng.choice(["symmetric", "gram", "signed"])
            if kind == "symmetric":
                a = [[entry() for _ in range(n)] for _ in range(n)]
                a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            else:
                r = rng.randint(0, n)
                b = [[entry() for _ in range(r)] for _ in range(n)]
                d = [1] * r if kind == "gram" else [rng.choice([-1, 1, 2]) for _ in range(r)]
                a = product(b, d)
            minors = {s: self.leibniz_det([[a[i][j] for j in s] for i in s])
                      for k in range(1, n + 1) for s in itertools.combinations(range(n), k)}
            definite = all(minors[tuple(range(k))] > 0 for k in range(1, n + 1))
            semidefinite = all(v >= 0 for v in minors.values())
            assert linalg.is_positive_definite(a) == definite, a
            assert linalg.is_positive_semidefinite(a) == semidefinite, a
            label = "definite" if definite else "semidefinite" if semidefinite else "neither"
            outcomes[label] += 1
        assert min(outcomes.values()) >= 100, outcomes


_ENTRY = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))


@st.composite
def _sparse_matrices(draw):
    """Mostly-zero rational matrices, int and Fraction entries mixed, often
    rank-deficient: zero rows, repeated rows and combinations of earlier
    rows are mixed in, and there may be no rows at all."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(0), _ENTRY)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = (1, 0) if kind == "repeat" else (draw(_ENTRY), draw(_ENTRY))
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return ncols, draw(st.permutations(rows))


class TestSparseElimination:
    """The sparse ``linalg.rref`` and ``nullspace`` against the dense
    reference elimination of ``tests/oracle.py``."""

    @staticmethod
    def dense(vectors, ncols):
        return [[vec.get(j, 0) for j in range(ncols)] for vec in vectors]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=_sparse_matrices(), data=st.data())
    def test_equals_the_dense_reference(self, case, data):
        ncols, rows = case
        sparse = TestLinalgExactness.sparse(rows)
        red = linalg.rref(sparse)
        want, pivots = dense_rref(rows)
        assert list(red) == pivots
        assert self.dense(red.values(), ncols) == want[:len(pivots)]
        null = linalg.nullspace(sparse, ncols)
        assert self.dense(null, ncols) == dense_nullspace(rows, ncols)
        assert all(v for vec in [*red.values(), *null] for v in vec.values())
        # the reduced form is unique, so the order of the rows is immaterial
        shuffled = data.draw(st.permutations(sparse))
        assert linalg.rref(shuffled) == red
        assert linalg.nullspace(shuffled, ncols) == null

    def test_edge_cases(self):
        assert linalg.rref([]) == {}
        assert linalg.nullspace([], 2) == [{0: 1}, {1: 1}]
        assert linalg.rref([{}, {0: 0, 1: 0}]) == {}
        assert linalg.rref([{1: 2, 2: 4}, {1: 1, 2: 2}]) == {1: {1: 1, 2: 2}}
        assert linalg.nullspace([{1: 2, 2: 4}, {1: 1, 2: 2}], 3) == [{0: 1}, {2: 1, 1: -2}]
