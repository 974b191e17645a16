"""Chart-based curvature, Weitzenboeck and Bochner checks, all exact."""

import copy
from fractions import Fraction as F
from itertools import product

import pytest

import formlab.curvature as curvature
from formlab.cli import RunConfig, _Context, _round_chart
from formlab.curvature import (ChartMetric, bochner_residual,
                               curvature_at, curvature_operator_matrix,
                               gallot_meyer_check, weitzenbock_at)
from formlab.exterior import multi_indices
from formlab.polynomials import Polynomial
from formlab.polyform import PolyForm
from formlab.sampling import random_form, rng_for

POINTS3 = ([0, 0, 0], [F(1, 5), F(-1, 10), F(3, 20)], [F(3, 10), F(1, 4), F(-1, 5)])


def identity(n, c=1):
    return [[c * (i == j) for j in range(n)] for i in range(n)]


def ricci(data):
    """Ric_bc = g^ad R_abcd."""
    r = range(len(data.metric))
    return [[sum(data.inverse[a][d] * data.riemann[a][b][c][d] for a in r for d in r)
             for c in r] for b in r]


def sectional(data, i, j):
    """The sectional curvature of the coordinate plane (e_i, e_j)."""
    g = data.metric
    return data.riemann[i][j][j][i] / (g[i][i] * g[j][j] - g[i][j] ** 2)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def bivector_metric(g):
    pairs = [(a - 1, b - 1) for a, b in multi_indices(len(g), 2)]
    return [[g[a][c] * g[b][d] - g[a][d] * g[b][c] for c, d in pairs] for a, b in pairs]


def skewed_chart(m):
    """g = (1 + x1 x2^2) delta + x x^T: not conformally flat in these
    coordinates, of non-constant curvature, positive-definite near 0."""
    x = [Polynomial.variable(m, k + 1) for k in range(m)]
    conformal = Polynomial.one(m) + x[0] * x[1] * x[1]
    return ChartMetric.from_polynomials(
        [[x[i] * x[j] + (conformal if i == j else Polynomial.zero(m)) for j in range(m)]
         for i in range(m)])


def point(m):
    return [F(1, 5), F(-1, 10), F(3, 20), F(1, 20), F(-1, 5)][:m]


def is_zero(tensor):
    return all(map(is_zero, tensor)) if isinstance(tensor, list) else tensor == 0


class TestFlatCharts:
    def test_zero_curvature_exactly(self):
        flat = ChartMetric.flat(3)
        for pt in POINTS3:
            data = curvature_at(flat, pt)
            assert is_zero(data.riemann)
            assert data.has_constant_curvature(0)

    def test_scaled_flat_zero_curvature(self):
        for pt in POINTS3:
            data = curvature_at(ChartMetric.flat(3, F(5, 2)), pt)
            assert is_zero(data.riemann)
            assert data.metric == identity(3, F(5, 2))

    def test_weitzenbock_zero_exactly(self):
        flat = ChartMetric.flat(3)
        for p in (1, 2, 3):
            assert is_zero(weitzenbock_at(flat, POINTS3[1], p))

    def test_constant_polynomial_chart(self):
        entries = [[Polynomial.constant(2, F(2 if i == j else 0))
                    for j in range(2)] for i in range(2)]
        metric = ChartMetric.from_polynomials(entries)
        data = curvature_at(metric, [F(1, 2), F(-3, 10)])
        assert is_zero(data.riemann)


class TestRoundSphereChart:
    def test_sectional_curvature_one_at_origin(self):
        data = curvature_at(ChartMetric.round_sphere(3), [0, 0, 0])
        for i in range(3):
            for j in range(i + 1, 3):
                assert sectional(data, i, j) == 1

    def test_sectional_curvature_one_off_origin(self):
        for m in (2, 3, 4, 5, 6):
            data = curvature_at(ChartMetric.round_sphere(m), point(m) + [F(1, 7)] * (m - 5))
            for i in range(m):
                for j in range(i + 1, m):
                    assert sectional(data, i, j) == 1
            # every plane, not only the coordinate planes
            assert data.has_constant_curvature(1)
            assert not data.has_constant_curvature(F(999, 1000))

    def test_symmetries_and_bianchi(self):
        for metric in (ChartMetric.round_sphere(4), skewed_chart(4)):
            R = curvature_at(metric, [F(1, 10), F(1, 5), F(-3, 20), F(1, 20)]).riemann
            for a, b, c, d in product(range(4), repeat=4):
                assert R[a][b][c][d] == -R[b][a][c][d] == -R[a][b][d][c] == R[c][d][a][b]
                assert R[a][b][c][d] + R[b][c][a][d] + R[c][a][b][d] == 0

    def test_ricci(self):
        data = curvature_at(ChartMetric.round_sphere(3), [F(1, 5), F(1, 10), F(-1, 10)])
        assert ricci(data) == [[2 * v for v in row] for row in data.metric]

    def test_curvature_operator_identity(self):
        data = curvature_at(ChartMetric.round_sphere(3), [F(3, 20), F(-1, 5), F(1, 10)])
        # gamma times the induced metric on two-vectors, gamma = 1
        assert curvature_operator_matrix(data) == bivector_metric(data.metric)


class TestWeitzenbock:
    @pytest.mark.parametrize("m,p", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_constant_curvature_scalar(self, m, p):
        rs = ChartMetric.round_sphere(m)
        W = weitzenbock_at(rs, [F(1, 10)] * m, p)
        assert W == identity(len(multi_indices(m, p)), p * (m - p))

    def test_degree_one_is_ricci(self):
        pt = [F(1, 4), F(-1, 10), F(3, 10)]
        for metric in (ChartMetric.round_sphere(3), skewed_chart(3)):
            data = curvature_at(metric, pt)
            assert weitzenbock_at(metric, pt, 1, data) == matmul(data.inverse, ricci(data))

    def test_symmetric_matrix(self):
        # W is self-adjoint for the metric G_2 on 2-forms: W G_2 is symmetric
        for metric in (ChartMetric.round_sphere(4), skewed_chart(4)):
            data = curvature_at(metric, [F(1, 10), F(-1, 5), F(1, 20), F(3, 20)])
            WG = matmul(weitzenbock_at(metric, data.point, 2, data),
                        curvature._compound(data.inverse, 2))
            assert WG == [list(col) for col in zip(*WG)]

    def test_star_conjugation_spectra(self):
        # W commutes with the Hodge star, so W_p and W_{4-p} have one
        # characteristic polynomial: equal traces of every power
        trace = lambda a: sum(a[i][i] for i in range(len(a)))
        for metric in (ChartMetric.round_sphere(4), skewed_chart(4)):
            data = curvature_at(metric, [F(3, 25), F(-2, 25), F(1, 5), F(-3, 20)])
            for p in (1, 2):
                a = weitzenbock_at(metric, data.point, p, data)
                b = weitzenbock_at(metric, data.point, 4 - p, data)
                pa, pb = a, b
                for _ in range(len(a)):
                    assert trace(pa) == trace(pb)
                    pa, pb = matmul(pa, a), matmul(pb, b)


class TestBochner:
    def test_flat_cancellation(self):
        flat = ChartMetric.flat(3)
        omega = random_form(rng_for(80, "flat-bochner"), 3, 1, 3)
        assert bochner_residual(flat, omega, [F(1, 5), F(-1, 10), F(3, 20)]).is_zero()

    def test_flat_constant_form(self):
        flat = ChartMetric.flat(3)
        assert bochner_residual(flat, PolyForm.basis(3, (1, 2)),
                                [F(1, 10), F(1, 5), 0]).is_zero()

    def test_round_second_order(self):
        # the second-order identity Delta = nabla* nabla + W, exactly
        rs = ChartMetric.round_sphere(3)
        omega = random_form(rng_for(81, "round-bochner"), 3, 1, 1)
        assert bochner_residual(rs, omega, [F(3, 20), F(-1, 5), F(1, 10)]).is_zero()

    def test_round_two_form(self):
        rs = ChartMetric.round_sphere(3)
        omega = random_form(rng_for(82, "round-2form"), 3, 2, 1)
        assert bochner_residual(rs, omega, [F(1, 10), F(1, 20), F(-3, 20)]).is_zero()

    @pytest.mark.parametrize("m", [2, 3])
    def test_non_conformal_chart(self, m):
        chart = skewed_chart(m)
        data = curvature_at(chart, point(m))
        assert not data.has_constant_curvature(0)
        for p in range(m + 1):
            for degree in (1, 3):
                omega = random_form(rng_for(83, "skewed", m, p, degree), m, p, degree)
                assert bochner_residual(chart, omega, point(m), data).is_zero(), (p, degree)


class TestGallotMeyer:
    def test_flat_zero_bound(self):
        flat = ChartMetric.flat(3)
        assert gallot_meyer_check(flat, 2, 0, POINTS3)
        assert not gallot_meyer_check(flat, 2, F(1, 1000), POINTS3)

    def test_round_equality_case(self):
        rs = ChartMetric.round_sphere(3)
        assert gallot_meyer_check(rs, 1, 1, POINTS3)
        # constant curvature: equality, so no gamma above 1 passes
        assert not gallot_meyer_check(rs, 1, F(1001, 1000), POINTS3)

    def test_round_m4_p2(self):
        rs = ChartMetric.round_sphere(4)
        pts = [[0] * 4, [F(1, 10), F(-1, 5), F(3, 20), F(1, 20)]]
        assert gallot_meyer_check(rs, 2, 1, pts)

    def test_violated_precondition_detected(self):
        rs = ChartMetric.round_sphere(3)
        assert not gallot_meyer_check(rs, 1, 2, POINTS3)  # claims gamma=2: false


class TestMutants:
    """Each deliberate error in the curvature code is caught, and by
    which check."""

    def test_christoffel_sign_flip_breaks_symmetries(self, monkeypatch):
        real = curvature._christoffel

        def flipped(*args):
            dginv, gamma, dgamma = real(*args)
            negate = lambda t: [negate(v) for v in t] if isinstance(t, list) else -t
            return dginv, negate(gamma), negate(dgamma)

        monkeypatch.setattr(curvature, "_christoffel", flipped)
        with pytest.raises(AssertionError, match="symmetry or the Bianchi identity"):
            curvature_at(skewed_chart(3), point(3))
        # on the round chart the tensor keeps its symmetries, but its
        # curvature is no longer the constant 1
        assert not curvature_at(ChartMetric.round_sphere(3), point(3)).has_constant_curvature(1)

    def test_weitzenbock_sign_flip_fails_w_and_bochner(self, monkeypatch):
        real = curvature._weitzenbock
        monkeypatch.setattr(curvature, "_weitzenbock",
                            lambda data, forms: [-w for w in real(data, forms)])
        rs = ChartMetric.round_sphere(3)
        assert weitzenbock_at(rs, point(3), 1) != identity(3, 2)
        omega = random_form(rng_for(84, "mutant"), 3, 1, 1)
        assert not bochner_residual(rs, omega, point(3)).is_zero()
        pts = [[0] * 3, point(3), [F(3, 20), F(1, 4), F(1, 20)]]
        record = _round_chart(_Context(RunConfig(suites=["curvature"])), 3, pts)
        assert not record["pass"]
        assert record["weitzenbock_deviation"] != "0"
        assert record["bochner_residual"] != "0"

    def test_dropped_christoffel_derivative_fails_bochner(self):
        rs = ChartMetric.round_sphere(3)
        data = curvature_at(rs, point(3))
        omega = random_form(rng_for(85, "mutant"), 3, 1, 1)
        assert bochner_residual(rs, omega, point(3), data).is_zero()
        zero = lambda t: [zero(v) for v in t] if isinstance(t, list) else 0
        dropped = copy.copy(data)
        dropped.christoffel_d = zero(data.christoffel_d)
        assert not bochner_residual(rs, omega, point(3), dropped).is_zero()


class TestDegeneracies:
    def test_degenerate_metric_rejected(self):
        entries = [[Polynomial.variable(2, 1), Polynomial.zero(2)],
                   [Polynomial.zero(2), Polynomial.one(2)]]
        metric = ChartMetric.from_polynomials(entries)
        with pytest.raises(ValueError):
            curvature_at(metric, [0, F(1, 2)])

    def test_asymmetric_entries_rejected(self):
        entries = [[Polynomial.one(2), Polynomial.variable(2, 1)],
                   [Polynomial.zero(2), Polynomial.one(2)]]
        with pytest.raises(ValueError):
            ChartMetric.from_polynomials(entries)
