"""Exact pointwise curvature checks on coordinate charts.

A chart metric gives the exact 2-jet of g (g, dg and d2g) at a rational
point.  From it come the Christoffel symbols, their first derivatives
and the Riemann tensor, all ``Fraction``s in the coordinate frame.  The
Weitzenboeck term of the Bochner formula is built from the exterior
layer, and the Bochner formula itself is checked from the jets of a
polynomial form: its residual must be the zero form.  The Gallot-Meyer
bound is decided by exact PSD tests.  Nothing is differenced, sampled
or compared up to a tolerance.

Index conventions, 0-based, in the coordinate frame:

  christoffel[k][i][j]       Gamma^k_ij
  christoffel_d[a][k][i][j]  d_a Gamma^k_ij
  riemann_up[a][b][c][d]     R^d_abc, with R(d_a, d_b) d_c = R^d_abc d_d
                             and R(X, Y) = [nabla_X, nabla_Y] - nabla_[X,Y]
  riemann[a][b][c][d]        <R(d_a, d_b) d_c, d_d>; on a chart of
                             constant curvature gamma it equals
                             gamma (g_ad g_bc - g_ac g_bd)

A matrix on p-forms has one row per basis form dx^I, in
``multi_indices`` order: row r holds the coefficients of the image of
dx^{I_r}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import prod

from .exterior import ConstantForm, multi_indices, sort_with_sign
from .linalg import is_positive_definite, is_positive_semidefinite, rref
from .polynomials import Polynomial
from .polyform import PolyForm

HALF = Fraction(1, 2)


class ChartMetric:
    """A Riemannian metric on a coordinate chart.  ``jet(x)`` returns its
    exact 2-jet at x: g[i][j], dg[k][i][j] = d_k g_ij and
    d2g[k][l][i][j] = d_k d_l g_ij."""

    def __init__(self, m: int, jet):
        self.m = m
        self._jet = jet

    def jet(self, point):
        x = [Fraction(v) for v in point]
        if len(x) != self.m:
            raise ValueError("point dimension mismatch")
        return self._jet(x)

    @classmethod
    def _conformal(cls, m: int, factor) -> "ChartMetric":
        """phi * delta, where factor(x) gives phi, d_k phi and d_k d_l phi."""
        def jet(x):
            phi, d1, d2 = factor(x)
            scalar = lambda v: [[v if i == j else 0 for j in range(m)] for i in range(m)]
            return scalar(phi), [scalar(v) for v in d1], [[scalar(v) for v in row] for row in d2]
        return cls(m, jet)

    @classmethod
    def flat(cls, m: int, scale=1) -> "ChartMetric":
        zero = [0] * m
        return cls._conformal(m, lambda x: (Fraction(scale), zero, [zero] * m))

    @classmethod
    def from_polynomials(cls, entries: list[list[Polynomial]]) -> "ChartMetric":
        m = len(entries)
        if any(entries[i][j] != entries[j][i] for i in range(m) for j in range(i)):
            raise ValueError("metric entries must be symmetric")
        d1 = [[[e.partial(k + 1) for e in row] for row in entries] for k in range(m)]
        d2 = [[[[e.partial(l + 1) for e in row] for row in dk] for l in range(m)] for dk in d1]
        return cls(m, lambda x: (_evaluate(entries, x), _evaluate(d1, x), _evaluate(d2, x)))

    @classmethod
    def round_sphere(cls, m: int) -> "ChartMetric":
        """Stereographic chart of the unit round sphere,
        g = 4 delta / (1 + |x|^2)^2, constant sectional curvature one."""
        def factor(x):
            s = 1 + sum(v * v for v in x)
            return (4 / s ** 2, [-16 * v / s ** 3 for v in x],
                    [[96 * u * v / s ** 4 - (16 / s ** 3 if k == l else 0)
                      for l, v in enumerate(x)] for k, u in enumerate(x)])
        return cls._conformal(m, factor)


def _evaluate(polys, x):
    """Nested lists of polynomials, evaluated at x."""
    if isinstance(polys, Polynomial):
        return polys.evaluate(x)
    return [_evaluate(p, x) for p in polys]


class CurvatureData:
    """The exact curvature of a chart at a point, indexed as in the
    module docstring: ``inverse`` is g^ij and ``inverse_d[a][i][j]`` is
    d_a g^ij."""

    __slots__ = ("point", "metric", "inverse", "inverse_d", "christoffel",
                 "christoffel_d", "riemann_up", "riemann")

    def __init__(self, point: list[Fraction], metric: list[list[Fraction]],
                 inverse: list[list[Fraction]], inverse_d: list, christoffel: list,
                 christoffel_d: list, riemann_up: list, riemann: list):
        self.point, self.metric, self.inverse, self.inverse_d = point, metric, inverse, inverse_d
        self.christoffel, self.christoffel_d = christoffel, christoffel_d
        self.riemann_up, self.riemann = riemann_up, riemann

    def has_constant_curvature(self, gamma) -> bool:
        """Whether R_abcd == gamma (g_ad g_bc - g_ac g_bd), which fixes
        the sectional curvature of every plane, not only the coordinate
        planes.  Compared over a < b, c < d: the antisymmetries that
        ``curvature_at`` asserts give every other entry."""
        return curvature_operator_matrix(self) == [
            [gamma * v for v in row] for row in _compound(self.metric, 2)]


def _dot(xs, ys):
    """sum x * y, skipping zero factors: most entries on a conformal chart
    are 0, and a skipped product costs no ``Fraction`` arithmetic."""
    return sum(x * y for x, y in zip(xs, ys) if x and y)


def _matmul(a, b):
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _christoffel(ginv, dg, d2g):
    """d_a g^ij, Gamma^k_ij and d_a Gamma^k_ij, from the doubled
    first-kind symbols C[i][j][l] = d_i g_jl + d_j g_il - d_l g_ij."""
    r = range(len(ginv))
    C = [[[dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for l in r] for j in r] for i in r]
    dC = [[[[d2g[a][i][j][l] + d2g[a][j][i][l] - d2g[a][l][i][j] for l in r] for j in r]
           for i in r] for a in r]
    # d_a g^-1 = -g^-1 (d_a g) g^-1
    dginv = [[[-v for v in row] for row in _matmul(_matmul(ginv, dg[a]), ginv)] for a in r]
    gamma = [[[_dot(ginv[k], C[i][j]) * HALF for j in r] for i in r] for k in r]
    dgamma = [[[[(_dot(dginv[a][k], C[i][j]) + _dot(ginv[k], dC[a][i][j])) * HALF
                 for j in r] for i in r] for k in r] for a in r]
    return dginv, gamma, dgamma


def curvature_at(metric: ChartMetric, point) -> CurvatureData:
    """The curvature of the chart at a point, exactly.  Raises
    ``ValueError`` where g is not positive-definite, and
    ``AssertionError`` where the Riemann tensor breaks one of its
    symmetries or the first Bianchi identity."""
    x = [Fraction(v) for v in point]
    g, dg, d2g = metric.jet(x)
    if not is_positive_definite(g):
        raise ValueError("metric is not positive-definite at the point")
    m = metric.m
    r = range(m)
    # the reduced form of (g | 1) is (1 | g^-1)
    ginv = [[row.get(m + j, 0) for j in r] for row in
            rref([{**dict(enumerate(row)), m + i: 1} for i, row in enumerate(g)]).values()]
    dginv, gamma, dgamma = _christoffel(ginv, dg, d2g)
    # column[b][c][e] = Gamma^e_bc
    column = [[[gamma[e][b][c] for e in r] for c in r] for b in r]
    up = [[[[dgamma[a][d][b][c] - dgamma[b][d][a][c] + _dot(column[b][c], gamma[d][a])
             - _dot(column[a][c], gamma[d][b]) for d in r] for c in r] for b in r] for a in r]
    R = [[[[_dot(up[a][b][c], g[d]) for d in r] for c in r] for b in r] for a in r]
    for a, b, c, d in product(r, repeat=4):
        if not (R[a][b][c][d] == -R[b][a][c][d] == -R[a][b][d][c] == R[c][d][a][b]
                and R[a][b][c][d] + R[b][c][a][d] + R[c][a][b][d] == 0):
            raise AssertionError(
                f"Riemann tensor breaks a symmetry or the Bianchi identity at {(a, b, c, d)}")
    return CurvatureData(x, g, ginv, dginv, gamma, dgamma, up, R)


def _det(rows) -> Fraction:
    """Leibniz expansion; the matrices here are at most m x m."""
    return sum(sort_with_sign(perm)[0] * prod(row[j] for row, j in zip(rows, perm))
               for perm in permutations(range(len(rows))))


def _compound(matrix, p: int) -> list[list[Fraction]]:
    """The p-th compound: det(matrix[I, J]) over p-subsets I, J."""
    idx = multi_indices(len(matrix), p)
    return [[_det([[matrix[i - 1][j - 1] for j in J] for i in I]) for J in idx] for I in idx]


def curvature_operator_matrix(data: CurvatureData) -> list[list[Fraction]]:
    """The curvature operator as a quadratic form on two-vectors, entries
    R_abdc over pairs a<b, c<d; on a chart of constant curvature gamma
    it is gamma times the induced metric on two-vectors."""
    pairs = multi_indices(len(data.metric), 2)
    return [[data.riemann[a - 1][b - 1][d - 1][c - 1] for c, d in pairs] for a, b in pairs]


def _weitzenbock(data: CurvatureData, forms):
    """W on each form (all of one degree; W = 0 on functions):
    W = sum_{a,c} dx^a ^ i(g^{c.}) L_ac, where L_ac lifts the matrix
    R^d_{ace} (rows d) to forms.  L_ac is minus R(d_a, d_c) acting on
    forms as a derivation, so this is the usual
    W = -sum e^a ^ i(e_b) R(e_a, e_b), which is g^-1 Ric on 1-forms."""
    m = len(data.metric)
    r = range(m)
    # a pair (a, c) with R(d_a, d_c) = 0 adds nothing
    terms = [(ConstantForm.basis(m, (a + 1,)), data.inverse[c],
              [[data.riemann_up[a][c][e][d] for e in r] for d in r])
             for a in r for c in r if any(map(any, data.riemann_up[a][c]))]
    return [sum((dx.wedge(w.lift_by(rows).interior(v)) for dx, v, rows in terms), w * 0)
            if w.p else w * 0 for w in forms]


def weitzenbock_at(metric: ChartMetric, point, p: int,
                   data: CurvatureData | None = None) -> list[list[Fraction]]:
    """Matrix of the curvature term W of the Bochner formula on p-forms,
    in the coordinate frame (rows as in the module docstring)."""
    data = data if data is not None else curvature_at(metric, point)
    idx = multi_indices(metric.m, p)
    images = _weitzenbock(data, [ConstantForm.basis(metric.m, I) for I in idx])
    return [[w.coeffs.get(J, Fraction(0)) for J in idx] for w in images]


def bochner_residual(metric: ChartMetric, omega: PolyForm, point,
                     data: CurvatureData | None = None) -> ConstantForm:
    """Delta w - nabla* nabla w - W w at the point, exactly: the Bochner
    formula holds there iff this is the zero form.

    Every term comes from the exact jets of w and of the metric:
    nabla_k w = d_k w - L(Gamma_k) w, where L lifts the rows
    Gamma^a_{k.} to forms; delta = -g^kl i_k nabla_l; and
    nabla* nabla w = -g^kl (d_k nabla_l w - L(Gamma_k) nabla_l w
    - Gamma^a_kl nabla_a w).
    """
    data = data if data is not None else curvature_at(metric, point)
    m, p, x = metric.m, omega.p, data.point
    r = range(m)
    ginv, gamma = data.inverse, data.christoffel
    conn = [[[gamma[a][k][b] for b in r] for a in r] for k in r]
    dconn = [[[[data.christoffel_d[j][a][k][b] for b in r] for a in r] for k in r] for j in r]

    at = lambda f: ConstantForm(m, f.p, {I: c.evaluate(x) for I, c in f.coeffs.items()})

    def nabla(form):
        """form, d_k form and nabla_k form at x."""
        f0, f1 = at(form), [at(form.partial(k + 1)) for k in r]
        return f0, f1, [f1[k] - f0.lift_by(conn[k]) for k in r]

    w0, w1, nab = nabla(omega)
    # d_j nabla_l w
    dnab = [[at(omega.partial(j + 1).partial(l + 1)) - w0.lift_by(dconn[j][l])
             - w1[j].lift_by(conn[l]) for l in r] for j in r]
    rough = w0 * 0
    for k, l in product(r, r):
        hess = dnab[k][l] - nab[l].lift_by(conn[k]) - sum(
            (nab[a] * gamma[a][k][l] for a in r), w0 * 0)
        rough -= hess * ginv[k][l]
    hodge = w0 * 0
    if p >= 1:
        # d delta w, with d_j delta w = -sum_l (i(d_j g^{l.}) + i(g^{l.}) d_j) nabla_l w
        for j in r:
            ddelta = sum((nab[l].interior(data.inverse_d[j][l])
                          + dnab[j][l].interior(ginv[l]) for l in r), ConstantForm.zero(m, p - 1))
            hodge -= ConstantForm.basis(m, (j + 1,)).wedge(ddelta)
    if p < m:
        eta_nab = nabla(omega.d())[2]
        hodge -= sum((eta_nab[l].interior(ginv[l]) for l in r), w0 * 0)
    return hodge - rough - _weitzenbock(data, [w0])[0]


def gallot_meyer_check(metric: ChartMetric, p: int, gamma, points,
                       data: list[CurvatureData] | None = None) -> bool:
    """Whether, at every point, the curvature operator is at least gamma
    and W is at least p(m-p) gamma on p-forms, each decided by an exact
    PSD test: R_abdc - gamma (g_ac g_bd - g_ad g_bc) on two-vectors, and
    (W - p(m-p) gamma) G_p with G_p[I][J] = det(g^-1[I, J]) the metric on
    p-forms.  ``data``, when given, is ``curvature_at`` of each point."""
    m, gamma = metric.m, Fraction(gamma)
    bound = p * (m - p) * gamma
    for d in data if data is not None else [curvature_at(metric, pt) for pt in points]:
        bivector = _compound(d.metric, 2)
        hypothesis = [[rc - gamma * bv for rc, bv in zip(rows, brows)]
                      for rows, brows in zip(curvature_operator_matrix(d), bivector)]
        shifted = [[w - bound * (i == j) for j, w in enumerate(row)]
                   for i, row in enumerate(weitzenbock_at(metric, d.point, p, d))]
        excess = _matmul(shifted, _compound(d.inverse, p))
        if not (is_positive_semidefinite(hypothesis) and is_positive_semidefinite(excess)):
            return False
    return True
