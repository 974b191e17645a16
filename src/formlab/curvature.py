"""Pointwise curvature checks on coordinate charts.

Christoffel symbols, their first derivatives, and the Riemann tensor
are evaluated analytically (exact differentiation of the metric's
entries, floating-point arithmetic).  Only the second-derivative
composition in the Bochner check uses centred finite differences, so
the discretisation error is isolated in one place and its order is
measurable: on a flat chart all stencils cancel identically and the
residual is pure rounding, on a curved chart the residual decays like
h^2.

Index conventions: ``riemann[a,b,c,d]`` is <Rm(e_a, e_b) e_c, e_d> in
the orthonormal frame; on a chart of constant curvature gamma it equals
gamma * (delta_ad delta_bc - delta_ac delta_bd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exterior import multi_indices, sort_with_sign
from .polynomials import Polynomial
from .polyform import PolyForm

SYMMETRY_TOL = 1e-10


class ChartMetric:
    """A Riemannian metric on a coordinate chart with analytic
    evaluators for g, dg and d2g."""

    def __init__(self, m: int, value, d1, d2, label: str = "custom"):
        self.m = m
        self._value = value
        self._d1 = d1
        self._d2 = d2
        self.label = label

    def value(self, x: np.ndarray) -> np.ndarray:
        """g_ij at x, shape (m, m)."""
        return self._value(np.asarray(x, dtype=float))

    def d1(self, x: np.ndarray) -> np.ndarray:
        """d_k g_ij at x, shape (m, m, m) indexed [k, i, j]."""
        return self._d1(np.asarray(x, dtype=float))

    def d2(self, x: np.ndarray) -> np.ndarray:
        """d_k d_l g_ij at x, shape (m, m, m, m) indexed [k, l, i, j]."""
        return self._d2(np.asarray(x, dtype=float))

    # -- constructors ----------------------------------------------------
    @classmethod
    def flat(cls, m: int, scale: float = 1.0) -> "ChartMetric":
        g = scale * np.eye(m)
        return cls(m,
                   lambda x: g.copy(),
                   lambda x: np.zeros((m, m, m)),
                   lambda x: np.zeros((m, m, m, m)),
                   label=f"flat(scale={scale})")

    @classmethod
    def from_polynomials(cls, entries: list[list[Polynomial]]) -> "ChartMetric":
        m = len(entries)
        for i in range(m):
            for j in range(m):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("metric entries must be symmetric")
        d1 = [[[entries[i][j].partial(k + 1) for j in range(m)] for i in range(m)]
              for k in range(m)]
        d2 = [[[[d1[k][i][j].partial(l + 1) for j in range(m)] for i in range(m)]
               for l in range(m)] for k in range(m)]

        def val(x):
            return np.array([[float(entries[i][j].evaluate(list(x)))
                              for j in range(m)] for i in range(m)])

        def dv(x):
            return np.array([[[float(d1[k][i][j].evaluate(list(x)))
                               for j in range(m)] for i in range(m)]
                             for k in range(m)])

        def d2v(x):
            return np.array([[[[float(d2[k][l][i][j].evaluate(list(x)))
                                for j in range(m)] for i in range(m)]
                              for l in range(m)] for k in range(m)])

        return cls(m, val, dv, d2v, label="polynomial")

    @classmethod
    def round_sphere(cls, m: int) -> "ChartMetric":
        """Stereographic chart of the unit round sphere,
        g = 4 delta / (1 + |x|^2)^2, constant sectional curvature one."""
        eye = np.eye(m)

        def phi_parts(x):
            s = 1.0 + float(np.dot(x, x))
            return s

        def val(x):
            s = phi_parts(x)
            return (4.0 / s ** 2) * eye

        def dv(x):
            s = phi_parts(x)
            out = np.zeros((m, m, m))
            for k in range(m):
                out[k] = (-16.0 * x[k] / s ** 3) * eye
            return out

        def d2v(x):
            s = phi_parts(x)
            out = np.zeros((m, m, m, m))
            for k in range(m):
                for l in range(m):
                    coef = -16.0 * (1.0 if k == l else 0.0) / s ** 3 \
                        + 96.0 * x[k] * x[l] / s ** 4
                    out[k, l] = coef * eye
            return out

        return cls(m, val, dv, d2v, label="round-sphere")


@dataclass
class CurvatureData:
    point: np.ndarray
    metric_value: np.ndarray
    christoffel: np.ndarray        # [k, i, j] = Gamma^k_ij
    christoffel_d: np.ndarray      # [a, k, i, j] = d_a Gamma^k_ij
    riemann_coord: np.ndarray      # [a, b, c, d] lowered, coordinate frame
    frame: np.ndarray              # columns are orthonormal frame vectors
    riemann: np.ndarray            # [a, b, c, d] in the orthonormal frame
    symmetry_defect: float
    bianchi_defect: float

    def ricci(self) -> np.ndarray:
        """Ric_jk = sum_i R[i, j, k, i] in the orthonormal frame."""
        return np.einsum("ijki->jk", self.riemann)

    def sectional(self, i: int, j: int) -> float:
        return float(self.riemann[i, j, j, i])


def _christoffel_arrays(metric: ChartMetric, x: np.ndarray):
    m = metric.m
    g = metric.value(x)
    dg = metric.d1(x)
    d2g = metric.d2(x)
    ginv = np.linalg.inv(g)
    # C[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    C = np.zeros((m, m, m))
    for l in range(m):
        for i in range(m):
            for j in range(m):
                C[l, i, j] = dg[i, j, l] + dg[j, i, l] - dg[l, i, j]
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, C)
    dC = np.zeros((m, m, m, m))
    for a in range(m):
        for l in range(m):
            for i in range(m):
                for j in range(m):
                    dC[a, l, i, j] = d2g[a, i, j, l] + d2g[a, j, i, l] - d2g[a, l, i, j]
    # dginv[i, k, l] = d_i (g^{kl}) = - g^{ka} (d_i g_ab) g^{bl}
    dginv = np.zeros((m, m, m))
    for i in range(m):
        dginv[i] = -ginv @ dg[i] @ ginv
    dgamma = 0.5 * (np.einsum("akl,lij->akij", dginv, C)
                    + np.einsum("kl,alij->akij", ginv, dC))
    return g, ginv, gamma, dgamma


def christoffels(metric: ChartMetric, x) -> np.ndarray:
    return _christoffel_arrays(metric, np.asarray(x, dtype=float))[2]


def curvature_at(metric: ChartMetric, point) -> CurvatureData:
    """Assemble the curvature tensor and verify its symmetries."""
    x = np.asarray(point, dtype=float)
    m = metric.m
    g, ginv, gamma, dgamma = _christoffel_arrays(metric, x)
    eigvals = np.linalg.eigvalsh(g)
    if eigvals.min() <= 0:
        raise ValueError("metric is not positive-definite at the point")
    # R^d_{abc} = d_a Gamma^d_bc - d_b Gamma^d_ac
    #             + Gamma^e_bc Gamma^d_ae - Gamma^e_ac Gamma^d_be
    up = np.zeros((m, m, m, m))
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    val = dgamma[a, d, b, c] - dgamma[b, d, a, c]
                    for e in range(m):
                        val += gamma[e, b, c] * gamma[d, a, e] \
                            - gamma[e, a, c] * gamma[d, b, e]
                    up[a, b, c, d] = val
    low = np.einsum("abce,ed->abcd", up, g)

    chol = np.linalg.cholesky(g)
    frame = np.linalg.inv(chol).T
    rf = np.einsum("abcd,ai,bj,ck,dl->ijkl", low, frame, frame, frame, frame)

    scale = max(1.0, float(np.max(np.abs(rf))))
    sym = max(
        float(np.max(np.abs(rf + np.transpose(rf, (1, 0, 2, 3))))),
        float(np.max(np.abs(rf + np.transpose(rf, (0, 1, 3, 2))))),
        float(np.max(np.abs(rf - np.transpose(rf, (2, 3, 0, 1))))),
    ) / scale
    bianchi = float(np.max(np.abs(
        rf + np.transpose(rf, (1, 2, 0, 3)) + np.transpose(rf, (2, 0, 1, 3))))) / scale
    data = CurvatureData(x, g, gamma, dgamma, low, frame, rf, sym, bianchi)
    if sym > SYMMETRY_TOL or bianchi > SYMMETRY_TOL:
        raise AssertionError(
            f"curvature symmetry defects too large: {sym:.3e}, {bianchi:.3e}")
    return data


def curvature_operator_matrix(data: CurvatureData) -> np.ndarray:
    """The symmetric operator on two-vectors, entries R[a,b,d,c] over
    ordered pairs a<b, c<d; gamma * Id on constant-curvature charts."""
    m = data.riemann.shape[0]
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    mat = np.zeros((len(pairs), len(pairs)))
    for r, (a, b) in enumerate(pairs):
        for s, (c, d) in enumerate(pairs):
            mat[r, s] = data.riemann[a, b, d, c]
    return mat


def weitzenbock_at(metric: ChartMetric, point, p: int,
                   data: CurvatureData | None = None) -> np.ndarray:
    """Matrix of the curvature term of the Bochner formula on p-forms,
    in the orthonormal frame at the point.

    Definitional double sum: for each argument slot replaced by a frame
    vector, the induced curvature action on the form is expanded through
    the frame Riemann tensor.
    """
    if data is None:
        data = curvature_at(metric, point)
    m = metric.m
    rf = data.riemann
    idx = multi_indices(m, p)
    pos = {I: t for t, I in enumerate(idx)}
    dim = len(idx)
    W = np.zeros((dim, dim))
    if p == 0:
        return W
    for t, I in enumerate(idx):
        for j_slot in range(p):
            Xj = I[j_slot]
            for i in range(1, m + 1):
                base = list(I)
                base[j_slot] = i
                for k_slot in range(p):
                    cur = base[k_slot]
                    for d in range(1, m + 1):
                        coeff = rf[i - 1, Xj - 1, cur - 1, d - 1]
                        if coeff == 0.0:
                            continue
                        args = list(base)
                        args[k_slot] = d
                        sign, K = sort_with_sign(args)
                        if sign == 0:
                            continue
                        W[t, pos[K]] -= coeff * sign
    return W


# ---------------------------------------------------------------------------
# Finite-difference Bochner check.
# ---------------------------------------------------------------------------

def _form_evaluator(omega: PolyForm):
    idx = multi_indices(omega.m, omega.p)
    polys = [omega.coeffs.get(I) for I in idx]

    def ev(x):
        return np.array([float(c.evaluate(list(x))) if c is not None else 0.0
                         for c in polys])

    return ev


def _fd(field, x, k, h):
    e = np.zeros_like(x)
    e[k] = h
    return (field(x + e) - field(x - e)) / (2.0 * h)


def _gamma_correct_form(gamma, vals, idx, pos, k, m):
    """Christoffel correction -sum_slot Gamma^a_{k i_slot} w_{I[slot]->a}."""
    out = np.zeros(len(idx))
    for t, I in enumerate(idx):
        corr = 0.0
        for slot, isl in enumerate(I):
            for a in range(1, m + 1):
                gam = gamma[a - 1, k, isl - 1]
                if gam == 0.0:
                    continue
                sign, K = sort_with_sign(I[:slot] + (a,) + I[slot + 1:])
                if sign == 0:
                    continue
                corr += gam * sign * vals[pos[K]]
        out[t] = corr
    return out


def _delta_at(metric: ChartMetric, field, p: int, x, h):
    """Codifferential of a p-form field at x: -g^{kl} i_k (nabla_l .)."""
    m = metric.m
    idx = multi_indices(m, p)
    pos = {I: t for t, I in enumerate(idx)}
    out_idx = multi_indices(m, p - 1)
    g = metric.value(x)
    ginv = np.linalg.inv(g)
    gamma = christoffels(metric, x)
    vals = field(x)
    nabla = np.zeros((m, len(idx)))
    for k in range(m):
        nabla[k] = _fd(field, x, k, h) - _gamma_correct_form(gamma, vals, idx, pos, k, m)
    out = np.zeros(len(out_idx))
    for t, J in enumerate(out_idx):
        total = 0.0
        for k in range(m):
            for l in range(m):
                w = ginv[k, l]
                if w == 0.0:
                    continue
                sign, K = sort_with_sign((l + 1,) + J)
                if sign == 0:
                    continue
                total += w * sign * nabla[k][pos[K]]
        out[t] = -total
    return out


def _d_at(metric: ChartMetric, field, p: int, x, h):
    """Exterior derivative of a p-form field at x (metric-free)."""
    m = metric.m
    idx = multi_indices(m, p)
    pos = {I: t for t, I in enumerate(idx)}
    out_idx = multi_indices(m, p + 1)
    partials = np.array([_fd(field, x, k, h) for k in range(m)])
    out = np.zeros(len(out_idx))
    for t, K in enumerate(out_idx):
        total = 0.0
        for s in range(p + 1):
            rest = K[:s] + K[s + 1:]
            total += (-1) ** s * partials[K[s] - 1][pos[rest]]
        out[t] = total
    return out


def _rough_laplacian_at(metric: ChartMetric, field, p: int, x, h):
    """Connection Laplacian nabla* nabla at x, outer derivative by FD."""
    m = metric.m
    idx = multi_indices(m, p)
    pos = {I: t for t, I in enumerate(idx)}

    def first_derivative(y):
        gamma_y = christoffels(metric, y)
        vals_y = field(y)
        rows = np.zeros((m, len(idx)))
        for l in range(m):
            rows[l] = _fd(field, y, l, h) - _gamma_correct_form(
                gamma_y, vals_y, idx, pos, l, m)
        return rows

    g = metric.value(x)
    ginv = np.linalg.inv(g)
    gamma = christoffels(metric, x)
    T = first_derivative(x)
    out = np.zeros(len(idx))
    for k in range(m):
        ek = np.zeros(m)
        ek[k] = h
        fd_T = (first_derivative(x + ek) - first_derivative(x - ek)) / (2.0 * h)
        for l in range(m):
            # (nabla_k T)[l] = d_k T[l] - Gamma^a_{kl} T[a] - form-slot terms
            row = fd_T[l].copy()
            for a in range(m):
                gam = gamma[a, k, l]
                if gam:
                    row -= gam * T[a]
            row -= _gamma_correct_form(gamma, T[l], idx, pos, k, m)
            out -= ginv[k, l] * row
    return out


def _frame_compound(frame: np.ndarray, p: int) -> np.ndarray:
    """Matrix sending coordinate components to orthonormal-frame
    components of a p-form."""
    m = frame.shape[0]
    idx = multi_indices(m, p)
    dim = len(idx)
    out = np.zeros((dim, dim))
    for r, I in enumerate(idx):
        for s, J in enumerate(idx):
            sub = frame[np.ix_([j - 1 for j in J], [i - 1 for i in I])]
            out[r, s] = np.linalg.det(sub)
    return out


@dataclass
class BochnerReport:
    point: np.ndarray
    h: float
    residual: float
    residual_half: float

    @property
    def order(self) -> float:
        if self.residual_half == 0:
            return float("inf")
        return math.log2(self.residual / self.residual_half)


def bochner_residual(metric: ChartMetric, omega: PolyForm, point,
                     h: float = 1e-3) -> BochnerReport:
    """|Delta w - nabla*nabla w - W w| at the point, all derivative
    compositions by centred differences with step h (and h/2 for the
    order estimate)."""
    if not 1e-4 <= h <= 1e-2:
        raise ValueError("step size outside [1e-4, 1e-2]")
    x = np.asarray(point, dtype=float)
    m, p = metric.m, omega.p

    def residual_for(step: float) -> float:
        ev = _form_evaluator(omega)
        hodge = np.zeros(len(multi_indices(m, p)))
        if p >= 1:
            delta_field = lambda y: _delta_at(metric, ev, p, y, step)
            hodge = hodge + _d_at(metric, delta_field, p - 1, x, step)
        if p <= m - 1:
            d_field = lambda y: _d_at(metric, ev, p, y, step)
            hodge = hodge + _delta_at(metric, d_field, p + 1, x, step)
        rough = _rough_laplacian_at(metric, ev, p, x, step)
        data = curvature_at(metric, x)
        Wmat = weitzenbock_at(metric, x, p, data)
        comp = _frame_compound(data.frame, p)
        w_coord = np.linalg.solve(comp, Wmat @ (comp @ ev(x)))
        resid = hodge - rough - w_coord
        return float(np.linalg.norm(comp @ resid))

    return BochnerReport(x, h, residual_for(h), residual_for(h / 2.0))


@dataclass
class GallotMeyerReport:
    gamma: float
    points_checked: int
    forms_checked: int
    min_curvature_eigenvalue: float
    worst_margin: float
    passed: bool


def gallot_meyer_check(metric: ChartMetric, p: int, gamma: float,
                       points, forms_per_point: int = 5, seed: int = 0,
                       tol: float = 1e-8) -> GallotMeyerReport:
    """Check <W w, w> >= p(m-p) gamma |w|^2 at sample points, after
    certifying that the curvature operator is bounded below by gamma."""
    m = metric.m
    rng = np.random.Generator(np.random.Philox(key=seed))
    dim = len(multi_indices(m, p))
    min_eig = float("inf")
    worst = float("inf")
    count = 0
    for pt in points:
        data = curvature_at(metric, pt)
        op = curvature_operator_matrix(data)
        eigs = np.linalg.eigvalsh(op)
        min_eig = min(min_eig, float(eigs.min()))
        if eigs.min() < gamma - tol:
            return GallotMeyerReport(gamma, len(points), 0, min_eig,
                                     float("-inf"), False)
        Wmat = weitzenbock_at(metric, pt, p, data)
        bound = p * (m - p) * gamma
        for _ in range(forms_per_point):
            v = rng.standard_normal(dim)
            norm = float(v @ v)
            margin = float(v @ Wmat @ v) - bound * norm
            worst = min(worst, margin / max(norm, 1e-30))
            count += 1
    return GallotMeyerReport(gamma, len(points), count, min_eig, worst,
                             worst >= -tol)
