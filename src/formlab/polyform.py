"""Differential forms on R^m with polynomial coefficients.

The flat-space calculus: exterior derivative, codifferential, Hodge
Laplacian and componentwise (rough) Laplacian, componentwise covariant
gradient, interior product with a polynomial vector field, directional
derivative, and the lift of a vector field's Jacobian to p-forms.

Sign conventions: the codifferential is ``delta = -sum_k i_{e_k} d/dx_k``
so the Hodge Laplacian ``d delta + delta d`` is non-negative and acts on
functions as minus the sum of second derivatives.
"""

from __future__ import annotations

from .exterior import (inner_terms, interior_terms, lift_terms, star_terms,
                       wedge_index, wedge_terms)
from .polynomials import Polynomial


class PolyForm:
    """A p-form whose coefficients are polynomials in x_1..x_m."""

    __slots__ = ("m", "p", "coeffs")

    def __init__(self, m: int, p: int, coeffs=None):
        if not 0 <= p <= m:
            raise ValueError(f"degree {p} out of range for m={m}")
        self.m = m
        self.p = p
        clean = {}
        if coeffs:
            for I, c in coeffs.items():
                I = tuple(I)
                if len(I) != p or any(not 1 <= i <= m for i in I) \
                        or any(I[t] >= I[t + 1] for t in range(len(I) - 1)):
                    raise ValueError(f"bad multi-index {I} for (m={m}, p={p})")
                if not isinstance(c, Polynomial):
                    c = Polynomial.constant(m, c)
                if c:
                    clean[I] = c
        self.coeffs = clean

    @classmethod
    def _of(cls, m: int, p: int, coeffs: dict) -> "PolyForm":
        """Private constructor for results of the calculus below, whose
        multi-indices are sorted and of length p and whose coefficients
        are Polynomials by construction: drops zero coefficients without
        checking the indices again."""
        self = object.__new__(cls)
        self.m = m
        self.p = p
        self.coeffs = {I: c for I, c in coeffs.items() if c}
        return self

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, m: int, p: int) -> "PolyForm":
        return cls(m, p)

    @classmethod
    def basis(cls, m: int, I, coeff=None) -> "PolyForm":
        I = tuple(I)
        c = coeff if coeff is not None else Polynomial.one(m)
        return cls(m, len(I), {I: c})

    @classmethod
    def from_function(cls, f: Polynomial) -> "PolyForm":
        return cls(f.m, 0, {(): f})

    # -- linear structure ----------------------------------------------
    def _check_mate(self, other: "PolyForm"):
        if self.m != other.m:
            raise ValueError("ambient dimension mismatch")

    def __add__(self, other: "PolyForm") -> "PolyForm":
        self._check_mate(other)
        if self.p != other.p:
            raise ValueError("degree mismatch")
        coeffs = dict(self.coeffs)
        for I, c in other.coeffs.items():
            coeffs[I] = coeffs[I] + c if I in coeffs else c
        return PolyForm._of(self.m, self.p, coeffs)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def __neg__(self) -> "PolyForm":
        return PolyForm._of(self.m, self.p, {I: -c for I, c in self.coeffs.items()})

    def __mul__(self, s) -> "PolyForm":
        return PolyForm._of(self.m, self.p, {I: c * s for I, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, PolyForm) and self.m == other.m
                and self.p == other.p and self.coeffs == other.coeffs)

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, I) -> Polynomial:
        return self.coeffs.get(tuple(I), Polynomial.zero(self.m))

    # -- calculus --------------------------------------------------------
    def d(self) -> "PolyForm":
        """Exterior derivative."""
        if self.p >= self.m:
            raise ValueError("exterior derivative of a top-degree form")
        out: dict = {}
        for I, c in self.coeffs.items():
            for k in range(1, self.m + 1):
                merged = wedge_index((k,), I)
                if merged is None:
                    continue
                dk = c.partial(k)
                if not dk:
                    continue
                sign, K = merged
                v = dk if sign > 0 else -dk
                out[K] = v if K not in out else out[K] + v
        return PolyForm._of(self.m, self.p + 1, out)

    def partial(self, k: int) -> "PolyForm":
        """Componentwise d/dx_k (the flat covariant derivative along e_k)."""
        return PolyForm._of(self.m, self.p,
                            {I: c.partial(k) for I, c in self.coeffs.items()})

    def delta(self) -> "PolyForm":
        """Codifferential, -sum_k i_{e_k} (d/dx_k)."""
        if self.p == 0:
            raise ValueError("codifferential of a 0-form")
        out: dict = {}
        for k in range(1, self.m + 1):
            dk = self.partial(k)
            comps = [Polynomial.zero(self.m)] * self.m
            comps[k - 1] = Polynomial.one(self.m)
            for J, v in interior_terms(comps, dk.coeffs).items():
                out[J] = out[J] - v if J in out else -v
        return PolyForm._of(self.m, self.p - 1, out)

    def laplacian(self) -> "PolyForm":
        """Hodge Laplacian d delta + delta d, missing ends dropped."""
        total = PolyForm.zero(self.m, self.p)
        if self.p >= 1:
            total = total + self.delta().d()
        if self.p <= self.m - 1:
            total = total + self.d().delta()
        return total

    def rough_laplacian(self) -> "PolyForm":
        """Componentwise sum_k d^2/dx_k^2; on flat R^m this is minus the
        Hodge Laplacian.  Each coefficient is built in one dict."""
        out = {}
        for I, c in self.coeffs.items():
            terms: dict = {}
            for e, v in c.terms.items():
                for i, ei in enumerate(e):
                    if ei >= 2:
                        ne = e[:i] + (ei - 2,) + e[i + 1:]
                        terms[ne] = terms.get(ne, 0) + v * (ei * (ei - 1))
            out[I] = Polynomial._of(self.m, terms)
        return PolyForm._of(self.m, self.p, out)

    def interior(self, field) -> "PolyForm":
        """Interior product with a PolyVectorField or component sequence."""
        if self.p == 0:
            raise ValueError("interior product needs degree >= 1")
        comps = field.components if isinstance(field, PolyVectorField) else tuple(field)
        if len(comps) != self.m:
            raise ValueError("vector dimension mismatch")
        comps = tuple(c if isinstance(c, Polynomial) else Polynomial.constant(self.m, c)
                      for c in comps)
        return PolyForm._of(self.m, self.p - 1, interior_terms(comps, self.coeffs))

    def deriv_along(self, field: "PolyVectorField") -> "PolyForm":
        """Directional derivative sum_k F_k d/dx_k applied componentwise."""
        out = PolyForm.zero(self.m, self.p)
        for k in range(1, self.m + 1):
            Fk = field.components[k - 1]
            if not Fk:
                continue
            out = out + self.partial(k) * Fk
        return out

    def wedge(self, other: "PolyForm") -> "PolyForm":
        self._check_mate(other)
        if self.p + other.p > self.m:
            raise ValueError("wedge degree exceeds ambient dimension")
        return PolyForm._of(self.m, self.p + other.p,
                            wedge_terms(self.coeffs, other.coeffs))

    def star(self) -> "PolyForm":
        return PolyForm(self.m, self.m - self.p, star_terms(self.coeffs, self.m))

    def inner(self, other: "PolyForm") -> Polynomial:
        """Pointwise inner product as a polynomial density."""
        self._check_mate(other)
        if self.p != other.p:
            raise ValueError("degree mismatch")
        return inner_terms(self.coeffs, other.coeffs, Polynomial.zero(self.m))

    def norm_sq(self) -> Polynomial:
        return self.inner(self)

    def lift_by(self, rows) -> "PolyForm":
        """Apply the p-form lift of the (1,1) tensor with entries
        ``rows[i-1][j-1]`` (polynomial or scalar); 0 on 0-forms."""
        if self.p == 0:
            return PolyForm.zero(self.m, 0)
        ring_rows = [[e if isinstance(e, Polynomial) else Polynomial.constant(self.m, e)
                      for e in row] for row in rows]
        return PolyForm(self.m, self.p, lift_terms(ring_rows, self.coeffs, self.m))

    def __repr__(self):
        if not self.coeffs:
            return f"0 (p={self.p})"
        bits = []
        for I in sorted(self.coeffs):
            name = "^".join(f"dx{i}" for i in I) or "1"
            bits.append(f"({self.coeffs[I]!r})*{name}")
        return " + ".join(bits)


class PolyVectorField:
    """A vector field with polynomial components."""

    __slots__ = ("m", "components")

    def __init__(self, components):
        comps = tuple(c if isinstance(c, Polynomial) else None for c in components)
        m = len(comps)
        fixed = []
        for c, raw in zip(comps, components):
            fixed.append(c if c is not None else Polynomial.constant(m, raw))
        if any(c.m != m for c in fixed):
            raise ValueError("component variable count mismatch")
        self.m = m
        self.components = tuple(fixed)

    @classmethod
    def zero(cls, m: int) -> "PolyVectorField":
        return cls([Polynomial.zero(m)] * m)

    @classmethod
    def position(cls, m: int) -> "PolyVectorField":
        return cls([Polynomial.variable(m, k) for k in range(1, m + 1)])

    @classmethod
    def constant(cls, m: int, values) -> "PolyVectorField":
        return cls([Polynomial.constant(m, v) for v in values])

    @classmethod
    def from_gradient(cls, f: Polynomial) -> "PolyVectorField":
        return cls([f.partial(k) for k in range(1, f.m + 1)])

    def __mul__(self, s) -> "PolyVectorField":
        return PolyVectorField([c * s for c in self.components])

    __rmul__ = __mul__

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField([a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField([-c for c in self.components])

    def jacobian(self) -> list[list[Polynomial]]:
        """Rows a, columns l: d F_a / dx_l, the matrix of X -> nabla_X F."""
        return [[self.components[a].partial(l) for l in range(1, self.m + 1)]
                for a in range(self.m)]

    def divergence(self) -> Polynomial:
        total = Polynomial.zero(self.m)
        for k in range(1, self.m + 1):
            total = total + self.components[k - 1].partial(k)
        return total

    def dual_one_form(self) -> PolyForm:
        return PolyForm(self.m, 1, {(k,): self.components[k - 1]
                                    for k in range(1, self.m + 1)})

    def dot(self, other: "PolyVectorField") -> Polynomial:
        total = Polynomial.zero(self.m)
        for a, b in zip(self.components, other.components):
            total = total + a * b
        return total


def gradient_action(field: PolyVectorField, omega: PolyForm) -> PolyForm:
    """Lift of the Jacobian of F to p-forms: the nabla-F operator.

    For ``F = grad f`` this is the Hessian of f acting on p-forms.
    """
    if field.m != omega.m:
        raise ValueError("ambient dimension mismatch")
    return omega.lift_by(field.jacobian())


def hessian_matrix(f: Polynomial) -> list[list[Polynomial]]:
    return [[f.partial(a).partial(l) for l in range(1, f.m + 1)]
            for a in range(1, f.m + 1)]
