"""Differential forms on R^m with polynomial coefficients.

``PolyForm`` has the class body of ``exterior.ConstantForm``,
``exterior.FormBody``: validation, the linear structure, equality,
``wedge``, ``interior``, ``star``, ``inner``, ``norm_sq``, ``lift_by``
and repr.  Its coefficients are polynomials, a scalar given as one
becomes a constant polynomial, and ``inner`` starts from the zero
polynomial.  This module adds the flat-space calculus: exterior
derivative, codifferential, componentwise (rough) Laplacian,
componentwise partial derivatives, directional derivative, and the lift
of a vector field's Jacobian to p-forms.  A
``PolyVectorField`` iterates over its components, so it is the vector
that ``interior`` contracts with.

Sign conventions: the codifferential is ``delta = -sum_k i_{e_k} d/dx_k``
so the Hodge Laplacian ``d delta + delta d`` is non-negative and acts on
functions as minus the sum of second derivatives.
"""

from __future__ import annotations

from .exterior import FormBody, wedge_index
from .polynomials import Polynomial


class PolyForm(FormBody):
    """A p-form whose coefficients are polynomials in x_1..x_m.

    The linear structure, products, ``star``, ``inner`` and ``lift_by``
    are ``exterior.FormBody``'s; a scalar coefficient becomes a constant
    polynomial, and ``inner`` returns a polynomial density."""

    __slots__ = ()

    @staticmethod
    def _coerce(m: int, c) -> Polynomial:
        return c if isinstance(c, Polynomial) else Polynomial.constant(m, c)

    @staticmethod
    def _zero(m: int) -> Polynomial:
        return Polynomial.zero(m)

    @classmethod
    def from_function(cls, f: Polynomial) -> "PolyForm":
        return cls(f.m, 0, {(): f})

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
        """Codifferential, -sum_k i_{e_k} (d/dx_k), read off the partials:
        each coefficient c_I whose index I holds k gives
        -(-1)^pos dc_I/dx_k on I without k, pos being k's 0-based place
        in I.  Keys and sums run k by k."""
        if self.p == 0:
            raise ValueError("codifferential of a 0-form")
        out: dict = {}
        for k in range(1, self.m + 1):
            for I, c in self.coeffs.items():
                if k not in I:
                    continue
                dk = c.partial(k)
                if not dk:
                    continue
                pos = I.index(k)
                J = I[:pos] + I[pos + 1:]
                v = -dk if pos % 2 == 0 else dk
                out[J] = out[J] + v if J in out else v
        return PolyForm._of(self.m, self.p - 1, out)

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

    def deriv_along(self, field: "PolyVectorField") -> "PolyForm":
        """Directional derivative sum_k F_k d/dx_k applied componentwise."""
        out = PolyForm.zero(self.m, self.p)
        for k in range(1, self.m + 1):
            Fk = field.components[k - 1]
            if not Fk:
                continue
            out = out + self.partial(k) * Fk
        return out


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

    def __iter__(self):
        return iter(self.components)

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

