"""Boundary calculus on the sphere bounding a Euclidean ball.

The boundary Sigma = S^{m-1}(R) carries the inner unit normal
N = -x/R, so the shape operator is (1/R) Id, every principal curvature
equals c = 1/R and the mean curvature is H = c.

Boundary forms are represented by ambient polynomial forms; the
pullback inner product is computed through the pointwise splitting

    <J* a, J* b> = <a, b> - <i_N a, i_N b>   on Sigma,

which keeps every boundary computation inside polynomial arithmetic.
Pairings are returned as pair lists, which ``BallDomain.interior`` and
``BallDomain.boundary`` integrate without building a product; the
identity checks integrate only through these two methods, so the domain
is the one module that knows how to integrate over itself.  They import
``quadrature`` when called, so that a run using ball only for its
boundary calculus (a spectrum run) loads no quadrature.
The tangential codifferential is assembled from ambient data through

    delta^S (J* w) = J*(delta w) + i_N(grad_N w) + S^[p-1](i_N w) - nH i_N w,

whose correctness is certified independently by an adjointness test
against the tangential differential.

Weights are polynomials: ``WeightFunction`` holds f, its gradient, its
Hessian and its Laplacian as ``Polynomial``s, and its normal derivative
on a domain is one too, so the domain's two integrals take each of them
as their weight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .polynomials import Polynomial
from .polyform import PolyForm, PolyVectorField


class BallDomain:
    """The solid ball of radius R in R^m with its boundary sphere.

    Immutable, and equal and hashed by ``(m, radius)``."""

    def __init__(self, m: int, radius):
        radius = Fraction(radius)
        if m < 2:
            raise ValueError("need ambient dimension >= 2")
        if radius <= 0:
            raise ValueError("radius must be positive")
        vars(self).update(m=m, radius=radius)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: BallDomain is immutable")

    def __eq__(self, other):
        if type(other) is not BallDomain:
            return NotImplemented
        return (self.m, self.radius) == (other.m, other.radius)

    def __hash__(self):
        return hash((self.m, self.radius))

    def __repr__(self):
        return f"BallDomain(m={self.m!r}, radius={self.radius!r})"

    @property
    def curvature(self) -> Fraction:
        """c = 1/R, the common principal curvature of the boundary."""
        return 1 / self.radius

    @property
    def boundary_dim(self) -> int:
        return self.m - 1

    @cached_property
    def _normal(self) -> PolyVectorField:
        # cached in the instance dict, outside the fields, equality and hash
        return PolyVectorField.position(self.m) * Fraction(-1, 1) * (1 / self.radius)

    def normal_field(self) -> PolyVectorField:
        """Ambient extension of the inner unit normal, -x/R (built once
        per domain)."""
        return self._normal

    def interior(self, pairs, weight=1) -> Fraction:
        """int over the ball of weight * sum_k s_k a_k b_k, for the pair
        list ``pairs`` of triples (s_k, a_k, b_k)
        (``quadrature.integrate_pairs``)."""
        from .quadrature import integrate_pairs
        return integrate_pairs(pairs, self.radius, weight, "ball")

    def boundary(self, pairs, weight=1) -> Fraction:
        """int over Sigma of weight * sum_k s_k a_k b_k, as ``interior``."""
        from .quadrature import integrate_pairs
        return integrate_pairs(pairs, self.radius, weight, "sphere")


def normal_part(omega: PolyForm, domain: BallDomain) -> PolyForm:
    """Ambient representative of i_N omega (degree drops by one)."""
    if omega.p == 0:
        raise ValueError("normal contraction needs degree >= 1")
    return omega.interior(domain.normal_field())


def inner_pairs(a: PolyForm, b: PolyForm, scale=1) -> list[tuple]:
    """The terms ``(scale, a_I, b_I)`` of ``scale * <a, b>``, the form in
    which ``quadrature.integrate_pairs`` integrates a pairing without
    building its product."""
    if a.p != b.p:
        raise ValueError("degree mismatch")
    return [(scale, c, b.coeffs[I]) for I, c in a.coeffs.items() if I in b.coeffs]


def jstar_pairs(a: PolyForm, b: PolyForm, domain: BallDomain, scale=1) -> list[tuple]:
    """The terms of ``scale * <J*a, J*b>`` on Sigma, by the splitting
    <a, b> - <i_N a, i_N b>."""
    pairs = inner_pairs(a, b, scale)
    if a.p >= 1:
        pairs += inner_pairs(normal_part(a, domain), normal_part(b, domain), -scale)
    return pairs


def boundary_delta_rep(omega: PolyForm, domain: BallDomain) -> PolyForm:
    """Ambient representative of delta^Sigma(J* omega)."""
    if omega.p == 0:
        raise ValueError("codifferential of a boundary 0-form")
    n = domain.boundary_dim
    c = domain.curvature
    normal = domain.normal_field()
    i_n = normal_part(omega, domain)
    rep = omega.delta() if omega.p >= 1 else PolyForm.zero(domain.m, 0)
    rep = rep + omega.deriv_along(normal).interior(normal)
    rep = rep + i_n * ((omega.p - 1) * c) - i_n * (n * c)
    return rep


def normal_split_residual(omega: PolyForm, domain: BallDomain) -> Fraction:
    """Exact L^2(Sigma) residual of the splitting identity

    d^S(i_N w) + i_N dw - J*(grad_N w) + S^[p](J* w) = 0,

    a ``Fraction`` in units of |S^{m-1}(1)|, as every integral of
    ``quadrature`` is; the identity holds when it is 0, so no caller
    converts it to a float.
    """
    if omega.p == 0:
        raise ValueError("needs degree >= 1")
    normal = domain.normal_field()
    rep = normal_part(omega, domain).d()
    if omega.p <= domain.m - 1:
        rep = rep + omega.d().interior(normal)
    rep = rep - omega.deriv_along(normal)
    rep = rep + omega * (omega.p * domain.curvature)
    return domain.boundary(jstar_pairs(rep, rep, domain))


def b_term_pairs(omega: PolyForm, domain: BallDomain) -> list[tuple]:
    """The terms of the boundary quadratic form

    B(w,w) = <S^[p] J*w, J*w> + nH |i_N w|^2 - <S^[p-1] i_N w, i_N w>,

    with S^[q] = q c on the sphere: pc |w|^2 + (n - 2p + 1) c |i_N w|^2.
    """
    if omega.p < 1:
        raise ValueError("needs degree >= 1")
    p = omega.p
    n = domain.boundary_dim
    c = domain.curvature
    i_n = normal_part(omega, domain)
    return inner_pairs(omega, omega, p * c) + inner_pairs(i_n, i_n, (n - 2 * p + 1) * c)


def b_term_alternate_pairs(omega: PolyForm, domain: BallDomain) -> list[tuple]:
    """The terms of the two-term shape-operator expression for B, valid
    for exact forms:

    <S^[q] J*w, J*w> + <S^[m-q] J*(star w), J*(star w)>,  q = deg w.
    """
    if omega.p < 1:
        raise ValueError("needs degree >= 1")
    q = omega.p
    c = domain.curvature
    dual = omega.star()
    return jstar_pairs(omega, omega, domain, q * c) \
        + jstar_pairs(dual, dual, domain, (domain.m - q) * c)


class WeightFunction:
    """A polynomial f with its derivatives, all ``Polynomial``s computed
    from f on construction: ``grad`` (the partials of f), ``hess`` (the
    matrix of second partials, rows of the lift ``FormBody.lift_by``
    takes) and ``lap``, the non-negative-convention Laplacian, i.e. minus
    the trace of the Hessian.  It is the one home of f's derivatives:
    every identity check that needs a polynomial's Hessian or Laplacian,
    a weight's or not, reads it and the gradient from here.  ``kind``
    names the weight in identity reports."""

    __slots__ = ("kind", "f", "grad", "hess", "lap")

    def __init__(self, kind: str, f: Polynomial):
        m = f.m
        self.kind, self.f = kind, f
        self.grad = tuple(f.partial(k) for k in range(1, m + 1))
        self.hess = tuple(tuple(g.partial(l) for l in range(1, m + 1)) for g in self.grad)
        self.lap = -self.hess[0][0]
        for k in range(1, m):
            self.lap = self.lap - self.hess[k][k]

    @property
    def m(self) -> int:
        return self.f.m

    @classmethod
    def polynomial(cls, poly: Polynomial) -> "WeightFunction":
        return cls("polynomial", poly)

    def normal_derivative(self, domain: BallDomain) -> Polynomial:
        """f_N = <grad f, N> with the inner normal, as a polynomial on Sigma."""
        return PolyVectorField(self.grad).dot(domain.normal_field())


def canonical_weight(domain: BallDomain) -> WeightFunction:
    """The distance-based concave weight on the ball.

    On a ball of radius R the weight rho - (c/2) rho^2 built from the
    boundary distance rho = R - r collapses to the polynomial
    (R^2 - r^2)/(2R): it vanishes on Sigma, has unit inner-normal
    derivative there, and its Hessian is exactly -(1/R) Id.
    """
    m = domain.m
    R = domain.radius
    poly = (Polynomial.constant(m, R * R) - Polynomial.radius_squared(m)) * Fraction(1, 2) * (1 / R)
    return WeightFunction("canonical-distance", poly)
