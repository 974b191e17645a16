"""Product-building oracles for the library's pair lists.

The library integrates every pairing from its pair list
(``quadrature.integrate_pairs``) without building a product.  The tests
rebuild the same pairing as a polynomial density and integrate that
instead, so the two paths check each other.
"""

from formlab.ball import jstar_pairs
from formlab.polynomials import Polynomial


def pairs_density(pairs, m: int) -> Polynomial:
    """``sum_k s_k a_k b_k`` of the triples ``(s_k, a_k, b_k)``, built as
    a polynomial."""
    total = Polynomial.zero(m)
    for s, a, b in pairs:
        total = total + a * b * s
    return total


def jstar_density(a, b, domain) -> Polynomial:
    """Pointwise <J*a, J*b> on the sphere as a polynomial density."""
    return pairs_density(jstar_pairs(a, b, domain), domain.m)
