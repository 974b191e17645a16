"""Exact integration over spheres and balls centred at the origin.

Radial densities are finite sums ``sum_j r^j P_j(x)`` with integer
exponents ``j >= -3`` and polynomial ``P_j``.  They are the integrands
of the Monte Carlo cross-check, which draws them at random
(``sampling.random_density``), odd radial exponents included.  The
identity checks weight their integrals by polynomials.

Every integral goes through one exact moment contraction,
``integrate_pairs``: it integrates ``w * sum_k s_k a_k b_k`` over the
ball or the sphere, for a weight ``w`` (a radial density, a polynomial
or a scalar), scalars ``s_k`` and polynomials ``a_k``, ``b_k``, without
building a product.  It sums the coefficient products per exponent and
contracts each sum against the weight's terms and the sphere moments,
which one table memoises as exponents are first met.  The identity
checks integrate their pointwise inner products this way, term by term,
through their domain (``ball.BallDomain.interior`` and ``boundary``,
which supply the radius and the region).  ``integrate_sphere`` and
``integrate_ball`` integrate a density (or a plain ``Polynomial``, its
r^0 part) as the weight of the single pair 1 * 1.

Every integral is a plain ``Fraction`` in units of ``|S^{m-1}(1)|``,
the measure of the unit sphere: the integral divided by that measure.
The unit is never multiplied in, so identity residuals are rational
comparisons with no transcendental arithmetic.  The one float
conversion is the caller's: the quadrature-oracle case of ``cli``
multiplies ``float(integrate_ball(...))`` by ``unit_sphere_measure(m)``
before comparing with ``mc_oracle``, whose estimates are absolute.

Floating point enters only in ``mc_oracle``, the Monte Carlo cross-check,
and in ``RadialDensity.evaluate_float``; they import numpy when called,
so the exact layers never load it.  The oracle draws its samples in
chunks of ``MC_DRAW_CHUNK``, which fixes every estimate, and evaluates
them in blocks of ``MC_BLOCK`` rows, which only bounds its working set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from .polynomials import Polynomial

MIN_RADIAL_EXPONENT = -3

# Samples per draw of the Monte Carlo oracle's generator: each chunk
# draws its normals and then its uniforms, so changing this changes
# every estimate.
MC_DRAW_CHUNK = 200_000
# Rows the oracle evaluates at once.  It bounds the working set only and
# moves no bit of any estimate.
MC_BLOCK = 8192


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def sphere_average(expo, m: int | None = None) -> Fraction:
    """Average of the monomial x^expo over the unit sphere S^{m-1}(1).

    Zero when any exponent is odd, else
    ``prod (a_i - 1)!! / prod_{k<|a|/2} (m + 2k)``.
    """
    expo = tuple(expo)
    if m is None:
        m = len(expo)
    if len(expo) != m:
        raise ValueError("exponent tuple length mismatch")
    if m < 2:
        raise ValueError("need ambient dimension >= 2")
    if any(e % 2 for e in expo):
        return Fraction(0)
    num = 1
    for e in expo:
        num *= double_factorial(e - 1)
    den = 1
    for k in range(sum(expo) // 2):
        den *= m + 2 * k
    return Fraction(num, den)


@lru_cache(maxsize=None)
def _moment(expo: tuple, m: int) -> Fraction:
    """``sphere_average(expo, m)``, memoised as exponents are first met."""
    return sphere_average(expo, m)


def unit_sphere_measure(m: int) -> float:
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


class RadialDensity:
    """``sum_j r^j P_j(x)`` with integer j >= -3 and polynomial P_j.

    Even non-negative radial exponents are folded into the polynomial
    part on construction, so stored exponents are in {-3,-2,-1,0,1}.
    """

    __slots__ = ("m", "parts")

    def __init__(self, m: int, parts=None):
        self.m = m
        folded: dict[int, Polynomial] = {}
        if parts:
            for j, poly in parts.items():
                if not isinstance(poly, Polynomial):
                    poly = Polynomial.constant(m, poly)
                if poly.m != m:
                    raise ValueError("polynomial variable count mismatch")
                if not poly:
                    continue
                if j >= 2:
                    r2 = Polynomial.radius_squared(m)
                    while j >= 2:
                        poly = poly * r2
                        j -= 2
                if j < MIN_RADIAL_EXPONENT:
                    raise ValueError(f"radial exponent {j} below {MIN_RADIAL_EXPONENT}")
                if j in folded:
                    folded[j] = folded[j] + poly
                    if not folded[j]:
                        del folded[j]
                else:
                    folded[j] = poly
        self.parts = folded

    def evaluate_float(self, points):
        """Evaluate at an (N, m) numpy array of points.

        Each power ``x_i ** e`` is computed once per call; every monomial
        is ``float(c)`` times its factors in exponent order, and the terms
        are summed in ``sorted_terms`` order, so the result does not
        depend on how the points are split into calls."""
        import numpy as np
        n = points.shape[0]
        out = np.zeros(n)
        if any(j != 0 for j in self.parts):
            r = np.sqrt(np.sum(points * points, axis=1))
        powers = {}
        for j, poly in sorted(self.parts.items()):
            vals = np.zeros(n)
            for expo, c in poly.sorted_terms():
                mono = np.full(n, float(c))
                for i, e in enumerate(expo):
                    if e:
                        if (i, e) not in powers:
                            powers[i, e] = points[:, i] ** e
                        mono *= powers[i, e]
                vals += mono
            if j:
                vals *= r ** j
            out += vals
        return out


def _radial_parts(density: RadialDensity | Polynomial) -> dict[int, Polynomial]:
    """The parts ``{j: P_j}`` of a density; a polynomial is its own r^0 part."""
    return {0: density} if isinstance(density, Polynomial) else density.parts


def _weight_terms(weight, m: int) -> list[tuple]:
    """``(j + |u|, u, c, parity)`` per term ``c r^j x^u`` of a weight, where
    ``parity`` is the bitmask of odd entries of ``u``; a scalar weight is
    one term with ``u`` None (the zero exponent)."""
    if not isinstance(weight, (RadialDensity, Polynomial)):
        return [(0, None, weight, 0)] if weight else []
    if weight.m != m:
        raise ValueError("variable count mismatch")
    return [(j + sum(u), u, c, _parity(u))
            for j, poly in _radial_parts(weight).items() for u, c in poly.terms.items()]


@lru_cache(maxsize=None)
def _parity(expo: tuple) -> int:
    """Bitmask of the odd entries of an exponent tuple."""
    return sum(1 << i for i, e in enumerate(expo) if e & 1)


def _check_radius(radius) -> None:
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")


def integrate_pairs(pairs, radius, weight=1, region: str = "sphere") -> Fraction:
    """``integrate_<region>(weight * sum_k s_k a_k b_k, radius)`` without
    building a product: ``pairs`` holds the triples
    ``(s_k, a_k, b_k)`` (a scalar and two polynomials), and ``weight`` is
    a ``RadialDensity``, a ``Polynomial`` or a scalar.

    The products ``s_k a_I b_J`` are summed per exponent ``e = I + J``;
    each sum is then contracted against
    ``sum_{j,u} w_{j,u} avg(u+e) R^power`` over the weight's terms
    ``w_{j,u} r^j x^u``, with ``power = j+|u|+|e|+m-1`` on the sphere and
    ``j+|u|+|e|+m`` (divided by ``power``) on the ball, summed per
    ``power`` before ``R`` is raised to it.  A term pair whose
    exponent has a parity class that no weight term shares averages to
    zero and is skipped before its product is formed.  On the ball a
    nonzero sum meeting a weight term with ``power <= 0`` is rejected
    as ``integrate_ball`` rejects it.  A radius ``<= 0`` is rejected in
    either region."""
    if region not in ("ball", "sphere"):
        raise ValueError(f"unknown region {region!r}")
    _check_radius(radius)
    pairs = [(s, a, b) for s, a, b in pairs if s and a and b]
    if not pairs:
        return Fraction(0)
    m = pairs[0][1].m
    wterms = _weight_terms(weight, m)
    if not wterms:
        return Fraction(0)
    base = m if region == "ball" else m - 1
    # terms r^j x^u with j + |u| <= -m may give power <= 0 on the ball
    check = region == "ball" and min(t[0] for t in wterms) + base <= 0
    classes = None if check else {t[3] for t in wterms}
    sums: dict[tuple, Fraction] = {}
    for s, a, b in pairs:
        if a.m != m or b.m != m:
            raise ValueError("variable count mismatch")
        b_terms = [(eb, cb, _parity(eb)) for eb, cb in b.terms.items()]
        for ea, ca in a.terms.items():
            pa = _parity(ea)
            sca = ca if s == 1 else s * ca
            for eb, cb, pb in b_terms:
                if classes is not None and pa ^ pb not in classes:
                    continue
                expo = tuple(map(add, ea, eb))
                sums[expo] = sums.get(expo, 0) + sca * cb
    by_class: dict[int, list] = {}
    for t in wterms:
        by_class.setdefault(t[3], []).append(t)
    by_power: dict[int, Fraction] = {}
    for expo, c in sums.items():
        if not c:
            continue
        d = sum(expo)
        if check:
            for k, u, _, _ in wterms:
                if k + d + base <= 0:
                    raise ValueError(
                        f"non-integrable radial power {k + d + base} on the ball in dim {m}")
        for k, u, w, _ in by_class.get(_parity(expo), ()):
            avg = _moment(expo if u is None else tuple(map(add, u, expo)), m)
            power = k + d + base
            by_power[power] = by_power.get(power, 0) + (c * avg if w == 1 else w * c * avg)
    R = Fraction(radius)
    if region == "ball":
        return sum((c * R ** power / power for power, c in by_power.items()), Fraction(0))
    return sum((c * R ** power for power, c in by_power.items()), Fraction(0))


def integrate_sphere(density: RadialDensity | Polynomial, radius) -> Fraction:
    """Exact integral over the sphere of the given radius, in units of
    |S^{m-1}(1)|."""
    one = Polynomial.one(density.m)
    return integrate_pairs(((1, one, one),), radius, density)


def integrate_ball(density: RadialDensity | Polynomial, radius) -> Fraction:
    """Exact integral over the solid ball of the given radius, in units
    of |S^{m-1}(1)|."""
    one = Polynomial.one(density.m)
    return integrate_pairs(((1, one, one),), radius, density, "ball")


def mc_oracle(density: RadialDensity, radius, samples: int, seed: int,
              region: str = "ball") -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the integral.

    Counter-based Philox generator keyed by the seed, so estimates are
    reproducible across platforms and independent of call order.  The
    samples are drawn in chunks of ``MC_DRAW_CHUNK``, each one call for
    its normals and then one for its radial uniforms; that schedule fixes
    the estimate.  Each chunk is then evaluated in blocks of ``MC_BLOCK``
    rows, which only bounds the working set: every row is computed the
    same way in any block, so the estimate is the same bits.
    """
    if samples < 10 ** 4:
        raise ValueError("need at least 1e4 samples")
    if region not in ("ball", "sphere"):
        raise ValueError(f"unknown region {region!r}")
    _check_radius(radius)
    import numpy as np
    m = density.m
    R = float(radius)
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty(samples)
    for done in range(0, samples, MC_DRAW_CHUNK):
        _evaluate_chunk(density, R, region, rng, out[done:done + MC_DRAW_CHUNK])
    measure = unit_sphere_measure(m) * R ** (m - 1)
    if region == "ball":
        measure = unit_sphere_measure(m) * R ** m / m
    mean = float(np.mean(out))
    std = float(np.std(out, ddof=1)) / math.sqrt(samples)
    return measure * mean, measure * std


def _evaluate_chunk(density: RadialDensity, R: float, region: str, rng, out) -> None:
    """Draw ``len(out)`` samples and write the density's values into ``out``,
    ``MC_BLOCK`` rows at a time.  The draws are freed on return, before the
    next chunk is drawn."""
    import numpy as np
    m = density.m
    n = len(out)
    g = rng.standard_normal((n, m))
    u = rng.random(n) if region == "ball" else None
    for lo in range(0, n, MC_BLOCK):
        pts = g[lo:lo + MC_BLOCK]
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        if u is None:
            pts *= R
        else:
            pts *= R * u[lo:lo + MC_BLOCK, None] ** (1.0 / m)
        out[lo:lo + MC_BLOCK] = density.evaluate_float(pts)
