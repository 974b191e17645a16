"""Reference paths that the library's faster ones must match.

The library integrates every pairing from its pair list
(``quadrature.integrate_pairs``) without building a product.  The tests
rebuild the same pairing as a polynomial density and integrate that
instead, so the two paths check each other.

``whole_array_mc_oracle`` is the Monte Carlo oracle without blocks:
every array holds all the samples of a draw chunk at once.
``quadrature.mc_oracle`` must return the same bits.
"""

import math

import numpy as np

from formlab.ball import jstar_pairs
from formlab.polynomials import Polynomial
from formlab.quadrature import unit_sphere_measure


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


def whole_array_evaluate(density, points):
    """``density`` at an (N, m) array of points, one whole-array
    temporary per factor, term and part."""
    n = points.shape[0]
    out = np.zeros(n)
    r = np.sqrt(np.sum(points * points, axis=1))
    for j, poly in sorted(density.parts.items()):
        vals = np.zeros(n)
        for expo, c in poly.sorted_terms():
            mono = np.full(n, float(c))
            for i, e in enumerate(expo):
                if e:
                    mono = mono * points[:, i] ** e
            vals += mono
        if j:
            vals = vals * r ** j
        out += vals
    return out


def whole_array_mc_oracle(density, radius, samples, seed, region="ball"):
    """(value, standard error) from the same draws as ``mc_oracle``:
    chunks of 200 000 samples, each drawing its normals, then its
    uniforms, evaluated whole."""
    m = density.m
    R = float(radius)
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty(samples)
    done = 0
    chunk = 200_000
    while done < samples:
        n = min(chunk, samples - done)
        g = rng.standard_normal((n, m))
        norms = np.linalg.norm(g, axis=1)
        dirs = g / norms[:, None]
        if region == "sphere":
            pts = R * dirs
        else:
            u = rng.random(n)
            pts = R * u[:, None] ** (1.0 / m) * dirs
        out[done:done + n] = whole_array_evaluate(density, pts)
        done += n
    measure = unit_sphere_measure(m) * R ** (m - 1)
    if region == "ball":
        measure = unit_sphere_measure(m) * R ** m / m
    mean = float(np.mean(out))
    std = float(np.std(out, ddof=1)) / math.sqrt(samples)
    return measure * mean, measure * std
