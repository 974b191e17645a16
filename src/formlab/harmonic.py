"""Homogeneous polynomial form spaces by exact linear algebra.

For each ambient dimension m, coefficient degree l and form degree p we
build the two kinds of harmonic fields that the spectral blocks use:

  * "H-closed", the closed harmonic fields: one nullspace of the
    stacked d and delta constraints over the monomial frame.  A form
    with d w = 0 and delta w = 0 has zero Hodge Laplacian, which on
    flat R^m is minus the componentwise Laplacian ``rough_laplacian``,
    so harmonicity needs no constraint rows of its own;
  * "H-normal-null", the co-closed, componentwise harmonic forms with
    i_x w = 0 identically: the span of i_x w over w in "H-closed" at
    (l - 1, p + 1), with the constants at l = p = 0 and nothing else at
    l = 0 or p = m.  Each i_x w is in the kind: i_x i_x = 0;
    delta i_x w = -i_x delta w = 0; and (i_x w)_I = sum_j x_j w_jI
    with every w_jI harmonic, so its Laplacian is
    2 sum_j d_j w_jI = -2 (delta w)_I = 0.  The span has
    ``expected_dim`` vectors, so it is the whole kind.

The normal-null condition i_x w = 0 as a polynomial form is equivalent
to the vanishing of the normal contraction on any origin-centred
sphere: a homogeneous polynomial cannot be divisible by the
inhomogeneous factor |x|^2 - R^2, so vanishing on the sphere forces
identical vanishing.  This turns a boundary condition into finitely
many exact linear constraints.

Bases are computed by the sparse exact elimination of ``linalg``, on
rows and coordinates read straight off the forms' terms, and each is
the one basis of its span in the reduced form of ``_in_reduced_form``:
the reduced row echelon form is unique, so any construction of a kind,
any order of its rows, and every run give the same basis.  A basis is
a tuple of forms.  A small disk cache stores the results, one JSON
document per (m, l, p, kind): schema 3 holds that key and, for each
vector, its nonzero coefficients as [frame index, str(Fraction)] pairs
in the monomial frame of ``_monomial_frame``, which the key determines.
A file is trusted only when its schema and its (m, l, p, kind) match
the request, every frame index is in range, it holds exactly
``expected_dim(m, l, p, kind)`` vectors, the dimension in closed form,
its vectors are in the reduced form every computed basis has, which
proves them linearly independent (``is_reduced_basis``), and every
decoded form satisfies the constraints that define its kind
(``_in_kind``).  Independent forms of the kind, as many as its
dimension, span it.  Any other file, a schema-2 one with its dense
coordinates included, is a miss, and the basis is recomputed and
written over it; a computed basis of any other size raises
``AssertionError``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction

from . import linalg
from .exterior import multi_indices
from .polynomials import Polynomial, monomial_exponents
from .polyform import PolyForm, PolyVectorField

KINDS = ("H-closed", "H-normal-null")
SCHEMA = 3


def _monomial_frame(m: int, l: int, p: int):
    """Coordinates for P_{l,p}: pairs (multi-index, exponent tuple)."""
    return [(I, e) for I in multi_indices(m, p) for e in monomial_exponents(m, l)]


def _vector_to_form(m: int, p: int, frame, vec: dict) -> PolyForm:
    """The form with the nonzero coordinates ``vec``, {frame index:
    coefficient}, built in frame order."""
    coeffs: dict = {}
    for i in sorted(vec):
        I, e = frame[i]
        coeffs.setdefault(I, {})[e] = vec[i]
    return PolyForm(m, p, {I: Polynomial._of(m, terms) for I, terms in coeffs.items()})


def _form_rows(images: list[PolyForm]) -> list[dict]:
    """The sparse constraint rows {image index: coefficient} of form-valued
    images of basis vectors, one row per occurring (multi-index,
    exponent) coordinate.  The reduced form of the rows is unique, so
    their order does not matter."""
    rows: dict = {}
    for j, form in enumerate(images):
        for I, poly in form.coeffs.items():
            for e, c in poly.terms.items():
                rows.setdefault((I, e), {})[j] = c
    return list(rows.values())


def _kernel(m: int, l: int, p: int, operators) -> list[PolyForm]:
    """Basis of the forms of P_{l,p} that every operator kills: one
    nullspace of the stacked images of the monomial frame, whose vectors
    (one per free column, 1 there) are in the reduced form of
    ``_in_reduced_form``."""
    frame = _monomial_frame(m, l, p)
    monomials = monomial_form_basis(m, l, p)
    rows = [row for op in operators for row in _form_rows([op(b) for b in monomials])]
    return [_vector_to_form(m, p, frame, vec) for vec in linalg.nullspace(rows, len(frame))]


def _reduced_span(m: int, l: int, p: int, forms: list[PolyForm]) -> list[PolyForm]:
    """The basis of span(forms) in the reduced form of
    ``_in_reduced_form``: the reduced row echelon form of the frame
    coordinates with the columns reversed, reversed back and taken last
    row first.  It is unique to the span, so whatever spanning set a
    kind is built from, the cached basis is the same."""
    frame = _monomial_frame(m, l, p)
    last = len(frame) - 1
    reduced = linalg.rref([{last - i: c for i, c in vec.items()}
                           for vec in _coordinates(frame, forms)])
    return [_vector_to_form(m, p, frame, {last - i: c for i, c in row.items()})
            for row in reversed(reduced.values())]


def monomial_form_basis(m: int, l: int, p: int) -> tuple[PolyForm, ...]:
    """The full space of homogeneous polynomial p-forms of degree l, one
    monomial form per frame entry."""
    if l < 0 or not 0 <= p <= m:
        raise ValueError("bad (l, p) range")
    return tuple(PolyForm(m, p, {I: Polynomial(m, {e: 1})}) for I, e in _monomial_frame(m, l, p))


def _harmonic_polynomials(m: int, l: int) -> int:
    """dim of the harmonic polynomials of degree l on R^m."""
    return math.comb(l + m - 1, m - 1) - (math.comb(l + m - 3, m - 1) if l >= 2 else 0)


def _weyl_dim(m: int, weight: tuple) -> int:
    """Weyl's dimension of the so(m) representation of highest weight
    ``weight``, padded with zeros to rank m // 2.  It is computed on
    2 (weight + rho), whose entries are integers for odd m too:
    prod over i < j of (l_i^2 - l_j^2), times prod of l_i for odd m,
    over the same product at weight 0."""
    rank = m // 2
    doubled_rho = [m - 2 - 2 * i for i in range(rank)]
    shifted = [2 * w + r for w, r in zip(list(weight) + [0] * rank, doubled_rho)]

    def product(ls):
        out = math.prod(a * a - b * b for i, a in enumerate(ls) for b in ls[i + 1:])
        return out * math.prod(ls) if m % 2 else out
    num, den = product(shifted), product(doubled_rho)
    assert num % den == 0, (m, weight)
    return num // den


def expected_dim(m: int, l: int, p: int, kind: str) -> int:
    """The dimension of the (m, l, p, kind) basis in closed form, by
    exact integer arithmetic and no elimination.  With n = m - 1:

      * "H-normal-null": the harmonic polynomials of degree l at p = 0;
        0 at l = 0 or p = m; at p = m - 1, 1 for l = 1 and 0 otherwise;
        else Weyl's so(m) dimension of the highest weight (l, 1^q),
        q = min(p, n - 1 - p), doubled for even m with q + 1 = m/2,
        where the twin weight (l, 1, ..., -1) adds as much;
      * "H-closed": 1 at l = 0 and 0 otherwise for p = 0 or p = m, the
        harmonic polynomials of degree l + 1 at p = 1, and else the
        "H-normal-null" dimension at (l + 1, p - 1), onto which i_x
        maps the closed fields one to one.

    The weights are those of the eigenforms of the Laplacian on S^n
    (Ikeda-Taniguchi, Osaka J. Math. 15, 1978).
    """
    if kind == "H-closed":
        if p in (0, m):
            return int(l == 0)
        if p == 1:
            return _harmonic_polynomials(m, l + 1)
        return expected_dim(m, l + 1, p - 1, "H-normal-null")
    if kind != "H-normal-null":
        raise ValueError(f"unknown basis kind {kind!r}")
    if p == 0:
        return _harmonic_polynomials(m, l)
    if l == 0 or p == m:
        return 0
    if p == m - 1:
        return int(l == 1)
    q = min(p, m - 2 - p)
    return (2 if 2 * (q + 1) == m else 1) * _weyl_dim(m, (l,) + (1,) * q)


def sphere_reduce(q: Polynomial, radius) -> Polynomial:
    """Canonical representative of q modulo |x|^2 - R^2.

    Eliminates the last variable's square: monomials keep exponent of
    x_m at most one.  Linear and idempotent; q vanishes on the sphere
    |x| = R exactly when its representative is 0.
    """
    R2 = Fraction(radius) ** 2
    m = q.m
    out: dict = {}
    work = q.terms
    while work:
        carry: dict = {}
        for e, c in work.items():
            if e[m - 1] < 2:
                out[e] = out.get(e, 0) + c
                continue
            # x_m^2 = R^2 - sum_{i<m} x_i^2
            base = e[:m - 1] + (e[m - 1] - 2,)
            carry[base] = carry.get(base, 0) + c * R2
            for i in range(m - 1):
                e2 = base[:i] + (base[i] + 2,) + base[i + 1:]
                carry[e2] = carry.get(e2, 0) - c
        work = carry
    return Polynomial._of(m, out)


def _coordinates(frame, forms: list[PolyForm]) -> list[dict]:
    """Each form's nonzero coefficients in the monomial frame, as
    {frame index: coefficient}."""
    index = {key: i for i, key in enumerate(frame)}
    return [{index[I, e]: c for I, poly in form.coeffs.items() for e, c in poly.terms.items()}
            for form in forms]


def _in_reduced_form(vectors: list[dict]) -> bool:
    """Whether the sparse vectors are in reduced form by their last
    nonzero coordinate: those coordinates strictly increase, each vector
    is 1 there and every other vector is 0 there.  Such vectors are
    linearly independent, which this decides in O(k N), with no
    elimination.  Every basis ``BasisCache`` computes has this form."""
    last = -1
    for vec in vectors:
        lead = max(vec, default=-1)
        if lead <= last or vec[lead] != 1 or sum(1 for v in vectors if lead in v) != 1:
            return False
        last = lead
    return True


def is_reduced_basis(m: int, l: int, p: int, forms: list[PolyForm]) -> bool:
    """Whether the forms are homogeneous p-forms of degree l on R^m in
    the reduced form of ``_in_reduced_form`` in their monomial frame,
    which proves them linearly independent.  Every basis ``BasisCache``
    computes is; it decides a loaded basis and each spectral trial
    block."""
    try:
        coordinates = _coordinates(_monomial_frame(m, l, p), forms)
    except KeyError:  # a term outside the frame
        return False
    return _in_reduced_form(coordinates)


# ---------------------------------------------------------------------------
# Disk cache.
# ---------------------------------------------------------------------------

def _encode_basis(m: int, l: int, p: int, kind: str, basis) -> dict:
    """The schema-3 document of a basis: its key, and each vector's
    nonzero coefficients as [frame index, str(Fraction)] pairs."""
    return {
        "schema": SCHEMA, "m": m, "l": l, "p": p, "kind": kind,
        "vectors": [[[i, str(c)] for i, c in vec.items()]
                    for vec in _coordinates(_monomial_frame(m, l, p), basis)],
    }


def _decode_basis(doc: dict) -> tuple[PolyForm, ...]:
    """The forms of a schema-3 document, in its order.  Whether they are
    a basis of their kind is ``BasisCache._load``'s decision."""
    m, l, p = doc["m"], doc["l"], doc["p"]
    frame = _monomial_frame(m, l, p)
    vectors = [{i: Fraction(c) for i, c in vec} for vec in doc["vectors"]]
    if any(i not in range(len(frame)) for vec in vectors for i in vec):
        raise ValueError("frame index out of range")
    return tuple(_vector_to_form(m, p, frame, vec) for vec in vectors)


def _in_kind(w: PolyForm, kind: str) -> bool:
    """Whether w satisfies the constraints that define ``kind``, each an
    exact polynomial identity: componentwise harmonic, co-closed for
    p >= 1, closed for "H-closed" with p <= m-1 and
    i_x w = 0 for "H-normal-null" with p >= 1."""
    conditions = [w.rough_laplacian()]
    if w.p >= 1:
        conditions.append(w.delta())
    if kind == "H-closed" and w.p <= w.m - 1:
        conditions.append(w.d())
    if kind == "H-normal-null" and w.p >= 1:
        conditions.append(w.interior(PolyVectorField.position(w.m)))
    return all(c.is_zero() for c in conditions)


class BasisCache:
    """Memoising store for form-space bases, optionally disk-backed.

    ``get`` returns a basis as a tuple of forms.  Disk writes go through
    a temporary file and an atomic rename, so readers only ever see
    whole files.  The forked workers of the command line's ``--jobs``
    each hold their own memo; two that miss the same basis both compute
    it and write the same bytes.  A file is a miss, rebuilt and
    rewritten, when it is not a well-formed schema-3 document (not
    JSON, nested too deep for the parser, truncated, a zero denominator,
    a frame index out of range), is of another schema, is for another
    (m, l, p, kind), has dependent vectors, has a form outside its kind
    or has a vector count other than ``expected_dim``.  A miss computes
    and stores the requested basis and the one it is built from, the
    "H-closed" basis at (l - 1, p + 1) for "H-normal-null".  An instance
    is not shared between threads: no run starts any, and each forked
    worker holds its own.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._memo: dict[tuple, tuple[PolyForm, ...]] = {}
        # the trial blocks that ``spectral`` builds on these bases, kept
        # here so that they live exactly as long as the bases they read
        self.trial_blocks: dict = {}

    def _path(self, m, l, p, kind) -> str | None:
        if not self.directory:
            return None
        return os.path.join(self.directory, f"basis_m{m}_l{l}_p{p}_{kind}.json")

    def get(self, m: int, l: int, p: int, kind: str) -> tuple[PolyForm, ...]:
        if kind not in KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
        key = (m, l, p, kind)
        if key not in self._memo:
            basis = self._load(key)
            if basis is None:
                basis = self._compute(*key)
                self._store(key, basis)
            self._memo[key] = basis
        return self._memo[key]

    def _load(self, key: tuple) -> tuple[PolyForm, ...] | None:
        path = self._path(*key)
        if not path or not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if [doc.get(k) for k in ("schema", "m", "l", "p", "kind")] != [SCHEMA, *key]:
                return None
            basis = _decode_basis(doc)
        except (ValueError, TypeError, KeyError, AttributeError, ZeroDivisionError,
                RecursionError):
            # not JSON, nested too deep to parse, not a document, or
            # entries of the wrong shape
            return None
        trusted = (len(basis) == expected_dim(*key)
                   and is_reduced_basis(*key[:3], basis)
                   and all(_in_kind(w, key[3]) for w in basis))
        return basis if trusted else None

    def _store(self, key: tuple, basis: tuple[PolyForm, ...]) -> None:
        path = self._path(*key)
        if not path:
            return
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            # one write: json.dump streams through the pure-Python encoder
            fh.write(json.dumps(_encode_basis(*key, basis)))
        os.replace(tmp, path)

    def _compute(self, m, l, p, kind) -> tuple[PolyForm, ...]:
        if kind == "H-closed":
            basis = _kernel(m, l, p, [PolyForm.d] * (p < m) + [PolyForm.delta] * (p > 0))
        elif l == 0 or p == m:
            basis = monomial_form_basis(m, l, p) if l == p == 0 else ()
        else:
            position = PolyVectorField.position(m)
            basis = _reduced_span(m, l, p, [w.interior(position) for w in
                                            self.get(m, l - 1, p + 1, "H-closed")])
        if len(basis) != expected_dim(m, l, p, kind):
            raise AssertionError(f"basis ({m}, {l}, {p}, {kind}) has {len(basis)} vectors, "
                                 f"expected {expected_dim(m, l, p, kind)}")
        return tuple(basis)
