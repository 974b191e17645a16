"""Homogeneous polynomial form spaces by exact linear algebra.

For each ambient dimension m, coefficient degree l and form degree p we
build:

  * the full monomial space of homogeneous polynomial p-forms,
  * its subspace of harmonic fields (componentwise harmonic and
    co-closed; the componentwise Laplacian ``rough_laplacian`` is minus
    the Hodge Laplacian on flat R^m, so its kernel, row space and the
    canonical nullspace basis are the same),
  * the closed subspace (additionally d w = 0), and
  * the normal-null subspace (additionally i_x w = 0 identically).

The normal-null condition i_x w = 0 as a polynomial form is equivalent
to the vanishing of the normal contraction on any origin-centred
sphere: a homogeneous polynomial cannot be divisible by the
inhomogeneous factor |x|^2 - R^2, so vanishing on the sphere forces
identical vanishing.  This turns a boundary condition into finitely
many exact linear constraints.

Bases are computed by rational Gaussian elimination with a fixed
pivoting rule, so repeated runs produce identical bases.  A small disk
cache stores the results, one JSON document per (m, l, p, kind): schema
2 holds the monomial frame and the basis vectors, with rationals
encoded portably as decimal strings (sign carried by the numerator).
A file is trusted only when its schema and its (m, l, p, kind) match
the request, its vectors are in the reduced form every computed basis
has, which proves them linearly independent (``_in_reduced_form``),
and every decoded form satisfies the constraints that define its kind
(``_in_kind``); any other file is a miss, and the basis is recomputed
and written over it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exterior import multi_indices
from .polynomials import Polynomial, monomial_exponents
from .polyform import PolyForm, PolyVectorField

KINDS = ("P", "H", "H-closed", "H-normal-null")
SCHEMA = 2


@dataclass
class FormSpaceBasis:
    m: int
    l: int
    p: int
    kind: str
    basis: list[PolyForm]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _monomial_frame(m: int, l: int, p: int):
    """Coordinates for P_{l,p}: pairs (multi-index, exponent tuple)."""
    return [(I, e) for I in multi_indices(m, p) for e in monomial_exponents(m, l)]


def _vector_to_form(m: int, p: int, frame, vec) -> PolyForm:
    coeffs: dict = {}
    for (I, e), c in zip(frame, vec):
        if not c:
            continue
        poly = coeffs.get(I)
        add = Polynomial(m, {e: c})
        coeffs[I] = add if poly is None else poly + add
    return PolyForm(m, p, coeffs)


def _form_rows(images: list[PolyForm]) -> list[list[Fraction]]:
    """Stack form-valued images of basis vectors into constraint rows.

    Row order is fixed by sorting the occurring (multi-index, exponent)
    coordinates, so elimination is deterministic.
    """
    coords: set = set()
    for form in images:
        for I, poly in form.coeffs.items():
            for e in poly.terms:
                coords.add((I, e))
    coord_list = sorted(coords)
    rows = []
    for I, e in coord_list:
        row = []
        for img in images:
            poly = img.coeffs.get(I)
            row.append(poly.coefficient(e) if poly is not None else 0)
        rows.append(row)
    return rows


def _restrict(basis: list[PolyForm], operator) -> list[PolyForm]:
    """Sub-basis of ker(operator) within span(basis), deterministic."""
    if not basis:
        return []
    images = [operator(b) for b in basis]
    rows = _form_rows(images)
    null = linalg.nullspace(rows, len(basis))
    out = []
    for vec in null:
        form = PolyForm.zero(basis[0].m, basis[0].p)
        for c, b in zip(vec, basis):
            if c:
                form = form + b * c
        out.append(form)
    return out


def monomial_form_basis(m: int, l: int, p: int) -> FormSpaceBasis:
    """The full space of homogeneous polynomial p-forms of degree l."""
    if l < 0 or not 0 <= p <= m:
        raise ValueError("bad (l, p) range")
    frame = _monomial_frame(m, l, p)
    basis = []
    for I, e in frame:
        basis.append(PolyForm(m, p, {I: Polynomial(m, {e: 1})}))
    return FormSpaceBasis(m, l, p, "P", basis)


def harmonic_field_basis(m: int, l: int, p: int) -> FormSpaceBasis:
    """Harmonic fields: componentwise harmonic and co-closed."""
    mono = monomial_form_basis(m, l, p)
    basis = _restrict(mono.basis, PolyForm.rough_laplacian)
    if p >= 1:
        basis = _restrict(basis, lambda w: w.delta())
    return FormSpaceBasis(m, l, p, "H", basis)


def split_closed_normal_null(hbasis: FormSpaceBasis) -> tuple[FormSpaceBasis, FormSpaceBasis]:
    """Split a harmonic-field basis into (closed, normal-null) parts."""
    if hbasis.kind != "H":
        raise ValueError("expected a harmonic-field basis")
    m, l, p = hbasis.m, hbasis.l, hbasis.p
    if p <= m - 1:
        closed = _restrict(hbasis.basis, lambda w: w.d())
    else:
        closed = list(hbasis.basis)
    if p >= 1:
        position = PolyVectorField.position(m)
        normal_null = _restrict(hbasis.basis, lambda w: w.interior(position))
    else:
        # the normal contraction of a boundary function vanishes
        # identically, so the condition is vacuous on 0-forms
        normal_null = list(hbasis.basis)
    return (FormSpaceBasis(m, l, p, "H-closed", closed),
            FormSpaceBasis(m, l, p, "H-normal-null", normal_null))


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


# ---------------------------------------------------------------------------
# Disk cache.
# ---------------------------------------------------------------------------

def _encode_fraction(x: Fraction | int) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def _decode_fraction(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def _coordinates(fsb: FormSpaceBasis) -> list[list]:
    """Each basis form's coefficients in the monomial frame."""
    frame = _monomial_frame(fsb.m, fsb.l, fsb.p)
    return [[form.coeffs[I].coefficient(e) if I in form.coeffs else 0 for I, e in frame]
            for form in fsb.basis]


def _in_reduced_form(vectors: list[list]) -> bool:
    """Whether the vectors are in reduced form by their last nonzero
    coordinate: those coordinates strictly increase, each vector is 1
    there and every other vector is 0 there.  Such vectors are linearly
    independent, which this decides in O(k N), with no elimination.
    Every basis ``BasisCache`` computes has this form."""
    last = -1
    for vec in vectors:
        lead = max((i for i, c in enumerate(vec) if c), default=-1)
        if lead <= last or vec[lead] != 1 or sum(1 for v in vectors if v[lead]) != 1:
            return False
        last = lead
    return True


def _encode_basis(fsb: FormSpaceBasis) -> dict:
    frame = _monomial_frame(fsb.m, fsb.l, fsb.p)
    return {
        "schema": SCHEMA,
        "m": fsb.m, "l": fsb.l, "p": fsb.p, "kind": fsb.kind,
        "dim": fsb.dim,
        "frame": [[list(I), list(e)] for I, e in frame],
        "vectors": [[_encode_fraction(c) for c in vec] for vec in _coordinates(fsb)],
    }


def _decode_basis(doc: dict) -> FormSpaceBasis:
    m, l, p = doc["m"], doc["l"], doc["p"]
    frame = [(tuple(I), tuple(e)) for I, e in doc["frame"]]
    basis = [_vector_to_form(m, p, frame, [_decode_fraction(v) for v in vec])
             for vec in doc["vectors"]]
    return FormSpaceBasis(m, l, p, doc["kind"], basis)


def _in_kind(w: PolyForm, kind: str) -> bool:
    """Whether w satisfies the constraints that define ``kind``, each an
    exact polynomial identity: componentwise harmonic unless "P",
    co-closed for p >= 1, closed for "H-closed" with p <= m-1 and
    i_x w = 0 for "H-normal-null" with p >= 1."""
    if kind == "P":
        return True
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

    Disk writes go through a temporary file and an atomic rename, which
    keeps the single-writer contract safe under concurrent readers.  A
    file of another schema, for another (m, l, p, kind), with dependent
    vectors or with a form outside its kind is a miss.
    Misses are resolved under one re-entrant lock (computing a split
    basis asks for its "H" parent), so threads sharing the cache load or
    compute each basis once.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._memo: dict[tuple, FormSpaceBasis] = {}
        self._lock = threading.RLock()

    def _path(self, m, l, p, kind) -> str | None:
        if not self.directory:
            return None
        return os.path.join(self.directory, f"basis_m{m}_l{l}_p{p}_{kind}.json")

    def get(self, m: int, l: int, p: int, kind: str) -> FormSpaceBasis:
        if kind not in KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
        key = (m, l, p, kind)
        if key in self._memo:
            return self._memo[key]
        with self._lock:
            if key not in self._memo:
                fsb = self._load(key)
                if fsb is None:
                    fsb = self._compute(m, l, p, kind)
                    self._store(fsb)
                self._memo[key] = fsb
            return self._memo[key]

    def _load(self, key: tuple) -> FormSpaceBasis | None:
        path = self._path(*key)
        if not path or not os.path.exists(path):
            return None
        with open(path) as fh:
            doc = json.load(fh)
        if [doc.get(k) for k in ("schema", "m", "l", "p", "kind")] != [SCHEMA, *key]:
            return None
        fsb = _decode_basis(doc)
        trusted = (_in_reduced_form(_coordinates(fsb))
                   and all(_in_kind(w, fsb.kind) for w in fsb.basis))
        return fsb if trusted else None

    def _store(self, fsb: FormSpaceBasis) -> None:
        path = self._path(fsb.m, fsb.l, fsb.p, fsb.kind)
        if not path:
            return
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            # one write: json.dump streams through the pure-Python encoder
            fh.write(json.dumps(_encode_basis(fsb)))
        os.replace(tmp, path)

    def _compute(self, m, l, p, kind) -> FormSpaceBasis:
        if kind == "P":
            return monomial_form_basis(m, l, p)
        if kind == "H":
            return harmonic_field_basis(m, l, p)
        h = self.get(m, l, p, "H")
        closed, normal_null = split_closed_normal_null(h)
        other = normal_null if kind == "H-closed" else closed
        self._memo[(m, l, p, other.kind)] = other
        self._store(other)
        return closed if kind == "H-closed" else normal_null
