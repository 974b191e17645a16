"""Pointwise exterior algebra over R^m.

Forms are stored on the basis of strictly increasing multi-indices
``(i_1 < ... < i_p)`` with 1-based entries, which is orthonormal for
the Euclidean metric.  The orientation convention is lexicographic:
``star(dx_I) = sign(I, I^c) dx_{I^c}`` where the sign is the parity of
the permutation ``(I, I^c)`` of ``(1, ..., m)``.

The low-level helpers (`wedge_terms`, `interior_terms`, ...) operate on
plain coefficient dicts and are agnostic about the coefficient ring.
`FormBody` is the one class body built on them: validation, the linear
structure, equality, `wedge`, `interior`, `star`, `inner`, `norm_sq`,
`lift_by` and repr.  `ConstantForm` (scalar coefficients, here) and
`formlab.polyform.PolyForm` (polynomial coefficients, which adds the
calculus) each subclass it and supply only how a scalar becomes a
coefficient and the zero that `inner` starts from.

A matrix is a list of rows throughout formlab, and it acts on forms
only through `FormBody.lift_by`, the one matrix lift, which checks that
it is m x m.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

MultiIndex = tuple[int, ...]


def multi_indices(m: int, p: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing p-tuples in 1..m, lexicographic."""
    if p < 0 or p > m:
        return ()
    return tuple(itertools.combinations(range(1, m + 1), p))


def sort_with_sign(seq) -> tuple[int, MultiIndex | None]:
    """Sort a tuple of indices, returning (parity, sorted) or (0, None)
    when an index repeats."""
    lst = list(seq)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and lst[j - 1] == lst[j]:
            return 0, None
    return sign, tuple(lst)


def wedge_index(I: MultiIndex, J: MultiIndex) -> tuple[int, MultiIndex] | None:
    sign, K = sort_with_sign(I + J)
    if sign == 0:
        return None
    return sign, K


def star_index(I: MultiIndex, m: int) -> tuple[int, MultiIndex]:
    Ic = tuple(i for i in range(1, m + 1) if i not in I)
    sign, _ = sort_with_sign(I + Ic)
    return sign, Ic


# ---------------------------------------------------------------------------
# Ring-agnostic operations on coefficient dicts.
# ---------------------------------------------------------------------------

def _accumulate(out: dict, key: MultiIndex, value) -> None:
    cur = out.get(key)
    out[key] = value if cur is None else cur + value


def wedge_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for I, ca in a.items():
        if not ca:
            continue
        for J, cb in b.items():
            if not cb:
                continue
            merged = wedge_index(I, J)
            if merged is None:
                continue
            sign, K = merged
            v = ca * cb
            _accumulate(out, K, v if sign > 0 else -v)
    return out


def interior_terms(components, a: dict) -> dict:
    """Interior product with the vector whose k-th component (1-based)
    is ``components[k-1]``; components live in the coefficient ring."""
    out: dict = {}
    for I, c in a.items():
        if not c:
            continue
        for pos, k in enumerate(I):
            comp = components[k - 1]
            if not comp:
                continue
            v = comp * c
            _accumulate(out, I[:pos] + I[pos + 1:], v if pos % 2 == 0 else -v)
    return out


def star_terms(a: dict, m: int) -> dict:
    out: dict = {}
    for I, c in a.items():
        if not c:
            continue
        sign, Ic = star_index(I, m)
        _accumulate(out, Ic, c if sign > 0 else -c)
    return out


def inner_terms(a: dict, b: dict, zero):
    total = zero
    for I, ca in a.items():
        cb = b.get(I)
        if cb is not None:
            total = total + ca * cb
    return total


def lift_terms(rows, a: dict, m: int) -> dict:
    """Derivation-style lift of a (1,1) tensor to p-forms.

    ``rows[i-1][j-1]`` is the matrix entry T_{ij} with T(e_j) = sum_i
    T_{ij} e_i; the induced action replaces one covector of dx_I at a
    time by the row-i covector of T.
    """
    out: dict = {}
    for I, c in a.items():
        if not c:
            continue
        for pos, i in enumerate(I):
            row = rows[i - 1]
            for j in range(1, m + 1):
                entry = row[j - 1]
                if not entry:
                    continue
                sign, K = sort_with_sign(I[:pos] + (j,) + I[pos + 1:])
                if sign == 0:
                    continue
                v = entry * c
                _accumulate(out, K, v if sign > 0 else -v)
    return out


# ---------------------------------------------------------------------------
# Forms: one class body for every coefficient ring.
# ---------------------------------------------------------------------------

class FormBody:
    """The class body of a p-form over R^m, whatever its coefficient ring.

    ``coeffs`` maps sorted multi-indices to nonzero coefficients.  A
    subclass fixes the ring through two static methods: ``_coerce(m, c)``
    turns a scalar into a coefficient, and ``_zero(m)`` is the zero that
    ``inner`` starts from.  Immutable by convention; every operation
    returns a new form of the same class, and a form equals only forms of
    its own class.
    """

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
                c = self._coerce(m, c)
                if c:
                    clean[I] = c
        self.coeffs = clean

    @classmethod
    def _of(cls, m: int, p: int, coeffs: dict):
        """Private constructor for results of the operations below, whose
        multi-indices are sorted and of length p and whose coefficients
        are in the ring by construction: drops zero coefficients without
        checking the indices again."""
        self = object.__new__(cls)
        self.m = m
        self.p = p
        self.coeffs = {I: c for I, c in coeffs.items() if c}
        return self

    @classmethod
    def zero(cls, m: int, p: int):
        return cls(m, p)

    @classmethod
    def basis(cls, m: int, I):
        """dx_I with coefficient one."""
        I = tuple(I)
        return cls(m, len(I), {I: Fraction(1)})

    def _check_mate(self, other: "FormBody"):
        if self.m != other.m:
            raise ValueError("ambient dimension mismatch")

    def __add__(self, other: "FormBody"):
        self._check_mate(other)
        if self.p != other.p:
            raise ValueError("degree mismatch")
        coeffs = dict(self.coeffs)
        for I, c in other.coeffs.items():
            coeffs[I] = coeffs[I] + c if I in coeffs else c
        return self._of(self.m, self.p, coeffs)

    def __sub__(self, other: "FormBody"):
        return self + (-other)

    def __neg__(self):
        return self._of(self.m, self.p, {I: -c for I, c in self.coeffs.items()})

    def __mul__(self, s):
        return self._of(self.m, self.p, {I: c * s for I, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self) and self.m == other.m
                and self.p == other.p and self.coeffs == other.coeffs)

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.coeffs

    def wedge(self, other: "FormBody"):
        self._check_mate(other)
        if self.p + other.p > self.m:
            raise ValueError("wedge degree exceeds ambient dimension")
        return self._of(self.m, self.p + other.p, wedge_terms(self.coeffs, other.coeffs))

    def interior(self, vector):
        """i_X for the vector X given by its m components (scalars or
        ring elements, in any iterable, a vector field included)."""
        if self.p == 0:
            raise ValueError("interior product needs degree >= 1")
        comps = tuple(self._coerce(self.m, c) for c in vector)
        if len(comps) != self.m:
            raise ValueError("vector dimension mismatch")
        return self._of(self.m, self.p - 1, interior_terms(comps, self.coeffs))

    def star(self):
        return self._of(self.m, self.m - self.p, star_terms(self.coeffs, self.m))

    def inner(self, other: "FormBody"):
        """Pointwise inner product, in the coefficient ring."""
        self._check_mate(other)
        if self.p != other.p:
            raise ValueError("degree mismatch")
        return inner_terms(self.coeffs, other.coeffs, self._zero(self.m))

    def norm_sq(self):
        return self.inner(self)

    def lift_by(self, rows):
        """Apply the p-form lift of the (1,1) tensor whose m x m matrix
        is given as rows, ``rows[i-1][j-1]`` being T_ij with T(e_j) =
        sum_i T_ij e_i (scalars or ring elements); 0 on 0-forms.  Any
        other shape raises ``ValueError``."""
        m = self.m
        if len(rows) != m or any(len(row) != m for row in rows):
            widths = "/".join(map(str, sorted({len(row) for row in rows}))) or "0"
            raise ValueError(f"lift on forms over R^{m} needs a {m}x{m} matrix, "
                             f"got {len(rows)}x{widths}")
        if self.p == 0:
            return self.zero(m, 0)
        rows = [[self._coerce(m, e) for e in row] for row in rows]
        return self._of(m, self.p, lift_terms(rows, self.coeffs, m))

    def __repr__(self):
        if not self.coeffs:
            return f"0 (p={self.p})"
        bits = []
        for I in sorted(self.coeffs):
            name = "^".join(f"dx{i}" for i in I) or "1"
            bits.append(f"({self.coeffs[I]})*{name}")
        return " + ".join(bits)


class ConstantForm(FormBody):
    """A p-form with constant (scalar) coefficients, stored as given."""

    __slots__ = ()

    @staticmethod
    def _coerce(m: int, c):
        return c

    @staticmethod
    def _zero(m: int) -> Fraction:
        return Fraction(0)
