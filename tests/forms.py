"""Form constructions that only the tests use: the volume form, the
flat covariant gradient, the Hodge Laplacian, the split by coefficient
degree and the rows of a diagonal matrix."""

from fractions import Fraction

from formlab.polynomials import Polynomial
from formlab.polyform import PolyForm


def volume(m: int) -> PolyForm:
    """dx_1 ^ ... ^ dx_m."""
    return PolyForm.basis(m, tuple(range(1, m + 1)))


def covariant_gradient(w: PolyForm) -> tuple[PolyForm, ...]:
    """The flat covariant derivatives of w along e_1, ..., e_m."""
    return tuple(w.partial(k) for k in range(1, w.m + 1))


def hodge_laplacian(w: PolyForm) -> PolyForm:
    """d delta w + delta d w, missing ends dropped."""
    total = PolyForm.zero(w.m, w.p)
    if w.p >= 1:
        total = total + w.delta().d()
    if w.p <= w.m - 1:
        total = total + w.d().delta()
    return total


def homogeneous_parts(w: PolyForm) -> dict[int, PolyForm]:
    """w split by coefficient degree, in increasing degree."""
    parts: dict[int, dict] = {}
    for I, c in w.coeffs.items():
        for e, v in c.terms.items():
            parts.setdefault(sum(e), {}).setdefault(I, {})[e] = v
    return {d: PolyForm(w.m, w.p, {I: Polynomial(w.m, t) for I, t in cs.items()})
            for d, cs in sorted(parts.items())}


def diag(values) -> list[list]:
    """The rows of the diagonal matrix with the given diagonal, for
    ``FormBody.lift_by``."""
    values = list(values)
    return [[v if i == j else Fraction(0) for j in range(len(values))]
            for i, v in enumerate(values)]
