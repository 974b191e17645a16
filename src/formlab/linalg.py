"""Exact linear algebra over the rationals.

Entries are exact rationals in the canonical form of ``polynomials``:
``int`` where the denominator is 1, ``fractions.Fraction`` otherwise,
mixed freely.  Every division is by a pivot promoted to ``Fraction``
first, so int input gives the same exact results as the equal
``Fraction`` input (``int / int`` would be a float).

Elimination works on sparse rows, ``{column: value}`` dicts that hold
only the nonzero entries, since the constraint rows of ``harmonic`` are
mostly zeros.  The reduced row echelon form of a matrix is unique, so
``rref`` returns the same rows whatever order they come in and whatever
pivots it meets on the way, and so does ``nullspace``.  The positive
(semi)definiteness tests read the pivots of one symmetric elimination
of a dense matrix (LDL^T, ``_ldl_pivots``): all positive for definite,
none negative for semidefinite.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Row = dict[int, Fraction]


def _exact(pivot):
    """An int pivot as a ``Fraction``, so that dividing by it stays exact."""
    return Fraction(pivot) if isinstance(pivot, int) else pivot


def _subtract(row: Row, f, pivot_row: Row) -> None:
    """row -= f * pivot_row in place, dropping the entries it zeroes."""
    for j, x in pivot_row.items():
        v = row.get(j, 0) - f * x
        if v:
            row[j] = v
        else:
            del row[j]


def rref(rows: list[Row]) -> dict[int, Row]:
    """The reduced row echelon form of the sparse rows, as {pivot column:
    row} in increasing pivot order, its zero rows left out.

    The rows are reduced one at a time against the pivots found so far.
    What is left of a row, unless it is zero, gives a new pivot at its
    smallest column: the row is scaled to 1 there and that column is
    eliminated from the earlier rows.
    """
    reduced: dict[int, Row] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        for c in [c for c in row if c in reduced]:
            _subtract(row, row[c], reduced[c])
        if not row:
            continue
        pivot = min(row)
        scale = 1 / _exact(row[pivot])
        row = {c: v * scale for c, v in row.items()}
        for other in reduced.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        reduced[pivot] = row
    return dict(sorted(reduced.items()))


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of the right nullspace of the sparse rows over ``ncols``
    columns, one sparse vector per free column in increasing order: 1 at
    its free column, minus that column's entries of the reduced rows at
    their pivots, and 0 at every other free column."""
    reduced = rref(rows)
    basis = {c: {c: 1} for c in range(ncols) if c not in reduced}
    for pivot, row in reduced.items():
        for c, v in row.items():
            if c != pivot:
                basis[c][pivot] = -v
    return list(basis.values())


def _ldl_pivots(a: Matrix) -> list[Fraction] | None:
    """The pivots of symmetric Gaussian elimination (LDL^T) on the upper
    triangle of the symmetric rational matrix a; None when a zero pivot
    meets a nonzero entry of its row, which no positive semidefinite
    matrix has.  A zero pivot with a zero row is kept and skipped."""
    m = [list(r) for r in a]
    n = len(m)
    pivots = []
    for k in range(n):
        row_k = m[k]
        d = _exact(row_k[k])
        pivots.append(d)
        if d == 0:
            if any(row_k[k + 1:]):
                return None
            continue
        for i in range(k + 1, n):
            f = row_k[i] / d
            if f:
                row_i = m[i]
                for j in range(i, n):
                    row_i[j] -= f * row_k[j]
    return pivots


def is_positive_semidefinite(a: Matrix) -> bool:
    """Exact PSD test for a symmetric rational matrix: its LDL^T
    elimination meets no negative pivot, and no zero pivot with a
    nonzero row."""
    pivots = _ldl_pivots(a)
    return pivots is not None and all(d >= 0 for d in pivots)


def is_positive_definite(a: Matrix) -> bool:
    """Exact positive-definiteness test for a symmetric rational matrix:
    its LDL^T elimination meets only positive pivots."""
    pivots = _ldl_pivots(a)
    return pivots is not None and all(d > 0 for d in pivots)
