"""Dense exact linear algebra over the rationals.

Everything here works on plain lists of lists of exact rationals in the
canonical form of ``polynomials``: ``int`` where the denominator is 1,
``fractions.Fraction`` otherwise, mixed freely.  Every division is by a
pivot promoted to ``Fraction`` first, so int input gives the same exact
results as the equal ``Fraction`` input (``int / int`` would be a float).
Sizes are small (a few hundred at most), so the emphasis is on
determinism and exactness rather than speed: pivoting always picks the
largest entry by absolute value, breaking ties by the smallest row
index, which makes every nullspace basis reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _copy(rows: Matrix) -> Matrix:
    return [list(r) for r in rows]


def _exact(pivot):
    """An int pivot as a ``Fraction``, so that dividing by it stays exact."""
    return Fraction(pivot) if isinstance(pivot, int) else pivot


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list."""
    a = _copy(rows)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        best_abs = None
        for i in range(r, nrows):
            v = a[i][c]
            if v != 0:
                av = abs(v)
                if best is None or av > best_abs:
                    best, best_abs = i, av
        if best is None:
            continue
        a[r], a[best] = a[best], a[r]
        piv = _exact(a[r][c])
        a[r] = [v / piv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace(rows: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of the right nullspace, one vector per free column.

    Free variables are set to 1 one at a time in increasing column
    order, so the output basis is canonical.
    """
    if not rows:
        n = ncols if ncols is not None else 0
        return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    n = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def is_positive_semidefinite(a: Matrix) -> bool:
    """Exact PSD test for a symmetric rational matrix.

    Symmetric Gaussian elimination: a negative pivot or a zero pivot
    with a nonzero row rules PSD out.
    """
    m = _copy(a)
    n = len(m)
    for k in range(n):
        d = _exact(m[k][k])
        if d < 0:
            return False
        if d == 0:
            if any(m[k][j] != 0 for j in range(k, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = m[i][k] / d
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


def is_positive_definite(a: Matrix) -> bool:
    """Exact positive-definiteness test for a symmetric rational matrix:
    symmetric Gaussian elimination (LDL^T) on the upper triangle, which
    must meet only positive pivots."""
    m = _copy(a)
    n = len(m)
    for k in range(n):
        d = _exact(m[k][k])
        if d <= 0:
            return False
        row_k = m[k]
        for i in range(k + 1, n):
            f = row_k[i] / d
            if f:
                row_i = m[i]
                for j in range(i, n):
                    row_i[j] -= f * row_k[j]
    return True

