"""Independent oracles for the spectral certificate.

``sphere_matrix`` is the general boundary pairing of two lists of
forms, with or without the pullback.  ``full_stiffness`` pairs the
stiffness matrix A entry by entry, as assembly did before the pointwise
eigenform certificate made it redundant, and ``certify_eigenvalue``
takes the exact multiplicity of an eigenvalue as the nullity of
A - theta G over the whole matrix.  The rational ``rank``, ``nullity``
and ``solve`` live here with them, since only tests need them.
"""

from fractions import Fraction

from formlab.ball import boundary_delta_rep, normal_part
from formlab.linalg import rref
from formlab.quadrature import integrate_pairs
from formlab.spectral import _trace


def sphere_matrix(rows, cols, domain, pullback=True):
    """Exact matrix of int_S <J*row, J*col>, or of <row, col> without
    ``pullback``, for any two lists of forms: the general pairing that
    ``spectral._sphere_matrix`` specialises to one symmetric list."""
    def parts(form):
        if pullback:
            return _trace(form, domain)
        return {(1, I): c for I, c in form.coeffs.items()}

    row_parts, col_parts = [parts(u) for u in rows], [parts(v) for v in cols]
    return [[integrate_pairs([(key[0], c, b[key]) for key, c in a.items() if key in b],
                             domain.radius)
             for b in col_parts] for a in row_parts]


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullity(rows, ncols: int) -> int:
    return ncols - rank(rows)


def solve(rows, rhs):
    """One solution of ``rows @ X = rhs`` (one column per right-hand
    side, all from one elimination) or None if any is inconsistent.

    Free variables are set to zero.
    """
    aug = [list(r) + list(b) for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    n = len(rows[0]) if rows else 0
    if any(pc >= n for pc in pivots):
        return None
    k = len(rhs[0]) if rhs else 0
    x = [[Fraction(0)] * k for _ in range(n)]
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n:]
    return x


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scalar_mul(s, a):
    return [[s * x for x in row] for row in a]


def full_stiffness(assembly):
    """A_ij = int_S <J*(T phi_i), J* phi_j> paired in full: for the
    Dirichlet-to-Neumann maps with T phi = -i_N d ext; for the boundary
    Hodge Laplacian as its Dirichlet form |delta^S phi|^2 + |d^S phi|^2,
    the d-part for p <= m-2 only.  A non-symmetric result fails."""
    dom = assembly.domain
    reps = [w for blk in assembly.blocks for w in blk.basis]
    if assembly.operator == "hodge-boundary":
        delta_reps = [boundary_delta_rep(w, dom) for w in reps]
        A = sphere_matrix(delta_reps, delta_reps, dom)
        if assembly.p <= dom.m - 2:
            d_reps = [w.d() for w in reps]
            A = mat_add(A, sphere_matrix(d_reps, d_reps, dom))
        return A
    traced = [-normal_part(ext.d(), dom)
              for blk in assembly.blocks for ext in blk.extensions]
    A = sphere_matrix(traced, reps, dom)
    assert A == [list(col) for col in zip(*A)], "stiffness matrix not symmetric"
    return A


def certify_eigenvalue(assembly, theta, A=None) -> int:
    """Exact multiplicity of theta: the nullity of A - theta G over Q,
    with A the fully paired stiffness matrix unless given."""
    A = full_stiffness(assembly) if A is None else A
    return nullity(mat_sub(A, scalar_mul(Fraction(theta), assembly.G)), assembly.dim)
