"""Independent oracles for the spectral certificate.

``sphere_matrix`` is the general boundary pairing of two lists of
forms, with or without the pullback, by sphere moments.
``full_gram`` pairs the Gram matrix G with it entry by entry, across
blocks too, as assembly did before G was built from Fischer products
block by block; ``full_stiffness`` pairs the stiffness matrix A the
same way, as assembly did before the pointwise eigenform certificate
made it redundant; ``_gram_block`` builds one block G_b from Fischer
products (``_fischer``), as assembly did before positive definiteness
was proved from the reduced form of each block's basis;
``block_gram`` and ``block_stiffness`` lay out the blocks G_b and
theta_b G_b of an assembly as the full block-diagonal matrices, for
comparison with those two; and ``certify_eigenvalue``
takes the exact multiplicity of an eigenvalue as the nullity of
A - theta G over the whole matrix.  ``reference_bases`` builds the
harmonic fields "H" and the two cached kinds by restriction, as the
cache did before each kind was built from its own definition, and
``harmonic_fields`` gives "H" as the span of the two cached kinds, as
the cache built it before it stopped caching "H".  ``dense_rref`` and
``dense_nullspace`` are the dense elimination ``linalg`` did before it
went sparse, with its largest-entry pivot search: the reference for the
sparse one.  The rational ``rank``, ``nullity`` and ``solve`` are built
on it here, since only tests need them.  ``unit_vector_delta`` is the
codifferential as ``PolyForm.delta`` computed it before it read each
coefficient's partials directly: each partial-derivative form
contracted with a unit vector of polynomials.
"""

import math
from fractions import Fraction
from functools import cache

from formlab.ball import BallDomain, boundary_delta_rep, normal_part
from formlab.harmonic import KINDS, _form_rows, _reduced_span, monomial_form_basis
from formlab.linalg import nullspace
from formlab.polyform import PolyForm, PolyVectorField
from formlab.polynomials import Polynomial
from formlab.quadrature import integrate_pairs
from forms import hodge_laplacian


def _trace(form, domain) -> dict:
    """The keyed parts of a form's boundary pairing: ``(1, I)`` for each
    coefficient and ``(-1, J)`` for each coefficient of i_N form, so that
    <J*u, J*v> = sum over shared keys (s, K) of s * u_K * v_K."""
    parts = {(1, I): c for I, c in form.coeffs.items()}
    if form.p >= 1:
        parts.update(((-1, J), c) for J, c in normal_part(form, domain).coeffs.items())
    return parts


def sphere_matrix(rows, cols, domain, pullback=True):
    """Exact matrix of int_S <J*row, J*col>, or of <row, col> without
    ``pullback``, for any two lists of forms, by contracting the shared
    coefficients against sphere moments."""
    def parts(form):
        if pullback:
            return _trace(form, domain)
        return {(1, I): c for I, c in form.coeffs.items()}

    row_parts, col_parts = [parts(u) for u in rows], [parts(v) for v in cols]
    return [[integrate_pairs([(key[0], c, b[key]) for key, c in a.items() if key in b],
                             domain.radius)
             for b in col_parts] for a in row_parts]


def unit_vector_delta(omega: PolyForm) -> PolyForm:
    """delta = -sum_k i_{e_k} (d/dx_k omega), with e_k a unit vector of
    polynomials and d/dx_k omega built as a form."""
    if omega.p == 0:
        raise ValueError("codifferential of a 0-form")
    m = omega.m
    out: dict = {}
    for k in range(1, m + 1):
        unit = [Polynomial.zero(m)] * m
        unit[k - 1] = Polynomial.one(m)
        for J, v in omega.partial(k).interior(unit).coeffs.items():
            out[J] = out[J] - v if J in out else -v
    return PolyForm(m, omega.p - 1, out)


def dense_rref(rows):
    """Reduced row echelon form and pivot column list of a dense matrix,
    pivoting on the largest entry by absolute value, ties to the
    smallest row index."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
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
        piv = Fraction(a[r][c])
        a[r] = [v / piv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def dense_nullspace(rows, ncols):
    """Basis of the right nullspace of a dense matrix, one vector per
    free column in increasing order, with that free variable 1 and the
    others 0."""
    red, pivots = dense_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def rank(rows) -> int:
    return len(dense_rref(rows)[1])


def nullity(rows, ncols: int) -> int:
    return ncols - rank(rows)


def solve(rows, rhs):
    """One solution of ``rows @ X = rhs`` (one column per right-hand
    side, all from one elimination) or None if any is inconsistent.

    Free variables are set to zero.
    """
    aug = [list(r) + list(b) for r, b in zip(rows, rhs)]
    red, pivots = dense_rref(aug)
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
    traced = [-normal_part(assembly.extension(blk, w).d(), dom)
              for blk in assembly.blocks for w in blk.basis]
    A = sphere_matrix(traced, reps, dom)
    assert A == [list(col) for col in zip(*A)], "stiffness matrix not symmetric"
    return A


def full_gram(assembly):
    """G_ij = int_S <J* phi_i, J* phi_j> paired in full by sphere
    moments, the entries between blocks included."""
    reps = [w for blk in assembly.blocks for w in blk.basis]
    return sphere_matrix(reps, reps, assembly.domain)


def _fischer(u: PolyForm, v: PolyForm) -> Fraction:
    """The Fischer product <u, v>_F = sum over components I and
    exponents a of a! u_{I,a} v_{I,a}, a! = a_1! ... a_m!."""
    return sum((math.prod(map(math.factorial, a)) * c * v.coeffs[I].terms.get(a, 0)
                for I, f in u.coeffs.items() if I in v.coeffs
                for a, c in f.terms.items()), Fraction(0))


def _gram_block(kind: str, forms: list[PolyForm], k: int,
                domain: BallDomain) -> list[list[Fraction]]:
    """Exact symmetric matrix of int_S <J*u, J*v> over one block of
    harmonic, co-closed p-forms whose coefficients are homogeneous of
    degree k: s_b F_b, with F_b the Fischer Gram matrix <u_i, u_j>_F and

        s_b = R^(m-1+2k) / P(m, k)                  (coexact block),
        s_b = R^(m-1+2k) (m+k-p) / P(m, k+1)        (exact block),

    P(m, k) = m (m+2) ... (m+2k-2).  On the sphere <J*u, J*v> is
    <u, v> - R^-2 <i_x u, i_x v>; the coefficients of u are harmonic of
    degree k and, as u is co-closed, those of i_x u are harmonic of
    degree k+1; and for harmonic f, g homogeneous of degree j the mean of
    f g over the unit sphere is <f, g>_F / P(m, j) (Stein-Weiss, Fourier
    Analysis on Euclidean Spaces, ch. IV).  So the mean of <J*u, J*v>
    over the unit sphere is <u, v>_F / P(m, k) - <i_x u, i_x v>_F /
    P(m, k+1).  Its second term is 0 on a coexact (normal-null) block,
    and (p + k) <u, v>_F / P(m, k+1) on an exact (closed) one
    (``_certify_blocks``), which with P(m, k+1) = (m + 2k) P(m, k) leaves
    s_b.  Integrals are in units of |S^{m-1}(1)|, so a degree-2k
    integrand over the radius-R sphere carries R^(m-1+2k)."""
    m, R = domain.m, domain.radius
    scale = R ** (m - 1 + 2 * k) / math.prod(range(m, m + 2 * k, 2))
    if kind == "exact":
        scale *= Fraction(m + k - forms[0].p, m + 2 * k)
    out = [[Fraction(0)] * len(forms) for _ in forms]
    for i, u in enumerate(forms):
        for j in range(i, len(forms)):
            out[i][j] = out[j][i] = scale * _fischer(u, forms[j])
    return out


def block_degree(blk) -> int:
    """The coefficient degree k of a trial block: l on a coexact block,
    l - 1 on an exact one."""
    return blk.l if blk.kind == "coexact" else blk.l - 1


def block_gram(assembly):
    """The full Gram matrix laid out from the assembly's blocks: each G_b
    (``_gram_block``) on the diagonal, 0 between blocks."""
    n = sum(blk.dim for blk in assembly.blocks)
    G = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for blk in assembly.blocks:
        G_b = _gram_block(blk.kind, blk.basis, block_degree(blk), assembly.domain)
        for i, row in enumerate(G_b, start):
            G[i][start:start + blk.dim] = row
        start += blk.dim
    return G


def block_stiffness(assembly):
    """Theta G, Theta the diagonal of the block eigenvalues theta_b: the
    stiffness matrix as the block certificate proves it to be."""
    thetas = [assembly.theta(blk) for blk in assembly.blocks for _ in blk.basis]
    return [[t * g for g in row] for t, row in zip(thetas, block_gram(assembly))]


def certify_eigenvalue(assembly, theta, A=None, G=None) -> int:
    """Exact multiplicity of theta: the nullity of A - theta G over Q,
    with A and G the fully paired matrices unless given."""
    A = full_stiffness(assembly) if A is None else A
    G = full_gram(assembly) if G is None else G
    return nullity(mat_sub(A, scalar_mul(Fraction(theta), G)), len(G))


def restrict(basis, operator):
    """Sub-basis of ker(operator) within span(basis): the nullspace of
    the images, in the coordinates of ``basis``, mapped back."""
    if not basis:
        return []
    null = nullspace(_form_rows([operator(b) for b in basis]), len(basis))
    out = []
    for vec in null:
        form = PolyForm.zero(basis[0].m, basis[0].p)
        for i, c in vec.items():
            form = form + basis[i] * c
        out.append(form)
    return out


@cache
def reference_bases(m, l, p):
    """The "H", "H-closed" and "H-normal-null" bases by a chain of
    restrictions: the monomials, then ker of the Hodge Laplacian, then
    ker delta for p >= 1 ("H"), then ker d with p <= m - 1 ("H-closed")
    and ker i_x with p >= 1 ("H-normal-null")."""
    harmonic = restrict(monomial_form_basis(m, l, p), hodge_laplacian)
    if p >= 1:
        harmonic = restrict(harmonic, PolyForm.delta)
    position = PolyVectorField.position(m)
    closed = restrict(harmonic, PolyForm.d) if p <= m - 1 else harmonic
    normal_null = restrict(harmonic, lambda w: w.interior(position)) if p >= 1 else harmonic
    return {"H": harmonic, "H-closed": closed, "H-normal-null": normal_null}


@cache
def harmonic_fields(basis_cache, m, l, p):
    """The harmonic fields of (m, l, p), componentwise harmonic and
    co-closed: the span of ``basis_cache``'s "H-closed" and
    "H-normal-null" bases, in the reduced form of
    ``harmonic._reduced_span``.  Both kinds are the constants at
    l = p = 0, and the span takes them once."""
    forms = [w for kind in KINDS for w in basis_cache.get(m, l, p, kind)]
    return _reduced_span(m, l, p, forms)
