"""Boundary operator spectra on the ball, certified from first principles.

Three operators on boundary forms are certified over exact polynomial
trial spaces:

  * ``dtn``: the harmonic-and-co-closed Dirichlet-to-Neumann map,
    phi -> -i_N d(ext phi) with the extension satisfying
    Delta ext = 0, delta ext = 0, J* ext = phi (restricted to co-closed
    boundary data);
  * ``dtn-neumann``: the variant whose extension satisfies
    Delta ext = 0 with J* ext = phi and i_N ext = 0 on the boundary;
  * ``hodge-boundary``: the boundary Hodge Laplacian through its
    Dirichlet form |d^S phi|^2 + |delta^S phi|^2.

Trial spaces are the pullbacks of the normal-null harmonic blocks
(co-exact on the sphere) and, where the operator acts on them, the
closed blocks.  A trial basis does not depend on the radius, so the
three operators share one trial space on every ball of a dimension:
each block is built once per basis cache (``_block``), and every
operator assembled on that cache, at any radius, reads it.  The Gram
matrix G of boundary pairings int_S <J*u, J*v> is never built: by
theorems proved in ``_certify_blocks`` it is 0 between blocks, and on
each block a positive multiple of the Fischer Gram matrix of the
coefficients, which is positive definite when the block's basis is in
reduced form in its monomial frame.  No extension is solved for.  A
coexact trial form is its own extension: it is harmonic, co-closed and
normal-null, and ``BasisCache`` checks these constraints on the forms
it decodes from every cache file it loads, with their number and
their reduced form, before it trusts them.  The ``dtn-neumann``
extension of a closed datum is a closed formula
(``_neumann_extension``, after Raulot-Savo), and each one is checked
exactly to be harmonic, to pull back to the datum and to have no
normal part on the sphere.

The spectrum is exact and certified block by block, pointwise: every
trial form phi of a block is an eigenform, J*(T phi) = theta_b J* phi
on the sphere with theta_b the closed-form ball eigenvalue, decided
exactly by polynomial identities, and each block's basis is in reduced
form (``harmonic.is_reduced_basis``), a linear-time check that makes
its G_b positive definite.  The stiffness pairing on block b is then
theta_b G_b, so it is never paired, and the eigenvalues are theta_b
with multiplicity dim_b, as ``Fraction``s, with no floating
eigensolve.  A failure raises ``CertificateError`` naming the block,
the trial form and the condition.  The bound and scaling checks
decide on these exact spectra with ==, <= and <.
"""

from __future__ import annotations

from fractions import Fraction

from .ball import BallDomain, boundary_delta_rep, normal_part
from .harmonic import BasisCache, is_reduced_basis, sphere_reduce
from .polynomials import Polynomial
from .polyform import PolyForm, PolyVectorField

OPERATORS = ("dtn", "dtn-neumann", "hodge-boundary")


# ---------------------------------------------------------------------------
# The Neumann extension.
# ---------------------------------------------------------------------------

def _zero_on_sphere(form: PolyForm, domain: BallDomain) -> bool:
    """Whether every coefficient of form reduces to 0 modulo
    |x|^2 - R^2 (``sphere_reduce``), i.e. vanishes on the sphere."""
    return not any(sphere_reduce(c, domain.radius) for c in form.coeffs.values())


def _pullback_vanishes(form: PolyForm, domain: BallDomain) -> bool:
    """Whether J* form = 0 on the sphere: a form's pullback vanishes
    where its wedge with the normal direction x^b does."""
    x = PolyVectorField.position(domain.m)
    return _zero_on_sphere(x.dual_one_form().wedge(form), domain)


def _neumann_failures(ext: PolyForm, phi: PolyForm, domain: BallDomain) -> list[str]:
    """The conditions defining the dtn-neumann extension of phi that ext
    fails, each decided exactly by polynomial identities: harmonic
    (componentwise), pullback phi and no normal part on the sphere, the
    boundary conditions being that x^b ^ (ext - phi) and i_x ext reduce
    to 0 modulo |x|^2 - R^2.  Together the three determine ext."""
    x = PolyVectorField.position(domain.m)
    checks = (("harmonic", ext.rough_laplacian().is_zero()),
              ("pullback", _pullback_vanishes(ext - phi, domain)),
              ("normal part", _zero_on_sphere(ext.interior(x), domain)))
    return [name for name, ok in checks if not ok]


def _neumann_extension(phi: PolyForm, k: int, domain: BallDomain) -> PolyForm:
    """The dtn-neumann extension of a closed harmonic p-form phi whose
    coefficients are homogeneous of degree k, in closed form:

        ext = phi - R^-2 x^b ^ i_x phi + a R^-2 (|x|^2 - R^2) phi,
        a = (p + k) / (m + 2k).

    x^b ^ . has no pullback and |x|^2 - R^2 vanishes on the sphere, so
    J* ext = J* phi; i_x ext = (1 - a)(1 - |x|^2/R^2) i_x phi vanishes
    there; and a is the coefficient that makes ext harmonic, since the
    componentwise Laplacian takes |x|^2 phi to (2m + 4k) phi and
    x^b ^ i_x phi to 2(p + k) phi.  The result is checked exactly
    (``_neumann_failures``); a failure raises ``AssertionError`` naming
    the condition."""
    m, p, R2 = domain.m, phi.p, domain.radius ** 2
    x = PolyVectorField.position(m)
    a = Fraction(p + k, m + 2 * k)
    # grouped as R^-2 (a |x|^2 phi - x^b ^ i_x phi) + (1 - a) phi
    ext = ((phi * (Polynomial.radius_squared(m) * a)
            - x.dual_one_form().wedge(phi.interior(x))) * (1 / R2) + phi * (1 - a))
    failures = _neumann_failures(ext, phi, domain)
    if failures:
        raise AssertionError(
            f"Neumann extension of a closed degree-{k} {p}-form at m={m}, "
            f"R={domain.radius} fails: {', '.join(failures)}")
    return ext


# ---------------------------------------------------------------------------
# Operator assembly.
# ---------------------------------------------------------------------------

class Block:
    """One trial block of p-forms on R^m, shared by the balls of every
    radius: its kind, "coexact" (normal-null pullback) or "exact"
    (closed pullback); its spectral label l (coexact blocks use degree
    l, exact blocks degree l-1); its basis; whether the basis is in
    reduced form in its monomial frame, which makes G_b, int_S <J*u, J*v>
    over the basis, positive definite on every sphere, decided once when
    the block is built; and the eigenform checks its basis has passed,
    each on the sphere of one radius (``_certify_blocks``)."""

    __slots__ = ("kind", "l", "basis", "reduced", "proved")

    def __init__(self, kind: str, l: int, basis: tuple[PolyForm, ...], reduced: bool):
        self.kind, self.l, self.basis, self.reduced = kind, l, basis, reduced
        self.proved: set[tuple] = set()

    @property
    def dim(self) -> int:
        return len(self.basis)


def _block(kind: str, l: int, m: int, p: int, cache: BasisCache) -> Block | None:
    """The trial block (kind, l) of p-forms on R^m, built once per cache
    and kept in its ``trial_blocks`` under (m, p, kind, l), so that
    every operator assembled on the cache, at any radius, shares the
    block, its reduced-form decision (``harmonic.is_reduced_basis``) and
    the eigenform checks it has passed; None when its basis is empty."""
    key = (m, p, kind, l)
    if key not in cache.trial_blocks:
        k, basis_kind = (l, "H-normal-null") if kind == "coexact" else (l - 1, "H-closed")
        basis = cache.get(m, k, p, basis_kind)
        cache.trial_blocks[key] = (Block(kind, l, basis, is_reduced_basis(m, k, p, basis))
                                   if basis else None)
    return cache.trial_blocks[key]


class OperatorAssembly:
    """The trial blocks of one operator on one ball.  G is 0 between
    blocks and positive definite on each (``_certify_blocks``), so no
    Gram matrix is built."""

    __slots__ = ("operator", "domain", "p", "l_max", "blocks")

    def __init__(self, operator: str, domain: BallDomain, p: int, l_max: int,
                 blocks: list[Block]):
        self.operator, self.domain, self.p, self.l_max, self.blocks = \
            operator, domain, p, l_max, blocks

    def theta(self, blk: Block) -> Fraction:
        """The closed-form ball eigenvalue of a block."""
        return ball_reference_eigenvalue(self.operator, blk.kind, self.domain.m,
                                         self.p, blk.l, self.domain.radius)

    def extension(self, blk: Block, w: PolyForm) -> PolyForm:
        """The extension of the trial form w of block blk: the closed
        formula of ``_neumann_extension`` on an exact block of
        ``dtn-neumann``, else w itself, which is harmonic and co-closed,
        and normal-null on a coexact block."""
        if self.operator == "dtn-neumann" and blk.kind == "exact":
            return _neumann_extension(w, blk.l - 1, self.domain)
        return w


class EigenvalueGroup:
    __slots__ = ("value", "multiplicity")

    def __init__(self, value: Fraction, multiplicity: int):
        self.value, self.multiplicity = value, multiplicity


class SpectrumReport:
    __slots__ = ("operator", "m", "p", "radius", "l_max", "eigenvalues", "blocks",
                 "certified")

    def __init__(self, operator: str, m: int, p: int, radius: Fraction, l_max: int,
                 eigenvalues: list[EigenvalueGroup], blocks: list[dict],
                 certified: dict[str, int]):
        self.operator, self.m, self.p, self.radius, self.l_max = operator, m, p, radius, l_max
        self.eigenvalues, self.blocks, self.certified = eigenvalues, blocks, certified

    def first_positive(self) -> Fraction:
        for g in self.eigenvalues:
            if g.value > 0:
                return g.value
        raise ValueError("no positive eigenvalue found")

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "m": self.m, "p": self.p, "radius": str(self.radius),
            "l_max": self.l_max,
            "eigenvalues": [{"value": str(g.value), "multiplicity": g.multiplicity}
                            for g in self.eigenvalues],
            "blocks": [{"kind": row["kind"], "l": row["l"], "dim": row["dim"],
                        "eigenvalues": [str(v) for v in row["eigenvalues"]],
                        "reference": row["reference"]} for row in self.blocks],
            "certified": dict(self.certified),
        }


def ball_reference_eigenvalue(operator: str, block_kind: str, m: int, p: int,
                              l: int, radius) -> Fraction:
    """Closed-form ball spectra from the classical literature.

    Coexact blocks carry label l >= 1 (pullbacks of degree-l normal-null
    harmonic fields); exact blocks with label l are pullbacks of
    degree-(l-1) closed harmonic fields.  Eigenvalues scale like 1/R
    for the order-one operators and 1/R^2 for the boundary Laplacian.

    The ``dtn-neumann`` exact block follows from the extension formula
    of ``_neumann_extension`` (Raulot-Savo, "On the first eigenvalue of
    the Dirichlet-to-Neumann operator on forms", J. Funct. Anal. 262,
    2012).  With k = l - 1 and a = (p + k)/(m + 2k), dphi = 0 and
    d(i_x phi) = L_x phi = (p + k) phi give

        d ext = R^-2 (2a + p + k) x^b ^ phi,
        i_x d ext = R^-2 (2a + p + k)(|x|^2 phi - x^b ^ i_x phi),

    whose pullback to the sphere |x| = R is (2a + p + k) J* phi.  The
    operator is -i_N d ext with the inner normal N = -x/R, so the
    eigenvalue is (2a + p + k)/R = (p + k)(m + 2k + 2)/((m + 2k) R),
    which is (l + p - 1)(n + 2l + 1)/((n + 2l - 1) R) with n = m - 1.
    """
    R = Fraction(radius)
    n = m - 1
    if operator == "dtn":
        if block_kind == "coexact":
            return Fraction(p + l) / R
        return Fraction(0)
    if operator == "dtn-neumann":
        if block_kind == "coexact":
            return Fraction(p + l) / R
        return Fraction((l + p - 1) * (n + 2 * l + 1), n + 2 * l - 1) / R
    if operator == "hodge-boundary":
        if block_kind == "coexact":
            return Fraction((l + p) * (n + l - p - 1)) / R ** 2
        return Fraction((l + p - 1) * (n + l - p)) / R ** 2
    raise ValueError(f"unknown operator {operator!r}")


def assemble_operator(operator: str, m: int, p: int, l_max: int, radius,
                      cache: BasisCache | None = None) -> tuple[OperatorAssembly, SpectrumReport]:
    """The operator's trial blocks l = 1..l_max, for each l the exact
    block (not for ``dtn``) and then the coexact one, and the spectrum
    read off the exact block certificate (``_certify_blocks``).  Every
    operator assembled on one cache, at any radius, shares each block
    (``_block``): its reduced form is decided once, and the eigenform
    check the two Dirichlet-to-Neumann maps have in common runs once per
    radius."""
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    if not 1 <= p <= m - 1:
        raise ValueError("form degree out of range for boundary spectra")
    cache = cache or BasisCache()
    domain = BallDomain(m, Fraction(radius))
    kinds = ("coexact",) if operator == "dtn" else ("exact", "coexact")
    blocks = [blk for l in range(1, l_max + 1) for kind in kinds
              if (blk := _block(kind, l, m, p, cache))]
    assembly = OperatorAssembly(operator, domain, p, l_max, blocks)
    return assembly, _solve_assembly(assembly)


class CertificateError(AssertionError):
    """An assembled pencil that fails the exact block certificate."""


def _operator_image(operator: str, w: PolyForm, ext: PolyForm,
                    domain: BallDomain) -> PolyForm:
    """Ambient representative of T(J* w) for the trial form w with
    extension ext: -i_N d ext for the Dirichlet-to-Neumann maps, and
    d^S delta^S + delta^S d^S for the boundary Hodge Laplacian, whose
    second term vanishes on top-degree boundary forms (p = m-1)."""
    if operator == "hodge-boundary":
        image = boundary_delta_rep(w, domain).d()
        if w.p <= domain.m - 2:
            image = image + boundary_delta_rep(w.d(), domain)
        return image
    return -normal_part(ext.d(), domain)


def _certify_blocks(assembly: OperatorAssembly) -> list[Fraction]:
    """theta_b of each block, once the pencil passes the exact block
    certificate:

      * every trial form phi of block b is an eigenform pointwise,
        J*(T phi) = theta_b J* phi on the sphere, with theta_b from
        ``ball_reference_eigenvalue``: x^b ^ (T phi - theta_b phi)
        reduces to 0 modulo |x|^2 - R^2;
      * the basis of block b is in reduced form in its monomial frame
        (``harmonic.is_reduced_basis``).

    No Gram matrix is built: G is 0 outside the diagonal blocks, and
    positive definite on each, by theorems.  They use the constraints of
    ``harmonic._in_kind``, which ``BasisCache`` checks on the decoded
    forms of every basis it loads from disk, before it trusts them, and
    proves of every basis it computes (the "H-closed" kernel and the
    "H-normal-null" span, see ``harmonic``): trial forms are
    componentwise harmonic and co-closed, exact ones closed and coexact
    ones normal-null (i_x phi = 0), and the coefficients of a block are
    homogeneous of degree k = l on a coexact one and k = l - 1 on an
    exact one.  On the sphere <J*u, J*v> = <u, v> - R^-2 <i_x u, i_x v>.
    For harmonic f, g homogeneous of degree j the mean of f g over the
    unit sphere is <f, g>_F / P(m, j), with the Fischer product
    <f, g>_F = sum over exponents a of a! f_a g_a, a! = a_1! ... a_m!,
    summed over components for forms, and P(m, j) = m (m+2) ... (m+2j-2)
    (Stein-Weiss, Fourier Analysis on Euclidean Spaces, ch. IV).

      * Blocks of different coefficient degrees k != k' are orthogonal:
        the coefficients of u, v and of i_x u, i_x v are harmonic
        polynomials, homogeneous of different degrees, and spherical
        harmonics of different degrees are orthogonal on every sphere.
      * A closed u of degree k is d(i_x u) / (p + k), since d i_x + i_x d
        is p + k on homogeneous p-forms of degree k, and i_x is the
        adjoint of d for the Fischer product, so for every v of degree k
        <u, v>_F = <i_x u, i_x v>_F / (p + k).
      * The one pair of blocks that shares a degree is the exact block
        l = k+1 and the coexact block l = k.  There i_x v = 0, and the
        mean of <u, v> over the sphere is <u, v>_F / P(m, k), which the
        item above makes 0.
      * Within a block, as u is co-closed the coefficients of i_x u are
        harmonic of degree k+1.  i_x u = 0 on a coexact block, and
        <i_x u, i_x v>_F = (p + k) <u, v>_F on an exact one, by the
        item above.  So G_b = s_b F_b, with F_b the Fischer Gram matrix
        <u_i, u_j>_F and, in units of |S^{m-1}(1)|,

            s_b = R^(m-1+2k) / P(m, k)                  (coexact block),
            s_b = R^(m-1+2k) (m+k-p) / P(m, k+1)        (exact block),

        as P(m, k+1) = (m + 2k) P(m, k).  s_b > 0, since m + k - p > 0.
      * G_b is positive definite.  With V the coefficient matrix of the
        basis in its monomial frame and D = diag(a!) over that frame,
        F_b = V D V^T with D positive, so G_b is positive definite
        exactly when the basis is linearly independent, and vectors in
        reduced form are.

    The pointwise identity gives int_S <J*(T phi_i), J* phi_j>
    = theta_b G_b,ij on each block, through Green's formula on the
    closed sphere for the boundary Hodge Laplacian, so the spectrum is
    exactly theta_b with multiplicity dim_b over the blocks.  Rows are
    numbered across the blocks in order.  A failure raises
    ``CertificateError`` naming the operator, the block and its rows,
    the trial form where one fails, and the condition.

    A block, shared by every radius, decides its reduced form once, when
    it is built, and records each eigenform check it passes, by operator
    image, radius and theta_b, and runs none twice.  The radius is part
    of the record because the check is made on the sphere of that radius
    and theta_b need not tell radii apart: the hodge-boundary coexact
    l = 1 block at p = m - 1 has theta_b = 0 at every R.  The two
    Dirichlet-to-Neumann maps share their check on a coexact block: the
    same forms, each its own extension under both, the same image
    -i_N d phi and the same theta_b = (p + l)/R."""
    dom, op = assembly.domain, assembly.operator
    thetas = []
    start = 0
    for blk in assembly.blocks:
        theta = assembly.theta(blk)
        where = (f"{op} at m={dom.m}, p={assembly.p}, R={dom.radius}: "
                 f"block {blk.kind} l={blk.l} (rows {start}..{start + blk.dim - 1}): ")
        proof = ("dtn" if blk.kind == "coexact" and op != "hodge-boundary" else op,
                 dom.radius, theta)
        if proof not in blk.proved:
            for i, w in enumerate(blk.basis, start):
                image = _operator_image(op, w, assembly.extension(blk, w), dom)
                if not _pullback_vanishes(image - w * theta, dom):
                    raise CertificateError(where + f"trial form {i} is not an eigenform: "
                                           f"J*(T phi) != theta_b J* phi with theta_b = {theta}")
            blk.proved.add(proof)
        if not blk.reduced:
            raise CertificateError(where + "basis not in reduced form in its monomial frame, "
                                           "so G_b is not proved positive definite")
        thetas.append(theta)
        start += blk.dim
    return thetas


def _solve_assembly(assembly: OperatorAssembly) -> SpectrumReport:
    """The exact spectrum read off the block certificate."""
    multiplicity: dict[Fraction, int] = {}
    rows = []
    for blk, theta in zip(assembly.blocks, _certify_blocks(assembly)):
        multiplicity[theta] = multiplicity.get(theta, 0) + blk.dim
        rows.append({"kind": blk.kind, "l": blk.l, "dim": blk.dim,
                     "eigenvalues": [theta] * blk.dim, "reference": str(theta)})
    spectrum = sorted(multiplicity.items())
    return SpectrumReport(assembly.operator, assembly.domain.m, assembly.p,
                          assembly.domain.radius, assembly.l_max,
                          [EigenvalueGroup(t, k) for t, k in spectrum], rows,
                          {str(t): k for t, k in spectrum})


# ---------------------------------------------------------------------------
# Bound checks and scaling.
# ---------------------------------------------------------------------------

class BoundCheck:
    __slots__ = ("name", "statement", "passed", "details")

    def __init__(self, name: str, statement: str, passed: bool, details: dict):
        self.name, self.statement, self.passed, self.details = name, statement, passed, details

    def to_dict(self) -> dict:
        return {"name": self.name, "statement": self.statement,
                "pass": self.passed,
                "details": {k: str(v) for k, v in self.details.items()}}


def check_bounds(dtn: SpectrumReport, dtn_neumann: SpectrumReport,
                 hodge: SpectrumReport) -> list[BoundCheck]:
    """The eigenvalue inequalities, decided exactly on certified spectra.

    * sharp lower bound  sigma_1 >= (p+1) c, equality on the ball;
    * comparison         sigma_k <= lambda_k / ((n-p) c) for every
      computed k, with equality for k up to the first coexact block;
    * strict half bound  sigma_1 > (p+1) c / 2;
    * operator ordering  nu_1 <= sigma_1.
    """
    m, p = dtn.m, dtn.p
    n = m - 1
    c = 1 / Fraction(dtn.radius)
    out = []

    sigma1 = dtn.first_positive()
    target = (p + 1) * c
    out.append(BoundCheck(
        "first-eigenvalue-lower-bound",
        "sigma_1 >= (p+1)c with equality on the ball",
        sigma1 == target,
        {"sigma_1": sigma1, "(p+1)c": target}))

    sigmas = [g.value for g in dtn.eigenvalues for _ in range(g.multiplicity)
              if g.value > 0]
    lambdas = sorted(ev for row in hodge.blocks if row["kind"] == "coexact"
                     for ev in row["eigenvalues"])
    if p <= n - 1:
        factor = (n - p) * c
        k_upper = min(len(sigmas), len(lambdas))
        comparisons = [sigmas[k] <= lambdas[k] / factor for k in range(k_upper)]
        first_block = next((row["dim"] for row in dtn.blocks
                            if row["kind"] == "coexact" and row["l"] == 1), None)
        if first_block is None:
            raise ValueError(
                "dtn report has no coexact l=1 block: the equality part of "
                "the Hodge comparison needs it")
        equalities = [sigmas[k] == lambdas[k] / factor
                      for k in range(min(first_block, k_upper))]
        out.append(BoundCheck(
            "hodge-comparison",
            "sigma_k <= lambda_k / ((n-p)c), equality on the first coexact block",
            all(comparisons) and all(equalities),
            {"checked_k": k_upper, "equality_k": len(equalities)}))

    out.append(BoundCheck(
        "strict-half-bound",
        "sigma_1 > (p+1)c/2 strictly",
        sigma1 > target / 2,
        {"sigma_1": sigma1, "(p+1)c/2": target / 2}))

    nu1 = dtn_neumann.first_positive()
    out.append(BoundCheck(
        "operator-ordering",
        "nu_1 <= sigma_1",
        nu1 <= sigma1,
        {"nu_1": nu1, "sigma_1": sigma1}))
    return out


def scaling_check(report: SpectrumReport, scaled: SpectrumReport) -> BoundCheck:
    """Eigenvalues scale exactly like 1/R (order-one operators) or 1/R^2
    (boundary Laplacian) when the ball is rescaled from the radius of
    report to the radius of scaled."""
    if (report.operator != scaled.operator or report.m != scaled.m
            or report.p != scaled.p or report.l_max != scaled.l_max):
        raise ValueError("reports are not comparable")
    power = 2 if report.operator == "hodge-boundary" else 1
    ratio = (Fraction(scaled.radius) / Fraction(report.radius)) ** power
    expected = [(g.value / ratio, g.multiplicity) for g in report.eigenvalues]
    got = [(g.value, g.multiplicity) for g in scaled.eigenvalues]
    return BoundCheck("radius-scaling",
                      f"eigenvalues scale like 1/R^{power}",
                      expected == got, {"groups": len(got)})
