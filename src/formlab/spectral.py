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
closed blocks.  The Gram matrix G of boundary pairings
int_S <J*u, J*v> is exact and built by ``_sphere_matrix``: each form's
trace (its coefficients and those of its normal part) is computed once,
and each entry contracts the shared coefficients against cached sphere
moments (``quadrature.integrate_pairs``), with no product polynomial
built.  No extension is solved for.  A coexact trial form is its own
extension: it is harmonic, co-closed and normal-null, and
``BasisCache`` checks these constraints of every basis it loads from
disk.  The ``dtn-neumann`` extension of a closed datum is a closed
formula (``_neumann_extension``, after Raulot-Savo), and each one is
checked exactly to be harmonic, to pull back to the datum and to have
no normal part on the sphere.

The spectrum is exact and certified block by block, pointwise: every
trial form phi of a block is an eigenform, J*(T phi) = theta_b J* phi
on the sphere with theta_b the closed-form ball eigenvalue, decided
exactly by polynomial identities; G vanishes outside the diagonal
blocks; and each G_b is positive definite by an exact LDL^T test.  The
stiffness matrix A is then Theta G, so it is never paired, and the
eigenvalues are theta_b with multiplicity dim_b, as ``Fraction``s, with
no floating eigensolve.  A failure raises ``CertificateError`` naming
the block, the trial form and the condition.  The bound and scaling
checks decide on these exact spectra with ==, <= and <.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .ball import BallDomain, boundary_delta_rep, normal_part
from .harmonic import BasisCache, sphere_reduce
from .polynomials import Polynomial
from .polyform import PolyForm, PolyVectorField
from .quadrature import integrate_pairs

OPERATORS = ("dtn", "dtn-neumann", "hodge-boundary")


# ---------------------------------------------------------------------------
# Boundary pairings and the Neumann extension.
# ---------------------------------------------------------------------------

def _trace(form: PolyForm, domain: BallDomain) -> dict:
    """The keyed parts of a form's boundary pairing: ``(1, I)`` for each
    coefficient and ``(-1, J)`` for each coefficient of i_N form, so that
    <J*u, J*v> = sum over shared keys (s, K) of s * u_K * v_K."""
    parts = {(1, I): c for I, c in form.coeffs.items()}
    if form.p >= 1:
        parts.update(((-1, J), c) for J, c in normal_part(form, domain).coeffs.items())
    return parts


def _sphere_matrix(forms: list[PolyForm], domain: BallDomain) -> list[list[Fraction]]:
    """Exact symmetric matrix of int_S <J*u, J*v> over the forms.  Each
    form is traced once; each entry on and above the diagonal contracts
    the shared parts against cached sphere moments."""
    R = domain.radius
    parts = [_trace(u, domain) for u in forms]
    out = [[Fraction(0)] * len(forms) for _ in forms]
    for i, a in enumerate(parts):
        for j in range(i, len(forms)):
            b = parts[j]
            out[i][j] = out[j][i] = integrate_pairs(
                [(key[0], c, b[key]) for key, c in a.items() if key in b], R)
    return out


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

@dataclass
class Block:
    kind: str          # "coexact" (normal-null pullback) or "exact" (closed pullback)
    l: int             # spectral label: coexact blocks use degree l, exact blocks degree l-1
    basis: list[PolyForm]
    extensions: list[PolyForm]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class OperatorAssembly:
    operator: str
    domain: BallDomain
    p: int
    l_max: int
    blocks: list[Block]
    G: list[list[Fraction]]

    @property
    def dim(self) -> int:
        return len(self.G)

    def theta(self, blk: Block) -> Fraction:
        """The closed-form ball eigenvalue of a block."""
        return ball_reference_eigenvalue(self.operator, blk.kind, self.domain.m,
                                         self.p, blk.l, self.domain.radius)

    @property
    def A(self) -> list[list[Fraction]]:
        """The stiffness matrix int_S <J*(T u), J*v>.  The certificate
        proves it equal to Theta G, Theta the diagonal of the block
        eigenvalues, so it is read off G and never paired."""
        row_theta = [self.theta(blk) for blk in self.blocks for _ in blk.basis]
        return [[t * g for g in row] for t, row in zip(row_theta, self.G)]

    def block_slices(self):
        out = []
        start = 0
        for blk in self.blocks:
            out.append((blk, slice(start, start + blk.dim)))
            start += blk.dim
        return out


@dataclass
class EigenvalueGroup:
    value: Fraction
    multiplicity: int


@dataclass
class SpectrumReport:
    operator: str
    m: int
    p: int
    radius: Fraction
    l_max: int
    eigenvalues: list[EigenvalueGroup]
    blocks: list[dict]
    certified: dict[str, int] = field(default_factory=dict)

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


def _build_blocks(operator: str, m: int, p: int, l_max: int,
                  domain: BallDomain, cache: BasisCache) -> list[Block]:
    blocks: list[Block] = []
    include_exact = operator in ("dtn-neumann", "hodge-boundary")
    for l in range(1, l_max + 1):
        if include_exact:
            closed = cache.get(m, l - 1, p, "H-closed")
            if closed.dim:
                if operator == "dtn-neumann":
                    exts = [_neumann_extension(w, l - 1, domain) for w in closed.basis]
                else:
                    exts = list(closed.basis)
                blocks.append(Block("exact", l, list(closed.basis), exts))
        coexact = cache.get(m, l, p, "H-normal-null")
        if coexact.dim:
            blocks.append(Block("coexact", l, list(coexact.basis),
                                list(coexact.basis)))
    return blocks


def assemble_operator(operator: str, m: int, p: int, l_max: int, radius,
                      cache: BasisCache | None = None) -> tuple[OperatorAssembly, SpectrumReport]:
    """Pair the exact Gram matrix, then read the spectrum off the exact
    block certificate (``_certify_blocks``)."""
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    if not 1 <= p <= m - 1:
        raise ValueError("form degree out of range for boundary spectra")
    cache = cache or BasisCache()
    domain = BallDomain(m, Fraction(radius))
    blocks = _build_blocks(operator, m, p, l_max, domain, cache)
    reps = [w for blk in blocks for w in blk.basis]
    assembly = OperatorAssembly(operator, domain, p, l_max, blocks,
                                _sphere_matrix(reps, domain))
    report = _solve_assembly(assembly)
    return assembly, report


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

      * every entry of G outside the diagonal blocks is 0;
      * every trial form phi of block b is an eigenform pointwise,
        J*(T phi) = theta_b J* phi on the sphere, with theta_b from
        ``ball_reference_eigenvalue``: x^b ^ (T phi - theta_b phi)
        reduces to 0 modulo |x|^2 - R^2;
      * G_b passes the exact LDL^T positive-definiteness test.

    The pointwise identity gives A_ij = int_S <J*(T phi_i), J* phi_j>
    = theta_b(i) G_ij, through Green's formula on the closed sphere for
    the boundary Hodge Laplacian, so A = Theta G and the spectrum is
    exactly theta_b with multiplicity dim_b over the blocks.  A failure
    raises ``CertificateError`` naming the operator, the block, the
    trial form where one fails, and the condition."""
    dom = assembly.domain
    slices = assembly.block_slices()
    owner = [b for b, (_, sl) in enumerate(slices) for _ in range(sl.start, sl.stop)]

    def label(b: int) -> str:
        blk, sl = slices[b]
        return f"block {blk.kind} l={blk.l} (rows {sl.start}..{sl.stop - 1})"

    def fail(b: int, condition: str):
        raise CertificateError(
            f"{assembly.operator} at m={dom.m}, p={assembly.p}, R={dom.radius}: "
            f"{label(b)}: {condition}")

    thetas = []
    for b, (blk, sl) in enumerate(slices):
        rows = range(sl.start, sl.stop)
        for i in rows:
            row = assembly.G[i]
            if any(row[:sl.start]) or any(row[sl.stop:]):
                j = next(j for j, v in enumerate(row) if v and owner[j] != b)
                fail(b, f"off-diagonal entry G[{i}][{j}] = {row[j]} "
                        f"couples it to {label(owner[j])}")
        theta = assembly.theta(blk)
        for i, w, ext in zip(rows, blk.basis, blk.extensions):
            image = _operator_image(assembly.operator, w, ext, dom)
            if not _pullback_vanishes(image - w * theta, dom):
                fail(b, f"trial form {i} is not an eigenform: "
                        f"J*(T phi) != theta_b J* phi with theta_b = {theta}")
        if not linalg.is_positive_definite([assembly.G[i][sl] for i in rows]):
            fail(b, "G_b fails the exact LDL^T positive-definiteness test")
        thetas.append(theta)
    return thetas


def _solve_assembly(assembly: OperatorAssembly) -> SpectrumReport:
    """The exact spectrum read off the block certificate."""
    multiplicity: dict[Fraction, int] = {}
    rows = []
    for (blk, _), theta in zip(assembly.block_slices(), _certify_blocks(assembly)):
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

@dataclass
class BoundCheck:
    name: str
    statement: str
    passed: bool
    details: dict

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


def scaling_check(report_unit: SpectrumReport, report_scaled: SpectrumReport) -> BoundCheck:
    """Eigenvalues scale exactly like 1/R (order-one operators) or 1/R^2
    (boundary Laplacian) when the ball is rescaled from radius one."""
    if (report_unit.operator != report_scaled.operator
            or report_unit.m != report_scaled.m
            or report_unit.p != report_scaled.p
            or report_unit.l_max != report_scaled.l_max):
        raise ValueError("reports are not comparable")
    power = 2 if report_unit.operator == "hodge-boundary" else 1
    ratio = Fraction(report_scaled.radius) ** power
    expected = [(g.value / ratio, g.multiplicity) for g in report_unit.eigenvalues]
    got = [(g.value, g.multiplicity) for g in report_scaled.eigenvalues]
    return BoundCheck("radius-scaling",
                      f"eigenvalues scale like 1/R^{power}",
                      expected == got, {"groups": len(got)})
