"""Zero-tolerance verification of the integral identities on balls.

Every check evaluates both sides of an identity by exact rational
quadrature and reports the residual as a rational multiple of the
unit-sphere measure.  A check passes iff the residual is exactly zero.
With float scalars (``TrackedFloat``) it passes when the residual is at
most the caller's relative tolerance times the residual's magnitude:
the same computation carried out on absolute values, which bounds what
rounding can contribute however much the terms cancel.

The weighted integration-by-parts identity is organised term by term so
that a failure names the offending term.  Each term is integrated from
its pairings through the domain, ``domain.interior`` over the ball and
``domain.boundary`` over its sphere, the one place that knows the
domain's radius and region: the coefficient products of the paired
forms are contracted against weighted moments, and no product
polynomial is built just to be integrated.  The shape operator enters
only through ``domain.curvature``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from numbers import Real
from operator import add

from .exterior import ConstantForm
from .polynomials import Polynomial
from .polyform import PolyForm, PolyVectorField, gradient_action, hessian_matrix
from .ball import (BallDomain, WeightFunction, b_term_alternate_pairs,
                   b_term_pairs, boundary_delta_rep, inner_pairs, jstar_pairs,
                   normal_part)


class IdentityReport:
    __slots__ = ("identity_id", "params", "terms", "lhs", "rhs", "residual", "passed")

    def __init__(self, identity_id: str, params: dict, terms: dict[str, Fraction],
                 lhs: Fraction, rhs: Fraction, residual: Fraction, passed: bool):
        self.identity_id, self.params, self.terms = identity_id, params, terms
        self.lhs, self.rhs, self.residual, self.passed = lhs, rhs, residual, passed

    def to_dict(self) -> dict:
        return {
            "id": self.identity_id,
            "params": {k: str(v) for k, v in self.params.items()},
            "terms": {k: str(v) for k, v in self.terms.items()},
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "residual": str(self.residual),
            "pass": self.passed,
        }


class TrackedFloat(float):
    """A float that carries ``magnitude``: the value of the same
    arithmetic done on absolute values (|x| for an input).  The rounding
    error of a result is at most a modest multiple of eps * magnitude,
    so a float-mode check scales its tolerance by it.  Exact rationals
    (radii, moments) mixed in count with their absolute value."""

    __slots__ = ("magnitude",)

    def __new__(cls, value, magnitude=None):
        self = super().__new__(cls, value)
        self.magnitude = abs(float(value)) if magnitude is None else magnitude
        return self

    def __add__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        return TrackedFloat(float(self) + float(other), self.magnitude + _magnitude(other))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        return TrackedFloat(float(self) - float(other), self.magnitude + _magnitude(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        return TrackedFloat(float(self) * float(other), self.magnitude * _magnitude(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        return TrackedFloat(float(self) / float(other), self.magnitude / abs(float(other)))

    def __neg__(self):
        return TrackedFloat(-float(self), self.magnitude)


def _magnitude(x) -> float:
    return x.magnitude if isinstance(x, TrackedFloat) else abs(float(x))


def agrees(a, b, tolerance=0) -> bool:
    """``a == b`` at tolerance 0; otherwise ``|a - b|`` is at most
    ``tolerance`` times the magnitude of ``a - b`` (see ``TrackedFloat``)."""
    if tolerance == 0:
        return a == b
    diff = a - b
    return abs(diff) <= tolerance * _magnitude(diff)


def _report(identity_id, params, lhs, terms, tolerance=0, lhs_key=None) -> IdentityReport:
    """The report of ``lhs == rhs``, where rhs is the sum of ``terms`` in
    dict order, so no reported term can be left out of the residual.
    The sum starts from the first term, not from 0, which would turn a
    float -0.0 into 0.0.  ``lhs_key`` names lhs when the identity lists
    it first among its terms."""
    rhs = reduce(add, terms.values())
    if lhs_key is not None:
        terms = {lhs_key: lhs, **terms}
    return IdentityReport(identity_id, params, terms, lhs, rhs, lhs - rhs,
                          agrees(lhs, rhs, tolerance))


def _gradient_pairs(omega: PolyForm, scale=1) -> list[tuple]:
    """The terms of scale * |nabla omega|^2 = scale * sum_k |d omega/dx_k|^2."""
    pairs = []
    for k in range(1, omega.m + 1):
        dk = omega.partial(k)
        pairs += inner_pairs(dk, dk, scale)
    return pairs


def _hessian_int(weight: WeightFunction, a: PolyForm, b: PolyForm,
                 domain: BallDomain) -> Fraction:
    """int over the ball of <a, Hess-lift b>, one contraction per entry."""
    return sum((domain.interior(pairs, entry)
                for entry, pairs in weight.hessian_pairs(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# Integration by parts (Stokes formula with the inner normal).
# ---------------------------------------------------------------------------

def verify_stokes(phi: PolyForm, psi: PolyForm, domain: BallDomain,
                  tolerance=0) -> IdentityReport:
    """int <d phi, psi> = int <phi, delta psi> - int_S <J* phi, i_N psi>."""
    if psi.p != phi.p + 1:
        raise ValueError("need deg(psi) = deg(phi) + 1")
    lhs = domain.interior(inner_pairs(phi.d(), psi))
    interior = domain.interior(inner_pairs(phi, psi.delta()))
    boundary = domain.boundary(jstar_pairs(phi, normal_part(psi, domain), domain))
    return _report("stokes", {"m": domain.m, "p": phi.p, "R": domain.radius},
                   lhs, {"interior": interior, "boundary": -boundary}, tolerance)


# ---------------------------------------------------------------------------
# The weighted integration-by-parts identity for p-forms.
# ---------------------------------------------------------------------------

def weighted_reilly_terms(weight: WeightFunction, omega: PolyForm,
                          domain: BallDomain) -> dict[str, Fraction]:
    """All integral terms of the weighted identity, named.

    Interior terms (ball integrals):
      lhs_energy        f (|delta w|^2 + |d w|^2 - |grad w|^2)
      contraction      -2 <w, i_{grad f} dw>
      hessian           <w, Hess f(w)>
      laplacian         (lap f) |w|^2
    Boundary terms (sphere integrals):
      normal_pullback  -f_N |J* w|^2
      codifferential    2 f <delta^S(J* w), i_N w>
      shape             f B(w, w)

    The curvature term of the ambient identity vanishes on flat space
    and is not listed.
    """
    m, p = domain.m, omega.p
    if omega.m != m or weight.m != m:
        raise ValueError("dimension mismatch")

    energy = inner_pairs(omega.delta(), omega.delta()) if p >= 1 else []
    if p <= m - 1:
        dw = omega.d()
        energy += inner_pairs(dw, dw)
    energy += _gradient_pairs(omega, -1)

    # -2 <w, i_{grad f} dw>, one contraction per gradient entry
    contraction = Fraction(0)
    if p <= m - 1:
        for k in range(1, m + 1):
            gk = weight.grad[k - 1]
            if gk.is_zero():
                continue
            comps = [Polynomial.zero(m)] * m
            comps[k - 1] = Polynomial.one(m)
            contraction += domain.interior(inner_pairs(omega, dw.interior(comps), -2), gk)

    if p >= 1:
        i_n = normal_part(omega, domain)
        codiff = domain.boundary(inner_pairs(boundary_delta_rep(omega, domain), i_n, 2),
                                 weight.f)
        shape = domain.boundary(b_term_pairs(omega, domain), weight.f)
    else:
        codiff = shape = Fraction(0)

    return {
        "lhs_energy": domain.interior(energy, weight.f),
        "contraction": contraction,
        "hessian": _hessian_int(weight, omega, omega, domain),
        "laplacian": domain.interior(inner_pairs(omega, omega), weight.lap),
        "normal_pullback": domain.boundary(jstar_pairs(omega, omega, domain, -1),
                                           weight.normal_derivative(domain)),
        "codifferential": codiff,
        "shape": shape,
    }


def verify_weighted_reilly(weight: WeightFunction, omega: PolyForm,
                           domain: BallDomain, tolerance=0) -> IdentityReport:
    """Weighted identity: interior energy against Hessian, Laplacian and
    boundary terms; exact residual must vanish."""
    terms = dict(weighted_reilly_terms(weight, omega, domain))
    lhs = terms.pop("lhs_energy")
    return _report("weighted-reilly",
                   {"m": domain.m, "p": omega.p, "R": domain.radius,
                    "weight": weight.kind},
                   lhs, terms, tolerance, "lhs_energy")


def verify_unweighted_reilly(omega: PolyForm, domain: BallDomain,
                             tolerance=0) -> IdentityReport:
    """The unweighted special case, evaluated directly:

    int (|dw|^2 + |delta w|^2) = int |grad w|^2
        + 2 int_S <delta^S(J*w), i_N w> + int_S B(w,w).
    """
    m, p = domain.m, omega.p
    energy = inner_pairs(omega.d(), omega.d()) if p <= m - 1 else []
    if p >= 1:
        energy += inner_pairs(omega.delta(), omega.delta())
    lhs = domain.interior(energy)
    grad = domain.interior(_gradient_pairs(omega))
    if p >= 1:
        i_n = normal_part(omega, domain)
        codiff = 2 * domain.boundary(inner_pairs(boundary_delta_rep(omega, domain), i_n))
        shape = domain.boundary(b_term_pairs(omega, domain))
    else:
        codiff = Fraction(0)
        shape = Fraction(0)
    return _report("unweighted-reilly", {"m": m, "p": p, "R": domain.radius}, lhs,
                   {"gradient": grad, "codifferential": codiff, "shape": shape},
                   tolerance, "energy")


def verify_function_reilly(weight: WeightFunction, u: Polynomial,
                           domain: BallDomain, tolerance=0) -> IdentityReport:
    """Function case of the weighted identity:

    int f ((lap u)^2 - |Hess u|^2)
      = int_S f (2 u_N lap^S u + nH u_N^2 + h(grad^S u, grad^S u))
        - int_S f_N |grad^S u|^2
        + int (Hess f + lap f g)(grad u, grad u),

    with the ambient Ricci term absent on flat space.
    """
    m = domain.m
    n = domain.boundary_dim
    c = domain.curvature
    du = PolyForm.from_function(u).d()
    lap_u = PolyForm.from_function(u).laplacian().coefficient(())
    energy = [(1, lap_u, lap_u)]
    for a in range(1, m + 1):
        for l in range(1, m + 1):
            e = u.partial(a).partial(l)
            energy.append((-1, e, e))
    lhs = domain.interior(energy, weight.f)

    u_n = normal_part(du, domain).coefficient(())
    lap_s_u = boundary_delta_rep(du, domain).coefficient(())
    boundary_main = domain.boundary(
        [(2, u_n, lap_s_u), (n * c, u_n, u_n)] + jstar_pairs(du, du, domain, c), weight.f)
    boundary_fn = domain.boundary(jstar_pairs(du, du, domain),
                                  weight.normal_derivative(domain))
    hess_term = _hessian_int(weight, du, du, domain)
    lap_term = domain.interior(inner_pairs(du, du), weight.lap)

    terms = {"boundary_main": boundary_main, "boundary_fn": -boundary_fn,
             "hessian": hess_term, "laplacian": lap_term}
    return _report("function-reilly",
                   {"m": m, "R": domain.radius, "weight": weight.kind},
                   lhs, terms, tolerance, "lhs_energy")


# ---------------------------------------------------------------------------
# The vector-field (Pohozhaev-type) identity for |d phi|^2.
# ---------------------------------------------------------------------------

def verify_pohozhaev(F: PolyVectorField, phi: PolyForm, domain: BallDomain,
                     tolerance=0) -> IdentityReport:
    """int |d phi|^2 div F = - int_S |d phi|^2 <F, N>
        - 2 int <i_F d phi, delta d phi>
        + 2 int_S <J* i_F d phi, i_N d phi>
        + 2 int <nabla F (d phi), d phi>.
    """
    m = domain.m
    if phi.p > m - 1:
        raise ValueError("d phi needs deg(phi) <= m-1")
    dphi = phi.d()
    d_sq = inner_pairs(dphi, dphi)
    lhs = domain.interior(d_sq, F.divergence())

    flux = domain.boundary(d_sq, F.dot(domain.normal_field()))
    if dphi.p >= 1:
        i_f = dphi.interior(F)
        contraction = domain.interior(inner_pairs(i_f, dphi.delta()))
        boundary_pair = domain.boundary(jstar_pairs(i_f, normal_part(dphi, domain), domain))
    else:
        contraction = Fraction(0)
        boundary_pair = Fraction(0)
    jac = domain.interior(inner_pairs(gradient_action(F, dphi), dphi))

    terms = {"flux": -flux, "contraction": -2 * contraction,
             "boundary_pair": 2 * boundary_pair, "jacobian": 2 * jac}
    return _report("pohozhaev", {"m": m, "p": phi.p, "R": domain.radius},
                   lhs, terms, tolerance)


# ---------------------------------------------------------------------------
# Pointwise lemmas.
# ---------------------------------------------------------------------------

def product_rule_residual(F: PolyVectorField, omega: PolyForm) -> bool:
    """d(i_F w) = -i_F(dw) + grad_F w + nabla F(w), exactly."""
    if omega.p < 1:
        raise ValueError("needs degree >= 1")
    lhs = omega.interior(F).d()
    rhs = omega.deriv_along(F) + gradient_action(F, omega)
    if omega.p <= omega.m - 1:
        rhs = rhs - omega.d().interior(F)
    return (lhs - rhs).is_zero()


def weighted_codifferential_residual(f: Polynomial, omega: PolyForm) -> bool:
    """delta(f w) = -i_{grad f} w + f delta(w), exactly."""
    if omega.p < 1:
        raise ValueError("needs degree >= 1")
    fw = PolyForm(omega.m, omega.p, {I: c * f for I, c in omega.coeffs.items()})
    lhs = fw.delta()
    gradf = PolyVectorField.from_gradient(f)
    rhs = -omega.interior(gradf) + PolyForm(
        omega.m, omega.p - 1,
        {I: c * f for I, c in omega.delta().coeffs.items()})
    return (lhs - rhs).is_zero()


def hessian_expansion_residual(f: Polynomial, omega: PolyForm) -> bool:
    """delta(df ^ w) = (lap f) w - grad_{grad f} w + Hess f(w) - df ^ delta w."""
    gradf = PolyVectorField.from_gradient(f)
    df = gradf.dual_one_form()
    lhs = df.wedge(omega).delta()
    lap_f = PolyForm.from_function(f).laplacian().coefficient(())
    rhs = omega * lap_f - omega.deriv_along(gradf) \
        + omega.lift_by(hessian_matrix(f))
    if omega.p >= 1:
        rhs = rhs - df.wedge(omega.delta())
    return (lhs - rhs).is_zero()


def adjunction_residual(phi: ConstantForm, psi: ConstantForm, X) -> bool:
    """<phi, X^* ^ psi> = <i_X phi, psi> for constant forms, exactly."""
    m = phi.m
    xform = ConstantForm(m, 1, {(k,): X[k - 1] for k in range(1, m + 1)})
    return xform.wedge(psi).inner(phi) == phi.interior(X).inner(psi)


def pullback_split_residual(omega: PolyForm, domain: BallDomain) -> Fraction:
    """int_S (|w|^2 - |J* w|^2 - |i_N w|^2): zero by the normal splitting."""
    i_n = normal_part(omega, domain)
    pairs = (inner_pairs(omega, omega) + jstar_pairs(omega, omega, domain, -1)
             + inner_pairs(i_n, i_n, -1))
    return domain.boundary(pairs)


def boundary_adjointness_residual(alpha: PolyForm, beta: PolyForm,
                                  domain: BallDomain) -> Fraction:
    """int_S <d^S J*a, J*b> - int_S <J*a, delta^S J*b>, exact."""
    if beta.p != alpha.p + 1:
        raise ValueError("need deg(beta) = deg(alpha) + 1")
    lhs = domain.boundary(jstar_pairs(alpha.d(), beta, domain))
    rhs = domain.boundary(jstar_pairs(alpha, boundary_delta_rep(beta, domain), domain))
    return lhs - rhs


# ---------------------------------------------------------------------------
# Pointwise Hessian eigenvalue-sum estimate.
# ---------------------------------------------------------------------------

class HessianEstimateReport:
    __slots__ = ("admissible", "margin", "equality", "passed")

    def __init__(self, admissible: bool, margin: Fraction, equality: bool, passed: bool):
        self.admissible, self.margin, self.equality, self.passed = \
            admissible, margin, equality, passed


def pointwise_hessian_estimate(hess: list[list[Fraction]], eta: ConstantForm,
                               c: Fraction, eps: Fraction) -> HessianEstimateReport:
    """Check (lap f)|eta|^2 + <eta, Hess-lift eta> >= (m-q)(c-eps)|eta|^2
    for a Hessian with -Hess >= (c-eps) Id, where q = deg eta.  ``hess``
    is the m x m matrix of the Hessian given as rows, m = eta.m; any
    other shape raises ``ValueError`` (``FormBody.lift_by``).

    The bound holds because in the Hessian eigenbasis each multi-index
    component picks up the sum of the eigenvalues of -Hess outside its
    index set.  Admissibility is certified by an exact PSD test.
    """
    from .linalg import is_positive_semidefinite
    m = eta.m
    lifted = eta.lift_by(hess)
    c, eps = Fraction(c), Fraction(eps)
    shifted = [[-hess[i][j] - (c - eps) * int(i == j) for j in range(m)]
               for i in range(m)]
    admissible = is_positive_semidefinite(shifted)
    lap = -sum(hess[i][i] for i in range(m))
    norm = eta.norm_sq()
    value = lap * norm + eta.inner(lifted)
    bound = (m - eta.p) * (c - eps) * norm
    margin = value - bound
    if not admissible:
        return HessianEstimateReport(False, margin, False, False)
    return HessianEstimateReport(True, margin, margin == 0, margin >= 0)


# ---------------------------------------------------------------------------
# Replay of the eigenvalue-bound derivations on the ball.
# ---------------------------------------------------------------------------

class ChainReport:
    __slots__ = ("kind", "params", "checks", "details")

    def __init__(self, kind: str, params: dict, checks: dict[str, bool],
                 details: dict[str, str]):
        self.kind, self.params, self.checks, self.details = kind, params, checks, details

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "params": {k: str(v) for k, v in self.params.items()},
                "checks": dict(self.checks),
                "details": dict(self.details),
                "pass": self.passed}


def replay_proof_chain(kind: str, p: int, domain: BallDomain,
                       cache=None) -> ChainReport:
    """Re-run a bound derivation step by step on ball eigenforms.

    kind "sharp-bound": the weighted identity applied to d(eigenform),
    the vector-field identity with F = grad(weight), their sum, the
    eigenvalue relations, and the rigidity system (parallel d(eigenform)
    and proportional normal trace) -- all exact, with the first
    eigenvalue equal to (p+1)c.

    kind "comparison": the pointwise eigenvalue-sum identity with the
    isotropic Hessian and the Laplacian of the canonical weight, as its
    ``WeightFunction`` holds them, giving the (n-p)c factor exactly.

    kind "nonsharp": the unweighted identity chain giving the strict
    half bound, including the two-term shape expression for B.

    The "eigenvalue-product" and "strict-half-bound" checks read each
    trial form's own quotient sigma_phi = int_S <J*(-i_N dphi), J*phi> /
    int_S |J*phi|^2, so a block that is not the first eigenform block
    fails them; ``details["sigma"]`` is the expected value (p+1)c.
    """
    from .ball import canonical_weight
    from .harmonic import BasisCache

    if kind not in ("sharp-bound", "comparison", "nonsharp"):
        raise ValueError(f"unknown chain kind {kind!r}")
    cache = cache or BasisCache()
    m = domain.m
    n = domain.boundary_dim
    c = domain.curvature
    if kind in ("comparison", "nonsharp") and p > n - 1:
        raise ValueError(f"{kind} chain needs p <= n-1")
    block = cache.get(m, 1, p, "H-normal-null")
    if not block:
        raise ValueError("missing eigenform block")
    weight = canonical_weight(domain)
    sigma = (p + 1) * c

    checks: dict[str, bool] = {}
    details: dict[str, str] = {}

    for idx, phi in enumerate(block):
        tag = f"[{idx}]"
        dphi = phi.d()
        i_n_dphi = normal_part(dphi, domain)
        d_sq = inner_pairs(dphi, dphi)
        jstar_d_int = domain.boundary(jstar_pairs(dphi, dphi, domain))
        phi_trace_sq = domain.boundary(jstar_pairs(phi, phi, domain))
        if kind != "sharp-bound":
            # the Dirichlet-to-Neumann quotient of phi, its own extension
            sigma_phi = domain.boundary(jstar_pairs(i_n_dphi, phi, domain, -1)) / phi_trace_sq

        if kind == "sharp-bound":
            hess_int = _hessian_int(weight, dphi, dphi, domain)
            lap_int = domain.interior(d_sq, weight.lap)
            grad_int = domain.interior(_gradient_pairs(dphi), weight.f)
            normal_int = domain.boundary(inner_pairs(i_n_dphi, i_n_dphi))
            checks[f"weighted-identity{tag}"] = jstar_d_int == hess_int + lap_int + grad_int
            checks[f"vector-field-identity{tag}"] = (
                lap_int + 2 * hess_int == jstar_d_int - normal_int)
            checks[f"summed-identity{tag}"] = normal_int == -hess_int + grad_int
            checks[f"normal-trace-energy{tag}"] = (
                normal_int == sigma ** 2 * phi_trace_sq)
            checks[f"interior-energy{tag}"] = domain.interior(d_sq) == sigma * phi_trace_sq
            checks[f"parallel-differential{tag}"] = all(
                dphi.partial(k).is_zero() for k in range(1, m + 1))
            rigid = -i_n_dphi - phi * sigma
            checks[f"normal-trace-proportional{tag}"] = domain.boundary(
                jstar_pairs(rigid, rigid, domain)) == 0

        elif kind == "comparison":
            norm_sq = dphi.norm_sq()
            pointwise = (norm_sq * weight.lap + dphi.inner(dphi.lift_by(weight.hess))
                         - norm_sq * ((n - p) * c))
            checks[f"pointwise-sum{tag}"] = not pointwise
            rhs = ((n - p) * c * domain.interior(d_sq)
                   + domain.interior(_gradient_pairs(dphi), weight.f))
            checks[f"comparison-identity{tag}"] = jstar_d_int == rhs
            lam = (1 + p) * (n - p) * c * c
            checks[f"eigenvalue-product{tag}"] = sigma_phi * (n - p) * c == lam

        else:  # nonsharp
            grad_sq = domain.interior(_gradient_pairs(dphi))
            ds_rep = boundary_delta_rep(dphi, domain)
            pair = domain.boundary(inner_pairs(ds_rep, i_n_dphi))
            bint = domain.boundary(b_term_pairs(dphi, domain))
            checks[f"unweighted-identity{tag}"] = grad_sq + 2 * pair + bint == 0
            step1 = domain.boundary(jstar_pairs(ds_rep, phi, domain))
            checks[f"trace-substitution{tag}"] = pair == -sigma * step1
            step2 = domain.boundary(jstar_pairs(dphi, phi.d(), domain))
            checks[f"adjoint-step{tag}"] = step1 == step2 and step2 == jstar_d_int
            balt = domain.boundary(b_term_alternate_pairs(dphi, domain))
            checks[f"shape-expression{tag}"] = bint == balt
            checks[f"strict-half-bound{tag}"] = sigma_phi > (p + 1) * c / 2

    details["sigma"] = str(sigma)
    details["block_dim"] = str(len(block))
    return ChainReport(kind, {"m": m, "p": p, "R": domain.radius}, checks, details)
