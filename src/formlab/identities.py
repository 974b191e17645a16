"""Zero-tolerance verification of the integral identities on balls.

Every check evaluates both sides of an identity by exact rational
quadrature and reports the residual as a rational multiple of the
unit-sphere measure.  A check passes iff the residual is exactly zero
(or below the caller's tolerance when running with float scalars).

The weighted integration-by-parts identity is organised term by term so
that a failure names the offending term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exterior import ConstantForm, LinearEndomorphism
from .polynomials import Polynomial
from .polyform import PolyForm, PolyVectorField, gradient_action
from .quadrature import RadialDensity, integrate_ball, integrate_sphere
from .ball import (BallDomain, WeightFunction, b_term,
                   b_term_alternate, boundary_delta_rep, jstar_inner,
                   normal_part)


@dataclass
class IdentityReport:
    identity_id: str
    params: dict
    terms: dict[str, Fraction]
    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    passed: bool

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


def _passes(residual, tolerance) -> bool:
    if tolerance == 0:
        return residual == 0
    return abs(residual) <= tolerance


def _report(identity_id, params, terms, lhs, rhs, tolerance=0) -> IdentityReport:
    residual = lhs - rhs
    return IdentityReport(identity_id, params, terms, lhs, rhs, residual,
                          _passes(residual, tolerance))


# ---------------------------------------------------------------------------
# Integration by parts (Stokes formula with the inner normal).
# ---------------------------------------------------------------------------

def verify_stokes(phi: PolyForm, psi: PolyForm, domain: BallDomain,
                  tolerance=0) -> IdentityReport:
    """int <d phi, psi> = int <phi, delta psi> - int_S <J* phi, i_N psi>."""
    if psi.p != phi.p + 1:
        raise ValueError("need deg(psi) = deg(phi) + 1")
    R = domain.radius
    lhs = integrate_ball(phi.d().inner(psi), R).coeff
    interior = integrate_ball(phi.inner(psi.delta()), R).coeff
    boundary = integrate_sphere(jstar_inner(phi, normal_part(psi, domain), domain), R).coeff
    terms = {"interior": interior, "boundary": -boundary}
    return _report("stokes", {"m": domain.m, "p": phi.p, "R": R},
                   terms, lhs, interior - boundary, tolerance)


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
    m, p, R = domain.m, omega.p, domain.radius
    if omega.m != m or weight.m != m:
        raise ValueError("dimension mismatch")
    normal = domain.normal_field()

    delta_sq = omega.delta().norm_sq() if p >= 1 else Polynomial.zero(m)
    d_sq = omega.d().norm_sq() if p <= m - 1 else Polynomial.zero(m)
    grad_sq = omega.gradient_norm_sq()
    lhs_density = weight.f * (delta_sq + d_sq - grad_sq)

    # -2 <w, i_{grad f} dw>, assembled with density-valued gradient entries
    contraction = RadialDensity.zero(m)
    if p <= m - 1:
        dw = omega.d()
        for k in range(1, m + 1):
            gk = weight.grad[k - 1]
            if gk.is_zero():
                continue
            comps = [Polynomial.zero(m)] * m
            comps[k - 1] = Polynomial.one(m)
            pairing = omega.inner(dw.interior(comps))
            if pairing:
                contraction = contraction + gk * pairing
    contraction = contraction * (-2)

    hessian = weight.hessian_quadratic(omega, omega)
    laplacian = weight.lap * omega.norm_sq()

    i_n = normal_part(omega, domain) if p >= 1 else None
    jstar_sq = omega.norm_sq() - (i_n.inner(i_n) if i_n is not None else Polynomial.zero(m))
    normal_pullback = weight.normal_derivative(domain) * jstar_sq * (-1)

    if p >= 1:
        ds_rep = boundary_delta_rep(omega, domain)
        codiff = weight.f * (2 * ds_rep.inner(i_n))
        shape = weight.f * b_term(omega, domain)
    else:
        codiff = RadialDensity.zero(m)
        shape = RadialDensity.zero(m)

    return {
        "lhs_energy": integrate_ball(lhs_density, R).coeff,
        "contraction": integrate_ball(contraction, R).coeff,
        "hessian": integrate_ball(hessian, R).coeff,
        "laplacian": integrate_ball(laplacian, R).coeff,
        "normal_pullback": integrate_sphere(normal_pullback, R).coeff,
        "codifferential": integrate_sphere(codiff, R).coeff,
        "shape": integrate_sphere(shape, R).coeff,
    }


def verify_weighted_reilly(weight: WeightFunction, omega: PolyForm,
                           domain: BallDomain, tolerance=0) -> IdentityReport:
    """Weighted identity: interior energy against Hessian, Laplacian and
    boundary terms; exact residual must vanish."""
    terms = weighted_reilly_terms(weight, omega, domain)
    lhs = terms["lhs_energy"]
    rhs = (terms["contraction"] + terms["hessian"] + terms["laplacian"]
           + terms["normal_pullback"] + terms["codifferential"] + terms["shape"])
    return _report("weighted-reilly",
                   {"m": domain.m, "p": omega.p, "R": domain.radius,
                    "weight": weight.kind},
                   terms, lhs, rhs, tolerance)


def verify_unweighted_reilly(omega: PolyForm, domain: BallDomain,
                             tolerance=0) -> IdentityReport:
    """The unweighted special case, evaluated directly:

    int (|dw|^2 + |delta w|^2) = int |grad w|^2
        + 2 int_S <delta^S(J*w), i_N w> + int_S B(w,w).
    """
    m, p, R = domain.m, omega.p, domain.radius
    delta_sq = omega.delta().norm_sq() if p >= 1 else Polynomial.zero(m)
    d_sq = omega.d().norm_sq() if p <= m - 1 else Polynomial.zero(m)
    lhs = integrate_ball(d_sq + delta_sq, R).coeff
    grad = integrate_ball(omega.gradient_norm_sq(), R).coeff
    if p >= 1:
        i_n = normal_part(omega, domain)
        codiff = 2 * integrate_sphere(
            boundary_delta_rep(omega, domain).inner(i_n), R).coeff
        shape = integrate_sphere(b_term(omega, domain), R).coeff
    else:
        codiff = Fraction(0)
        shape = Fraction(0)
    terms = {"energy": lhs, "gradient": grad, "codifferential": codiff, "shape": shape}
    return _report("unweighted-reilly", {"m": m, "p": p, "R": R},
                   terms, lhs, grad + codiff + shape, tolerance)


def verify_function_reilly(weight: WeightFunction, u: Polynomial,
                           domain: BallDomain, tolerance=0) -> IdentityReport:
    """Function case of the weighted identity:

    int f ((lap u)^2 - |Hess u|^2)
      = int_S f (2 u_N lap^S u + nH u_N^2 + h(grad^S u, grad^S u))
        - int_S f_N |grad^S u|^2
        + int (Hess f + lap f g)(grad u, grad u),

    with the ambient Ricci term absent on flat space.
    """
    m, R = domain.m, domain.radius
    n = domain.boundary_dim
    c = domain.curvature
    du = PolyForm.from_function(u).d()
    lap_u = PolyForm.from_function(u).laplacian().coefficient(())
    hess_sq = Polynomial.zero(m)
    for a in range(1, m + 1):
        for l in range(1, m + 1):
            e = u.partial(a).partial(l)
            hess_sq = hess_sq + e * e
    lhs = integrate_ball(weight.f * (lap_u * lap_u - hess_sq), R).coeff

    u_n = normal_part(du, domain).coefficient(())
    lap_s_u = boundary_delta_rep(du, domain).coefficient(())
    grad_s_sq = jstar_inner(du, du, domain)
    boundary_main = integrate_sphere(
        weight.f * (2 * u_n * lap_s_u + (n * c) * u_n * u_n + c * grad_s_sq),
        R).coeff
    boundary_fn = integrate_sphere(
        weight.normal_derivative(domain) * grad_s_sq, R).coeff
    hess_term = integrate_ball(weight.hessian_quadratic(du, du), R).coeff
    lap_term = integrate_ball(weight.lap * du.norm_sq(), R).coeff

    terms = {"lhs_energy": lhs, "boundary_main": boundary_main,
             "boundary_fn": -boundary_fn, "hessian": hess_term,
             "laplacian": lap_term}
    rhs = boundary_main - boundary_fn + hess_term + lap_term
    return _report("function-reilly",
                   {"m": m, "R": R, "weight": weight.kind},
                   terms, lhs, rhs, tolerance)


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
    m, R = domain.m, domain.radius
    if phi.p > m - 1:
        raise ValueError("d phi needs deg(phi) <= m-1")
    normal = domain.normal_field()
    dphi = phi.d()
    d_sq = dphi.norm_sq()
    lhs = integrate_ball(d_sq * F.divergence(), R).coeff

    f_dot_n = F.dot(normal)
    flux = integrate_sphere(d_sq * f_dot_n, R).coeff
    if dphi.p >= 1:
        i_f = dphi.interior(F)
        ddagger = dphi.delta()
        contraction = integrate_ball(i_f.inner(ddagger), R).coeff
        boundary_pair = integrate_sphere(
            jstar_inner(i_f, normal_part(dphi, domain), domain), R).coeff
    else:
        contraction = Fraction(0)
        boundary_pair = Fraction(0)
    jac = integrate_ball(gradient_action(F, dphi).inner(dphi), R).coeff

    terms = {"flux": -flux, "contraction": -2 * contraction,
             "boundary_pair": 2 * boundary_pair, "jacobian": 2 * jac}
    rhs = -flux - 2 * contraction + 2 * boundary_pair + 2 * jac
    return _report("pohozhaev", {"m": m, "p": phi.p, "R": R},
                   terms, lhs, rhs, tolerance)


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
    from .polyform import hessian_matrix
    m = omega.m
    df = PolyVectorField.from_gradient(f).dual_one_form()
    lhs = df.wedge(omega).delta()
    lap_f = PolyForm.from_function(f).laplacian().coefficient(())
    rhs = omega * lap_f - omega.deriv_along(PolyVectorField.from_gradient(f)) \
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
    density = omega.norm_sq() - jstar_inner(omega, omega, domain) - i_n.inner(i_n)
    return integrate_sphere(density, domain.radius).coeff


def boundary_adjointness_residual(alpha: PolyForm, beta: PolyForm,
                                  domain: BallDomain) -> Fraction:
    """int_S <d^S J*a, J*b> - int_S <J*a, delta^S J*b>, exact."""
    if beta.p != alpha.p + 1:
        raise ValueError("need deg(beta) = deg(alpha) + 1")
    R = domain.radius
    lhs = integrate_sphere(jstar_inner(alpha.d(), beta, domain), R).coeff
    rhs = integrate_sphere(
        jstar_inner(alpha, boundary_delta_rep(beta, domain), domain), R).coeff
    return lhs - rhs


# ---------------------------------------------------------------------------
# Pointwise Hessian eigenvalue-sum estimate.
# ---------------------------------------------------------------------------

@dataclass
class HessianEstimateReport:
    admissible: bool
    margin: Fraction
    equality: bool
    passed: bool


def pointwise_hessian_estimate(hess: LinearEndomorphism, eta: ConstantForm,
                               c: Fraction, eps: Fraction) -> HessianEstimateReport:
    """Check (lap f)|eta|^2 + <eta, Hess-lift eta> >= (m-q)(c-eps)|eta|^2
    for a Hessian with -Hess >= (c-eps) Id, where q = deg eta.

    The bound holds because in the Hessian eigenbasis each multi-index
    component picks up the sum of the eigenvalues of -Hess outside its
    index set.  Admissibility is certified by an exact PSD test.
    """
    from .linalg import is_positive_semidefinite
    m = hess.m
    c, eps = Fraction(c), Fraction(eps)
    shifted = [[-hess.entries[i][j] - (c - eps) * int(i == j) for j in range(m)]
               for i in range(m)]
    admissible = is_positive_semidefinite([[Fraction(v) for v in row] for row in shifted])
    lap = -hess.trace()
    norm = eta.norm_sq()
    value = lap * norm + eta.inner(hess.lift(eta))
    bound = (m - eta.p) * (c - eps) * norm
    margin = value - bound
    if not admissible:
        return HessianEstimateReport(False, margin, False, False)
    return HessianEstimateReport(True, margin, margin == 0, margin >= 0)


# ---------------------------------------------------------------------------
# Replay of the eigenvalue-bound derivations on the ball.
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    kind: str
    params: dict
    checks: dict[str, bool]
    details: dict[str, str]

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
    isotropic Hessian, giving the (n-p)c factor exactly.

    kind "nonsharp": the unweighted identity chain giving the strict
    half bound, including the two-term shape expression for B.
    """
    from .ball import canonical_weight
    from .harmonic import BasisCache

    if kind not in ("sharp-bound", "comparison", "nonsharp"):
        raise ValueError(f"unknown chain kind {kind!r}")
    cache = cache or BasisCache()
    m, R = domain.m, domain.radius
    n = domain.boundary_dim
    c = domain.curvature
    if kind in ("comparison", "nonsharp") and p > n - 1:
        raise ValueError(f"{kind} chain needs p <= n-1")
    block = cache.get(m, 1, p, "H-normal-null")
    if not block.dim:
        raise ValueError("missing eigenform block")
    weight = canonical_weight(domain)
    sigma = (p + 1) * c

    checks: dict[str, bool] = {}
    details: dict[str, str] = {}

    for idx, phi in enumerate(block.basis):
        tag = f"[{idx}]"
        dphi = phi.d()
        i_n_dphi = normal_part(dphi, domain)
        d_sq = dphi.norm_sq()
        jstar_d_int = integrate_sphere(jstar_inner(dphi, dphi, domain), R).coeff
        phi_trace_sq = integrate_sphere(jstar_inner(phi, phi, domain), R).coeff

        if kind == "sharp-bound":
            hess_int = integrate_ball(weight.hessian_quadratic(dphi, dphi), R).coeff
            lap_int = integrate_ball(weight.lap * d_sq, R).coeff
            grad_int = integrate_ball(weight.f * dphi.gradient_norm_sq(), R).coeff
            normal_int = integrate_sphere(i_n_dphi.norm_sq(), R).coeff
            checks[f"weighted-identity{tag}"] = jstar_d_int == hess_int + lap_int + grad_int
            checks[f"vector-field-identity{tag}"] = (
                lap_int + 2 * hess_int == jstar_d_int - normal_int)
            checks[f"summed-identity{tag}"] = normal_int == -hess_int + grad_int
            checks[f"normal-trace-energy{tag}"] = (
                normal_int == sigma ** 2 * phi_trace_sq)
            checks[f"interior-energy{tag}"] = (
                integrate_ball(d_sq, R).coeff == sigma * phi_trace_sq)
            checks[f"parallel-differential{tag}"] = all(
                dphi.partial(k).is_zero() for k in range(1, m + 1))
            rigid = -i_n_dphi - phi * sigma
            checks[f"normal-trace-proportional{tag}"] = integrate_sphere(
                jstar_inner(rigid, rigid, domain), R).coeff == 0

        elif kind == "comparison":
            pointwise = (weight.lap * d_sq + weight.hessian_quadratic(dphi, dphi)
                         - (n - p) * c * d_sq)
            checks[f"pointwise-sum{tag}"] = pointwise.is_zero()
            rhs = ((n - p) * c * integrate_ball(d_sq, R).coeff
                   + integrate_ball(weight.f * dphi.gradient_norm_sq(), R).coeff)
            checks[f"comparison-identity{tag}"] = jstar_d_int == rhs
            lam = (1 + p) * (n - p) * c * c
            checks[f"eigenvalue-product{tag}"] = sigma * (n - p) * c == lam

        else:  # nonsharp
            grad_sq = integrate_ball(dphi.gradient_norm_sq(), R).coeff
            ds_rep = boundary_delta_rep(dphi, domain)
            pair = integrate_sphere(ds_rep.inner(i_n_dphi), R).coeff
            bint = integrate_sphere(b_term(dphi, domain), R).coeff
            checks[f"unweighted-identity{tag}"] = grad_sq + 2 * pair + bint == 0
            step1 = integrate_sphere(jstar_inner(ds_rep, phi, domain), R).coeff
            checks[f"trace-substitution{tag}"] = pair == -sigma * step1
            step2 = integrate_sphere(jstar_inner(dphi, phi.d(), domain), R).coeff
            checks[f"adjoint-step{tag}"] = step1 == step2 and step2 == jstar_d_int
            balt = integrate_sphere(b_term_alternate(dphi, domain), R).coeff
            checks[f"shape-expression{tag}"] = bint == balt
            checks[f"strict-half-bound{tag}"] = sigma > (p + 1) * c / 2

    details["sigma"] = str(sigma)
    details["block_dim"] = str(block.dim)
    return ChainReport(kind, {"m": m, "p": p, "R": R}, checks, details)
