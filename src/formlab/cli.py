"""Batch runner for the verification suites.

Subcommands select a suite (``verify``, ``spectrum``, ``bounds``,
``curvature``, ``all``); every run writes a ``report.json`` plus one
CSV per suite into a fresh run directory under ``--out``, and exits 0
only when every check passed (1 on check failure, 2 on bad usage).

Report schema (``report.json``):

  schema_version   int
  config           echo of the resolved configuration
  suites           mapping suite name -> {"checks": [record, ...]}
                   where each record has at least "id" and "pass"
  summary          {"total": N, "passed": N, "failed": N}
  timing           excluded from determinism comparisons:
                     "cases"       wall-clock seconds of each case by id
                     <suite>       the sum of its cases' seconds (a float)
                     "tracebacks"  full traceback of each crashed case by id
                     "jobs"        the --jobs value
                     "workers"     the summed case seconds of each worker, a
                                   list indexed by worker

A spectra record carries "operator", "m", "p", "radius", "l_max",
"eigenvalues" (groups {"value", "multiplicity"}), "blocks" (one row
{"kind", "l", "dim", "eigenvalues", "reference"} per trial block) and
"certified" (exact multiplicity by eigenvalue).  Every eigenvalue is
an exact rational string such as "5/3": the spectrum is read off the
exact block certificate of ``spectral``, and a pencil failing it is a
crashed case.  Bound and scaling records keep their details as strings.

Schema 2 changed, from schema 1:

  * spectra "eigenvalues[].value" and "blocks[].eigenvalues[]": float
    numbers -> exact rational strings;
  * spectra "gram_condition" (float condition number of G) and
    "blocks[].max_reference_deviation" (float deviation from the
    reference): removed, since a certified block equals its reference;
  * spectra "certified": now the block certificate's multiplicities,
    which equal the nullities of A - theta G that schema 1 computed;
  * bounds details "sigma_1", "(p+1)c", "(p+1)c/2" and "nu_1": decimal
    strings of floats -> exact rational strings;
  * scaling details: "worst_relative_error" -> "groups", the number of
    eigenvalue groups compared exactly;
  * spectra.csv "eigenvalue" and "difference": exact rational strings.

Schema 3 changed, from schema 2, curvature records only:

  * "bochner_residual" (flat and round) and round "weitzenbock_deviation":
    float numbers -> exact rational strings, the largest absolute
    coefficient of the exact residual or deviation, "0" on a pass;
  * round "bochner_order" (the convergence order of a finite-difference
    stencil): removed, since the residual is now exact;
  * round "gallot_meyer_margin" (a float margin over sampled forms) ->
    "gallot_meyer", a bool decided by exact PSD tests.

Every check is a ``Case``, a named tuple of its key, a module-level
function, the keyword arguments to call it with and its group label.
``CASES`` maps each suite to the generator of its cases.  A case's
function gets the run's ``_Context`` and returns its record without an
id; the runner adds ``"id"``, the case key, in one place, for a crashed
case too.

Identical configuration and seed produce byte-identical reports modulo
the ``timing`` section at any ``--jobs`` level: the case list is built
deterministically, each case draws its randomness from a generator
keyed by the seed and the case's own context (a tag such as
``"reilly"`` or ``"quad"`` and the case's parameters), and results are
put back in list order.

``--jobs K`` splits the case list into groups (every spectrum, scaling,
bounds and chain case of one (m, p) is one group, since they share its
bases and its trial blocks (each built once per (m, p), with its
independence decision, shared by every radius, the three operators and
repeat assemblies, and with its eigenform checks made once per radius);
every quadrature-oracle case is in one group, so that numpy loads in
one process; every other case is a group of its own) and deals the
groups to min(K, groups) workers longest first, by the cost estimates
of ``CASE_COSTS``, each to the least-loaded worker.
Worker 0 is the calling process; the others are ``os.fork`` children,
which inherit the case list, the run's context and every module loaded
while building the list.  At ``--jobs 1`` nothing is forked.  numpy is
imported by the first oracle case that runs, so that case's
``timing.cases`` entry includes the import.

A run loads only the layers its suites call.  This module imports
``spectral`` and the layers below it (``ball``, ``harmonic``,
``linalg``, ``polyform``, ``polynomials``, ``exterior``), which is all a
``spectrum`` run loads: no ``quadrature`` and no numpy.  Each other
suite's case generator imports what its cases call before any worker is
forked: ``bounds`` loads ``identities``, and with it ``quadrature``,
for its proof-chain replays; ``verify`` loads ``identities`` and
``sampling``; ``curvature`` loads ``curvature`` and ``sampling``.  Of
the cases, only the quadrature oracle calls ``quadrature`` itself, and
it imports it where it calls it.  No run loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from importlib import import_module

from .ball import BallDomain, WeightFunction, canonical_weight, normal_split_residual
from .harmonic import BasisCache
from .polynomials import Polynomial
from .polyform import PolyForm, PolyVectorField
from .spectral import OPERATORS, assemble_operator, check_bounds, scaling_check

SCHEMA_VERSION = 3
SUITES = ("identities", "spectra", "bounds", "curvature")
# Float mode: an identity passes when its residual is at most this many
# (64 eps, ~1.4e-14) times the residual's tracked magnitude
# (``identities.TrackedFloat``).  Over the 924 float reports of `verify`
# at m = 2..4, radii 1/8..8 and seeds 7 and 11, rounding left at most
# 0.81 eps of that magnitude (0.67 eps in the weighted and function
# Reilly identities).  The largest term off by 1e-9 of itself moved the
# residual by at least 328 eps of it, except in 36 reports whose terms
# are all rounding remainders and in one (m = p = 3, R = 1/8) where the
# Hessian term's own cancellation sets the magnitude (1.4 eps).
FLOAT_TOLERANCE = 64 * sys.float_info.epsilon
# The oracle keys Philox with seed * 1000 + draw, which must stay in
# 0..2**128 - 1.
ORACLE_DRAWS = 3
MAX_SEED = (2 ** 128 - ORACLE_DRAWS) // 1000
# A Monte Carlo draw deviating by more than this many standard errors
# fails the quadrature oracle.  The two-sided normal tail at 5 sigma is
# ~5.7e-7 per draw, so chance failures stay negligible over many draws
# and seeds, while an exact value off by half lies tens of sigma away.
ORACLE_SIGMA_BOUND = 5.0
# The group label of every quadrature-oracle case: the oracle is the only
# code that imports numpy, so one worker loads it.
ORACLE_GROUP = "quadrature-oracle"


class RunConfig:
    """One run's settings.  Each default is stated here alone: the help
    texts read it (``_stated_default``), and ``dims`` and ``radii``
    default to a fresh list per instance."""

    __slots__ = ("suites", "dims", "degrees", "radii", "l_max", "seed", "mode",
                 "out_dir", "cache_dir", "jobs")

    def __init__(self, suites: list[str], dims: list[int] | None = None,
                 degrees: list[int] | None = None, radii: list[Fraction] | None = None,
                 l_max: int = 2, seed: int = 7, mode: str = "exact", out_dir: str = "runs",
                 cache_dir: str | None = None, jobs: int = 1):
        self.suites = suites
        self.dims = [3] if dims is None else dims
        self.degrees = degrees
        self.radii = [Fraction(1)] if radii is None else radii
        self.l_max, self.seed, self.mode = l_max, seed, mode
        self.out_dir, self.cache_dir, self.jobs = out_dir, cache_dir, jobs

    def validate(self) -> None:
        for key, values in (("suites", self.suites), ("dims", self.dims),
                            ("radii", self.radii)):
            if not values:
                raise ConfigError(f"{key} is empty: give at least one value")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        if any(m < 2 for m in self.dims):
            raise ConfigError("dimensions must be >= 2")
        if self.l_max < 1:
            raise ConfigError("lmax must be >= 1")
        if self.mode not in ("exact", "float"):
            raise ConfigError("mode must be 'exact' or 'float'")
        exact_only = [s for s in self.suites if s != "identities"]
        if self.mode == "float" and exact_only:
            raise ConfigError(
                f"mode 'float' applies to the identities suite only; "
                f"suites {exact_only} run in exact mode")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.jobs > 1 and not hasattr(os, "fork"):
            raise ConfigError("jobs above 1 run in forked worker processes, "
                              "and this platform has no os.fork")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be in 0..{MAX_SEED}, got {self.seed}")
        if any(r <= 0 for r in self.radii):
            raise ConfigError("radii must be positive")
        for name, values in (("suite", self.suites), ("dimension", self.dims),
                             ("radius", self.radii), ("degree", self.degrees or [])):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{name} {repeated[0]} is given more than once")
        if self.degrees is not None:
            if any(p < 1 for p in self.degrees):
                raise ConfigError("degrees must be >= 1")
            if "identities" in self.suites:
                for m in self.dims:
                    if not self.degrees_for(m, "identities"):
                        raise ConfigError(
                            f"dimension {m} has no degree in 1..{m} for the "
                            f"identities suite; got degrees {self.degrees}")
            for s in self.suites:
                if s in ("spectra", "bounds"):
                    if all(p > m - 1 for m in self.dims for p in self.degrees):
                        raise ConfigError(
                            f"suite {s!r} needs a degree p <= m-1; "
                            f"got degrees {self.degrees} for dims {self.dims}")

    def degrees_for(self, m: int, suite: str) -> list[int]:
        top = m if suite == "identities" else m - 1
        if self.degrees is None:
            return list(range(1, top + 1))
        return [p for p in self.degrees if 1 <= p <= top]

    def to_dict(self) -> dict:
        # jobs is an execution parameter, not an experiment parameter:
        # it is reported under timing so reports stay byte-identical
        # across parallelism degrees.
        return {
            "suites": list(self.suites),
            "dims": list(self.dims),
            "degrees": list(self.degrees) if self.degrees is not None else None,
            "radii": [str(r) for r in self.radii],
            "l_max": self.l_max,
            "seed": self.seed,
            "mode": self.mode,
        }


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Cases and the context they run in.
# ---------------------------------------------------------------------------

class Case(namedtuple("Case", "key run args group", defaults=(None,))):
    """One check: ``run(ctx, **args)`` returns its record, to which the
    runner adds ``"id": key``.  ``run`` is a module-level function, so a
    case pickles.  Cases sharing a ``group`` other than None run in one
    worker, and ``cost`` estimates the case's run time, by which
    ``_partition`` deals the groups.  A named tuple: immutable, and
    equal to another with the same four fields."""

    __slots__ = ()

    @property
    def cost(self) -> float:
        """Estimated milliseconds: ``CASE_COSTS`` of the case's function,
        scaled to its dimension m (its ``m`` argument or its domain's)."""
        ms, growth = CASE_COSTS[self.run]
        m = self.args["dom"].m if "dom" in self.args else self.args["m"]
        return ms * growth ** (m - 3)


def _float_poly(p: Polynomial) -> Polynomial:
    from .identities import TrackedFloat
    return Polynomial(p.m, {e: TrackedFloat(c) for e, c in p.terms.items()})


def _float_form(w: PolyForm) -> PolyForm:
    return PolyForm(w.m, w.p, {I: _float_poly(c) for I, c in w.coeffs.items()})


def _float_weight(w: WeightFunction) -> WeightFunction:
    return WeightFunction(w.kind, _float_poly(w.f))


def _float_field(F: PolyVectorField) -> PolyVectorField:
    return PolyVectorField([_float_poly(c) for c in F.components])


_FLOAT = {Polynomial: _float_poly, PolyForm: _float_form,
          WeightFunction: _float_weight, PolyVectorField: _float_field}


class _Context:
    """What the cases of one run share: its settings and its
    ``BasisCache``, which memoises bases and trial blocks; each worker
    process holds its own copy."""

    def __init__(self, cfg: RunConfig):
        self.seed = cfg.seed
        self.l_max = cfg.l_max
        self.float_mode = cfg.mode == "float"
        self.tol = FLOAT_TOLERANCE if self.float_mode else 0
        self.cache = BasisCache(cfg.cache_dir)

    def num(self, x):
        """x in exact mode; in float mode, x with ``TrackedFloat``
        coefficients (a polynomial, form, weight or vector field)."""
        return _FLOAT[type(x)](x) if self.float_mode else x

    def spectrum(self, op: str, m: int, p: int, R):
        """``assemble_operator``'s report on the run's cache.  Every
        operator assembled on one cache shares its trial blocks: each
        distinct block is built, and its independence decided, once per
        (m, p), whatever the radius, and each eigenform check runs once
        per block and radius, the coexact check once for both
        Dirichlet-to-Neumann maps.  So a repeat assembly of one
        (op, m, p, R), by the spectra and bounds suites, only reads
        theta_b off the blocks again.  Every case that
        assembles at one (m, p) carries the group label (m, p), which
        keeps those cases in one worker (``_partition``): each block is
        built and checked once per run at any ``--jobs``.  Assembly
        raises unless the block certificate holds."""
        return assemble_operator(op, m, p, self.l_max, R, self.cache)[1]


# ---------------------------------------------------------------------------
# Identity suite.
# ---------------------------------------------------------------------------

def _reilly_poly(ctx: _Context, dom, p, trial) -> dict:
    from . import identities as ident, sampling
    rng = sampling.rng_for(ctx.seed, "reilly", dom.m, p, str(dom.radius), trial)
    omega = ctx.num(sampling.random_form(rng, dom.m, p, 3))
    weight = ctx.num(WeightFunction.polynomial(sampling.random_polynomial(rng, dom.m, 3)))
    return ident.verify_weighted_reilly(weight, omega, dom, ctx.tol).to_dict()


def _reilly_canonical(ctx: _Context, dom, p) -> dict:
    from . import identities as ident, sampling
    rng = sampling.rng_for(ctx.seed, "reilly-can", dom.m, p, str(dom.radius))
    omega = ctx.num(sampling.random_form(rng, dom.m, p, 3))
    weight = ctx.num(canonical_weight(dom))
    return ident.verify_weighted_reilly(weight, omega, dom, ctx.tol).to_dict()


def _stokes(ctx: _Context, dom, p) -> dict:
    from . import identities as ident, sampling
    rng = sampling.rng_for(ctx.seed, "stokes", dom.m, p, str(dom.radius))
    phi = ctx.num(sampling.random_form(rng, dom.m, p, 3))
    psi = ctx.num(sampling.random_form(rng, dom.m, p + 1, 3))
    return ident.verify_stokes(phi, psi, dom, ctx.tol).to_dict()


def _unweighted_match(ctx: _Context, dom, degrees) -> dict:
    """The weighted formula at weight 1 against the unweighted one, term
    by term, at a degree drawn from ``degrees``."""
    from . import identities as ident, sampling
    m = dom.m
    rng = sampling.rng_for(ctx.seed, "unweighted", m, str(dom.radius))
    p = rng.choice(degrees)
    omega = ctx.num(sampling.random_form(rng, m, p, 3))
    weight = ctx.num(WeightFunction.polynomial(Polynomial.one(m)))
    rw = ident.verify_weighted_reilly(weight, omega, dom, ctx.tol)
    ru = ident.verify_unweighted_reilly(omega, dom, ctx.tol)
    match = (
        ident.agrees(rw.terms["lhs_energy"], ru.terms["energy"] - ru.terms["gradient"], ctx.tol)
        and ident.agrees(rw.terms["codifferential"], ru.terms["codifferential"], ctx.tol)
        and ident.agrees(rw.terms["shape"], ru.terms["shape"], ctx.tol)
        and all(ident.agrees(rw.terms[k], 0, ctx.tol) for k in
                ("contraction", "hessian", "laplacian", "normal_pullback")))
    return {"params": {"m": m, "p": p},
            "pass": bool(rw.passed and ru.passed and match),
            "residual": str(rw.residual)}


def _function_match(ctx: _Context, dom) -> dict:
    """The function case of the weighted formula, and the form case at
    d u, at the canonical weight; and the function case again at a random
    polynomial weight, since the canonical one vanishes on the sphere and
    so hides the f-weighted boundary terms.  The residual is the larger
    of the two function-case residuals."""
    from . import identities as ident, sampling
    rng = sampling.rng_for(ctx.seed, "function", dom.m, str(dom.radius))
    u = ctx.num(sampling.random_polynomial(rng, dom.m, 3))
    weight = ctx.num(canonical_weight(dom))
    rf = ident.verify_function_reilly(weight, u, dom, ctx.tol)
    rw = ident.verify_weighted_reilly(weight, PolyForm.from_function(u).d(), dom, ctx.tol)
    rng = sampling.rng_for(ctx.seed, "function-weight", dom.m, str(dom.radius))
    weight = ctx.num(WeightFunction.polynomial(sampling.random_polynomial(rng, dom.m, 3)))
    rp = ident.verify_function_reilly(weight, u, dom, ctx.tol)
    return {"params": {"m": dom.m},
            "pass": bool(rf.passed and rw.passed and rp.passed),
            "residual": str(max(rf.residual, rp.residual, key=abs))}


def _pohozhaev(ctx: _Context, dom, p, label) -> dict:
    from . import identities as ident, sampling
    m = dom.m
    rng = sampling.rng_for(ctx.seed, "poh", m, p, str(dom.radius), label)
    phi = ctx.num(sampling.random_form(rng, m, p, 3))
    if label == "euler":
        F = PolyVectorField.position(m)
    elif label == "weight-gradient":
        F = PolyVectorField(canonical_weight(dom).grad)
    else:
        F = sampling.random_vector_field(rng, m, 2)
    return ident.verify_pohozhaev(ctx.num(F), phi, dom, ctx.tol).to_dict()


def _pointwise_lemmas(ctx: _Context, dom) -> dict:
    from . import identities as ident, sampling
    m = dom.m
    rng = sampling.rng_for(ctx.seed, "pointwise", m, str(dom.radius))
    checks = {}
    for p in range(1, m + 1):
        w = sampling.random_form(rng, m, p, 2)
        F = sampling.random_vector_field(rng, m, 2)
        f = sampling.random_polynomial(rng, m, 2)
        checks[f"product-rule-p{p}"] = ident.product_rule_residual(F, w)
        checks[f"weighted-codifferential-p{p}"] = ident.weighted_codifferential_residual(f, w)
        if p <= m - 1:
            checks[f"hessian-expansion-p{p}"] = ident.hessian_expansion_residual(f, w)
        checks[f"normal-split-p{p}"] = ident.pullback_split_residual(w, dom) == 0
        checks[f"splitting-identity-p{p}"] = normal_split_residual(w, dom) == 0
        if p <= m - 1:
            checks[f"boundary-adjointness-p{p}"] = ident.boundary_adjointness_residual(
                sampling.random_form(rng, m, p, 2),
                sampling.random_form(rng, m, p + 1, 2), dom) == 0
        phi = sampling.random_constant_form(rng, m, p)
        psi = sampling.random_constant_form(rng, m, max(p - 1, 0))
        X = sampling.random_vector(rng, m)
        checks[f"adjunction-p{p}"] = ident.adjunction_residual(phi, psi, X)
    return {"params": {"m": m, "R": str(dom.radius)},
            "checks": checks, "pass": all(checks.values())}


def _hessian_estimate(ctx: _Context, dom) -> dict:
    """The pointwise Hessian eigenvalue-sum estimate on random
    admissible Hessians, and its equality case."""
    from . import identities as ident, sampling
    m = dom.m
    rng = sampling.rng_for(ctx.seed, "hess", m, str(dom.radius))
    c = dom.curvature
    failures = 0
    trials = 20
    for t in range(trials):
        eps = Fraction(rng.randint(0, 3), 7) * c
        H = sampling.random_admissible_hessian(rng, m, c, eps)
        q = rng.randint(1, m)
        eta = sampling.random_constant_form(rng, m, q)
        rep = ident.pointwise_hessian_estimate(H, eta, c, eps)
        if not rep.passed:
            failures += 1
    iso = [[-c if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    eta = sampling.random_constant_form(rng, m, min(2, m))
    iso_rep = ident.pointwise_hessian_estimate(iso, eta, c, Fraction(0))
    return {"params": {"m": m, "trials": trials},
            "pass": failures == 0 and iso_rep.equality,
            "failures": failures,
            "isotropic_equality": iso_rep.equality}


def _quadrature_oracle(ctx: _Context, m) -> dict:
    """Exact ball integrals, scaled from units of |S^{m-1}(1)| to
    absolute values, against the Monte Carlo oracle."""
    from . import sampling
    from .quadrature import integrate_ball, mc_oracle, unit_sphere_measure
    rng = sampling.rng_for(ctx.seed, "quad", m)
    ok = True
    worst = 0.0
    for t in range(ORACLE_DRAWS):
        dens = sampling.random_density(rng, m, 3, min_exponent=-1)
        exact = float(integrate_ball(dens, 1)) * unit_sphere_measure(m)
        est, err = mc_oracle(dens, 1, 10 ** 5, seed=ctx.seed * 1000 + t)
        dev = abs(est - exact) / max(err, 1e-30)
        worst = max(worst, dev)
        ok = ok and dev <= ORACLE_SIGMA_BOUND
    return {"params": {"m": m}, "pass": ok, "worst_sigma": worst}


def _identity_cases(cfg: RunConfig):
    # loaded here, before any worker is forked, so that each loads once;
    # numpy is left to mc_oracle, which imports it in the one worker that
    # runs the oracle's group
    import_module(".identities", __package__)
    import_module(".sampling", __package__)
    for m in cfg.dims:
        for R in cfg.radii:
            dom = BallDomain(m, R)
            for p in cfg.degrees_for(m, "identities"):
                for trial in range(2):
                    yield Case(f"weighted-reilly/m{m}/p{p}/R{R}/poly/{trial}", _reilly_poly,
                               {"dom": dom, "p": p, "trial": trial})
                yield Case(f"weighted-reilly/m{m}/p{p}/R{R}/canonical", _reilly_canonical,
                           {"dom": dom, "p": p})
                if p <= m - 1:
                    yield Case(f"stokes/m{m}/p{p}/R{R}", _stokes, {"dom": dom, "p": p})
            # specialisations
            yield Case(f"reilly-unweighted-match/m{m}/R{R}", _unweighted_match,
                       {"dom": dom, "degrees": cfg.degrees_for(m, "identities")})
            yield Case(f"reilly-function-match/m{m}/R{R}", _function_match, {"dom": dom})
            # vector-field identity
            for p in cfg.degrees_for(m, "spectra"):
                for label in ("random", "euler", "weight-gradient"):
                    yield Case(f"pohozhaev/m{m}/p{p}/R{R}/{label}", _pohozhaev,
                               {"dom": dom, "p": p, "label": label})
            yield Case(f"pointwise-lemmas/m{m}/R{R}", _pointwise_lemmas, {"dom": dom})
            yield Case(f"hessian-estimate/m{m}/R{R}", _hessian_estimate, {"dom": dom})
    for m in cfg.dims:
        yield Case(f"quadrature-oracle/m{m}", _quadrature_oracle, {"m": m}, ORACLE_GROUP)


# ---------------------------------------------------------------------------
# Spectra and bounds suites.
# ---------------------------------------------------------------------------

def _spectrum(ctx: _Context, op, m, p, R) -> dict:
    return ctx.spectrum(op, m, p, R).to_dict() | {"pass": True}


def _scaling(ctx: _Context, op, m, p, R) -> dict:
    return scaling_check(ctx.spectrum(op, m, p, 1), ctx.spectrum(op, m, p, R)).to_dict()


def _spectra_cases(cfg: RunConfig):
    for m in cfg.dims:
        for p in cfg.degrees_for(m, "spectra"):
            for R in cfg.radii:
                for op in OPERATORS:
                    yield Case(f"spectrum/{op}/m{m}/p{p}/R{R}", _spectrum,
                               {"op": op, "m": m, "p": p, "R": R}, (m, p))
                if Fraction(R) != 1:
                    for op in OPERATORS:
                        yield Case(f"scaling/{op}/m{m}/p{p}/R{R}", _scaling,
                                   {"op": op, "m": m, "p": p, "R": R}, (m, p))


def _bounds(ctx: _Context, m, p, R) -> dict:
    checks = check_bounds(ctx.spectrum("dtn", m, p, R), ctx.spectrum("dtn-neumann", m, p, R),
                          ctx.spectrum("hodge-boundary", m, p, R))
    return {"params": {"m": m, "p": p, "R": str(R)},
            "checks": [c.to_dict() for c in checks],
            "pass": all(c.passed for c in checks)}


def _chain(ctx: _Context, kind, p, dom) -> dict:
    from .identities import replay_proof_chain
    return replay_proof_chain(kind, p, dom, ctx.cache).to_dict()


def _bounds_cases(cfg: RunConfig):
    # loaded before any worker is forked, so that it loads once
    import_module(".identities", __package__)
    for m in cfg.dims:
        for p in cfg.degrees_for(m, "bounds"):
            for R in cfg.radii:
                yield Case(f"bounds/m{m}/p{p}/R{R}", _bounds, {"m": m, "p": p, "R": R}, (m, p))
                dom = BallDomain(m, R)
                kinds = ["sharp-bound"]
                if p <= m - 2:
                    kinds += ["comparison", "nonsharp"]
                for kind in kinds:
                    yield Case(f"chain/{kind}/m{m}/p{p}/R{R}", _chain,
                               {"kind": kind, "p": p, "dom": dom}, (m, p))


# ---------------------------------------------------------------------------
# Curvature suite.
# ---------------------------------------------------------------------------

def _largest(values):
    """The largest absolute value; 0 when there is none."""
    return max(map(abs, values), default=0)


def _off_scalar(matrix, c):
    """The largest absolute entry of matrix - c Id."""
    return _largest(v - c * (i == j) for i, row in enumerate(matrix) for j, v in enumerate(row))


def _flat_chart(ctx: _Context, m, pts) -> dict:
    from . import sampling
    from .curvature import ChartMetric, bochner_residual, curvature_at, weitzenbock_at
    flat = ChartMetric.flat(m)
    data = [curvature_at(flat, pt) for pt in pts]
    ok = all(d.has_constant_curvature(0) and all(
        _off_scalar(weitzenbock_at(flat, d.point, p, d), 0) == 0 for p in range(1, m))
        for d in data)
    rng = sampling.rng_for(ctx.seed, "curv-flat", m)
    omega = sampling.random_form(rng, m, 1, 3)
    residual = bochner_residual(flat, omega, pts[1], data[1])
    return {"pass": ok and residual.is_zero(),
            "bochner_residual": str(_largest(residual.coeffs.values()))}


def _round_chart(ctx: _Context, m, pts) -> dict:
    from . import sampling
    from .curvature import (ChartMetric, bochner_residual, curvature_at,
                            gallot_meyer_check, weitzenbock_at)
    rs = ChartMetric.round_sphere(m)
    data = [curvature_at(rs, pt) for pt in pts]
    # W = p(m-p) Id for every p = 1..m-1 also gives W_p and W_{m-p} one
    # spectrum, as their conjugacy by the Hodge star requires
    w_dev = max(_off_scalar(weitzenbock_at(rs, d.point, p, d), p * (m - p))
                for d in data for p in range(1, m))
    rng = sampling.rng_for(ctx.seed, "curv-round", m)
    omega = sampling.random_form(rng, m, 1, 1)
    residual = bochner_residual(rs, omega, pts[1], data[1])
    gm = gallot_meyer_check(rs, 1, 1, pts, data)
    ok = all(d.has_constant_curvature(1) for d in data) and w_dev == 0 \
        and residual.is_zero() and gm
    return {"pass": ok, "weitzenbock_deviation": str(w_dev),
            "bochner_residual": str(_largest(residual.coeffs.values())), "gallot_meyer": gm}


def _curvature_cases(cfg: RunConfig):
    # loaded before any worker is forked, so that each loads once
    import_module(".curvature", __package__)
    import_module(".sampling", __package__)
    for m in cfg.dims:
        pts = [[Fraction(0)] * m, [Fraction(1, 5)] + [Fraction(-1, 10)] * (m - 1),
               [Fraction(3, 20), Fraction(1, 4)] + [Fraction(1, 20)] * (m - 2)]
        yield Case(f"curvature/flat/m{m}", _flat_chart, {"m": m, "pts": pts})
        yield Case(f"curvature/round/m{m}", _round_chart, {"m": m, "pts": pts})


CASES = {"identities": _identity_cases, "spectra": _spectra_cases,
         "bounds": _bounds_cases, "curvature": _curvature_cases}

# Estimated cost of a case by its function: milliseconds at m = 3, and the
# factor it grows by per step in m (``Case.cost``).  From the medians of 5
# warm-cache --jobs 1 runs of `all --dim 2,3,4 --lmax 2 --radius 1,1/2`
# (seed 7, a 2-core x86-64 VM): the mean ``timing.cases`` entry of each
# function at m = 3, and the square root of its ratio between m = 4 and
# m = 2.  Only the ratios matter: they decide the deal, never a result.
CASE_COSTS = {
    _reilly_poly: (13, 4.0), _reilly_canonical: (9, 2.9), _stokes: (1.6, 2.6),
    _unweighted_match: (6, 2.8), _function_match: (7, 1.6), _pohozhaev: (2.7, 2.6),
    _pointwise_lemmas: (14, 4.0), _hessian_estimate: (13, 2.0),
    _quadrature_oracle: (116, 1.2),
    _spectrum: (8.7, 3.5), _scaling: (0.05, 1.0), _bounds: (0.13, 1.4), _chain: (2.5, 2.1),
    _flat_chart: (12, 3.1), _round_chart: (32, 3.1),
}
# Milliseconds the oracle's group costs once, whatever its cases: numpy's
# import (107 by `python -X importtime -c "import numpy"`).
NUMPY_IMPORT_MS = 107


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------

def _partition(groups: list, costs: list[float], jobs: int) -> list[list[int]]:
    """Case indices per worker, from each case's group label and cost.

    Cases sharing a label other than None form one group; every other
    case is a group of its own.  A group costs the sum of its cases'
    costs, plus ``NUMPY_IMPORT_MS`` for the oracle's.  Longest first (ties in order
    of their first case), each group goes to the least-loaded of
    min(jobs, number of groups) workers (at least one), an empty worker
    before a busy one of equal load and otherwise the highest-numbered
    of equal load.  So the split depends on the case list alone, the
    heaviest group runs in the last worker, a forked one when there are
    two or more, and worker 0's share is empty only when there is no
    case."""
    members: dict = {}
    load: dict = {}
    for i, (g, cost) in enumerate(zip(groups, costs)):
        label = ("case", i) if g is None else ("group", g)
        members.setdefault(label, []).append(i)
        load[label] = load.get(label, NUMPY_IMPORT_MS if g == ORACLE_GROUP else 0) + cost
    shares: list[list[int]] = [[] for _ in range(max(1, min(jobs, len(members))))]
    totals = [0.0] * len(shares)
    for label in sorted(members, key=lambda label: -load[label]):
        w = min(range(len(shares)), key=lambda w: (totals[w], bool(shares[w]), -w))
        shares[w] += members[label]
        totals[w] += load[label]
    return [sorted(share) for share in shares]


def _run_share(ctx: _Context, cases: list[Case], share: list[int]) -> list[tuple]:
    """(index, record, seconds, traceback or None) for each case of the
    share; a crashed case is a failed check with a one-line error, and
    its full traceback rides along."""
    out = []
    for i in share:
        case = cases[i]
        t0 = time.perf_counter()
        tb = None
        try:
            record = case.run(ctx, **case.args)
        except Exception as exc:
            import traceback
            tb = traceback.format_exc()
            record = {"pass": False, "error": f"{type(exc).__name__}: {exc}"}
        out.append((i, record, time.perf_counter() - t0, tb))
    return out


def _run_workers(ctx: _Context, cases: list[Case], shares: list[list[int]]) -> list[tuple]:
    """Every share's ``_run_share`` results.  Worker 0 is this process;
    each other worker is a forked child that pickles its results into a
    pipe and leaves by ``os._exit``, so it never returns into the
    caller.  A child that exits without reporting fails each case of
    its share with an error naming its exit.  Every child is reaped
    before this returns or raises.  A fork copies only the calling
    thread, so the caller must run no other thread holding a lock that
    a case takes."""
    if len(shares) == 1:
        return _run_share(ctx, cases, shares[0])
    # imported only to fork: they add 6 ms to a --jobs 1 run's start-up
    import pickle
    import signal

    children: dict = {}   # pid -> (worker, read end of its pipe)
    try:
        for worker in range(1, len(shares)):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    for _, pipe in children.values():
                        pipe.close()
                    payload = pickle.dumps(_run_share(ctx, cases, shares[worker]))
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = (worker, os.fdopen(read, "rb"))
        results = _run_share(ctx, cases, shares[0])
        for pid, (worker, pipe) in list(children.items()):
            payload = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code == 0:
                results += pickle.loads(payload)
                continue
            exit_ = (f"exited with code {code}" if code > 0
                     else f"was killed by signal {-code}")
            results += [(i, {"pass": False,
                             "error": f"WorkerExit: worker {worker} {exit_} "
                                      f"before reporting its cases"}, 0.0, None)
                        for i in shares[worker]]
        return results
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_suites(cfg: RunConfig) -> dict:
    cfg.validate()
    ctx = _Context(cfg)
    selected = [suite for suite in SUITES if suite in cfg.suites]
    # every case of every selected suite, in report order
    listed = [(suite, case) for suite in selected for case in CASES[suite](cfg)]
    cases = [case for _, case in listed]
    shares = _partition([c.group for c in cases], [c.cost for c in cases], cfg.jobs)
    results = _run_workers(ctx, cases, shares)
    worker_of = {i: w for w, share in enumerate(shares) for i in share}
    suites_out: dict = {suite: {"checks": []} for suite in selected}
    timing: dict = ({suite: 0.0 for suite in selected}
                    | {"cases": {}, "tracebacks": {}, "jobs": cfg.jobs,
                       "workers": [0.0] * len(shares)})
    for i, record, seconds, tb in sorted(results, key=lambda res: res[0]):
        suite, case = listed[i]
        # the one place a record gets its id, overriding any of its own
        suites_out[suite]["checks"].append(record | {"id": case.key})
        timing[suite] += seconds
        timing["cases"][case.key] = seconds
        timing["workers"][worker_of[i]] += seconds
        if tb is not None:
            timing["tracebacks"][case.key] = tb

    total = sum(len(s["checks"]) for s in suites_out.values())
    passed = sum(1 for s in suites_out.values() for r in s["checks"] if r.get("pass"))
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "suites": suites_out,
        "summary": {"total": total, "passed": passed, "failed": total - passed},
        "timing": timing,
    }


def _spectra_rows(rec: dict) -> list:
    return [[rec["operator"], rec["m"], rec["p"], rec["radius"], blk["kind"], blk["l"],
             ev, blk["dim"], blk["reference"], Fraction(ev) - Fraction(blk["reference"])]
            for blk in rec.get("blocks", []) for ev in blk["eigenvalues"]]


def _bounds_rows(rec: dict) -> list:
    if "checks" not in rec:
        return [[rec["id"], "", rec["pass"]]]
    if isinstance(rec["checks"], list):
        return [[rec["id"] + "/" + ch["name"], ch["statement"], ch["pass"]]
                for ch in rec["checks"]]
    return [[rec["id"] + "/" + name, "", ok] for name, ok in rec["checks"].items()]


# suite -> (CSV header, rows of one record), in the order the CSVs are written
TABLES = {
    "spectra": (["operator", "m", "p", "R", "block", "l", "eigenvalue",
                 "multiplicity", "reference", "difference"], _spectra_rows),
    "identities": (["id", "residual", "pass"],
                   lambda rec: [[rec["id"], rec.get("residual", ""), rec["pass"]]]),
    "bounds": (["id", "detail", "pass"], _bounds_rows),
    "curvature": (["id", "pass"], lambda rec: [[rec["id"], rec["pass"]]]),
}


def emit_tables(report: dict, out_dir: str) -> list[str]:
    """One CSV per executed suite, ``<suite>.csv``."""
    written = []
    for suite, (header, rows_of) in TABLES.items():
        if suite not in report["suites"]:
            continue
        path = os.path.join(out_dir, f"{suite}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for rec in report["suites"][suite]["checks"]:
                w.writerows(rows_of(rec))
        written.append(path)
    return written


def _print_summary(report: dict) -> None:
    for suite, data in report["suites"].items():
        for rec in data["checks"]:
            status = "PASS" if rec.get("pass") else "FAIL"
            extra = ""
            if not rec.get("pass") and "error" in rec:
                extra = "  " + rec["error"]
            print(f"[{status}] {rec['id']}{extra}")
    s = report["summary"]
    print(f"\n{s['passed']}/{s['total']} checks passed")


def _open_dir(role: str, make):
    """``make()``, which creates a directory the run needs, called before
    any case runs; an unusable directory is a configuration error naming
    it."""
    try:
        return make()
    except OSError as exc:
        # makedirs(exist_ok=True) raises FileExistsError only for a non-directory
        reason = "not a directory" if isinstance(exc, FileExistsError) else exc.strerror
        raise ConfigError(f"unusable {role} directory {exc.filename!r}: {reason}") from None


def _make_run_dir(base: str, seed: int) -> str:
    """A new directory under ``base``: ``run-<stamp>-seed<N>``, or the
    first free ``-1``, ``-2``, ... suffix of it.  Each candidate is
    created by ``os.mkdir``, so two runs racing for one name never share
    a directory."""
    os.makedirs(base, exist_ok=True)
    name = os.path.join(base, f"run-{time.strftime('%Y%m%d-%H%M%S')}-seed{seed}")
    candidate, suffix = name, 0
    while True:
        try:
            os.mkdir(candidate)
            return candidate
        except FileExistsError:
            suffix += 1
            candidate = f"{name}-{suffix}"


# ---------------------------------------------------------------------------
# Configuration file and argument parsing.
# ---------------------------------------------------------------------------

SUITE_ALIASES = {"verify": "identities", "spectrum": "spectra",
                 "bounds": "bounds", "curvature": "curvature"}


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    lines: dict = {}   # key -> number of the line that gave it
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                                  f"(accepted keys: {', '.join(CONFIG_KEYS)})")
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is given twice, "
                                  f"on lines {lines[key]} and {lineno}")
            lines[key] = lineno
            values[key] = val.strip()
    return values


def _parse_value(parse, text: str, what: str):
    """``parse(text)``; a bad value raises ``ArgumentTypeError`` naming
    it, which argparse prints after the option and ``build_config``
    after the config key."""
    try:
        return parse(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None


def _parse_int_list(text: str) -> list[int]:
    return [_parse_value(int, v, "an integer") for v in text.replace(",", " ").split()]


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [_parse_value(Fraction, v, "a rational number")
            for v in text.replace(",", " ").split()]


# (argparse dest, config-file key, RunConfig field, parser, further
# argparse keywords) of every option but --config; an option given
# neither way keeps the RunConfig default, which a help text states
# through "{default}"
OPTIONS = (
    ("dim", "dims", "dims", _parse_int_list,
     {"help": "ambient dimensions, comma separated (default {default})"}),
    ("degree", "degrees", "degrees", _parse_int_list,
     {"help": "form degrees p (default: all valid)"}),
    ("radius", "radii", "radii", _parse_fraction_list,
     {"help": "ball radii as rationals, e.g. 1,1/2,2"}),
    ("lmax", "lmax", "l_max", int, {"help": "spectral truncation (default {default})"}),
    ("seed", "seed", "seed", int, {"help": "random seed"}),
    ("mode", "mode", "mode", str, {"choices": ("exact", "float")}),
    ("out", "out", "out_dir", str, {"help": "output directory"}),
    ("cache", "cache", "cache_dir", str, {"help": "basis cache directory"}),
    ("jobs", "jobs", "jobs", int,
     {"help": "worker processes; above 1, forked ones (default {default})"}),
)
CONFIG_KEYS = ("suites", *(key for _, key, _, _, _ in OPTIONS))


def build_config(args: argparse.Namespace) -> RunConfig:
    file_values = _parse_config_file(args.config) if args.config else {}
    given = {}
    for dest, key, name, parse, _ in OPTIONS:
        value = getattr(args, dest)
        if value is None and key in file_values:
            try:
                value = parse(file_values[key])
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"{args.config}: {key}: {exc}") from None
        if value is not None:
            given[name] = value
    if args.suite != "all":
        if "suites" in file_values:
            raise ConfigError(f"{args.config}: key 'suites' is read by the 'all' "
                              f"subcommand only, not by {args.suite!r}")
        suites = [SUITE_ALIASES[args.suite]]
    elif "suites" in file_values:
        suites = file_values["suites"].replace(",", " ").split()
    else:
        suites = list(SUITES)
    return RunConfig(suites=suites, **given)


def _stated_default(name: str) -> str:
    """A RunConfig field's default as a help text states it."""
    value = getattr(RunConfig(suites=[]), name)
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formlab",
        description="Exact verification suites for form identities and "
                    "boundary spectra on Euclidean balls.")
    sub = parser.add_subparsers(dest="suite", required=True)
    names = {"verify": "identity checks", "spectrum": "operator spectra",
             "bounds": "eigenvalue bound checks", "curvature": "chart checks",
             "all": "every suite"}
    for name, help_text in names.items():
        p = sub.add_parser(name, help=help_text)
        for dest, _, field_name, parse, keywords in OPTIONS:
            if "help" in keywords:
                keywords = {**keywords, "help": keywords["help"].format(
                    default=_stated_default(field_name))}
            p.add_argument(f"--{dest}", type=parse, default=None, **keywords)
        p.add_argument("--config", default=None, help="key=value config file")
    return parser


def main(argv=None) -> int:
    # One OpenBLAS thread unless the user says otherwise: numpy serves
    # only the Monte Carlo oracle, whose work is elementwise, so a thread
    # pool would spin without paying.  Set before anything here can
    # import numpy; library imports are unaffected.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = build_config(args)
        cfg.validate()
        _open_dir("cache", lambda: BasisCache(cfg.cache_dir))
        run_dir = _open_dir("output", lambda: _make_run_dir(cfg.out_dir, cfg.seed))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report = run_suites(cfg)
    report_path = os.path.join(run_dir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    emit_tables(report, run_dir)
    _print_summary(report)
    print(f"report written to {report_path}")
    return 0 if report["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
