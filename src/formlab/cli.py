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

Identical configuration and seed produce byte-identical reports modulo
the ``timing`` section at any ``--jobs`` level: the case list is built
deterministically, each case derives its randomness from the seed and
its own key, and results are put back in list order.

``--jobs K`` splits the case list into groups (every spectrum, scaling,
bounds and chain case of one (m, p) is one group, since they share its
bases and assemblies; every other case is a group of its own) and deals
the groups round-robin to min(K, groups) workers.  Worker 0 is the
calling process; the others are ``os.fork`` children, which inherit the
case list and every module loaded while building it.  At ``--jobs 1``
nothing is forked.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import import_module

from .ball import BallDomain, WeightFunction, canonical_weight, normal_split_residual
from .exterior import LinearEndomorphism
from .harmonic import BasisCache
from .polynomials import Polynomial
from .polyform import PolyForm, PolyVectorField
from .quadrature import RadialDensity, integrate_ball, mc_oracle
from .spectral import OPERATORS, assemble_operator, check_bounds, scaling_check

SCHEMA_VERSION = 2
SUITES = ("identities", "spectra", "bounds", "curvature")
# Float mode: an identity passes when its residual is at most this many
# (64 eps, ~1.4e-14) times the residual's tracked magnitude
# (``identities.TrackedFloat``).  Over m = 2..4, every degree and radii
# 1/8..8, rounding left at most 0.8 eps of that magnitude, while the
# largest term off by 1e-9 of itself moved the residual by at least
# 470 eps of it.
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
# The curvature suite covers m = 2..4 only; a larger dimension is a
# configuration error, never a silently empty suite.
CURVATURE_MAX_DIM = 4


@dataclass
class RunConfig:
    suites: list[str]
    dims: list[int] = field(default_factory=lambda: [3])
    degrees: list[int] | None = None
    radii: list[Fraction] = field(default_factory=lambda: [Fraction(1)])
    l_max: int = 2
    seed: int = 7
    mode: str = "exact"
    out_dir: str = "runs"
    cache_dir: str | None = None
    jobs: int = 1

    def validate(self) -> None:
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        if any(m < 2 for m in self.dims):
            raise ConfigError("dimensions must be >= 2")
        too_large = [m for m in self.dims if m > CURVATURE_MAX_DIM]
        if "curvature" in self.suites and too_large:
            raise ConfigError(
                f"the curvature suite covers dimensions 2..{CURVATURE_MAX_DIM}; "
                f"got dimensions {too_large}")
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
        for name, values in (("dimension", self.dims), ("radius", self.radii),
                             ("degree", self.degrees or [])):
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
# Float-mode coercion.
# ---------------------------------------------------------------------------

def _float_poly(p: Polynomial) -> Polynomial:
    from .identities import TrackedFloat
    return Polynomial(p.m, {e: TrackedFloat(c) for e, c in p.terms.items()})


def _float_form(w: PolyForm) -> PolyForm:
    return PolyForm(w.m, w.p, {I: _float_poly(c) for I, c in w.coeffs.items()})


def _float_weight(w: WeightFunction) -> WeightFunction:
    parts = {j: _float_poly(poly) for j, poly in w.f.parts.items()}
    return WeightFunction.from_density(w.kind, RadialDensity(w.m, parts))


def _float_field(F: PolyVectorField) -> PolyVectorField:
    return PolyVectorField([_float_poly(c) for c in F.components])


# ---------------------------------------------------------------------------
# Identity suite.
# ---------------------------------------------------------------------------

def _identity_cases(cfg: RunConfig) -> list[tuple]:
    from . import identities as ident
    from . import sampling

    tol = 0 if cfg.mode == "exact" else FLOAT_TOLERANCE
    as_form = (lambda w: w) if cfg.mode == "exact" else _float_form
    as_weight = (lambda w: w) if cfg.mode == "exact" else _float_weight
    as_field = (lambda F: F) if cfg.mode == "exact" else _float_field
    cases = []

    def add(key, fn):
        cases.append((key, fn, None))

    for m in cfg.dims:
        for R in cfg.radii:
            dom = BallDomain(m, R)
            for p in cfg.degrees_for(m, "identities"):
                for trial in range(2):
                    key = f"weighted-reilly/m{m}/p{p}/R{R}/poly/{trial}"

                    def run(key=key, m=m, p=p, dom=dom, trial=trial):
                        rng = sampling.rng_for(cfg.seed, "reilly", m, p, str(dom.radius), trial)
                        omega = as_form(sampling.random_form(rng, m, p, 3))
                        weight = as_weight(WeightFunction.polynomial(
                            sampling.random_polynomial(rng, m, 3)))
                        return ident.verify_weighted_reilly(weight, omega, dom, tol).to_dict() | {"id": key}
                    add(key, run)

                key = f"weighted-reilly/m{m}/p{p}/R{R}/canonical"

                def run(key=key, m=m, p=p, dom=dom):
                    rng = sampling.rng_for(cfg.seed, "reilly-can", m, p, str(dom.radius))
                    omega = as_form(sampling.random_form(rng, m, p, 3))
                    return ident.verify_weighted_reilly(
                        as_weight(canonical_weight(dom)), omega, dom, tol).to_dict() | {"id": key}
                add(key, run)

                if p <= m - 1:
                    key = f"stokes/m{m}/p{p}/R{R}"

                    def run(key=key, m=m, p=p, dom=dom):
                        rng = sampling.rng_for(cfg.seed, "stokes", m, p, str(dom.radius))
                        phi = as_form(sampling.random_form(rng, m, p, 3))
                        psi = as_form(sampling.random_form(rng, m, p + 1, 3))
                        return ident.verify_stokes(phi, psi, dom, tol).to_dict() | {"id": key}
                    add(key, run)

            # specialisations
            key = f"reilly-unweighted-match/m{m}/R{R}"

            def run(key=key, m=m, dom=dom):
                rng = sampling.rng_for(cfg.seed, "unweighted", m, str(dom.radius))
                p = rng.choice(cfg.degrees_for(m, "identities"))
                omega = as_form(sampling.random_form(rng, m, p, 3))
                rw = ident.verify_weighted_reilly(as_weight(WeightFunction.one(m)),
                                                  omega, dom, tol)
                ru = ident.verify_unweighted_reilly(omega, dom, tol)
                match = (
                    ident.agrees(rw.terms["lhs_energy"],
                                 ru.terms["energy"] - ru.terms["gradient"], tol)
                    and ident.agrees(rw.terms["codifferential"], ru.terms["codifferential"], tol)
                    and ident.agrees(rw.terms["shape"], ru.terms["shape"], tol)
                    and all(ident.agrees(rw.terms[k], 0, tol) for k in
                            ("contraction", "hessian", "laplacian", "normal_pullback")))
                return {"id": key, "params": {"m": m, "p": p},
                        "pass": bool(rw.passed and ru.passed and match),
                        "residual": str(rw.residual)}
            add(key, run)

            key = f"reilly-function-match/m{m}/R{R}"

            def run(key=key, m=m, dom=dom):
                rng = sampling.rng_for(cfg.seed, "function", m, str(dom.radius))
                u = sampling.random_polynomial(rng, m, 3)
                weight = canonical_weight(dom)
                if cfg.mode == "float":
                    u = _float_poly(u)
                    weight = _float_weight(weight)
                rf = ident.verify_function_reilly(weight, u, dom, tol)
                rw = ident.verify_weighted_reilly(weight, PolyForm.from_function(u).d(),
                                                  dom, tol)
                return {"id": key, "params": {"m": m},
                        "pass": bool(rf.passed and rw.passed),
                        "residual": str(rf.residual)}
            add(key, run)

            # vector-field identity
            for p in cfg.degrees_for(m, "spectra"):
                for label in ("random", "euler", "weight-gradient"):
                    key = f"pohozhaev/m{m}/p{p}/R{R}/{label}"

                    def run(key=key, m=m, p=p, dom=dom, label=label):
                        rng = sampling.rng_for(cfg.seed, "poh", m, p, str(dom.radius), label)
                        phi = as_form(sampling.random_form(rng, m, p, 3))
                        if label == "euler":
                            F = PolyVectorField.position(m)
                        elif label == "weight-gradient":
                            F = PolyVectorField([g.parts.get(0, Polynomial.zero(m))
                                                 for g in canonical_weight(dom).grad])
                        else:
                            F = sampling.random_vector_field(rng, m, 2)
                        return ident.verify_pohozhaev(as_field(F), phi, dom, tol).to_dict() | {"id": key}
                    add(key, run)

            # pointwise lemmas
            key = f"pointwise-lemmas/m{m}/R{R}"

            def run(key=key, m=m, dom=dom):
                rng = sampling.rng_for(cfg.seed, "pointwise", m, str(dom.radius))
                checks = {}
                for p in range(1, m + 1):
                    w = sampling.random_form(rng, m, p, 2)
                    F = sampling.random_vector_field(rng, m, 2)
                    f = sampling.random_polynomial(rng, m, 2)
                    checks[f"product-rule-p{p}"] = ident.product_rule_residual(F, w)
                    checks[f"weighted-codifferential-p{p}"] = \
                        ident.weighted_codifferential_residual(f, w)
                    if p <= m - 1:
                        checks[f"hessian-expansion-p{p}"] = \
                            ident.hessian_expansion_residual(f, w)
                    checks[f"normal-split-p{p}"] = \
                        ident.pullback_split_residual(w, dom) == 0
                    checks[f"splitting-identity-p{p}"] = \
                        normal_split_residual(w, dom).is_zero()
                    if p <= m - 1:
                        checks[f"boundary-adjointness-p{p}"] = \
                            ident.boundary_adjointness_residual(
                                sampling.random_form(rng, m, p, 2),
                                sampling.random_form(rng, m, p + 1, 2), dom) == 0
                    phi = sampling.random_constant_form(rng, m, p)
                    psi = sampling.random_constant_form(rng, m, max(p - 1, 0))
                    X = sampling.random_vector(rng, m)
                    checks[f"adjunction-p{p}"] = ident.adjunction_residual(phi, psi, X)
                return {"id": key, "params": {"m": m, "R": str(dom.radius)},
                        "checks": checks, "pass": all(checks.values())}
            add(key, run)

            # pointwise Hessian eigenvalue-sum estimate
            key = f"hessian-estimate/m{m}/R{R}"

            def run(key=key, m=m, dom=dom):
                rng = sampling.rng_for(cfg.seed, "hess", m, str(dom.radius))
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
                iso = LinearEndomorphism.diagonal([-c] * m)
                eta = sampling.random_constant_form(rng, m, min(2, m))
                iso_rep = ident.pointwise_hessian_estimate(iso, eta, c, Fraction(0))
                return {"id": key, "params": {"m": m, "trials": trials},
                        "pass": failures == 0 and iso_rep.equality,
                        "failures": failures,
                        "isotropic_equality": iso_rep.equality}
            add(key, run)

    # quadrature spot checks against the stochastic oracle, which draws
    # with numpy: loaded here, before any worker is forked, so it loads once
    import_module("numpy")
    for m in cfg.dims:
        key = f"quadrature-oracle/m{m}"

        def run(key=key, m=m):
            rng = sampling.rng_for(cfg.seed, "quad", m)
            ok = True
            worst = 0.0
            for t in range(ORACLE_DRAWS):
                dens = sampling.random_density(rng, m, 3, min_exponent=-1)
                exact = float(integrate_ball(dens, 1))
                est, err = mc_oracle(dens, 1, 10 ** 5, seed=cfg.seed * 1000 + t)
                dev = abs(est - exact) / max(err, 1e-30)
                worst = max(worst, dev)
                ok = ok and dev <= ORACLE_SIGMA_BOUND
            return {"id": key, "params": {"m": m}, "pass": ok,
                    "worst_sigma": worst}
        add(key, run)
    return cases


# ---------------------------------------------------------------------------
# Spectra suite.
# ---------------------------------------------------------------------------

def _assembler(cache: BasisCache):
    """``assemble_operator`` memoised per worker process, so the spectra
    and bounds suites share each ``(op, m, p, l_max, R)`` assembly.  Every
    case that assembles at one (m, p) carries the group label (m, p),
    which keeps those cases in one worker (``_partition``): each
    assembly is computed once per run at any ``--jobs``."""
    memo: dict = {}

    def assemble(op: str, m: int, p: int, l_max: int, R):
        key = (op, m, p, l_max, Fraction(R))
        if key not in memo:
            memo[key] = assemble_operator(op, m, p, l_max, R, cache)
        return memo[key]
    return assemble


def _spectra_cases(cfg: RunConfig, assemble) -> list[tuple]:
    cases = []
    for m in cfg.dims:
        for p in cfg.degrees_for(m, "spectra"):
            for R in cfg.radii:
                for op in OPERATORS:
                    key = f"spectrum/{op}/m{m}/p{p}/R{R}"

                    def run(key=key, op=op, m=m, p=p, R=R):
                        # assembly raises unless the block certificate holds
                        _, rep = assemble(op, m, p, cfg.l_max, R)
                        return rep.to_dict() | {"id": key, "pass": True}
                    cases.append((key, run, (m, p)))

                if Fraction(R) != 1:
                    for op in OPERATORS:
                        key = f"scaling/{op}/m{m}/p{p}/R{R}"

                        def run(key=key, op=op, m=m, p=p, R=R):
                            _, unit = assemble(op, m, p, cfg.l_max, 1)
                            _, scaled = assemble(op, m, p, cfg.l_max, R)
                            chk = scaling_check(unit, scaled)
                            return chk.to_dict() | {"id": key}
                        cases.append((key, run, (m, p)))
    return cases


# ---------------------------------------------------------------------------
# Bounds suite.
# ---------------------------------------------------------------------------

def _bounds_cases(cfg: RunConfig, cache: BasisCache, assemble) -> list[tuple]:
    from .identities import replay_proof_chain

    cases = []
    for m in cfg.dims:
        n = m - 1
        for p in cfg.degrees_for(m, "bounds"):
            for R in cfg.radii:
                key = f"bounds/m{m}/p{p}/R{R}"

                def run(key=key, m=m, p=p, R=R):
                    _, d = assemble("dtn", m, p, cfg.l_max, R)
                    _, t = assemble("dtn-neumann", m, p, cfg.l_max, R)
                    _, h = assemble("hodge-boundary", m, p, cfg.l_max, R)
                    checks = check_bounds(d, t, h)
                    return {"id": key, "params": {"m": m, "p": p, "R": str(R)},
                            "checks": [c.to_dict() for c in checks],
                            "pass": all(c.passed for c in checks)}
                cases.append((key, run, (m, p)))

                dom = BallDomain(m, Fraction(R))
                kinds = ["sharp-bound"]
                if p <= n - 1:
                    kinds += ["comparison", "nonsharp"]
                for kind in kinds:
                    key = f"chain/{kind}/m{m}/p{p}/R{R}"

                    def run(key=key, kind=kind, p=p, dom=dom):
                        rep = replay_proof_chain(kind, p, dom, cache)
                        return rep.to_dict() | {"id": key}
                    cases.append((key, run, (m, p)))
    return cases


# ---------------------------------------------------------------------------
# Curvature suite.
# ---------------------------------------------------------------------------

def _curvature_cases(cfg: RunConfig) -> list[tuple]:
    import numpy as np

    from . import sampling
    from .curvature import (ChartMetric, bochner_residual, curvature_at,
                            gallot_meyer_check, weitzenbock_at)
    cases = []
    for m in cfg.dims:
        pts = [[0.0] * m, [0.2] + [-0.1] * (m - 1), [0.15, 0.25] + [0.05] * (m - 2)]

        key = f"curvature/flat/m{m}"

        def run(key=key, m=m, pts=pts):
            flat = ChartMetric.flat(m)
            ok = True
            worst_r = 0.0
            for pt in pts:
                data = curvature_at(flat, pt)
                if float(np.max(np.abs(data.riemann))) != 0.0:
                    ok = False
                for p in range(1, m):
                    if float(np.max(np.abs(weitzenbock_at(flat, pt, p, data)))) != 0.0:
                        ok = False
            rng = sampling.rng_for(cfg.seed, "curv-flat", m)
            omega = sampling.random_form(rng, m, 1, 3)
            rep = bochner_residual(flat, omega, pts[1], h=1e-2)
            worst_r = rep.residual
            ok = ok and rep.residual <= 1e-10
            return {"id": key, "pass": ok, "bochner_residual": worst_r}
        cases.append((key, run, None))

        key = f"curvature/round/m{m}"

        def run(key=key, m=m, pts=pts):
            rs = ChartMetric.round_sphere(m)
            ok = True
            w_dev = 0.0
            for pt in pts:
                data = curvature_at(rs, pt)
                for i in range(m):
                    for j in range(i + 1, m):
                        if abs(data.sectional(i, j) - 1.0) > 1e-8:
                            ok = False
                for p in range(1, m):
                    W = weitzenbock_at(rs, pt, p, data)
                    dev = float(np.max(np.abs(W - p * (m - p) * np.eye(W.shape[0]))))
                    w_dev = max(w_dev, dev)
                    if dev > 1e-8:
                        ok = False
                    Wdual = weitzenbock_at(rs, pt, m - p, data)
                    spec_dev = float(np.max(np.abs(
                        np.sort(np.linalg.eigvalsh(W)) - np.sort(np.linalg.eigvalsh(Wdual)))))
                    if spec_dev > 1e-8:
                        ok = False
            rng = sampling.rng_for(cfg.seed, "curv-round", m)
            omega = sampling.random_form(rng, m, 1, 1)
            rep = bochner_residual(rs, omega, pts[1], h=1e-3)
            gm = gallot_meyer_check(rs, 1, 1.0, pts, seed=cfg.seed)
            ok = ok and rep.order >= 1.9 and gm.passed
            return {"id": key, "pass": ok, "weitzenbock_deviation": w_dev,
                    "bochner_order": rep.order, "gallot_meyer_margin": gm.worst_margin}
        cases.append((key, run, None))
    return cases


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------

def _partition(groups: list, jobs: int) -> list[list[int]]:
    """Case indices per worker, from each case's group label.

    Cases sharing a label other than None form one group; every other
    case is a group of its own.  Groups go round-robin, in order of
    their first case, to min(jobs, number of groups) workers (at least
    one), so the split depends on the case list alone and worker 0's
    share is empty only when there is no case."""
    number: dict = {}
    slots = [number.setdefault(("case", i) if g is None else ("group", g), len(number))
             for i, g in enumerate(groups)]
    shares: list[list[int]] = [[] for _ in range(max(1, min(jobs, len(number))))]
    for i, slot in enumerate(slots):
        shares[slot % len(shares)].append(i)
    return shares


def _run_share(cases: list, share: list[int]) -> list[tuple]:
    """(index, record, seconds, traceback or None) for each case of the
    share; a crashed case is a failed check with a one-line error, and
    its full traceback rides along."""
    out = []
    for i in share:
        _, key, run, _ = cases[i]
        t0 = time.perf_counter()
        tb = None
        try:
            record = run()
        except Exception as exc:
            import traceback
            tb = traceback.format_exc()
            record = {"id": key, "pass": False, "error": f"{type(exc).__name__}: {exc}"}
        out.append((i, record, time.perf_counter() - t0, tb))
    return out


def _run_workers(cases: list, shares: list[list[int]]) -> list[tuple]:
    """Every share's ``_run_share`` results.  Worker 0 is this process;
    each other worker is a forked child that pickles its results into a
    pipe and leaves by ``os._exit``, so it never returns into the
    caller.  A child that exits without reporting fails each case of
    its share with an error naming its exit.  Every child is reaped
    before this returns or raises.  A fork copies only the calling
    thread, so the caller must run no other thread holding a lock that
    a case takes."""
    if len(shares) == 1:
        return _run_share(cases, shares[0])
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
                    payload = pickle.dumps(_run_share(cases, shares[worker]))
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = (worker, os.fdopen(read, "rb"))
        results = _run_share(cases, shares[0])
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
            results += [(i, {"id": cases[i][1], "pass": False,
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
    cache = BasisCache(cfg.cache_dir)
    assemble = _assembler(cache)
    builders = {
        "identities": lambda: _identity_cases(cfg),
        "spectra": lambda: _spectra_cases(cfg, assemble),
        "bounds": lambda: _bounds_cases(cfg, cache, assemble),
        "curvature": lambda: _curvature_cases(cfg),
    }
    selected = [suite for suite in SUITES if suite in cfg.suites]
    # every case of every selected suite, in report order
    cases = [(suite, *case) for suite in selected for case in builders[suite]()]
    results = _run_workers(cases, _partition([c[3] for c in cases], cfg.jobs))
    suites_out: dict = {suite: {"checks": []} for suite in selected}
    timing: dict = ({suite: 0.0 for suite in selected}
                    | {"cases": {}, "tracebacks": {}, "jobs": cfg.jobs})
    for i, record, seconds, tb in sorted(results, key=lambda res: res[0]):
        suite, key = cases[i][:2]
        suites_out[suite]["checks"].append(record)
        timing[suite] += seconds
        timing["cases"][key] = seconds
        if tb is not None:
            timing["tracebacks"][key] = tb

    total = sum(len(s["checks"]) for s in suites_out.values())
    passed = sum(1 for s in suites_out.values() for r in s["checks"] if r.get("pass"))
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "suites": suites_out,
        "summary": {"total": total, "passed": passed, "failed": total - passed},
        "timing": timing,
    }


def emit_tables(report: dict, out_dir: str) -> list[str]:
    """One CSV per executed suite."""
    written = []
    suites = report["suites"]
    if "spectra" in suites:
        path = os.path.join(out_dir, "spectra.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["operator", "m", "p", "R", "block", "l", "eigenvalue",
                        "multiplicity", "reference", "difference"])
            for rec in suites["spectra"]["checks"]:
                if "blocks" not in rec:
                    continue
                for blk in rec["blocks"]:
                    ref = Fraction(blk["reference"])
                    for ev in blk["eigenvalues"]:
                        w.writerow([rec["operator"], rec["m"], rec["p"],
                                    rec["radius"], blk["kind"], blk["l"],
                                    ev, blk["dim"], blk["reference"],
                                    Fraction(ev) - ref])
        written.append(path)
    if "identities" in suites:
        path = os.path.join(out_dir, "identities.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "residual", "pass"])
            for rec in suites["identities"]["checks"]:
                w.writerow([rec["id"], rec.get("residual", ""), rec["pass"]])
        written.append(path)
    if "bounds" in suites:
        path = os.path.join(out_dir, "bounds.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "detail", "pass"])
            for rec in suites["bounds"]["checks"]:
                if "checks" in rec and isinstance(rec["checks"], list):
                    for ch in rec["checks"]:
                        w.writerow([rec["id"] + "/" + ch["name"],
                                    ch["statement"], ch["pass"]])
                elif "checks" in rec:
                    for name, ok in rec["checks"].items():
                        w.writerow([rec["id"] + "/" + name, "", ok])
                else:
                    w.writerow([rec["id"], "", rec["pass"]])
        written.append(path)
    if "curvature" in suites:
        path = os.path.join(out_dir, "curvature.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "pass"])
            for rec in suites["curvature"]["checks"]:
                w.writerow([rec["id"], rec["pass"]])
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
    os.makedirs(base, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = os.path.join(base, f"run-{stamp}-seed{seed}")
    suffix = 0
    while os.path.exists(candidate):
        suffix += 1
        candidate = os.path.join(base, f"run-{stamp}-seed{seed}-{suffix}")
    os.makedirs(candidate)
    return candidate


# ---------------------------------------------------------------------------
# Configuration file and argument parsing.
# ---------------------------------------------------------------------------

SUITE_ALIASES = {"verify": "identities", "spectrum": "spectra",
                 "bounds": "bounds", "curvature": "curvature"}
CONFIG_KEYS = ("suites", "dims", "degrees", "radii", "lmax", "seed", "mode",
               "out", "cache", "jobs")


def _parse_config_file(path: str) -> dict:
    values: dict = {}
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
            values[key] = val.strip()
    return values


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.replace(",", " ").split()]


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [_parse_fraction(v) for v in text.replace(",", " ").split()]


def build_config(args: argparse.Namespace) -> RunConfig:
    file_values = _parse_config_file(args.config) if args.config else {}

    def pick(cli_value, file_key, parser, default):
        if cli_value is not None:
            return cli_value
        if file_key in file_values:
            return parser(file_values[file_key])
        return default

    if args.suite != "all":
        if "suites" in file_values:
            raise ConfigError(f"{args.config}: key 'suites' is read by the 'all' "
                              f"subcommand only, not by {args.suite!r}")
        suites = [SUITE_ALIASES[args.suite]]
    elif "suites" in file_values:
        suites = file_values["suites"].replace(",", " ").split()
    else:
        suites = list(SUITES)
    return RunConfig(
        suites=suites,
        dims=pick(args.dim, "dims", _parse_int_list, [3]),
        degrees=pick(args.degree, "degrees", _parse_int_list, None),
        radii=pick(args.radius, "radii", _parse_fraction_list, [Fraction(1)]),
        l_max=pick(args.lmax, "lmax", int, 2),
        seed=pick(args.seed, "seed", int, 7),
        mode=pick(args.mode, "mode", str, "exact"),
        out_dir=pick(args.out, "out", str, "runs"),
        cache_dir=pick(args.cache, "cache", str, None),
        jobs=pick(args.jobs, "jobs", int, 1),
    )


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
        p.add_argument("--dim", type=_parse_int_list, default=None,
                       help="ambient dimensions, comma separated (default 3)")
        p.add_argument("--degree", type=_parse_int_list, default=None,
                       help="form degrees p (default: all valid)")
        p.add_argument("--radius", type=_parse_fraction_list, default=None,
                       help="ball radii as rationals, e.g. 1,1/2,2")
        p.add_argument("--lmax", type=int, default=None,
                       help="spectral truncation (default 2)")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--mode", choices=("exact", "float"), default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--cache", default=None, help="basis cache directory")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes; above 1, forked ones (default 1)")
        p.add_argument("--config", default=None, help="key=value config file")
    return parser


def main(argv=None) -> int:
    # One OpenBLAS thread unless the user says otherwise: the Monte Carlo
    # oracle's numpy work is elementwise and the curvature suite's
    # matrices are at most C(4, 2) = 6 wide, so a thread pool would spin
    # without paying.  Set before anything here can import numpy; library
    # imports are unaffected.
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
