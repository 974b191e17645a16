"""formlab: exact verification of differential-form identities and
Steklov-type boundary spectra on Euclidean balls.

The library layers are, bottom up:

  exterior     pointwise exterior algebra on multi-index bases
  polynomials  sparse exact-rational multivariate polynomials
  polyform     polynomial differential forms and the flat calculus
  quadrature   exact moments over spheres and balls, stochastic oracle
  ball         boundary calculus on the sphere, weight functions
  identities   integral identity checks and proof-chain replays
  harmonic     homogeneous harmonic form spaces by rational elimination
  spectral     boundary operator assembly, exact block-certified spectra
  curvature    exact chart-based Weitzenboeck / Bochner / curvature checks
  cli          batch runner with reports, CSV tables and exit codes

Every layer is exact and loads no numpy; only the Monte Carlo oracle
imports numpy, when it runs.  Every public name below resolves on first
access (PEP 562), through ``_LAZY_MODULES``, so importing the package
loads no layer, and a run loads only the layers its suites call:

  spectrum   exterior, polynomials, polyform, ball, linalg, harmonic and
             spectral; no quadrature and no numpy
  bounds     those, and identities and quadrature for the proof-chain
             replays, which integrate; no numpy
  verify     those, and sampling; numpy in the worker that runs the
             Monte Carlo oracle
  curvature  the spectrum layers, which ``cli`` imports, and curvature,
             sampling and quadrature (which sampling imports); no numpy

No run loads ``dataclasses``: the records are plain classes, and
``cli.Case`` is a ``collections.namedtuple``.
"""

__version__ = "0.1.0"

# Every public name, by the module defining it.
_LAZY_MODULES = {
    "exterior": ("ConstantForm", "MultiIndex", "multi_indices"),
    "polynomials": ("Polynomial",),
    "polyform": ("PolyForm", "PolyVectorField", "gradient_action"),
    "quadrature": ("RadialDensity", "integrate_ball", "integrate_sphere", "mc_oracle",
                   "sphere_average"),
    "ball": ("BallDomain", "WeightFunction", "canonical_weight", "normal_part"),
    "harmonic": ("BasisCache", "sphere_reduce"),
    "spectral": ("CertificateError", "SpectrumReport", "assemble_operator",
                 "ball_reference_eigenvalue", "check_bounds", "scaling_check"),
    "identities": ("IdentityReport", "pointwise_hessian_estimate",
                   "replay_proof_chain", "verify_function_reilly",
                   "verify_pohozhaev", "verify_stokes",
                   "verify_unweighted_reilly", "verify_weighted_reilly"),
    "curvature": ("ChartMetric", "bochner_residual", "curvature_at",
                  "gallot_meyer_check", "weitzenbock_at"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}
__all__ = sorted(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
