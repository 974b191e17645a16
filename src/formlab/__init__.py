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
imports numpy, when it runs.  The ``identities`` and
``curvature`` names below resolve on first access (PEP 562), so
importing the package, or running a suite that calls neither layer,
loads neither module.
"""

from .exterior import ConstantForm, LinearEndomorphism, MultiIndex, multi_indices
from .polynomials import Polynomial
from .polyform import PolyForm, PolyVectorField, gradient_action
from .quadrature import (ExactScalar, RadialDensity, integrate_ball,
                         integrate_sphere, mc_oracle, sphere_average)
from .ball import BallDomain, WeightFunction, canonical_weight, normal_part
from .harmonic import BasisCache, FormSpaceBasis, sphere_reduce
from .spectral import (CertificateError, SpectrumReport, assemble_operator,
                       ball_reference_eigenvalue, check_bounds, scaling_check)

__version__ = "0.1.0"

__all__ = [
    "BallDomain", "BasisCache", "CertificateError",
    "ChartMetric", "ConstantForm", "ExactScalar",
    "FormSpaceBasis", "IdentityReport", "LinearEndomorphism", "MultiIndex",
    "PolyForm", "PolyVectorField", "Polynomial", "RadialDensity",
    "SpectrumReport", "WeightFunction",
    "assemble_operator", "ball_reference_eigenvalue", "bochner_residual",
    "canonical_weight", "check_bounds", "curvature_at",
    "gallot_meyer_check", "gradient_action", "integrate_ball",
    "integrate_sphere", "mc_oracle", "multi_indices", "normal_part",
    "pointwise_hessian_estimate", "replay_proof_chain", "scaling_check",
    "sphere_average", "sphere_reduce", "verify_function_reilly",
    "verify_pohozhaev", "verify_stokes", "verify_unweighted_reilly",
    "verify_weighted_reilly", "weitzenbock_at",
]

# Names resolved on first access (PEP 562), by the module defining them.
_LAZY_MODULES = {
    "identities": ("IdentityReport", "pointwise_hessian_estimate",
                   "replay_proof_chain", "verify_function_reilly",
                   "verify_pohozhaev", "verify_stokes",
                   "verify_unweighted_reilly", "verify_weighted_reilly"),
    "curvature": ("ChartMetric", "bochner_residual", "curvature_at",
                  "gallot_meyer_check", "weitzenbock_at"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
