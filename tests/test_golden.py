"""Golden SHA-256 digests of exact artefacts: a guard for refactors.

Only rational data is digested (bases, exact G and A, identity terms),
never floats, so the digests do not depend on the platform.  A change
that alters any of these artefacts must say why and re-record the
digest.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from formlab.ball import BallDomain, WeightFunction
from formlab.harmonic import BasisCache
from formlab.identities import verify_pohozhaev, verify_stokes, verify_weighted_reilly
from formlab.sampling import random_form, random_polynomial, random_vector_field, rng_for
from formlab.spectral import assemble_operator
from oracle import block_gram, block_stiffness, harmonic_fields

HALF = BallDomain(3, Fraction(1, 2))
SEED = 7


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _form_rows(forms):
    return [sorted([list(I), list(e), str(c)]
                   for I, poly in form.coeffs.items() for e, c in poly.terms.items())
            for form in forms]


def _basis_rows(m, l, p, kind):
    return _form_rows(BasisCache().get(m, l, p, kind))


def _assembly(op, m=3, p=1, l_max=2, radius=Fraction(1, 2)):
    assembly, _ = assemble_operator(op, m, p, l_max, radius, BasisCache())
    return {"G": [[str(v) for v in row] for row in block_gram(assembly)],
            "A": [[str(v) for v in row] for row in block_stiffness(assembly)]}


def _reilly_terms():
    out = []
    for p in range(0, 4):
        rng = rng_for(SEED, "golden-reilly", p)
        omega = random_form(rng, 3, p, 3)
        weight = WeightFunction.polynomial(random_polynomial(rng, 3, 3))
        out.append(verify_weighted_reilly(weight, omega, HALF).to_dict()["terms"])
    return out


def _stokes_terms():
    out = []
    for p in range(0, 3):
        rng = rng_for(SEED, "golden-stokes", p)
        phi = random_form(rng, 3, p, 3)
        psi = random_form(rng, 3, p + 1, 3)
        out.append(verify_stokes(phi, psi, HALF).to_dict()["terms"])
    return out


def _pohozhaev_terms():
    out = []
    for p in range(0, 3):
        rng = rng_for(SEED, "golden-poh", p)
        phi = random_form(rng, 3, p, 3)
        F = random_vector_field(rng, 3, 2)
        out.append(verify_pohozhaev(F, phi, HALF).to_dict()["terms"])
    return out


ARTEFACTS = {
    "basis-3-1-1-H-normal-null": lambda: _basis_rows(3, 1, 1, "H-normal-null"),
    "basis-3-0-2-H-closed": lambda: _basis_rows(3, 0, 2, "H-closed"),
    # the harmonic fields "H": the reduced span of the two cached kinds
    "basis-4-1-2-H": lambda: _form_rows(harmonic_fields(BasisCache(), 4, 1, 2)),
    "assembly-dtn": lambda: _assembly("dtn"),
    "assembly-dtn-neumann": lambda: _assembly("dtn-neumann"),
    "assembly-hodge-boundary": lambda: _assembly("hodge-boundary"),
    # a closed block of 6 data, and the d-part of hodge at p = m-2
    "assembly-dtn-neumann-4-2-1": lambda: _assembly("dtn-neumann", 4, 2, 1, 1),
    "assembly-hodge-boundary-4-2-1": lambda: _assembly("hodge-boundary", 4, 2, 1, 1),
    "terms-weighted-reilly": _reilly_terms,
    "terms-stokes": _stokes_terms,
    "terms-pohozhaev": _pohozhaev_terms,
}

GOLDEN = {
    "assembly-dtn": "5ba8979bea80ebb6c109f2a16d4f56a978b6ea2aef36721e5714207bf6342186",
    "assembly-dtn-neumann": "61baaec533eb3d68701dc08fdffce3ba406dd34d604ba400000dc731fc0d9832",
    "assembly-hodge-boundary": "4edc14b0f1f4dbf34c55786194bba03cf76f56e9d9db366dfba360e584eb5465",
    "assembly-dtn-neumann-4-2-1": "e8085b736486dbef5257ecdd425b8671a3660c56f7e98b163f69d4b09051139e",
    "assembly-hodge-boundary-4-2-1": "ca2c70c563ebd64eff3274fc6c09ffc96e90df22715ee7c8ba696f17ba3fbde1",
    "basis-3-0-2-H-closed": "ac84a2163da731d8d9f243c268efcfe5e532831b7ad61c2c94639d4b6f667d1f",
    "basis-3-1-1-H-normal-null": "46a5d28fc7a4a7283100a691ada55e155b22154779b17a3533bea12d456b12c8",
    "basis-4-1-2-H": "d7d04dbbd797919f0ae2e950b20d487a791fdb0e2fbb88fb63dc7ae3116f9999",
    "terms-pohozhaev": "06af595d0386b239fde7a622281e174ff3bc42d9ab69e545e5d2255e8a0c07d8",
    "terms-stokes": "08e9bb906c76a8e74203451550ac45558f3d1ffbc420257950f1b6c3a6f2eca4",
    "terms-weighted-reilly": "5069672b70d9adf5cdd7e5991e34811719d31b259e7b61245368fba717151a43",
}


@pytest.mark.parametrize("name", sorted(ARTEFACTS))
def test_golden_digest(name):
    assert _digest(ARTEFACTS[name]()) == GOLDEN[name]
