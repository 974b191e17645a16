"""Operator assembly, exact certification, bound checks."""

import copy
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densities import jstar_density
from formlab import linalg, spectral
from formlab.ball import BallDomain, inner_pairs, jstar_pairs, normal_part
from formlab.harmonic import BasisCache
from formlab.exterior import multi_indices
from formlab.polyform import PolyForm, PolyVectorField
from formlab.polynomials import Polynomial
from formlab.quadrature import integrate_ball, integrate_pairs, integrate_sphere
from formlab.sampling import rng_for
from formlab.spectral import (CertificateError, _neumann_extension, _neumann_failures,
                              _sphere_matrix, assemble_operator,
                              ball_reference_eigenvalue, check_bounds, scaling_check)
from oracle import certify_eigenvalue, full_stiffness, rank, solve, sphere_matrix


def binom(n, k):
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Least-squares harmonic extension: the independent oracle that the
# closed-form Neumann extension is checked against.
# ---------------------------------------------------------------------------

EXTENSION_KINDS = ("harmonic-coclosed", "harmonic-neumann")


def _trial_space(m, p, degree, cache):
    """Harmonic p-fields of coefficient degree <= degree (homogeneous
    blocks stack); at p = 0, the harmonic scalars."""
    return [w for l in range(degree + 1) for w in cache.get(m, l, p, "H").basis]


def lsq_extend_block(kind, domain, data, degree, cache, max_degree=None):
    """(extension, misfit) of each datum by exact least squares.

    kind "harmonic-coclosed": Delta ext = 0, delta ext = 0, J* ext = datum;
    kind "harmonic-neumann":  Delta ext = 0, J* ext = datum, i_N ext = 0.
    The interior conditions hold by the trial space; the boundary misfit
    Q(v) = v^T M v - 2 b.v + const (pullback mismatch plus, for the
    Neumann kind, the normal-part energy) is minimised, with the columns
    b of B solved together.  The block escalates the degree by 2 while
    any misfit is non-zero, up to ``max_degree`` (default: start + 4);
    trial spaces nest, so no misfit grows on the way."""
    assert kind in EXTENSION_KINDS, kind
    m, p, R = domain.m, data[0].p, domain.radius
    if max_degree is None:
        max_degree = degree + 4
    consts = [integrate_sphere(jstar_density(datum, datum, domain), R).coeff
              for datum in data]
    while True:
        if kind == "harmonic-neumann":
            # trial forms s dx_I: M is one scalar Gram per dx_I, so every
            # (dx_I, datum) column is solved against that Gram at once
            scalars = _trial_space(m, 0, degree, cache)
            indices = multi_indices(m, p)
            trial = [PolyForm(m, p, {I: s.coeffs[()]}) for I in indices for s in scalars]
            B = sphere_matrix(trial, data, domain)
            n, nI, nd = len(scalars), len(indices), len(data)
            rhs = [[v for i in range(nI) for v in B[i * n + j]] for j in range(n)]
            M_s = sphere_matrix(scalars, scalars, domain, pullback=False)
            Y = solve(M_s, rhs)
            X = None if Y is None else [Y[j][i * nd:(i + 1) * nd]
                                        for i in range(nI) for j in range(n)]
        else:
            trial = _trial_space(m, p, degree, cache)
            B = sphere_matrix(trial, data, domain)
            X = solve(sphere_matrix(trial, trial, domain), B)
        assert X is not None, "normal equations inconsistent"
        out = []
        for k, const in enumerate(consts):
            ext = sum((t * x[k] for x, t in zip(X, trial) if x[k]), PolyForm.zero(m, p))
            out.append((ext, const - sum(x[k] * b[k] for x, b in zip(X, B))))
        worst = max(misfit for _, misfit in out)
        if worst == 0:
            return out
        if degree + 2 > max_degree:
            raise ValueError(
                f"ansatz degree insufficient: misfit {worst} at degree {degree}")
        degree += 2


def lsq_extend(kind, domain, datum, degree, cache, max_degree=None):
    """The one-datum case of ``lsq_extend_block``."""
    return lsq_extend_block(kind, domain, [datum], degree, cache, max_degree)[0]


def rayleigh_quotient(ext, domain, include_codifferential):
    """(int |d ext|^2 [+ |delta ext|^2]) / int_S |J* ext|^2, each
    integrated from its product density."""
    m, R = domain.m, domain.radius
    num = Polynomial.zero(m)
    if ext.p <= m - 1:
        num = num + ext.d().norm_sq()
    if include_codifferential and ext.p >= 1:
        num = num + ext.delta().norm_sq()
    den = integrate_sphere(jstar_density(ext, ext, domain), R).coeff
    assert den != 0, "trial form has zero boundary trace"
    return integrate_ball(num, R).coeff / den


def neumann_misfit(ext, datum, domain):
    """The Neumann least-squares objective at ext:
    int_S |J*(ext - datum)|^2 + int_S |i_N ext|^2."""
    diff, normal = ext - datum, normal_part(ext, domain)
    return integrate_pairs(jstar_pairs(diff, diff, domain)
                           + inner_pairs(normal, normal), domain.radius)


@pytest.fixture(scope="module")
def d3(cache):
    return assemble_operator("dtn", 3, 1, 2, 1, cache)


@pytest.fixture(scope="module")
def t3(cache):
    return assemble_operator("dtn-neumann", 3, 1, 2, 1, cache)


@pytest.fixture(scope="module")
def h3(cache):
    return assemble_operator("hodge-boundary", 3, 1, 2, 1, cache)


class TestExtension:
    def test_coclosed_datum_extends_to_itself(self, cache):
        dom = BallDomain(3, Fraction(1))
        w = cache.get(3, 1, 1, "H-normal-null").basis[0]
        ext, misfit = lsq_extend("harmonic-coclosed", dom, w, 3, cache)
        assert misfit == 0
        # unique extension: difference has zero boundary trace and is zero
        assert (ext - w).is_zero()

    def test_neumann_kind_on_coexact_datum(self, cache):
        dom = BallDomain(3, Fraction(1))
        w = cache.get(3, 1, 1, "H-normal-null").basis[0]
        ext, misfit = lsq_extend("harmonic-neumann", dom, w, 3, cache)
        assert misfit == 0
        assert rayleigh_quotient(ext, dom, True) == 2  # p + l

    def test_neumann_kind_on_closed_datum(self):
        # constant closed datum: lowest exact block of the Neumann-type
        # operator, eigenvalue p(n+3)/(n+1)
        dom = BallDomain(3, Fraction(1))
        datum = PolyForm.basis(3, (1,))
        ext = _neumann_extension(datum, 0, dom)
        misfit = neumann_misfit(ext, datum, dom)
        assert misfit == 0
        assert rayleigh_quotient(ext, dom, True) == Fraction(5, 3)
        trace = ext.interior(PolyVectorField.position(3))
        from formlab.quadrature import RadialDensity
        assert integrate_sphere(
            RadialDensity.from_polynomial(trace.norm_sq()), 1).coeff == 0

    def test_escalation_reports_insufficient_degree(self, cache):
        dom = BallDomain(3, Fraction(1))
        # datum with no polynomial extension of tiny degree: use a cubic
        # coexact datum but cap the ansatz below its degree
        w = cache.get(3, 2, 1, "H-normal-null").basis[0]
        with pytest.raises(ValueError, match="ansatz degree insufficient"):
            lsq_extend("harmonic-coclosed", dom, w, 0, cache, max_degree=0)

    def test_block_matches_one_datum_extensions(self, cache):
        dom = BallDomain(4, Fraction(1))
        data = cache.get(4, 1, 2, "H-closed").basis
        assert len(data) > 1
        block = lsq_extend_block("harmonic-neumann", dom, data, 3, cache)
        for w, (ext, misfit) in zip(data, block):
            one = lsq_extend("harmonic-neumann", dom, w, 3, cache)
            assert misfit == one[1] == 0
            assert (ext - one[0]).is_zero()

    @pytest.mark.parametrize("m, p, l", [(4, 2, 1), (3, 1, 0), (3, 1, 1)])
    def test_neumann_block_matches_full_normal_solve(self, cache, m, p, l):
        # reference: eliminate the full normal matrix over the trial forms
        # s dx_I, as one system, instead of one scalar Gram per dx_I
        dom = BallDomain(m, Fraction(1))
        data = cache.get(m, l, p, "H-closed").basis
        degree = l + 2
        trial = [PolyForm(m, p, {I: s.coeffs[()]}) for k in range(degree + 1)
                 for I in multi_indices(m, p) for s in cache.get(m, k, 0, "H").basis]
        B = sphere_matrix(trial, data, dom)
        X = solve(sphere_matrix(trial, trial, dom, pullback=False), B)
        block = lsq_extend_block("harmonic-neumann", dom, data, degree, cache)
        assert len(block) == len(data)
        for k, (datum, (ext, misfit)) in enumerate(zip(data, block)):
            want = sum((t * x[k] for x, t in zip(X, trial) if x[k]), PolyForm.zero(m, p))
            const = integrate_sphere(jstar_density(datum, datum, dom), 1).coeff
            assert misfit == const - sum(x[k] * b[k] for x, b in zip(X, B)) == 0
            assert not ext.is_zero() and (ext - want).is_zero()

    def test_solve_columns_match_one_column_solves(self):
        rng = rng_for(7, "solve-columns")
        F = Fraction
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(3)]
        rows.append([rows[0][j] + rows[1][j] for j in range(4)])  # dependent row
        cols = [[sum(r[j] * F(k + j, 3) for j in range(4)) for r in rows]
                for k in range(3)]
        rhs = [list(r) for r in zip(*cols)]
        X = solve(rows, rhs)
        assert len(X) == 4 and all(len(x) == 3 for x in X)
        for k, col in enumerate(cols):
            one = solve(rows, [[v] for v in col])
            assert [x[k] for x in X] == [x[0] for x in one]
            assert [sum(a * x[k] for a, x in zip(r, X)) for r in rows] == col
        # a fourth column breaking row 3 = row 0 + row 1 is inconsistent
        bad = [r + [F(int(i == 3))] for i, r in enumerate(rhs)]
        assert solve(rows, bad) is None


RADII = (Fraction(1), Fraction(1, 2), Fraction(7, 3))


def closed_blocks(cache, radii=RADII):
    """(domain, k, closed degree-k harmonic p-forms) for m in 2..4,
    p in 1..m-1, k in 0..2."""
    for m in (2, 3, 4):
        for p in range(1, m):
            for k in range(3):
                data = cache.get(m, k, p, "H-closed").basis
                for R in radii:
                    yield BallDomain(m, R), k, data


def neumann_formula(phi, k, dom, a, first):
    """first - R^-2 x^b ^ i_x phi + a R^-2 (|x|^2 - R^2) phi: the closed
    formula with its coefficient and first term exposed to mutation."""
    m, R2 = dom.m, dom.radius ** 2
    x = PolyVectorField.position(m)
    return (first - x.dual_one_form().wedge(phi.interior(x)) * (1 / R2)
            + phi * ((Polynomial.radius_squared(m) - R2) * (a / R2)))


class TestNeumannExtension:
    """The closed-form dtn-neumann extension and its exact checks."""

    def test_formula_equals_least_squares_oracle(self, cache):
        count = 0
        for dom, k, data in closed_blocks(cache):
            block = lsq_extend_block("harmonic-neumann", dom, data, k + 2, cache)
            for phi, (want, misfit) in zip(data, block):
                assert misfit == 0
                assert _neumann_extension(phi, k, dom) == want
                count += 1
        assert count == 438

    @pytest.fixture
    def mutant_failures(self, cache):
        """The failed checks of a mutated formula on every closed block
        at R = 1 and R = 7/3, one list per datum."""
        def failures(mutate):
            out = []
            for dom, k, data in closed_blocks(cache, (Fraction(1), Fraction(7, 3))):
                for phi in data:
                    a = Fraction(phi.p + k, dom.m + 2 * k)
                    out.append(_neumann_failures(mutate(phi, k, dom, a), phi, dom))
            assert out
            return out
        return failures

    def test_wrong_coefficient_fails_only_harmonicity(self, mutant_failures):
        # a -> (p+k+1)/(m+2k): boundary conditions hold, harmonicity not
        def mutate(phi, k, dom, a):
            return neumann_formula(phi, k, dom, a + Fraction(1, dom.m + 2 * k), phi)
        assert all(f == ["harmonic"] for f in mutant_failures(mutate))

    def test_extension_of_twice_the_datum_fails_only_pullback(self, mutant_failures):
        # the formula applied to 2 phi is the Neumann extension of 2 phi:
        # harmonic with no normal part, but the wrong pullback
        def mutate(phi, k, dom, a):
            return neumann_formula(2 * phi, k, dom, a, 2 * phi)
        assert all(f == ["pullback"] for f in mutant_failures(mutate))
        # doubling only the first term also leaves a normal part i_x phi
        # on the sphere, so both boundary checks see it
        def first_only(phi, k, dom, a):
            return neumann_formula(phi, k, dom, a, 2 * phi)
        assert all(f == ["pullback", "normal part"]
                   for f in mutant_failures(first_only))

    def test_uncorrected_datum_fails_only_normal_part(self, mutant_failures):
        # ext = phi: harmonic with pullback phi, but i_x phi != 0 on the sphere
        assert all(f == ["normal part"]
                   for f in mutant_failures(lambda phi, k, dom, a: phi))

    def test_failure_names_the_condition(self, cache):
        # a co-exact datum is not closed: the formula's correction term
        # a R^-2 (|x|^2 - R^2) phi is then not harmonic
        dom = BallDomain(3, Fraction(1, 2))
        phi = cache.get(3, 1, 1, "H-normal-null").basis[0]
        with pytest.raises(AssertionError, match="m=3, R=1/2 fails: harmonic$"):
            _neumann_extension(phi, 1, dom)


class TestEigensolve:
    def test_cli_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, formlab.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestBallSpectra:
    def test_dtn_m3_p1(self, d3):
        asm, rep = d3
        groups = [(round(g.value, 8), g.multiplicity) for g in rep.eigenvalues]
        assert groups[0] == (2.0, 3)
        assert groups[1][0] == 3.0

    def test_dtn_m3_p1_certified(self, d3):
        asm, _ = d3
        assert certify_eigenvalue(asm, Fraction(2)) == 3
        assert certify_eigenvalue(asm, Fraction(7, 3)) == 0

    def test_dtn_m4_p1(self, cache):
        asm, rep = assemble_operator("dtn", 4, 1, 1, 1, cache)
        assert abs(rep.first_positive() - 2) < 1e-8
        assert rep.eigenvalues[0].multiplicity == binom(4, 2)
        assert certify_eigenvalue(asm, Fraction(2)) == 6

    def test_dtn_m4_p2(self, cache):
        asm, rep = assemble_operator("dtn", 4, 2, 1, 1, cache)
        assert abs(rep.first_positive() - 3) < 1e-8
        assert rep.eigenvalues[0].multiplicity == binom(4, 3)
        assert certify_eigenvalue(asm, Fraction(3)) == 4

    def test_dtn_top_degree_volume_form(self, cache):
        # p = n: the lowest coexact block is spanned by the normal
        # contraction of the volume form; eigenvalue n + 1
        from formlab.polyform import PolyVectorField
        asm, rep = assemble_operator("dtn", 3, 2, 1, 1, cache)
        assert abs(rep.first_positive() - 3.0) < 1e-8
        block = cache.get(3, 1, 2, "H-normal-null")
        assert block.dim == 1
        vol_trace = PolyForm.volume(3).interior(PolyVectorField.position(3))
        dom = BallDomain(3, Fraction(1))
        from formlab.quadrature import RadialDensity
        b = block.basis[0]
        # proportional on the boundary: Cauchy-Schwarz equality
        bb = integrate_sphere(RadialDensity.from_polynomial(
            jstar_density(b, b, dom)), 1).coeff
        vv = integrate_sphere(RadialDensity.from_polynomial(
            jstar_density(vol_trace, vol_trace, dom)), 1).coeff
        bv = integrate_sphere(RadialDensity.from_polynomial(
            jstar_density(b, vol_trace, dom)), 1).coeff
        assert bv * bv == bb * vv

    def test_neumann_variant_blocks(self, t3):
        _, rep = t3
        by_block = {(b["kind"], b["l"]): b for b in rep.blocks}
        exact1 = by_block[("exact", 1)]
        coexact1 = by_block[("coexact", 1)]
        assert all(abs(v - 5 / 3) < 1e-8 for v in exact1["eigenvalues"])
        assert all(abs(v - 2.0) < 1e-8 for v in coexact1["eigenvalues"])

    def test_neumann_variant_certified(self, t3):
        asm, _ = t3
        assert certify_eigenvalue(asm, Fraction(5, 3)) == 3

    def test_hodge_boundary_blocks(self, h3):
        _, rep = h3
        for b in rep.blocks:
            if b["l"] == 1:
                assert all(abs(v - 2.0) < 1e-8 for v in b["eigenvalues"])

    def test_hodge_boundary_certified(self, h3):
        asm, _ = h3
        # both l=1 blocks share the eigenvalue: exact multiplicity 6
        assert certify_eigenvalue(asm, Fraction(2)) == 6

    def test_reference_formula_deviations(self, d3, t3, h3):
        for _, rep in (d3, t3, h3):
            for blk in rep.blocks:
                assert blk["eigenvalues"] == [Fraction(blk["reference"])] * blk["dim"]


class TestAssemblyInvariants:
    def test_stiffness_symmetric_exactly(self, d3, t3):
        for asm, _ in (d3, t3):
            for i in range(asm.dim):
                for j in range(asm.dim):
                    assert asm.A[i][j] == asm.A[j][i]

    def test_gram_full_rank(self, d3):
        asm, _ = d3
        assert rank([list(r) for r in asm.G]) == asm.dim

    def test_eigenvalues_nonnegative(self, d3, t3, h3):
        for _, rep in (d3, t3, h3):
            assert all(g.value >= -1e-9 for g in rep.eigenvalues)

    def test_float_matches_certified_targets(self, d3):
        _, rep = d3
        for blk in rep.blocks:
            ref = float(Fraction(blk["reference"]))
            for v in blk["eigenvalues"]:
                assert abs(v - ref) < 1e-8

    def test_variational_upper_bound(self, cache):
        # the Rayleigh quotient of any co-closed trial datum bounds the
        # first eigenvalue from above
        dom = BallDomain(3, Fraction(1))
        _, rep = assemble_operator("dtn", 3, 1, 2, 1, cache)
        sigma1 = rep.first_positive()
        rng = rng_for(70, "variational")
        block1 = cache.get(3, 1, 1, "H-normal-null").basis
        block2 = cache.get(3, 2, 1, "H-normal-null").basis
        for _ in range(5):
            trial = PolyForm.zero(3, 1)
            for b in block1 + block2:
                trial = trial + b * Fraction(rng.randint(-2, 2))
            if trial.is_zero():
                continue
            quotient = rayleigh_quotient(trial, dom, False)
            assert float(quotient) >= sigma1 - 1e-9

    def test_coclosed_trial_space(self, cache):
        # every coexact trial pullback is killed by the tangential
        # codifferential, exactly
        from formlab.ball import boundary_delta_rep
        from formlab.quadrature import RadialDensity
        dom = BallDomain(3, Fraction(1))
        for l in (1, 2):
            for w in cache.get(3, l, 1, "H-normal-null").basis:
                rep = boundary_delta_rep(w, dom)
                assert integrate_sphere(RadialDensity.from_polynomial(
                    jstar_density(rep, rep, dom)), 1).coeff == 0

    def test_invalid_operator_and_degree(self, cache):
        with pytest.raises(ValueError):
            assemble_operator("bogus", 3, 1, 1, 1, cache)
        with pytest.raises(ValueError):
            assemble_operator("dtn", 3, 3, 1, 1, cache)


@st.composite
def form_lists(draw):
    """(domain, rows, cols) of p-forms, 0 <= p <= m, with mixed-degree
    polynomial coefficients."""
    m = draw(st.sampled_from((2, 3, 4)))
    p = draw(st.integers(0, m))
    R = draw(st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(7, 3))))
    expos = st.tuples(*[st.integers(0, 3)] * m)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    polys = st.dictionaries(expos, coeffs, max_size=3)
    forms = st.dictionaries(st.sampled_from(multi_indices(m, p)), polys,
                            max_size=3).map(
        lambda cs: PolyForm(m, p, {I: Polynomial(m, t) for I, t in cs.items()}))
    rows = draw(st.lists(forms, min_size=1, max_size=3))
    cols = draw(st.lists(forms, min_size=1, max_size=3))
    return BallDomain(m, R), rows, cols


class TestSphereMatrix:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=form_lists())
    def test_entries_equal_integrated_pairings(self, case):
        dom, rows, cols = case
        R = dom.radius
        for pullback, pair in ((True, lambda u, v: jstar_density(u, v, dom)),
                               (False, PolyForm.inner)):
            for rs, cs in ((rows, rows), (rows, cols)):
                want = [[integrate_sphere(pair(u, v), R).coeff for v in cs]
                        for u in rs]
                assert sphere_matrix(rs, cs, dom, pullback) == want
                if pullback and rs is cs:
                    # the Gram pairing that assembly uses
                    assert _sphere_matrix(rs, dom) == want


class TestBounds:
    def test_unit_ball_m3(self, d3, t3, h3):
        checks = check_bounds(d3[1], t3[1], h3[1])
        assert all(c.passed for c in checks)
        by_name = {c.name: c for c in checks}
        assert abs(by_name["operator-ordering"].details["nu_1"] - 5 / 3) < 1e-8

    def test_missing_first_coexact_block_is_named(self, d3, t3, h3):
        dtn = copy.deepcopy(d3[1])
        dtn.blocks = [row for row in dtn.blocks
                      if not (row["kind"] == "coexact" and row["l"] == 1)]
        with pytest.raises(ValueError, match="coexact l=1 block"):
            check_bounds(dtn, t3[1], h3[1])

    def test_rescaled_balls(self, cache):
        for c in (Fraction(1, 2), Fraction(1), Fraction(3)):
            R = 1 / c
            _, rep = assemble_operator("dtn", 3, 1, 1, R, cache)
            assert abs(rep.first_positive() - float(2 * c)) < 1e-10


class TestScaling:
    def test_dtn_halves_at_double_radius(self, cache, d3):
        _, scaled = assemble_operator("dtn", 3, 1, 2, 2, cache)
        assert abs(scaled.first_positive() - 1.0) < 1e-10
        chk = scaling_check(d3[1], scaled)
        assert chk.passed

    def test_hodge_quarter_at_double_radius(self, cache, h3):
        _, scaled = assemble_operator("hodge-boundary", 3, 1, 2, 2, cache)
        assert abs(scaled.first_positive() - 0.5) < 1e-10
        assert scaling_check(h3[1], scaled).passed

    def test_mismatched_reports_rejected(self, d3, h3):
        with pytest.raises(ValueError):
            scaling_check(d3[1], h3[1])


class TestReferenceFormulas:
    def test_coexact_low_blocks(self):
        assert ball_reference_eigenvalue("dtn", "coexact", 3, 1, 1, 1) == 2
        assert ball_reference_eigenvalue("dtn-neumann", "exact", 3, 1, 1, 1) == Fraction(5, 3)
        assert ball_reference_eigenvalue("hodge-boundary", "coexact", 3, 1, 1, 1) == 2
        assert ball_reference_eigenvalue("hodge-boundary", "exact", 3, 1, 1, 1) == 2

    def test_radius_powers(self):
        assert ball_reference_eigenvalue("dtn", "coexact", 3, 1, 1, 2) == 1
        assert ball_reference_eigenvalue("hodge-boundary", "coexact", 3, 1, 1, 2) \
            == Fraction(1, 2)


class TestBlockCertificate:
    """The exact block certificate behind every reported spectrum."""

    @staticmethod
    def edited_copy(asm, edit):
        bad = copy.deepcopy(asm)
        edit(bad, [sl for _, sl in bad.block_slices()])
        return bad

    def test_shifted_reference_names_the_block(self, d3, monkeypatch):
        real = spectral.ball_reference_eigenvalue

        def shifted(op, kind, m, p, l, R):
            theta = real(op, kind, m, p, l, R)
            return theta + 1 if (kind, l) == ("coexact", 2) else theta
        monkeypatch.setattr(spectral, "ball_reference_eigenvalue", shifted)
        _, sl = d3[0].block_slices()[1]
        with pytest.raises(CertificateError) as err:
            spectral._solve_assembly(d3[0])
        assert str(err.value) == (
            f"dtn at m=3, p=1, R=1: block coexact l=2 (rows {sl.start}..{sl.stop - 1}): "
            f"trial form {sl.start} is not an eigenform: "
            "J*(T phi) != theta_b J* phi with theta_b = 4")

    def test_shifted_exact_reference_names_the_form(self, t3, monkeypatch):
        real = spectral.ball_reference_eigenvalue

        def shifted(op, kind, m, p, l, R):
            theta = real(op, kind, m, p, l, R)
            return theta * 2 if kind == "exact" else theta
        monkeypatch.setattr(spectral, "ball_reference_eigenvalue", shifted)
        with pytest.raises(CertificateError,
                           match="block exact l=1 \\(rows 0..2\\): trial form 0 is not "
                                 "an eigenform: .* theta_b = 10/3$"):
            spectral._solve_assembly(t3[0])

    def test_off_diagonal_entry_names_both_blocks(self, t3):
        def couple(asm, slices):
            i, j = slices[0].start, slices[1].start
            asm.G[i][j] = asm.G[j][i] = Fraction(1, 5)
        bad = self.edited_copy(t3[0], couple)
        first, second = (f"block {b.kind} l={b.l}" for b in bad.blocks[:2])
        with pytest.raises(CertificateError,
                           match="block .*: off-diagonal entry G\\[0\\]\\[3\\] = 1/5 "
                                 f"couples it to {second}") as err:
            spectral._solve_assembly(bad)
        assert f": {first} (rows 0..2)" in str(err.value)

    def test_singular_gram_block_names_the_block(self, h3):
        def duplicate(asm, slices):
            i, j = slices[1].start, slices[1].start + 1
            for row in asm.G:
                row[j] = row[i]
            asm.G[j] = list(asm.G[i])
        bad = self.edited_copy(h3[0], duplicate)
        blk = bad.blocks[1]
        with pytest.raises(CertificateError,
                           match=f"block {blk.kind} l={blk.l} .*G_b fails the exact "
                                 "LDL\\^T positive-definiteness test"):
            spectral._solve_assembly(bad)

    def test_wrong_neumann_coefficient_names_the_form(self, monkeypatch):
        # a -> (p+k+1)/(m+2k) with the extension's own checks bypassed:
        # the pullback of -i_N d ext is then (2a + p + k)/R J* phi, off theta_b
        def unchecked(phi, k, dom):
            a = Fraction(phi.p + k + 1, dom.m + 2 * k)
            return neumann_formula(phi, k, dom, a, phi)
        monkeypatch.setattr(spectral, "_neumann_extension", unchecked)
        with pytest.raises(CertificateError,
                           match="^dtn-neumann at m=3, p=1, R=1: block exact l=1 "
                                 "\\(rows 0..2\\): trial form 0 is not an eigenform"):
            assemble_operator("dtn-neumann", 3, 1, 1, 1, BasisCache())

    @pytest.mark.parametrize("op", spectral.OPERATORS)
    def test_tampered_basis_vector_names_the_form(self, op):
        # a closed degree-2 field added to the first coexact l=2 datum:
        # still orthogonal to the l=1 blocks, but no eigenform
        cache = BasisCache()
        coexact = cache.get(3, 2, 1, "H-normal-null").basis
        coexact[0] = coexact[0] + cache.get(3, 2, 1, "H-closed").basis[0]
        with pytest.raises(CertificateError,
                           match=f"^{op} at m=3, p=1, R=1: block coexact l=2 "
                                 "\\(rows (\\d+)\\.\\.\\d+\\): trial form \\1 is not an eigenform"):
            assemble_operator(op, 3, 1, 2, 1, cache)

    def test_exact_positive_definite_test(self):
        assert linalg.is_positive_definite([[2, 1], [1, 2]])
        assert linalg.is_positive_definite([[Fraction(1, 3)]])
        assert linalg.is_positive_definite([])
        assert not linalg.is_positive_definite([[1, 1], [1, 1]])
        assert not linalg.is_positive_definite([[1, 2], [2, 1]])
        assert not linalg.is_positive_definite([[0, 0], [0, 1]])

    @pytest.mark.parametrize("m, p, l_max, R", [(2, 1, 3, Fraction(2, 3)),
                                                (3, 1, 2, Fraction(1)),
                                                (3, 2, 2, Fraction(1, 2)),
                                                (4, 2, 2, Fraction(1))])
    def test_multiplicities_equal_full_matrix_nullities(self, cache, m, p, l_max, R):
        for op in spectral.OPERATORS:
            asm, rep = assemble_operator(op, m, p, l_max, R, cache)
            # Theta G, never paired, equals the stiffness matrix paired in full
            A = full_stiffness(asm)
            assert asm.A == A
            groups = {str(g.value): g.multiplicity for g in rep.eigenvalues}
            assert rep.certified == groups
            assert sum(groups.values()) == asm.dim
            for g in rep.eigenvalues:
                assert isinstance(g.value, Fraction)
                assert certify_eigenvalue(asm, g.value, A) == g.multiplicity


class TestNumpyFree:
    def test_spectrum_run_loads_no_numpy(self, tmp_path):
        script = (
            "import sys, formlab.cli\n"
            "before = 'numpy' in sys.modules\n"
            f"code = formlab.cli.main(['spectrum', '--dim', '3', '--lmax', '1', "
            f"'--out', {str(tmp_path)!r}])\n"
            "after = 'numpy' in sys.modules\n"
            "from formlab import ChartMetric\n"
            "import formlab.curvature\n"
            "print(before, code, after, ChartMetric is formlab.curvature.ChartMetric)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False 0 False True"
