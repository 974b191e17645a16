"""Harmonic polynomial form spaces, splits, reduction, cache."""

import json
import math
import threading
import time
from fractions import Fraction

import pytest

from densities import jstar_density
from formlab import harmonic
from formlab.ball import BallDomain, boundary_delta_rep, normal_part
from formlab.harmonic import (BasisCache, harmonic_field_basis,
                              monomial_form_basis, split_closed_normal_null,
                              sphere_reduce)
from formlab.polynomials import Polynomial
from formlab.polyform import PolyForm, PolyVectorField
from formlab.quadrature import RadialDensity, integrate_sphere
from formlab.sampling import random_polynomial, rng_for
from oracle import rank, solve


def binom(n, k):
    return math.comb(n, k)


def sphere_gram(basis, m):
    """Unit-sphere Gram matrix of the pullbacks: entries int <J* a, J* b>."""
    dom = BallDomain(m, Fraction(1))
    return [[integrate_sphere(jstar_density(a, b, dom), 1).coeff for b in basis]
            for a in basis]


class TestMonomialBasis:
    def test_constant_one_forms(self):
        assert monomial_form_basis(3, 0, 1).dim == 3

    def test_linear_one_forms(self):
        # enumeration oracle: monomials times covectors
        got = monomial_form_basis(3, 1, 1)
        assert got.dim == 3 * 3 == len({(I, e) for b in got.basis
                                        for I, c in b.coeffs.items()
                                        for e in c.terms})

    def test_m4_quadratic_two_forms(self):
        got = monomial_form_basis(4, 2, 2)
        assert got.dim == binom(4, 2) * binom(2 + 3, 3) == 60

    def test_dimension_formula(self):
        for m in (2, 3, 4):
            for l in range(0, 3):
                for p in range(0, m + 1):
                    want = binom(m, p) * binom(l + m - 1, m - 1)
                    assert monomial_form_basis(m, l, p).dim == want


class TestHarmonicFields:
    def test_constants_are_harmonic_fields(self):
        got = harmonic_field_basis(3, 0, 1)
        assert got.dim == 3

    def test_linear_fields_membership(self):
        got = harmonic_field_basis(3, 1, 1)
        x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
        rotation = PolyForm(3, 1, {(1,): x2, (2,): -x1})
        radial = PolyForm(3, 1, {(1,): x1})
        # membership via rank: adding the candidate must not raise rank
        frame = [(I, e) for b in got.basis for I in b.coeffs
                 for e in b.coeffs[I].terms]
        frame = sorted(set(frame))

        def coords(form):
            return [Fraction(form.coeffs[I].coefficient(e))
                    if I in form.coeffs else Fraction(0) for I, e in frame]

        base_rows = [coords(b) for b in got.basis]
        base_rank = rank(base_rows)
        assert rank(base_rows + [coords(rotation)]) == base_rank
        assert rank(base_rows + [coords(radial)]) == base_rank + 1

    def test_conditions_hold_exactly(self):
        for m, l, p in ((3, 2, 1), (3, 1, 2), (4, 1, 1)):
            got = harmonic_field_basis(m, l, p)
            for b in got.basis:
                assert b.laplacian().is_zero()
                assert b.delta().is_zero()
                if p <= m - 1:
                    assert b.d().laplacian().is_zero()

    @pytest.mark.parametrize("m", (2, 3, 4))
    def test_rough_laplacian_build_equals_hodge_build(self, m):
        # the componentwise Laplacian is minus the Hodge Laplacian, so the
        # restriction has the same row space and the same canonical basis
        for l in range(4):
            for p in range(m + 1):
                hodge = harmonic._restrict(monomial_form_basis(m, l, p).basis,
                                           PolyForm.laplacian)
                if p >= 1:
                    hodge = harmonic._restrict(hodge, PolyForm.delta)
                assert harmonic_field_basis(m, l, p).basis == hodge

    def test_basis_reproducible(self):
        a = harmonic_field_basis(3, 2, 1)
        b = harmonic_field_basis(3, 2, 1)
        assert len(a.basis) == len(b.basis)
        for u, v in zip(a.basis, b.basis):
            assert u == v


class TestSplit:
    def test_coexact_block_dimensions(self):
        for m in (3, 4):
            h = harmonic_field_basis(m, 1, 1)
            _, normal_null = split_closed_normal_null(h)
            assert normal_null.dim == binom(m, 2)

    def test_m4_p2(self):
        h = harmonic_field_basis(4, 1, 2)
        _, normal_null = split_closed_normal_null(h)
        assert normal_null.dim == binom(4, 3)

    def test_constant_closed_forms(self):
        for m in (3, 4):
            for p in range(1, m):
                h = harmonic_field_basis(m, 0, p)
                closed, _ = split_closed_normal_null(h)
                assert closed.dim == binom(m, p)

    def test_conditions(self):
        h = harmonic_field_basis(3, 2, 1)
        closed, normal_null = split_closed_normal_null(h)
        pos = PolyVectorField.position(3)
        for b in closed.basis:
            assert b.d().is_zero()
        for b in normal_null.basis:
            assert b.interior(pos).is_zero()

    def test_normal_null_matches_integral_condition(self):
        # i_x w = 0 identically iff the boundary normal part has zero
        # L2 norm on the sphere (rank comparison over the H basis)
        dom = BallDomain(3, Fraction(1))
        h = harmonic_field_basis(3, 2, 1)
        _, normal_null = split_closed_normal_null(h)
        integral_null = []
        for b in h.basis:
            i_n = normal_part(b, dom)
            val = integrate_sphere(
                RadialDensity.from_polynomial(i_n.norm_sq()), 1).coeff
            if val == 0:
                integral_null.append(b)
        assert len(integral_null) <= normal_null.dim
        # every identically-normal-null form has vanishing integral, and
        # the two characterisations give the same dimension
        assert rank(sphere_gram(normal_null.basis, 3)) == normal_null.dim


class TestCodifferentialIsomorphism:
    @pytest.mark.parametrize("m,l,p", [(3, 0, 2), (3, 1, 1), (4, 0, 2)])
    def test_bijective_between_blocks(self, m, l, p, cache):
        src = cache.get(m, l, p, "H-closed")
        tgt = cache.get(m, l + 1, p - 1, "H-normal-null")
        assert src.dim == tgt.dim and src.dim > 0
        dom = BallDomain(m, Fraction(1))
        coord_rows = []
        for b in src.basis:
            img = boundary_delta_rep(b, dom)
            rhs = [integrate_sphere(RadialDensity.from_polynomial(
                jstar_density(img, t, dom)), 1).coeff for t in tgt.basis]
            sol = solve(sphere_gram(tgt.basis, m), [[v] for v in rhs])
            assert sol is not None
            coords = [row[0] for row in sol]
            # the image lies exactly in the target block
            recon = PolyForm.zero(m, p - 1)
            for c, t in zip(coords, tgt.basis):
                recon = recon + t * c
            diff = img - recon
            assert integrate_sphere(RadialDensity.from_polynomial(
                jstar_density(diff, diff, dom)), 1).coeff == 0
            coord_rows.append(coords)
        assert rank(coord_rows) == src.dim


class TestSphereReduce:
    def test_radius_squared_collapses(self):
        assert sphere_reduce(Polynomial.radius_squared(3), 1) == \
            Polynomial.one(3)

    def test_multiple_of_relation_vanishes(self):
        x1 = Polynomial.variable(3, 1)
        q = x1 * x1 * Polynomial.radius_squared(3) - x1 * x1
        assert sphere_reduce(q, 1).is_zero()

    def test_idempotent(self):
        rng = rng_for(60, "reduce")
        for _ in range(5):
            q = random_polynomial(rng, 3, 5)
            r = sphere_reduce(q, Fraction(3, 2))
            assert sphere_reduce(r, Fraction(3, 2)) == r

    def test_linear(self):
        rng = rng_for(61, "reduce-lin")
        a = random_polynomial(rng, 3, 4)
        b = random_polynomial(rng, 3, 4)
        assert sphere_reduce(a + b, 1) == sphere_reduce(a, 1) + sphere_reduce(b, 1)

    def test_no_high_power_of_last_variable(self):
        rng = rng_for(62, "reduce-basis")
        q = random_polynomial(rng, 3, 6)
        r = sphere_reduce(q, 1)
        assert all(e[-1] <= 1 for e in r.terms)

    def test_agrees_on_sphere_points(self):
        # reduction preserves values at rational points of the sphere
        q = random_polynomial(rng_for(63, "reduce-pts"), 3, 4)
        r = sphere_reduce(q, 1)
        pt = [Fraction(3, 13), Fraction(4, 13), Fraction(12, 13)]
        assert sum(v * v for v in pt) == 1
        assert q.evaluate(pt) == r.evaluate(pt)


class TestCache:
    def test_disk_roundtrip(self, tmp_path):
        cache = BasisCache(str(tmp_path))
        a = cache.get(3, 1, 1, "H-normal-null")
        files = list(tmp_path.glob("basis_*.json"))
        assert files
        fresh = BasisCache(str(tmp_path))
        b = fresh.get(3, 1, 1, "H-normal-null")
        assert a.dim == b.dim
        for u, v in zip(a.basis, b.basis):
            assert u == v

    def test_document_format(self, tmp_path):
        cache = BasisCache(str(tmp_path))
        cache.get(2, 1, 1, "H")
        path = tmp_path / "basis_m2_l1_p1_H.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2
        assert doc["dim"] == len(doc["vectors"])
        for vec in doc["vectors"]:
            for num, den in vec:
                int(num), int(den)  # decimal strings

    def test_concurrent_misses_load_once(self, tmp_path, monkeypatch):
        BasisCache(str(tmp_path)).get(3, 1, 1, "H")
        loads = []
        real = harmonic._decode_basis

        def slow_decode(doc):
            loads.append(doc["kind"])
            time.sleep(0.05)  # yield, so the other thread reaches its lookup
            return real(doc)
        monkeypatch.setattr(harmonic, "_decode_basis", slow_decode)
        cache = BasisCache(str(tmp_path))
        barrier = threading.Barrier(2)
        got = []

        def worker():
            barrier.wait(timeout=10)
            got.append(cache.get(3, 1, 1, "H"))
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 2 and got[0] is got[1]
        assert loads == ["H"]

    @pytest.mark.parametrize("damage", ["truncated", "zero-denominator", "short-vector"])
    def test_malformed_file_is_rebuilt(self, tmp_path, damage):
        name = "basis_m2_l1_p1_H-normal-null.json"
        want = BasisCache(str(tmp_path / "ref")).get(2, 1, 1, "H-normal-null")
        good = (tmp_path / "ref" / name).read_text()
        doc = json.loads(good)
        assert doc["vectors"]
        if damage == "truncated":
            bad = good[:50]
        elif damage == "zero-denominator":
            doc["vectors"][0][0] = ["1", "0"]
            bad = json.dumps(doc)
        else:
            doc["vectors"][0].pop()
            bad = json.dumps(doc)
        plant = tmp_path / "plant"
        plant.mkdir()
        (plant / name).write_text(bad)
        got = BasisCache(str(plant)).get(2, 1, 1, "H-normal-null")
        assert got.basis == want.basis
        assert (plant / name).read_text() == good

    def test_stale_and_mismatched_files_are_rebuilt(self, tmp_path, monkeypatch):
        ref_dir, plant = tmp_path / "ref", tmp_path / "plant"
        ref = BasisCache(str(ref_dir))
        want = {kind: ref.get(3, 1, 1, kind) for kind in ("H", "H-normal-null")}

        def doc(directory, kind):
            return json.loads((directory / f"basis_m3_l1_p1_{kind}.json").read_text())

        # a schema-1 file that still carries a gram, with one vector entry wrong
        stale = doc(ref_dir, "H-normal-null")
        stale["schema"] = 1
        stale["gram"] = [[["1", "1"]] * stale["dim"]] * stale["dim"]
        stale["vectors"][0][0] = ["7", "1"]
        # a valid schema-2 document filed under another kind's name
        mismatched = doc(ref_dir, "H-closed")
        plant.mkdir()
        (plant / "basis_m3_l1_p1_H-normal-null.json").write_text(json.dumps(stale))
        (plant / "basis_m3_l1_p1_H.json").write_text(json.dumps(mismatched))

        cache = BasisCache(str(plant))
        for kind in ("H", "H-normal-null"):
            got = cache.get(3, 1, 1, kind)
            assert got.kind == kind and got.basis == want[kind].basis
            assert doc(plant, kind) == doc(ref_dir, kind)
            assert doc(plant, kind)["schema"] == 2

        # the rewritten files are trusted: a fresh cache loads, never computes
        def no_compute(*args):
            raise AssertionError("basis recomputed despite a valid file")
        monkeypatch.setattr(harmonic, "harmonic_field_basis", no_compute)
        assert BasisCache(str(plant)).get(3, 1, 1, "H-normal-null").basis == \
            want["H-normal-null"].basis

    @pytest.mark.parametrize("kind", ["H", "H-closed", "H-normal-null"])
    def test_tampered_vector_entry_is_rebuilt(self, tmp_path, kind):
        ref_dir, plant = tmp_path / "ref", tmp_path / "plant"
        want = BasisCache(str(ref_dir)).get(3, 1, 2, kind)
        name = f"basis_m3_l1_p2_{kind}.json"
        computed = json.loads((ref_dir / name).read_text())
        # add 1 to the first vector's entry at x_j dx_I with j in I: every
        # kind but "P" rejects it, since delta(x_j dx_I) = -i_{e_j} dx_I != 0
        tampered = json.loads((ref_dir / name).read_text())
        k = next(i for i, (I, e) in enumerate(tampered["frame"])
                 if any(e[j - 1] for j in I))
        num, den = tampered["vectors"][0][k]
        tampered["vectors"][0][k] = [str(int(num) + int(den)), den]
        plant.mkdir()
        (plant / name).write_text(json.dumps(tampered))
        got = BasisCache(str(plant)).get(3, 1, 2, kind)
        assert got.basis == want.basis
        assert json.loads((plant / name).read_text()) == computed

    @pytest.mark.parametrize("kind", ["H", "H-closed", "H-normal-null"])
    def test_dependent_vector_is_rebuilt(self, tmp_path, kind):
        # one extra vector, the sum of the first two: every form still
        # satisfies the constraints of its kind, but the basis is dependent
        ref_dir, plant = tmp_path / "ref", tmp_path / "plant"
        want = BasisCache(str(ref_dir)).get(3, 1, 1, kind)
        name = f"basis_m3_l1_p1_{kind}.json"
        computed = json.loads((ref_dir / name).read_text())
        planted = json.loads((ref_dir / name).read_text())
        first, second = ([Fraction(int(num), int(den)) for num, den in vec]
                         for vec in planted["vectors"][:2])
        planted["vectors"].append([[str(s.numerator), str(s.denominator)]
                                   for s in (a + b for a, b in zip(first, second))])
        planted["dim"] += 1
        plant.mkdir()
        (plant / name).write_text(json.dumps(planted))
        got = BasisCache(str(plant)).get(3, 1, 1, kind)
        assert got.basis == want.basis
        assert json.loads((plant / name).read_text()) == computed

    def test_reduced_form_decides_independence(self):
        assert harmonic._in_reduced_form([[0, 1, 0], [3, 0, 1]])
        assert harmonic._in_reduced_form([])
        for vectors in ([[1, 0], [1, 0]],          # leads not increasing
                        [[0, 1], [1, 0]],
                        [[0, 2, 0], [0, 0, 1]],    # lead entry not 1
                        [[0, 1, 1], [0, 0, 1]],    # lead shared with an earlier vector
                        [[0, 0], [1, 0]]):         # a zero vector
            assert not harmonic._in_reduced_form(vectors), vectors

    def test_memoisation(self):
        cache = BasisCache()
        a = cache.get(3, 1, 1, "H")
        assert cache.get(3, 1, 1, "H") is a

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BasisCache().get(3, 1, 1, "bogus")


def test_gram_matrices_have_full_rank(cache):
    for m, l, p in ((3, 1, 1), (3, 2, 1), (4, 1, 2)):
        basis = cache.get(m, l, p, "H-normal-null")
        assert rank(sphere_gram(basis.basis, m)) == basis.dim
