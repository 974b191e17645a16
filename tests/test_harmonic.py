"""Harmonic polynomial form spaces, splits, reduction, cache."""

import json
import math
from fractions import Fraction

import pytest

from densities import jstar_density
from formlab import harmonic
from formlab.ball import BallDomain, boundary_delta_rep, normal_part
from formlab.harmonic import (KINDS, BasisCache, expected_dim, monomial_form_basis,
                              sphere_reduce)
from formlab.polynomials import Polynomial
from formlab.polyform import PolyForm, PolyVectorField
from formlab.quadrature import integrate_sphere
from formlab.sampling import random_polynomial, rng_for
from oracle import harmonic_fields, rank, reference_bases, solve


def binom(n, k):
    return math.comb(n, k)


def sparse(vectors):
    return [{i: c for i, c in enumerate(vec) if c} for vec in vectors]


# dense vectors, and whether they are in the reduced form of
# ``harmonic._in_reduced_form``
REDUCED_FORM_CASES = (([[0, 1, 0], [3, 0, 1]], True),
                      ([], True),
                      ([[1, 0], [1, 0]], False),          # leads not increasing
                      ([[0, 1], [1, 0]], False),
                      ([[0, 2, 0], [0, 0, 1]], False),    # lead entry not 1
                      ([[0, 1, 1], [0, 0, 1]], False),    # lead shared with an earlier vector
                      ([[0, 0], [1, 0]], False))          # a zero vector


def sphere_gram(basis, m):
    """Unit-sphere Gram matrix of the pullbacks: entries int <J* a, J* b>."""
    dom = BallDomain(m, Fraction(1))
    return [[integrate_sphere(jstar_density(a, b, dom), 1) for b in basis]
            for a in basis]


class TestMonomialBasis:
    def test_constant_one_forms(self):
        assert len(monomial_form_basis(3, 0, 1)) == 3

    def test_linear_one_forms(self):
        # enumeration oracle: monomials times covectors
        got = monomial_form_basis(3, 1, 1)
        assert len(got) == 3 * 3 == len({(I, e) for b in got
                                         for I, c in b.coeffs.items()
                                         for e in c.terms})

    def test_m4_quadratic_two_forms(self):
        got = monomial_form_basis(4, 2, 2)
        assert len(got) == binom(4, 2) * binom(2 + 3, 3) == 60

    def test_dimension_formula(self):
        for m in (2, 3, 4):
            for l in range(0, 3):
                for p in range(0, m + 1):
                    want = binom(m, p) * binom(l + m - 1, m - 1)
                    assert len(monomial_form_basis(m, l, p)) == want


class TestHarmonicFields:
    def test_constants_are_harmonic_fields(self, cache):
        assert len(harmonic_fields(cache, 3, 0, 1)) == 3

    def test_linear_fields_membership(self, cache):
        basis = harmonic_fields(cache, 3, 1, 1)
        x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
        rotation = PolyForm(3, 1, {(1,): x2, (2,): -x1})
        radial = PolyForm(3, 1, {(1,): x1})
        # membership via rank: adding the candidate must not raise rank
        frame = [(I, e) for b in basis for I in b.coeffs
                 for e in b.coeffs[I].terms]
        frame = sorted(set(frame))

        def coords(form):
            return [Fraction(form.coeffs[I].coefficient(e))
                    if I in form.coeffs else Fraction(0) for I, e in frame]

        base_rows = [coords(b) for b in basis]
        base_rank = rank(base_rows)
        assert rank(base_rows + [coords(rotation)]) == base_rank
        assert rank(base_rows + [coords(radial)]) == base_rank + 1

    def test_conditions_hold_exactly(self, cache):
        for m, l, p in ((3, 2, 1), (3, 1, 2), (4, 1, 1)):
            for b in harmonic_fields(cache, m, l, p):
                assert b.laplacian().is_zero()
                assert b.delta().is_zero()
                if p <= m - 1:
                    assert b.d().laplacian().is_zero()

    @pytest.mark.parametrize("m", (2, 3, 4, 5, 6))
    def test_rough_laplacian_build_equals_hodge_build(self, cache, m):
        # every kind built from its definition (d and delta, i_x of the
        # closed fields a degree down) holds the same forms, in the same
        # order, as the restriction from the kernel of the Hodge
        # Laplacian, and each form's terms follow the monomial frame, as
        # those of a form decoded from the disk cache do
        for l in range(dict(TestExpectedDim.GRID)[m] + 1):
            for p in range(m + 1):
                want = reference_bases(m, l, p)
                frame = harmonic._monomial_frame(m, l, p)
                for kind in KINDS:
                    got = cache.get(m, l, p, kind)
                    assert got == tuple(want[kind]), (m, l, p, kind)
                    assert all(list(vec) == sorted(vec)
                               for vec in harmonic._coordinates(frame, got)), (m, l, p, kind)

    @pytest.mark.parametrize("m", (2, 3, 4, 5, 6))
    def test_kinds_span_the_harmonic_fields(self, cache, m):
        # the closed and the normal-null fields are independent of each
        # other, except for the constants, which are both at l = p = 0,
        # and together they span all harmonic co-closed fields: the
        # reduced basis is unique to its span
        for l in range(dict(TestExpectedDim.GRID)[m] + 1):
            for p in range(m + 1):
                span = harmonic_fields(cache, m, l, p)
                dims = sum(expected_dim(m, l, p, kind) for kind in KINDS)
                assert len(span) == dims - (l + p == 0), (m, l, p)
                H = reference_bases(m, l, p)["H"]
                assert span == harmonic._reduced_span(m, l, p, H), (m, l, p)

    def test_basis_reproducible(self):
        for kind in KINDS:
            a = BasisCache().get(3, 2, 1, kind)
            b = BasisCache().get(3, 2, 1, kind)
            assert a and a == b


class TestSplit:
    def test_coexact_block_dimensions(self, cache):
        for m in (3, 4):
            assert len(cache.get(m, 1, 1, "H-normal-null")) == binom(m, 2)

    def test_m4_p2(self, cache):
        assert len(cache.get(4, 1, 2, "H-normal-null")) == binom(4, 3)

    def test_constant_closed_forms(self, cache):
        for m in (3, 4):
            for p in range(1, m):
                assert len(cache.get(m, 0, p, "H-closed")) == binom(m, p)

    def test_conditions(self, cache):
        closed = cache.get(3, 2, 1, "H-closed")
        normal_null = cache.get(3, 2, 1, "H-normal-null")
        pos = PolyVectorField.position(3)
        for b in closed:
            assert b.d().is_zero()
        for b in normal_null:
            assert b.interior(pos).is_zero()

    def test_normal_null_matches_integral_condition(self, cache):
        # i_x w = 0 identically iff the boundary normal part has zero
        # L2 norm on the sphere (rank comparison over the H basis)
        dom = BallDomain(3, Fraction(1))
        h = reference_bases(3, 2, 1)["H"]
        normal_null = cache.get(3, 2, 1, "H-normal-null")
        integral_null = []
        for b in h:
            i_n = normal_part(b, dom)
            val = integrate_sphere(i_n.norm_sq(), 1)
            if val == 0:
                integral_null.append(b)
        assert len(integral_null) <= len(normal_null)
        # every identically-normal-null form has vanishing integral, and
        # the two characterisations give the same dimension
        assert rank(sphere_gram(normal_null, 3)) == len(normal_null)


class TestExpectedDim:
    # (m, largest l): every basis these build is also checked against
    # the formula inside BasisCache, on each computation and each load
    GRID = ((2, 5), (3, 4), (4, 3), (5, 2), (6, 1))

    @pytest.mark.parametrize("m, top", GRID)
    def test_equals_computed_dimension(self, cache, m, top):
        for l in range(top + 1):
            for p in range(m + 1):
                for kind in KINDS:
                    assert len(cache.get(m, l, p, kind)) == expected_dim(m, l, p, kind)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_low_degrees_in_closed_form(self, m):
        # constant closed p-forms are all constant p-forms, and no
        # constant p-form with p >= 1 is normal-null; normal-null fields
        # of degree 1 are the i_x of constant (p+1)-forms
        for p in range(m + 1):
            assert expected_dim(m, 0, p, "H-closed") == binom(m, p)
            assert expected_dim(m, 0, p, "H-normal-null") == int(p == 0)
            assert expected_dim(m, 1, p, "H-normal-null") == binom(m, p + 1)

    def test_weyl_dimensions(self):
        # coexact fields on S^2 are the rotated gradients of the degree-l
        # spherical harmonics; so(4) splits (l, 1) and (l, -1) alike; at
        # l = 0 no normal-null field exists, whatever q
        assert [expected_dim(3, l, 1, "H-normal-null") for l in range(5)] == \
            [0, 3, 5, 7, 9]
        assert [expected_dim(4, l, 1, "H-normal-null") for l in range(4)] == \
            [0, 6, 16, 30]
        assert expected_dim(4, 0, 2, "H-normal-null") == 0
        with pytest.raises(ValueError):
            expected_dim(3, 1, 1, "bogus")


class TestCodifferentialIsomorphism:
    @pytest.mark.parametrize("m,l,p", [(3, 0, 2), (3, 1, 1), (4, 0, 2)])
    def test_bijective_between_blocks(self, m, l, p, cache):
        src = cache.get(m, l, p, "H-closed")
        tgt = cache.get(m, l + 1, p - 1, "H-normal-null")
        assert len(src) == len(tgt) > 0
        dom = BallDomain(m, Fraction(1))
        coord_rows = []
        for b in src:
            img = boundary_delta_rep(b, dom)
            rhs = [integrate_sphere(jstar_density(img, t, dom), 1) for t in tgt]
            sol = solve(sphere_gram(tgt, m), [[v] for v in rhs])
            assert sol is not None
            coords = [row[0] for row in sol]
            # the image lies exactly in the target block
            recon = PolyForm.zero(m, p - 1)
            for c, t in zip(coords, tgt):
                recon = recon + t * c
            diff = img - recon
            assert integrate_sphere(jstar_density(diff, diff, dom), 1) == 0
            coord_rows.append(coords)
        assert rank(coord_rows) == len(src)


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


# the document the schema-2 cache wrote for (3, 1, 1, "H-normal-null"):
# the whole monomial frame, and every coordinate, zeros included, as a
# [numerator, denominator] pair
SCHEMA_2_DOCUMENT = (
    '{"schema": 2, "m": 3, "l": 1, "p": 1, "kind": "H-normal-null", "dim": 3, "frame": '
    '[[[1], [0, 0, 1]], [[1], [0, 1, 0]], [[1], [1, 0, 0]], [[2], [0, 0, 1]], '
    '[[2], [0, 1, 0]], [[2], [1, 0, 0]], [[3], [0, 0, 1]], [[3], [0, 1, 0]], '
    '[[3], [1, 0, 0]]], "vectors": [[["0", "1"], ["-1", "1"], ["0", "1"], ["0", "1"], '
    '["0", "1"], ["1", "1"], ["0", "1"], ["0", "1"], ["0", "1"]], [["0", "1"], '
    '["0", "1"], ["0", "1"], ["-1", "1"], ["0", "1"], ["0", "1"], ["0", "1"], '
    '["1", "1"], ["0", "1"]], [["-1", "1"], ["0", "1"], ["0", "1"], ["0", "1"], '
    '["0", "1"], ["0", "1"], ["0", "1"], ["0", "1"], ["1", "1"]]]}')


def sparse_entries(vec):
    """A document vector, [[frame index, coefficient], ...], as a dict."""
    return {i: Fraction(c) for i, c in vec}


def document_entries(vec: dict):
    """The document vector of {frame index: coefficient}."""
    return [[i, str(c)] for i, c in sorted(vec.items()) if c]


class TestCache:
    def test_disk_roundtrip(self, tmp_path):
        cache = BasisCache(str(tmp_path))
        a = cache.get(3, 1, 1, "H-normal-null")
        files = list(tmp_path.glob("basis_*.json"))
        assert files
        fresh = BasisCache(str(tmp_path))
        b = fresh.get(3, 1, 1, "H-normal-null")
        assert type(b) is tuple and a == b

    def test_document_format(self, tmp_path):
        cache = BasisCache(str(tmp_path))
        basis = cache.get(3, 2, 1, "H-normal-null")
        path = tmp_path / "basis_m3_l2_p1_H-normal-null.json"
        doc = json.loads(path.read_text())
        # the key and the vectors: no frame, no dimension
        assert doc.keys() == {"schema", "m", "l", "p", "kind", "vectors"}
        assert [doc[k] for k in ("schema", "m", "l", "p", "kind")] == \
            [3, 3, 2, 1, "H-normal-null"]
        assert len(doc["vectors"]) == len(basis) == expected_dim(3, 2, 1, "H-normal-null")
        frame = harmonic._monomial_frame(3, 2, 1)
        for vec, want in zip(doc["vectors"], harmonic._coordinates(frame, basis)):
            # nonzero coefficients only, by increasing frame index, each a
            # decimal Fraction string
            indices = [i for i, _ in vec]
            assert indices == sorted(indices) and all(i in range(len(frame)) for i in indices)
            assert all(type(c) is str and c == str(Fraction(c)) != "0" for _, c in vec)
            assert sparse_entries(vec) == want

    @pytest.mark.parametrize("damage", ["truncated", "too-deep", "zero-denominator",
                                        "index-out-of-range", "negative-index"])
    def test_malformed_file_is_rebuilt(self, tmp_path, damage):
        name = "basis_m2_l1_p1_H-normal-null.json"
        want = BasisCache(str(tmp_path / "ref")).get(2, 1, 1, "H-normal-null")
        good = (tmp_path / "ref" / name).read_text()
        doc = json.loads(good)
        assert doc["vectors"]
        i, c = doc["vectors"][0][0]
        frame_size = len(harmonic._monomial_frame(2, 1, 1))
        if damage == "truncated":
            bad = good[:50]
        elif damage == "too-deep":
            # nested past the parser's recursion limit
            bad = "[" * 200_000 + "]" * 200_000
        else:
            if damage == "zero-denominator":
                doc["vectors"][0][0] = [i, "1/0"]
            elif damage == "index-out-of-range":
                doc["vectors"][0][0] = [i + frame_size, c]
            else:
                # a Python alias of the same frame entry, still out of range
                doc["vectors"][0][0] = [i - frame_size, c]
            bad = json.dumps(doc)
        plant = tmp_path / "plant"
        plant.mkdir()
        (plant / name).write_text(bad)
        got = BasisCache(str(plant)).get(2, 1, 1, "H-normal-null")
        assert got == want
        assert (plant / name).read_text() == good

    def test_stale_and_mismatched_files_are_rebuilt(self, tmp_path, monkeypatch):
        ref_dir, plant = tmp_path / "ref", tmp_path / "plant"
        ref = BasisCache(str(ref_dir))
        want = {kind: ref.get(3, 1, 1, kind) for kind in KINDS}
        names = ["basis_m3_l1_p1_H-normal-null.json", "basis_m3_l1_p1_H-closed.json",
                 "basis_m3_l0_p2_H-closed.json"]
        assert sorted(f.name for f in ref_dir.iterdir()) == sorted(names)

        def doc(directory, name):
            return json.loads((directory / name).read_text())

        # the dense schema-2 document of the same basis, as the schema-2
        # cache wrote it: only its schema makes it stale
        dense = json.loads(SCHEMA_2_DOCUMENT)
        assert [{i: Fraction(int(num), int(den)) for i, (num, den) in enumerate(vec) if num != "0"}
                for vec in dense["vectors"]] == \
            harmonic._coordinates(harmonic._monomial_frame(3, 1, 1), want["H-normal-null"])
        # a valid schema-3 document filed under another kind's name
        mismatched = doc(ref_dir, names[0])
        # a valid schema-3 document that claims schema 2; the "H-closed"
        # basis that i_x maps onto "H-normal-null" at (3, 1, 1) reads it
        stale = doc(ref_dir, names[2])
        stale["schema"] = 2
        plant.mkdir()
        for name, planted in zip(names, (dense, mismatched, stale)):
            (plant / name).write_text(json.dumps(planted))

        cache = BasisCache(str(plant))
        for kind in KINDS:
            assert cache.get(3, 1, 1, kind) == want[kind]
        for name in names:
            assert doc(plant, name) == doc(ref_dir, name)
            assert doc(plant, name)["schema"] == 3

        # the rewritten files are trusted: a fresh cache loads, never computes
        def no_compute(*args):
            raise AssertionError("basis recomputed despite a valid file")
        monkeypatch.setattr(BasisCache, "_compute", no_compute)
        assert BasisCache(str(plant)).get(3, 1, 1, "H-normal-null") == want["H-normal-null"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_tampered_vector_entry_is_rebuilt(self, tmp_path, kind):
        ref_dir, plant = tmp_path / "ref", tmp_path / "plant"
        want = BasisCache(str(ref_dir)).get(3, 1, 2, kind)
        name = f"basis_m3_l1_p2_{kind}.json"
        computed = json.loads((ref_dir / name).read_text())
        # add 1 to the first vector's entry at x_j dx_I with j in I: every
        # kind rejects it, since delta(x_j dx_I) = -i_{e_j} dx_I != 0
        tampered = json.loads((ref_dir / name).read_text())
        k = next(i for i, (I, e) in enumerate(harmonic._monomial_frame(3, 1, 2))
                 if any(e[j - 1] for j in I))
        vec = sparse_entries(tampered["vectors"][0])
        vec[k] = vec.get(k, 0) + 1
        tampered["vectors"][0] = document_entries(vec)
        plant.mkdir()
        (plant / name).write_text(json.dumps(tampered))
        got = BasisCache(str(plant)).get(3, 1, 2, kind)
        assert got == want
        assert json.loads((plant / name).read_text()) == computed

    @pytest.mark.parametrize("kind", KINDS)
    def test_dependent_vector_is_rebuilt(self, tmp_path, kind):
        # one extra vector, the sum of the first two: every form still
        # satisfies the constraints of its kind, but the basis is dependent
        ref_dir, plant = tmp_path / "ref", tmp_path / "plant"
        want = BasisCache(str(ref_dir)).get(3, 1, 1, kind)
        name = f"basis_m3_l1_p1_{kind}.json"
        computed = json.loads((ref_dir / name).read_text())
        planted = json.loads((ref_dir / name).read_text())
        first, second = map(sparse_entries, planted["vectors"][:2])
        planted["vectors"].append(document_entries(
            {i: first.get(i, 0) + second.get(i, 0) for i in first.keys() | second.keys()}))
        plant.mkdir()
        (plant / name).write_text(json.dumps(planted))
        got = BasisCache(str(plant)).get(3, 1, 1, kind)
        assert got == want
        assert json.loads((plant / name).read_text()) == computed

    @pytest.mark.parametrize("kind", KINDS)
    def test_deleted_vector_is_rebuilt(self, tmp_path, kind):
        # the last vector dropped: what is left is still independent forms
        # of the kind, but too few to span it
        ref_dir, plant = tmp_path / "ref", tmp_path / "plant"
        want = BasisCache(str(ref_dir)).get(3, 2, 1, kind)
        name = f"basis_m3_l2_p1_{kind}.json"
        computed = json.loads((ref_dir / name).read_text())
        planted = json.loads((ref_dir / name).read_text())
        planted["vectors"].pop()
        plant.mkdir()
        (plant / name).write_text(json.dumps(planted))
        got = BasisCache(str(plant)).get(3, 2, 1, kind)
        assert got == want
        assert json.loads((plant / name).read_text()) == computed

    def test_miss_stores_only_what_it_needs(self, tmp_path):
        BasisCache(str(tmp_path)).get(3, 1, 1, "H-normal-null")
        # the normal-null fields are i_x of the closed ones a degree down
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "basis_m3_l0_p2_H-closed.json", "basis_m3_l1_p1_H-normal-null.json"]

    def test_wrong_computed_dimension_raises(self, monkeypatch):
        monkeypatch.setattr(harmonic, "expected_dim", lambda m, l, p, kind: 0)
        with pytest.raises(AssertionError, match=r"\(3, 1, 1, H-closed\) has 5 vectors, "
                                                 "expected 0"):
            BasisCache().get(3, 1, 1, "H-closed")

    def test_reduced_form_decides_independence(self):
        for vectors, reduced in REDUCED_FORM_CASES:
            assert harmonic._in_reduced_form(sparse(vectors)) == reduced, vectors

    def test_form_outside_the_frame_is_not_reduced(self):
        cache = BasisCache()
        basis = list(cache.get(3, 1, 1, "H-normal-null"))
        basis[2] = cache.get(3, 2, 1, "H-normal-null")[0]
        assert not harmonic.is_reduced_basis(3, 1, 1, basis)

    def test_memoisation(self):
        cache = BasisCache()
        a = cache.get(3, 1, 1, "H-normal-null")
        assert cache.get(3, 1, 1, "H-normal-null") is a

    def test_unknown_kind_rejected(self):
        # "H" and "P" are not cached: no program path reads them
        for kind in ("bogus", "H", "P"):
            with pytest.raises(ValueError):
                BasisCache().get(3, 1, 1, kind)


def test_gram_matrices_have_full_rank(cache):
    for m, l, p in ((3, 1, 1), (3, 2, 1), (4, 1, 2)):
        basis = cache.get(m, l, p, "H-normal-null")
        assert rank(sphere_gram(basis, m)) == len(basis)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_computed_bases_are_in_reduced_form(cache, m):
    # the invariant that makes each spectral trial block's G_b positive
    # definite, and that a loaded basis must show
    for l in range(4):
        for p in range(m + 1):
            for kind in KINDS:
                basis = cache.get(m, l, p, kind)
                assert harmonic.is_reduced_basis(m, l, p, basis), (m, l, p, kind)


def test_reduced_form_vectors_have_full_rank(cache):
    # the theorem behind the invariant, on the hand-made cases and on the
    # computed bases up to m = 4 (dense elimination grows fast beyond)
    inputs = [sparse(vectors) for vectors, _ in REDUCED_FORM_CASES]
    inputs += [harmonic._coordinates(harmonic._monomial_frame(m, l, p),
                                     cache.get(m, l, p, kind))
               for m in range(2, 5) for l in range(4) for p in range(m + 1) for kind in KINDS]
    checked = 0
    for vectors in inputs:
        if harmonic._in_reduced_form(vectors):
            columns = sorted({i for vec in vectors for i in vec})
            assert rank([[vec.get(i, 0) for i in columns] for vec in vectors]) == len(vectors)
            checked += 1
    # every input but the hand-made ones out of reduced form
    assert checked == len(inputs) - sum(not reduced for _, reduced in REDUCED_FORM_CASES)
