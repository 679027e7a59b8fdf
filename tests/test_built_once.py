"""A datum's numbers are built once.

Integral values parse to ints and a Fraction is kept, not copied; facets
compare for duplicates by an integer key; the deformation is read in
integers off one elimination; validation computes a datum's cone normals
once and the datum keeps them, and a resliced datum reuses them; a zero
kernel takes no Hermite form.
"""

import importlib
import io
import json
from fractions import Fraction
from itertools import product
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from test_integer_forms import KINDS, fractional, generated
from generators import perturbed, positive_reeb
from toricontact import cli, documents, geometry, lattice, polytope, reduction
from toricontact.classify import perturb_reeb, validate_datum
from toricontact.lattice import kernel_lattice_basis, rank
from toricontact.polytope import LabeledFacet, LabeledPolytope
from toricontact.reduction import SpherePresentation, build_beta, deformation_vector
from toricontact.spheres import weighted_simplex

F = Fraction


class TestParse:
    @pytest.mark.parametrize("value", [3, "3", "-0", -7, "-12", 0])
    def test_integral_values_parse_to_ints(self, value):
        got = documents._rational_from(value, "x")
        assert type(got) is int and got == int(value)

    @pytest.mark.parametrize("text, value", [("6/4", F(3, 2)), ("-1/3", F(-1, 3)), ("4/2", F(2))])
    def test_p_over_q_parses_to_a_fraction_in_lowest_terms(self, text, value):
        got = documents._rational_from(text, "x")
        assert type(got) is Fraction and got == value
        assert gcd(got.numerator, got.denominator) == 1

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "x must be an integer or a rational string, got True"),
            (1.5, "x must be an integer or a rational string, got 1.5"),
            (None, "x must be an integer or a rational string, got None"),
            ("1.5", "bad rational '1.5' for x: not of the form p/q or p"),
            (" 1", "bad rational ' 1' for x: not of the form p/q or p"),
            ("1/-2", "bad rational '1/-2' for x: not of the form p/q or p"),
            ("1/0", "bad rational '1/0' for x: Fraction(1, 0)"),
        ],
    )
    def test_refusals_are_unchanged(self, value, message):
        with pytest.raises(ValueError) as exc:
            documents._rational_from(value, "x")
        assert str(exc.value) == message

    def test_documents_hold_ints_and_fractions_where_they_did(self):
        d = documents.parse_datum(
            '{"ambient_dim": 2, "facets": [{"normal": [-1, 0], "offset": "0"},'
            ' {"normal": [0, -1], "label": 2, "offset": 0}], "reeb": ["1", 2]}'
        )
        assert d.reeb == (1, 2) and all(type(x) is int for x in d.reeb)
        assert all(type(f.offset) is Fraction and f.offset == 0 for f in d.facets)
        p = documents.parse_presentation(
            '{"N": 2, "beta": [[1, 0], [0, 1]], "weights": [], "deformation": ["1", "6/4"]}'
        )
        assert p.deformation == (1, F(3, 2)) and all(type(x) is Fraction for x in p.deformation)


class TestFractionsKept:
    def test_a_facet_keeps_a_fraction_offset(self):
        q = F(3, 4)
        assert LabeledFacet((1, 0), 2, q).offset is q
        for offset in (2, "3/4", F(3, 4)):
            got = LabeledFacet((1, 0), 2, offset).offset
            assert type(got) is Fraction and got == F(offset)

    def test_a_presentation_keeps_its_fraction_entries(self):
        a = [F(1, 2), 2, F(3), "5/2"]
        beta, weights = [[1, 0, 1, 0], [0, 1, 0, 1]], [[1, 0, -1, 0], [0, 1, 0, -1]]
        pres = SpherePresentation(4, beta, weights, a)
        assert pres.deformation[0] is a[0] and pres.deformation[2] is a[2]
        assert pres.deformation == (F(1, 2), 2, 3, F(5, 2))
        assert all(type(x) is Fraction for x in pres.deformation)


def _refusal(facets):
    """The duplicate message ``LabeledPolytope`` gives by the Fraction key."""
    seen = {}
    for i, f in enumerate(facets):
        key = oracles.fraction_facet_key(f)
        if key in seen:
            return f"duplicate facet: indices {seen[key]} and {i}"
        seen[key] = i
    return None


OFFSETS = st.tuples(st.integers(-4, 4), st.integers(1, 4), st.booleans()).map(
    # a non-reduced "p/q" string, a Fraction, or an int when q is 1
    lambda t: t[0] if t[1] == 1 else (f"{t[0] * 2}/{t[1] * 2}" if t[2] else F(t[0], t[1]))
)


class TestDuplicateFacetKey:
    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(st.sampled_from([(1, 0), (0, -1), (1, -1)]), st.integers(1, 4), OFFSETS),
            min_size=2,
            max_size=6,
        )
    )
    @example([((1, 0), 2, 2), ((1, 0), 1, 1)])
    @example([((1, 0), 3, F(-3, 2)), ((0, -1), 1, 0), ((1, 0), 1, F(-1, 2))])
    @example([((1, 0), 2, 0), ((1, 0), 3, "0/6")])
    @example([((1, 0), 2, F(1, 2)), ((1, 0), 1, F(1, 2))])
    def test_refuses_exactly_what_the_fraction_key_refuses(self, specs):
        facets = [LabeledFacet(n, m, q) for n, m, q in specs]
        expected = _refusal(facets)
        if expected is None:
            assert LabeledPolytope(2, facets).facets == tuple(facets)
        else:
            with pytest.raises(ValueError) as exc:
                LabeledPolytope(2, facets)
            assert str(exc.value) == expected


def _spheres():
    return [w for n in (2, 3, 4) for w in product(range(1, 5), repeat=n) if gcd(*w) == 1]


class TestDeformationInIntegers:
    @settings(deadline=None, max_examples=150)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(KINDS),
        st.sampled_from(["walked", "resliced", "fractional"]),
    )
    def test_equals_the_solve_general_route(self, rng, kind, how):
        d = generated(rng, kind)
        if how == "resliced":
            d = perturbed(rng, d)
        elif how == "fractional":
            d = fractional(rng, d)
        try:
            beta = build_beta(d)
        except ValueError:  # a fractional reeb past a nonzero offset: no integral beta
            assert how == "fractional"
            return
        a = deformation_vector(d, beta)
        assert a == oracles.solve_general_deformation(d, beta)
        assert all(type(x) is Fraction for x in a)

    def test_weighted_spheres(self):
        for w in _spheres():
            d = weighted_simplex(w)
            beta = build_beta(d)
            assert deformation_vector(d, beta) == oracles.solve_general_deformation(d, beta)

    def test_weighted_spheres_at_fraction_reebs(self):
        # a sphere's cone normals are m_i e_i for every reeb, so beta is
        # integral while reeb and every vertex height are Fractions
        for w in _spheres()[:40]:
            poly = weighted_simplex(w).polytope
            reeb = [F(2 * x + 1, 2 + i % 3) for i, x in enumerate(w)]
            d = validate_datum(poly, reeb, "irrational")
            beta = build_beta(d)
            a = deformation_vector(d, beta)
            assert a == oracles.solve_general_deformation(d, beta)
            assert a == oracles.maximin_deformation(d, beta)

    def test_no_rational_solve_runs(self, monkeypatch):
        def refused(*args):
            raise AssertionError("solve_general ran")

        monkeypatch.setattr(geometry, "solve_general", refused)
        for d in (weighted_simplex((2, 3, 5)), generated(Random(3), "cube")):
            reduction.synthesize(d)


def _counted_cone_normals(monkeypatch):
    """Each binding of ``polytope.cone_normals`` (validation's in
    ``classify`` and ``cone_over``'s in ``polytope``) replaced by a spy;
    returns the list of the normals each call returned."""
    results = []
    real = polytope.cone_normals

    def counted(*args):
        results.append(real(*args))
        return results[-1]

    for module in (importlib.import_module("toricontact.classify"), polytope):
        monkeypatch.setattr(module, "cone_normals", counted)
    return results


class TestConeNormalsOnce:
    def test_validation_and_the_datum_share_one_computation(self, monkeypatch):
        results = _counted_cone_normals(monkeypatch)
        d = weighted_simplex((2, 3, 5))
        assert len(results) == 1 and d.cone_normals is results[0]
        reduction.verify_presentation(reduction.synthesize(d), d)
        assert len(results) == 1

    @settings(deadline=None, max_examples=60)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS))
    def test_a_resliced_datum_keeps_the_datum_normals(self, rng, kind):
        # with zero offsets the cone normals are 0 * reeb' + m_i q_i = u_i
        # at every reeb', so perturb_reeb computes none and validation of
        # its polytope at reeb' finds the same datum and the same normals
        d = generated(rng, kind)
        reeb = positive_reeb(rng, d)
        with pytest.MonkeyPatch.context() as monkeypatch:
            results = _counted_cone_normals(monkeypatch)
            moved = perturb_reeb(d, reeb)
            assert results == []
        again = validate_datum(moved.polytope, reeb)
        assert moved == again
        assert moved.cone_normals == again.cone_normals == d.cone_normals

    @pytest.mark.parametrize("command", ["validate", "classify", "cone", "reduce"])
    def test_one_computation_per_command(self, monkeypatch, capsys, command):
        # the cone command builds the cone off the datum's normals
        text = json.dumps(documents.datum_to_document(weighted_simplex((2, 3, 5))))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        results = _counted_cone_normals(monkeypatch)
        assert cli.main([command]) == 0
        assert len(results) == 1
        capsys.readouterr()

    def test_kept_per_characteristic_vector(self):
        poly = weighted_simplex((1, 2)).polytope
        q = LabeledPolytope(2, [LabeledFacet(f.normal, f.label, 1) for f in poly.facets])
        for reeb in ((1, 2), (3, 1), (1, 2), (F(1, 2), 1)):
            mode = "irrational" if any(type(x) is Fraction for x in reeb) else "rational"
            d = validate_datum(q, reeb, mode)
            assert d.cone_normals == polytope.cone_normals(q, reeb)


def _hermite_calls(monkeypatch):
    calls = []
    real = lattice._hermite

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(lattice, "_hermite", counted)
    return calls


class TestZeroKernel:
    @pytest.mark.parametrize(
        "mat",
        [
            [[2, 1], [1, 3]],
            [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
            [[1, 0], [0, 1], [1, 1]],
            [[0, 2], [3, 0], [0, 0]],
        ],
    )
    def test_full_column_rank_takes_no_hermite_form(self, monkeypatch, mat):
        calls = _hermite_calls(monkeypatch)
        assert kernel_lattice_basis(mat) == []
        assert calls == []

    def test_a_singular_square_matrix_still_gets_its_kernel(self, monkeypatch):
        calls = _hermite_calls(monkeypatch)
        assert kernel_lattice_basis([[1, 2], [2, 4]]) == [[2, -1]]
        assert calls == [4]
        with pytest.raises(ValueError, match="beta not surjective"):
            reduction.kernel_torus_weights([[1, 2], [2, 4]])

    @settings(max_examples=200)
    @given(
        st.integers(1, 4).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                min_size=cols,
                max_size=cols + 2,
            )
        )
    )
    def test_a_hermite_form_runs_exactly_when_the_kernel_is_not_zero(self, mat):
        calls = []
        real = lattice._hermite

        def counted(*args):
            calls.append(1)
            return real(*args)

        lattice._hermite = counted
        try:
            basis = kernel_lattice_basis(mat)
        finally:
            lattice._hermite = real
        cols = len(mat[0])
        assert len(basis) == cols - rank(mat)
        assert bool(calls) == bool(basis)

    def test_a_sphere_presentation_takes_no_hermite_form(self, monkeypatch):
        d = weighted_simplex((2, 3, 5, 7))
        calls = _hermite_calls(monkeypatch)
        pres = reduction.synthesize(d)
        assert pres.weights == () and calls == []
