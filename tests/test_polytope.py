import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricontact import geometry
from toricontact.classify import validate_datum
from toricontact.polytope import (
    LabeledFacet,
    LabeledPolytope,
    MomentCone,
    cone_normals,
    cone_over,
    integral_cone_normals,
    slice_cone,
    vertices,
)

from oracles import contains, faces_containing, in_plane_vertices, pointed_cone_rays

F = Fraction


def orthant_facets(dim, labels=None):
    labels = labels or [1] * dim
    return [
        LabeledFacet(tuple(-int(i == j) for j in range(dim)), labels[i])
        for i in range(dim)
    ]


def standard_simplex(dim=3):
    return LabeledPolytope(dim, orthant_facets(dim))


def weighted_segment():
    return LabeledPolytope(2, orthant_facets(2, labels=[2, 1]))


def box(n, top, interleaved=False):
    """The box 0 <= x_i <= top at reeb e_n (empty for top < 0), facet i
    labeled 1 + i mod 3, the upper facets after the lower ones or
    interleaved with them."""
    e = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    lower = [tuple(-x for x in e[i]) for i in range(n)]
    upper = [tuple(a - top * b for a, b in zip(e[i], e[n])) for i in range(n)]
    normals = [*sum(zip(lower, upper), ())] if interleaved else lower + upper
    facets = tuple(LabeledFacet(p, 1 + i % 3) for i, p in enumerate(normals))
    return LabeledPolytope(n + 1, facets), tuple(e[n])


def cone_rows(cone):
    """The rows A of the moment cone written as {y : A y <= 0}."""
    return [[-x for x in q] for q, _ in cone.normals]


def count_calls(monkeypatch, *names):
    """A Counter of the calls to these ``geometry`` functions."""
    calls = Counter()
    for name in names:
        real = getattr(geometry, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(geometry, name, counted)
    return calls


class TestFacetValidation:
    def test_normal_must_be_primitive(self):
        with pytest.raises(ValueError, match="primitive"):
            LabeledFacet((2, 4), 1)

    def test_label_positive(self):
        with pytest.raises(ValueError, match="label"):
            LabeledFacet((1, 0), 0)

    @pytest.mark.parametrize("label", [1.5, True, "2"])
    def test_label_must_be_an_int(self, label):
        # a float label used to build float functionals, True to write
        # "label": true, and "2" to raise TypeError from the comparison
        with pytest.raises(ValueError, match="^label must be a positive integer$"):
            LabeledFacet((1, 0), label)

    def test_label_checked_before_primitivity(self):
        # the fix-it for a non-primitive normal must not suggest a label
        # that is itself refused
        with pytest.raises(ValueError, match="^label must be a positive integer$"):
            LabeledFacet((2, 4), 0)
        with pytest.raises(ValueError) as err:
            LabeledFacet((2, 4), 1)
        assert str(err.value) == "normal not primitive; write label 2, normal (1, 2)"

    def test_duplicate_facets_rejected(self):
        # same normal, proportional constraint: (p, m=1, l=1) vs (p, m=2, l=2)
        with pytest.raises(ValueError, match="duplicate"):
            LabeledPolytope(
                2,
                (
                    LabeledFacet((1, 0), 1, F(1)),
                    LabeledFacet((1, 0), 2, F(2)),
                    LabeledFacet((-1, 0), 1),
                ),
            )


class TestVertices:
    def test_standard_two_simplex(self):
        verts = vertices(standard_simplex(), (1, 1, 1))
        coords = [v.coords for v in verts]
        assert coords == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        for v in verts:
            assert len(v.active) == 2

    def test_weighted_segment(self):
        verts = vertices(weighted_segment(), (1, 2))
        assert [v.coords for v in verts] == [(0, F(1, 2)), (1, 0)]

    def test_infeasible(self):
        poly = LabeledPolytope(
            1, (LabeledFacet((1,), 1, F(-1)), LabeledFacet((-1,), 1, F(0)))
        )
        with pytest.raises(ValueError, match="empty polytope"):
            vertices(poly, (1,))

    def test_unbounded(self):
        # only lower bounds on a 2d slice: unbounded
        poly = LabeledPolytope(
            3, (LabeledFacet((-1, 0, 0)), LabeledFacet((0, -1, 0)), LabeledFacet((0, 0, -1)))
        )
        with pytest.raises(ValueError, match="unbounded"):
            vertices(poly, (0, 0, 1))

    def test_every_vertex_recontained(self):
        poly = standard_simplex(4)
        for v in vertices(poly, (1, 2, 3, 4)):
            assert contains(poly, (1, 2, 3, 4), v.coords)

    def test_six_cube_takes_two_eliminations_and_a_pivot_per_vertex(self, monkeypatch):
        # the null space and the first dictionary are the only eliminations,
        # and each of the other 63 vertices is reached by one pivot, whatever
        # the order of the facets
        n = 6
        calls = count_calls(monkeypatch, "echelon", "_pivot")
        for interleaved in (False, True):
            calls.clear()
            assert len(vertices(*box(n, 1, interleaved))) == 2**n
            assert calls == {"echelon": 2, "_pivot": 2**n - 1}

    def test_interleaved_labels_rebuild_no_more_columns(self, monkeypatch):
        # opposite facets have different labels when interleaved and equal
        # ones in blocked order; the walk divides each cone normal by its
        # gcd, so the labels do not change which columns a pivot rebuilds
        rebuilt = Counter()
        real = geometry._pivot

        def counted(dictionary, i, r):
            new = real(dictionary, i, r)
            rebuilt[interleaved] += sum(a is not b for a, b in zip(new[0], dictionary[0]))
            return new

        monkeypatch.setattr(geometry, "_pivot", counted)
        for interleaved in (False, True):
            assert len(vertices(*box(6, 1, interleaved))) == 2**6
        assert 0 < rebuilt[True] <= rebuilt[False]

    @pytest.mark.parametrize("n", range(4, 13))
    def test_empty_cube_costs_a_few_phase_one_pivots(self, monkeypatch, n):
        # the first basis is the vertex x = 0 of the lower facets; the first
        # row it violates, x_0 <= -1, and x_0 >= 0 already certify emptiness,
        # with no pivot: the null space and the first dictionary are the
        # only eliminations
        calls = count_calls(monkeypatch, "echelon", "_pivot")
        with pytest.raises(ValueError, match="empty polytope"):
            vertices(*box(n, -1))
        assert calls == {"echelon": 2}


@st.composite
def labeled_polytopes(draw):
    """Small labeled polytopes, most of them empty, unbounded, lower
    dimensional or not simple, with an integral or half-integral reeb vector."""
    ambient = draw(st.integers(1, 4))
    normal = st.lists(st.integers(-2, 2), min_size=ambient, max_size=ambient).filter(
        lambda v: gcd(*v) == 1
    )
    facets = {}
    for _ in range(draw(st.integers(ambient, ambient + 3))):
        offset = F(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        f = LabeledFacet(tuple(draw(normal)), draw(st.integers(1, 2)), offset)
        facets.setdefault((f.normal, f.offset / f.label), f)
    assume(len(facets) >= ambient)
    den = draw(st.integers(1, 2))
    entries = draw(st.lists(st.integers(-3, 3), min_size=ambient, max_size=ambient))
    return LabeledPolytope(ambient, tuple(facets.values())), [F(x, den) for x in entries]


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


class TestVerticesAgainstInPlaneOracle:
    """Rays of the cone over the slice against enumeration in a frame of
    the characteristic hyperplane."""

    @settings(deadline=None, max_examples=250)
    @given(labeled_polytopes())
    def test_same_vertices_and_active_sets_or_error(self, case):
        poly, reeb = case
        got = _outcome(lambda: [(v.coords, v.active) for v in vertices(poly, reeb)])
        want = _outcome(
            lambda: in_plane_vertices(
                [f.functional for f in poly.facets], [f.offset for f in poly.facets], reeb
            )
        )
        assert got == want


class TestIsSimple:
    # validate_datum refuses a polytope with a vertex on more than dim facets
    def test_simplex(self):
        d = validate_datum(standard_simplex(), (1, 1, 1))
        assert [len(v.active) for v in d.vertices] == [2, 2, 2]

    def test_segment(self):
        d = validate_datum(weighted_segment(), (1, 2))
        assert [len(v.active) for v in d.vertices] == [1, 1]

    def test_pyramid_apex_not_simple(self):
        # square pyramid sliced in ambient 4: apex has 4 active facets, n = 3
        facets = (
            LabeledFacet((-1, 0, 1, 0), 1, F(1)),
            LabeledFacet((1, 0, 1, 0), 1, F(1)),
            LabeledFacet((0, -1, 1, 0), 1, F(1)),
            LabeledFacet((0, 1, 1, 0), 1, F(1)),
            LabeledFacet((0, 0, -1, 0)),
        )
        poly = LabeledPolytope(4, facets)
        verts = vertices(poly, (0, 0, 0, 1))
        apex = [v for v in verts if len(v.active) == 4]
        assert apex and apex[0].coords == (0, 0, 1, 1)
        with pytest.raises(ValueError, match="^polytope not simple$"):
            validate_datum(poly, (0, 0, 0, 1))


class TestIsRational:
    # rational mode needs an integral characteristic vector
    def test_integer_reeb(self):
        assert validate_datum(standard_simplex(), (1, 1, 1)).mode == "rational"
        assert validate_datum(weighted_segment(), (2, 4)).mode == "rational"

    def test_fractional_reeb(self):
        with pytest.raises(ValueError, match="^characteristic vector not integral$"):
            validate_datum(weighted_segment(), (1, F(3, 2)))
        d = validate_datum(weighted_segment(), (1, F(3, 2)), mode="irrational")
        assert d.mode == "irrational"


class TestFacesContaining:
    def test_interior(self):
        bary = (F(1, 3), F(1, 3), F(1, 3))
        assert faces_containing(standard_simplex(), (1, 1, 1), bary) == frozenset()

    def test_vertex(self):
        active = faces_containing(standard_simplex(), (1, 1, 1), (1, 0, 0))
        assert active == frozenset({1, 2})

    def test_edge_midpoint(self):
        mid = (F(1, 2), F(1, 2), 0)
        assert faces_containing(standard_simplex(), (1, 1, 1), mid) == frozenset({2})

    def test_outside_point(self):
        with pytest.raises(ValueError, match="not in polytope"):
            faces_containing(standard_simplex(), (1, 1, 1), (2, -1, 0))


class TestContains:
    def test_barycenter(self):
        assert contains(standard_simplex(), (1, 1, 1), (F(1, 3), F(1, 3), F(1, 3)))

    def test_outside(self):
        assert not contains(standard_simplex(), (1, 1, 1), (2, -1, 0))

    def test_weighted_vertex(self):
        assert contains(weighted_segment(), (1, 2), (0, F(1, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            contains(standard_simplex(), (1, 1, 1), (1, 0))

    def test_characteristic_vector_dimension_mismatch(self):
        # the dot product zips, so an unchecked longer vector is truncated and
        # the square's centre at reeb (0, 0, 1, 99) would read as contained
        square, _ = box(2, 1)
        centre = (F(1, 2), F(1, 2), 1)
        assert contains(square, (0, 0, 1), centre)
        for reeb in ((0, 0, 1, 99), (0, 1)):
            for call in (contains, faces_containing):
                with pytest.raises(ValueError, match="^characteristic vector has wrong dimension$"):
                    call(square, reeb, centre)


class TestConeNormals:
    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_integer_form_is_the_fraction_formula(self, data):
        dim = data.draw(st.integers(2, 4))
        entry = st.integers(-3, 3)
        rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
        facets = []
        for _ in range(data.draw(st.integers(dim, dim + 3))):
            normal = data.draw(st.lists(entry, min_size=dim, max_size=dim))
            assume(any(normal) and gcd(*normal) == 1)
            facets.append(LabeledFacet(tuple(normal), data.draw(st.integers(1, 3)), data.draw(rational)))
        # an integral or an irrational (rational, non-integral) reeb
        reeb = data.draw(st.lists(st.one_of(entry, rational), min_size=dim, max_size=dim))
        try:
            poly = LabeledPolytope(dim, facets)
        except ValueError:
            assume(False)
        expected = [
            [f.offset * F(r) - f.label * p for r, p in zip(reeb, f.normal)]
            for f in facets
        ]
        got = cone_normals(poly, reeb)
        assert got == expected
        if all(F(r).denominator == 1 for r in reeb):
            # integral entries stay ints, as beta and the vertex rows need
            assert all(type(x) is int for u in got for x in u if F(x).denominator == 1)

    def test_reeb_entries_read_as_fraction_reads_them(self):
        # an int is kept as it is, any other entry goes through Fraction,
        # whose own error names an entry it cannot read
        poly = LabeledPolytope(
            3, (LabeledFacet((-1, 0, 0)), LabeledFacet((0, -1, 0)), LabeledFacet((1, 1, -1), 1, 1))
        )
        mixed = cone_normals(poly, (True, F(4, 2), "3/2"))
        assert mixed == cone_normals(poly, (1, 2, F(3, 2)))
        assert mixed == [[1, 0, 0], [0, 1, 0], [0, 1, F(5, 2)]]
        assert [type(x) for x in mixed[2]] == [int, int, Fraction]
        for bad in ("x", None):
            with pytest.raises((ValueError, TypeError)) as reference:
                F(bad)
            with pytest.raises(type(reference.value)) as exc:
                cone_normals(poly, (1, bad, 1))
            assert str(exc.value) == str(reference.value)

    def test_translated_simplex(self):
        facets = (
            LabeledFacet((-1, 0), 1, F(1, 2)),
            LabeledFacet((0, -1), 2, F(3)),
        )
        normals = cone_normals(LabeledPolytope(2, facets), (2, 1))
        assert normals == [[2, F(1, 2)], [6, 5]]

    def test_integral_cone_normals_names_the_first_non_integral_facet(self):
        got = integral_cone_normals([[F(4, 2), 0], [-1, 3]])
        assert got == [[2, 0], [-1, 3]]
        assert all(type(x) is int for u in got for x in u)
        with pytest.raises(ValueError, match=r"not integral: facet 1 cones to \(1/2, 5\)"):
            integral_cone_normals([[2, 0], [F(1, 2), 5], [F(1, 3), 1]])


class TestConeOver:
    def test_standard_simplex_gives_orthant(self):
        cone = cone_over(standard_simplex(), (1, 1, 1))
        assert cone.normals == (((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1))

    def test_weighted_segment_gives_quadrant(self):
        cone = cone_over(weighted_segment(), (1, 2))
        assert cone.normals == (((1, 0), 2), ((0, 1), 1))

    def test_translated_simplex(self):
        facets = tuple(
            LabeledFacet(tuple(-int(i == j) for j in range(3)), 1, F(1))
            for i in range(3)
        )
        cone = cone_over(LabeledPolytope(3, facets), (1, 1, 1))
        # lambda*reeb - m*p = (1,1,1) + e_i
        assert cone.normals == (((2, 1, 1), 1), ((1, 2, 1), 1), ((1, 1, 2), 1))

    def test_degenerate_facet(self):
        facets = (
            LabeledFacet((1, 1), 1, F(1)),  # equals reeb: cones to zero
            LabeledFacet((-1, 0), 1),
            LabeledFacet((0, -1), 1),
        )
        with pytest.raises(ValueError, match="degenerate facet"):
            cone_over(LabeledPolytope(2, facets), (1, 1))

    def test_nonintegral_decomposition(self):
        facets = (
            LabeledFacet((1, 0), 1, F(1, 2)),
            LabeledFacet((-1, 0), 1),
            LabeledFacet((0, -1), 1),
        )
        with pytest.raises(ValueError, match="not integral"):
            cone_over(LabeledPolytope(2, facets), (1, 1))


class TestSliceCone:
    def test_orthant_to_simplex(self):
        orthant = MomentCone(3, (((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)))
        poly = slice_cone(orthant, (1, 1, 1))
        assert [v.coords for v in vertices(poly, (1, 1, 1))] == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_quadrant_weighted(self):
        quadrant = MomentCone(2, (((1, 0), 1), ((0, 1), 1)))
        poly = slice_cone(quadrant, (1, 2))
        assert [v.coords for v in vertices(poly, (1, 2))] == [(0, F(1, 2)), (1, 0)]

    def test_rational_reeb_positivity_is_exact(self):
        quadrant = MomentCone(2, (((1, 0), 1), ((0, 1), 1)))
        poly = slice_cone(quadrant, (1, F(1, 2)))
        assert [v.coords for v in vertices(poly, (1, F(1, 2)))] == [(0, 2), (1, 0)]

    def test_positivity_violation(self):
        quadrant = MomentCone(2, (((1, 0), 1), ((0, 1), 1)))
        with pytest.raises(ValueError, match="interior of dual cone"):
            slice_cone(quadrant, (1, -1))

    def test_quadrant_sliced_through_its_rays(self):
        quadrant = MomentCone(2, (((1, 0), 1), ((0, 1), 1)))
        poly = slice_cone(quadrant, (1, 1))
        assert [v.coords for v in vertices(poly, (1, 1))] == [(0, 1), (1, 0)]

    def test_cone_over_a_square(self):
        # x, y >= 0, z >= x, z >= y: the slice z = 1 is the unit square
        cone = MomentCone(
            3, (((1, 0, 0), 1), ((0, 1, 0), 1), ((-1, 0, 1), 1), ((0, -1, 1), 1))
        )
        poly = slice_cone(cone, (0, 0, 1))
        assert [v.coords for v in vertices(poly, (0, 0, 1))] == [
            (0, 0, 1),
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 1),
        ]

    def test_half_plane_rejected(self):
        # x >= 0 contains the line of (0, 1), on which no reeb is positive
        for reeb in [(1, 0), (1, 1), (1, -1), (0, 1)]:
            with pytest.raises(ValueError, match="interior of dual cone"):
                slice_cone(MomentCone(2, (((1, 0), 1),)), reeb)

    @pytest.mark.parametrize(
        "normals",
        [
            ((0, 1), (0, -1)),  # the line of (1, 0): its slice is one point
            ((1, 0), (-1, 0), (0, 1), (0, -1)),  # {0}: its slice is empty
        ],
    )
    def test_line_and_zero_cone_rejected(self, normals):
        cone = MomentCone(2, tuple((q, 1) for q in normals))
        with pytest.raises(ValueError, match="interior of dual cone"):
            slice_cone(cone, (1, 0))

    def test_ray_with_positive_reeb_accepted(self):
        # the ray of (1, 0); its slice at (1, 0) is one point
        cone = MomentCone(2, (((0, 1), 1), ((0, -1), 1), ((1, 0), 1)))
        assert slice_cone(cone, (1, 0)).facets[2].normal == (-1, 0)


class TestRoundTripAndHull:
    def test_cone_slice_fixed_point(self):
        for poly, reeb in [
            (standard_simplex(), (1, 1, 1)),
            (weighted_segment(), (1, 2)),
            (standard_simplex(4), (1, 1, 1, 1)),
        ]:
            back = slice_cone(cone_over(poly, reeb), reeb)
            assert [v.coords for v in vertices(back, reeb)] == [
                v.coords for v in vertices(poly, reeb)
            ]

    def test_translated_data_same_vertex_set_after_round_trip(self):
        facets = tuple(
            LabeledFacet(tuple(-int(i == j) for j in range(3)), 1, F(1))
            for i in range(3)
        )
        poly = LabeledPolytope(3, facets)
        back = slice_cone(cone_over(poly, (1, 1, 1)), (1, 1, 1))
        assert [v.coords for v in vertices(back, (1, 1, 1))] == [
            v.coords for v in vertices(poly, (1, 1, 1))
        ]

    def test_strong_convexity_tracks_compactness(self):
        # compact slices give strongly convex cones
        for poly, reeb in [
            (standard_simplex(), (1, 1, 1)),
            (weighted_segment(), (1, 2)),
        ]:
            a_rows = cone_rows(cone_over(poly, reeb))
            assert geometry.null_space(a_rows, len(reeb)) == []
            rays = pointed_cone_rays(a_rows, len(reeb))
            assert len(rays) == len(reeb)
            assert all(sum(a * b for a, b in zip(ray, reeb)) > 0 for ray, _ in rays)
        # a slab (unbounded slice) cones to a half plane: lineality appears
        slab = LabeledPolytope(
            2, (LabeledFacet((-1, 0)), LabeledFacet((1, 0), 1, F(2)))
        )
        assert geometry.null_space(cone_rows(cone_over(slab, (1, 0))), 2)

    def test_convex_hull_property(self):
        rng = random.Random(77)
        poly, reeb = standard_simplex(3), (1, 2, 3)
        verts = [v.coords for v in vertices(poly, reeb)]
        for _ in range(50):
            weights = [F(rng.randrange(0, 10)) for _ in verts]
            total = sum(weights)
            if total == 0:
                continue
            point = [
                sum(w * v[k] for w, v in zip(weights, verts)) / total
                for k in range(3)
            ]
            assert contains(poly, reeb, point)
