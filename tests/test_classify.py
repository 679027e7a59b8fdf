import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricontact import geometry, lattice
from toricontact.classify import (
    _facet_generators,
    _reeb_projection,
    classify,
    holonomy,
    perturb_reeb,
    validate_datum,
)
from toricontact.lattice import (
    FiniteAbelianGroup,
    matvec,
    primitive,
    quotient_group,
    saturate,
    smith_diagonal,
    transpose,
)
from toricontact.polytope import (
    LabeledFacet,
    LabeledPolytope,
    cone_normals,
    cone_over,
    slice_cone,
)
from toricontact.reduction import synthesize, verify_presentation
from toricontact.spheres import weighted_simplex

from generators import (
    KINDS,
    change_basis,
    cube_or_simplex,
    degenerate,
    generated,
    labeled_cube,
    parabola,
    perturbed,
    positive_reeb,
    random_datum,
    random_sphere,
    random_unimodular,
    simplex_product,
    walked_vertices,
    weighted_simplex_product,
)
import oracles
from oracles import cofactor_det, faces_containing, fraction_rref, reeb_orbit_order
from test_reduction import hexagon_datum

F = Fraction
# the package namespace's ``classify`` is the function, not the module
classify_module = importlib.import_module("toricontact.classify")


def orthant_polytope(dim, labels=None):
    labels = labels or [1] * dim
    return LabeledPolytope(
        dim,
        tuple(
            LabeledFacet(tuple(-int(i == j) for j in range(dim)), labels[i])
            for i in range(dim)
        ),
    )


class TestValidateDatum:
    def test_standard_simplex(self):
        d = validate_datum(orthant_polytope(3), (1, 1, 1))
        assert d.mode == "rational"
        assert [v.coords for v in d.vertices] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_weighted_segment(self):
        d = validate_datum(orthant_polytope(2, [2, 1]), (1, 2))
        assert [v.coords for v in d.vertices] == [(0, F(1, 2)), (1, 0)]

    def test_fractional_reeb_rejected_in_rational_mode(self):
        with pytest.raises(ValueError, match="not integral"):
            validate_datum(orthant_polytope(3), (1, F(3, 2), 1))

    def test_fractional_reeb_allowed_in_irrational_mode(self):
        d = validate_datum(orthant_polytope(3), (1, F(3, 2), 1), mode="irrational")
        assert d.mode == "irrational"
        assert (F(0), F(2, 3), F(0)) in [v.coords for v in d.vertices]

    def test_not_simple_rejected(self):
        facets = (
            LabeledFacet((-1, 0, 1, 0), 1, F(1)),
            LabeledFacet((1, 0, 1, 0), 1, F(1)),
            LabeledFacet((0, -1, 1, 0), 1, F(1)),
            LabeledFacet((0, 1, 1, 0), 1, F(1)),
            LabeledFacet((0, 0, -1, 0)),
        )
        with pytest.raises(ValueError, match="not simple"):
            validate_datum(LabeledPolytope(4, facets), (0, 0, 0, 1))

    @pytest.mark.parametrize("mode", ["rational", "irrational"])
    def test_reeb_checks_in_order(self, mode):
        # the wrong dimension wins over "not integral"; the zero vector is
        # integral and left to vertices()
        for reeb in ((1, F(1, 2)), (1, F(1, 2), 1, 1)):
            with pytest.raises(ValueError, match="characteristic vector has wrong dimension"):
                validate_datum(orthant_polytope(3), reeb, mode=mode)
        with pytest.raises(ValueError, match="characteristic vector must be nonzero"):
            validate_datum(orthant_polytope(3), (0, 0, 0), mode=mode)

    def test_zero_cone_normal_is_not_simple(self):
        # <x, e_2> <= 1 at reeb e_2 cones to zero: the row is tight at every
        # vertex, so build_beta never meets a zero cone normal
        normals = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]
        poly = LabeledPolytope(3, tuple(LabeledFacet(p, 1, F(1)) for p in normals))
        assert cone_normals(poly, (0, 0, 1))[4] == [0, 0, 0]
        with pytest.raises(ValueError, match="polytope not simple"):
            validate_datum(poly, (0, 0, 1))

    def test_unbounded_rejected(self):
        poly = LabeledPolytope(
            3,
            (
                LabeledFacet((-1, 0, 0)),
                LabeledFacet((0, -1, 0)),
                LabeledFacet((0, 0, -1)),
            ),
        )
        with pytest.raises(ValueError, match="unbounded"):
            validate_datum(poly, (0, 0, 1))

    def test_redundant_facet_rejected(self):
        # x0 <= 5 never binds on the simplex <alpha, (1, 1, 1)> = 1
        poly = orthant_polytope(3)
        poly = LabeledPolytope(3, poly.facets + (LabeledFacet((1, 0, 0), 1, F(5)),))
        with pytest.raises(ValueError, match=r"redundant.*\[3\]"):
            validate_datum(poly, (1, 1, 1))

    def test_non_integral_cone_normal_rejected(self):
        # x <= 1/2 cones to (1/2)(0, 1) - (1, 0) = (-1, 1/2); reduce would fail
        poly = LabeledPolytope(
            2, (LabeledFacet((1, 0), 1, F(1, 2)), LabeledFacet((-1, 0)))
        )
        with pytest.raises(ValueError, match=r"not integral: facet 0 .*\(-1, 1/2\)"):
            validate_datum(poly, (0, 1))
        with pytest.raises(ValueError, match="not integral"):
            validate_datum(poly, (0, 1), mode="irrational")
        # doubling the characteristic vector makes offset*reeb integral
        d = validate_datum(poly, (0, 2))
        assert verify_presentation(synthesize(d), d).ok
        # a rational characteristic vector keeps the irrational mode open
        assert validate_datum(poly, (0, F(3, 2)), mode="irrational").mode == "irrational"

    @settings(deadline=None, max_examples=30)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["cube", "simplex", "product"]),
        st.sampled_from(["free", "pinned", "cut"]),
    )
    def test_non_spanning_and_lower_dimensional_fail_earlier_checks(self, rng, kind, how):
        # validate_datum has no span or full-dimension check: such data fail
        # at vertex enumeration (lineality) or at simplicity
        poly, reeb = degenerate(rng, random_datum(rng, kind), how)
        if how == "free":
            functionals = [f.functional for f in poly.facets]
            assert len(fraction_rref([*functionals, reeb])[0]) < poly.ambient_dim
            message = "polytope unbounded in characteristic hyperplane"
        else:
            coords = [v.coords for v in walked_vertices(poly, reeb)]
            diffs = [[b - a for a, b in zip(coords[0], c)] for c in coords[1:]]
            assert len(fraction_rref(diffs)[0]) < poly.dim
            message = "polytope not simple"
        with pytest.raises(ValueError) as exc:
            validate_datum(poly, reeb)
        assert str(exc.value) == message


def isotropy_at(datum, point):
    """The isotropy basis that ``classify`` reports for the face whose
    sample point (the barycentre of its vertices) is ``point``."""
    (basis,) = [f.isotropy_basis for f in classify(datum).per_face if f.sample_point == point]
    return basis


class TestIsotropy:
    def test_interior_point_is_free(self):
        d = validate_datum(orthant_polytope(3), (1, 1, 1))
        assert isotropy_at(d, (F(1, 3), F(1, 3), F(1, 3))) == ()

    def test_simplex_vertex(self):
        d = validate_datum(orthant_polytope(3), (1, 1, 1))
        basis = isotropy_at(d, (1, 0, 0))
        assert basis == ((0, -1, 0), (0, 0, -1))

    def test_weighted_segment_vertex(self):
        d = weighted_simplex((1, 2))
        assert isotropy_at(d, (0, F(1, 2))) == ((-1, 0),)


class TestHolonomy:
    def test_standard_simplex_all_trivial(self):
        d = validate_datum(orthant_polytope(3), (1, 1, 1))
        for face in [frozenset(), {0}, {1}, {0, 1}, {1, 2}]:
            assert holonomy(d, face).is_trivial

    def test_weighted_segment_label_two(self):
        d = weighted_simplex((1, 2))
        assert holonomy(d, {0}) == FiniteAbelianGroup((2,))
        assert holonomy(d, {1}).is_trivial

    def test_non_unimodular_normal_pair(self):
        # triangle in the plane <alpha, (0,0,1)> = 1 whose normals at one
        # vertex span an index-2 sublattice
        facets = (
            LabeledFacet((1, 0, 0), 1, F(1)),
            LabeledFacet((1, 2, 0), 1, F(2)),
            LabeledFacet((-1, -1, 0), 1, F(1)),
        )
        d = validate_datum(LabeledPolytope(3, facets), (0, 0, 1))
        assert holonomy(d, {0, 1}) == FiniteAbelianGroup((2,))
        assert holonomy(d, {0}).is_trivial

    def test_not_a_face(self):
        d = weighted_simplex((1, 2))
        with pytest.raises(ValueError, match="not a face"):
            holonomy(d, {0, 1})

    @settings(deadline=None, max_examples=20)
    @given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
    def test_not_a_face_exactly_off_the_vertex_active_sets(self, rng, kind):
        # oracle: a face's vertices have a barycentre whose active facets
        # are exactly the face
        d = random_datum(rng, kind)
        for size in range(len(d.facets) + 1):
            for face in map(frozenset, combinations(range(len(d.facets)), size)):
                verts = [v for v in d.vertices if face <= v.active]
                if not verts:
                    with pytest.raises(ValueError, match="not a face"):
                        holonomy(d, face)
                    continue
                holonomy(d, face)
                bary = [sum(col) / len(verts) for col in zip(*(v.coords for v in verts))]
                assert faces_containing(d.polytope, d.reeb, bary) == face

    def test_refused_in_irrational_mode(self):
        d = validate_datum(orthant_polytope(2), (1, F(3, 2)), mode="irrational")
        with pytest.raises(ValueError, match="integral"):
            holonomy(d, {0})

    def test_matches_orbit_oracle_on_small_corpus(self):
        for weights in [(1, 1), (1, 2), (1, 1, 2), (2, 3), (1, 2, 3), (2, 3, 5)]:
            d = weighted_simplex(weights)
            report = classify(d)
            for fi in report.per_face:
                if not fi.face:
                    continue
                support = [j for j in range(len(weights)) if j not in fi.face]
                assert fi.holonomy.order() == reeb_orbit_order(weights, support), (
                    weights,
                    sorted(fi.face),
                )


class TestClassify:
    def test_standard_simplex_regular(self):
        report = classify(validate_datum(orthant_polytope(3), (1, 1, 1)))
        assert report.regularity == "regular"
        assert report.nontrivial_faces == ()
        # full face lattice of the triangle: 1 + 3 + 3 vertices
        assert len(report.per_face) == 7

    def test_weighted_segment_quasi_regular(self):
        report = classify(weighted_simplex((1, 2)))
        assert report.regularity == "quasi-regular"
        nontrivial = report.nontrivial_faces
        assert len(nontrivial) == 1
        assert nontrivial[0].face == frozenset({0})
        assert nontrivial[0].holonomy == FiniteAbelianGroup((2,))

    def test_one_one_two_quasi_regular(self):
        d = weighted_simplex((1, 1, 2))
        assert [v.coords for v in d.vertices] == [
            (0, 0, F(1, 2)),
            (0, 1, 0),
            (1, 0, 0),
        ]
        # all labels are 1, yet the vertex over (0,0,1/2) carries Z_2
        assert all(f.label == 1 for f in d.facets)
        report = classify(d)
        assert report.regularity == "quasi-regular"
        orders = {tuple(sorted(f.face)): f.holonomy.order() for f in report.per_face}
        assert orders[(0, 1)] == 2

    def test_labels_force_quasi_regular(self):
        # label 2 on a facet of the standard triangle: facet holonomy C2
        poly = orthant_polytope(3, labels=[2, 1, 1])
        report = classify(validate_datum(poly, (1, 1, 1)))
        assert report.regularity == "quasi-regular"


class TestPerturbReeb:
    def test_simplex_to_weighted(self):
        d = validate_datum(orthant_polytope(3), (1, 1, 1))
        d2 = perturb_reeb(d, (1, 1, 2))
        ref = weighted_simplex((1, 1, 2))
        assert d2.reeb == (1, 1, 2)
        assert [v.coords for v in d2.vertices] == [v.coords for v in ref.vertices]
        assert d2.polytope == ref.polytope

    def test_identity_round_trip(self):
        d = validate_datum(orthant_polytope(3), (1, 1, 1))
        d2 = perturb_reeb(d, (1, 1, 1))
        assert [v.coords for v in d2.vertices] == [v.coords for v in d.vertices]

    @pytest.mark.parametrize("last", [F(5, 2), 2.9])
    def test_non_integral_reeb_kept_exact_and_rejected(self, last):
        d = weighted_simplex((1, 1, 1))
        with pytest.raises(ValueError, match="characteristic vector not integral"):
            perturb_reeb(d, (1, 1, last))

    def test_negative_pairing_rejected(self):
        d = validate_datum(orthant_polytope(2), (1, 1))
        with pytest.raises(ValueError, match="interior of dual cone"):
            perturb_reeb(d, (1, -1))

    @settings(deadline=None, max_examples=60)
    @given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
    def test_matches_slicing_the_cone_afresh(self, rng, kind):
        # oracle: validate the polytope that slice_cone cuts out of the
        # datum's cone, which walks the new slice; the outcome, a datum or
        # the first error message, must be the same for every vector
        d = random_datum(rng, kind)
        dim = len(d.reeb)
        candidates = [
            positive_reeb(rng, d),
            d.reeb,
            tuple(-x for x in d.reeb),
            (0,) * dim,
            d.reeb + (1,),
            d.reeb[:-1],
            tuple(rng.randint(-3, 3) for _ in range(dim)),
            tuple(F(x, 2) for x in positive_reeb(rng, d)),
            tuple(F(-x, 2) for x in d.reeb),
        ]
        for reeb in candidates:
            assert _outcome(lambda: perturb_reeb(d, reeb)) == _outcome(
                lambda: validate_datum(slice_cone(cone_over(d.polytope, d.reeb), reeb), reeb)
            ), reeb

    def test_reslicing_walks_no_slice(self, monkeypatch):
        d = labeled_cube(6, [1 + i % 3 for i in range(12)], lattice.identity(7))

        def refused(mat):
            raise AssertionError("an elimination ran")

        monkeypatch.setattr(lattice, "echelon", refused)
        monkeypatch.setattr(geometry, "echelon", refused)
        d2 = perturb_reeb(d, (1, 1, 1, 1, 1, 1, 8))
        assert len(d2.vertices) == 64
        assert d2.reeb == (1, 1, 1, 1, 1, 1, 8)


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


class TestFaceLatticeProperties:
    corpus = [(1, 2), (1, 1, 2), (2, 3, 4), (4, 6, 9), (1, 2, 3, 4)]

    def test_holonomy_order_monotone_toward_vertices(self):
        for weights in self.corpus:
            report = classify(weighted_simplex(weights))
            orders = {f.face: f.holonomy.order() for f in report.per_face}
            for face_a, order_a in orders.items():
                for face_b, order_b in orders.items():
                    if face_a < face_b:
                        assert order_b % order_a == 0, (weights, face_a, face_b)

    def test_regularity_decided_at_vertices(self):
        # vertices carry maximal holonomy, so "regular" is equivalent to
        # trivial vertex holonomy plus trivial labels
        for weights in self.corpus + [(1, 1), (1, 1, 1, 1)]:
            d = weighted_simplex(weights)
            report = classify(d)
            vertex_trivial = all(
                f.holonomy.is_trivial
                for f in report.per_face
                if len(f.face) == d.n
            )
            labels_trivial = all(f.label == 1 for f in d.facets)
            assert (report.regularity == "regular") == (
                vertex_trivial and labels_trivial
            )


class TestUnimodularInvariance:
    def test_classification_invariant(self):
        rng = random.Random(1234)
        for weights in [(1, 2), (1, 1, 2), (2, 3, 4)]:
            d = weighted_simplex(weights)
            base = classify(d)
            n1 = len(weights)
            for _ in range(3):
                u = random_unimodular(rng, n1)
                assert abs(cofactor_det(u)) == 1
                # transform normals by u and the reeb vector accordingly: the
                # pairing matrix is conjugated, so use u^{-T} on alpha-space;
                # equivalently map p -> u p and reeb -> u reeb
                facets = tuple(
                    LabeledFacet(
                        tuple(sum(u[r][k] * f.normal[k] for k in range(n1)) for r in range(n1)),
                        f.label,
                        f.offset,
                    )
                    for f in d.polytope.facets
                )
                reeb2 = tuple(
                    sum(u[r][k] * d.reeb[k] for k in range(n1)) for r in range(n1)
                )
                d2 = validate_datum(LabeledPolytope(n1, facets), reeb2)
                got = classify(d2)
                assert got.regularity == base.regularity
                assert {
                    tuple(sorted(f.face)): f.holonomy for f in got.per_face
                } == {tuple(sorted(f.face)): f.holonomy for f in base.per_face}

    @settings(deadline=None, max_examples=40)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_vertices_and_holonomy_under_change_of_basis(self, rng, cube):
        # p -> u p and reeb -> u reeb move alpha by u^{-T}: u^T maps the new
        # vertices back onto the old ones, facet by facet
        d = cube_or_simplex(rng, cube)
        u = random_unimodular(rng, d.n + 1)
        moved = change_basis(d, u)
        ut = transpose(u)
        assert {tuple(matvec(ut, v.coords)): v.active for v in moved.vertices} == {
            v.coords: v.active for v in d.vertices
        }
        base, got = classify(d), classify(moved)
        assert got.regularity == base.regularity
        assert {f.face: f.holonomy for f in got.per_face} == {
            f.face: f.holonomy for f in base.per_face
        }


def saturated_chain_holonomy(datum, face):
    """sat(L)/L from the saturated span of the projected normals."""
    proj = _reeb_projection(datum)
    images = [matvec(proj, datum.facets[i].normal) for i in sorted(face)]
    generators = [
        [datum.facets[i].label * x for x in primitive(img)]
        for i, img in zip(sorted(face), images)
    ]
    return quotient_group(saturate(images), generators)


class TestHolonomyMatchesSaturatedChain:
    def test_labeled_cubes(self):
        rng = random.Random(2718)
        nontrivial = 0
        for n in range(1, 5):
            for _ in range(4):
                labels = [rng.randint(1, 3) for _ in range(2 * n)]
                d = labeled_cube(n, labels, random_unimodular(rng, n + 1))
                for fi in classify(d).per_face[1:]:  # the empty face comes first
                    assert fi.holonomy == saturated_chain_holonomy(d, fi.face)
                    assert holonomy(d, fi.face) == fi.holonomy
                    nontrivial += not fi.holonomy.is_trivial
        assert nontrivial > 100

    def test_weighted_simplices(self):
        rng = random.Random(1803)
        nontrivial = 0
        for n in range(1, 4):
            for w in product(range(1, 4), repeat=n + 1):
                if gcd(*w) != 1:
                    continue
                d = change_basis(weighted_simplex(w), random_unimodular(rng, n + 1))
                for fi in classify(d).per_face[1:]:
                    assert fi.holonomy == saturated_chain_holonomy(d, fi.face)
                    assert holonomy(d, fi.face) == fi.holonomy
                    nontrivial += not fi.holonomy.is_trivial
        assert nontrivial > 100

    def test_hexagon(self):
        d = hexagon_datum()
        for fi in classify(d).per_face[1:]:
            assert fi.holonomy == saturated_chain_holonomy(d, fi.face)

    def test_both_branches_on_spheres_and_products(self, monkeypatch):
        # faces inside a unimodular vertex's active set read their group off
        # the labels; every other face takes a Smith normal form
        ran = Counter()
        for name in ("_diagonal_holonomy", "_face_holonomy"):
            monkeypatch.setattr(classify_module, name, counted(ran, name))
        rng = random.Random(1729)
        spheres = [
            change_basis(weighted_simplex(w), random_unimodular(rng, n + 1))
            for n in range(1, 4)
            for w in product(range(1, 5), repeat=n + 1)
            if gcd(*w) == 1 and (n < 3 or max(w) < 4)
        ]
        products = [simplex_product(rng) for _ in range(30)]
        for family in (spheres, products):
            before = Counter(ran)
            for d in family:
                for fi in classify(d).per_face[1:]:
                    assert fi.holonomy == saturated_chain_holonomy(d, fi.face)
            assert ran["_diagonal_holonomy"] > before["_diagonal_holonomy"]
        assert ran["_face_holonomy"] > 0


def unit_cube(rng):
    """A cube with every label 1, n <= 4, in a random lattice basis."""
    n = rng.randint(1, 4)
    return labeled_cube(n, [1] * (2 * n), random_unimodular(rng, n + 1))


def free_with_primitive_projections(d) -> bool:
    """Every c_i = 1, the content of facet i's normal modulo reeb (the gcd
    of the 2-minors of [reeb; p_i] over gcd(reeb)), and the kernel torus K
    of the datum's presentation acts freely: beta onto Z^{n+1}, and every
    stabilizer trivial."""
    g = gcd(*d.reeb)
    if any(oracles.minor_gcd([d.reeb, f.normal], 2) != g for f in d.facets):
        return False
    pres = synthesize(d)
    onto = oracles.minor_gcd(pres.beta, pres.ambient_dim) == 1
    return onto and verify_presentation(pres, d).smooth


class TestHolonomyMatchesReebPeriods:
    """Where every c_i is 1, classify's quotient labels and the moment-cone
    labels of ``cone_normals`` read alike, and where K acts freely the
    holonomy order at each face is the ratio of Reeb periods
    (``oracles.reeb_period_order``).  Orbifold cubes and products, where
    the two readings part, are left out."""

    @settings(deadline=None, max_examples=60)
    @given(st.randoms(use_true_random=False), st.sampled_from([*KINDS, "unit cube"]))
    def test_group_order_is_the_period_ratio(self, rng, kind):
        d = unit_cube(rng) if kind == "unit cube" else generated(rng, kind)
        assume(free_with_primitive_projections(d))
        for fi in classify(d).per_face:
            assert fi.holonomy.order() == oracles.reeb_period_order(d.cone_normals, d.reeb, fi.face)

    def test_a_smooth_sphere_with_short_orbits(self):
        # S^5 with weights 1, 2, 3 is its own presentation (K is trivial):
        # the orbits over the vertices close after 1, 1/2 and 1/3 turns
        d = weighted_simplex((1, 2, 3))
        assert free_with_primitive_projections(d)
        report = classify(d)
        normals = d.cone_normals
        orders = [oracles.reeb_period_order(normals, d.reeb, fi.face) for fi in report.per_face]
        assert orders == [fi.holonomy.order() for fi in report.per_face]
        assert sorted(set(orders)) == [1, 2, 3]


class TestBitmaskFaceWalk:
    @settings(deadline=None, max_examples=80)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["cube", "simplex", "product", "sphere", "parabola"]),
    )
    def test_matches_the_face_loop_oracle(self, rng, kind):
        # field for field and in order: faces, normals, groups, sample points
        if kind == "sphere":
            d = random_sphere(rng)
            d = change_basis(d, random_unimodular(rng, d.n + 1))
        elif kind == "parabola":
            d = change_basis(parabola(2 * rng.randint(2, 8)), random_unimodular(rng, 3))
        else:
            d = random_datum(rng, kind)
        assert classify(d) == oracles.classify(d)

    def test_labeled_six_cube_takes_no_echelon_and_no_smith_form(self, monkeypatch):
        # every vertex of the labeled cube is unimodular, which its cone
        # index shows with no determinant of its generator rows, so each
        # face reads its group off its labels and no Smith normal form runs
        d = labeled_cube(6, [1 + i % 3 for i in range(12)], lattice.identity(7))

        def refused(*args):
            raise AssertionError("an elimination or a Smith normal form ran")

        monkeypatch.setattr(lattice, "echelon", refused)
        monkeypatch.setattr(geometry, "echelon", refused)
        monkeypatch.setattr(lattice, "_smith", refused)
        report = classify(d)
        assert len(report.per_face) == 3**6


def _cone_index_case(rng, kind, rebased, resliced):
    """A datum of the kind, optionally in a random lattice basis and then
    resliced by a random positive reeb (its vertices carried, not walked)."""
    if kind == "sphere":
        d = random_sphere(rng)
    elif kind == "parabola":
        d = parabola(2 * rng.randint(2, 8))
    elif kind == "weighted":  # cone indices up to 9 here; 1 in every other kind
        d = weighted_simplex_product(rng)
    else:
        d = random_datum(rng, kind)
    if rebased:
        d = change_basis(d, random_unimodular(rng, d.n + 1))
    return perturbed(rng, d) if resliced else d


CONE_INDEX_CASES = (
    st.randoms(use_true_random=False),
    st.sampled_from(["cube", "simplex", "product", "sphere", "parabola", "weighted"]),
    st.booleans(),
    st.booleans(),
)


class TestConeIndex:
    """The cone index the vertex walk hands each vertex, and the unimodular
    vertices ``classify`` reads off it."""

    @settings(deadline=None, max_examples=80)
    @given(*CONE_INDEX_CASES)
    def test_index_is_the_smith_product_of_the_active_cone_normals(
        self, rng, kind, rebased, resliced
    ):
        d = _cone_index_case(rng, kind, rebased, resliced)
        q = [normal for normal, _ in cone_over(d.polytope, d.reeb).normals]
        for v in d.vertices:
            assert v.cone_index == prod(smith_diagonal([q[i] for i in sorted(v.active)]))
        if resliced:  # the carried index is the one a fresh walk finds
            assert validate_datum(d.polytope, d.reeb).vertices == d.vertices

    @settings(deadline=None, max_examples=80)
    @given(*CONE_INDEX_CASES)
    def test_unimodular_vertices_have_det_the_label_product(self, rng, kind, rebased, resliced):
        # a vertex's own face, its whole active set, lies in no other
        # vertex's, so it takes a Smith normal form exactly when the vertex
        # is not unimodular
        d = _cone_index_case(rng, kind, rebased, resliced)
        smith = []
        real = classify_module._face_holonomy

        def recorded(generators, face, *shared):
            smith.append(sorted(face))
            return real(generators, face, *shared)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(classify_module, "_face_holonomy", recorded)
            classify(d)
        generators = _facet_generators(d)[0]
        labels = [f.label for f in d.facets]
        for v in d.vertices:
            active = sorted(v.active)
            g_a = [generators[i] for i in active]
            unimodular = abs(cofactor_det(g_a)) == prod(labels[i] for i in active)
            assert (active not in smith) == unimodular


def counted(ran, name):
    real = getattr(classify_module, name)

    def wrapper(*args):
        ran[name] += 1
        return real(*args)

    return wrapper
