from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricontact import geometry, lattice, reduction
from toricontact.classify import validate_datum
from toricontact.documents import verification_to_document
from toricontact.lattice import identity, matmul, rank, transpose
from toricontact.polytope import LabeledFacet, LabeledPolytope, cone_normals, vertices
from toricontact.reduction import (
    SpherePresentation,
    build_beta,
    deformation_vector,
    kernel_torus_weights,
    reduced_polytope,
    synthesize,
    verify_presentation,
)
from toricontact.spheres import weighted_simplex

from generators import labeled_cube, parabola, perturbed, random_datum, random_sphere
from generators import weighted_simplex_product
from oracles import cofactor_det, maximin_deformation, minor_gcd_invariant_factors
from oracles import small_kernel_vectors
from oracles import stabilizer_order

F = Fraction


def standard_simplex_datum(dim=3):
    facets = tuple(
        LabeledFacet(tuple(-int(i == j) for j in range(dim)), 1) for i in range(dim)
    )
    return validate_datum(LabeledPolytope(dim, facets), tuple([1] * dim))


def cube_datum(label_first=2):
    """Labeled cube: [0,1]^3 at height 1 in ambient dimension 4."""
    facets = (
        LabeledFacet((-1, 0, 0, 0), label_first),
        LabeledFacet((0, -1, 0, 0), 1),
        LabeledFacet((0, 0, -1, 0), 1),
        LabeledFacet((1, 0, 0, -1), 1, F(0)),
        LabeledFacet((0, 1, 0, -1), 1, F(0)),
        LabeledFacet((0, 0, 1, -1), 1, F(0)),
    )
    return validate_datum(LabeledPolytope(4, facets), (0, 0, 0, 1))


class TestBuildBeta:
    def test_standard_simplex_gives_identity(self):
        assert build_beta(standard_simplex_datum()) == identity(3)

    def test_weighted_segment(self):
        beta = build_beta(weighted_simplex((1, 2)))
        assert beta == [[2, 0], [0, 1]]

    def test_cube_fixture(self):
        beta = build_beta(cube_datum())
        assert len(beta) == 4 and len(beta[0]) == 6
        cols = transpose(beta)
        assert cols[0] == [2, 0, 0, 0]
        assert cols[3] == [-1, 0, 0, 1]


class TestKernelTorusWeights:
    def test_sphere_base_case(self):
        assert kernel_torus_weights(identity(3)) == []

    def test_sum_of_basis_columns(self):
        beta = [[1, 0, 1], [0, 1, 1]]
        w = kernel_torus_weights(beta)
        assert w == [[1, 1, -1]]
        assert (1, 1, -1) in small_kernel_vectors(beta, 2)

    def test_cube_fixture(self):
        beta = build_beta(cube_datum())
        w = kernel_torus_weights(beta)
        assert len(w) == 2 and len(w[0]) == 6
        assert all(not any(row) for row in matmul(beta, transpose(w)))

    def test_not_surjective_rejected(self):
        with pytest.raises(ValueError, match="not surjective"):
            kernel_torus_weights([[1, 2], [2, 4]])


class TestDeformationVector:
    def test_standard_simplex(self):
        d = standard_simplex_datum()
        assert deformation_vector(d, build_beta(d)) == (1, 1, 1)

    def test_weighted_segment(self):
        d = weighted_simplex((1, 2))
        a = deformation_vector(d, build_beta(d))
        assert a == (F(1, 2), 2)

    def test_cube_positive_and_exact(self):
        d = cube_datum()
        beta = build_beta(d)
        a = deformation_vector(d, beta)
        assert all(x > 0 for x in a)
        image = [sum(row[j] * a[j] for j in range(6)) for row in beta]
        assert image == [0, 0, 0, 1]

    def test_deterministic(self):
        d = cube_datum()
        beta = build_beta(d)
        assert deformation_vector(d, beta) == deformation_vector(d, beta)

    def test_every_vertex_maximizes_on_the_unit_cube(self):
        # beta @ 1 = 3 e_3 is 3 at every vertex, so all 8 tie, no facet is
        # tight at all of them, and a is z* * 1 with z* = 1/3
        d = labeled_cube(3, [1] * 6, identity(4))
        beta = build_beta(d)
        assert deformation_vector(d, beta) == (F(1, 3),) * 6
        assert maximin_deformation(d, beta) == (F(1, 3),) * 6

    @settings(deadline=None, max_examples=60)
    @given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
    def test_closed_form_is_the_maximin_lp(self, rng, kind):
        d = random_datum(rng, kind)
        beta = build_beta(d)
        assert deformation_vector(d, beta) == maximin_deformation(d, beta)


class TestPresentationShape:
    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"beta": ((1, 0), (0, 1, 0), (0, 0, 1))}, "beta rows must all have length N"),
            ({"beta": ()}, "beta rows must all have length N"),
            ({"weights": ((1, 1),)}, "weight rows must all have length N"),
            ({"weights": ((1, 1, 1),)}, "weight row count must be N minus the ambient dimension"),
            ({"deformation": (1, 1)}, "deformation must have length N"),
        ],
    )
    def test_each_shape_fault_raises_on_construction(self, fault, message):
        fields = {"N": 3, "beta": identity(3), "weights": (), "deformation": (1, 1, 1)}
        with pytest.raises(ValueError, match=message):
            SpherePresentation(**{**fields, **fault})


class TestSynthesize:
    def test_standard_simplex_is_the_sphere(self):
        pres = synthesize(standard_simplex_datum())
        assert pres.N == 3
        assert pres.weights == ()
        assert pres.deformation == (1, 1, 1)

    def test_weighted_segment(self):
        pres = synthesize(weighted_simplex((1, 2)))
        assert pres.N == 2
        assert pres.weights == ()
        assert pres.deformation == (F(1, 2), 2)

    def test_cube(self):
        pres = synthesize(cube_datum())
        assert pres.N == 6
        assert len(pres.weights) == 2
        assert all(x > 0 for x in pres.deformation)

    def test_base_case_iff_square(self):
        for d in [standard_simplex_datum(2), standard_simplex_datum(4)]:
            pres = synthesize(d)
            assert (pres.N == d.polytope.ambient_dim) == (pres.weights == ())


class TestReducedPolytope:
    def test_standard_round_trip(self):
        d = standard_simplex_datum()
        poly, reeb = reduced_polytope(synthesize(d))
        assert poly == d.polytope
        assert reeb == d.reeb

    def test_weighted_round_trip(self):
        d = weighted_simplex((1, 2))
        poly, reeb = reduced_polytope(synthesize(d))
        assert poly == d.polytope
        assert reeb == (1, 2)

    def test_cube_round_trip(self):
        d = cube_datum()
        poly, reeb = reduced_polytope(synthesize(d))
        got = validate_datum(poly, reeb)
        assert [v.coords for v in got.vertices] == [v.coords for v in d.vertices]


class TestReducedSliceIsTheDatumSlice:
    """verify_presentation reuses the datum's vertices when beta's columns
    are the datum's cone normals and the reduced characteristic vector is
    the datum's; for a synthesized presentation that always holds, in
    facet order."""

    @settings(deadline=None, max_examples=40)
    @given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
    def test_same_rows_vertices_and_active_sets(self, rng, kind):
        d = random_datum(rng, kind)
        pres = synthesize(d)
        poly, reeb = reduced_polytope(pres)
        assert reeb == d.reeb
        # beta is onto without build_beta checking it
        assert rank(build_beta(d)) == d.polytope.ambient_dim
        assert transpose(pres.beta) == cone_normals(d.polytope, d.reeb)
        assert cone_normals(poly, reeb) == cone_normals(d.polytope, d.reeb)
        assert [(v.coords, v.active) for v in vertices(poly, reeb)] == [
            (v.coords, v.active) for v in d.vertices
        ]

    @settings(deadline=None, max_examples=40)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["cube", "simplex", "product", "sphere"]),
    )
    def test_reuse_reports_what_the_full_comparison_reports(self, rng, kind):
        # the synthesized presentation is the datum's own system and skips
        # the comparisons; permuting its columns forces them
        if kind == "sphere":
            weights = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
            d = weighted_simplex([w // gcd(*weights) for w in weights])
        else:
            d = random_datum(rng, kind)
        pres = synthesize(d)
        perm = rng.sample(range(pres.N), pres.N)
        if perm == sorted(perm):
            perm = perm[1:] + perm[:1]
        permuted = SpherePresentation(
            pres.N,
            [[row[j] for j in perm] for row in pres.beta],
            [[row[j] for j in perm] for row in pres.weights],
            [pres.deformation[j] for j in perm],
        )
        assert transpose(pres.beta) == cone_normals(d.polytope, d.reeb)
        assert transpose(permuted.beta) != cone_normals(d.polytope, d.reeb)
        expected = verification_to_document(verify_presentation(pres, d))
        assert expected["ok"]
        assert verification_to_document(verify_presentation(permuted, d)) == expected

    def test_irrational_square_keeps_its_vertex_diff(self):
        # the square's presentation at reeb e_2, checked against the square
        # at reeb e_2 / 2: no reuse, and the integrality check failing
        # afterwards must not empty the diff
        pres = synthesize(square((0, 0, 1)))
        report = verify_presentation(pres, square((0, 0, F(1, 2))))
        corners = [(F(x), F(y)) for x in (-1, 1) for y in (-1, 1)]
        extra = [("extra", (*c, F(1))) for c in corners]
        missing = [("missing", (*c, F(2))) for c in corners]
        assert sorted(report.vertex_diff) == extra + missing
        assert not report.ok and not report.polytope_match
        assert any("not integral" in p for p in report.problems)


def enumerated_report(pres, d):
    """(polytope_match, vertex_diff, local_freeness, problems) as verify must
    report them for a presentation of d's own cone with a valid torus,
    from enumerating the reduced polytope's vertices afresh."""
    problems = []
    if any(x <= 0 for x in pres.deformation):
        problems.append("deformation vector not strictly positive")
    if pres.reeb_image != tuple(F(x) for x in d.reeb):
        problems.append("beta @ deformation differs from the characteristic vector")
    try:
        verts = vertices(*reduced_polytope(pres))
    except ValueError as exc:
        problems.append(f"reduced polytope unavailable: {exc}")
        verts, diff = d.vertices, None
    else:
        ours, theirs = [v.coords for v in d.vertices], [v.coords for v in verts]
        diff = [("missing", c) for c in ours if c not in theirs]
        diff += [("extra", c) for c in theirs if c not in ours]
    k = len(pres.weights)
    local = []
    for v in verts:
        support = [j for j in range(pres.N) if j not in v.active]
        w_support = [[row[j] for j in support] for row in pres.weights]
        factors = minor_gcd_invariant_factors(w_support) if k else []
        local.append((v.coords, prod(factors) if len(factors) == k else None))
    return diff == [], tuple(diff or ()), tuple(local), tuple(problems)


def reported(pres, d):
    r = verify_presentation(pres, d)
    return r.polytope_match, r.vertex_diff, r.local_freeness, r.problems


def permuted(pres, perm, deformation=None):
    """The presentation with its sphere coordinates listed in the order perm."""
    a = pres.deformation if deformation is None else deformation
    return SpherePresentation(
        pres.N,
        [[row[j] for j in perm] for row in pres.beta],
        [[row[j] for j in perm] for row in pres.weights],
        [a[j] for j in perm],
    )


def any_datum(rng, kind):
    return random_sphere(rng) if kind == "sphere" else random_datum(rng, kind)


class TestSameCone:
    """A presentation whose columns are the datum's cone normals, in any
    order, is read off the datum's vertices rescaled by their heights; the
    enumeration of the reduced polytope is the oracle."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["cube", "simplex", "product", "sphere"]),
    )
    def test_permuted_and_deformed_matches_the_enumeration(self, rng, kind):
        d = any_datum(rng, kind)
        pres = synthesize(d)
        a = list(pres.deformation)
        for j in rng.sample(range(pres.N), rng.randint(1, pres.N)):
            nudge = F(rng.randint(-3, 3), rng.randint(1, 3))
            a[j] = rng.choice([a[j] + 1, a[j] - 1, 0 * a[j], -a[j], a[j] + nudge])
        bad = permuted(pres, rng.sample(range(pres.N), pres.N), a)
        assert reported(bad, d) == enumerated_report(bad, d)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda a: [-x for x in a], "empty polytope"),
            (lambda a: [0 * x for x in a], "characteristic vector must be nonzero"),
            (lambda a: [-a[0], *a[1:]], "polytope unbounded in characteristic hyperplane"),
        ],
    )
    def test_each_error_status_matches_the_enumeration(self, change, message):
        d = weighted_simplex((1, 2, 3))
        pres = synthesize(d)
        for perm in ([0, 1, 2], [2, 0, 1]):
            bad = permuted(pres, perm, change(pres.deformation))
            got = reported(bad, d)
            assert got == enumerated_report(bad, d)
            assert got[3][-1] == f"reduced polytope unavailable: {message}"

    @pytest.mark.parametrize("datum", [cube_datum, lambda: weighted_simplex((1, 2, 3))])
    def test_no_vertex_enumeration_on_the_same_cone(self, monkeypatch, datum):
        d = datum()
        pres = synthesize(d)
        deformed = list(pres.deformation)
        deformed[0] += 1
        perm = [*range(1, pres.N), 0]
        deformed_pres = SpherePresentation(pres.N, pres.beta, pres.weights, deformed)
        cases = [permuted(pres, perm), deformed_pres]
        expected = [verification_to_document(verify_presentation(p, d)) for p in cases]

        def refuse(*args):
            raise AssertionError("the same cone was enumerated again")

        monkeypatch.setattr(reduction, "_poly_vertices", refuse)
        monkeypatch.setattr(reduction, "reduced_polytope", refuse)
        got = [verification_to_document(verify_presentation(p, d)) for p in cases]
        assert got == expected
        assert got[0]["ok"] and not got[1]["ok"] and got[1]["vertex_diff"]


class TestPerturbedReeb:
    """Data resliced by ``perturb_reeb`` with a random integral reeb' that is
    strictly positive on the vertex rays."""

    @settings(deadline=None, max_examples=30)
    @given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
    def test_round_trip(self, rng, kind):
        d2 = perturbed(rng, random_datum(rng, kind))
        assert verify_presentation(synthesize(d2), d2).ok

    @settings(deadline=None, max_examples=30)
    @given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
    def test_old_presentation_reports_the_enumerated_diff(self, rng, kind):
        # the old presentation has the new datum's cone normals in facet
        # order and slices them by the old reeb
        d = random_datum(rng, kind)
        d2 = perturbed(rng, d)
        pres = synthesize(d)
        assert transpose(pres.beta) == cone_normals(d2.polytope, d2.reeb)
        got = reported(pres, d2)
        assert got == enumerated_report(pres, d2)
        assert got[0] == (d2.reeb == d.reeb)


def square(reeb):
    """|x| <= 1, |y| <= 1 in the plane <alpha, reeb> = 1."""
    facets = tuple(
        LabeledFacet(p, 1, F(1)) for p in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    )
    return validate_datum(LabeledPolytope(3, facets), reeb, mode="irrational")


def hexagon_datum():
    """Hexagon with 6 facets in ambient dimension 3 (reeb = e_2)."""
    plane_normals = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    offsets = [2, 2, 2, 2, 3, 3]
    facets = tuple(
        LabeledFacet((v[0], v[1], 0), 1, F(off))
        for v, off in zip(plane_normals, offsets)
    )
    return validate_datum(LabeledPolytope(3, facets), (0, 0, 1))


class TestHexagonFixture:
    def test_beta_shape_and_surjectivity(self):
        from toricontact.lattice import rank

        beta = build_beta(hexagon_datum())
        assert len(beta) == 3 and len(beta[0]) == 6
        assert rank(beta) == 3

    def test_full_pipeline(self):
        d = hexagon_datum()
        pres = synthesize(d)
        assert len(pres.weights) == 3
        report = verify_presentation(pres, d)
        assert report.ok and report.polytope_match


class TestUnimodularConjugation:
    def test_beta_conjugates_and_verdicts_stable(self):
        import random

        rng = random.Random(4242)
        d = weighted_simplex((1, 2, 3))
        beta = build_beta(d)
        w = kernel_torus_weights(beta)
        n1 = 3
        u = identity(n1)
        for _ in range(6):
            i, j = rng.randrange(n1), rng.randrange(n1)
            if i == j:
                continue
            c = rng.randrange(-2, 3)
            for k in range(n1):
                u[i][k] += c * u[j][k]
        assert abs(cofactor_det(u)) == 1
        facets = tuple(
            LabeledFacet(
                tuple(sum(u[r][k] * f.normal[k] for k in range(n1)) for r in range(n1)),
                f.label,
                f.offset,
            )
            for f in d.polytope.facets
        )
        reeb2 = tuple(sum(u[r][k] * d.reeb[k] for k in range(n1)) for r in range(n1))
        d2 = validate_datum(LabeledPolytope(n1, facets), reeb2)
        beta2 = build_beta(d2)
        assert beta2 == matmul(u, beta)
        assert kernel_torus_weights(beta2) == w
        assert verify_presentation(synthesize(d2), d2).ok


class TestVerifyPresentation:
    def test_standard(self):
        d = standard_simplex_datum()
        report = verify_presentation(synthesize(d), d)
        assert report.ok and report.polytope_match and report.smooth

    def test_weighted_segment_smooth(self):
        d = weighted_simplex((1, 2))
        report = verify_presentation(synthesize(d), d)
        assert report.ok
        assert report.smooth  # no reduction torus: the sphere is a manifold

    def test_cube_orbifold_stabilizers(self):
        d = cube_datum()
        report = verify_presentation(synthesize(d), d)
        assert report.ok
        orders = {order for _, order in report.local_freeness}
        assert None not in orders
        assert 2 in orders  # label 2 facet leaves a Z_2 stabilizer corner
        assert not report.smooth

    def test_unlabeled_cube_smooth(self):
        d = cube_datum(label_first=1)
        report = verify_presentation(synthesize(d), d)
        assert report.ok and report.smooth

    def test_column_permutation_accepted(self):
        # a user-supplied presentation may list the sphere coordinates in a
        # different order; the classifying data agree up to ordering
        d = cube_datum()
        pres = synthesize(d)
        perm = [3, 0, 1, 2, 5, 4]
        cols = transpose([list(r) for r in pres.beta])
        beta = transpose([cols[j] for j in perm])
        weights = tuple(tuple(row[j] for j in perm) for row in pres.weights)
        a = tuple(pres.deformation[j] for j in perm)
        permuted = SpherePresentation(pres.N, tuple(map(tuple, beta)), weights, a)
        report = verify_presentation(permuted, d)
        assert report.ok and report.polytope_match

    def test_column_permutation_keeps_stabilizers(self):
        # stabilizer supports index the presentation's columns, so a
        # permuted presentation must not borrow the datum's active sets
        d = cube_datum()
        pres = synthesize(d)
        perm = [3, 0, 1, 2, 5, 4]
        cols = transpose([list(r) for r in pres.beta])
        permuted = SpherePresentation(
            pres.N,
            tuple(map(tuple, transpose([cols[j] for j in perm]))),
            tuple(tuple(row[j] for j in perm) for row in pres.weights),
            tuple(pres.deformation[j] for j in perm),
        )
        expected = verify_presentation(pres, d).local_freeness
        assert verify_presentation(permuted, d).local_freeness == expected

    def test_tampered_weight_detected(self):
        d = cube_datum()
        pres = synthesize(d)
        rows = [list(r) for r in pres.weights]
        rows[0][0] += 1
        bad = SpherePresentation(pres.N, pres.beta, tuple(map(tuple, rows)), pres.deformation)
        report = verify_presentation(bad, d)
        assert not report.ok
        assert any("weights" in p or "zero" in p for p in report.problems)

    def test_weight_row_vanishing_on_support_has_infinite_stabilizer(self):
        d = cube_datum()
        pres = synthesize(d)
        vertex = d.vertices[0]
        rows = [list(r) for r in pres.weights]
        for j in range(pres.N):
            if j not in vertex.active:
                rows[0][j] = 0
        bad = SpherePresentation(pres.N, pres.beta, tuple(map(tuple, rows)), pres.deformation)
        report = verify_presentation(bad, d)
        assert dict(report.local_freeness)[vertex.coords] is None
        assert not report.ok

    @settings(deadline=None, max_examples=30)
    @given(st.randoms(use_true_random=False))
    def test_weighted_simplex_products_round_trip(self, rng):
        d = weighted_simplex_product(rng)
        pres = synthesize(d)
        assert reduced_polytope(pres)[1] == d.reeb
        report = verify_presentation(pres, d)
        assert report.ok and report.polytope_match and not report.smooth

    def test_tampered_deformation_detected(self):
        d = weighted_simplex((1, 2))
        pres = synthesize(d)
        a = list(pres.deformation)
        a[0] += 1
        bad = SpherePresentation(pres.N, pres.beta, pres.weights, tuple(a))
        report = verify_presentation(bad, d)
        assert not report.ok

    @settings(deadline=None, max_examples=20)
    @given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
    def test_every_single_entry_mutation_rejected(self, rng, kind):
        # a mutated beta reduces to another polytope, at times not simple,
        # unbounded or empty, whose vertices are walked afresh
        d = random_datum(rng, kind)
        pres = synthesize(d)
        assert verify_presentation(pres, d).ok
        parts = {"N": pres.N, "beta": pres.beta, "weights": pres.weights}
        for field in ("beta", "weights"):
            mat = parts[field]
            for i, j in product(range(len(mat)), range(pres.N)):
                rows = [list(r) for r in mat]
                rows[i][j] += 1
                bad = SpherePresentation(**{**parts, field: rows}, deformation=pres.deformation)
                assert not verify_presentation(bad, d).ok, (field, i, j)
        for j in range(pres.N):
            a = list(pres.deformation)
            a[j] += 1
            bad = SpherePresentation(**parts, deformation=a)
            assert not verify_presentation(bad, d).ok, ("a", j)

    def test_dimension_mismatch(self):
        d = standard_simplex_datum()
        pres = synthesize(weighted_simplex((1, 2)))
        with pytest.raises(ValueError, match="differ"):
            verify_presentation(pres, d)


@st.composite
def stabilizer_cases(draw):
    """(weights, supports): k <= 4 rows of k + 1..k + 3 entries in -4..4, some
    columns zero and at times one row a multiple of another, and supports
    of fewer than k, exactly k and k + 1 columns, plus up to three more of
    at most k + 1."""
    k = draw(st.integers(1, 4))
    width = draw(st.integers(k + 1, k + 3))
    entry = st.integers(-4, 4)
    rows = [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(k)]
    for j in draw(st.sets(st.integers(0, width - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    if k > 1 and draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        rows[-1] = [c * x for x in rows[0]]
    sizes = [draw(st.integers(0, k - 1)), k, k + 1]
    sizes += draw(st.lists(st.integers(0, k + 1), max_size=3))
    column = st.integers(0, width - 1)
    supports = [
        sorted(draw(st.lists(column, min_size=size, max_size=size, unique=True)))
        for size in sizes
    ]
    return rows, supports


def minor_gcd_order(weights, support):
    """The gcd of the k x k minors of W_S by brute force, None when 0."""
    factors = minor_gcd_invariant_factors([[row[j] for j in support] for row in weights])
    return prod(factors) if len(factors) == len(weights) else None


def assert_orders_match_the_oracles(weights, supports):
    got = reduction._stabilizer_orders(weights, supports)
    assert got == [stabilizer_order(weights, support) for support in supports]
    assert got == [minor_gcd_order(weights, support) for support in supports]


def counted_smith(monkeypatch):
    """The list that collects one entry per ``lattice._smith`` call."""
    calls = []
    smith = lattice._smith

    def counted(row_mats, col_mats):
        calls.append(len(row_mats) + len(col_mats))
        return smith(row_mats, col_mats)

    monkeypatch.setattr(lattice, "_smith", counted)
    return calls


def weight_mutant(pres, r, j):
    """The presentation with 1 added to W[r][j]."""
    rows = [list(row) for row in pres.weights]
    rows[r][j] += 1
    return SpherePresentation(pres.N, pres.beta, rows, pres.deformation)


SATURATION = "weight matrix is not a saturated kernel basis"


class TestStabilizerOrder:
    @settings(deadline=None, max_examples=300)
    @given(stabilizer_cases())
    def test_matches_the_minor_gcd_oracle(self, case):
        assert_orders_match_the_oracles(*case)

    @settings(deadline=None, max_examples=40)
    @given(st.randoms(use_true_random=False))
    def test_weighted_simplex_products_match_the_oracles(self, rng):
        # vertex supports of k + 1 columns with orbifold orders, then the same
        # supports against a W with one entry moved
        d = weighted_simplex_product(rng)
        pres = synthesize(d)
        supports = [[j for j in range(pres.N) if j not in v.active] for v in d.vertices]
        assert max(reduction._stabilizer_orders(pres.weights, supports)) > 1
        assert_orders_match_the_oracles(pres.weights, supports)
        r, j = rng.randrange(len(pres.weights)), rng.randrange(pres.N)
        assert_orders_match_the_oracles(weight_mutant(pres, r, j).weights, supports)

    def test_support_wider_than_a_vertex_is_refused(self):
        with pytest.raises(ValueError, match="wider"):
            reduction._stabilizer_orders([[1, 2, 3]], [[0, 1], [0, 1, 2]])

    def test_degenerate_reduced_vertex_of_k_columns(self):
        # beta[0][3] + 1 on the hexagon of the golden mutations family
        # (ngon(6)): the reduced polytope has a vertex on 3 of 6 facets, so
        # its support has k = 3 columns and its order is |det W_S| alone
        hull = [(-4, -3), (-3, -4), (3, -4), (4, 3), (3, 4), (-3, 4)]
        facets = tuple(
            LabeledFacet((x, y, 0), 1 + i % 3, F(1 + i % 3)) for i, (x, y) in enumerate(hull)
        )
        d = validate_datum(LabeledPolytope(3, facets), (0, 0, 1))
        pres = synthesize(d)
        beta = [list(row) for row in pres.beta]
        beta[0][3] += 1
        mutant = SpherePresentation(pres.N, beta, pres.weights, pres.deformation)
        [vertex] = [v for v in vertices(*reduced_polytope(mutant)) if len(v.active) == 3]
        support = [j for j in range(pres.N) if j not in vertex.active]
        assert vertex.coords == (F(12, 37), F(0), F(36, 37)) and support == [0, 1, 5]
        w_support = [[row[j] for j in support] for row in pres.weights]
        report = verify_presentation(mutant, d)
        assert dict(report.local_freeness)[vertex.coords] == abs(cofactor_det(w_support)) == 24

    def test_one_elimination_of_w_per_verification(self, monkeypatch):
        # the 62-gon has k = 59 torus rows; every other elimination verify
        # runs is of at most n + 1 = 3 rows
        d = parabola(62)
        pres = synthesize(d)
        k = len(pres.weights)
        calls = []
        echelon = lattice.echelon

        def counted(mat):
            calls.append(len(mat))
            return echelon(mat)

        for module in (lattice, geometry, reduction):
            monkeypatch.setattr(module, "echelon", counted)
        assert verify_presentation(pres, d).ok
        assert calls.count(k) == 1
        assert all(rows <= 3 for rows in calls if rows != k)

    def test_saturation_needs_no_smith_form_when_the_orders_are_coprime(self, monkeypatch):
        # the orders of parabola(12) and of its row mutant have gcd 1, so W
        # is saturated with no Smith normal form
        d = parabola(12)
        pres = synthesize(d)
        calls = counted_smith(monkeypatch)
        for p, ok in ((pres, True), (weight_mutant(pres, 0, 0), False)):
            assert verify_presentation(p, d).ok is ok
        assert calls == []

    def test_orders_with_a_common_factor_take_one_smith_form(self, monkeypatch):
        # W[0][1] + 1 on the labeled square doubles W's second entry: every
        # vertex order is even, so the Smith loop runs once and finds W
        # unsaturated
        d = labeled_cube(2, [1, 2, 3, 1], identity(3))
        mutant = weight_mutant(synthesize(d), 0, 1)
        calls = counted_smith(monkeypatch)
        report = verify_presentation(mutant, d)
        orders = [order for _, order in report.local_freeness]
        assert gcd(*orders) == 2
        assert SATURATION in report.problems
        assert calls == [2]  # S alone, for rows and for columns

    @settings(deadline=None, max_examples=40)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["cube", "simplex", "product", "weighted"]),
    )
    def test_saturation_problem_iff_smith_diagonal_off_one(self, rng, kind):
        d = weighted_simplex_product(rng) if kind == "weighted" else random_datum(rng, kind)
        pres = synthesize(d)
        if not pres.weights:
            return
        for _ in range(3):
            r, j = rng.randrange(len(pres.weights)), rng.randrange(pres.N)
            mutant = weight_mutant(pres, r, j)
            unsaturated = any(x != 1 for x in lattice.smith_diagonal(mutant.weights))
            assert (SATURATION in verify_presentation(mutant, d).problems) == unsaturated
