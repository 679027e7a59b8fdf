import re
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from toricontact import geometry, lattice, polytope, reduction
from toricontact.classify import validate_datum
from toricontact.documents import verification_to_document
from toricontact.lattice import identity, matmul, rank, transpose
from toricontact.polytope import LabeledFacet, LabeledPolytope, Vertex, cone_normals
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

from generators import KINDS, generated, labeled_cube, parabola, perturbed, random_datum
from generators import random_unimodular
from generators import random_sphere, walked_vertices, weighted_simplex_product
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
        assert [(v.coords, v.active) for v in walked_vertices(poly, reeb)] == [
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

    def test_irrational_square_names_its_half_integral_facets(self):
        # the square's presentation at reeb e_2, checked against the square
        # at reeb e_2 / 2: another cone, each of whose four cone normals has
        # a 1/2 entry, named as str writes it, with no vertex checked
        pres = synthesize(square((0, 0, 1)))
        report = verify_presentation(pres, square((0, 0, F(1, 2))))
        named = [p for p in report.problems if p.startswith("facet ")]
        assert named == [
            f"facet {i}: cone normal ({x}, {y}, 1/2) is no column of beta"
            for i, (x, y) in enumerate([(-1, 0), (1, 0), (0, -1), (0, 1)])
        ]
        assert report.vertex_diff == () and report.local_freeness == ()
        assert not report.ok and not report.polytope_match and not report.smooth


def enumerated_report(pres, d):
    """(polytope_match, vertex_diff, local_freeness, problems) as verify must
    report them for a presentation of d's own cone with a valid torus,
    from enumerating the reduced polytope's vertices afresh."""
    problems = []
    bad = [str(i) for i, x in enumerate(pres.deformation) if x <= 0]
    if bad:
        problems.append(f"deformation vector not strictly positive: entries {', '.join(bad)}")
    image = [sum(b * x for b, x in zip(row, pres.deformation)) for row in pres.beta]
    bad = [str(i) for i, (x, r) in enumerate(zip(image, d.reeb)) if x != r]
    if bad:
        text = "beta @ deformation differs from the characteristic vector: coordinates"
        problems.append(f"{text} {', '.join(bad)}")
    try:
        verts = walked_vertices(*reduced_polytope(pres))
    except ValueError as exc:
        problems.append(f"reduced polytope unavailable: {exc}")
        # the datum's vertices, their active sets read as beta's columns
        column = {tuple(c): j for j, c in enumerate(transpose(pres.beta))}
        to_column = [column[tuple(u)] for u in cone_normals(d.polytope, d.reeb)]
        verts = [
            Vertex(v.ray, v.height, frozenset(to_column[i] for i in v.active), v.cone_index)
            for v in d.vertices
        ]
        diff = None
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
    diff = tuple((kind, v.coords) for kind, v in r.vertex_diff)
    return r.polytope_match, diff, tuple(orders_by_point(r)), r.problems


def orders_by_point(report):
    """The report's (coords, stabilizer order) per reduced vertex, in order."""
    return [(v.coords, order) for v, order in report.local_freeness]


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

    @pytest.mark.parametrize("datum", [cube_datum, lambda: labeled_cube(2, [1, 2, 3, 1], identity(3))])
    def test_own_vertices_are_read_with_no_sort_as_their_copies_are(self, monkeypatch, datum):
        # beta @ a = reeb leaves every vertex the datum's own object, for the
        # presentation and for each W mutant: verify takes the datum's list
        # as it is, and reports what copies of the vertices, sorted and
        # matched by ray and height, give
        d = datum()
        pres = synthesize(d)
        cases = [pres] + [
            weight_mutant(pres, r, j) for r in range(len(pres.weights)) for j in range(pres.N)
        ]
        resliced = reduction.resliced_vertices

        def copies(verts, reeb):
            return [Vertex(w.ray, w.height, w.active, w.cone_index) for w in resliced(verts, reeb)]

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(reduction, "resliced_vertices", copies)
            expected = [verification_to_document(verify_presentation(p, d)) for p in cases]

        def refuse(*args):
            raise AssertionError("the datum's own vertices were sorted again")

        monkeypatch.setattr(reduction, "sort_vertices", refuse)
        got = [verification_to_document(verify_presentation(p, d)) for p in cases]
        assert got == expected
        assert got[0]["ok"] and len(cases) > 1 and not any(doc["ok"] for doc in got[1:])


def beta_mutant(pres, r, j, step=1):
    """The presentation with step added to beta[r][j]."""
    rows = [list(row) for row in pres.beta]
    rows[r][j] += step
    return SpherePresentation(pres.N, rows, pres.weights, pres.deformation)


def refuse_walks(patched):
    """Make every vertex walk raise: ``polytope.vertices``, the slice walk
    under it, ``geometry.sliced_cone_points``, and ``reduced_polytope``."""

    def refuse(*args):
        raise AssertionError("verify walked a slice")

    patched.setattr(polytope, "vertices", refuse)
    patched.setattr(geometry, "sliced_cone_points", refuse)
    patched.setattr(reduction, "reduced_polytope", refuse)


FACET_LINE = re.compile(r"facet (\d+): cone normal \((.*)\) is no column of beta")
COLUMN_LINE = re.compile(
    r"beta column (\d+) \((.*)\) (?:is no cone normal of the datum|repeats facet (\d+)'s)"
)


def named_difference(report, columns, normals):
    """The cone normals and the columns the report's problems name, each
    sorted, after checking that each line writes its vector with str and
    that a repeated column is the cone normal it names."""
    missing, extra = [], []
    kinds = (FACET_LINE, normals, missing), (COLUMN_LINE, columns, extra)
    for problem in report.problems:
        for pattern, vectors, named in kinds:
            match = pattern.fullmatch(problem)
            if match:
                vector = tuple(vectors[int(match[1])])
                assert match[2] == ", ".join(map(str, vector))
                if pattern is COLUMN_LINE and match[3]:
                    assert tuple(normals[int(match[3])]) == vector
                elif pattern is COLUMN_LINE:
                    assert vector not in map(tuple, normals)
                named.append(vector)
    return sorted(missing), sorted(extra)


class TestAnotherCone:
    """A presentation whose columns are not the datum's cone normals, as a
    multiset, is decided by the cone: no vertex is walked or checked, and
    the problems name the facets and columns of the difference."""

    @pytest.mark.parametrize("datum", [cube_datum, lambda: weighted_simplex((1, 2, 3))])
    def test_no_vertex_walk_for_any_presentation(self, monkeypatch, datum):
        # a permutation and a deformation keep the cone, a beta mutant is
        # another; none is walked, and only the deformed one has a diff
        d = datum()
        pres = synthesize(d)
        deformed = list(pres.deformation)
        deformed[0] += 1
        perm = [*range(1, pres.N), 0]
        deformed_pres = SpherePresentation(pres.N, pres.beta, pres.weights, deformed)
        cases = [permuted(pres, perm), deformed_pres, beta_mutant(pres, 0, 0)]
        expected = [verification_to_document(verify_presentation(p, d)) for p in cases]
        refuse_walks(monkeypatch)
        got = [verification_to_document(verify_presentation(p, d)) for p in cases]
        assert got == expected
        assert got[0]["ok"] and not got[1]["ok"] and got[1]["vertex_diff"]
        assert not got[2]["ok"] and got[2]["vertex_diff"] == [] == got[2]["local_freeness"]
        assert not hasattr(reduction, "_poly_vertices")

    @settings(deadline=None, max_examples=40)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS))
    def test_every_beta_mutant_names_the_multiset_difference(self, rng, kind):
        d = generated(rng, kind)
        pres = synthesize(d)
        perm = rng.sample(range(pres.N), pres.N)
        mutants = [
            permuted(beta_mutant(pres, r, j, step), perm)
            for r in range(pres.ambient_dim)
            for j in range(pres.N)
            for step in (1, -1)
        ]
        with pytest.MonkeyPatch.context() as patched:
            refuse_walks(patched)
            reports = [verify_presentation(m, d) for m in mutants]
        for mutant, report in zip(mutants, reports):
            columns = transpose(mutant.beta)
            expected = oracles.cone_difference(columns, d.cone_normals)
            assert named_difference(report, columns, d.cone_normals) == expected
            assert expected[0] and not report.ok and not report.smooth
            assert report.vertex_diff == () == report.local_freeness


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
        expected = orders_by_point(verify_presentation(pres, d))
        assert orders_by_point(verify_presentation(permuted, d)) == expected

    def test_tampered_weight_detected(self):
        d = cube_datum()
        pres = synthesize(d)
        rows = [list(r) for r in pres.weights]
        rows[0][0] += 1
        bad = SpherePresentation(pres.N, pres.beta, tuple(map(tuple, rows)), pres.deformation)
        report = verify_presentation(bad, d)
        assert not report.ok
        assert any("weights" in p or "zero" in p for p in report.problems)

    def test_weight_row_vanishing_on_support_is_rejected_with_the_cones_orders(self):
        # W's stabilizer at the vertex is infinite, but the orders are the
        # cone's, those of ker beta's torus; the broken W is named instead
        d = cube_datum()
        pres = synthesize(d)
        vertex = d.vertices[0]
        rows = [list(r) for r in pres.weights]
        for j in range(pres.N):
            if j not in vertex.active:
                rows[0][j] = 0
        bad = SpherePresentation(pres.N, pres.beta, tuple(map(tuple, rows)), pres.deformation)
        support = [j for j in range(pres.N) if j not in vertex.active]
        assert oracles.stabilizer_orders(bad.weights, [support]) == [None]
        report = verify_presentation(bad, d)
        assert orders_by_point(report) == orders_by_point(verify_presentation(pres, d))
        assert "beta @ weights^T is not zero: weight rows 0" in report.problems
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
    got = oracles.stabilizer_orders(weights, supports)
    assert got == [stabilizer_order(weights, support) for support in supports]
    assert got == [minor_gcd_order(weights, support) for support in supports]


def counted_smith(monkeypatch):
    """The list that collects one entry per ``lattice._smith`` call."""
    calls = []
    smith = lattice._smith

    def counted(s, rows=(), cols=()):
        calls.append(len(rows) + len(cols))
        return smith(s, rows, cols)

    monkeypatch.setattr(lattice, "_smith", counted)
    return calls


def counted_smith_diagonal(monkeypatch):
    """The list that collects the result of each Smith diagonal verify takes."""
    diagonals = []
    smith_diagonal = lattice.smith_diagonal

    def counted(mat):
        diagonals.append(smith_diagonal(mat))
        return diagonals[-1]

    monkeypatch.setattr(reduction, "smith_diagonal", counted)
    return diagonals


def weight_mutant(pres, r, j):
    """The presentation with 1 added to W[r][j]."""
    rows = [list(row) for row in pres.weights]
    rows[r][j] += 1
    return SpherePresentation(pres.N, pres.beta, rows, pres.deformation)


SATURATION = "weight matrix is not a saturated kernel basis"


def benchmark_hexagon():
    """ngon6 of the benchmark's polygon series: six evenly spaced vertices
    u of the disc-7 hull, facet (u, 0) with label and offset 1 + (the
    index of u on the hull) mod 3, reeb e_2."""
    ring = [(0, (-6, -1)), (2, (-4, -5)), (5, (4, -5)), (8, (6, 1)), (10, (4, 5)), (13, (-4, 5))]
    facets = tuple(LabeledFacet((x, y, 0), 1 + i % 3, F(1 + i % 3)) for i, (x, y) in ring)
    return validate_datum(LabeledPolytope(3, facets), (0, 0, 1))


def labeled_six_cube():
    """[0,1]^6 at reeb e_7, facet i labeled 1 + i mod 3."""
    return labeled_cube(6, [1 + i % 3 for i in range(12)], identity(7))


def supports_of(report, N):
    """The coordinate support, in beta's columns, of each reduced vertex
    verify checked."""
    return [[j for j in range(N) if j not in v.active] for v, _ in report.local_freeness]


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
        assert max(oracles.stabilizer_orders(pres.weights, supports)) > 1
        assert_orders_match_the_oracles(pres.weights, supports)
        r, j = rng.randrange(len(pres.weights)), rng.randrange(pres.N)
        assert_orders_match_the_oracles(weight_mutant(pres, r, j).weights, supports)

    def test_support_wider_than_a_vertex_is_refused(self):
        with pytest.raises(ValueError, match="wider"):
            oracles.stabilizer_orders([[1, 2, 3]], [[0, 1], [0, 1, 2]])

    def test_degenerate_reduced_vertex_of_k_columns(self):
        # beta[0][3] + 1 on the hexagon of the golden mutations family
        # (ngon(6)): the reduced polytope has a vertex on 3 of 6 facets, so
        # its support has k = 3 columns and its order is |det W_S| alone;
        # verify checks no vertex of another cone, so the support is read
        # off the walk here
        hull = [(-4, -3), (-3, -4), (3, -4), (4, 3), (3, 4), (-3, 4)]
        facets = tuple(
            LabeledFacet((x, y, 0), 1 + i % 3, F(1 + i % 3)) for i, (x, y) in enumerate(hull)
        )
        d = validate_datum(LabeledPolytope(3, facets), (0, 0, 1))
        pres = synthesize(d)
        beta = [list(row) for row in pres.beta]
        beta[0][3] += 1
        mutant = SpherePresentation(pres.N, beta, pres.weights, pres.deformation)
        [vertex] = [v for v in walked_vertices(*reduced_polytope(mutant)) if len(v.active) == 3]
        support = [j for j in range(pres.N) if j not in vertex.active]
        assert vertex.coords == (F(12, 37), F(0), F(36, 37)) and support == [0, 1, 5]
        w_support = [[row[j] for j in support] for row in pres.weights]
        order = abs(cofactor_det(w_support))
        assert oracles.stabilizer_orders(pres.weights, [support]) == [order] == [24]

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

    def test_saturation_needs_no_smith_form_on_parabola_12(self, monkeypatch):
        # the maximal minors off echelon(W) have gcd 1 for W and for its
        # row mutant, so both are proved saturated with no Smith normal
        # form; the mutant fails beta @ W^T = 0
        d = parabola(12)
        pres = synthesize(d)
        calls = counted_smith(monkeypatch)
        for p, ok in ((pres, True), (weight_mutant(pres, 0, 0), False)):
            assert verify_presentation(p, d).ok is ok
        assert calls == []

    def test_minors_with_a_common_factor_take_one_smith_form(self, monkeypatch):
        # W[0][1] + 1 on the labeled square doubles W's second entry: W is
        # off ker beta, and its maximal minors off echelon(W) are even, so
        # W's Smith diagonal is taken once and finds W unsaturated; W is one
        # row, whose diagonal is its content, with no Smith loop; the
        # orders stay the cone's
        d = labeled_cube(2, [1, 2, 3, 1], identity(3))
        pres = synthesize(d)
        mutant = weight_mutant(pres, 0, 1)
        calls = counted_smith(monkeypatch)
        diagonals = counted_smith_diagonal(monkeypatch)
        report = verify_presentation(mutant, d)
        assert SATURATION in report.problems
        assert diagonals == [[2]] and calls == []
        assert orders_by_point(report) == orders_by_point(verify_presentation(pres, d))

    def test_another_cone_reads_saturation_off_one_elimination(self, monkeypatch):
        # beta[0][3] + 1 on parabola(12) moves the cone, so no vertex is
        # checked; W's elimination gives maximal minors of gcd 1 and no
        # Smith diagonal is taken, while W with a row doubled, or a row
        # repeated (rank k - 1), takes one and is flagged
        d = parabola(12)
        pres = synthesize(d)
        beta = [list(row) for row in pres.beta]
        beta[0][3] += 1
        calls = counted_smith(monkeypatch)
        diagonals = counted_smith_diagonal(monkeypatch)
        report = verify_presentation(SpherePresentation(pres.N, beta, pres.weights, pres.deformation), d)
        assert not report.ok and report.local_freeness == ()
        assert SATURATION not in report.problems
        assert diagonals == [] and calls == []
        doubled = [[2 * x for x in pres.weights[0]], *pres.weights[1:]]
        repeated = [pres.weights[1], *pres.weights[1:]]
        for weights, diagonal in ((doubled, [1] * (len(doubled) - 1) + [2]), (repeated, None)):
            diagonals.clear()
            report = verify_presentation(SpherePresentation(pres.N, beta, weights, pres.deformation), d)
            assert SATURATION in report.problems
            assert len(diagonals) == 1 and diagonal in (None, diagonals[0])
        assert len(calls) == 2  # k = 9 rows: the Smith loop, once per flagged W

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


def counted_eliminations(monkeypatch):
    """The list that collects the row count of each ``echelon`` and
    ``_hermite`` call verify makes, as ("echelon" or "hermite", rows)."""
    calls = []
    echelon, hermite = lattice.echelon, lattice._hermite

    def counted_echelon(mat):
        calls.append(("echelon", len(mat)))
        return echelon(mat)

    def counted_hermite(h, mats=()):
        calls.append(("hermite", len(h)))
        return hermite(h, mats)

    for module in (lattice, geometry, reduction):
        monkeypatch.setattr(module, "echelon", counted_echelon)
    for module in (lattice, reduction):
        monkeypatch.setattr(module, "_hermite", counted_hermite)
    return calls


class TestOrdersOffTheCone:
    """verify reads each stabilizer order off the cone: t_v prod l_i g_v / c
    per vertex (``reduction._vertex_orders``), with c the index of beta's
    image; the orders of W's support minors (``oracles.stabilizer_orders``)
    are the reference wherever W is a saturated basis of ker beta."""

    @settings(deadline=None, max_examples=60)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS))
    def test_equal_to_the_orders_of_any_saturated_kernel_basis(self, rng, kind):
        # every kind in a random lattice basis, W replaced by U W for a
        # random unimodular U, the columns permuted and the deformation
        # moved, at times so far that the slice breaks
        d = generated(rng, kind)
        pres = synthesize(d)
        k = len(pres.weights)
        weights = matmul(random_unimodular(rng, k), pres.weights) if k else []
        a = list(pres.deformation)
        for j in rng.sample(range(pres.N), rng.randint(0, 2)):
            a[j] = rng.choice([a[j] + 1, -a[j], a[j] + F(rng.randint(-3, 3), rng.randint(1, 3))])
        perm = rng.sample(range(pres.N), pres.N)
        bad = permuted(SpherePresentation(pres.N, pres.beta, weights, a), perm)
        report = verify_presentation(bad, d)
        orders = [order for _, order in report.local_freeness]
        assert orders == oracles.stabilizer_orders(bad.weights, supports_of(report, pres.N))
        assert SATURATION not in report.problems
        if k:
            # a row doubled keeps W in ker beta, but not saturated
            doubled = [[2 * x for x in bad.weights[0]], *bad.weights[1:]]
            flagged = SpherePresentation(bad.N, bad.beta, doubled, bad.deformation)
            assert SATURATION in verify_presentation(flagged, d).problems

    @pytest.mark.parametrize(
        "datum, index",
        [(labeled_six_cube, 36), (benchmark_hexagon, 12), (lambda: parabola(62), 6)],
        ids=["labeled-6-cube", "ngon6", "parabola-62"],
    )
    def test_named_examples_with_a_nontrivial_index(self, datum, index):
        # c > 1, so g_v / c is read at every vertex
        d = datum()
        pres = synthesize(d)
        assert prod(lattice.smith_diagonal(pres.beta)) == index
        report = verify_presentation(pres, d)
        orders = [order for _, order in report.local_freeness]
        assert orders == oracles.stabilizer_orders(pres.weights, supports_of(report, pres.N))
        assert report.ok

    @pytest.mark.parametrize(
        "datum", [labeled_six_cube, lambda: weighted_simplex((1, 2, 3))], ids=["6-cube", "sphere"]
    )
    def test_no_elimination_per_vertex_and_none_for_a_trivial_torus(self, monkeypatch, datum):
        # one Hermite form of beta and one elimination of W for the 64
        # vertices; no Smith diagonal where W's maximal minors off its
        # elimination have gcd 1, and no work at all when k = 0
        d = datum()
        pres = synthesize(d)
        k, n1 = len(pres.weights), pres.ambient_dim
        calls = counted_eliminations(monkeypatch)
        smith = counted_smith(monkeypatch)
        diagonals = counted_smith_diagonal(monkeypatch)
        assert verify_presentation(pres, d).ok
        expected = [("hermite", n1), ("echelon", k)] if k else []
        assert calls == expected and smith == [] and diagonals == []

