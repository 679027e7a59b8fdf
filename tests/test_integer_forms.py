"""A validated datum keeps its integer form, and later stages read it.

Each vertex is its primitive integer ray over its height <ray, reeb>, with
its Fraction coordinates built only when read; the datum computes its cone
normals once for classify, synthesize and verify; a face with one facet
reads its holonomy off the content of its generator row.
"""

import importlib
import json
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from generators import (
    change_basis,
    cube_or_simplex,
    labeled_cube,
    parabola,
    perturbed,
    random_sphere,
    random_unimodular,
    simplex_product,
    weighted_simplex_product,
)
from toricontact import documents, geometry, lattice, polytope, reduction
from toricontact.classify import validate_datum
from toricontact.lattice import FiniteAbelianGroup
from toricontact.polytope import Vertex
from toricontact.spheres import weighted_simplex

F = Fraction
# the package namespace binds ``classify`` to the function, not the module
classify_module = importlib.import_module("toricontact.classify")
classify = classify_module.classify
MODULES = (polytope, classify_module, reduction, documents, geometry, lattice)

KINDS = ["cube", "simplex", "parabola", "product", "weighted", "sphere"]


def generated(rng, kind):
    """A datum of one kind of ``tests/generators.py``, in a random basis."""
    if kind in ("cube", "simplex"):
        d = cube_or_simplex(rng, kind == "cube")
    elif kind == "parabola":
        d = parabola(2 * rng.randint(2, 8))
    elif kind == "product":
        d = simplex_product(rng)
    elif kind == "weighted":
        d = weighted_simplex_product(rng)
    else:
        d = random_sphere(rng)
    return change_basis(d, random_unimodular(rng, d.n + 1))


def fractional(rng, d):
    """The datum's polytope at k reeb + e, e of denominator 2..5 and k past
    every -<v, e>, in irrational mode: the same rays at Fraction heights."""
    q = rng.randint(2, 5)
    e = [F(rng.randint(-2, 2), q) for _ in d.reeb]
    worst = max(-sum(x * y for x, y in zip(v.coords, e)) for v in d.vertices)
    k = max(int(worst) + 1, 1)
    return validate_datum(d.polytope, [k * r + x for r, x in zip(d.reeb, e)], "irrational")


class TestVertexRays:
    @settings(deadline=None, max_examples=120)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(KINDS),
        st.sampled_from(["walked", "resliced", "fractional"]),
    )
    def test_each_vertex_is_its_primitive_ray_over_its_height(self, rng, kind, how):
        d = generated(rng, kind)
        if how == "resliced":
            d = perturbed(rng, d)
        elif how == "fractional":
            d = fractional(rng, d)
        for v in d.vertices:
            ray, h = v.ray, v.height
            assert type(ray) is tuple and all(type(x) is int for x in ray) and gcd(*ray) == 1
            assert h == sum(x * r for x, r in zip(ray, d.reeb)) > 0
            assert type(h) is int or d.mode == "irrational"
            assert all(type(x) is F for x in v.coords)
            assert v.coords == tuple(F(x) / h for x in ray)
            again = Vertex(v.coords, v.active, v.cone_index)
            assert again == v and hash(again) == hash(v) and repr(again) == repr(v)
            assert again.ray == ray and again.height == h

    def test_coords_are_built_on_first_read_and_kept(self):
        v = validate_datum(*_orthant_triangle()).vertices[1]
        with pytest.raises(AttributeError):
            v._coords
        assert v.coords is v.coords == (0, F(1, 2), 0)
        assert (v.ray, v.height) == ((0, 1, 0), 2)

    def test_a_vertex_from_its_coords_keeps_them_as_given(self):
        v = Vertex((0, F(2, 3)), frozenset({0}))
        assert v.coords == (0, F(2, 3)) and type(v.coords[0]) is int
        assert (v.ray, v.height) == ((0, 1), F(3, 2))
        assert Vertex((F(1, 2), F(1, 4)), frozenset()).height == 4


def _orthant_triangle():
    """The orthant simplex at reeb (1, 2, 1): vertex (0, 1/2, 0) has height 2."""
    facets = [polytope.LabeledFacet(tuple(-int(i == j) for j in range(3))) for i in range(3)]
    return polytope.LabeledPolytope(3, tuple(facets)), (1, 2, 1)


def spied(monkeypatch, name, real):
    """Every toricontact module's binding of ``real`` replaced by a spy;
    returns the list that collects each call's arguments."""
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    for module in MODULES:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)
    return calls


def _deformed(pres):
    """The presentation with 1 added to its first deformation entry."""
    a = list(pres.deformation)
    a[0] += 1
    return reduction.SpherePresentation(pres.N, pres.beta, pres.weights, a)


def _permuted(pres):
    """The presentation with its first two columns swapped."""
    perm = [1, 0, *range(2, pres.N)]
    beta = [[row[j] for j in perm] for row in pres.beta]
    weights = [[row[j] for j in perm] for row in pres.weights]
    a = [pres.deformation[j] for j in perm]
    return reduction.SpherePresentation(pres.N, beta, weights, a)


PIPELINE_DATA = {
    "labeled 4-cube": lambda: labeled_cube(
        4, [1 + i % 3 for i in range(8)], random_unimodular(Random(4), 5)
    ),
    "weighted sphere": lambda: weighted_simplex((2, 3, 5, 7)),
    "parabola": lambda: parabola(10),
    "simplex product": lambda: simplex_product(Random(1)),
    "weighted product": lambda: weighted_simplex_product(Random(2)),
}


@pytest.mark.parametrize("mutant", [_deformed, _permuted], ids=["deformed", "permuted"])
@pytest.mark.parametrize("make", list(PIPELINE_DATA.values()), ids=list(PIPELINE_DATA))
class TestStagesReadTheValidatedIntegers:
    """Over parse, classify, synthesize and two verifications, as the
    benchmark runs them: the second presentation is a mutant."""

    def test_cone_normals_run_at_most_twice(self, monkeypatch, make, mutant):
        text = json.dumps(documents.datum_to_document(make()))
        calls = spied(monkeypatch, "cone_normals", polytope.cone_normals)
        datum = documents.parse_datum(text)
        classify(datum)
        pres = reduction.synthesize(datum)
        assert reduction.verify_presentation(pres, datum).ok
        reduction.verify_presentation(mutant(pres), datum)
        assert 1 <= len(calls) <= 2

    def test_no_stage_after_validation_rescales_vertex_coordinates(
        self, monkeypatch, make, mutant
    ):
        datum = documents.parse_datum(json.dumps(documents.datum_to_document(make())))
        calls = spied(monkeypatch, "over_common_denominator", lattice.over_common_denominator)
        classify(datum)
        pres = reduction.synthesize(datum)
        # classify and synthesize read each vertex's ray and height only
        assert not any(hasattr(v, "_coords") for v in datum.vertices)
        reports = [reduction.verify_presentation(p, datum) for p in (pres, mutant(pres))]
        # a vertex keeps its coords tuple once built, and the reports hold
        # those of the datum's and the reduced vertices: none was rescaled
        points = [v.coords for v in datum.vertices]
        for report in reports:
            points += [coords for coords, _ in report.local_freeness]
            points += [coords for _, coords in report.vertex_diff]
        assert calls and not any(args[0] is p for args in calls for p in points)


class TestOneFacetFaces:
    @settings(max_examples=300)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=5))
    @example([0, 0])
    @example([6, -4, 10])
    def test_one_row_holonomy_is_the_minor_gcd_oracle(self, row):
        expected = oracles.minor_gcd_invariant_factors([row])
        got = classify_module._face_holonomy([row], [0])
        assert got == FiniteAbelianGroup(tuple(d for d in expected if d > 1))

    def test_weighted_sphere_takes_no_one_row_smith_form(self, monkeypatch):
        d = weighted_simplex((2, 3, 5, 7))
        expected = oracles.classify(d)
        rows, sizes = [], []
        smith, face_holonomy = lattice._smith, classify_module._face_holonomy

        def counted_smith(row_mats, col_mats):
            rows.append(len(row_mats[0]))
            return smith(row_mats, col_mats)

        def counted_face(generators, face):
            sizes.append(len(face))
            return face_holonomy(generators, face)

        monkeypatch.setattr(lattice, "_smith", counted_smith)
        monkeypatch.setattr(classify_module, "_face_holonomy", counted_face)
        report = classify(d)
        # one-facet faces reach the Smith branch, and read their content
        assert 1 in sizes and rows and 1 not in rows
        assert report == expected

    def test_one_facet_faces_match_the_oracle_on_every_kind(self):
        rng = Random(7)
        for kind in KINDS:
            d = generated(rng, kind)
            generators = classify_module._facet_generators(d)[0]
            for face in classify(d).per_face:
                if len(face.face) == 1:
                    (i,) = face.face
                    factors = oracles.minor_gcd_invariant_factors([generators[i]])
                    group = FiniteAbelianGroup(tuple(x for x in factors if x > 1))
                    assert face.holonomy == group, kind

