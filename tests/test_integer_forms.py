"""A validated datum keeps its integer form, and later stages read it.

Each vertex is its primitive integer ray over its height <ray, reeb>, and
no stage, document or command reads its Fraction coordinates; the datum
computes its cone normals once for classify, synthesize and verify; a face
with one facet reads its holonomy off the content of its generator row.
"""

import ast
import importlib
import io
import json
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from generators import (
    KINDS,
    generated,
    labeled_cube,
    parabola,
    perturbed,
    random_unimodular,
    simplex_product,
    weighted_simplex_product,
)
from toricontact import cli, documents, geometry, lattice, polytope, reduction
from toricontact.classify import validate_datum
from toricontact.lattice import FiniteAbelianGroup
from toricontact.polytope import Vertex, sort_vertices
from toricontact.spheres import weighted_simplex

F = Fraction
# the package namespace binds ``classify`` to the function, not the module
classify_module = importlib.import_module("toricontact.classify")
classify = classify_module.classify
MODULES = (polytope, classify_module, reduction, documents, geometry, lattice)

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
            # an int exactly when reeb is integral
            assert type(h) is (int if d.mode == "rational" else F)
            assert all(type(x) is F for x in v.coords)
            assert v.coords == tuple(F(x) / h for x in ray)
            # the ray and height read back off the coords give an equal vertex
            ray_back, h_back = oracles.ray_and_height(v.coords)
            h_back = int(h_back) if d.mode == "rational" else h_back
            again = Vertex(ray_back, h_back, v.active, v.cone_index)
            assert again == v and hash(again) == hash(v) and repr(again) == repr(v)
            assert again.ray == ray and again.height == h

    def test_coords_are_built_on_each_read(self):
        v = validate_datum(*_orthant_triangle()).vertices[1]
        assert v.coords is not v.coords and v.coords == (0, F(1, 2), 0)
        assert (v.ray, v.height) == ((0, 1, 0), 2)
        assert repr(v) == "Vertex(ray=(0, 1, 0), height=2, active=frozenset({0, 2}), cone_index=1)"

    def test_a_vertex_at_a_fraction_height(self):
        v = Vertex((0, 1), F(3, 2), frozenset({0}))
        assert v.coords == (0, F(2, 3)) and all(type(x) is F for x in v.coords)
        assert oracles.ray_and_height(v.coords) == ((0, 1), F(3, 2))
        assert oracles.ray_and_height((F(1, 2), F(1, 4))) == ((2, 1), 4)


HEIGHTS = st.one_of(st.integers(1, 12), st.fractions(min_value=F(1, 12), max_value=12))


class TestSortVertices:
    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(st.lists(st.integers(-6, 6), min_size=3, max_size=3), HEIGHTS),
            max_size=12,
        )
    )
    def test_equals_sorting_by_coords(self, pairs):
        # int and Fraction heights, mixed, and points met twice keep their order
        verts = [Vertex(tuple(ray), h, frozenset()) for ray, h in pairs]
        assert sort_vertices(verts) == sorted(verts, key=lambda v: v.coords)

    @settings(deadline=None, max_examples=40)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS), st.booleans())
    def test_puts_shuffled_vertices_back_in_the_walk_order(self, rng, kind, fraction_heights):
        d = generated(rng, kind)
        if fraction_heights:
            d = fractional(rng, d)
        verts = list(d.vertices)
        rng.shuffle(verts)
        assert sort_vertices(verts) == list(d.vertices)
        assert sort_vertices(verts) == sorted(verts, key=lambda v: v.coords)


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


def _w_mutated(pres):
    """The presentation with 1 added to W[0][0], or to beta[0][0] when the
    reduction torus is trivial: another cone, which verify names by facet."""
    beta, weights = [list(r) for r in pres.beta], [list(r) for r in pres.weights]
    (weights or beta)[0][0] += 1
    return reduction.SpherePresentation(pres.N, beta, weights, pres.deformation)


MUTANTS = {"deformed": _deformed, "permuted": _permuted}

PIPELINE_DATA = {
    "labeled 4-cube": lambda: labeled_cube(
        4, [1 + i % 3 for i in range(8)], random_unimodular(Random(4), 5)
    ),
    "weighted sphere": lambda: weighted_simplex((2, 3, 5, 7)),
    "parabola": lambda: parabola(10),
    "simplex product": lambda: simplex_product(Random(1)),
    "weighted product": lambda: weighted_simplex_product(Random(2)),
}


def _no_coords(monkeypatch):
    """Make every read of ``Vertex.coords`` raise."""

    def refuse(vertex):
        raise AssertionError("Vertex.coords read")

    monkeypatch.setattr(Vertex, "coords", property(refuse))


@pytest.mark.parametrize("mutant", list(MUTANTS.values()), ids=list(MUTANTS))
@pytest.mark.parametrize("make", list(PIPELINE_DATA.values()), ids=list(PIPELINE_DATA))
class TestStagesReadTheValidatedIntegers:
    """Over parse, classify, synthesize and two verifications, as the
    benchmark runs them: the second presentation is a mutant."""

    def test_cone_normals_run_once(self, monkeypatch, make, mutant):
        text = json.dumps(documents.datum_to_document(make()))
        calls = spied(monkeypatch, "cone_normals", polytope.cone_normals)
        datum = documents.parse_datum(text)
        classify(datum)
        pres = reduction.synthesize(datum)
        assert reduction.verify_presentation(pres, datum).ok
        reduction.verify_presentation(mutant(pres), datum)
        assert len(calls) == 1

    def test_no_stage_after_validation_rescales_vertex_coordinates(
        self, monkeypatch, make, mutant
    ):
        # no stage and no document reads a vertex's coords, so none can
        # rescale them: each works on the integer ray and height
        text = json.dumps(documents.datum_to_document(make()))
        _no_coords(monkeypatch)
        datum = documents.parse_datum(text)
        classification = classify(datum)
        pres = reduction.synthesize(datum)
        mutants = (mutant(pres), _w_mutated(pres))
        reports = [reduction.verify_presentation(p, datum) for p in (pres, *mutants)]
        assert reports[0].ok
        documents.datum_to_document(datum, emit_vertices=True)
        documents.classification_to_document(classification)
        documents.presentation_to_document(pres)
        for report in reports:
            documents.verification_to_document(report)


def _cli_text(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main([*argv, "--output", "text"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("make", list(PIPELINE_DATA.values()), ids=list(PIPELINE_DATA))
def test_cli_text_reads_no_vertex_coords(capsys, monkeypatch, tmp_path, make):
    """``validate --emit-vertices`` and ``verify`` print each vertex as the
    Fraction reference writes it, with ``Vertex.coords`` refusing every read."""
    datum = make()
    text = json.dumps(documents.datum_to_document(datum))
    pres = _w_mutated(reduction.synthesize(datum))
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(documents.presentation_to_document(pres)))
    reference = oracles.verification_document(reduction.verify_presentation(pres, datum))
    vertices = oracles.datum_document(datum)["vertices"]
    _no_coords(monkeypatch)

    code, out = _cli_text(capsys, monkeypatch, ["validate", "--emit-vertices"], text)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("  vertex")] == [
        f"  vertex ({', '.join(v)})" for v in vertices
    ]
    code, out = _cli_text(capsys, monkeypatch, ["verify", "--presentation", str(path)], text)
    assert code == (0 if reference["ok"] else 1)
    expected = [f"  {e['kind']} vertex ({', '.join(e['vertex'])})" for e in reference["vertex_diff"]]
    for e in reference["local_freeness"]:
        order = e["stabilizer_order"]
        shown = "infinite" if order is None else order
        expected.append(f"  vertex ({', '.join(e['vertex'])}): stabilizer order {shown}")
    assert [line for line in out.splitlines() if "vertex" in line] == expected


def test_no_module_reads_vertex_coords():
    """Only the ``Vertex.coords`` property builds a vertex's Fraction
    coordinates: no module of the package reads ``.coords``."""
    src = Path(polytope.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "coords"
    ]
    assert not readers


PRESENTATIONS = {"real": lambda pres: pres, **MUTANTS, "W-mutated": _w_mutated}


class TestDocumentsMatchTheFractionWriter:
    """Vertices written from rays and heights are the documents that
    ``str(Fraction)`` of their coords gives (``oracles``)."""

    @settings(deadline=None, max_examples=60)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS), st.booleans())
    def test_datum_document_with_vertices(self, rng, kind, fraction_heights):
        d = generated(rng, kind)
        if fraction_heights:
            d = fractional(rng, d)
        doc = documents.datum_to_document(d, emit_vertices=True)
        assert doc == oracles.datum_document(d)
        assert doc["mode"] == d.mode

    @settings(deadline=None, max_examples=60)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(KINDS),
        st.sampled_from(list(PRESENTATIONS)),
    )
    def test_verification_document(self, rng, kind, which):
        d = generated(rng, kind)
        pres = PRESENTATIONS[which](reduction.synthesize(d))
        report = reduction.verify_presentation(pres, d)
        assert documents.verification_to_document(report) == oracles.verification_document(report)
        assert report.ok == (which in ("real", "permuted"))
        assert all(isinstance(v, Vertex) for v, _ in report.local_freeness)
        assert all(isinstance(v, Vertex) for _, v in report.vertex_diff)

    @settings(deadline=None, max_examples=30)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS))
    def test_verification_document_at_fraction_heights(self, rng, kind):
        # the datum's own presentation against its zero-offset cone form
        # sliced at a fractional reeb, the same cone: the datum's vertices
        # that moved are missing, at Fraction heights, and the reduced ones
        # extra, at int heights
        d = generated(rng, kind)
        pres = reduction.synthesize(d)
        cone_form = reduction.reduced_polytope(pres)[0]
        other = validate_datum(cone_form, fractional(rng, d).reeb, "irrational")
        assert other.cone_normals == d.cone_normals
        report = reduction.verify_presentation(pres, other)
        assert documents.verification_to_document(report) == oracles.verification_document(report)
        kinds = [kind for kind, _ in report.vertex_diff]
        assert kinds == sorted(kinds, reverse=True)
        assert other.mode == "rational" or "missing" in kinds


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

        def counted_smith(s, *transforms):
            rows.append(len(s))
            return smith(s, *transforms)

        def counted_face(generators, face, *shared):
            sizes.append(len(face))
            return face_holonomy(generators, face, *shared)

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

