"""The classification document is written from integers.

``classify`` keeps each sample point as integer sums over one denominator,
and ``classification_to_document`` writes each distinct value from those
with one gcd per call and each holonomy group's order and name once per
group object.
These tests hold the text to what ``str(Fraction)`` and the Fraction-based
face loop of ``tests/oracles.py`` give.
"""

import json
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from generators import labeled_cube, random_datum, random_unimodular
from toricontact.classify import FaceInvariants, classify
from toricontact import documents
from toricontact.documents import _rationals_text, classification_to_document
from toricontact.lattice import FiniteAbelianGroup
from toricontact.spheres import weighted_simplex


def dumped(report) -> str:
    """The document as the CLI prints it."""
    return json.dumps(classification_to_document(report), indent=2)


@settings(max_examples=500)
@given(st.lists(st.integers(), max_size=4), st.integers(min_value=1))
@example([0], 1)
@example([0, 0], 7)
@example([-6, -1, 6], 3)
@example([-1], 2)
@example([6, 4], 4)
@example([-(10**40) - 1], 10**20)
@example([2**200], 2**199)
def test_rationals_text_is_the_fraction_text(nums, den):
    assert _rationals_text(nums, den, {}) == [str(Fraction(x, den)) for x in nums]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.lists(st.integers(-30, 30), max_size=4), st.integers(1, 12))))
@example([([2, 4], 4), ([4, 2], 4), ([4], 8), ([-3, 3], 3)])
def test_rationals_text_with_a_shared_cache_is_the_fraction_text(calls):
    # the texts of one den are kept apart from those of another
    cache = {}
    for nums, den in calls:
        assert _rationals_text(nums, den, cache) == [str(Fraction(x, den)) for x in nums]


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
def test_document_matches_the_fraction_oracle_on_generated_data(rng, kind):
    d = random_datum(rng, kind)
    doc = classification_to_document(classify(d))
    expected = oracles.classify(d)
    assert json.dumps(doc, indent=2) == dumped(expected)
    points = [f["sample_point"] for f in doc["per_face"]]
    assert points == [[str(x) for x in f.sample_point] for f in expected.per_face]


@pytest.mark.parametrize("n", range(1, 6))
def test_document_matches_the_fraction_oracle_on_labeled_cubes(n):
    # in a random lattice basis the cube's points have negative coordinates
    rng = Random(n)
    labels = [1 + i % 3 for i in range(2 * n)]
    d = labeled_cube(n, labels, random_unimodular(rng, n + 1))
    assert any(x < 0 for v in d.vertices for x in v.coords)
    assert dumped(classify(d)) == dumped(oracles.classify(d))


@settings(deadline=None, max_examples=30)
@given(st.randoms(use_true_random=False), st.integers(1, 4))
def test_each_distinct_value_is_written_once_and_as_the_oracle_writes_it(rng, n):
    labels = [rng.randint(1, 3) for _ in range(2 * n)]
    d = labeled_cube(n, labels, random_unimodular(rng, n + 1))
    report = classify(d)
    written = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(documents, "gcd", lambda x, den: written.append((x, den)) or gcd(x, den))
        doc = classification_to_document(report)
    assert json.dumps(doc, indent=2) == dumped(oracles.classify(d))
    distinct = {(x, f.point_den) for f in report.per_face for x in f.point_sums}
    assert len(written) == len(distinct) and set(written) == distinct


def test_faces_and_documents_share_no_mutable_part():
    report = classify(labeled_cube(3, [1, 2, 3, 1, 2, 3], random_unimodular(Random(3), 4)))
    docs = [classification_to_document(report) for _ in range(2)]
    seen = []

    def walk(node):
        if isinstance(node, (dict, list)):
            seen.append(id(node))
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)

    walk(docs)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize(
    "make",
    [
        lambda: labeled_cube(4, [1 + i % 3 for i in range(8)], random_unimodular(Random(4), 5)),
        lambda: weighted_simplex((2, 3, 5, 7)),
    ],
    ids=["labeled-cube", "weighted-sphere"],
)
def test_each_group_is_one_object_named_once(monkeypatch, make):
    report = classify(make())
    groups = {id(f.holonomy) for f in report.per_face}
    assert len(groups) == len({f.holonomy for f in report.per_face}) < len(report.per_face)
    named = []
    real = FiniteAbelianGroup.__str__
    monkeypatch.setattr(FiniteAbelianGroup, "__str__", lambda g: named.append(g) or real(g))
    classification_to_document(report)
    assert len(named) == len(groups)


@settings(deadline=None, max_examples=20)
@given(st.randoms(use_true_random=False), st.sampled_from(["cube", "simplex", "product"]))
def test_face_from_its_fractions_equals_the_face_from_its_sums(rng, kind):
    for f in classify(random_datum(rng, kind)).per_face:
        sums = oracles.sums_over_denominator(f.sample_point)
        again = FaceInvariants(f.face, f.isotropy_basis, f.holonomy, *sums)
        assert again == f and hash(again) == hash(f) and repr(again) == repr(f)
        assert all(type(x) is Fraction for x in f.sample_point)
