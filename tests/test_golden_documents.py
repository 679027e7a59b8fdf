"""Golden documents: the classification, presentation and verification
documents of a small fixed corpus, byte for byte.

Each family of the corpus is hashed (sha256 over the documents as the CLI
prints them, ``json.dumps(doc, indent=2)``) and compared with the digests
below, so a refactor that changes any output byte fails here.  After a
deliberate change of output, print the new digests with

    PYTHONPATH=src python tests/test_golden_documents.py

and say in the change why they moved.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from toricontact.classify import classify, validate_datum
from toricontact.documents import (
    classification_to_document,
    presentation_to_document,
    verification_to_document,
)
from toricontact.polytope import LabeledFacet, LabeledPolytope
from toricontact.reduction import SpherePresentation, synthesize, verify_presentation
from toricontact.spheres import weighted_simplex

from generators import parabola

GOLDEN = {
    "cubes": "f594ef15136df980785a37063f8c86572284c1c5f60ae45082daa58456fa831f",
    "ngons": "c7843fe470fd797a2ca66abb78891f267b2bb67ff112b9e68fed8948ee8ca985",
    "spheres": "6a98a338a3921173a44c4ee9b0bcce09215960d0e3d00a62d89c70f239a4bc69",
    "mutations": "fb3766cd2c2a303aaa74033da3a0ab8403b1985c125b537cff4a739ce1139933",
    "parabola": "e20ba04bce118b9062514dd72f0c5495488fe595cd3f90d6557c79c14c260f66",
    "irrational-square": "ac35618a5ad23ff9759885d4f7e1f7f08259c430229874cabb1be6c4175e731d",
}


def unit(i, dim, sign=1):
    return tuple(sign * int(i == j) for j in range(dim))


def cube(n):
    """[0,1]^n at height 1 (reeb e_n), facet i labeled 1 + i mod 3."""
    dim = n + 1
    normals = [unit(i, dim, -1) for i in range(n)]
    normals += [tuple(int(j == i) - int(j == n) for j in range(dim)) for i in range(n)]
    facets = tuple(LabeledFacet(p, 1 + i % 3) for i, p in enumerate(normals))
    return validate_datum(LabeledPolytope(dim, facets), unit(n, dim))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def disc_hull(radius):
    """Vertices, counterclockwise, of the hull of the primitive vectors of
    length at most ``radius``."""
    points = sorted(
        (x, y)
        for x, y in product(range(-radius, radius + 1), repeat=2)
        if (x or y) and x * x + y * y <= radius * radius and gcd(x, y) == 1
    )
    lower, upper = [], []
    for chain, seq in ((lower, points), (upper, points[::-1])):
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def ngon(count):
    """{<x, u> <= 1} over ``count`` evenly spaced vertices u of the disc-5
    hull: facet (u, 0) with label m = 1 + i mod 3 and offset m, reeb e_2."""
    hull = disc_hull(5)
    ring = [hull[(i * len(hull)) // count] for i in range(count)]
    facets = tuple(
        LabeledFacet((x, y, 0), 1 + i % 3, Fraction(1 + i % 3))
        for i, (x, y) in enumerate(ring)
    )
    return validate_datum(LabeledPolytope(3, facets), (0, 0, 1))


def row_mutants(pres):
    """The presentations that add 1 to the last entry of W's first, middle
    or last row."""
    for r in sorted({0, len(pres.weights) // 2, len(pres.weights) - 1}):
        rows = [list(row) for row in pres.weights]
        rows[r][-1] += 1
        yield SpherePresentation(pres.N, pres.beta, tuple(map(tuple, rows)), pres.deformation)


def spheres(max_n=3):
    """Weighted spheres with gcd-1 weights in 1..3 and n <= max_n."""
    return [
        weighted_simplex(w)
        for n in range(1, max_n + 1)
        for w in product(range(1, 4), repeat=n + 1)
        if gcd(*w) == 1
    ]


def mutants(pres):
    """Every presentation that adds 1 to one entry of W, of the
    deformation vector, or of beta's first row."""
    for r, j in product(range(len(pres.weights)), range(pres.N)):
        rows = [list(row) for row in pres.weights]
        rows[r][j] += 1
        yield SpherePresentation(pres.N, pres.beta, tuple(map(tuple, rows)), pres.deformation)
    for j in range(pres.N):
        a = list(pres.deformation)
        a[j] += 1
        yield SpherePresentation(pres.N, pres.beta, pres.weights, tuple(a))
    for j in range(pres.N):
        beta = [list(row) for row in pres.beta]
        beta[0][j] += 1
        yield SpherePresentation(pres.N, tuple(map(tuple, beta)), pres.weights, pres.deformation)


def square(reeb):
    """|x| <= 1, |y| <= 1 in the plane <alpha, reeb> = 1."""
    facets = tuple(
        LabeledFacet(p, 1, Fraction(1))
        for p in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    )
    return validate_datum(LabeledPolytope(3, facets), reeb, mode="irrational")


def _text(doc):
    return json.dumps(doc, indent=2).encode() + b"\n"


def _pipeline_documents(data):
    for d in data:
        pres = synthesize(d)
        yield classification_to_document(classify(d))
        yield presentation_to_document(pres)
        yield verification_to_document(verify_presentation(pres, d))


def family_documents(name):
    if name == "cubes":
        return _pipeline_documents(cube(n) for n in range(1, 5))
    if name == "ngons":
        return _pipeline_documents(ngon(count) for count in range(4, 9))
    if name == "spheres":
        return _pipeline_documents(spheres())
    if name == "mutations":
        # the smaller half of the corpus keeps this family near a second
        data = [cube(n) for n in range(1, 4)] + [ngon(count) for count in range(4, 7)]
        data += spheres(max_n=2)
        return (
            verification_to_document(verify_presentation(mutant, d))
            for d in data
            for mutant in mutants(synthesize(d))
        )
    if name == "parabola":
        # k = N - 3 torus rows, so each vertex's stabilizer block is wide
        docs = []
        for count in (18, 32):
            d = parabola(count)
            pres = synthesize(d)
            docs += _pipeline_documents([d])
            docs += (
                verification_to_document(verify_presentation(m, d)) for m in row_mutants(pres)
            )
        return docs
    if name == "irrational-square":
        # the presentation of the square at reeb e_2 checked against the same
        # square at reeb e_2 / 2, where cone_over is not integral
        pres = synthesize(square((0, 0, 1)))
        d = square((0, 0, Fraction(1, 2)))
        return [verification_to_document(verify_presentation(pres, d))]
    raise KeyError(name)


def family_digest(name):
    h = hashlib.sha256()
    for doc in family_documents(name):
        h.update(_text(doc))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_documents_match_golden_digest(name):
    assert family_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for family in GOLDEN:
        print(f'    "{family}": "{family_digest(family)}",')
