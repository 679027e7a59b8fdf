"""Seeded inputs, independent oracles and the results digest.

Nothing here imports the package: the generators write datum documents
from first principles, and the oracles (cube vertices, face counts, the
Reeb orbit orders of weighted spheres, the expected CLI documents) are
closed formulas, so agreement with the program is a real cross-check.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Item:
    """One datum: its document and what the gate needs to check it."""

    name: str
    text: str
    facets: tuple  # (normal, label, offset) per facet, offset a Fraction
    reeb: tuple
    kind: str  # "cube", "ngon" or "sphere"
    param: tuple  # (n,) for cubes, (N,) for n-gons, the weights for spheres
    mutation: tuple  # two seeded ints that pick the mutated entry

    @property
    def size(self):
        return (len(self.facets), self.param)


def datum_document(ambient, facets, reeb) -> dict:
    """The datum document exactly as the package writes it."""
    return {
        "ambient_dim": ambient,
        "facets": [
            {"normal": list(normal), "label": label, "offset": _rational(offset)}
            for normal, label, offset in facets
        ],
        "reeb": [_rational(x) for x in reeb],
        "mode": "rational",
    }


def _rational(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _item(rng, name, facets, reeb, kind, param) -> Item:
    doc = datum_document(len(reeb), facets, reeb)
    mutation = (rng.randrange(1 << 30), rng.randrange(1 << 30))
    return Item(name, json.dumps(doc), tuple(facets), tuple(reeb), kind, param, mutation)


def unit(i, dim, sign=1) -> tuple:
    return tuple(sign * int(i == j) for j in range(dim))


# -- cube-dims ---------------------------------------------------------------


def cube_items(seed: int, dims) -> list[Item]:
    """[0,1]^n at height 1 (reeb e_n), facet i labeled 1 + i mod 3, with a
    seeded permutation of the n cube coordinates applied to every normal.

    The permutation maps the cube to itself and keeps each facet's place in
    the list, so beta changes by a permutation matrix and W, the LP and the
    work of every stage are the same for every seed.  (Seeded labels moved
    the 6-cube's pipeline time by up to about 17%.)
    """
    rng = random.Random(f"cube-dims/{seed}")
    items = []
    for n in dims:
        dim = n + 1
        order = rng.sample(range(n), n)
        normals = [unit(i, dim, -1) for i in range(n)]
        normals += [tuple(int(j == i) - int(j == n) for j in range(dim)) for i in range(n)]
        facets = [(tuple(p[k] for k in order) + (p[n],), 1 + i % 3, Fraction(0))
                  for i, p in enumerate(normals)]
        items.append(_item(rng, f"cube{n}", facets, unit(n, dim), "cube", (n,)))
    return items


def cube_vertices(n) -> set:
    return {tuple(Fraction(x) for x in bits) + (Fraction(1),) for bits in product((0, 1), repeat=n)}


# -- ngon-facets -------------------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def disc_hull(radius: int) -> list[tuple[int, int]]:
    """Vertices, counterclockwise, of the hull of the primitive vectors
    of length at most ``radius``."""
    points = sorted(
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if (x or y) and x * x + y * y <= radius * radius and gcd(x, y) == 1
    )
    lower, upper = [], []
    for chain, seq in ((lower, points), (upper, points[::-1])):
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


# The eight lattice symmetries of the plane that map the disc hull to itself.
SYMMETRIES = (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (0, 1, 1, 0), (-1, 0, 0, 1), (1, 0, 0, -1), (0, -1, -1, 0),
)


def ngon_items(seed: int, sizes) -> list[Item]:
    """Polygons {<x, u> <= 1}: u runs over N evenly spaced vertices of the
    disc-7 hull, then a seeded lattice symmetry g of the hull is applied.

    Each u is a facet normal (g u, 0) with label m and offset m, reeb e_2;
    the label is fixed by the vertex's place on the hull, 1 + index mod 3.
    The evenly spaced vertices keep the origin strictly inside, so the
    polygon is bounded and every inequality cuts out an edge.  Facets keep
    the order of the hull before g is applied: g changes beta by a
    unimodular factor and leaves the reeb vector fixed, so W, the
    deformation LP and its cost are the same for every seed.  (The label
    arrangement alone moves the 16-gon's pipeline time by up to 2x, so a
    seeded subset or seeded labels would make the facet series measure the
    seed rather than the program.)
    """
    rng = random.Random(f"ngon-facets/{seed}")
    hull = disc_hull(7)
    items = []
    for count in sizes:
        a, b, c, d = rng.choice(SYMMETRIES)
        chosen = [(i * len(hull)) // count for i in range(count)]
        ring = [hull[i] for i in chosen]
        assert all(_cross((0, 0), p, q) > 0 for p, q in zip(ring, ring[1:] + ring[:1]))
        facets = [((a * x + b * y, c * x + d * y, 0), 1 + i % 3, Fraction(1 + i % 3))
                  for i, (x, y) in zip(chosen, ring)]
        items.append(_item(rng, f"ngon{count}", facets, (0, 0, 1), "ngon", (count,)))
    return items


# -- sphere-corpus -----------------------------------------------------------


def weight_vectors(max_entry: int = 6, max_n: int = 3) -> list[tuple[int, ...]]:
    """The acceptance suite's criterion-3 corpus: gcd-1 weights, n <= max_n."""
    return [
        entries
        for n in range(1, max_n + 1)
        for entries in product(range(1, max_entry + 1), repeat=n + 1)
        if gcd(*entries) == 1
    ]


def sphere_facets(w) -> list:
    dim = len(w)
    return [
        (unit(i, dim, -1), gcd(*(w[j] for j in range(dim) if j != i)), Fraction(0))
        for i in range(dim)
    ]


def sphere_document(w) -> dict:
    return datum_document(len(w), sphere_facets(w), w)


def sphere_items(seed: int, count: int) -> list[Item]:
    """A seeded sample of the corpus, stratified by dimension so that every
    seed draws the same mix of n = 1, 2, 3, in a seeded order."""
    rng = random.Random(f"sphere-corpus/{seed}")
    corpus = weight_vectors()
    chosen = []
    for n in (1, 2):
        stratum = [w for w in corpus if len(w) == n + 1]
        chosen += rng.sample(stratum, max(1, round(count * len(stratum) / len(corpus))))
    chosen += rng.sample([w for w in corpus if len(w) == 4], count - len(chosen))
    rng.shuffle(chosen)
    return [
        _item(rng, "sphere" + "-".join(map(str, w)), sphere_facets(w), w, "sphere", w)
        for w in chosen
    ]


def orbit_order(w, face) -> int:
    """Reeb orbit-period ratio on the face: gcd of the weights off it."""
    return gcd(*(w[j] for j in range(len(w)) if j not in face))


def cli_weights(seed: int, count: int):
    """Chain weights with n = 1, 2, 3, 3, ... and the ``sample`` weights."""
    rng = random.Random(f"cli-pipes/{seed}")
    corpus = weight_vectors()
    chains = [rng.choice([w for w in corpus if len(w) == min(i, 3) + 1]) for i in range(1, count + 1)]
    return chains, rng.choice([w for w in corpus if len(w) == 3])


# -- digest ------------------------------------------------------------------


class Digest:
    """SHA-256 over canonical JSON of the mathematical content only."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, obj) -> None:
        self._hash.update(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def classification_content(doc: dict) -> dict:
    return {
        "regularity": doc["regularity"],
        "faces": [
            [f["face"], f["holonomy"]["invariant_factors"], f["holonomy"]["free_rank"]]
            for f in doc["per_face"]
        ],
    }


def presentation_content(doc: dict) -> dict:
    return {key: doc[key] for key in ("N", "beta", "weights", "deformation")}
