"""Seeded generators of valid data shared by the property tests."""

from __future__ import annotations

from math import gcd

from toricontact.classify import validate_datum
from toricontact.lattice import identity, matvec
from toricontact.polytope import LabeledFacet, LabeledPolytope
from toricontact.spheres import weighted_simplex


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def labeled_cube(n, labels, u):
    """[0,1]^n at height 1, facet labels as given, normals and reeb mapped by u."""
    dim = n + 1
    normals = [tuple(-int(i == j) for j in range(dim)) for i in range(n)]
    normals += [tuple(int(j == i) - int(j == n) for j in range(dim)) for i in range(n)]
    facets = tuple(
        LabeledFacet(tuple(matvec(u, p)), m) for p, m in zip(normals, labels)
    )
    reeb = tuple(matvec(u, [int(j == n) for j in range(dim)]))
    return validate_datum(LabeledPolytope(dim, facets), reeb)


def cube_or_simplex(rng, cube):
    """A labeled cube (n <= 4, labels 1..3) or a weighted simplex (n <= 3,
    weights 1..6 over their gcd)."""
    if cube:
        n = rng.randint(1, 4)
        return labeled_cube(n, [rng.randint(1, 3) for _ in range(2 * n)], identity(n + 1))
    n = rng.randint(1, 3)
    weights = [rng.randint(1, 6) for _ in range(n + 1)]
    return weighted_simplex([w // gcd(*weights) for w in weights])


def change_basis(d, u):
    """The datum with every facet normal p mapped to u p and reeb to u reeb."""
    facets = tuple(
        LabeledFacet(tuple(matvec(u, f.normal)), f.label, f.offset) for f in d.facets
    )
    return validate_datum(
        LabeledPolytope(d.polytope.ambient_dim, facets), tuple(matvec(u, d.reeb))
    )
