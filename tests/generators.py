"""Seeded generators of valid data shared by the property tests."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from toricontact.classify import perturb_reeb, validate_datum
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


def _height_one(normals, labels, u):
    """The facets <alpha, m p> <= 0 at reeb e_n (n + 1 = len(u)), normals and
    reeb mapped by u, as a validated datum."""
    dim = len(u)
    facets = tuple(
        LabeledFacet(tuple(matvec(u, p)), m) for p, m in zip(normals, labels)
    )
    reeb = tuple(matvec(u, [int(j == dim - 1) for j in range(dim)]))
    return validate_datum(LabeledPolytope(dim, facets), reeb)


def labeled_cube(n, labels, u):
    """[0,1]^n at height 1, facet labels as given, normals and reeb mapped by u."""
    dim = n + 1
    normals = [tuple(-int(i == j) for j in range(dim)) for i in range(n)]
    normals += [tuple(int(j == i) - int(j == n) for j in range(dim)) for i in range(n)]
    return _height_one(normals, labels, u)


def parabola(count):
    """The polygon {<x, u> <= 1} over u = (x, x^2 - 1) for x = -K..K and
    u = (1, K^2), with K = count / 2 - 1: facet (u, 0) with label
    m = 1 + i mod 3 and offset m, reeb e_2.  Its k x (k + 1) stabilizer
    blocks grow with the even facet count."""
    top = count // 2 - 1
    ring = [(x, x * x - 1) for x in range(-top, top + 1)] + [(1, top * top)]
    facets = tuple(
        LabeledFacet((x, y, 0), 1 + i % 3, Fraction(1 + i % 3))
        for i, (x, y) in enumerate(ring)
    )
    return validate_datum(LabeledPolytope(3, facets), (0, 0, 1))


def simplex_product(rng):
    """Delta^p x Delta^q (p, q >= 1, p + q <= 4) at height 1 with labels 1..3,
    in a random lattice basis: N = n + 2 facets, so the kernel of beta is a
    line."""
    p = rng.randint(1, 3)
    q = rng.randint(1, 4 - p)
    n = p + q
    normals = []
    for block in (range(p), range(p, n)):
        normals += [tuple(-int(i == j) for j in range(n + 1)) for i in block]
        normals.append(tuple(int(j in block) - int(j == n) for j in range(n + 1)))
    labels = [rng.randint(1, 3) for _ in normals]
    return _height_one(normals, labels, random_unimodular(rng, n + 1))


def weighted_simplex_product(rng):
    """A product of 2 or 3 weighted simplices {y >= 0, <w, y> <= h} (each of
    dimension 1 or 2, n <= 4, w_i in 1..3) at height 1, in a random lattice
    basis: N = n + factors facets, so k = factors - 1 >= 1.

    The facets y_i >= 0 have label 1, and the first factor has h = 1 and
    label 1, so beta is onto Z^{n+1}.  The other factors have h in 1..3 and
    labels 1..3 on <w, y> <= h, one of them above 1.  The order at a vertex
    is then the gcd of the maximal minors of its labeled normals, each
    linear in every column, so a vertex on a facet labeled m > 1 is an
    orbifold point of order a multiple of m; so, at times, is h e_i / w_i."""
    dims = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
    while sum(dims) > 4:
        dims[dims.index(2)] = 1
    n = sum(dims)
    normals, labels, start = [], [], 0
    for f, size in enumerate(dims):
        block = range(start, start + size)
        normals += [tuple(-int(i == j) for j in range(n + 1)) for i in block]
        slant = [rng.randint(1, 3) if j in block else 0 for j in range(n)]
        slant.append(-rng.randint(1, 3) if f else -1)
        g = gcd(*slant)
        normals.append(tuple(x // g for x in slant))
        labels += [1] * size + [g * rng.randint(1, 3) if f else 1]
        start += size
    slanted = [i for i, p in enumerate(normals) if p[n] and i > dims[0]]
    labels[rng.choice(slanted)] *= rng.randint(2, 3)
    return _height_one(normals, labels, random_unimodular(rng, n + 1))


def cube_or_simplex(rng, cube):
    """A labeled cube (n <= 4, labels 1..3) or a weighted simplex (n <= 3,
    weights 1..6 over their gcd)."""
    if cube:
        n = rng.randint(1, 4)
        return labeled_cube(n, [rng.randint(1, 3) for _ in range(2 * n)], identity(n + 1))
    n = rng.randint(1, 3)
    weights = [rng.randint(1, 6) for _ in range(n + 1)]
    return weighted_simplex([w // gcd(*weights) for w in weights])


def random_datum(rng, kind):
    """A "cube", "simplex" or "product" datum in a random lattice basis."""
    if kind == "product":
        return simplex_product(rng)
    d = cube_or_simplex(rng, kind == "cube")
    return change_basis(d, random_unimodular(rng, d.n + 1))


def random_sphere(rng):
    """A weighted sphere, n <= 3, weights 1..6 over their gcd."""
    weights = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
    return weighted_simplex([w // gcd(*weights) for w in weights])


KINDS = ["cube", "simplex", "parabola", "product", "weighted", "sphere"]


def generated(rng, kind):
    """A datum of one of the ``KINDS`` above, in a random basis."""
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


def positive_reeb(rng, d):
    """A random integral vector strictly positive on the datum's vertex rays:
    a random perturbation e plus k * reeb, k past every -<v, e>."""
    e = [rng.randint(-2, 2) for _ in d.reeb]
    worst = max(-sum(x * y for x, y in zip(v.coords, e)) for v in d.vertices)
    k = max(int(worst) + 1, 1) + rng.randint(0, 2)
    return tuple(k * r + x for r, x in zip(d.reeb, e))


def perturbed(rng, d):
    """The datum's moment cone resliced by ``positive_reeb`` (``perturb_reeb``)."""
    return perturb_reeb(d, positive_reeb(rng, d))


def change_basis(d, u):
    """The datum with every facet normal p mapped to u p and reeb to u reeb."""
    facets = tuple(
        LabeledFacet(tuple(matvec(u, f.normal)), f.label, f.offset) for f in d.facets
    )
    return validate_datum(
        LabeledPolytope(d.polytope.ambient_dim, facets), tuple(matvec(u, d.reeb))
    )


def degenerate(rng, d, how):
    """(polytope, reeb) built from a valid datum that validate_datum must refuse.

    "free" appends a coordinate that no facet and not reeb sees, so the
    normals and reeb do not span; "pinned" also adds the facets -e and e
    of that coordinate, which pin it to 0; "cut" adds <alpha, p> = c as two
    facets through the barycentre.  "pinned" and "cut" give a slice of
    lower dimension than the hyperplane.  Normals and reeb are then mapped
    by a random unimodular matrix.
    """
    facets = [(f.normal, f.label, f.offset) for f in d.facets]
    reeb = list(d.reeb)
    if how == "cut":
        dim = len(reeb)
        p = [0] * dim
        # p off the line of reeb, or the cut is the whole hyperplane
        while all(p[i] * reeb[j] == p[j] * reeb[i] for i in range(dim) for j in range(i)):
            p = [rng.randint(-2, 2) for _ in range(dim)]
        g = gcd(*p)
        p = [x // g for x in p]
        bary = [sum(col) / len(d.vertices) for col in zip(*(v.coords for v in d.vertices))]
        c = sum(x * y for x, y in zip(p, bary))
        facets += [(tuple(p), 1, c), (tuple(-x for x in p), 1, -c)]
    else:
        facets = [(normal + (0,), m, o) for normal, m, o in facets]
        reeb.append(0)
        if how == "pinned":
            zeros = (0,) * (len(reeb) - 1)
            facets += [(zeros + (e,), rng.randint(1, 3), 0) for e in (-1, 1)]
        # a polytope needs ambient_dim facets: pad with shifted (redundant) copies
        facets += [(n, m, o + 1) for n, m, o in facets[: len(reeb) - len(facets)]]
    u = random_unimodular(rng, len(reeb))
    poly = LabeledPolytope(
        len(reeb),
        tuple(LabeledFacet(tuple(matvec(u, n)), m, o) for n, m, o in facets),
    )
    return poly, tuple(matvec(u, reeb))
