"""Exact rational linear algebra and vertex enumeration by cone rays.

Inputs may mix ints and ``fractions.Fraction``.  Every row reduction,
rank, null space and solve scales each rational row to an integer one and
runs the fraction-free elimination :func:`toricontact.lattice.echelon`;
Fractions appear only in the answers, as entries over the final pivot.
The vertices of a slice of a cone are its extreme rays at positive height,
rescaled; rays come from exhaustive constraint-subset intersection, which
is exact and entirely adequate at the scale this package targets (a few
dozen constraints, dimension at most a handful).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .lattice import echelon, primitive

__all__ = [
    "cone_rays",
    "dot",
    "enumerate_hpoly",
    "null_space",
    "rank_q",
    "sliced_cone_points",
    "solve_general",
    "solve_square",
]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _integral(row) -> list[int]:
    """A rational row scaled by the lcm of its denominators (same ray)."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def rank_q(rows) -> int:
    return len(echelon([_integral(row) for row in rows])[1])


def _kernel(e, pivots, d, dim):
    """Integer kernel basis read off ``echelon``: y_f = d, y_pivot = -E[r][f]."""
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        y = [0] * dim
        y[f] = d
        for row, c in zip(e, pivots):
            y[c] = -row[f]
        basis.append(y)
    return basis


def null_space(rows, dim: int):
    """Basis of {x in Q^dim : rows @ x = 0}."""
    e, pivots, d, _ = echelon([_integral(row) for row in rows])
    return [[Fraction(x, d) for x in y] for y in _kernel(e, pivots, d, dim)]


def solve_square(rows, rhs):
    """Unique solution of a square rational system, or None if singular."""
    n = len(rows)
    e, pivots, d, _ = echelon([_integral([*r, b]) for r, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return [Fraction(row[n], d) for row in e]


def solve_general(rows, rhs):
    """One solution of rows @ x = rhs with free variables set to 0, or None."""
    cols = len(rows[0])
    e, pivots, d, _ = echelon([_integral([*r, b]) for r, b in zip(rows, rhs)])
    if cols in pivots:  # a row reads 0 = nonzero
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(e, pivots):
        x[c] = Fraction(row[cols], d)
    return x


def _pointed_cone_rays(a_rows, dim):
    """Extreme rays of {y : A y <= 0}, assuming rank(A) = dim (pointed).

    Returns (ray, tight) pairs: ``tight`` is the set of row indices that
    vanish on the primitive integer ray.
    """
    rows = [_integral(row) for row in a_rows]
    rays = {}
    for subset in combinations(rows, dim - 1):
        e, pivots, d, _ = echelon(subset)
        if len(pivots) != dim - 1:
            continue
        y = primitive(_kernel(e, pivots, d, dim)[0])
        vals = [dot(row, y) for row in rows]
        if any(v > 0 for v in vals):
            if any(v < 0 for v in vals):
                continue  # the kernel line leaves the cone both ways
            y = [-v for v in y]
        rays[tuple(y)] = frozenset(i for i, v in enumerate(vals) if v == 0)
    return [(list(ray), tight) for ray, tight in rays.items()]


def sliced_cone_points(a_rows, height):
    """(status, points) of the slice <y, height> = 1 of K = {y : A y <= 0,
    <y, height> >= 0}; status is "empty", "bounded" or "unbounded".

    The points are the rays of K at positive height, rescaled to height 1,
    in lexicographic order: the vertices of the slice.  Each comes as a
    pair (point, tight) with ``tight`` the indices of the rows of A that
    vanish on it, read off the same integer ray test.  K is first cut down
    to the orthogonal complement of its lineality space.  Lineality or a
    ray at height 0 makes the slice unbounded; with lineality there is no
    vertex to report.
    """
    dim = len(height)
    m = len(a_rows)
    rows = [*a_rows, [-x for x in height]]
    lineality = null_space(rows, dim)
    rows += lineality + [[-x for x in y] for y in lineality]
    rays = _pointed_cone_rays(rows, dim)
    heights = [dot(ray, height) for ray, _ in rays]
    points = sorted(  # distinct rays give distinct points
        (tuple(Fraction(x, h) for x in ray), frozenset(i for i in tight if i < m))
        for (ray, tight), h in zip(rays, heights)
        if h > 0
    )
    if not points:
        return "empty", []
    if lineality:
        return "unbounded", []
    return ("unbounded" if 0 in heights else "bounded"), points


def enumerate_hpoly(a_rows, b):
    """Vertices of the polyhedron {x : A x <= b}, the slice at height 1 of
    the cone {(x, t) : A x <= t b, t >= 0}.

    Returns (status, vertices) where status is one of "empty", "bounded"
    or "unbounded".  Vertices (basic feasible points) are reported in
    lexicographic order even when the polyhedron is unbounded; a
    polyhedron that is nonempty but has no vertex reports none.
    """
    dim = len(a_rows[0])
    status, points = sliced_cone_points(
        [[*row, -bi] for row, bi in zip(a_rows, b)], [0] * dim + [1]
    )
    return status, [p[:-1] for p, _ in points]


def cone_rays(a_rows, dim: int):
    """Lineality basis and extreme rays of the cone {x : A x <= 0}.

    Extreme rays are returned as primitive integer vectors; they are only
    computed when the lineality space is trivial (pointed cone).
    """
    lineality = null_space(a_rows, dim)
    if lineality:
        return lineality, []
    return [], [ray for ray, _ in _pointed_cone_rays(a_rows, dim)]
