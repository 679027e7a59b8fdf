"""Exact rational linear algebra and vertex enumeration by cone rays.

Inputs may mix ints and ``fractions.Fraction``.  Every row reduction,
rank, null space and solve scales each rational row to an integer one and
runs the fraction-free elimination :func:`toricontact.lattice.echelon`;
Fractions appear only in the answers, as entries over the final pivot.
The vertices of a slice of a cone are its extreme rays at positive height,
rescaled.  An exact phase 1 finds a first vertex or proves the slice empty,
and the others are found by walking the edges of the slice from it, so the
work grows with the number of vertices and edges, not with the number of
constraint subsets, and does not depend on the order of the rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul

from .lattice import echelon, identity, over_common_denominator, primitive

__all__ = [
    "dot",
    "enumerate_hpoly",
    "null_space",
    "rank_q",
    "sliced_cone_points",
    "solve_general",
    "solve_square",
]


def dot(u, v):
    return sum(map(mul, u, v))


def _integral(row) -> list[int]:
    """A rational row scaled by the lcm of its denominators (same ray)."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    return over_common_denominator(row)[1]


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


def _ray(subset, rows, dim):
    """(y, rows @ y) for the primitive y spanning the kernel of ``subset``
    with rows @ y <= 0, or None when the subset has rank below dim - 1 or
    neither sign of its kernel line satisfies every row."""
    e, pivots, d, _ = echelon(subset)
    if len(pivots) != dim - 1:
        return None
    y = primitive(_kernel(e, pivots, d, dim)[0])
    vals = [dot(row, y) for row in rows]
    if any(v > 0 for v in vals):
        if any(v < 0 for v in vals):
            return None  # the kernel line leaves the cone both ways
        y, vals = [-x for x in y], [-v for v in vals]
    return y, vals


def _first_ray(rows, up):
    """A primitive y on an extreme ray of {y : rows @ y <= 0} with <up, y> > 0,
    or None if there is none; the rows span Q^dim and up is nonzero.

    Bland's rule (Bland, Math. Oper. Res. 1977).  A basis is up and dim - 1
    rows B, its point y has <up, y> = 1 and B y = 0, and ``echelon`` of the
    columns up, B, the other rows and the identity is d [up | B]^-1 times
    them: row 0 holds d <row, y> per row and d y, and row r holds d c_r for
    each row = c_0 up + sum_r c_r B_r.  The first row with <row, y> = c_0 > 0
    enters and the first B_r with c_r > 0 leaves.  If there is none, up =
    (row - sum_r c_r B_r) / c_0 is a nonnegative combination of rows, so no
    y exists (Farkas).  Each pivot is a degenerate simplex step on the dual
    min {mu : sum_i lambda_i row_i + mu up = 0, lambda >= 0}, where Bland's
    rule cannot cycle.  The first basis is the elimination's pivots in row
    order: up and each row independent of up and the rows before it.
    """
    eye = identity(len(up))
    basis = []
    while True:
        order = basis + [i for i in range(len(rows)) if i not in basis]
        e, pivots, d, _ = echelon(
            [[u, *(rows[i][j] for i in order), *eye[j]] for j, u in enumerate(up)]
        )
        col = {i: c for c, i in enumerate(order, 1)}
        basis = [order[c - 1] for c in pivots[1:]]
        enter = next((i for i in range(len(rows)) if e[0][col[i]] * d > 0), None)
        if enter is None:
            return tuple(primitive([x * d for x in e[0][len(rows) + 1 :]]))
        leave = min((i for i, row in zip(basis, e[1:]) if row[col[enter]] * d > 0), default=None)
        if leave is None:
            return None
        basis[basis.index(leave)] = enter


def sliced_cone_points(a_rows, height):
    """(status, points) of the slice <y, height> = 1 of K = {y : A y <= 0,
    <y, height> >= 0}; status is "empty", "bounded" or "unbounded".

    The points are the rays of K at positive height, rescaled to height 1,
    in lexicographic order: the vertices of the slice.  Each comes as a
    pair (point, tight) with ``tight`` the indices of the rows of A that
    vanish on the primitive integer ray.  Lineality makes the slice
    unbounded with no vertex to report; it is found first, and K is cut
    down to its orthogonal complement, where an exact phase 1
    (:func:`_first_ray`) finds a first vertex or proves the slice empty.

    From that vertex the slice is walked along its edges.  At a vertex y
    with tight rows T the edge directions are the extreme rays of the
    tangent cone {d : A_T d <= 0, <d, height> = 0}, each the kernel of a
    (dim - 2)-subset of T plus the height row; an integer ratio test over
    the other rows gives the next vertex, or an unbounded edge.  A subset
    whose kernel is the line of an edge already known at y is skipped, so
    on a simple polytope each edge costs one elimination, at the end the
    walk reaches first.  The bounded edges of a pointed polyhedron connect
    all its vertices (the walk is the idea behind Avis and Fukuda's reverse
    search, Discrete Comput. Geom. 1992), so every vertex of an unbounded
    slice is reported too.
    """
    dim = len(height)
    m = len(a_rows)
    rows = [_integral(row) for row in [*a_rows, [-x for x in height]]]
    lineality = [_integral(y) for y in null_space(rows, dim)]
    rows += lineality + [[-x for x in y] for y in lineality]
    up = [-x for x in rows[m]]  # height, scaled to integers
    first = _first_ray(rows, up) if any(up) else None
    if first is None:
        return "empty", []
    if lineality:
        return "unbounded", []
    status = "bounded"
    queue = [first]
    seen = {first}
    # per vertex not yet walked from, the tight sets of the vertices that
    # reached it: rows tight at both ends of an edge vanish on its direction
    arrived = {}
    points = []
    for y in queue:
        vals = [dot(row, y) for row in rows]
        tight = [i for i, v in enumerate(vals) if v == 0]
        active = frozenset(tight)
        points.append((tuple(Fraction(x, dot(y, height)) for x in y), active))
        tight_rows = [rows[i] for i in tight]
        slack = [(-v, row) for row, v in zip(rows, vals) if v]
        # per edge known at y, the tight rows vanishing on it: a subset
        # inside one of them has that edge's line as its kernel
        known = arrived.pop(y, [])
        for subset in combinations(tight, dim - 2) if dim > 1 else ():
            if any(zeros.issuperset(subset) for zeros in known):
                continue
            ray = _ray([*(rows[i] for i in subset), up], tight_rows, dim)
            if ray is None:
                continue
            d, along = ray
            known.append({i for i, v in zip(tight, along) if not v})
            # the step y -> y + (num / den) d stops at the first row to vanish
            num, den = 0, 0
            for v, row in slack:
                s = dot(row, d)
                if s > 0 and (not den or v * den < num * s):
                    num, den = v, s
            if not den:
                status = "unbounded"
                continue
            z = tuple(primitive([den * a + num * b for a, b in zip(y, d)]))
            if z not in seen:
                seen.add(z)
                queue.append(z)
                arrived[z] = [active]
            elif z in arrived:
                arrived[z].append(active)
    return status, sorted(points)  # distinct rays give distinct points


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
