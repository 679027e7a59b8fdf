"""Exact rational linear algebra and vertex enumeration by cone rays.

Inputs may mix ints and ``fractions.Fraction``.  Every row reduction,
rank, null space and solve scales each rational row to an integer one and
runs the fraction-free elimination :func:`toricontact.lattice.echelon`;
Fractions appear only in the answers, as entries over the final pivot.
The vertices of a slice of a cone are its extreme rays at positive height,
rescaled.  An exact phase 1 finds a first vertex or proves the slice empty,
and the others are found by walking the edges of the slice from it, so the
work grows with the number of vertices and edges, not with the number of
constraint subsets, and does not depend on the order of the rows.  Both
move by fraction-free pivots of one integer simplex dictionary, each new
simple vertex one pivot; only degenerate vertices take one elimination per
subset of their tight rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
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


def _dictionary(rows, up, lead):
    """The simplex dictionary (cols, d, basis) of the basis up, B, with B the
    rows ``lead`` or, for no ``lead``, each row independent of up and the
    rows before it; the rows span Q^dim and up is nonzero.

    With M the matrix of rows up, B and d = |det M| > 0, ``cols[r]`` is
    column r of d [rows; I] M^-1, one entry per row and then one per
    coordinate, and ``basis[r - 1]`` is row r of M.  Column 0 holds
    d <row, y> per row and then d y, for the point y with <up, y> = 1 and
    B y = 0; column r holds d c_r per row, for row = c_0 up + sum_r c_r B_r.
    It is read off one ``echelon`` of the columns up, B, the rows and the
    identity, which is d M^-T times them.
    """
    eye = identity(len(up))
    e, pivots, d, _ = echelon(
        [
            [u, *(rows[i][j] for i in lead), *(row[j] for row in rows), *eye[j]]
            for j, u in enumerate(up)
        ]
    )
    skip = len(lead) + 1
    cols = [row[skip:] if d > 0 else [-x for x in row[skip:]] for row in e]
    return cols, abs(d), list(lead) or [c - skip for c in pivots[1:]]


def _pivot(dictionary, i, r):
    """The dictionary after row i replaces the basis row in position r.

    With P = B[i][r] != 0 the new basis has |det| = |P|, column r turns
    into sign(P) B[j][r] and every other entry into sign(P) (P B[j][k] -
    B[j][r] B[i][k]) / d.  The division is exact: up to sign, the entry of
    a dictionary in row j and column k is the minor det M with row k
    replaced by row j, an integer.
    """
    cols, d, basis = dictionary
    colr = cols[r]
    p = colr[i]
    if p < 0:
        p, colr = -p, [-x for x in colr]
    new = []
    for k, col in enumerate(cols):
        c = col[i]
        if k == r:
            new.append(colr)
        elif not c and p == d:
            new.append(col)
        else:
            new.append([(p * x - c * y) // d for x, y in zip(col, colr)])
    basis = basis.copy()
    basis[r - 1] = i
    return new, p, basis


def _first_ray(rows, up):
    """The dictionary (:func:`_dictionary`) of a basis whose point spans an
    extreme ray y of {y : rows @ y <= 0} with <up, y> > 0, or None if there
    is none; the rows span Q^dim and up is nonzero.

    Bland's rule (Bland, Math. Oper. Res. 1977).  A basis is up and dim - 1
    rows B, with point y and coefficients c_r per row as in the
    dictionary.  The first row with <row, y> = c_0 > 0 enters and the
    first B_r with c_r > 0 leaves, by one :func:`_pivot`.  If there is
    none, up = (row - sum_r c_r B_r) / c_0 is a nonnegative combination of
    rows, so no y exists (Farkas).  Each pivot is a degenerate simplex step
    on the dual min {mu : sum_i lambda_i row_i + mu up = 0, lambda >= 0},
    where Bland's rule cannot cycle.  The first basis is up and each row
    independent of up and the rows before it.
    """
    dictionary = _dictionary(rows, up, ())
    while True:
        cols, _, basis = dictionary
        enter = next((i for i, v in enumerate(cols[0][: len(rows)]) if v > 0), None)
        if enter is None:
            return dictionary
        leave = min(((b, r) for r, b in enumerate(basis, 1) if cols[r][enter] > 0), default=None)
        if leave is None:
            return None
        dictionary = _pivot(dictionary, enter, leave[1])


def _pivot_steps(dictionary, n, active, known):
    """(z, pivot) per edge at a simple vertex with this dictionary over n
    rows: z the primitive ray at its other end, or None for an unbounded
    edge, and pivot the (row, position) that reaches z's dictionary, or
    None when z is degenerate.  Edges in ``known`` are skipped."""
    cols, _, basis = dictionary
    col0 = cols[0]
    # an arrival is tight on every row of ``active`` but the one its edge drops
    arrivals = set().union(*(active - zeros for zeros in known))
    for r, row in enumerate(basis, 1):
        if row in arrivals:
            continue
        colr = cols[r]
        rising = [(a, b, i) for i, a, b in zip(range(n), col0, colr) if b < 0]
        if not rising:
            yield None, None
            continue
        pa, pb, enter = rising[0]
        tie = False
        for a, b, i in rising[1:]:
            if a * pb < pa * b:
                pa, pb, enter, tie = a, b, i, False
            elif a * pb == pa * b:
                tie = True
        # identity entries of column 0 after the pivot, times d / sign(P)
        z = primitive([x * pa - pb * y for x, y in zip(colr[n:], col0[n:])])
        yield tuple(z), None if tie else (enter, r)


def _subset_steps(rows, up, y, vals, known):
    """(z, None) per edge at a degenerate vertex y with ``vals`` = rows @ y,
    z as in :func:`_pivot_steps`, by one :func:`_ray` per (dim - 2)-subset
    of the tight rows whose edge is not in ``known``."""
    dim = len(y)
    tight = [i for i, v in enumerate(vals) if v == 0]
    tight_rows = [rows[i] for i in tight]
    slack = [(-v, row) for row, v in zip(rows, vals) if v]
    for subset in combinations(tight, dim - 2) if dim > 1 else ():
        # a subset inside the zeros of a known edge has its line as kernel
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
            yield None, None
        else:
            yield tuple(primitive([den * a + num * b for a, b in zip(y, d)])), None


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

    From that vertex the slice is walked along its edges.  The bounded
    edges of a pointed polyhedron connect all its vertices (the walk is
    the idea behind Avis and Fukuda's reverse search, Discrete Comput.
    Geom. 1992), so every vertex of an unbounded slice is reported too.

    A simple vertex y, tight on exactly dim - 1 rows T, is walked on its
    integer simplex dictionary B = d [rows; I] M^-1, M = [up; A_T], as in
    Avis's lrs: column 0 is d <row, y> per row, zero exactly on T, and
    then d y.  Dropping the row in position r moves y along the edge
    y - t M^-1 e_r, on which the rows with B[i][r] < 0 rise.  The ratio
    test, a cross-multiplied min of B[i][0] / B[i][r] over those rows,
    finds the row i that stops it; with no such row the edge is unbounded.
    The neighbour's ray is column 0 of the dictionary after i replaces r
    (:func:`_pivot`), whose identity entries cost dim products, and only a
    neighbour not seen before pays the full pivot.  A tie in the ratio
    test means the neighbour is tight on more than dim - 1 rows: it is a
    degenerate vertex.

    A degenerate vertex, reached by a tie or by phase 1, is walked by
    subsets instead: its edge directions are the extreme rays of the
    tangent cone {d : A_T d <= 0, <d, height> = 0}, each the kernel of a
    (dim - 2)-subset of T plus the height row, and an integer ratio test
    over the other rows gives the next vertex.  A simple vertex found
    that way gets its dictionary from one elimination and is walked by
    pivots again.  At either kind of vertex, an edge already walked from
    its other end is skipped.
    """
    dim = len(height)
    m = len(a_rows)
    den, up = over_common_denominator([Fraction(x) for x in height])
    rows = [*(_integral(row) for row in a_rows), [-x for x in up]]
    lineality = [_integral(y) for y in null_space(rows, dim)]
    rows += lineality + [[-x for x in y] for y in lineality]
    first = _first_ray(rows, up) if any(up) else None
    if first is None:
        return "empty", []
    if lineality:
        return "unbounded", []
    status = "bounded"
    col0 = first[0][0]  # tight on dim - 1 rows at a simple vertex
    y = tuple(primitive(col0[m + 1 :]))
    queue = [(y, first if col0[: m + 1].count(0) == dim - 1 else None)]
    seen = {y}
    # per vertex not yet walked from, the tight sets of the vertices that
    # reached it: rows tight at both ends of an edge vanish on it
    arrived = {}
    found = []
    for y, dictionary in queue:
        known = arrived.pop(y, [])
        if dictionary is None:
            vals = [dot(row, y) for row in rows]
            tight = [i for i, v in enumerate(vals) if v == 0]
            if len(tight) == dim - 1:
                dictionary = _dictionary(rows, up, tight)
        if dictionary is None:
            active = frozenset(tight)
            steps = _subset_steps(rows, up, y, vals, known)
        else:
            active = frozenset(sorted(dictionary[2]))
            steps = _pivot_steps(dictionary, m + 1, active, known)
        found.append((y, active))
        for z, pivot in steps:
            if z is None:
                status = "unbounded"
            elif z not in seen:
                seen.add(z)
                queue.append((z, pivot and _pivot(dictionary, *pivot)))
                arrived[z] = [active]
            elif z in arrived:
                arrived[z].append(active)
    # y / <y, up> in lexicographic order is y L / <y, up> in integers, with
    # L the lcm of the heights; distinct rays give distinct points
    heights = [dot(y, up) for y, _ in found]
    big = lcm(*heights)
    order = sorted(range(len(found)), key=lambda v: [x * (big // heights[v]) for x in found[v][0]])
    return status, [
        (tuple(Fraction(x * den, heights[v]) for x in found[v][0]), found[v][1]) for v in order
    ]


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
