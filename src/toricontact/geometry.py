"""Exact rational linear algebra and vertex enumeration by cone rays.

Inputs may mix ints and ``fractions.Fraction``.  Every row reduction,
rank, null space and solve scales each rational row to an integer one and
runs the fraction-free elimination :func:`toricontact.lattice.echelon`;
Fractions appear only in the answers, as entries over the final pivot.
The vertices of a slice of a cone are its extreme rays at positive height,
rescaled.  An exact phase 1 finds a first vertex or proves the slice empty,
and the others are found by walking the edges of the slice from it, so the
work grows with the number of bases walked (one per vertex of a simple
slice) and their edges, not with the number of constraint subsets, and
does not depend on the order of the rows.  Both
move by fraction-free pivots of one integer simplex dictionary, one pivot
per basis; a lexicographic ratio test walks degenerate vertices by pivots
too, so a whole walk takes one elimination, the first dictionary's, which
also shows any lineality.  A simplicial cone's walk makes no pivot: its
vertices all neighbour the first one, and are read off its dictionary.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from operator import mul

from .lattice import echelon, identity, over_common_denominator, primitive

__all__ = [
    "enumerate_hpoly",
    "null_space",
    "rank_q",
    "sliced_cone_points",
    "solve_general",
    "solve_square",
]


def _integral(row) -> list[int]:
    """A rational row scaled by the lcm of its denominators (same ray)."""
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


def _dictionary(rows, up):
    """The simplex dictionary (cols, d, basis) of the basis up, B, with B
    each row independent of up and the rows before it; up is nonzero.

    With M the matrix of rows up, B and d = |det M| > 0, ``cols[r]`` is
    column r of d [rows; I] M^-1, one entry per row and then one per
    coordinate, and ``basis[r - 1]`` is row r of M.  Column 0 holds
    d <row, y> per row and then d y, for the point y with <up, y> = 1 and
    B y = 0; column r holds d c_r per row, for row = c_0 up + sum_r c_r B_r.
    It is read off one ``echelon`` of the columns up, the rows and the
    identity, which is d M^-T times them.  Rows that do not span Q^dim
    leave positions past them, whose coordinates span the rows' kernel.
    """
    eye = identity(len(up))
    e, pivots, d, _ = echelon([[u, *(row[j] for row in rows), *eye[j]] for j, u in enumerate(up)])
    cols = [row[1:] if d > 0 else [-x for x in row[1:]] for row in e]
    return cols, abs(d), [c - 1 for c in pivots[1:]]


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


def _first_ray(dictionary, n):
    """The dictionary of a basis whose point spans an extreme ray y of
    {y : rows @ y <= 0} with <up, y> > 0, or None if there is none, from
    the first ``dictionary`` (:func:`_dictionary`) of n rows that span Q^dim.

    Bland's rule (Bland, Math. Oper. Res. 1977).  A basis is up and dim - 1
    rows B, with point y and coefficients c_r per row as in the
    dictionary.  The first row with <row, y> = c_0 > 0 enters and the
    first B_r with c_r > 0 leaves, by one :func:`_pivot`.  If there is
    none, up = (row - sum_r c_r B_r) / c_0 is a nonnegative combination of
    rows, so no y exists (Farkas).  Each pivot is a degenerate simplex step
    on the dual min {mu : sum_i lambda_i row_i + mu up = 0, lambda >= 0},
    where Bland's rule cannot cycle.
    """
    while True:
        cols, _, basis = dictionary
        enter = next((i for i, v in enumerate(cols[0][:n]) if v > 0), None)
        if enter is None:
            return dictionary
        leave = min(((b, r) for r, b in enumerate(basis, 1) if cols[r][enter] > 0), default=None)
        if leave is None:
            return None
        dictionary = _pivot(dictionary, enter, leave[1])


def _entering(dictionary, r, n, rank_order):
    """The row among the first n that stops the edge dropping basis
    position r, by the lexicographic ratio test, or None for an unbounded
    edge; ``rank_order`` lists the rows by their perturbation's rank."""
    cols, _, basis = dictionary
    col0, colr = cols[0], cols[r]
    ties = []
    for i in range(n):
        b = colr[i]
        if b < 0:
            a = col0[i]
            if not ties or a * pb < pa * b:
                pa, pb, ties = a, b, [i]
            elif a * pb == pa * b:
                ties.append(i)
    if len(ties) > 1:
        position = {row: q for q, row in enumerate(basis, 1)}
        for k in rank_order:
            q = position.get(k)
            if q is None:
                if k in ties:  # its own eps term: the others reach 0 first
                    ties.remove(k)
            elif q != r:
                ratio = {i: Fraction(cols[q][i], colr[i]) for i in ties}
                low = min(ratio.values())
                ties = [i for i in ties if ratio[i] == low]
            if len(ties) == 1:
                break
    return ties[0] if ties else None


def sliced_cone_points(a_rows, height):
    """(status, points) of the slice <y, height> = 1 of K = {y : A y <= 0,
    <y, height> >= 0}; status is "empty", "bounded" or "unbounded".

    The points are the rays y of K at positive height h = <y, height>,
    one per vertex y / h of the slice, in lexicographic order of the
    vertices.  Each row is first divided by the gcd of its integer form,
    which cuts the same half-space, and each point comes as (y, h, tight,
    index): y primitive, h an int for integral height, ``tight`` the rows
    of A that vanish on y and, if there are dim - 1 of them (else None),
    ``index`` the gcd t of their maximal minors.  Lineality makes the
    slice unbounded with no vertex to report; the first dictionary shows
    it, and then K is cut down to its orthogonal complement, where an exact
    phase 1 (:func:`_first_ray`) finds a first vertex or proves it empty.

    From there the slice is walked basis by basis on the integer simplex
    dictionary B = d [rows; I] M^-1, M = [up; A_T] for a basis T of
    dim - 1 rows, as in Avis's lrs: column 0 is d <row, y> per row and
    then d y for the basis point y, and dropping the row in position r
    moves y along the edge y - t M^-1 e_r, on which the rows with
    B[i][r] < 0 rise.  The ratio test, a cross-multiplied min of
    B[i][0] / B[i][r] over those rows, finds the row i that stops it, and
    the basis with i in position r is one :func:`_pivot` away; with no
    such row the edge is unbounded.  A tie means the vertex at the other
    end is tight on more than dim - 1 rows, and is broken
    lexicographically (Dantzig, Orden and Wolfe, Pacific J. Math. 1955).

    Lemma.  Perturb row k to <row_k, y> <= eps^rank(k), ranking the rows
    outside phase 1's final basis first, in index order, and that basis's
    rows last.  For all small eps > 0:
    (1) The perturbed slice P_eps is simple.  A point on it tight on rows
        S, |S| > dim - 1, would give a dependency sum_S lambda_k row_k =
        mu up, lambda != 0, and then sum_S lambda_k eps^rank(k) = mu,
        which holds for finitely many eps only, the ranks being distinct
        and positive.  So its vertices are the bases whose point is
        feasible, and each edge of a vertex drops one basis row.
    (2) It has the recession cone {y : A y <= 0, <y, up> = 0} of the
        slice, so it is pointed, it is unbounded exactly when the slice
        is, and its bounded edges connect all its vertices.
    (3) The basis point of T is y + sum_q eps^rank(T_q) M^-1 e_q, so row
        i's slack d (eps^rank(i) - <row_i, y_eps>) is -B[i][0] +
        d eps^rank(i) [i not in T] - sum_q B[i][q] eps^rank(T_q).  T is a
        vertex of P_eps iff each slack is lexicographically positive in
        rank order, which holds for phase 1's basis: it is feasible, and
        a row outside it meets its own term d eps^rank(i) before any
        other.  Along the edge dropping position r, a row i with
        B[i][r] < 0 runs out of slack at t = slack / -B[i][r], so the
        edge ends at the row with the lexicographically smallest ratio:
        B[i][0] / B[i][r] first, then, rank by rank, d [k = i] for a row
        k outside T and -B[i][q] for the basis row at position q, each
        over -B[i][r].  Two rows never tie, each having its own eps term,
        and the new basis is lexicographically feasible again.
    (4) Every vertex v of the slice is the limit of one of them: with c
        maximal on the slice at v alone, the lexicographic simplex method
        for c ends at a vertex of P_eps whose limit maximizes c.
    So the walk from phase 1's basis along the edges of (3), one pivot
    per basis, reaches every vertex of P_eps by (2) and so every vertex
    of the slice by (4), and it meets an unbounded edge exactly when the
    slice is unbounded.  A basis already reached is not pivoted to again,
    and an edge known to lead back to one is not tested again.  Each
    vertex is reported once, at its first basis, with the zeros of
    column 0 over the rows of A as its tight set, and d / <up, y> as its
    index: dim - 1 rows tight at y are the basis T, det M expands along
    up into <up, c> with c the signed maximal minors of A_T, and c = +-t y
    as A_T c = 0 and y is the primitive kernel vector.

    Lemma (simplicial).  If A has exactly dim rows, every basis T leaves
    out one row k of A, and it is the one row an edge can end on: a basis
    row has B[i][r] = d [i = T_r] >= 0, and the height row has B[i][r] =
    0.  (5) Any two vertices v and w of P_eps are neighbours.  With T the
    basis of v, w leaves out some row j of T, so it is tight on T - {j},
    on the edge of v that drops j, where j's slack rises from 0 at v to a
    positive slack at w; the edge ends where k first gets tight, at w.
    (6) If the slice is unbounded, phase 1's vertex v has an unbounded
    edge.  Else the dim - 1 edges of v would end at the dim - 1 bases
    that leave out a row of T, every basis would be a vertex, each one's
    edges would end at the others by (5), and P_eps would be bounded by
    (2).  So the walk expands phase 1's dictionary alone and makes no
    pivot: an edge's end is column 0 of the dictionary the pivot would
    make, (p B[j][0] + c B[j][r]) / d per row j, with p = -B[i][r] and
    c = B[i][0] for the row i that stops it; its zeros are the tight set
    and p / <up, y> is the index.
    """
    dim = len(height)
    m = len(a_rows)
    den, up = over_common_denominator(height)
    rows = [primitive(row) if any(row) else row for row in map(_integral, a_rows)]
    rows.append([-x for x in up])
    if not any(up):
        return "empty", []
    n = m + 1
    first = _dictionary(rows, up)
    lineality = [col[n:] for col, row in zip(first[0][1:], first[2]) if row >= n]
    if lineality:  # cut K down to the orthogonal complement of its lines
        rows += lineality + [[-x for x in y] for y in lineality]
        first = _dictionary(rows, up)
    first = _first_ray(first, len(rows))
    if first is None:
        return "empty", []
    if lineality:
        return "unbounded", []
    status = "bounded"
    rank_order = [i for i in range(n) if i not in first[2]] + first[2]
    found, heights = {}, {}  # per ray y: (tight, index) and <y, up>

    def reach(col0, d):
        y = tuple(primitive(col0[n:]))
        if y not in found:
            tight = frozenset(i for i in range(m) if not col0[i])
            heights[y] = h = sum(map(mul, y, up))
            found[y] = tight, d // h if len(tight) == dim - 1 else None

    # per basis reached, the rows whose drop leads back to a basis reached before
    back = {frozenset(first[2]): set()}
    queue = deque([first])
    while queue:
        dictionary = queue.popleft()
        cols, d, basis = dictionary
        reach(cols[0], d)
        here = frozenset(basis)
        skip = back[here]
        for r, row in enumerate(basis, 1):
            if row in skip:
                continue
            enter = _entering(dictionary, r, n, rank_order)
            if enter is None:
                status = "unbounded"
                continue
            if m == dim:  # simplicial: every vertex neighbours phase 1's
                col0, colr = cols[0], cols[r]
                p, c = -colr[enter], col0[enter]  # column 0 of the pivot, over p
                reach([(p * x + c * y) // d for x, y in zip(col0, colr)], p)
                continue
            there = here - {row} | {enter}
            if there in back:
                back[there].add(enter)
            else:
                back[there] = {enter}
                queue.append(_pivot(dictionary, enter, r))
    # y / <y, up> in lexicographic order is y L / <y, up> in integers, with
    # L the lcm of the heights; distinct rays give distinct points
    big = lcm(*heights.values())
    return status, [
        (y, heights[y] if den == 1 else Fraction(heights[y], den), *found[y])
        for y in sorted(found, key=lambda y: [x * (big // heights[y]) for x in y])
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
    return status, [tuple([Fraction(x, h) for x in y[:-1]]) for y, h, _, _ in points]
