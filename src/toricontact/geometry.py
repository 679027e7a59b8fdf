"""Exact rational linear algebra and brute-force H-polyhedron enumeration.

Inputs may mix ints and ``fractions.Fraction``.  Every row reduction,
rank, null space and solve scales each rational row to an integer one and
runs the fraction-free elimination :func:`toricontact.lattice.echelon`;
Fractions appear only in the answers, as entries over the final pivot.
Vertex and ray enumeration work by exhaustive constraint-subset
intersection, which is exact and entirely adequate at the scale this
package targets (a few dozen constraints, dimension at most a handful).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .lattice import echelon, primitive

__all__ = [
    "basic_feasible_points",
    "cone_rays",
    "dot",
    "enumerate_hpoly",
    "null_space",
    "rank_q",
    "rational_to_primitive_int",
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


def _rref(rows):
    """Reduced row echelon form; returns (reduced_nonzero_rows, pivot_cols)."""
    e, pivots, d, _ = echelon([_integral(row) for row in rows])
    return [[Fraction(x, d) for x in row] for row in e], pivots


def rank_q(rows) -> int:
    return len(echelon([_integral(row) for row in rows])[1])


def null_space(rows, dim: int):
    """Basis of {x in Q^dim : rows @ x = 0}."""
    reduced, pivots = _rref(rows)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * dim
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return basis


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


def rational_to_primitive_int(vec) -> list[int]:
    """Scale a nonzero rational vector to a primitive integer one (same ray)."""
    return primitive(_integral(vec))


def basic_feasible_points(a_rows, b):
    """Basic feasible points of {x : A x <= b}, in lexicographic order.

    Each choice of as many rows as there are columns whose system has a
    unique solution gives a candidate; the feasible candidates are the
    vertices of the polyhedron (none when A has lower rank).
    """
    dim = len(a_rows[0])
    found = set()
    for subset in combinations(range(len(a_rows)), dim):
        x = solve_square([a_rows[i] for i in subset], [b[i] for i in subset])
        if x is not None and all(dot(row, x) <= bi for row, bi in zip(a_rows, b)):
            found.add(tuple(x))
    return sorted(found)


def _pointed_cone_rays(a_rows, dim):
    """Extreme rays of {y : A y <= 0}, assuming rank(A) = dim (pointed)."""
    n = len(a_rows)
    rays = []
    seen = set()
    for subset in combinations(range(n), dim - 1):
        sub = [a_rows[i] for i in subset]
        kernel = null_space(sub, dim)
        if len(kernel) != 1:
            continue
        y = kernel[0]
        for cand in (y, [-v for v in y]):
            if all(dot(row, cand) <= 0 for row in a_rows):
                key = tuple(rational_to_primitive_int(cand))
                if key not in seen:
                    seen.add(key)
                    rays.append(list(key))
                break
    return rays


def enumerate_hpoly(a_rows, b):
    """Vertices of the polyhedron {x : A x <= b}.

    Returns (status, vertices) where status is one of "empty", "bounded"
    or "unbounded".  Vertices (basic feasible points) are reported in
    lexicographic order even when the polyhedron is unbounded; a
    polyhedron that is nonempty but has no vertex reports none.
    """
    dim = len(a_rows[0]) if a_rows else 0
    if dim == 0:
        feasible = all(Fraction(x) >= 0 for x in b)
        return ("bounded", [()]) if feasible else ("empty", [])
    basis, _ = _rref(a_rows)
    if len(basis) < dim:
        # Constraints only act on the span of their normals; feasibility is
        # decided there, and the orthogonal directions are free lines.
        if not basis:
            feasible = all(Fraction(x) >= 0 for x in b)
            return ("unbounded", []) if feasible else ("empty", [])
        projected = [[dot(row, bas) for bas in basis] for row in a_rows]
        status, _ = enumerate_hpoly(projected, b)
        return ("empty", []) if status == "empty" else ("unbounded", [])
    verts = basic_feasible_points(a_rows, b)
    if not verts:
        return "empty", []
    if _pointed_cone_rays(a_rows, dim):
        return "unbounded", verts
    return "bounded", verts


def cone_rays(a_rows, dim: int):
    """Lineality basis and extreme rays of the cone {x : A x <= 0}.

    Extreme rays are returned as primitive integer vectors; they are only
    computed when the lineality space is trivial (pointed cone).
    """
    lineality = null_space(a_rows, dim)
    if lineality:
        return lineality, []
    return [], _pointed_cone_rays(a_rows, dim)
