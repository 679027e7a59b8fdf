"""Labeled rational polytopes in the characteristic hyperplane.

A labeled polytope is cut out by inequalities <alpha, m_i p_i> <= lambda_i
with p_i a primitive integer outward normal and m_i a positive integer
label.  The geometry of interest always lives in the slice
{alpha : <alpha, reeb> = 1}, so every operation here takes the
characteristic (Reeb) vector alongside the facet data.  The moment cone
is the homogenization of the same data, cut out by the cone normals of
:func:`cone_normals`; ``cone_over`` and ``slice_cone`` translate between
the two pictures.  Whether a polytope is simple, irredundant and
rational is checked once, by :func:`toricontact.classify.validate_datum`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import geometry
from .lattice import FrozenValue, as_integers, over_common_denominator

__all__ = [
    "LabeledFacet",
    "LabeledPolytope",
    "MomentCone",
    "Vertex",
    "cone_normals",
    "cone_over",
    "integral_cone_normals",
    "resliced_vertices",
    "slice_cone",
    "vertices",
]


class LabeledFacet(FrozenValue):
    """One facet: outward primitive normal, positive integer label, offset.

    The facet inequality is <alpha, label * normal> <= offset.
    """

    __slots__ = ("normal", "label", "offset")

    def __init__(self, normal: tuple[int, ...], label: int = 1, offset: Fraction = 0):
        normal = as_integers(normal, "normal")
        offset = Fraction(offset)
        if not any(normal):
            raise ValueError("normal is zero")
        if isinstance(label, bool) or not isinstance(label, int) or label < 1:
            raise ValueError("label must be a positive integer")
        g = gcd(*normal)
        if g != 1:
            reduced = ", ".join(str(x // g) for x in normal)
            raise ValueError(f"normal not primitive; write label {label * g}, normal ({reduced})")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "offset", offset)

    @property
    def functional(self) -> tuple[int, ...]:
        """The full cutting functional m * p."""
        return tuple(self.label * x for x in self.normal)


class LabeledPolytope(FrozenValue):
    __slots__ = ("ambient_dim", "facets")

    def __init__(self, ambient_dim: int, facets: tuple[LabeledFacet, ...]):
        facets = tuple(facets)
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        if len(facets) < ambient_dim:
            raise ValueError("a polytope needs at least ambient_dim facets")
        for f in facets:
            if len(f.normal) != ambient_dim:
                raise ValueError("facet normal has wrong dimension")
        seen = {}
        for i, f in enumerate(facets):
            key = (f.normal, Fraction(f.offset, f.label))
            if key in seen:
                raise ValueError(f"duplicate facet: indices {seen[key]} and {i}")
            seen[key] = i
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "facets", facets)

    @property
    def dim(self) -> int:
        """Dimension of the polytope inside the characteristic hyperplane."""
        return self.ambient_dim - 1


class Vertex(FrozenValue):
    __slots__ = ("coords", "active", "cone_index")

    def __init__(self, coords: tuple[Fraction, ...], active: frozenset[int], cone_index=None):
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "cone_index", cone_index)


class MomentCone(FrozenValue):
    """Homogeneous form {x : <x, label_i * q_i> >= 0} with q_i primitive."""

    __slots__ = ("ambient_dim", "normals")

    def __init__(self, ambient_dim: int, normals: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "normals", normals)


def _exact(reeb) -> list:
    """The characteristic vector as ints where integral, else Fractions."""
    exact = [x if type(x) is int else Fraction(x) for x in reeb]
    return [x.numerator if x.denominator == 1 else x for x in exact]


def cone_normals(poly: LabeledPolytope, reeb) -> list[list]:
    """The labeled inward cone normals u_i = lambda_i * reeb - m_i * p_i,
    exactly and in facet order.

    The cone over the slice is {y : <y, u_i> >= 0, <y, reeb> >= 0}, so equal
    normals and characteristic vectors give equal vertices and active sets.
    With offset a/b each u_i is (a * reeb - b * m_i p_i) / b, an integer
    vector unless b does not divide it; only those entries become Fractions.
    """
    r = _exact(reeb)
    normals = []
    for f in poly.facets:
        a, b = f.offset.numerator, f.offset.denominator
        u = [a * ri - b * yi for ri, yi in zip(r, f.functional)]
        if b != 1:
            u = [x // b if x % b == 0 else Fraction(x, b) for x in u]
        normals.append(u)
    return normals


def vertices(poly: LabeledPolytope, reeb) -> list[Vertex]:
    """All vertices of the polytope sliced by the characteristic hyperplane.

    Coordinates are exact rationals; each vertex carries the set of facets
    active at it.  The vertices are the rays of the cone over the slice
    (the cone cut out by :func:`cone_normals`) at positive height
    <y, reeb>, rescaled to height 1, found by walking the edges of the
    slice (:func:`toricontact.geometry.sliced_cone_points`); a facet is
    active exactly when its cone normal vanishes on the integer ray.
    A simple vertex also gets its ``cone_index`` off the walk (else None):
    the gcd t_v of the maximal minors of its active primitive cone normals,
    which depends on the cone alone, not on reeb.  Raises if the slice is
    empty or unbounded.
    """
    r = _exact(reeb)
    if len(r) != poly.ambient_dim:
        raise ValueError("characteristic vector has wrong dimension")
    if not any(r):
        raise ValueError("characteristic vector must be nonzero")
    a_rows = [[-x for x in u] for u in cone_normals(poly, r)]
    status, points = geometry.sliced_cone_points(a_rows, r)
    if status == "empty":
        raise ValueError("empty polytope")
    if status == "unbounded":
        raise ValueError("polytope unbounded in characteristic hyperplane")
    return [Vertex(p, active, index) for p, active, index in points]


def resliced_vertices(verts, reeb) -> list[Vertex]:
    """The vertices of a validated datum's moment cone sliced by another
    characteristic vector, read off the datum's vertices ``verts``.

    Lemma.  Let the datum's slice be bounded and nonempty, with C = {y :
    <u_i, y> >= 0} cut out by its cone normals.  Then C meets reeb^perp
    only in 0, so reeb > 0 on C minus 0 and C is pointed, and its extreme
    rays are exactly the vertices v, each with <v, reeb> = 1.  For any
    reeb', with h_v = <v, reeb'>, the slice C cap {<y, reeb'> = 1} is empty
    iff no h_v is positive and bounded iff every h_v is; its vertices are
    then v / h_v, with the same tight facets and the same cone index.

    Returns the vertices in the order of ``verts``, each one the same
    object when h_v = 1, and raises as :func:`vertices` does on the same
    cone, with the same messages in the same order.
    """
    r = [Fraction(x) for x in reeb]
    if len(r) != len(verts[0].coords):
        raise ValueError("characteristic vector has wrong dimension")
    if not any(r):
        raise ValueError("characteristic vector must be nonzero")
    # h_v = s / (den * hv), in integers: reeb' = rs / den, v = vs / hv
    den, rs = over_common_denominator(r)
    heights = []
    for v in verts:
        hv, vs = over_common_denominator(v.coords)
        heights.append((sum([a * b for a, b in zip(vs, rs)]), den * hv, vs))
    if all(s <= 0 for s, _, _ in heights):
        raise ValueError("empty polytope")
    if any(s <= 0 for s, _, _ in heights):
        raise ValueError("polytope unbounded in characteristic hyperplane")
    return [
        v if s == one else Vertex(tuple(Fraction(x * den, s) for x in vs), v.active, v.cone_index)
        for v, (s, one, vs) in zip(verts, heights)
    ]


def integral_cone_normals(normals) -> list[list[int]]:
    """The cone normals of :func:`cone_normals` as ints; raises at the first
    facet whose cone normal is not integral."""
    for i, u in enumerate(normals):
        if any(x.denominator != 1 for x in u):
            raise ValueError(
                f"cone normal decomposition not integral: facet {i} cones to "
                f"({', '.join(map(str, u))}); scale the characteristic vector "
                "or the offsets so that offset * reeb is integral"
            )
    return [[int(x) for x in u] for u in normals]


def cone_over(poly: LabeledPolytope, reeb) -> MomentCone:
    """Homogenize to the moment cone: decompose each cone normal u_i
    (:func:`cone_normals`) as (positive label) * (primitive vector).

    The decomposition must be integral.
    """
    normals = []
    for u in integral_cone_normals(cone_normals(poly, reeb)):
        if not any(u):
            raise ValueError("degenerate facet under coning")
        label = gcd(*u)
        normals.append((tuple(x // label for x in u), label))
    return MomentCone(poly.ambient_dim, tuple(normals))


def slice_cone(cone: MomentCone, reeb) -> LabeledPolytope:
    """Cut the cone by {<alpha, reeb> = 1}, keeping per-facet labels.

    Requires the cone C != 0 and reeb strictly positive on C minus 0, which
    makes the polytope compact: exactly when the edge walk
    (:func:`toricontact.geometry.sliced_cone_points`) finds the slice
    bounded and nonempty with no vertex v tight on every normal (-v would
    be in C).  For if y in C minus 0 has <y, reeb> <= 0 and x is a vertex,
    y or else x + t y, t = -1 / <y, reeb>, lies in C cap reeb^perp, a
    recession direction of the slice, unless x + t y = 0: then -x is in C.
    """
    r = _exact(reeb)
    if len(r) != cone.ambient_dim:
        raise ValueError("characteristic vector has wrong dimension")
    a_rows = [[-x for x in q] for q, _ in cone.normals]
    status, points = geometry.sliced_cone_points(a_rows, r)
    if status != "bounded" or any(len(t) == len(a_rows) for _, t, _ in points):
        raise ValueError("characteristic vector not in interior of dual cone")
    facets = [LabeledFacet(tuple(-x for x in q), label, Fraction(0)) for q, label in cone.normals]
    return LabeledPolytope(cone.ambient_dim, tuple(facets))
