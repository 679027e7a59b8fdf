"""Labeled rational polytopes in the characteristic hyperplane.

A labeled polytope is cut out by inequalities <alpha, m_i p_i> <= lambda_i
with p_i a primitive integer outward normal and m_i a positive integer
label.  The geometry of interest always lives in the slice
{alpha : <alpha, reeb> = 1}, so every operation here takes the
characteristic (Reeb) vector alongside the facet data.  The moment cone
is the homogenization of the same data, cut out by the cone normals of
:func:`cone_normals`; ``cone_over`` and ``slice_cone`` translate between
the two pictures (:func:`split_cone_normal`, :func:`zero_offset_polytope`).
Whether a polytope is simple, irredundant and rational is checked once, by
:func:`toricontact.classify.validate_datum`, which computes the cone
normals once, walks the slice from them and hands them to the datum.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

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
    "sort_vertices",
    "split_cone_normal",
    "vertices",
    "zero_offset_polytope",
]


class LabeledFacet(FrozenValue):
    """One facet: outward primitive normal, positive integer label, offset.

    The facet inequality is <alpha, label * normal> <= offset.
    """

    __slots__ = ("normal", "label", "offset")

    def __init__(self, normal: tuple[int, ...], label: int = 1, offset: Fraction = 0):
        normal = as_integers(normal, "normal")
        offset = offset if type(offset) is Fraction else Fraction(offset)
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
            # offset / label = a / (b m) in lowest terms, with no Fraction
            a, bm = f.offset.numerator, f.offset.denominator * f.label
            g = gcd(a, bm)
            key = (f.normal, a // g, bm // g)
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
    """A vertex y / height: ``ray`` the primitive integer ray y, ``height``
    <y, reeb> > 0 (an int for integral reeb), ``active`` the facets tight
    at it and ``cone_index`` as :func:`vertices` says.  A primitive ray at
    positive height is one point, so equal fields are equal points."""

    __slots__ = ("ray", "height", "active", "cone_index")

    def __init__(self, ray: tuple[int, ...], height, active: frozenset[int], cone_index=None):
        object.__setattr__(self, "ray", ray)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "cone_index", cone_index)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The point y / height as Fractions, built on each read."""
        num, den = self.height.numerator, self.height.denominator
        return tuple([Fraction(x * den, num) for x in self.ray])


def sort_vertices(verts) -> list[Vertex]:
    """A list of vertices in lexicographic order of their coords, in integers:
    y / (p / q) sorts as y q (L / p), L the lcm of the numerators p."""
    big = lcm(*[v.height.numerator for v in verts])
    scale = [v.height.denominator * (big // v.height.numerator) for v in verts]
    order = sorted(range(len(verts)), key=lambda i: [x * scale[i] for x in verts[i].ray])
    return [verts[i] for i in order]


class MomentCone(FrozenValue):
    """Homogeneous form {x : <x, label_i * q_i> >= 0} with q_i primitive."""

    __slots__ = ("ambient_dim", "normals")

    def __init__(self, ambient_dim: int, normals: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "normals", normals)


def _exact(reeb) -> list:
    """The characteristic vector as ints where integral, else Fractions."""
    exact = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in reeb]
    return [x.numerator if x.denominator == 1 else x for x in exact]


def cone_normals(poly: LabeledPolytope, reeb) -> list[list]:
    """The labeled inward cone normals u_i = lambda_i * reeb - m_i * p_i,
    exactly and in facet order.

    The cone over the slice is {y : <y, u_i> >= 0, <y, reeb> >= 0}, so equal
    normals and characteristic vectors give equal vertices and active sets.
    With offset a/b each u_i is (a * reeb - b * m_i p_i) / b, an integer
    vector unless b does not divide it; only those entries become Fractions.
    Validation computes them once and the datum keeps them.  Raises if
    reeb's length is not the ambient dimension.
    """
    r = _exact(reeb)
    if len(r) != poly.ambient_dim:
        raise ValueError("characteristic vector has wrong dimension")
    normals = []
    for f in poly.facets:
        a, b = f.offset.numerator, f.offset.denominator
        u = [a * ri - b * yi for ri, yi in zip(r, f.functional)]
        if b != 1:
            u = [x // b if x % b == 0 else Fraction(x, b) for x in u]
        normals.append(u)
    return normals


def vertices(normals, reeb) -> list[Vertex]:
    """All vertices of a polytope sliced by the characteristic hyperplane,
    in lexicographic order, each with the set of facets active at it;
    ``normals`` are its cone normals at reeb, :func:`cone_normals`.

    The vertices are the rays of the cone over the slice (the cone cut out
    by the normals) at positive height <y, reeb>, each kept as its
    primitive ray y over that height, found by walking the edges of the
    slice (:func:`toricontact.geometry.sliced_cone_points`); a facet is
    active exactly when its cone normal vanishes on the integer ray.
    A simple vertex also gets its ``cone_index`` off the walk (else None):
    the gcd t_v of the maximal minors of its active primitive cone normals,
    which depends on the cone alone, not on reeb.  Raises if the slice is
    empty or unbounded.
    """
    r = _exact(reeb)
    if not any(r):
        raise ValueError("characteristic vector must be nonzero")
    a_rows = [[-x for x in u] for u in normals]
    status, points = geometry.sliced_cone_points(a_rows, r)
    if status == "empty":
        raise ValueError("empty polytope")
    if status == "unbounded":
        raise ValueError("polytope unbounded in characteristic hyperplane")
    return [Vertex(*p) for p in points]


def resliced_vertices(verts, reeb) -> list[Vertex]:
    """The vertices of a validated datum's moment cone sliced by another
    characteristic vector, read off the datum's vertices ``verts``.

    Lemma.  Let the datum's slice be bounded and nonempty, with C = {y :
    <u_i, y> >= 0} cut out by its cone normals.  Then C meets reeb^perp
    only in 0, so reeb > 0 on C minus 0 and C is pointed, and its extreme
    rays are exactly the vertices v, each with <v, reeb> = 1.  For any
    reeb', with h_v = <v, reeb'>, the slice C cap {<y, reeb'> = 1} is empty
    iff no h_v is positive and bounded iff every h_v is; its vertices are
    then v / h_v = y / <y, reeb'>, y the ray of v, with the same tight
    facets and the same cone index.

    Returns the vertices in the order of ``verts``, each one the same
    object when h_v = 1, and raises as :func:`vertices` does on the same
    cone, with the same messages in the same order.
    """
    den, rs = over_common_denominator(reeb)
    if len(rs) != len(verts[0].ray):
        raise ValueError("characteristic vector has wrong dimension")
    if not any(rs):
        raise ValueError("characteristic vector must be nonzero")
    heights = [sum(map(mul, v.ray, rs)) for v in verts]  # den <y, reeb'> per vertex
    if all(s <= 0 for s in heights):
        raise ValueError("empty polytope")
    if any(s <= 0 for s in heights):
        raise ValueError("polytope unbounded in characteristic hyperplane")
    return [
        v if s == v.height * den
        else Vertex(v.ray, s if den == 1 else Fraction(s, den), v.active, v.cone_index)
        for v, s in zip(verts, heights)
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


def split_cone_normal(u) -> tuple[tuple[int, ...], int]:
    """A nonzero integral cone normal u as (q, l): its label l = gcd(u) and
    its primitive part q = u / l."""
    label = gcd(*u)
    return tuple([x // label for x in u]), label


def zero_offset_polytope(ambient_dim: int, normals) -> LabeledPolytope:
    """The polytope with facets (-q_i, l_i, 0) over split cone normals
    (q_i, l_i): its cone normals are 0 * reeb + l_i q_i at every reeb."""
    facets = [LabeledFacet(tuple([-x for x in q]), label, Fraction(0)) for q, label in normals]
    return LabeledPolytope(ambient_dim, tuple(facets))


def _moment_cone(ambient_dim: int, normals) -> MomentCone:
    """Homogenize to the moment cone: split each cone normal u_i
    (:func:`cone_normals`) as (positive label) * (primitive vector).

    The decomposition must be integral.
    """
    normals = integral_cone_normals(normals)
    if not all(map(any, normals)):
        raise ValueError("degenerate facet under coning")
    return MomentCone(ambient_dim, tuple(map(split_cone_normal, normals)))


def cone_over(poly: LabeledPolytope, reeb) -> MomentCone:
    """The moment cone of ``poly`` at reeb (:func:`_moment_cone`)."""
    return _moment_cone(poly.ambient_dim, cone_normals(poly, reeb))


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
    if status != "bounded" or any(len(t) == len(a_rows) for _, _, t, _ in points):
        raise ValueError("characteristic vector not in interior of dual cone")
    return zero_offset_polytope(cone.ambient_dim, cone.normals)
