"""Toric contact data and their combinatorial invariants.

A datum is a labeled rational polytope together with the characteristic
(Reeb) vector whose hyperplane slice it lives in.  From it we read off,
per face of the polytope: the isotropy algebra (spanned by the primitive
facet normals through the face) and the leaf holonomy of the Reeb
foliation, a finite abelian group.

Holonomy is an invariant of the quotient by the Reeb circle, so it is
computed in the quotient lattice Z^n = Z^{n+1} / Z*primitive(reeb): each
facet through the face contributes label * primitive(image of its normal),
and with L the span of those generators the group is the torsion of Z^n/L,
read off one Smith normal form.  It equals the saturated span sat(L)
divided by L, since Z^n/L splits as sat(L)/L plus the free Z^n/sat(L).
Computing the same quotient upstairs in Z^{n+1} would miss contributions
at faces whose normal span is entangled with the Reeb direction (already
visible for weighted spheres), and would contradict the Reeb orbit-period
oracle; see the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add

from .lattice import FiniteAbelianGroup, FrozenValue, det, kernel_lattice_basis, matvec
from .lattice import primitive, smith_diagonal
from .polytope import LabeledFacet, LabeledPolytope, Vertex, cone_normals, cone_over
from .polytope import integral_cone_normals, resliced_vertices
from .polytope import faces_containing as _poly_faces_containing
from .polytope import vertices as _poly_vertices

__all__ = [
    "ClassificationReport",
    "FaceInvariants",
    "ToricContactDatum",
    "classify",
    "holonomy",
    "isotropy_algebra",
    "perturb_reeb",
    "rescale",
    "validate_datum",
]


class ToricContactDatum(FrozenValue):
    """A validated (polytope, characteristic vector) pair.

    ``reeb`` holds ints in rational mode, Fractions in irrational mode.
    Construct through :func:`validate_datum`, which checks every invariant
    and caches the vertex list.
    """

    __slots__ = ("polytope", "reeb", "mode", "vertices")

    def __init__(
        self, polytope: LabeledPolytope, reeb: tuple, mode: str, vertices: tuple[Vertex, ...]
    ):
        object.__setattr__(self, "polytope", polytope)
        object.__setattr__(self, "reeb", reeb)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "vertices", vertices)

    @property
    def n(self) -> int:
        return self.polytope.dim

    @property
    def facets(self) -> tuple[LabeledFacet, ...]:
        return self.polytope.facets


class FaceInvariants(FrozenValue):
    __slots__ = ("face", "isotropy_basis", "holonomy", "sample_point")

    def __init__(
        self,
        face: frozenset[int],
        isotropy_basis: tuple[tuple[int, ...], ...],
        holonomy: FiniteAbelianGroup,
        sample_point: tuple[Fraction, ...],
    ):
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "isotropy_basis", isotropy_basis)
        object.__setattr__(self, "holonomy", holonomy)
        object.__setattr__(self, "sample_point", sample_point)


class ClassificationReport(FrozenValue):
    __slots__ = ("regularity", "per_face")

    def __init__(self, regularity: str, per_face: tuple[FaceInvariants, ...]):
        object.__setattr__(self, "regularity", regularity)  # "regular" or "quasi-regular"
        object.__setattr__(self, "per_face", per_face)

    @property
    def nontrivial_faces(self) -> tuple[FaceInvariants, ...]:
        return tuple(f for f in self.per_face if not f.holonomy.is_trivial)


def validate_datum(
    poly: LabeledPolytope, reeb, mode: str = "rational"
) -> ToricContactDatum:
    """Check all datum invariants and return the validated datum.

    In rational mode the characteristic vector must be integral, and so
    must every cone normal offset * reeb - label * normal; the explicit
    irrational mode admits rational vectors but restricts the datum to
    vertex geometry (no holonomy or classification).
    """
    if mode not in ("rational", "irrational"):
        raise ValueError(f"unknown mode {mode!r}")
    r = [Fraction(x) for x in reeb]
    # vertices() checks this too, but "not integral" must not win over it
    if len(r) != poly.ambient_dim:
        raise ValueError("characteristic vector has wrong dimension")
    integral = all(x.denominator == 1 for x in r)
    if not integral and mode == "rational":
        raise ValueError("characteristic vector not integral")
    stored = tuple(int(x) for x in r) if integral else tuple(r)
    actual_mode = "rational" if integral else "irrational"

    verts = _poly_vertices(poly, stored)
    n = poly.dim
    for v in verts:
        if len(v.active) != n:
            raise ValueError("polytope not simple")
    # at a simple vertex every active inequality is a facet, so an
    # inequality is redundant exactly when no vertex makes it tight
    tight = frozenset().union(*(v.active for v in verts))
    redundant = [i for i in range(len(poly.facets)) if i not in tight]
    if redundant:
        raise ValueError(f"redundant facets (tight at no vertex): indices {redundant}")
    # No span or full-dimension check is needed:
    # - a y orthogonal to every functional and to reeb is a line in the
    #   cone over the slice, so vertices() raised "empty" or "unbounded";
    # - the implicit equalities of a k-dimensional slice (k < n) have rank
    #   n - k and are positively dependent, so there are at least n - k + 1
    #   of them; a vertex is tight on those and on k more, so on more than
    #   n facets, and the simplicity check raised.
    if actual_mode == "rational":
        # reduction needs integral cone normals; none is zero, for a zero
        # one is tight at every vertex and the simplicity check raised.
        # With offset a/b in lowest terms, u_i = (a * reeb - b * m_i p_i) / b
        # is integral exactly when b divides every entry of reeb, so the
        # normals that vertices() built are built again only to name the
        # first facet that fails
        g = gcd(*stored)
        if any(g % f.offset.denominator for f in poly.facets):
            integral_cone_normals(cone_normals(poly, stored))
    return ToricContactDatum(poly, stored, actual_mode, tuple(verts))


def isotropy_algebra(datum: ToricContactDatum, point) -> list[tuple[int, ...]]:
    """Primitive facet normals through the point; empty for interior points."""
    active = _poly_faces_containing(datum.polytope, datum.reeb, point)
    return [datum.facets[i].normal for i in sorted(active)]


def _require_rational(datum: ToricContactDatum):
    if datum.mode != "rational":
        raise ValueError(
            "holonomy and classification need an integral characteristic vector"
        )


def _reeb_projection(datum: ToricContactDatum):
    """Matrix of Z^{n+1} -> Z^{n+1}/Z*primitive(reeb): a saturated basis of the
    functionals vanishing on reeb.  It extends to a basis of the dual lattice,
    so the map is onto Z^n; its kernel is the line of reeb, Z*primitive(reeb)."""
    return kernel_lattice_basis([list(datum.reeb)])


def _facet_generators(datum: ToricContactDatum) -> list[list[int]]:
    """Per facet, label * primitive(image of its normal) in Z^{n+1}/Z*reeb."""
    proj = _reeb_projection(datum)
    return [
        [f.label * x for x in primitive(matvec(proj, f.normal))]
        for f in datum.facets
    ]


def _face_holonomy(generators, face) -> FiniteAbelianGroup:
    """Torsion of Z^n modulo the span L of the face's facet generators: the
    diagonal entries above 1 of the Smith normal form of the generator rows
    (Z^n/L is the sum of the Z/d_k and a free part).  The empty face has L = 0.
    """
    if not face:
        return FiniteAbelianGroup()
    diag = smith_diagonal([generators[i] for i in sorted(face)])
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))


def _diagonal_holonomy(labels) -> FiniteAbelianGroup:
    """Torsion of Z^n modulo the span of m_i e_i over part of a basis: the
    invariant factors of diag(m_i), sorted into a divisibility chain by
    replacing pairs with their gcd and lcm (Z/a + Z/b = Z/gcd + Z/lcm)."""
    d = list(labels)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return FiniteAbelianGroup(tuple(x for x in d if x > 1))


def holonomy(datum: ToricContactDatum, face) -> FiniteAbelianGroup:
    """Leaf holonomy group of the face with the given active facet set."""
    _require_rational(datum)
    face = frozenset(face)
    # the faces of a simple polytope are the subsets of vertex active sets
    if not any(face <= v.active for v in datum.vertices):
        raise ValueError("not a face")
    return _face_holonomy(_facet_generators(datum), face)


def classify(datum: ToricContactDatum) -> ClassificationReport:
    """Invariants for every face of the polytope, plus the regularity verdict.

    The face lattice of a simple polytope is exactly the family of subsets
    of vertex active sets; the whole polytope appears as the empty face.
    Each active set is a bitmask ``full`` whose subsets are the masks
    ``sub = (sub - 1) & full``.  Per face the walk sums its vertex count
    and its vertices' numerators over D, the lcm of all vertex
    denominators, so its sample point, the barycentre of its vertices, is
    sum / (D * count).  The facet normals are projected once per datum.

    Holonomy: at a vertex v whose n generator rows have |det| equal to the
    product of their labels, the projected primitive normals of A(v) are a
    basis of Z^n.  Every face F inside A(v) then has the holonomy
    Z/m_i + ... (i in F), put in invariant-factor form by gcd and lcm with
    no Smith normal form, once per multiset of labels; with all labels 1
    it is trivial.  Every other nonempty face costs the Smith diagonal of
    its generator rows, whose entries above 1 are its holonomy.

    Regular means every leaf holonomy group is trivial and every label is 1.
    """
    _require_rational(datum)
    generators = _facet_generators(datum)
    labels = [f.label for f in datum.facets]
    den = lcm(*(x.denominator for v in datum.vertices for x in v.coords))
    sums = {}  # face mask -> [vertices, unimodular vertices, numerator sums over den]
    zero = [0] * (datum.polytope.ambient_dim + 2)
    for v in datum.vertices:
        active = sorted(v.active)
        unimodular = abs(det([generators[i] for i in active])) == prod(labels[i] for i in active)
        row = [1, unimodular, *(x.numerator * (den // x.denominator) for x in v.coords)]
        full = sub = sum(1 << i for i in active)
        while True:
            sums[sub] = list(map(add, sums.get(sub, zero), row))
            if not sub:
                break
            sub = (sub - 1) & full
    groups = {}  # sorted labels -> holonomy of a face inside a unimodular vertex
    faces = {m: [i for i in range(len(labels)) if m >> i & 1] for m in sums}
    per_face = []
    for mask, idx in sorted(faces.items(), key=lambda face: (len(face[1]), face[1])):
        count, diagonal, *nums = sums[mask]
        if diagonal:  # the face lies in a unimodular vertex's active set
            key = tuple(sorted([labels[i] for i in idx]))
            if key not in groups:
                groups[key] = _diagonal_holonomy(key)
            group = groups[key]
        else:
            group = _face_holonomy(generators, idx)
        normals = tuple([datum.facets[i].normal for i in idx])
        point = tuple([Fraction(s, den * count) for s in nums])
        per_face.append(FaceInvariants(frozenset(idx), normals, group, point))
    regular = all(f.holonomy.is_trivial for f in per_face) and set(labels) == {1}
    return ClassificationReport("regular" if regular else "quasi-regular", tuple(per_face))


def perturb_reeb(datum: ToricContactDatum, new_reeb) -> ToricContactDatum:
    """Reslice the moment cone with a new characteristic vector.

    Labels ride through the cone unchanged, facet by facet.  The new
    vector must be strictly positive on the cone, and integral.  The cone
    is the datum's own, so the new vertices are the datum's, rescaled
    (:func:`toricontact.polytope.resliced_vertices`), with the same active
    sets, and the rest of :func:`validate_datum` holds with no slice walked.
    """
    _require_rational(datum)
    r = [Fraction(x) for x in new_reeb]
    if len(r) != datum.polytope.ambient_dim:
        raise ValueError("characteristic vector has wrong dimension")
    try:
        verts = sorted(resliced_vertices(datum.vertices, r), key=lambda v: v.coords)
    except ValueError:  # empty, unbounded or zero: not positive on the cone
        raise ValueError("characteristic vector not in interior of dual cone") from None
    if any(x.denominator != 1 for x in r):
        raise ValueError("characteristic vector not integral")
    cone = cone_over(datum.polytope, datum.reeb)
    facets = tuple(LabeledFacet(tuple(-x for x in q), m) for q, m in cone.normals)
    poly = LabeledPolytope(cone.ambient_dim, facets)
    return ToricContactDatum(poly, tuple(map(int, r)), "rational", tuple(verts))


def rescale(datum: ToricContactDatum, c) -> ToricContactDatum:
    """Scale the polytope by c > 0 and the characteristic vector by 1/c.

    The hyperplane identity <v, reeb> = 1 is preserved.  When reeb/c is no
    longer integral the result comes back in irrational mode (its ``mode``
    field is the warning flag) and supports vertex geometry only.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("scale factor must be positive")
    facets = tuple(
        LabeledFacet(f.normal, f.label, c * f.offset) for f in datum.polytope.facets
    )
    new_reeb = tuple(Fraction(x) / c for x in datum.reeb)
    return validate_datum(
        LabeledPolytope(datum.polytope.ambient_dim, facets), new_reeb, mode="irrational"
    )
