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

from .lattice import FiniteAbelianGroup, FrozenValue, det, kernel_lattice_basis, matvec
from .lattice import over_common_denominator, primitive, snf
from .polytope import LabeledFacet, LabeledPolytope, Vertex, cone_normals, cone_over
from .polytope import integral_cone_normals, slice_cone
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


def _barycenter(points) -> tuple[Fraction, ...]:
    """Mean of points given by :func:`over_common_denominator`, summed in integers."""
    den = lcm(*(d for d, _ in points))
    scaled = ([x * (den // d) for x in nums] for d, nums in points)
    return tuple(Fraction(sum(col), den * len(points)) for col in zip(*scaled))


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
    s, _, _ = snf([generators[i] for i in sorted(face)])
    diag = (s[k][k] for k in range(min(len(s), len(s[0]))))
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
    The facet normals are projected once per datum, and each face's sample
    point is the barycentre of its vertices.

    Holonomy: at a vertex v whose n generator rows have |det| equal to the
    product of their labels, the projected primitive normals of A(v) are a
    basis of Z^n.  Every face F inside A(v) then has the holonomy
    Z/m_i + ... (i in F), put in invariant-factor form by gcd and lcm with
    no Smith normal form; with all labels 1 it is trivial.  Every other
    nonempty face costs one Smith normal form of its generator rows, whose
    diagonal entries above 1 are its holonomy.

    Regular means every leaf holonomy group is trivial and every label is 1.
    """
    _require_rational(datum)
    generators = _facet_generators(datum)
    labels = [f.label for f in datum.facets]
    face_points = {}
    diagonal = set()  # faces inside the active set of a unimodular vertex
    for v in datum.vertices:
        point = over_common_denominator(v.coords)
        active = sorted(v.active)
        unimodular = abs(det([generators[i] for i in active])) == prod(
            labels[i] for i in active
        )
        for mask in range(1 << len(active)):
            face = frozenset(active[i] for i in range(len(active)) if mask >> i & 1)
            face_points.setdefault(face, []).append(point)
            if unimodular:
                diagonal.add(face)
    per_face = []
    for face in sorted(face_points, key=lambda f: (len(f), sorted(f))):
        if face in diagonal:
            group = _diagonal_holonomy(labels[i] for i in sorted(face))
        else:
            group = _face_holonomy(generators, face)
        per_face.append(
            FaceInvariants(
                face=face,
                isotropy_basis=tuple(datum.facets[i].normal for i in sorted(face)),
                holonomy=group,
                sample_point=_barycenter(face_points[face]),
            )
        )
    regular = all(f.holonomy.is_trivial for f in per_face) and all(
        f.label == 1 for f in datum.facets
    )
    return ClassificationReport(
        regularity="regular" if regular else "quasi-regular",
        per_face=tuple(per_face),
    )


def perturb_reeb(datum: ToricContactDatum, new_reeb) -> ToricContactDatum:
    """Reslice the moment cone with a new characteristic vector.

    Labels ride through the cone unchanged, facet by facet.  The new
    vector must be strictly positive on the cone, and integral.
    """
    _require_rational(datum)
    cone = cone_over(datum.polytope, datum.reeb)
    return validate_datum(slice_cone(cone, new_reeb), new_reeb)


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
