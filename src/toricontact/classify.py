"""Toric contact data and their combinatorial invariants.

A datum is a labeled rational polytope together with the characteristic
(Reeb) vector whose hyperplane slice it lives in.  From it we read off,
per face of the polytope: the isotropy algebra (spanned by the primitive
facet normals through the face, reported as its ``isotropy_basis``) and
the leaf holonomy of the Reeb foliation, a finite abelian group.  A datum
can also be resliced by a new Reeb vector through its moment cone.

Holonomy is an invariant of the quotient by the Reeb circle, so it is
computed in the quotient lattice Z^n = Z^{n+1} / Z*primitive(reeb): each
facet through the face contributes label * primitive(image of its normal),
and with L the span of those generators the group is the torsion of Z^n/L,
read off one Smith normal form.  It equals the saturated span sat(L)
divided by L, since Z^n/L splits as sat(L)/L plus the free Z^n/sat(L).
Computing the same quotient upstairs in Z^{n+1} would miss contributions
at faces whose normal span is entangled with the Reeb direction (already
visible for weighted spheres), and would contradict the Reeb orbit-period
oracle of ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .lattice import FiniteAbelianGroup, FrozenValue, kernel_lattice_basis, matvec
from .lattice import primitive, smith_diagonal
from .polytope import LabeledFacet, LabeledPolytope, Vertex, _exact, _kept_cone_normals, cone_over
from .polytope import integral_cone_normals, resliced_vertices, sort_vertices
from .polytope import vertices as _poly_vertices

__all__ = [
    "ClassificationReport",
    "FaceInvariants",
    "ToricContactDatum",
    "classify",
    "holonomy",
    "perturb_reeb",
    "validate_datum",
]


class ToricContactDatum(FrozenValue):
    """A validated (polytope, characteristic vector) pair.

    ``reeb`` holds ints in rational mode, Fractions in irrational mode, and
    ``mode`` is read off it.  Construct through :func:`validate_datum`, which
    checks every invariant and caches the vertex list.  ``cone_normals`` is
    the one list the polytope keeps for reeb: the vertex walk of validation
    computed it, and every later stage shares it, unchanged.
    """

    __slots__ = ("polytope", "reeb", "vertices")

    def __init__(self, polytope: LabeledPolytope, reeb: tuple, vertices: tuple[Vertex, ...]):
        object.__setattr__(self, "polytope", polytope)
        object.__setattr__(self, "reeb", reeb)
        object.__setattr__(self, "vertices", vertices)

    @property
    def mode(self) -> str:
        return "rational" if all(type(x) is int for x in self.reeb) else "irrational"

    @property
    def n(self) -> int:
        return self.polytope.dim

    @property
    def facets(self) -> tuple[LabeledFacet, ...]:
        return self.polytope.facets

    @property
    def cone_normals(self) -> list[list]:
        return _kept_cone_normals(self.polytope, self.reeb)


class FaceInvariants(FrozenValue):
    """One face's active facets, isotropy basis, holonomy and sample point.

    The sample point, the barycentre of the face's vertices, is kept as
    integers: ``point_sums`` over the one positive ``point_den``.
    ``sample_point`` builds its tuple of Fractions on each read, and
    equality, hashing and repr go through it, for the sums over
    ``point_den`` need not be in lowest terms.
    """

    __slots__ = ("face", "isotropy_basis", "holonomy", "point_sums", "point_den")
    _fields = ("face", "isotropy_basis", "holonomy", "sample_point")

    def __init__(
        self,
        face: frozenset[int],
        isotropy_basis: tuple[tuple[int, ...], ...],
        holonomy: FiniteAbelianGroup,
        point_sums: tuple[int, ...],
        point_den: int,
    ):
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "isotropy_basis", isotropy_basis)
        object.__setattr__(self, "holonomy", holonomy)
        object.__setattr__(self, "point_sums", point_sums)
        object.__setattr__(self, "point_den", point_den)

    @property
    def sample_point(self) -> tuple[Fraction, ...]:
        den = self.point_den
        return tuple([Fraction(s, den) for s in self.point_sums])


class ClassificationReport(FrozenValue):
    __slots__ = ("regularity", "per_face")

    def __init__(self, regularity: str, per_face: tuple[FaceInvariants, ...]):
        object.__setattr__(self, "regularity", regularity)  # "regular" or "quasi-regular"
        object.__setattr__(self, "per_face", per_face)

    @property
    def nontrivial_faces(self) -> tuple[FaceInvariants, ...]:
        return tuple(f for f in self.per_face if not f.holonomy.is_trivial)


def validate_datum(poly: LabeledPolytope, reeb, mode: str = "rational") -> ToricContactDatum:
    """Check all datum invariants and return the validated datum.

    In rational mode the characteristic vector must be integral, and so
    must every cone normal offset * reeb - label * normal; the explicit
    irrational mode admits rational vectors but restricts the datum to
    vertex geometry (no holonomy or classification).
    """
    if mode not in ("rational", "irrational"):
        raise ValueError(f"unknown mode {mode!r}")
    r = _exact(reeb)
    # vertices() checks this too, but "not integral" must not win over it
    if len(r) != poly.ambient_dim:
        raise ValueError("characteristic vector has wrong dimension")
    integral = all(type(x) is int for x in r)
    if not integral and mode == "rational":
        raise ValueError("characteristic vector not integral")
    stored = tuple(r) if integral else tuple([Fraction(x) if type(x) is int else x for x in r])

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
    if integral:
        # reduction needs integral cone normals; none is zero, for a zero
        # one is tight at every vertex and the simplicity check raised.
        # With offset a/b in lowest terms, u_i = (a * reeb - b * m_i p_i) / b
        # is integral exactly when b divides every entry of reeb, so the
        # normals that vertices() kept are read again only to name the
        # first facet that fails
        g = gcd(*stored)
        if any(g % f.offset.denominator for f in poly.facets):
            integral_cone_normals(_kept_cone_normals(poly, stored))
    return ToricContactDatum(poly, stored, tuple(verts))


def _require_rational(datum: ToricContactDatum):
    if datum.mode != "rational":
        raise ValueError("holonomy and classification need an integral characteristic vector")


def _reeb_projection(datum: ToricContactDatum):
    """Matrix of Z^{n+1} -> Z^{n+1}/Z*primitive(reeb): a saturated basis of the
    functionals vanishing on reeb.  It extends to a basis of the dual lattice,
    so the map is onto Z^n; its kernel is the line of reeb, Z*primitive(reeb)."""
    return kernel_lattice_basis([list(datum.reeb)])


def _facet_generators(datum: ToricContactDatum):
    """Per facet, label * primitive(image of its normal) in Z^{n+1}/Z*reeb,
    and the content (gcd) of that image, which ``primitive`` divides out."""
    proj = _reeb_projection(datum)
    images = [matvec(proj, f.normal) for f in datum.facets]
    generators = [[f.label * x for x in primitive(p)] for f, p in zip(datum.facets, images)]
    return generators, [gcd(*p) for p in images]


def _face_holonomy(generators, face, shared=None) -> FiniteAbelianGroup:
    """Torsion of Z^n modulo the span L of the generators of the facets
    ``face`` lists in increasing order: the diagonal entries above 1 of the
    Smith normal form of those rows (Z^n/L is the sum of the Z/d_k and a
    free part).  The empty face has L = 0.  ``shared``, when given, keeps
    one group per tuple of invariant factors."""
    diag = []
    if face:
        rows = [generators[i] for i in face]
        diag = smith_diagonal(rows) if len(rows) > 1 else [gcd(*rows[0])]  # one row: its content
    factors = tuple(d for d in diag if d > 1)
    if shared is None:
        return FiniteAbelianGroup(factors)
    return shared.get(factors) or shared.setdefault(factors, FiniteAbelianGroup(factors))


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
    return _face_holonomy(_facet_generators(datum)[0], sorted(face))


def classify(datum: ToricContactDatum) -> ClassificationReport:
    """Invariants for every face of the polytope, plus the regularity verdict.

    The face lattice of a simple polytope is exactly the family of subsets
    of vertex active sets; the whole polytope appears as the empty face.
    Each active set is a bitmask ``full`` whose subsets are the masks
    ``sub = (sub - 1) & full``; a face's facets are its mask's set bits.
    Each mask collects its vertices' rays over D, the lcm of all vertex
    heights, and each face sums them once: its sample point,
    the barycentre of its vertices, is sum / (D * count).  The face keeps
    those integers as ``point_sums`` over ``point_den = D * count``, so no
    Fraction is built until a caller reads ``sample_point``.  The facet
    normals are projected once per datum.

    Holonomy: at a unimodular vertex v, whose n generator rows G_A have
    |det| equal to the product of their labels, the projected primitive
    normals of A(v) are a basis of Z^n.  Every face F inside A(v) then has
    the holonomy Z/m_i + ... (i in F), put in invariant-factor form by gcd
    and lcm with no Smith normal form, once per multiset of labels.  Every
    other nonempty face costs the Smith diagonal of its generator rows,
    whose entries above 1 are its holonomy.  Faces with equal groups share
    one group object, so the document names each group once.

    No determinant finds the unimodular vertices.  Let t_v be the cone
    index the walk hands v (:func:`toricontact.polytope.vertices`), y its
    primitive ray and h = <reeb, y>, the common denominator of v = y / h;
    g = gcd(reeb), l_i = gcd(u_i) the label of the cone normal u_i = l_i
    q_i and c_i the content of P p_i that ``primitive`` divides out.  Then
    |det G_A| g prod c_i = t_v h prod l_i (i in A), so v is unimodular
    exactly when t_v h = g prod k_i, with k_i = m_i c_i / l_i the content
    of P q_i.  Proof: P kills reeb, so l_i P q_i = P u_i = -m_i P p_i =
    -c_i G_i.  In a basis [reeb / g, B] of Z^{n+1}, where P B is a basis of
    Z^n, reeb = (g, 0) and q_i = (a_i, b_i) with P q_i = P B b_i, so
    |det [reeb; q_A]| = g |det P q_A|; and expanded along reeb it is t_v h
    (:func:`toricontact.geometry.sliced_cone_points`).

    Regular means every leaf holonomy group is trivial and every label is 1.
    """
    _require_rational(datum)
    generators, contents = _facet_generators(datum)
    facets = datum.facets
    labels = [f.label for f in facets]
    normals = [f.normal for f in facets]
    cone_labels = [gcd(*u) for u in datum.cone_normals]
    ks = [m * c // l for m, c, l in zip(labels, contents, cone_labels)]
    g = gcd(*datum.reeb)
    den = lcm(*[v.height for v in datum.vertices])
    rows = {}  # face mask -> its vertices' rows: unimodular, numerators over den
    for v in datum.vertices:
        unimodular = v.cone_index * v.height == g * prod([ks[i] for i in v.active])
        scale = den // v.height
        row = (unimodular, *(x * scale for x in v.ray))
        full = sub = sum(1 << i for i in v.active)
        while True:
            rows.setdefault(sub, []).append(row)
            if not sub:
                break
            sub = (sub - 1) & full
    faces = []
    for mask in rows:
        idx, bits = [], mask
        while bits:
            idx.append((bits & -bits).bit_length() - 1)
            bits &= bits - 1
        faces.append((len(idx), idx, mask))
    groups = {}  # sorted labels -> holonomy of a face inside a unimodular vertex
    shared = {}  # invariant factors -> the one group object every face with them gets
    per_face = []
    for _, idx, mask in sorted(faces):
        face_rows = rows[mask]
        diagonal, *nums = map(sum, zip(*face_rows))
        if diagonal:  # the face lies in a unimodular vertex's active set
            key = tuple(sorted([labels[i] for i in idx]))
            if key not in groups:
                group = _diagonal_holonomy(key)
                groups[key] = shared.setdefault(group.invariant_factors, group)
            group = groups[key]
        else:
            group = _face_holonomy(generators, idx, shared)
        basis = tuple([normals[i] for i in idx])
        point_den = den * len(face_rows)
        per_face.append(FaceInvariants(frozenset(idx), basis, group, tuple(nums), point_den))
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
    r = _exact(new_reeb)
    if len(r) != datum.polytope.ambient_dim:
        raise ValueError("characteristic vector has wrong dimension")
    try:
        moved = resliced_vertices(datum.vertices, r)
    except ValueError:  # empty, unbounded or zero: not positive on the cone
        raise ValueError("characteristic vector not in interior of dual cone") from None
    if any(type(x) is not int for x in r):
        raise ValueError("characteristic vector not integral")
    cone = cone_over(datum.polytope, datum.reeb)
    facets = tuple(LabeledFacet(tuple(-x for x in q), m) for q, m in cone.normals)
    poly = LabeledPolytope(cone.ambient_dim, facets)
    return ToricContactDatum(poly, tuple(r), tuple(sort_vertices(moved)))  # the walk's order
