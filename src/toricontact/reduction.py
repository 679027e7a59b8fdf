"""Synthesis and verification of sphere-reduction presentations.

Every valid datum with N facets is presented as a contact reduction of the
sphere S^{2N-1}: the columns of beta are the labeled inward normals of the
moment cone, the reduction torus is the saturated kernel of beta, and the
deformation vector a is a positive rational solution of beta @ a = reeb.
``reduced_polytope`` reads the datum back off a presentation, which turns
the presentation's correctness into an exact round-trip check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import geometry
from .classify import ToricContactDatum
from .lattice import FrozenValue, echelon, kernel_lattice_basis, matmul
from .lattice import as_integers, over_common_denominator, rank, smith_diagonal, transpose
from .polytope import LabeledFacet, LabeledPolytope, Vertex, cone_normals, integral_cone_normals
from .polytope import resliced_vertices
from .polytope import vertices as _poly_vertices

__all__ = [
    "SpherePresentation",
    "VerificationReport",
    "build_beta",
    "deformation_vector",
    "kernel_torus_weights",
    "reduced_polytope",
    "synthesize",
    "verify_presentation",
]


class SpherePresentation(FrozenValue):
    """Reduction data: the sphere S^{2N-1}, torus weights, deformation.

    beta has one column per sphere coordinate (shape (n+1) x N), weights
    is the (N-n-1) x N matrix of the reduction torus, and deformation is
    the positive rational vector with beta @ deformation = reeb.  The
    shapes are checked on construction.
    """

    __slots__ = ("N", "beta", "weights", "deformation", "_reeb_image")

    def __init__(self, N: int, beta: tuple, weights: tuple, deformation: tuple[Fraction, ...]):
        beta = tuple(as_integers(r, "beta") for r in beta)
        weights = tuple(as_integers(r, "weights") for r in weights)
        deformation = tuple(Fraction(x) for x in deformation)
        if not beta or any(len(row) != N for row in beta):
            raise ValueError("beta rows must all have length N")
        if any(len(row) != N for row in weights):
            raise ValueError("weight rows must all have length N")
        if len(weights) != N - len(beta):
            raise ValueError("weight row count must be N minus the ambient dimension")
        if len(deformation) != N:
            raise ValueError("deformation must have length N")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "deformation", deformation)

    @property
    def ambient_dim(self) -> int:
        return len(self.beta)

    @property
    def reeb_image(self) -> tuple[Fraction, ...]:
        """beta @ deformation, in integers over the deformation's lcm
        denominator; computed on first use and kept."""
        try:
            return self._reeb_image
        except AttributeError:
            pass
        den, nums = over_common_denominator(self.deformation)
        image = tuple(
            Fraction(sum([b * x for b, x in zip(row, nums)]), den) for row in self.beta
        )
        object.__setattr__(self, "_reeb_image", image)
        return image


class VerificationReport(FrozenValue):
    __slots__ = ("polytope_match", "vertex_diff", "local_freeness", "smooth", "problems")

    def __init__(
        self,
        polytope_match: bool,
        vertex_diff: tuple,
        local_freeness: tuple,  # per vertex: (coords, stabilizer order or None)
        smooth: bool,
        problems: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "polytope_match", polytope_match)
        object.__setattr__(self, "vertex_diff", vertex_diff)
        object.__setattr__(self, "local_freeness", local_freeness)
        object.__setattr__(self, "smooth", smooth)
        object.__setattr__(self, "problems", problems)

    @property
    def ok(self) -> bool:
        return (
            self.polytope_match
            and not self.problems
            and all(order is not None for _, order in self.local_freeness)
        )


def build_beta(datum: ToricContactDatum) -> list[list[int]]:
    """Matrix whose i-th column is the labeled inward cone normal of facet i."""
    # onto without a rank check: a validated datum's slice is bounded and
    # nonempty, so its moment cone is pointed and the cone normals span
    return transpose(integral_cone_normals(cone_normals(datum.polytope, datum.reeb)))


def kernel_torus_weights(beta) -> list[list[int]]:
    """Saturated basis of the integer kernel of beta (the reduction torus)."""
    weights = kernel_lattice_basis(beta)
    # beta is onto Q^rows exactly when its kernel has dimension N - rows
    if len(weights) != len(beta[0]) - len(beta):
        raise ValueError("beta not surjective")
    return weights


def deformation_vector(datum: ToricContactDatum, beta) -> tuple[Fraction, ...]:
    """The solution of beta @ a = reeb that maximizes min_i a_i.

    The columns u_i of beta are the cone normals, so at a vertex v of the
    polytope <u_i, v> is the slack s_i(v) of facet i, and v^T beta a =
    <v, reeb> = 1 bounds min_i a_i by 1 / sum_i s_i(v).  By LP duality
    (Schrijver, Theory of Linear and Integer Programming, 1986, ch. 7) the
    optimum is z* = 1 / max_v sum_i s_i(v), and a - z* * 1 is supported
    on T, the facets tight at every maximizing vertex.  T lies inside the
    active set of each maximizing vertex, whose n columns of beta are
    independent because the vertex is simple, so the optimum is unique and
    one solve on that active set gives it.  A positive solution exists for
    every valid datum.
    """
    total = [sum(row) for row in beta]
    # the best vertex so far as num / h = <total, v>, h the lcm of its denominators
    num, h, best = 0, 1, None
    for v in datum.vertices:
        hv, vs = over_common_denominator(v.coords)
        nv = sum([t * x for t, x in zip(total, vs)])
        if nv * h > num * hv:
            num, h, best = nv, hv, v
    if num <= 0:
        raise ValueError("no positive solution")
    # y = num * (a - z* * 1) is zero off T, so off A = A(best) as well, and
    # beta_A y = num * reeb - h * total
    active = sorted(best.active)
    y = geometry.solve_general(
        [[row[i] for i in active] for row in beta],
        [num * r - h * t for r, t in zip(datum.reeb, total)],
    )
    if y is None or any(x < 0 for x in y):
        raise ValueError("no positive solution")
    a = [Fraction(h, num)] * len(beta[0])
    for i, x in zip(active, y):
        a[i] = Fraction(h * x.denominator + x.numerator, num * x.denominator)
    return tuple(a)


def _presentation_problems(pres: SpherePresentation, reeb, order_gcd: int) -> list[str]:
    """What is wrong with the presentation's torus and deformation, on their
    own and against reeb; order_gcd is the gcd of the vertex stabilizer
    orders, and 1 proves W saturated (see ``verify_presentation``)."""
    problems = []
    if pres.weights:
        if any(any(row) for row in matmul(pres.beta, transpose(pres.weights))):
            problems.append("beta @ weights^T is not zero")
        if order_gcd != 1 and any(d != 1 for d in smith_diagonal(pres.weights)):
            problems.append("weight matrix is not a saturated kernel basis")
    if any(x <= 0 for x in pres.deformation):
        problems.append("deformation vector not strictly positive")
    if pres.reeb_image != tuple(reeb):
        problems.append("beta @ deformation differs from the characteristic vector")
    return problems


def synthesize(datum: ToricContactDatum) -> SpherePresentation:
    """Assemble the full presentation {N, beta, W, a} for a valid datum.

    Each fact that verification checks holds by construction: beta is onto
    (``kernel_torus_weights`` checks the kernel's dimension), W is a
    saturated basis of beta's kernel, and ``deformation_vector``'s closed
    form is positive with beta @ a = reeb.
    """
    beta = build_beta(datum)
    weights = kernel_torus_weights(beta)
    a = deformation_vector(datum, beta)
    return SpherePresentation(len(datum.facets), beta, weights, a)


def reduced_polytope(pres: SpherePresentation):
    """Read the classifying data back off a presentation.

    Returns (polytope, reeb): the polytope cut out by <alpha, beta_i> >= 0
    in the hyperplane <alpha, beta @ a> = 1, with facet labels from the
    primitive decomposition of beta's columns.
    """
    facets = []
    for col in transpose(pres.beta):
        if not any(col):
            raise ValueError("degenerate beta column")
        g = gcd(*col)
        facets.append(LabeledFacet(tuple(-(x // g) for x in col), g, Fraction(0)))
    poly = LabeledPolytope(pres.ambient_dim, tuple(facets))
    reeb = pres.reeb_image
    if all(x.denominator == 1 for x in reeb):
        reeb = tuple(int(x) for x in reeb)
    return poly, reeb


def _stabilizer_orders(weights, supports) -> list[int | None]:
    """Order of the reduction-torus stabilizer on each support, or None.

    The stabilizer of a point with coordinate support S is the kernel of
    T^k -> T^S given by the columns W_S of the k x N weights.  Its order is
    the gcd of the k x k minors of W_S, and it is infinite (None) exactly
    when they all vanish.  A vertex of the n-dimensional slice lies on at
    least n facets, so |S| <= N - n = k + 1.

    One fraction-free elimination echelon(W) = (E, P, d) gives every such
    minor.  With Q the non-pivot columns and R = E / d = W_P^-1 W, a k-set T
    of columns has det W_T = +-det E[P - T, Q & T] / d^(r-1), r = |P - T|
    <= n + 1.  At |S| = k + 1 with s = |S & Q|, let c be the signed maximal
    minors of the (s-1) x s block E[P - S, S & Q]: its kernel vector, read
    off one elimination of the block by Cramer's rule (c = [1] when s = 1).
    Then det W_{S-q} = +-c_q / d^(s-2), and by Laplace expansion along row
    p, det W_{S-p} = +-<E_p[S & Q], c> / d^(s-1).  A smaller support gets
    k + 1 - |S| zero columns of W: the block keeps one column more than
    rows, and its kernel vector is zero off those columns, so |S| = k reads
    off |det W_S| alone and |S| < k has no maximal minor but 0.
    """
    k = len(weights)
    if k == 0:
        return [1] * len(supports)
    if any(len(support) > k + 1 for support in supports):
        raise ValueError("support wider than k + 1 columns: not a vertex")
    e, pivots, d, _ = echelon(weights)
    if len(pivots) < k:
        return [None] * len(supports)
    row_of = {p: r for r, p in enumerate(pivots)}
    orders = []
    for support in supports:
        on = {row_of[j] for j in support if j in row_of}
        free = [j for j in support if j not in row_of]
        off = [row for r, row in enumerate(e) if r not in on]
        pad = [0] * (k + 1 - len(support))  # the zero columns of a small support
        block = [[row[j] for j in free] + pad for row in off]
        c, *rest = geometry._kernel(*echelon(block)[:3], len(off) + 1)
        if rest:  # the block's rank is below its row count: every minor is 0
            orders.append(None)
            continue
        # d^|P - S| times the maximal minors of W_S, up to sign
        minors = [d * x for x in c] + [sum([e[r][j] * x for j, x in zip(free, c)]) for r in on]
        orders.append(gcd(*minors) // abs(d) ** len(off))
    return orders


def verify_presentation(
    pres: SpherePresentation, datum: ToricContactDatum
) -> VerificationReport:
    """Check a presentation against a datum, exactly.

    The polytope match compares vertex sets and cone normals (the facet
    data with offsets absorbed, so data that differ only by the hyperplane
    normalization still match), the latter as multisets of beta's columns
    and the datum's integral cone normals.  Local freeness is checked at
    every vertex through the reduction-torus stabilizer, all read off one
    elimination of W (``_stabilizer_orders``).  Each order is the gcd of
    some maximal minors of W, so orders with gcd 1 leave the gcd of all of
    them 1: W is saturated, and the Smith loop runs only otherwise.

    By Lerman's classification of contact toric manifolds of Reeb type
    (J. Symplectic Geom. 2003), the reduction of the sphere by the kernel
    torus of beta has the moment cone whose inward normals are beta's
    columns, sliced by reeb' = beta @ a.  When those columns are the
    datum's cone normals (``cone_normals``) in any order, that cone is the
    datum's own: beta is onto, the normals match, and only reeb' can
    differ.  The reduced vertices are then the datum's vertices v divided
    by their heights <v, reeb'> (``resliced_vertices`` states the lemma),
    so a vertex is unchanged exactly when its height is 1, and no vertex
    is enumerated again.  Only a different cone is sliced afresh.
    """
    if pres.ambient_dim != datum.polytope.ambient_dim:
        raise ValueError("presentation and datum dimensions differ")
    if pres.N != len(datum.facets):
        raise ValueError("presentation and datum facet counts differ")
    columns = transpose(pres.beta)
    normals = cone_normals(datum.polytope, datum.reeb)
    same_cone = sorted(columns) == sorted(normals)
    problems = []
    # on the same cone beta is onto: the datum's cone is pointed
    if not same_cone and rank(pres.beta) != pres.ambient_dim:
        problems.append("beta not surjective")
    late = []  # the reduced polytope's problems, reported after the torus's

    vertex_diff = []
    polytope_match = False
    # stabilizer supports index the presentation's own columns, so read the
    # active sets off the reduced polytope; keep the datum's when the
    # reduction is too broken to slice (the report is already failing then)
    reduced_verts = datum.vertices
    try:
        if same_cone:
            moved = resliced_vertices(datum.vertices, pres.reeb_image)
            vertex_diff = [
                ("missing", v.coords) for v, w in zip(datum.vertices, moved) if w is not v
            ]
            if vertex_diff or columns != normals:
                # column j is the datum facet whose cone normal equals it
                column = {tuple(c): j for j, c in enumerate(columns)}
                to_column = [column[tuple(u)] for u in normals]
                reduced = sorted(
                    (w.coords, w is not v, frozenset(to_column[i] for i in w.active), w.cone_index)
                    for v, w in zip(datum.vertices, moved)
                )
                vertex_diff += [("extra", c) for c, extra, _, _ in reduced if extra]
                reduced_verts = [Vertex(c, active, t) for c, _, active, t in reduced]
            polytope_match = not vertex_diff
        else:
            reduced_verts = _poly_vertices(*reduced_polytope(pres))
            ours = [v.coords for v in datum.vertices]
            theirs = [v.coords for v in reduced_verts]
            ours_set, theirs_set = set(ours), set(theirs)
            vertex_diff = [("missing", c) for c in ours if c not in theirs_set]
            vertex_diff += [("extra", c) for c in theirs if c not in ours_set]
            integral_cone_normals(normals)
            late.append("cone normals of presentation and datum differ")
    except ValueError as exc:
        late.append(f"reduced polytope unavailable: {exc}")

    coords = range(pres.N)
    supports = [[i for i in coords if i not in v.active] for v in reduced_verts]
    orders = _stabilizer_orders(pres.weights, supports)
    problems += _presentation_problems(pres, datum.reeb, gcd(*[o or 0 for o in orders]))
    local = [(v.coords, order) for v, order in zip(reduced_verts, orders)]
    return VerificationReport(
        polytope_match=polytope_match,
        vertex_diff=tuple(vertex_diff),
        local_freeness=tuple(local),
        smooth=all(order == 1 for order in orders),
        problems=tuple(problems + late),
    )
