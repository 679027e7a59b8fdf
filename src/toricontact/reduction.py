"""Synthesis and verification of sphere-reduction presentations.

Every valid datum with N facets is presented as a contact reduction of the
sphere S^{2N-1}: the columns of beta are the labeled inward normals of the
moment cone, the reduction torus is the saturated kernel of beta, and the
deformation vector a is a positive rational solution of beta @ a = reeb.
``reduced_polytope`` reads the datum back off a presentation, an exact
round trip, and ``verify_presentation`` checks one against a datum's cone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import is_, ne

from . import geometry
from .classify import ToricContactDatum
from .lattice import FrozenValue, echelon, kernel_lattice_basis, matmul
from .lattice import as_integers, over_common_denominator, rank, smith_diagonal, transpose
from .polytope import LabeledFacet, LabeledPolytope, Vertex, integral_cone_normals
from .polytope import resliced_vertices, sort_vertices

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
        deformation = tuple([x if type(x) is Fraction else Fraction(x) for x in deformation])
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
    """``vertex_diff`` holds ("missing" or "extra", vertex) pairs and
    ``local_freeness`` (reduced vertex, stabilizer order or None) pairs;
    both are empty on another cone, which checks no vertex and is not smooth."""

    __slots__ = ("polytope_match", "vertex_diff", "local_freeness", "problems")

    def __init__(
        self, polytope_match: bool, vertex_diff: tuple, local_freeness: tuple, problems: tuple = ()
    ):
        object.__setattr__(self, "polytope_match", polytope_match)
        object.__setattr__(self, "vertex_diff", vertex_diff)
        object.__setattr__(self, "local_freeness", local_freeness)
        object.__setattr__(self, "problems", problems)

    @property
    def smooth(self) -> bool:
        return bool(self.local_freeness) and all(order == 1 for _, order in self.local_freeness)

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
    return transpose(integral_cone_normals(datum.cone_normals))


def kernel_torus_weights(beta) -> list[list[int]]:
    """Saturated basis of the integer kernel of beta (the reduction torus)."""
    weights = kernel_lattice_basis(beta)
    # beta is onto Q^rows exactly when its kernel has dimension N - rows
    if len(weights) != len(beta[0]) - len(beta):
        raise ValueError("beta not surjective")
    return weights


def deformation_vector(datum: ToricContactDatum, beta) -> tuple[Fraction, ...]:
    """The solution of beta @ a = reeb that maximizes min_i a_i, read in
    integers off one fraction-free elimination.

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

    In integers: with reeb = r / D over its common denominator D (1 in
    rational mode), the best vertex v = ray / h has <total, v> = num / h
    and h_r = <ray, r> = D h, so y = num D (a - z* 1) solves beta_A y =
    num r - h_r total.  One ``echelon`` (Bareiss, Math. Comp. 22, 1968) of
    [beta_A | num r - h_r total] gives y = e / d, read with d > 0 off the
    last column, and a_i = (h_r d + e_i) / (num D d), which is h_r / (num D)
    off A.
    """
    total = [sum(row) for row in beta]
    # the best vertex so far as num / h = <total, v>, v = ray / h
    num, h, best = 0, 1, None
    for v in datum.vertices:
        nv = sum([t * x for t, x in zip(total, v.ray)])
        if nv * h > num * v.height:
            num, h, best = nv, v.height, v
    if num <= 0:
        raise ValueError("no positive solution")
    den, r = over_common_denominator(datum.reeb)
    hr = sum([x * y for x, y in zip(best.ray, r)])  # h_r = <ray, r> = D h
    # y is zero off T, so off A = A(best) as well
    active = sorted(best.active)
    k = len(active)
    e, pivots, d, _ = echelon(
        [[row[i] for i in active] + [num * x - hr * t] for row, x, t in zip(beta, r, total)]
    )
    if k in pivots:  # a row reads 0 = nonzero
        raise ValueError("no positive solution")
    ys = [row[k] if d > 0 else -row[k] for row in e]
    d = abs(d)
    if any(y < 0 for y in ys):
        raise ValueError("no positive solution")
    a = [Fraction(hr, num * den)] * len(beta[0])
    for c, y in zip(pivots, ys):
        a[active[c]] = Fraction(hr * d + y, num * den * d)
    return tuple(a)


def _failing(message: str, flags) -> list[str]:
    """[message and the indices of the true flags], or [] if none is true."""
    bad = [str(i) for i, flag in enumerate(flags) if flag]
    return [f"{message} {', '.join(bad)}"] if bad else []


def _presentation_problems(pres: SpherePresentation, reeb, order_gcd: int) -> list[str]:
    """What is wrong with the presentation's torus and deformation, on their
    own and against reeb; order_gcd is the gcd of the vertex stabilizer
    orders, and 1 proves W saturated (see ``verify_presentation``)."""
    problems = []
    if pres.weights:
        kernel = matmul(pres.weights, transpose(pres.beta))
        problems += _failing("beta @ weights^T is not zero: weight rows", map(any, kernel))
        if order_gcd != 1 and any(d != 1 for d in smith_diagonal(pres.weights)):
            problems.append("weight matrix is not a saturated kernel basis")
    flags = [x <= 0 for x in pres.deformation]
    problems += _failing("deformation vector not strictly positive: entries", flags)
    text = "beta @ deformation differs from the characteristic vector: coordinates"
    return problems + _failing(text, map(ne, pres.reeb_image, reeb))


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


def _cone_diff(columns, normals) -> list[str]:
    """One line per datum facet whose cone normal no column of beta equals,
    then one per column that is no cone normal, or repeats one; the datum's
    normals are distinct, so a different multiset names at least one facet."""
    facet = {tuple(u): i for i, u in enumerate(normals)}
    seen, lines = set(), []
    for j, col in enumerate(columns):
        i = facet.get(tuple(col))
        if i is None or i in seen:
            what = "is no cone normal of the datum" if i is None else f"repeats facet {i}'s"
            lines.append(f"beta column {j} ({', '.join(map(str, col))}) {what}")
        seen.add(i)
    text = "facet {}: cone normal ({}) is no column of beta".format
    return [text(i, ", ".join(map(str, u))) for i, u in enumerate(normals) if i not in seen] + lines


def verify_presentation(
    pres: SpherePresentation, datum: ToricContactDatum
) -> VerificationReport:
    """Check a presentation against a datum, exactly, deciding by the cone.

    Lerman (Contact toric manifolds, J. Symplectic Geom. 1, 2003): a
    compact, connected contact toric manifold of Reeb type (its torus holds
    the Reeb flow of an invariant contact form) is determined by its moment
    cone, and its contact form by the Reeb vector.  The sphere's reduction
    by the kernel torus of beta has the cone cut out by beta's columns and
    Reeb vector reeb' = beta @ a, so the columns are first compared with
    the datum's cone normals as multisets.  Another cone checks no vertex:
    its problems are the torus's, W's saturation by its Smith form, and
    each facet and column of the difference (``_cone_diff``).

    On the same cone beta is onto (the cone is pointed) and only reeb' can
    differ.  The reduced vertices are the datum's vertices v divided by
    their heights <v, reeb'> (``resliced_vertices`` states the lemma), so
    none is enumerated again, and when every height is 1 and the columns
    are in facet order they are the datum's own, sorted and matched
    already.  Local freeness is checked at every reduced vertex through the
    reduction-torus stabilizer, all read off one elimination of W
    (``_stabilizer_orders``).  Each order is the gcd of some maximal minors
    of W, so orders with gcd 1 leave the gcd of all of them 1: W is
    saturated, and the Smith loop runs only otherwise.
    """
    if pres.ambient_dim != datum.polytope.ambient_dim:
        raise ValueError("presentation and datum dimensions differ")
    if pres.N != len(datum.facets):
        raise ValueError("presentation and datum facet counts differ")
    columns = transpose(pres.beta)
    normals = datum.cone_normals
    if sorted(columns) != sorted(normals):
        problems = [] if rank(pres.beta) == pres.ambient_dim else ["beta not surjective"]
        problems += _presentation_problems(pres, datum.reeb, 0)  # no orders: Smith form
        return VerificationReport(False, (), (), tuple(problems + _cone_diff(columns, normals)))

    # supports index beta's columns; a broken slice keeps the datum's vertices
    reduced_verts, vertex_diff, late = datum.vertices, [], []
    try:
        moved = resliced_vertices(datum.vertices, pres.reeb_image)
        if columns != normals:
            # column j is the datum facet whose cone normal equals it
            column = {tuple(c): j for j, c in enumerate(columns)}
            to_column = [column[tuple(u)] for u in normals]
            active = [frozenset([to_column[i] for i in w.active]) for w in moved]
            moved = [Vertex(w.ray, w.height, a, w.cone_index) for w, a in zip(moved, active)]
        if not all(map(is_, moved, datum.vertices)):
            reduced_verts = sort_vertices(moved)
            # a primitive ray and a positive height name one point
            ours = {(v.ray, v.height) for v in datum.vertices}
            got = {(w.ray, w.height) for w in reduced_verts}
            vertex_diff = [("missing", v) for v in datum.vertices if (v.ray, v.height) not in got]
            vertex_diff += [("extra", w) for w in reduced_verts if (w.ray, w.height) not in ours]
    except ValueError as exc:
        late = [f"reduced polytope unavailable: {exc}"]

    supports = [[i for i in range(pres.N) if i not in v.active] for v in reduced_verts]
    orders = _stabilizer_orders(pres.weights, supports)
    problems = _presentation_problems(pres, datum.reeb, gcd(*[o or 0 for o in orders])) + late
    local = tuple(zip(reduced_verts, orders))
    return VerificationReport(not (vertex_diff or late), tuple(vertex_diff), local, tuple(problems))
