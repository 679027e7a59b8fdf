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
from math import gcd, prod
from operator import is_, mul, ne

from .classify import ToricContactDatum
from .lattice import FrozenValue, _hermite, echelon, kernel_lattice_basis, matmul
from .lattice import as_integers, over_common_denominator, rank, smith_diagonal, transpose
from .polytope import Vertex, integral_cone_normals, resliced_vertices, sort_vertices
from .polytope import split_cone_normal, zero_offset_polytope

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
    shapes are checked on construction, which sets ``reeb_image``, beta @
    deformation with ints where integral, else Fractions, as a datum's
    reeb; it derives from beta and deformation, so equality leaves it out.
    """

    __slots__ = ("N", "beta", "weights", "deformation", "reeb_image")
    _fields = ("N", "beta", "weights", "deformation")

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
        den, nums = over_common_denominator(deformation)
        sums = [sum(map(mul, row, nums)) for row in beta]
        image = tuple([s // den if s % den == 0 else Fraction(s, den) for s in sums])
        object.__setattr__(self, "reeb_image", image)

    @property
    def ambient_dim(self) -> int:
        return len(self.beta)


class VerificationReport(FrozenValue):
    """``vertex_diff`` holds ("missing" or "extra", vertex) pairs and
    ``local_freeness`` (reduced vertex, stabilizer order) pairs;
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
        return self.polytope_match and not self.problems


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


def _presentation_problems(pres: SpherePresentation, reeb) -> list[str]:
    """What is wrong with the presentation's torus and deformation, on their
    own and against reeb.  By Cramer's rule the entries of E = d W_P^-1 W,
    from echelon(W) = (E, P, d), are maximal minors of W: gcd 1 at full
    rank proves W saturated, and W's Smith diagonal is taken only if not."""
    problems = []
    if pres.weights:
        kernel = matmul(pres.weights, transpose(pres.beta))
        problems += _failing("beta @ weights^T is not zero: weight rows", map(any, kernel))
        e, pivots, _, _ = echelon(pres.weights)
        coprime = len(pivots) == len(pres.weights) and gcd(*[gcd(*row) for row in e]) == 1
        if not coprime and any(d != 1 for d in smith_diagonal(pres.weights)):
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
    primitive decomposition of beta's columns, and reeb = ``reeb_image``.
    """
    columns = transpose(pres.beta)
    if not all(map(any, columns)):
        raise ValueError("degenerate beta column")
    return zero_offset_polytope(pres.ambient_dim, map(split_cone_normal, columns)), pres.reeb_image


def _vertex_orders(beta, columns, verts) -> list[int]:
    """The order of the stabilizer of ker beta's torus at each simple
    vertex of beta's cone, read off the cone: one gcd per vertex, with no
    elimination of the torus; ``columns`` are beta's columns u_q.

    Let W be a saturated basis of ker beta (k x N, k = N - n - 1) and c
    the gcd of beta's maximal minors, the index of its image L.  Gale
    duality (Ziegler, Lectures on Polytopes, 1995, ch. 6) pairs the
    maximal minors of W and beta on complementary columns: |det W_T| =
    |det beta_{T^c}| / c.  A vertex v with active set A (n facets) has the
    support S = A^c of k + 1 columns, and its order, the gcd of the k x k
    minors of W_S, is the gcd of the |det beta_{A+q}| / c over q in S.
    Expanded along u_q, det beta_{A+q} = <kappa_A, u_q> with kappa_A the
    cofactor vector of u_A, which vanishes on u_A, so kappa_A = +-tau_A y_v
    with y_v the primitive ray of v and tau_A the content of kappa_A.  With
    u_i = l_i q_i, l_i = gcd(u_i), tau_A = t_v prod l_i (i in A) for t_v
    the cone index the walk hands v, the gcd of the maximal minors of q_A.
    So, as <u_i, y_v> = 0 on A,

        order_v = t_v prod_{i in A} l_i g_v / c,  <L, y_v> = g_v Z,

    and any basis of L gives g_v: the first n + 1 columns of beta's column
    Hermite form, whose pivots multiply to c.  As y_v is primitive, <L,
    y_v> contains <c Z^(n+1), y_v> = c Z, so g_v divides c: the gcd starts
    at c and stops at 1.  Nothing here reads W or the slice's height, so
    the orders are the cone's.
    """
    h = [list(row) for row in beta]
    _hermite(h)
    index = prod([h[j][j] for j in range(len(h))])
    basis = [[row[j] for row in h] for j in range(len(h))]
    labels = [gcd(*u) for u in columns]
    orders = []
    for v in verts:
        g = index
        for b in basis:
            if g == 1:
                break
            g = gcd(g, sum(map(mul, b, v.ray)))
        orders.append(v.cone_index * prod([labels[i] for i in v.active]) * g // index)
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
    its problems are the torus's, W's saturation, and each facet and column
    of the difference (``_cone_diff``).

    On the same cone beta is onto (the cone is pointed) and only reeb' can
    differ.  The reduced vertices are the datum's vertices v divided by
    their heights <v, reeb'> (``resliced_vertices`` states the lemma), so
    none is enumerated again, and when every height is 1 they are the
    datum's own, sorted and matched already; their active sets are mapped
    to beta's columns first, so a broken slice keeps the datum's vertices
    indexed as beta is.  Local freeness is checked at every reduced vertex
    through the stabilizer of ker beta's torus, whose order the cone gives
    (``_vertex_orders``): one gcd per vertex and no elimination per vertex,
    and no lattice form at all when the torus is trivial.
    """
    if pres.ambient_dim != datum.polytope.ambient_dim:
        raise ValueError("presentation and datum dimensions differ")
    if pres.N != len(datum.facets):
        raise ValueError("presentation and datum facet counts differ")
    columns = transpose(pres.beta)
    normals = datum.cone_normals
    if sorted(columns) != sorted(normals):
        problems = [] if rank(pres.beta) == pres.ambient_dim else ["beta not surjective"]
        problems += _presentation_problems(pres, datum.reeb)
        return VerificationReport(False, (), (), tuple(problems + _cone_diff(columns, normals)))

    verts = datum.vertices
    if columns != normals:
        # column j is the datum facet whose cone normal equals it
        column = {tuple(c): j for j, c in enumerate(columns)}
        to_column = [column[tuple(u)] for u in normals]
        active = [frozenset([to_column[i] for i in v.active]) for v in verts]
        verts = [Vertex(v.ray, v.height, a, v.cone_index) for v, a in zip(verts, active)]
    reduced_verts, vertex_diff, late = verts, [], []
    try:
        moved = resliced_vertices(verts, pres.reeb_image)
        if not all(map(is_, moved, verts)):
            reduced_verts = sort_vertices(moved)
            # a primitive ray and a positive height name one point
            ours = {(v.ray, v.height) for v in datum.vertices}
            got = {(w.ray, w.height) for w in reduced_verts}
            vertex_diff = [("missing", v) for v in datum.vertices if (v.ray, v.height) not in got]
            vertex_diff += [("extra", w) for w in reduced_verts if (w.ray, w.height) not in ours]
    except ValueError as exc:
        late = [f"reduced polytope unavailable: {exc}"]

    if pres.weights:
        orders = _vertex_orders(pres.beta, columns, reduced_verts)
    else:
        orders = [1] * len(reduced_verts)
    problems = _presentation_problems(pres, datum.reeb) + late
    local = tuple(zip(reduced_verts, orders))
    return VerificationReport(not (vertex_diff or late), tuple(vertex_diff), local, tuple(problems))
