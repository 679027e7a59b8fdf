"""Independent brute-force oracles used to pin expected values in tests.

Nothing here calls into the package's normal-form code, so agreement
between these and the fast paths is a real cross-check.  The four
exceptions are :func:`classify`, the reference for the package's bitmask
face walk: it shares the facet projection and takes a full ``snf``;
:func:`stabilizer_order`, the reference for :func:`stabilizer_orders`: it
takes one ``echelon`` of each support block; :func:`stabilizer_orders`,
the reference for the orders verify reads off the cone: it reads every
order off one ``echelon`` of W and one of each support block; and
:func:`solve_general_deformation`, the rational-solve route that the
integer deformation solve replaced: it takes ``geometry.solve_general``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from toricontact import geometry
from toricontact.classify import ClassificationReport, FaceInvariants, _facet_generators
from toricontact.lattice import FiniteAbelianGroup, echelon, snf


def cofactor_det(mat) -> int:
    """Determinant by cofactor expansion (exact, tiny matrices only)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * cofactor_det(minor)
    return total


def minor_gcd_invariant_factors(mat) -> list[int]:
    """Invariant factors as successive ratios of k x k minor gcds."""
    rows, cols = len(mat), len(mat[0])
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[mat[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, cofactor_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def minor_gcd(mat, k) -> int:
    """The gcd of the k x k minors of mat by cofactor expansion, 1 at k = 0."""
    if k == 0:
        return 1
    rows, cols = range(len(mat)), range(len(mat[0]))
    return math.gcd(
        *[
            cofactor_det([[mat[i][j] for j in csel] for i in rsel])
            for rsel in combinations(rows, k)
            for csel in combinations(cols, k)
        ]
    )


def reeb_period_order(normals, reeb, face) -> int:
    """The holonomy order at a face read off the Reeb flow's periods.

    A point over the face F (the facets through it) has period s_F, the
    least s > 0 with s reeb in Z^{n+1} + span_R{u_i : i in F}, u_i the cone
    normals; the order is s_empty / s_F.  With Phi_F a basis of the integer
    functionals that vanish on every u_i, i in F, s_F = 1 / g_F for g_F the
    gcd of Phi_F reeb, so the order is g_F / gcd(reeb).  In a lattice basis
    that puts the rows U_F in column Hermite form [A 0] (rank rho), the
    (rho + 1)-minors of [U_F; reeb] are the rho-minors of A times the
    entries of reeb on the last columns, and those entries are Phi_F reeb:
    g_F = d_{rho+1}([U_F; reeb]) / d_rho(U_F), d_k the minor gcd.
    """
    rows = [list(normals[i]) for i in sorted(face)]
    rho = len(fraction_rref(rows)[0]) if rows else 0
    g = minor_gcd([*rows, list(reeb)], rho + 1) // minor_gcd(rows, rho)
    return g // math.gcd(*reeb)


def cone_difference(columns, normals) -> tuple[list, list]:
    """The multiset differences (normals - columns, columns - normals) of
    beta's columns and a datum's cone normals, each sorted."""
    columns, normals = Counter(map(tuple, columns)), Counter(map(tuple, normals))
    return sorted((normals - columns).elements()), sorted((columns - normals).elements())


def stabilizer_order(weights, support) -> int | None:
    """Order of the reduction-torus stabilizer on one support, or None.

    The gcd of the k x k minors of W_S, None when they all vanish, from one
    fraction-free elimination of W_S by Cramer's rule: the pivot minor is
    +-d, and the one that trades pivot column r for the non-pivot column f
    is +-E[r][f].
    """
    k = len(weights)
    if k == 0:
        return 1
    if len(support) > k + 1:
        raise ValueError("support wider than k + 1 columns: not a vertex")
    e, pivots, d, _ = echelon([[row[i] for i in support] for row in weights])
    free = set(range(len(support))).difference(pivots)
    return math.gcd(d, *[row[f] for row in e for f in free]) if len(pivots) == k else None


def stabilizer_orders(weights, supports) -> list[int | None]:
    """Order of the reduction-torus stabilizer on each support, or None,
    read off W's minors: the reference for the orders verify reads off the
    cone.

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
        orders.append(math.gcd(*minors) // abs(d) ** len(off))
    return orders


def small_kernel_vectors(mat, bound: int) -> list[tuple[int, ...]]:
    """All nonzero integer vectors with entries in [-bound, bound] killed by mat."""
    cols = len(mat[0])
    found = []
    for vec in product(range(-bound, bound + 1), repeat=cols):
        if not any(vec):
            continue
        if all(sum(a * b for a, b in zip(row, vec)) == 0 for row in mat):
            found.append(vec)
    return found


def fraction_rref(rows):
    """Reduced row echelon form by plain Fraction Gauss-Jordan elimination.

    Returns (nonzero_reduced_rows, pivot_cols).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    cols = len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def in_span_over_q(vectors, target) -> bool:
    """Rational membership test by brute Gaussian elimination."""
    return len(fraction_rref([*vectors, target])[0]) == len(fraction_rref(vectors)[0])


def _fraction_null_space(rows, dim):
    reduced, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        vec = [Fraction(0)] * dim
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return basis


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive_ray(vec) -> tuple[int, ...]:
    scale = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def ray_and_height(point) -> tuple[tuple[int, ...], Fraction]:
    """(y, h) with point = y / h, y primitive and h > 0, for a nonzero
    rational point."""
    ray = _primitive_ray(point)
    i = next(i for i, x in enumerate(ray) if x)
    return ray, ray[i] / Fraction(point[i])


def _texts(point) -> list[str]:
    return [str(Fraction(x)) for x in point]


def datum_document(datum) -> dict:
    """The datum document with its vertices (``--emit-vertices``), each
    coordinate written by ``str(Fraction)``; the mode is "rational" exactly
    when every reeb entry is integral."""
    return {
        "ambient_dim": datum.polytope.ambient_dim,
        "facets": [
            {"normal": list(f.normal), "label": f.label, "offset": str(f.offset)}
            for f in datum.facets
        ],
        "reeb": _texts(datum.reeb),
        "mode": "irrational" if any(Fraction(x).denominator > 1 for x in datum.reeb)
        else "rational",
        "vertices": [_texts(v.coords) for v in datum.vertices],
    }


def verification_document(report) -> dict:
    """The verification document, each vertex's coordinates written by
    ``str(Fraction)``; smooth means some vertex is checked, and every
    stabilizer order is 1."""
    orders = [order for _, order in report.local_freeness]
    return {
        "ok": report.polytope_match and not report.problems,
        "polytope_match": report.polytope_match,
        "vertex_diff": [
            {"kind": kind, "vertex": _texts(v.coords)} for kind, v in report.vertex_diff
        ],
        "local_freeness": [
            {"vertex": _texts(v.coords), "stabilizer_order": order}
            for v, order in report.local_freeness
        ],
        "smooth": bool(orders) and all(order == 1 for order in orders),
        "problems": list(report.problems),
    }


def basic_feasible_points(a_rows, b):
    """Vertices of {x : A x <= b} by a Fraction solve of every square subsystem."""
    dim = len(a_rows[0])
    found = set()
    for subset in combinations(range(len(a_rows)), dim):
        reduced, pivots = fraction_rref([[*a_rows[i], b[i]] for i in subset])
        if pivots != list(range(dim)):
            continue
        x = tuple(row[dim] for row in reduced)
        if all(_dot(row, x) <= bi for row, bi in zip(a_rows, b)):
            found.add(x)
    return sorted(found)


def maximin_deformation(datum, beta):
    """The solution of beta @ a = reeb maximizing min_i a_i, by the LP.

    Maximizes z subject to base + K^T t >= z * 1 over (t, z), with base a
    Fraction solution and K a Fraction kernel basis of beta: every basic
    feasible point is enumerated and exact ties at the best z are broken
    by lexicographic order of a.
    """
    cols = len(beta[0])
    reduced, pivots = fraction_rref([[*row, r] for row, r in zip(beta, datum.reeb)])
    base = [Fraction(0)] * cols
    for row, c in zip(reduced, pivots):
        base[c] = row[cols]
    kernel = _fraction_null_space(beta, cols)
    k = len(kernel)
    a_rows = [[-kernel[j][i] for j in range(k)] + [1] for i in range(cols)]
    verts = basic_feasible_points(a_rows, base)
    best_z = max(v[-1] for v in verts)
    if best_z <= 0:
        raise ValueError("no positive solution")
    return min(
        tuple(base[i] + sum(kernel[j][i] * v[j] for j in range(k)) for i in range(cols))
        for v in verts
        if v[-1] == best_z
    )


def solve_general_deformation(datum, beta):
    """``reduction.deformation_vector`` by its earlier route: the best
    vertex as there, then one rational ``solve_general`` of beta_A y =
    num * reeb - h * total, with a = (h + y) / num on A and h / num off it."""
    total = [sum(row) for row in beta]
    num, h, best = 0, 1, None
    for v in datum.vertices:
        nv = sum(t * x for t, x in zip(total, v.ray))
        if nv * h > num * v.height:
            num, h, best = nv, v.height, v
    if num <= 0:
        raise ValueError("no positive solution")
    active = sorted(best.active)
    y = geometry.solve_general(
        [[row[i] for i in active] for row in beta],
        [num * r - h * t for r, t in zip(datum.reeb, total)],
    )
    if y is None or any(x < 0 for x in y):
        raise ValueError("no positive solution")
    a = [Fraction(h, num)] * len(beta[0])
    for i, x in zip(active, y):
        a[i] = (h + x) / num
    return tuple(a)


def fraction_facet_key(facet):
    """The duplicate-facet key of a ``LabeledFacet`` as a Fraction: its
    normal and offset / label, the whole inequality over its label."""
    return facet.normal, Fraction(facet.offset, facet.label)


def pointed_cone_rays(a_rows, dim):
    """Extreme rays of {y : A y <= 0} for rank(A) = dim, by Fraction null spaces
    of every dim-1 rows, as (primitive integer ray, indices of the rows
    vanishing on it) pairs."""
    rays = {}
    for subset in combinations(range(len(a_rows)), dim - 1):
        kernel = _fraction_null_space([a_rows[i] for i in subset], dim)
        if len(kernel) != 1:
            continue
        y = kernel[0]
        for cand in (y, [-v for v in y]):
            if all(_dot(row, cand) <= 0 for row in a_rows):
                ray = _primitive_ray(cand)
                rays[ray] = frozenset(i for i, row in enumerate(a_rows) if not _dot(row, ray))
                break
    return list(rays.items())


def cone_index(rows, dim) -> int:
    """The gcd of the maximal minors of the rows, each made a primitive
    integer vector, by cofactor expansion over every choice of columns: the
    index of their integer span in its saturation (1 for no rows)."""
    prim = [_primitive_ray(row) for row in rows]
    if not prim:
        return 1
    return math.gcd(
        *(
            cofactor_det([[row[j] for j in cols] for row in prim])
            for cols in combinations(range(dim), len(prim))
        )
    )


def sliced_cone_points(a_rows, height):
    """(status, points) of the slice <y, height> = 1 of K = {y : A y <= 0,
    <y, height> >= 0}, by a scan over every dim-1 rows.

    K is cut down to the orthogonal complement of its lineality space and
    all its extreme rays are listed; those at positive height, rescaled to
    height 1, each with the rows of A that vanish on them and, when there
    are dim - 1 of those, their :func:`cone_index` (else None), are the
    points, in lexicographic order.  No ray at positive height means
    "empty"; lineality or a ray at height 0 means "unbounded", and with
    lineality no point is reported.
    """
    dim = len(height)
    m = len(a_rows)
    rows = [*a_rows, [-x for x in height]]
    lineality = _fraction_null_space(rows, dim)
    rows += lineality + [[-x for x in y] for y in lineality]
    rays = pointed_cone_rays(rows, dim)
    heights = [_dot(ray, height) for ray, _ in rays]
    points = sorted(
        (tuple(Fraction(x) / h for x in ray), frozenset(i for i in tight if i < m))
        for (ray, tight), h in zip(rays, heights)
        if h > 0
    )
    if not points:
        return "empty", []
    if lineality:
        return "unbounded", []
    return ("unbounded" if 0 in heights else "bounded"), [
        (p, tight, cone_index([a_rows[i] for i in tight], dim) if len(tight) == dim - 1 else None)
        for p, tight in points
    ]


def enumerate_hpoly(a_rows, b):
    """(status, vertices) of {x : A x <= b} in the coordinates of the rows.

    A dimension-0 system is feasible when every b_i >= 0; a rank-deficient
    one is decided on the span of its rows (the orthogonal directions are
    lines, so it has no vertex); a full-rank one is bounded when its
    recession cone has no ray.
    """
    dim = len(a_rows[0]) if a_rows else 0
    if dim == 0:
        feasible = all(Fraction(x) >= 0 for x in b)
        return ("bounded", [()]) if feasible else ("empty", [])
    basis, _ = fraction_rref(a_rows)
    if len(basis) < dim:
        if not basis:
            feasible = all(Fraction(x) >= 0 for x in b)
            return ("unbounded", []) if feasible else ("empty", [])
        projected = [[_dot(row, bas) for bas in basis] for row in a_rows]
        status, _ = enumerate_hpoly(projected, b)
        return ("empty", []) if status == "empty" else ("unbounded", [])
    verts = basic_feasible_points(a_rows, b)
    if not verts:
        return "empty", []
    if pointed_cone_rays(a_rows, dim):
        return "unbounded", verts
    return "bounded", verts


def in_plane_vertices(functionals, offsets, reeb):
    """Vertices of {alpha : <alpha, y_i> <= offset_i, <alpha, reeb> = 1}.

    Enumerates in a frame of the hyperplane (base point reeb / |reeb|^2 and
    a basis of its directions) and lifts back.  Returns sorted
    (coords, active facet set) pairs; raises ValueError with the package's
    messages when the reeb vector is unusable or the slice is empty or
    unbounded.
    """
    r = [Fraction(x) for x in reeb]
    if len(r) != len(functionals[0]):
        raise ValueError("characteristic vector has wrong dimension")
    if not any(r):
        raise ValueError("characteristic vector must be nonzero")
    base = [x / _dot(r, r) for x in r]
    directions = _fraction_null_space([r], len(r))
    a_rows = [[_dot(d, y) for d in directions] for y in functionals]
    b = [lam - _dot(base, y) for y, lam in zip(functionals, offsets)]
    status, points = enumerate_hpoly(a_rows, b)
    if status == "empty":
        raise ValueError("empty polytope")
    if status == "unbounded":
        raise ValueError("polytope unbounded in characteristic hyperplane")
    result = []
    for u in points:
        alpha = tuple(
            base[k] + sum(c * d[k] for c, d in zip(u, directions)) for k in range(len(r))
        )
        tight = (_dot(alpha, y) == lam for y, lam in zip(functionals, offsets))
        active = frozenset(i for i, hit in enumerate(tight) if hit)
        result.append((alpha, active))
    return sorted(result, key=lambda pair: pair[0])


def classify(datum):
    """The classification report by the plain face loop: one frozenset per
    vertex-face incidence, each face's sample point the Fraction mean of
    its vertices, and each nonempty face's holonomy the diagonal entries
    above 1 of a Smith normal form with transformations, with no shortcut
    at unimodular vertices."""
    generators = _facet_generators(datum)[0]
    face_points = {}
    for v in datum.vertices:
        active = sorted(v.active)
        for mask in range(1 << len(active)):
            face = frozenset(active[i] for i in range(len(active)) if mask >> i & 1)
            face_points.setdefault(face, []).append(v.coords)
    per_face = []
    for face in sorted(face_points, key=lambda f: (len(f), sorted(f))):
        group = FiniteAbelianGroup()
        if face:
            s, _, _ = snf([generators[i] for i in sorted(face)])
            diag = [s[k][k] for k in range(min(len(s), len(s[0])))]
            group = FiniteAbelianGroup(tuple(d for d in diag if d > 1))
        points = face_points[face]
        point = [sum(col, Fraction(0)) / len(points) for col in zip(*points)]
        normals = tuple(datum.facets[i].normal for i in sorted(face))
        per_face.append(FaceInvariants(face, normals, group, *sums_over_denominator(point)))
    regular = all(f.holonomy.is_trivial for f in per_face) and all(
        f.label == 1 for f in datum.facets
    )
    return ClassificationReport("regular" if regular else "quasi-regular", tuple(per_face))


def sums_over_denominator(point) -> tuple[tuple[int, ...], int]:
    """(sums, den) with point = sums / den, den the lcm of the denominators
    of the Fraction entries: the integer form :class:`FaceInvariants` keeps."""
    den = math.lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (den // x.denominator) for x in point), den


def contains(poly, reeb, point) -> bool:
    """Whether a point lies in the polytope sliced at <alpha, reeb> = 1."""
    if len(reeb) != poly.ambient_dim:
        raise ValueError("characteristic vector has wrong dimension")
    if len(point) != poly.ambient_dim:
        raise ValueError("point has wrong dimension")
    p = [Fraction(x) for x in point]
    if _dot(p, [Fraction(x) for x in reeb]) != 1:
        return False
    return all(_dot(p, f.functional) <= f.offset for f in poly.facets)


def faces_containing(poly, reeb, point) -> frozenset[int]:
    """Indices of the facets through a point of the polytope."""
    if not contains(poly, reeb, point):
        raise ValueError("point not in polytope")
    p = [Fraction(x) for x in point]
    return frozenset(i for i, f in enumerate(poly.facets) if _dot(p, f.functional) == f.offset)


def moment_eval(a, z) -> list[float]:
    """Moment map of the weighted sphere at z = (x_0, y_0, ..., x_n, y_n),
    in floating point.

    mu_i = (x_i^2 + y_i^2) / sum_j a_j (x_j^2 + y_j^2); the weighted sum
    of the components is 1 by construction, and the value only depends on
    the ray through z.
    """
    if len(z) != 2 * len(a):
        raise ValueError("point has wrong dimension")
    sq = [float(z[2 * i]) ** 2 + float(z[2 * i + 1]) ** 2 for i in range(len(a))]
    denom = sum(ai * si for ai, si in zip(a, sq))
    if denom == 0.0:
        raise ValueError("moment map undefined at the origin")
    return [si / denom for si in sq]


def reeb_orbit_order(a, support) -> int:
    """Holonomy order at points of the weighted sphere whose coordinate
    support is ``support``.

    The orbit through such a point closes when t * a_j hits a full turn for
    every j in the support, so the generic period divided by the orbit's
    period is gcd of the supported weights (weights normalized to gcd 1).
    """
    support = sorted(set(support))
    if not support:
        raise ValueError("support must be nonempty")
    if support[0] < 0 or support[-1] >= len(a):
        raise ValueError("support index out of range")
    return math.gcd(*(a[j] for j in support))
