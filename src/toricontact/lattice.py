"""Exact integer linear algebra: elimination, normal forms, lattices, quotients.

Everything here works on nested lists of plain Python ints, so coefficient
growth is absorbed by arbitrary precision and every identity (``H = M @ U``,
``S = U @ M @ V``, divisibility chains) holds exactly.  Matrices are
row-major: ``mat[i][j]`` is the entry in row ``i``, column ``j``.

``echelon`` is the one elimination over Q: rank, determinant and every
rational solve in :mod:`toricontact.geometry` read their answer off it.
``_hermite`` is the one Hermite loop over Z, by extended-gcd column
steps: ``hnf`` runs it with its witness, and the saturated kernel basis is
one Hermite form of the matrix stacked over the identity.  ``_smith`` is
the one Smith loop, by gcd pivots, with or without its transforms; a
Smith diagonal of at most two rows, or of a 3 x 3 block, is read off the
gcds of its minors instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations
from operator import mul

__all__ = [
    "FiniteAbelianGroup",
    "as_integers",
    "echelon",
    "hnf",
    "identity",
    "kernel_lattice_basis",
    "matmul",
    "matvec",
    "over_common_denominator",
    "primitive",
    "quotient_group",
    "rank",
    "saturate",
    "smith_diagonal",
    "snf",
    "transpose",
]

IntMat = list  # list of rows, each a list of ints


def _shape(mat) -> tuple[int, int]:
    if not mat or not mat[0]:
        raise ValueError("matrix must be nonempty")
    rows, cols = len(mat), len(mat[0])
    if any(len(row) != cols for row in mat):
        raise ValueError("matrix rows have inconsistent lengths")
    return rows, cols


def identity(n: int) -> IntMat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(mat: IntMat) -> IntMat:
    return [list(col) for col in zip(*mat)]


def matmul(a: IntMat, b: IntMat) -> IntMat:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def matvec(mat: IntMat, vec) -> list:
    return [sum(map(mul, row, vec)) for row in mat]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def primitive(vec) -> list[int]:
    """Divide an integer vector by the gcd of its entries, keeping direction.

    >>> primitive([2, 4, 6])
    [1, 2, 3]
    >>> primitive((-3, 6))
    [-1, 2]
    """
    if not any(vec):
        raise ValueError("zero vector has no primitive representative")
    g = math.gcd(*vec)
    return [x // g for x in vec]


def as_integers(values, what: str) -> tuple[int, ...]:
    """The entries as ints.  An int that is not a bool is kept, and a
    Fraction with denominator 1 becomes its numerator; anything else is
    refused with a ValueError naming ``what``, never truncated.
    """
    ints = []
    for x in values:
        if type(x) is not int:
            if not (isinstance(x, Fraction) and x.denominator == 1):
                raise ValueError(f"{what} entries must be integers, got {x!r}")
            x = x.numerator
        ints.append(x)
    return tuple(ints)


def over_common_denominator(vec) -> tuple[int, list[int]]:
    """(den, nums) with vec = nums / den, den the lcm of the entries' denominators."""
    den = math.lcm(*(x.denominator for x in vec))
    return den, [x.numerator * (den // x.denominator) for x in vec]


def echelon(mat: IntMat) -> tuple[IntMat, list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns (E, pivots, d, sign): the rows of E are d times the nonzero rows
    of the reduced row echelon form, so E[r][pivots[r]] == d, and sign is
    -1 to the number of row swaps.  Every intermediate entry is a minor of
    ``mat``, which makes each division by the previous pivot exact.
    """
    e = [list(row) for row in mat]
    pivots = []
    d, sign = 1, 1
    for c in range(len(e[0]) if e else 0):
        r = len(pivots)
        if r == len(e):
            break
        piv = next((i for i in range(r, len(e)) if e[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            e[r], e[piv] = e[piv], e[r]
            sign = -sign
        prow = e[r]
        p = prow[c]
        for i, row in enumerate(e):
            f = row[c]
            # with f == 0 the update only rescales the row by p / d
            if i != r and (f or p != d):
                e[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        d = p
        pivots.append(c)
    return e[: len(pivots)], pivots, d, sign


def _hermite(h: IntMat, mats: tuple = ()) -> None:
    """Bring ``h`` to column Hermite normal form in place (see :func:`hnf`),
    applying every column operation to each matrix of ``mats`` as well."""
    ms = (h, *mats)
    cols = len(h[0])
    pivot_col = 0
    for prow in h:
        if pivot_col == cols:
            break
        for j in range(pivot_col + 1, cols):
            b = prow[j]
            if b == 0:
                continue
            g, s, t = _xgcd(prow[pivot_col], b)
            a, b = prow[pivot_col] // g, b // g
            # (col_pivot, col_j) <- (s*col_pivot + t*col_j, a*col_j - b*col_pivot)
            for m in ms:
                for r in m:
                    x, y = r[pivot_col], r[j]
                    r[pivot_col] = s * x + t * y
                    r[j] = a * y - b * x
        p = prow[pivot_col]
        if p == 0:
            continue
        if p < 0:
            p = -p
            for m in ms:
                for r in m:
                    r[pivot_col] = -r[pivot_col]
        for j in range(pivot_col):
            q = prow[j] // p  # floor division leaves a remainder in [0, p)
            if q:
                for m in ms:
                    for r in m:
                        r[j] -= q * r[pivot_col]
        pivot_col += 1


def hnf(mat: IntMat) -> tuple[IntMat, IntMat]:
    """Column-style Hermite normal form.

    Returns (H, U) with H = mat @ U and U square unimodular.  H is in
    column echelon form: pivot columns come first, each pivot is positive,
    entries to the left of a pivot (in its row) are reduced into
    [0, pivot), and all columns beyond the last pivot are zero.
    """
    _, cols = _shape(mat)
    h, u = [list(row) for row in mat], identity(cols)
    _hermite(h, (u,))
    return h, u


def rank(mat: IntMat) -> int:
    """Rank over the rationals (number of pivots of the elimination)."""
    _shape(mat)
    return len(echelon(mat)[1])


def _smith(s: IntMat, rows: tuple = (), cols: tuple = ()) -> None:
    """Bring ``s`` to Smith normal form in place, applying every row
    operation to each matrix of ``rows`` and every column operation to
    each matrix of ``cols``.  By gcd pivots (Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, section 2.4): at corner
    t an entry +-g, g the gcd of the block left, else a least entry p, goes
    to the corner and clears its column and row by steps q = x // p.
    Remainders, or a row with a non-multiple of p added to row t, lower the
    least entry until p = +-g; the block left holds multiples of g, so
    d_1 | d_2 | ... with zeros last.
    """
    m, n = len(s), len(s[0])
    rs, cs = (s, *rows), (s, *cols)
    for t in range(min(m, n)):
        g = p = 0
        for row in s[t:]:  # each is zero before column t
            g = math.gcd(g, *row)
        while abs(p) != g:
            for i in range(t, m):
                row = s[i]
                if g in row or -g in row:
                    j = row.index(g) if g in row else row.index(-g)
                    break
            else:
                _, i, j = min((abs(x), i, j) for i in range(t, m) for j, x in enumerate(s[i]) if x)
            if i != t:
                for mat in rs:
                    mat[t], mat[i] = mat[i], mat[t]
            if j != t:
                for mat in cs:
                    for r in mat:
                        r[t], r[j] = r[j], r[t]
            prow = s[t]
            p = prow[t]
            for i in range(t + 1, m):
                q = s[i][t] // p
                if q:
                    for mat in rs:
                        mat[i] = [x - q * y for x, y in zip(mat[i], mat[t])]
            for j in range(t + 1, n):
                q = prow[j] // p
                if q:
                    for mat in cs:
                        for r in mat:
                            r[j] -= q * r[t]
            if abs(p) != g and not any(prow[t + 1 :]) and not any(r[t] for r in s[t + 1 :]):
                k = next(k for k in range(t + 1, m) if any(x % p for x in s[k]))
                for mat in rs:
                    mat[t] = [x + y for x, y in zip(mat[t], mat[k])]
        if p < 0:
            for mat in rs:
                mat[t] = [-x for x in mat[t]]


def snf(mat: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transformations.

    Returns (S, U, V) with S = U @ mat @ V, S diagonal with nonnegative
    entries d_1 | d_2 | ... and U, V unimodular.
    """
    rows, cols = _shape(mat)
    s, u, v = [list(row) for row in mat], identity(rows), identity(cols)
    _smith(s, (u,), (v,))
    return s, u, v


def smith_diagonal(mat: IntMat) -> list[int]:
    """The min(rows, cols) diagonal entries d_1 | d_2 | ... of the Smith
    normal form of ``mat``, zeros last.

    One row, two rows or a 3 x 3 block take d_k = D_k / D_(k-1), with D_k
    the gcd of the k x k minors, D_0 = 1 and d_k = 0 once D_k = 0 (Newman,
    *Integral Matrices*, 1972, ch. II): D_1 the content, D_2 from the 2 x 2
    minors of each pair of rows, D_3 = |det|.  A wider block runs the loop
    of :func:`snf` with no transformations to update.
    """
    rows, cols = _shape(mat)
    if rows == 1:
        return [math.gcd(*mat[0])]
    if rows == 2 or rows == cols == 3:
        # per pair of rows, the minors on the column pairs (0, 1), (0, 2), (1, 2), ...
        minors = [
            [a[i] * b[j] - a[j] * b[i] for j in range(cols) for i in range(j)]
            for a, b in combinations(mat, 2)
        ]
        divisors = [math.gcd(*chain(*mat)), math.gcd(*chain(*minors))]
        if rows == 3:  # det along row 0, with the minors of rows 1 and 2
            (a0, a1, a2), (m01, m02, m12) = mat[0], minors[2]
            divisors.append(abs(a0 * m12 - a1 * m02 + a2 * m01))
    else:
        s = [list(row) for row in mat]
        _smith(s)
        return [s[k][k] for k in range(min(rows, cols))]
    diagonal, previous = [], 1
    for big in divisors[:cols]:
        diagonal.append(big // previous if big else 0)
        previous = big
    return diagonal


def kernel_lattice_basis(mat: IntMat) -> IntMat:
    """Basis of the saturated integer kernel lattice of ``mat``, in row
    Hermite normal form.

    The rows of the result form a basis of ker(mat over Q) intersected
    with Z^cols; the quotient of Z^cols by their span is torsion free.
    Returns an empty list when the kernel is trivial.

    At full column rank, tested by one ``echelon`` when rows >= cols, the
    kernel is zero and no Hermite form runs.  Otherwise one Hermite form of
    ``mat`` stacked over the identity (Cohen, *A Course in Computational
    Algebraic Number Theory*, 1993, section 2.4): once the rows of ``mat``
    are done, the columns past its rank vanish on ``mat`` and, the
    transform being unimodular, their lower block is a basis of the
    saturated kernel.  The identity rows then only mix those columns
    among themselves, into their unique Hermite form.
    """
    rows, cols = _shape(mat)
    if rows >= cols and len(echelon(mat)[1]) == cols:
        return []
    h = [list(row) for row in mat] + identity(cols)
    _hermite(h)
    rk = sum(1 for j in range(cols) if any(row[j] for row in h[:rows]))
    return [[h[rows + i][j] for i in range(cols)] for j in range(rk, cols)]


def saturate(generators: IntMat) -> IntMat:
    """Basis of (rational span of the generator rows) intersected with Z^cols."""
    _, cols = _shape(generators)
    annihilator = kernel_lattice_basis(generators)
    if not annihilator:
        return identity(cols)
    return kernel_lattice_basis(annihilator)


class FrozenValue:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and sets them in
    ``__init__`` with ``object.__setattr__``; one that stores a field in
    another form, or keeps a slot derived from its fields, lists its
    fields, slots or properties, in ``_fields`` itself.
    Instances of one class are equal when their fields are, hash by their
    fields, and refuse assignment and deletion.  This stands in for
    ``dataclasses``, whose import and per-class code generation every CLI
    process would pay at start-up.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteAbelianGroup(FrozenValue):
    """Z_{d_1} x ... x Z_{d_k} x Z^r with 2 <= d_1 | d_2 | ... | d_k.

    Factors equal to 1 are never stored; the trivial group is
    ``FiniteAbelianGroup()``.
    """

    __slots__ = ("invariant_factors", "free_rank")

    def __init__(self, invariant_factors: tuple[int, ...] = (), free_rank: int = 0):
        invariant_factors = tuple(invariant_factors)
        if not all(type(x) is int for x in (*invariant_factors, free_rank)):
            raise ValueError("invariant factors and free rank must be integers")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "free_rank", free_rank)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors)

    def __str__(self) -> str:
        parts = [f"C{d}" for d in self.invariant_factors]
        parts.extend("Z" for _ in range(self.free_rank))
        return " x ".join(parts) if parts else "trivial"


def quotient_group(ambient_basis: IntMat, sub_generators: IntMat) -> FiniteAbelianGroup:
    """The group (Z-span of ambient rows) / (Z-span of sub rows).

    Every sub generator must lie in the integer span of the ambient basis;
    lower rational rank of the sub lattice shows up as free rank.
    """
    a_rows, cols = _shape(ambient_basis)
    # S = U @ B @ V; the rows of U @ B = S @ V^-1 span the same lattice, so
    # g = z @ (U @ B) exactly when (g @ V)_k = z_k * d_k for every k
    s, _, v = snf(ambient_basis)
    pivots = [s[k][k] for k in range(min(a_rows, cols))]
    if len(pivots) < a_rows or not all(pivots):
        raise ValueError("ambient basis rows must be linearly independent")
    if not sub_generators:
        return FiniteAbelianGroup((), a_rows)
    s_rows, s_cols = _shape(sub_generators)
    if s_cols != cols:
        raise ValueError("ambient and sub lattices live in different spaces")
    vt = transpose(v)
    coords = []
    for gen in sub_generators:
        gv = matvec(vt, gen)
        if any(x % d for x, d in zip(gv, pivots)) or any(gv[a_rows:]):
            raise ValueError("subgroup not contained in ambient lattice")
        coords.append([x // d for x, d in zip(gv, pivots)])
    nonzero = [d for d in smith_diagonal(coords) if d]
    return FiniteAbelianGroup(tuple(d for d in nonzero if d > 1), a_rows - len(nonzero))
