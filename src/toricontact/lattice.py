"""Exact integer linear algebra: elimination, normal forms, lattices, quotients.

Everything here works on nested lists of plain Python ints, so coefficient
growth is absorbed by arbitrary precision and every identity (``H = M @ U``,
``S = U @ M @ V``, divisibility chains) holds exactly.  Matrices are
row-major: ``mat[i][j]`` is the entry in row ``i``, column ``j``.

``echelon`` is the one elimination over Q: rank, determinant and every
rational solve in :mod:`toricontact.geometry` read their answer off it.
"""

from __future__ import annotations

import math
from operator import mul

__all__ = [
    "FiniteAbelianGroup",
    "det",
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


def det(mat: IntMat) -> int:
    """Exact determinant, read off the fraction-free elimination."""
    rows, cols = _shape(mat)
    if rows != cols:
        raise ValueError("determinant requires a square matrix")
    _, pivots, d, sign = echelon(mat)
    return sign * d if len(pivots) == rows else 0


def hnf(mat: IntMat) -> tuple[IntMat, IntMat]:
    """Column-style Hermite normal form.

    Returns (H, U) with H = mat @ U and U square unimodular.  H is in
    column echelon form: pivot columns come first, each pivot is positive,
    entries to the left of a pivot (in its row) are reduced into
    [0, pivot), and all columns beyond the last pivot are zero.
    """
    rows, cols = _shape(mat)
    h = [list(row) for row in mat]
    u = identity(cols)

    def col_combine(j1, j2, a11, a21, a12, a22):
        # (col_j1, col_j2) <- (a11*col_j1 + a21*col_j2, a12*col_j1 + a22*col_j2)
        for m in (h, u):
            for row in m:
                x, y = row[j1], row[j2]
                row[j1] = a11 * x + a21 * y
                row[j2] = a12 * x + a22 * y

    pivot_col = 0
    for row in range(rows):
        if pivot_col == cols:
            break
        for j in range(pivot_col + 1, cols):
            if h[row][j] == 0:
                continue
            a, b = h[row][pivot_col], h[row][j]
            g, s, t = _xgcd(a, b)
            col_combine(pivot_col, j, s, t, -(b // g), a // g)
        if h[row][pivot_col] == 0:
            continue
        if h[row][pivot_col] < 0:
            for m in (h, u):
                for r in m:
                    r[pivot_col] = -r[pivot_col]
        p = h[row][pivot_col]
        for j in range(pivot_col):
            q = h[row][j] // p  # floor division leaves a remainder in [0, p)
            if q:
                for m in (h, u):
                    for r in m:
                        r[j] -= q * r[pivot_col]
        pivot_col += 1
    return h, u


def rank(mat: IntMat) -> int:
    """Rank over the rationals (number of pivots of the elimination)."""
    _shape(mat)
    return len(echelon(mat)[1])


def _smith(row_mats: tuple, col_mats: tuple) -> None:
    """Bring ``s = row_mats[0]`` (also ``col_mats[0]``) to Smith normal form
    in place, applying every row operation to each matrix of ``row_mats``
    and every column operation to each matrix of ``col_mats``."""
    s = row_mats[0]
    rows, cols = len(s), len(s[0])

    def row_combine(i1, i2, a11, a12, a21, a22):
        for m in row_mats:
            r1, r2 = m[i1], m[i2]
            m[i1] = [a11 * x + a12 * y for x, y in zip(r1, r2)]
            m[i2] = [a21 * x + a22 * y for x, y in zip(r1, r2)]

    def col_combine(j1, j2, a11, a21, a12, a22):
        for m in col_mats:
            for row in m:
                x, y = row[j1], row[j2]
                row[j1] = a11 * x + a21 * y
                row[j2] = a12 * x + a22 * y

    for t in range(min(rows, cols)):
        # Move the smallest nonzero entry of the trailing block to (t, t),
        # the first in row-major order on a tie.
        entries = [(abs(x), i, j) for i in range(t, rows) for j, x in enumerate(s[i][t:], t) if x]
        if not entries:
            break
        _, pi, pj = min(entries)
        for m in row_mats:
            m[t], m[pi] = m[pi], m[t]
        for m in col_mats:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, rows):
                if s[i][t]:
                    a, b = s[t][t], s[i][t]
                    if b % a == 0:
                        row_combine(t, i, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = _xgcd(a, b)
                        row_combine(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, cols):
                if s[t][j]:
                    a, b = s[t][t], s[t][j]
                    if b % a == 0:
                        col_combine(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = _xgcd(a, b)
                        col_combine(t, j, x, y, -(b // g), a // g)
            if any(s[i][t] for i in range(t + 1, rows)):
                continue  # column ops disturbed the pivot column
            # add to row t a lower row (0 up to column t) with an entry d_t does not divide
            p = s[t][t]
            offender = next((i for i in range(t + 1, rows) if any(x % p for x in s[i])), None)
            if offender is None:
                break
            row_combine(t, offender, 1, 1, 0, 1)
        if s[t][t] < 0:
            for m in row_mats:
                m[t] = [-x for x in m[t]]


def snf(mat: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transformations.

    Returns (S, U, V) with S = U @ mat @ V, S diagonal with nonnegative
    entries d_1 | d_2 | ... and U, V unimodular.
    """
    rows, cols = _shape(mat)
    s, u, v = [list(row) for row in mat], identity(rows), identity(cols)
    _smith((s, u), (s, v))
    return s, u, v


def smith_diagonal(mat: IntMat) -> list[int]:
    """The min(rows, cols) diagonal entries d_1 | d_2 | ... of the Smith
    normal form of ``mat``, zeros last: the loop of :func:`snf` with no
    transformations to update."""
    rows, cols = _shape(mat)
    s = [list(row) for row in mat]
    _smith((s,), (s,))
    return [s[k][k] for k in range(min(rows, cols))]


def _row_hnf_basis(mat: IntMat) -> IntMat:
    """Canonical basis (row HNF, zero rows dropped) of the row lattice."""
    h, _ = hnf(transpose(mat))
    return [list(row) for row in zip(*h) if any(row)]


def kernel_lattice_basis(mat: IntMat) -> IntMat:
    """Basis of the saturated integer kernel lattice of ``mat``.

    The rows of the result form a basis of ker(mat over Q) intersected
    with Z^cols; the quotient of Z^cols by their span is torsion free.
    Returns an empty list when the kernel is trivial.
    """
    rows, cols = _shape(mat)
    h, u = hnf(mat)
    rk = sum(1 for j in range(cols) if any(row[j] for row in h))
    basis = [[u[i][j] for i in range(cols)] for j in range(rk, cols)]
    if not basis:
        return []
    return _row_hnf_basis(basis)


def saturate(generators: IntMat) -> IntMat:
    """Basis of (rational span of the generator rows) intersected with Z^cols."""
    rows, cols = _shape(generators)
    annihilator = kernel_lattice_basis(generators)
    if not annihilator:
        return identity(cols)
    result = kernel_lattice_basis(annihilator)
    return result if result else []


class FrozenValue:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` (a name starting with
    ``_`` is a private cache, not a field) and sets them in ``__init__``
    with ``object.__setattr__``.  Instances of one class are equal when
    their fields are, hash by their fields, and refuse assignment and
    deletion.  This stands in for ``dataclasses``, whose import and
    per-class code generation every CLI process would pay at start-up.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

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
    return FiniteAbelianGroup(
        tuple(d for d in nonzero if d > 1), a_rows - len(nonzero)
    )
