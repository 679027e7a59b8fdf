"""Independent brute-force oracles used to pin expected values in tests.

Nothing here calls into the package's normal-form code, so agreement
between these and the fast paths is a real cross-check.
"""

from __future__ import annotations

import math
from itertools import combinations, product


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
    from fractions import Fraction

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
