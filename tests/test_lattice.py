import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricontact import lattice
from toricontact.classify import classify
from toricontact.lattice import (
    FiniteAbelianGroup,
    hnf,
    identity,
    kernel_lattice_basis,
    matmul,
    primitive,
    quotient_group,
    rank,
    saturate,
    smith_diagonal,
    snf,
    transpose,
)
from toricontact.spheres import weighted_simplex

import oracles
from oracles import cofactor_det, in_span_over_q, minor_gcd_invariant_factors, small_kernel_vectors


def small_matrices(max_dim=4, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@st.composite
def degenerate_matrices(draw):
    """Small matrices, many of them a single row or column, with zero rows,
    or rank deficient (a row a combination of two earlier ones)."""
    shape = draw(st.sampled_from(["any", "row", "column"]))
    rows = 1 if shape == "row" else draw(st.integers(1, 4))
    cols = 1 if shape == "column" else draw(st.integers(1, 4))
    entry = st.integers(-9, 9)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in range(rows):
        how = draw(st.sampled_from(["keep", "zero", "combine"]))
        if how == "zero":
            m[i] = [0] * cols
        elif how == "combine" and i >= 2:
            a, b = draw(entry), draw(entry)
            m[i] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


@st.composite
def smith_matrices(draw):
    """Degenerate and small matrices times a common factor, with a zero row
    and a zero column put in at random: many have no entry equal to +-gcd,
    so the Smith loop has to make one."""
    m = draw(st.one_of(degenerate_matrices(), small_matrices(max_dim=3, max_entry=12)))
    factor = draw(st.sampled_from([1, 1, 2, 6]))
    m = [[factor * x for x in row] for row in m]
    if draw(st.booleans()):
        m.insert(draw(st.integers(0, len(m))), [0] * len(m[0]))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(m[0])))
        m = [[*row[:j], 0, *row[j:]] for row in m]
    return m


@st.composite
def minor_blocks(draw):
    """1 x n and 2 x n blocks (n = 1..6) and 3 x 3 blocks, with negative
    entries, often times a common factor, and about a third each with a
    zero row or a row that is a combination of the others (rank
    deficient)."""
    shapes = [(1, n) for n in range(1, 7)] + [(2, n) for n in range(1, 7)] + [(3, 3)]
    rows, cols = draw(st.sampled_from(shapes))
    entry = st.integers(-12, 12)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    i = draw(st.integers(0, rows - 1))
    how = draw(st.sampled_from(["keep", "zero", "combine"]))
    if how == "zero":
        m[i] = [0] * cols
    elif how == "combine":
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        others = [row for k, row in enumerate(m) if k != i] or [[0] * cols]
        m[i] = [a * x + b * y for x, y in zip(others[0], others[-1])]
    factor = draw(st.sampled_from([1, 1, 2, 6]))
    return [[factor * x for x in row] for row in m]


def refused_smith(*args):
    raise AssertionError("the Smith loop ran")


def no_entry_is_the_gcd(test):
    """Examples with no entry +-gcd, where the Smith loop lowers the least
    entry by steps first."""
    for m in (
        [[2, 0], [0, 3]],
        [[6, 10, 15]],
        [[4, 6], [6, 9]],
        [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
        [[0, 0, 0], [4, 0, 6], [-6, 0, -9]],
    ):
        test = example(m)(test)
    return test


def diag_of(mat):
    return [mat[i][i] for i in range(min(len(mat), len(mat[0])))]


class TestHnf:
    def test_identity_is_fixed(self):
        h, u = hnf(identity(3))
        assert h == identity(3)
        assert u == identity(3)

    def test_row_gcd(self):
        # Oracle: extended gcd of (4, 6) is 2, so the canonical form is [2 0].
        assert math.gcd(4, 6) == 2
        m = [[4, 6]]
        h, u = hnf(m)
        assert h == [[2, 0]]
        assert matmul(m, u) == h
        assert abs(cofactor_det(u)) == 1

    def test_tall_matrix_already_reduced(self):
        m = [[1, 0], [0, 1], [1, 1]]
        h, u = hnf(m)
        assert h == m
        assert matmul(m, u) == h
        assert abs(cofactor_det(u)) == 1

    @settings(deadline=None, max_examples=150)
    @given(small_matrices())
    def test_properties(self, m):
        h, u = hnf(m)
        assert matmul(m, u) == h
        assert abs(cofactor_det(u)) == 1
        # pivots positive, entries to their left reduced, echelon structure
        cols = len(m[0])
        pivot_rows = []
        for j in range(cols):
            nz = [i for i in range(len(m)) if h[i][j]]
            if not nz:
                continue
            top = nz[0]
            pivot_rows.append(top)
            p = h[top][j]
            assert p > 0
            assert all(0 <= h[top][k] < p for k in range(j))
        assert pivot_rows == sorted(pivot_rows)
        # zero columns come last
        nonzero = [j for j in range(cols) if any(row[j] for row in h)]
        assert nonzero == list(range(len(nonzero)))


class TestSnf:
    def test_identity(self):
        s, u, v = snf(identity(2))
        assert s == identity(2)

    def test_two_by_two(self):
        # Oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8.
        m = [[2, 4], [6, 8]]
        assert minor_gcd_invariant_factors(m) == [2, 4]
        s, u, v = snf(m)
        assert diag_of(s) == [2, 4]
        assert matmul(matmul(u, m), v) == s

    def test_one_by_one(self):
        s, u, v = snf([[2]])
        assert s == [[2]]

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(small_matrices(), degenerate_matrices(), smith_matrices()))
    @no_entry_is_the_gcd
    def test_properties(self, m):
        s, u, v = snf(m)
        assert matmul(matmul(u, m), v) == s
        assert abs(cofactor_det(u)) == 1
        assert abs(cofactor_det(v)) == 1
        rows, cols = len(m), len(m[0])
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        d = diag_of(s)
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0

    @settings(deadline=None, max_examples=60)
    @given(small_matrices(max_dim=3, max_entry=6))
    def test_matches_minor_gcd_oracle(self, m):
        s, _, _ = snf(m)
        d = [x for x in diag_of(s) if x]
        assert d == minor_gcd_invariant_factors(m)


class TestSmithDiagonal:
    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(degenerate_matrices(), small_matrices(max_dim=3, max_entry=6), smith_matrices())
    )
    @no_entry_is_the_gcd
    def test_matches_snf_and_the_minor_gcd_oracle(self, m):
        d = smith_diagonal(m)
        assert d == diag_of(snf(m)[0])
        assert [x for x in d if x] == minor_gcd_invariant_factors(m)

    @settings(deadline=None, max_examples=400)
    @given(minor_blocks())
    @example([[0, 0, 0, 0]])
    @example([[-6, 10, 15]])
    @example([[4, 6], [6, 9]])
    @example([[2, -4, 6], [0, 0, 0]])
    @example([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    @example([[0, 0, 0], [4, 0, 6], [-6, 0, -9]])
    def test_minor_gcds_match_the_loop_and_the_oracle(self, m):
        # one row, two rows and a 3 x 3 block take their diagonal off the
        # gcds of their minors, with no Smith loop
        s = [list(row) for row in m]
        lattice._smith(s)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(lattice, "_smith", refused_smith)
            d = smith_diagonal(m)
        assert d == diag_of(s)
        assert [x for x in d if x] == minor_gcd_invariant_factors(m)

    def test_zero_matrix(self):
        assert smith_diagonal([[0, 0, 0], [0, 0, 0]]) == [0, 0]

    def test_leaves_its_argument_alone(self):
        m = [[2, 4], [6, 8]]
        assert smith_diagonal(m) == [2, 4]
        assert m == [[2, 4], [6, 8]]


class TestSmithLoop:
    """The Smith loop works on its matrix alone, by gcd pivots."""

    def test_classify_runs_no_hermite_form_and_no_transpose_in_it(self, monkeypatch):
        inside, seen, smith_calls = [], [], []
        smith = lattice._smith

        def entered(*args):
            smith_calls.append(args)
            inside.append(True)
            try:
                return smith(*args)
            finally:
                inside.pop()

        for name in ("_hermite", "transpose"):

            def spied(*args, name=name, real=getattr(lattice, name)):
                if inside:
                    seen.append(name)
                return real(*args)

            monkeypatch.setattr(lattice, name, spied)
        monkeypatch.setattr(lattice, "_smith", entered)
        # faces of 3 facets in Z^4 are 3 x 4 blocks, past the minor gcds
        d = weighted_simplex((2, 3, 5, 7, 11))
        report = classify(d)
        assert smith_calls
        assert report == oracles.classify(d)
        assert seen == []


class TestKernel:
    def test_injective_map_has_empty_kernel(self):
        assert kernel_lattice_basis(identity(3)) == []

    def test_one_by_two(self):
        m = [[1, 2]]
        basis = kernel_lattice_basis(m)
        assert basis == [[2, -1]]
        # brute-force oracle: primitive kernel vectors of [1 2] in a small box
        brute = small_kernel_vectors(m, 3)
        assert (2, -1) in brute and (-2, 1) in brute

    def test_rank_two_kernel(self):
        m = [[1, 1, 1]]
        basis = kernel_lattice_basis(m)
        assert len(basis) == 2
        for row in basis:
            assert sum(row) == 0
        brute = small_kernel_vectors(m, 3)
        for row in basis:
            assert tuple(row) in brute
        # saturation: the basis matrix has all invariant factors 1
        s, _, _ = snf(basis)
        assert [x for x in diag_of(s) if x] == [1, 1]

    @settings(deadline=None, max_examples=100)
    @given(small_matrices())
    def test_saturated_and_annihilating(self, m):
        basis = kernel_lattice_basis(m)
        cols = len(m[0])
        assert len(basis) == cols - rank(m)
        if not basis:
            return
        for row in basis:
            assert all(sum(a * b for a, b in zip(mr, row)) == 0 for mr in m)
        s, _, _ = snf(basis)
        assert all(x == 1 for x in diag_of(s) if x is not None)

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_row_lattice_invariant_and_in_row_hnf(self, data):
        # ker(X @ m) = ker(m) and the rational row spans agree for any
        # nonsingular X, so the canonical forms must agree exactly
        m = data.draw(st.one_of(small_matrices(), degenerate_matrices()))
        rows = len(m)
        x = data.draw(
            st.lists(
                st.lists(st.integers(-4, 4), min_size=rows, max_size=rows),
                min_size=rows,
                max_size=rows,
            ).filter(lambda x: cofactor_det(x) != 0)
        )
        basis = kernel_lattice_basis(m)
        assert kernel_lattice_basis(matmul(x, m)) == basis
        assert saturate(matmul(x, m)) == saturate(m)
        # row HNF: pivots move right, are positive, and reduce the entries above
        pivot_cols = [next(j for j, v in enumerate(row) if v) for row in basis]
        assert pivot_cols == sorted(set(pivot_cols))
        for r, c in enumerate(pivot_cols):
            p = basis[r][c]
            assert p > 0
            assert all(0 <= basis[i][c] < p for i in range(r))

    def test_one_hermite_form_and_no_hnf(self, monkeypatch):
        calls = []
        hermite = lattice._hermite

        def counted(h, mats=()):
            calls.append(len(mats))
            return hermite(h, mats)

        def refused(mat):
            raise AssertionError("hnf ran")

        monkeypatch.setattr(lattice, "_hermite", counted)
        monkeypatch.setattr(lattice, "hnf", refused)
        assert kernel_lattice_basis([[1, 2, 3], [2, 4, 7]]) == [[2, -1, 0]]
        assert calls == [0]


class TestSaturate:
    def test_multiple_of_primitive(self):
        assert saturate([[2, 0]]) == [[1, 0]]

    def test_full_rank_span(self):
        assert saturate([[2, 2], [0, 4]]) == identity(2)

    def test_already_primitive(self):
        assert saturate([[1, 2, 3]]) == [[1, 2, 3]]

    @settings(deadline=None, max_examples=100)
    @given(small_matrices())
    def test_same_span_and_saturated(self, m):
        sat = saturate(m)
        if not sat:
            assert all(not any(row) for row in m)
            return
        for row in m:
            assert in_span_over_q(sat, row)
        for row in sat:
            assert in_span_over_q(m, row)
        s, _, _ = snf(sat)
        assert all(x == 1 for x in diag_of(s))


class TestPrimitive:
    def test_gcd_division(self):
        assert primitive([2, 4, 6]) == [1, 2, 3]

    def test_sign_preserved(self):
        assert primitive([-3, 6]) == [-1, 2]

    def test_single_entry(self):
        assert primitive([5]) == [1]

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            primitive([0, 0])


class TestQuotientGroup:
    def test_index_two_in_z(self):
        g = quotient_group([[1, 0]], [[2, 0]])
        assert g == FiniteAbelianGroup((2,))
        assert g.order() == 2

    def test_trivial(self):
        g = quotient_group(identity(2), identity(2))
        assert g.is_trivial

    def test_determinant_two_sublattice(self):
        g = quotient_group(identity(2), [[1, 1], [1, -1]])
        assert g == FiniteAbelianGroup((2,))

    def test_free_rank_reported(self):
        g = quotient_group(identity(2), [[3, 0]])
        assert g.invariant_factors == (3,)
        assert g.free_rank == 1
        assert g.order() is None

    def test_membership_enforced(self):
        with pytest.raises(ValueError, match="not contained"):
            quotient_group([[2, 0], [0, 1]], [[1, 0]])

    def test_order_equals_det_when_full_rank(self):
        rng = random.Random(20240811)
        for _ in range(25):
            n = rng.randrange(1, 4)
            while True:
                sub = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
                d = cofactor_det(sub)
                if d:
                    break
            g = quotient_group(identity(n), sub)
            assert g.order() == abs(d)

    def test_nondiagonal_ambient_matches_minor_gcd_oracle(self):
        # quotient_group(B, X @ B) is Z^k / X Z^k for any basis B
        rng = random.Random(20261017)
        for _ in range(40):
            k = rng.randrange(1, 4)
            cols = rng.randrange(k, 5)
            while True:
                b = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(k)]
                if rank(b) == k:
                    break
            while True:
                x = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(k)]
                if cofactor_det(x):
                    break
            g = quotient_group(b, matmul(x, b))
            assert g.free_rank == 0
            assert list(g.invariant_factors) == [
                d for d in minor_gcd_invariant_factors(x) if d > 1
            ]

    def test_dependent_ambient_rejected(self):
        with pytest.raises(ValueError, match="linearly independent"):
            quotient_group([[1, 2, 3], [2, 4, 6]], [[1, 2, 3]])
        with pytest.raises(ValueError, match="linearly independent"):
            quotient_group([[1], [2]], [[1]])

    def test_membership_enforced_nondiagonal(self):
        b = [[1, 2, 3], [0, 3, 6]]
        assert quotient_group(b, [[0, 3, 6], [1, 5, 9]]).is_trivial
        # in the rational span (a third of a basis row), not the integer span
        with pytest.raises(ValueError, match="not contained"):
            quotient_group(b, [[0, 1, 2]])
        # outside the rational span
        with pytest.raises(ValueError, match="not contained"):
            quotient_group(b, [[0, 0, 1]])


class TestFiniteAbelianGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1, 2))

    def test_str(self):
        assert str(FiniteAbelianGroup()) == "trivial"
        assert str(FiniteAbelianGroup((2, 4), 1)) == "C2 x C4 x Z"

    def test_factors_stored_as_a_tuple_of_ints(self):
        g = FiniteAbelianGroup([2, 4])
        assert g.invariant_factors == (2, 4)
        assert g == FiniteAbelianGroup((2, 4))
        assert hash(g) == hash(FiniteAbelianGroup((2, 4)))
        for factors, free_rank in [((2.0,), 0), ((2,), True), ((True, 2), 0), ((2,), 1.0)]:
            with pytest.raises(ValueError, match="integers"):
                FiniteAbelianGroup(factors, free_rank)


def test_snf_matches_sympy_on_random_matrices():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    rng = random.Random(1979)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randrange(-12, 13) for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and rng.random() < 0.3:  # rank deficient
            m[-1] = [2 * a - 3 * b for a, b in zip(m[0], m[1])]
        s, _, _ = snf(m)
        ref = normalforms.smith_normal_form(Matrix(m), domain=ZZ)
        assert diag_of(s) == [abs(ref[i, i]) for i in range(min(rows, cols))], m


def test_random_cross_check_five_by_five():
    rng = random.Random(5_5_5)
    for _ in range(50):
        m = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(5)]
        s, u, v = snf(m)
        assert matmul(matmul(u, m), v) == s
        d = [x for x in diag_of(s) if x]
        assert d == minor_gcd_invariant_factors(m)
