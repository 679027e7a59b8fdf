"""The fraction-free elimination core against plain Fraction Gauss-Jordan,
and the vertex walk built on it against a scan over every row subset."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, gcd
from operator import mul
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricontact import geometry, lattice
from toricontact.geometry import (
    enumerate_hpoly,
    null_space,
    rank_q,
    sliced_cone_points,
    solve_general,
    solve_square,
)
from toricontact.polytope import cone_normals

from generators import (
    change_basis,
    degenerate,
    parabola,
    positive_reeb,
    random_datum,
    random_sphere,
    random_unimodular,
    walked_vertices,
    weighted_simplex_product,
)
from oracles import basic_feasible_points, cofactor_det, fraction_rref
from oracles import enumerate_hpoly as in_plane_enumerate_hpoly
from oracles import sliced_cone_points as scan_sliced_cone_points

F = Fraction


def walked(a_rows, height):
    """``sliced_cone_points`` read as the scan reports it: each (y, h, tight,
    index) as (y / h, tight, index), once y is checked to be a primitive
    integer ray and h its height <y, height> > 0, an int for an integral
    height."""
    status, points = sliced_cone_points(a_rows, height)
    integral = all(F(x).denominator == 1 for x in height)
    read = []
    for y, h, tight, index in points:
        assert type(y) is tuple and all(type(x) is int for x in y) and gcd(*y) == 1
        assert h == sum(x * F(c) for x, c in zip(y, height)) > 0
        assert type(h) is int or not integral
        read.append((tuple(F(x) / h for x in y), tight, index))
    return status, read


def _product(left, right):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@st.composite
def integer_matrices(draw, max_rows=5, max_cols=5, min_rows=1, min_cols=1):
    """Wide, tall and square matrices; about half are products through a
    narrower inner dimension, so rank deficiency (rank 0 included) is common."""
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    entry = st.integers(-6, 6)
    if draw(st.booleans()):
        return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    inner = draw(st.integers(0, min(rows, cols)))
    small = st.integers(-3, 3)
    left = [draw(st.lists(small, min_size=inner, max_size=inner)) for _ in range(rows)]
    right = [draw(st.lists(small, min_size=cols, max_size=cols)) for _ in range(inner)]
    return _product(left, right) if inner else [[0] * cols for _ in range(rows)]


@st.composite
def rational_matrices(draw, **kwargs):
    """Integer matrices with every entry divided by a small denominator."""
    mat = draw(integer_matrices(**kwargs))
    den = st.integers(1, 4)
    return [[F(x, draw(den)) for x in row] for row in mat]


def _reference_null_space(rows, dim):
    reduced, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        vec = [F(0)] * dim
        vec[f] = F(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return basis


def _reference_solve(rows, rhs, square):
    cols = len(rows[0])
    reduced, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if cols in pivots or (square and pivots != list(range(cols))):
        return None
    x = [F(0)] * cols
    for row, c in zip(reduced, pivots):
        x[c] = row[cols]
    return x


class TestEchelon:
    @settings(deadline=None, max_examples=150)
    @given(integer_matrices(min_rows=0))
    def test_rows_are_scaled_rref(self, mat):
        e, pivots, d, _ = lattice.echelon(mat)
        reduced, ref_pivots = fraction_rref(mat)
        assert pivots == ref_pivots
        assert [[F(x, d) for x in row] for row in e] == reduced
        assert all(row[c] == d for row, c in zip(e, pivots))

    @settings(deadline=None, max_examples=150)
    @given(integer_matrices())
    def test_rank(self, mat):
        assert lattice.rank(mat) == len(fraction_rref(mat)[0])

    @staticmethod
    def _det(mat):
        # the last pivot and the swap sign give the determinant, as the
        # vertex walk's d = |det M| of each simplex dictionary
        _, pivots, d, sign = lattice.echelon(mat)
        return sign * d if len(pivots) == len(mat) else 0

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 5).flatmap(lambda n: integer_matrices(n, n, n, n)))
    def test_det(self, mat):
        assert self._det(mat) == cofactor_det(mat)

    def test_det_needs_row_swaps(self):
        assert self._det([[0, 1], [1, 0]]) == -1
        assert self._det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        assert self._det([[1, 2], [2, 4]]) == 0


class TestRationalSolvers:
    @settings(deadline=None, max_examples=150)
    @given(st.one_of(integer_matrices(min_rows=0), rational_matrices(min_rows=0)))
    def test_rank_and_null_space(self, mat):
        dim = len(mat[0]) if mat else 3
        assert rank_q(mat) == len(fraction_rref(mat)[0])
        assert null_space(mat, dim) == _reference_null_space(mat, dim)

    def test_no_rows(self):
        assert rank_q([]) == 0
        assert null_space([], 2) == [[1, 0], [0, 1]]

    @settings(deadline=None, max_examples=150)
    @given(
        st.one_of(integer_matrices(), rational_matrices()).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(
                    st.fractions(-5, 5, max_denominator=4), min_size=len(m), max_size=len(m)
                ),
            )
        )
    )
    def test_solvers(self, system):
        mat, rhs = system
        assert solve_general(mat, rhs) == _reference_solve(mat, rhs, square=False)
        if len(mat) == len(mat[0]):
            assert solve_square(mat, rhs) == _reference_solve(mat, rhs, square=True)


class TestBasicFeasiblePoints:
    """The Fraction solve of every square subsystem (the oracle behind the
    maximin deformation LP) against the cone-ray enumeration."""

    SYSTEMS = {
        "bounded square": ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0]),
        "bounded rational simplex": ([[-1, 0], [0, -1], [2, 3]], [0, 0, F(1, 2)]),
        "unbounded quadrant": ([[-1, 0], [0, -1]], [0, 0]),
        "unbounded slab": ([[1, 0], [-1, 0]], [1, 1]),
        "empty": ([[1], [-1]], [-1, 0]),
        "empty slab": ([[1, 0], [-1, 0]], [-2, 1]),
        "maximin region": ([[-1, 1], [1, 1], [0, 1]], [F(1, 2), F(1, 2), 1]),
    }

    def test_named_systems(self):
        for name, (a_rows, b) in self.SYSTEMS.items():
            assert basic_feasible_points(a_rows, b) == enumerate_hpoly(a_rows, b)[1], name

    @settings(deadline=None, max_examples=100)
    @given(
        integer_matrices(max_rows=6, max_cols=3).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)),
            )
        )
    )
    def test_random_systems(self, system):
        a_rows, b = system
        assert basic_feasible_points(a_rows, b) == enumerate_hpoly(a_rows, b)[1]


class TestEnumerateHpolyAgainstOracle:
    """The cone-ray enumeration against the dimension-0 branch, the
    rank-deficient recursion and the separate boundedness pass it replaced."""

    @settings(deadline=None, max_examples=250)
    @given(
        st.one_of(
            integer_matrices(max_rows=6, min_cols=0, max_cols=3),
            rational_matrices(max_rows=6, min_cols=0, max_cols=3),
        ).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(
                    st.fractions(-3, 3, max_denominator=2), min_size=len(m), max_size=len(m)
                ),
            )
        )
    )
    @example(([[], []], [1, 0]))
    @example(([[], []], [1, -1]))
    @example(([[1, 0], [-1, 0]], [1, 1]))
    @example(([[1, 0], [-1, 0]], [-2, 1]))
    @example(([[F(1, 2), 1], [-1, -2], [0, 1]], [1, F(1, 2), 3]))
    def test_random_systems(self, system):
        a_rows, b = system
        assert enumerate_hpoly(a_rows, b) == in_plane_enumerate_hpoly(a_rows, b)


def _homogenized(a_rows, b):
    """The cone rows and height whose slice is {x : A x <= b}."""
    dim = len(a_rows[0])
    return [[*row, -bi] for row, bi in zip(a_rows, b)], [0] * dim + [1]


@st.composite
def sliced_systems(draw):
    """(A, height) with 1..4 columns: integer or rational rows, about half
    of them products through a narrower inner dimension (lineality and
    degenerate vertices), and a rational height that may vanish."""
    a_rows = draw(
        st.one_of(
            integer_matrices(max_rows=7, max_cols=4),
            rational_matrices(max_rows=7, max_cols=4),
        )
    )
    height = st.fractions(-3, 3, max_denominator=3)
    return a_rows, draw(st.lists(height, min_size=len(a_rows[0]), max_size=len(a_rows[0])))


class TestEdgeWalkAgainstScan:
    """The edge walk against the scan over every dim-1 rows of the cone."""

    SYSTEMS = {
        # the apex (0, 0, 1) is tight on four facets
        "square pyramid": (
            [[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
            [0, 1, 1, 1, 1],
        ),
        # every vertex is tight on four facets
        "octahedron": ([list(s) for s in product((-1, 1), repeat=3)], [1] * 8),
        "cone over a square": ([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], [1] * 4),
        "unbounded rational simplex": ([[-1, 0], [0, -1], [F(2, 3), -1]], [0, 0, F(1, 2)]),
        "empty": ([[1, 0], [-1, 0], [0, 1]], [-1, 0, 1]),
        "slab (lineality)": ([[1, 0], [-1, 0]], [1, 1]),
        "empty slab": ([[1, 0], [-1, 0]], [-2, 1]),
        "no columns": ([[], []], [1, 0]),
    }

    def test_named_systems(self):
        for name, system in self.SYSTEMS.items():
            a_rows, height = _homogenized(*system)
            got = walked(a_rows, height)
            assert got == scan_sliced_cone_points(a_rows, height), name
        pyramid = walked(*_homogenized(*self.SYSTEMS["square pyramid"]))
        assert pyramid[0] == "bounded" and max(len(t) for _, t, _ in pyramid[1]) == 4
        octahedron = walked(*_homogenized(*self.SYSTEMS["octahedron"]))
        assert len(octahedron[1]) == 6 and all(len(t) == 4 for _, t, _ in octahedron[1])

    @settings(deadline=None, max_examples=200)
    @given(sliced_systems())
    @example(([[-1], [1]], [0]))
    @example(([[1, 0], [0, 1]], [1, 1]))
    def test_random_systems(self, system):
        a_rows, height = system
        assert walked(a_rows, height) == scan_sliced_cone_points(a_rows, height)


@st.composite
def padded_systems(draw):
    """``sliced_systems()`` with up to three more rows, each a copy of a row,
    a row times a positive rational or a zero row, and the rows permuted:
    (A, height, perm) with perm[j] the index in A of row j of the permuted
    system."""
    a_rows, height = draw(sliced_systems())
    rows = list(a_rows)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["duplicate", "scaled", "zero"]))
        if kind == "zero":
            rows.append([0] * len(height))
            continue
        scale = 1 if kind == "duplicate" else draw(st.fractions(F(1, 3), 3, max_denominator=3))
        rows.append([scale * x for x in draw(st.sampled_from(a_rows))])
    return rows, height, draw(st.permutations(range(len(rows))))


class TestRowOrder:
    """The phase 1 and the walk see the same system in any row order."""

    @settings(deadline=None, max_examples=200)
    @given(padded_systems())
    @example(([[1, 0], [-1, 0], [0, 1], [2, 0], [0, 0]], [1, 1], [4, 3, 2, 1, 0]))
    def test_permuted_rows_give_relabelled_active_sets(self, case):
        a_rows, height, perm = case
        status, points = walked(a_rows, height)
        got_status, got = walked([a_rows[i] for i in perm], height)
        assert got_status == status
        assert [(p, frozenset(perm[j] for j in t), i) for p, t, i in got] == points


def _traced(monkeypatch, *names):
    """The names of the calls to these ``geometry`` functions, in order."""
    calls = []
    for name in names:
        real = getattr(geometry, name)

        def traced(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(geometry, name, traced)
    return calls


def _simple_datum(rng, kind):
    if kind == "weighted":
        return weighted_simplex_product(rng)
    if kind == "parabola":
        return change_basis(parabola(2 * rng.randint(2, 8)), random_unimodular(rng, 3))
    if kind == "sphere":
        d = random_sphere(rng)
        return change_basis(d, random_unimodular(rng, d.n + 1))
    return random_datum(rng, kind)


def _fractional_reeb(rng, d):
    """k reeb + e with e of denominator 2..5, k past every -<v, e>: positive
    on the vertex rays, so the slice is bounded with the same tight sets."""
    q = rng.randint(2, 5)
    e = [F(rng.randint(-2, 2), q) for _ in d.reeb]
    worst = max(-sum(x * y for x, y in zip(v.coords, e)) for v in d.vertices)
    k = max(int(worst) + 1, 1)
    return tuple(k * r + x for r, x in zip(d.reeb, e))


class TestPivotWalkOnSimpleData:
    """On a simple polytope every vertex is one basis, reached by one pivot:
    the first dictionary is the only elimination."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["cube", "simplex", "product", "weighted", "sphere", "parabola"]),
        st.sampled_from(["datum", "positive", "fractional"]),
    )
    def test_same_points_order_tight_sets_and_status_as_the_scan(self, rng, kind, reeb):
        d = _simple_datum(rng, kind)
        if reeb == "positive":
            r = positive_reeb(rng, d)
        elif reeb == "fractional":
            r = _fractional_reeb(rng, d)
        else:
            r = d.reeb
        a_rows = [[-x for x in u] for u in cone_normals(d.polytope, r)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _traced(monkeypatch, "echelon")
            got = walked(a_rows, list(r))
        assert got == scan_sliced_cone_points(a_rows, list(r))
        assert got[0] == "bounded" and len(got[1]) == len(d.vertices)
        assert Counter(calls) == {"echelon": 1}

    def test_fractional_heights(self):
        # the orthant simplex at reeb (1, 3/2, 1) has the vertex (0, 2/3, 0)
        a_rows = [[-int(i == j) for j in range(3)] for i in range(3)]
        status, points = walked(a_rows, [1, F(3, 2), 1])
        assert status == "bounded"
        assert points == scan_sliced_cone_points(a_rows, [1, F(3, 2), 1])[1]
        assert (F(0), F(2, 3), F(0)) in [p for p, _, _ in points]


@st.composite
def square_systems(draw):
    """(A, height) with A square of dim 2..6: integer rows, or rational
    ones, with at most one zero row or one row repeated (a line in the
    cone), and an integral or rational height that may vanish.  Half the
    heights combine the rows of -A with positive weights, which slice an
    invertible A in a bounded simplex, or with one weight moved to 0 or
    -1."""
    dim = draw(st.integers(2, 6))
    row = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
    a_rows = draw(st.lists(row, min_size=dim, max_size=dim))
    i, j = draw(st.permutations(range(dim)))[:2]
    how = draw(st.sampled_from(["keep", "keep", "keep", "zero", "repeat"]))
    if how != "keep":
        a_rows[i] = [0] * dim if how == "zero" else a_rows[j]
    if draw(st.booleans()):
        a_rows = [[F(x, draw(st.integers(1, 4))) for x in row] for row in a_rows]
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
        if draw(st.sampled_from([False, False, True])):
            weights[i] = draw(st.integers(-1, 0))
        scale = draw(st.sampled_from([1, F(1, 2), F(3, 2)]))
        return a_rows, [-scale * sum(map(mul, weights, col)) for col in zip(*a_rows)]
    entry = st.one_of(st.integers(-2, 6), st.fractions(-3, 6, max_denominator=4))
    return a_rows, draw(st.lists(entry, min_size=dim, max_size=dim))


class TestSimplicialWalk:
    """A cone of dim rows has every vertex next to phase 1's, so the walk
    reads them off the first dictionary with no pivot."""

    @settings(deadline=None, max_examples=200)
    @given(square_systems())
    @example(([[-1, 0], [0, -1]], [-1, -1]))  # empty
    @example(([[-1, 0], [0, -1]], [1, 0]))  # unbounded, with a vertex
    @example(([[-1, 0, 0], [0, -1, 0], [0, 0, 0]], [1, 1, 1]))  # a zero row
    @example(([[-1, 0, 0], [0, -1, 0], [F(1, 2), 1, -1]], [0, F(1, 3), 1]))
    def test_square_systems_against_the_scan(self, system):
        a_rows, height = system
        assert walked(a_rows, height) == scan_sliced_cone_points(a_rows, height)

    def test_random_simplices_against_the_scan(self):
        # heights inside the dual cone of a random invertible A, integral
        # or not: bounded simplices up to dim 6, where the strategy above
        # mostly draws singular or unbounded systems
        rng = Random(32)
        for _ in range(120):
            dim = rng.randint(2, 6)
            a_rows = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(dim)]
            weights = [F(rng.randint(1, 6), rng.choice([1, 1, 2, 3])) for _ in range(dim)]
            height = [-sum(map(mul, weights, col)) for col in zip(*a_rows)]
            assert walked(a_rows, height) == scan_sliced_cone_points(a_rows, height)

    def test_bounded_slice_takes_one_elimination_and_no_pivot(self):
        # the orthant at height (1, ..., 6): phase 1's basis, the first five
        # rows, is the vertex e_6 / 6 already, and the other five are its
        # neighbours
        a_rows = [[-int(i == j) for j in range(6)] for i in range(6)]
        height = [1, 2, 3, 4, 5, 6]
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _traced(monkeypatch, "echelon", "_pivot")
            status, points = walked(a_rows, height)
        assert Counter(calls) == {"echelon": 1}
        assert status == "bounded" and len(points) == 6
        assert (status, points) == scan_sliced_cone_points(a_rows, height)


def _prism(a_rows, b):
    """The prism {x : A x <= b} x [0, 1] as rows and offsets."""
    dim = len(a_rows[0])
    rows = [[*row, 0] for row in a_rows] + [[0] * dim + [-1], [0] * dim + [1]]
    return rows, [*b, 0, 1]


def _has_lineality(a_rows, height) -> bool:
    """Whether the cone {y : A y <= 0, <y, height> >= 0} holds a line."""
    return bool(null_space([*a_rows, [-x for x in height]], len(height)))


class TestPivotsAndSubsets:
    """A degenerate vertex is walked by pivots among its bases, the
    (dim - 1)-subsets of its tight rows that the lexicographic ratio test
    reaches, as a simple vertex is: every walk takes the first dictionary
    as its only elimination, and a cone with lineality one more, with no
    separate null space."""

    BASE_FIRST = TestEdgeWalkAgainstScan.SYSTEMS["square pyramid"]
    SIDES_FIRST = (BASE_FIRST[0][1:] + BASE_FIRST[0][:1], BASE_FIRST[1][1:] + BASE_FIRST[1][:1])

    def _walk(self, a_rows, height):
        eliminations = 1 + _has_lineality(a_rows, height)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _traced(monkeypatch, "echelon", "null_space")
            got = walked(a_rows, height)
        assert Counter(calls) == {"echelon": eliminations}
        return got

    def test_pivots_to_the_apex_and_back(self):
        # phase 1 stops at a base vertex, and the walk pivots to the apex,
        # then on to the rest and, in the prism, to its far side
        for system in (self.BASE_FIRST, _prism(*self.BASE_FIRST)):
            a_rows, height = _homogenized(*system)
            assert self._walk(a_rows, height) == scan_sliced_cone_points(a_rows, height)

    def test_phase_one_on_the_apex(self):
        # the side facets come first, so phase 1 stops at the apex
        for system in (self.SIDES_FIRST, _prism(*self.SIDES_FIRST)):
            a_rows, height = _homogenized(*system)
            assert self._walk(a_rows, height) == scan_sliced_cone_points(a_rows, height)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cross_polytope(self, n):
        # every vertex +-e_i is tight on 2^(n-1) of the 2^n facets
        a_rows, height = _homogenized([list(s) for s in product((-1, 1), repeat=n)], [1] * 2**n)
        status, points = self._walk(a_rows, height)
        assert status == "bounded" and len(points) == 2 * n
        for point, tight, index in points:
            assert index is None
            i = next(j for j, x in enumerate(point) if x)
            assert sorted(map(abs, point[:-1])) == [0] * (n - 1) + [1]
            assert tight == {k for k, row in enumerate(a_rows) if row[i] == point[i]}
        if n <= 4:
            assert (status, points) == scan_sliced_cone_points(a_rows, height)

    @settings(deadline=None, max_examples=40)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["cube", "simplex", "product"]),
        st.sampled_from(["free", "pinned", "cut"]),
    )
    def test_degenerate_data_against_the_scan(self, rng, kind, how):
        poly, reeb = degenerate(rng, random_datum(rng, kind), how)
        a_rows = [[-x for x in u] for u in cone_normals(poly, reeb)]
        # the scan tries every dim - 1 of the rows and the height row
        assume(comb(len(a_rows) + 1, len(reeb) - 1) <= 300)
        assert self._walk(a_rows, reeb) == scan_sliced_cone_points(a_rows, reeb)

    @settings(deadline=None, max_examples=200)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["cube", "simplex", "product"]),
        st.sampled_from(["free", "pinned", "cut"]),
    )
    def test_degenerate_data_takes_one_elimination_without_lineality(self, rng, kind, how):
        poly, reeb = degenerate(rng, random_datum(rng, kind), how)
        self._walk([[-x for x in u] for u in cone_normals(poly, reeb)], reeb)

    @settings(deadline=None, max_examples=200)
    @given(padded_systems())
    def test_padded_systems_take_one_elimination_without_lineality(self, case):
        # a zero height has no phase 1 and no elimination
        a_rows, height, _ = case
        assume(any(height))
        self._walk(a_rows, height)

    def test_zero_height_takes_no_elimination(self):
        a_rows = [[-int(i == j) for j in range(3)] for i in range(3)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _traced(monkeypatch, "echelon", "null_space")
            assert sliced_cone_points(a_rows, [0, 0, 0]) == ("empty", [])
        assert calls == []

    REFUSALS = {
        "empty": "empty polytope",
        "unbounded": "polytope unbounded in characteristic hyperplane",
        "bounded": None,
    }

    @pytest.mark.parametrize("kind", ["cube", "simplex", "product"])
    @pytest.mark.parametrize("seed", range(8))
    def test_refusals_and_their_messages_match_the_scan_in_order(self, seed, kind):
        # "free" holds a line, "pinned" and "cut" slice lower-dimensional
        # polytopes, the negated reeb is empty, and a reeb negative on some
        # vertex ray makes the slice unbounded
        rng = Random(seed)
        d = random_datum(rng, kind)
        cases = [degenerate(rng, d, how) for how in ("free", "pinned", "cut")]
        cases.append((d.polytope, [-x for x in d.reeb]))
        for _ in range(4):
            reeb = [rng.randint(-2, 2) for _ in d.reeb]
            if any(reeb):
                cases.append((d.polytope, reeb))
        got, want = [], []
        for poly, reeb in cases:
            a_rows = [[-x for x in u] for u in cone_normals(poly, reeb)]
            if comb(len(a_rows) + 1, len(reeb) - 1) > 300:  # the scan's row subsets
                continue
            try:
                walked_vertices(poly, reeb)
                got.append(None)
            except ValueError as exc:
                got.append(str(exc))
            want.append(self.REFUSALS[scan_sliced_cone_points(a_rows, reeb)[0]])
        assert got == want
