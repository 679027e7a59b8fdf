from toricontact.geometry import (
    enumerate_hpoly,
    null_space,
    rank_q,
    solve_general,
    solve_square,
)


class TestSolvers:
    def test_square(self):
        x = solve_square([[2, 1], [1, -1]], [3, 0])
        assert x == [1, 1]

    def test_square_singular(self):
        assert solve_square([[1, 2], [2, 4]], [1, 1]) is None

    def test_general_underdetermined(self):
        x = solve_general([[1, 1, 1]], [2])
        assert x is not None and sum(x) == 2

    def test_general_inconsistent(self):
        assert solve_general([[1, 1], [1, 1]], [0, 1]) is None

    def test_null_space(self):
        basis = null_space([[1, 2, 3]], 3)
        assert len(basis) == 2
        for vec in basis:
            assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0

    def test_rank(self):
        assert rank_q([[1, 2], [2, 4], [0, 1]]) == 2


class TestEnumerateHpoly:
    def test_unit_square(self):
        a = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        b = [1, 0, 1, 0]
        status, verts = enumerate_hpoly(a, b)
        assert status == "bounded"
        assert verts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_empty(self):
        status, verts = enumerate_hpoly([[1], [-1]], [-1, 0])
        assert status == "empty"
        assert verts == []

    def test_unbounded_with_vertex(self):
        status, verts = enumerate_hpoly([[-1, 0], [0, -1]], [0, 0])
        assert status == "unbounded"
        assert verts == [(0, 0)]

    def test_unbounded_low_rank(self):
        # a slab: feasible, no vertices
        status, verts = enumerate_hpoly([[1, 0], [-1, 0]], [1, 1])
        assert status == "unbounded"
        assert verts == []

    def test_empty_low_rank(self):
        status, verts = enumerate_hpoly([[1, 0], [-1, 0]], [-2, 1])
        assert status == "empty"

    def test_simplex(self):
        a = [[-1, 0], [0, -1], [1, 1]]
        b = [0, 0, 1]
        status, verts = enumerate_hpoly(a, b)
        assert status == "bounded"
        assert verts == [(0, 0), (0, 1), (1, 0)]

