import math
from fractions import Fraction

import pytest

from toricontact import spheres
from toricontact.spheres import SampleReport, convexity_sample_check, weighted_simplex

from oracles import moment_eval, reeb_orbit_order

F = Fraction


class TestWeightVector:
    def test_positive_required(self):
        with pytest.raises(ValueError, match="^weights must be positive$"):
            weighted_simplex((1, 0))

    def test_content(self):
        with pytest.raises(ValueError, match="^weights have gcd 2; normalize first$"):
            weighted_simplex((2, 4))

    def test_at_least_two(self):
        with pytest.raises(ValueError, match="^need at least two weights$"):
            weighted_simplex((1,))

    @pytest.mark.parametrize("weights", [(2.7, 3), (2.0, 3), (True, 2), (1, F(2))])
    def test_integers_required(self, weights):
        # int() would read (2.7, 3) as (2, 3) and (True, 2) as (1, 2)
        with pytest.raises(ValueError, match="^weights must be integers"):
            weighted_simplex(weights)
        with pytest.raises(ValueError, match="^weights must be integers"):
            convexity_sample_check(weights, 10, seed=0)


class TestWeightedSimplex:
    def test_standard(self):
        d = weighted_simplex((1, 1, 1))
        assert d.reeb == (1, 1, 1)
        assert [f.label for f in d.facets] == [1, 1, 1]
        assert [f.normal for f in d.facets] == [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]

    def test_one_two_labels(self):
        d = weighted_simplex((1, 2))
        assert [f.label for f in d.facets] == [2, 1]
        assert [v.coords for v in d.vertices] == [(0, F(1, 2)), (1, 0)]

    def test_larger_labels(self):
        d = weighted_simplex((2, 3, 5))
        assert [f.label for f in d.facets] == [1, 1, 1]
        d = weighted_simplex((4, 6, 9))
        assert [f.label for f in d.facets] == [3, 1, 2]

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="gcd 2"):
            weighted_simplex((2, 2))


class TestMomentEval:
    def test_coordinate_point(self):
        assert moment_eval((1, 1, 1), (1, 0, 0, 0, 0, 0)) == [1.0, 0.0, 0.0]

    def test_weighted_coordinate_point(self):
        assert moment_eval((1, 2), (0, 0, 1, 0)) == [0.0, 0.5]

    def test_scale_invariance(self):
        z = (0.3, -1.2, 0.8, 0.1)
        a = (1, 2)
        mu1 = moment_eval(a, z)
        mu2 = moment_eval(a, tuple(3.0 * x for x in z))
        assert mu1 == pytest.approx(mu2, abs=1e-15)

    def test_weighted_sum_is_one(self):
        a = (1, 2, 3)
        z = (0.5, 1.0, -0.7, 0.2, 0.9, -0.4)
        mu = moment_eval(a, z)
        assert math.fsum(ai * mi for ai, mi in zip(a, mu)) == pytest.approx(1.0, abs=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            moment_eval((1, 2), (0, 0, 0, 0))


class TestConvexitySampleCheck:
    def test_standard_clean(self):
        report = convexity_sample_check((1, 1, 1), 2000, seed=11)
        assert report.ok
        assert report.max_facet_violation <= 1e-9
        assert report.max_hyperplane_deviation <= 1e-9

    def test_weighted_clean(self):
        report = convexity_sample_check((1, 2, 3), 2000, seed=23)
        assert report.ok

    def test_empty(self):
        report = convexity_sample_check((1, 2), 0, seed=0)
        assert report == SampleReport(0, 1e-9, 0.0, 0.0)

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            convexity_sample_check((1, 2, 3), 10, seed=seed)

    def test_prefix_stable_across_batches(self):
        # at tol=0 rounding in the hyperplane sum fails many samples, so the
        # failure lists show where each run's samples come from
        batch = spheres._BATCH
        whole = convexity_sample_check((1, 2, 3), 3 * batch, seed=5, tol=0.0).failures
        assert whole
        for m in (batch - 1, batch, batch + 1):
            prefix = convexity_sample_check((1, 2, 3), m, seed=5, tol=0.0).failures
            assert prefix == tuple(f for f in whole if f[0] < m)

    @pytest.mark.parametrize(
        "weights, count", [((1, 2, 3), 5000), ((2, 3), 300), ((1, 1, 4, 5), 999)]
    )
    def test_failures_well_formed(self, weights, count):
        report = convexity_sample_check(weights, count, seed=17, tol=0.0)
        indices = [f[0] for f in report.failures]
        assert indices and indices == sorted(set(indices))
        assert all(0 <= i < count for i in indices)

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_max_fields_bound_every_failure(self, tol):
        report = convexity_sample_check((1, 2, 3), 5000, seed=29, tol=tol)
        assert report.max_facet_violation >= 0.0
        assert report.max_hyperplane_deviation >= 0.0
        for _, facet, plane in report.failures:
            assert report.max_facet_violation >= facet
            assert report.max_hyperplane_deviation >= plane

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # NaN passed every sample, and -1 failed every one
        with pytest.raises(ValueError, match="tol must be a finite nonnegative number"):
            convexity_sample_check((1, 2, 3), 100, seed=0, tol=tol)

    def test_deterministic_in_seed(self):
        r1 = convexity_sample_check((1, 2), 500, seed=9)
        r2 = convexity_sample_check((1, 2), 500, seed=9)
        assert r1 == r2


class TestReebOrbitOrder:
    def test_half_period(self):
        assert reeb_orbit_order((1, 2), {1}) == 2

    def test_full_support_generic(self):
        assert reeb_orbit_order((1, 2), {0, 1}) == 1
        assert reeb_orbit_order((2, 3, 5), {0, 1, 2}) == 1

    def test_coprime_pair(self):
        assert reeb_orbit_order((2, 3, 5), {1, 2}) == 1
        assert reeb_orbit_order((2, 3, 5), {2}) == 5

    def test_empty_support(self):
        with pytest.raises(ValueError, match="nonempty"):
            reeb_orbit_order((1, 2), set())
