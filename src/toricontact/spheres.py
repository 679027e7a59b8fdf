"""Weighted odd spheres: explicit data and a sampling check of the moment map.

The deformed sphere with weight vector a = (a_0, ..., a_n) carries the
Reeb field sum_i a_i (x_i d/dy_i - y_i d/dx_i).  Its moment image is the
weighted simplex {r >= 0, sum a_i r_i = 1} and the closing time of the
Reeb orbit through a point is controlled by the gcd of the weights on the
point's coordinate support.  That closing-time ratio, an independent
oracle for the holonomy groups computed combinatorially in
:mod:`toricontact.classify`, lives with the other references in
``tests/oracles.py``.
"""

from __future__ import annotations

from math import gcd, inf
from operator import add, truediv

from .classify import ToricContactDatum, validate_datum
from .lattice import FrozenValue
from .polytope import LabeledFacet, LabeledPolytope

__all__ = [
    "SampleReport",
    "convexity_sample_check",
    "weighted_simplex",
]


def _weights(a) -> tuple[int, ...]:
    """The weights as ints: at least two, all positive, with gcd 1."""
    w = tuple(a)
    if any(type(x) is not int for x in w):
        raise ValueError(f"weights must be integers, got {a!r}")
    if len(w) < 2:
        raise ValueError("need at least two weights")
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    if gcd(*w) != 1:
        raise ValueError(f"weights have gcd {gcd(*w)}; normalize first")
    return w


def weighted_simplex(a) -> ToricContactDatum:
    """Datum of the weighted sphere: facets r_i >= 0, label gcd of the
    complementary weights, characteristic vector a."""
    w = _weights(a)
    n1 = len(w)
    facets = []
    for i in range(n1):
        others = [w[j] for j in range(n1) if j != i]
        facets.append(
            LabeledFacet(tuple(-int(i == j) for j in range(n1)), gcd(*others))
        )
    return validate_datum(LabeledPolytope(n1, tuple(facets)), w)


class SampleReport(FrozenValue):
    __slots__ = (
        "samples", "tol", "max_facet_violation", "max_hyperplane_deviation", "failures"
    )

    def __init__(
        self,
        samples: int,
        tol: float,
        max_facet_violation: float,
        max_hyperplane_deviation: float,
        failures: tuple = (),
    ):
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_facet_violation", max_facet_violation)
        object.__setattr__(self, "max_hyperplane_deviation", max_hyperplane_deviation)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


# points drawn and checked together: memory does not grow with ``count``
_BATCH = 4096


def _weighted_sum(weights, cols) -> list[float]:
    """Row sums sum_j weights[j] * cols[j][i], one column at a time."""
    total = list(map(weights[0].__mul__, cols[0]))
    for a, col in zip(weights[1:], cols[1:]):
        total = list(map(add, total, map(a.__mul__, col)))
    return total


def convexity_sample_check(a, count: int, seed: int, tol: float = 1e-9) -> SampleReport:
    """Sample the moment image and check it against the weighted simplex.

    For each of ``count`` points the squared moduli |z_j|^2 are drawn as
    standard exponential variates from ``random.Random(seed)``: for a
    standard Gaussian pair x^2 + y^2 is exponential with mean 2 and the
    moment map is scale invariant, so the moment values have the law they
    have at Gaussian points.  Points are drawn one after another in batches
    of ``_BATCH``, so sample i does not depend on ``count``.  Every moment
    value is checked against each facet inequality up to ``tol`` and the
    hyperplane equation within ``tol``; failures are listed in sample order.
    """
    import random  # only sampling needs it; keeps ``sphere`` start-up light

    datum = weighted_simplex(a)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        # Random(-s) would seed the same stream as Random(s)
        raise ValueError("seed must be a nonnegative integer")
    if not 0 <= tol < inf:  # also refuses NaN, which every comparison fails
        raise ValueError(f"tol must be a finite nonnegative number, got {tol!r}")
    # facet inequality <mu, m_j * (-e_j)> <= 0, violation = -m_j * mu_j
    neg_labels = [-float(f.label) for f in datum.facets]
    weights = [float(x) for x in datum.reeb]
    n1 = len(weights)
    draw = random.Random(seed).expovariate
    failures = []
    max_facet = 0.0
    max_plane = 0.0
    for start in range(0, count, _BATCH):
        sq = [draw(1.0) for _ in range(min(_BATCH, count - start) * n1)]  # row-major
        cols = [sq[j::n1] for j in range(n1)]
        denom = _weighted_sum(weights, cols)
        mu = [list(map(truediv, col, denom)) for col in cols]
        facet_violation = list(
            map(max, *(map(m.__mul__, col) for m, col in zip(neg_labels, mu)))
        )
        plane_dev = [abs(s - 1.0) for s in _weighted_sum(weights, mu)]
        max_facet = max(max_facet, max(facet_violation))
        max_plane = max(max_plane, max(plane_dev))
        failures.extend(
            (start + i, f, p)
            for i, (f, p) in enumerate(zip(facet_violation, plane_dev))
            if f > tol or p > tol
        )
    return SampleReport(
        samples=count,
        tol=tol,
        max_facet_violation=max_facet,
        max_hyperplane_deviation=max_plane,
        failures=tuple(failures),
    )

