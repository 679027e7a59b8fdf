"""Weighted odd spheres: explicit data, moment map, and the orbit oracle.

The deformed sphere with weight vector a = (a_0, ..., a_n) carries the
Reeb field sum_i a_i (x_i d/dy_i - y_i d/dx_i).  Its moment image is the
weighted simplex {r >= 0, sum a_i r_i = 1} and the closing time of the
Reeb orbit through a point is controlled by the gcd of the weights on the
point's coordinate support.  That closing-time ratio is an independent
oracle for the holonomy groups computed combinatorially in
:mod:`toricontact.classify`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf

from .classify import ToricContactDatum, validate_datum
from .lattice import FrozenValue
from .polytope import LabeledFacet, LabeledPolytope

__all__ = [
    "SampleReport",
    "WeightVector",
    "convexity_sample_check",
    "moment_eval",
    "reeb_orbit_order",
    "weighted_simplex",
]


class WeightVector(FrozenValue):
    """Positive integer weights; normalized presentations have gcd 1."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(int(x) for x in entries)
        if len(entries) < 2:
            raise ValueError("need at least two weights")
        if any(a <= 0 for a in entries):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "entries", entries)

    @property
    def content(self) -> int:
        return gcd(*self.entries)

    def __len__(self):
        return len(self.entries)


def _as_weights(a) -> WeightVector:
    return a if isinstance(a, WeightVector) else WeightVector(tuple(a))


def weighted_simplex(a) -> ToricContactDatum:
    """Datum of the weighted sphere: facets r_i >= 0, label gcd of the
    complementary weights, characteristic vector a."""
    w = _as_weights(a)
    if w.content != 1:
        raise ValueError(f"weights have gcd {w.content}; normalize first")
    n1 = len(w)
    facets = []
    for i in range(n1):
        others = [w.entries[j] for j in range(n1) if j != i]
        facets.append(
            LabeledFacet(tuple(-int(i == j) for j in range(n1)), gcd(*others))
        )
    return validate_datum(LabeledPolytope(n1, tuple(facets)), w.entries)


def moment_eval(a, z) -> list[float]:
    """Moment map at z = (x_0, y_0, ..., x_n, y_n), in floating point.

    mu_i = (x_i^2 + y_i^2) / sum_j a_j (x_j^2 + y_j^2); the weighted sum
    of the components is 1 by construction, and the value only depends on
    the ray through z.
    """
    w = _as_weights(a)
    if len(z) != 2 * len(w):
        raise ValueError("point has wrong dimension")
    sq = [float(z[2 * i]) ** 2 + float(z[2 * i + 1]) ** 2 for i in range(len(w))]
    denom = sum(ai * si for ai, si in zip(w.entries, sq))
    if denom == 0.0:
        raise ValueError("moment map undefined at the origin")
    return [si / denom for si in sq]


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


def convexity_sample_check(a, count: int, seed: int, tol: float = 1e-9) -> SampleReport:
    """Sample the moment image and check it against the weighted simplex.

    Draws ``count`` standard Gaussian points (deterministic in ``seed``;
    the map is scale invariant so no normalization is needed) and verifies
    every moment value satisfies each facet inequality up to ``tol`` and
    the hyperplane equation within ``tol``.
    """
    import numpy as np  # only sampling needs it; keeps CLI start-up light

    w = _as_weights(a)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not 0 <= tol < inf:  # also refuses NaN, which every comparison fails
        raise ValueError(f"tol must be a finite nonnegative number, got {tol!r}")
    datum = weighted_simplex(w)
    labels = np.array([f.label for f in datum.facets], dtype=float)
    weights = np.array(w.entries, dtype=float)
    rng = np.random.default_rng(seed)
    failures = []
    max_facet = 0.0
    max_plane = 0.0
    done = 0
    while done < count:
        batch = min(count - done, 4096)
        z = rng.standard_normal((batch, 2 * len(w)))
        sq = z[:, 0::2] ** 2 + z[:, 1::2] ** 2
        mu = sq / (sq @ weights)[:, None]
        # facet inequality <mu, m_i * (-e_i)> <= 0, violation = m_i * (-mu_i)
        facet_violation = (-mu * labels[None, :]).max(axis=1)
        plane_dev = np.abs(mu @ weights - 1.0)
        max_facet = max(max_facet, float(facet_violation.max(initial=0.0)))
        max_plane = max(max_plane, float(plane_dev.max(initial=0.0)))
        bad = np.nonzero((facet_violation > tol) | (plane_dev > tol))[0]
        for idx in bad:
            failures.append(
                (done + int(idx), float(facet_violation[idx]), float(plane_dev[idx]))
            )
        done += batch
    return SampleReport(
        samples=count,
        tol=tol,
        max_facet_violation=max_facet,
        max_hyperplane_deviation=max_plane,
        failures=tuple(failures),
    )


def reeb_orbit_order(a, support) -> int:
    """Holonomy order at points whose coordinate support is ``support``.

    The orbit through such a point closes when t * a_j hits a full turn for
    every j in the support, so the generic period divided by the orbit's
    period is gcd of the supported weights (weights normalized to gcd 1).
    """
    w = _as_weights(a)
    support = sorted(set(support))
    if not support:
        raise ValueError("support must be nonempty")
    if support[0] < 0 or support[-1] >= len(w):
        raise ValueError("support index out of range")
    return gcd(*(w.entries[j] for j in support))
