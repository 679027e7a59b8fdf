"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Every comparison involving classifying data is exact (rational
arithmetic, zero tolerance); the only floating-point checks are the
sampling criteria with their stated tolerances.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import gcd

from toricontact.classify import classify, perturb_reeb, validate_datum
from toricontact.lattice import (
    hnf,
    kernel_lattice_basis,
    matmul,
    snf,
    transpose,
)
from toricontact.polytope import LabeledFacet, LabeledPolytope
from toricontact.reduction import (
    SpherePresentation,
    reduced_polytope,
    synthesize,
    verify_presentation,
)
from toricontact.spheres import convexity_sample_check, weighted_simplex

from oracles import cofactor_det, moment_eval, reeb_orbit_order

F = Fraction


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} [{name}]: FAIL")
        raise
    print(f"acceptance {number} [{name}]: PASS")


def standard_simplex_datum(n):
    dim = n + 1
    facets = tuple(
        LabeledFacet(tuple(-int(i == j) for j in range(dim)), 1) for i in range(dim)
    )
    return validate_datum(LabeledPolytope(dim, facets), tuple([1] * dim))


def weight_vectors(max_entry, max_n):
    for n in range(1, max_n + 1):
        for entries in product(range(1, max_entry + 1), repeat=n + 1):
            if gcd(*entries) == 1:
                yield entries


def cube_datum():
    facets = (
        LabeledFacet((-1, 0, 0, 0), 2),
        LabeledFacet((0, -1, 0, 0), 1),
        LabeledFacet((0, 0, -1, 0), 1),
        LabeledFacet((1, 0, 0, -1), 1),
        LabeledFacet((0, 1, 0, -1), 1),
        LabeledFacet((0, 0, 1, -1), 1),
    )
    return validate_datum(LabeledPolytope(4, facets), (0, 0, 0, 1))


def mutation_corpus():
    data = [standard_simplex_datum(n) for n in (1, 2, 3)]
    data += [weighted_simplex(w) for w in [(1, 2), (1, 1, 2), (1, 2, 3), (2, 3, 5)]]
    data.append(cube_datum())
    return data


def test_criterion_1_round_trip_reduction():
    with criterion(1, "round-trip reduction, zero tolerance"):
        start = time.perf_counter()
        count = 0
        for n in (1, 2, 3, 4):
            data = [standard_simplex_datum(n)]
            if n <= 3:
                data += [
                    weighted_simplex(w)
                    for w in weight_vectors(4, 3)
                    if len(w) == n + 1
                ]
            for d in data:
                poly, reeb = reduced_polytope(synthesize(d))
                assert poly == d.polytope
                assert reeb == d.reeb
                count += 1
        elapsed = time.perf_counter() - start
        assert count > 300
        assert elapsed < 5.0, f"round-trip corpus took {elapsed:.2f}s"


def test_criterion_2_base_case_sphere():
    with criterion(2, "n=2 standard simplex is S^5 itself"):
        pres = synthesize(standard_simplex_datum(2))
        assert pres.N == 3
        assert pres.weights == ()
        assert pres.deformation == (1, 1, 1)


def test_criterion_3_holonomy_matches_orbit_oracle():
    with criterion(3, "holonomy order equals Reeb orbit order, all faces"):
        start = time.perf_counter()
        faces_checked = 0
        for w in weight_vectors(6, 3):
            report = classify(weighted_simplex(w))
            for fi in report.per_face:
                if not fi.face:
                    assert fi.holonomy.is_trivial
                    continue
                support = [j for j in range(len(w)) if j not in fi.face]
                assert fi.holonomy.order() == reeb_orbit_order(w, support), (
                    w,
                    sorted(fi.face),
                )
                faces_checked += 1
        elapsed = time.perf_counter() - start
        assert faces_checked > 5000
        assert elapsed < 10.0, f"holonomy corpus took {elapsed:.2f}s"


def test_criterion_4_named_examples():
    with criterion(4, "weighted segment (1,2) and round spheres"):
        d = weighted_simplex((1, 2))
        assert [f.label for f in d.facets] == [2, 1]
        assert [v.coords for v in d.vertices] == [(0, F(1, 2)), (1, 0)]
        report = classify(d)
        assert report.regularity == "quasi-regular"
        nontrivial = report.nontrivial_faces
        assert len(nontrivial) == 1
        assert nontrivial[0].holonomy.invariant_factors == (2,)
        assert nontrivial[0].holonomy.order() == 2
        for n in (1, 2, 3):
            round_report = classify(weighted_simplex(tuple([1] * (n + 1))))
            assert round_report.regularity == "regular"
            assert all(f.holonomy.is_trivial for f in round_report.per_face)


def test_criterion_5_convexity_sampling():
    with criterion(5, "10^4 Gaussian samples inside the weighted simplex"):
        start = time.perf_counter()
        report = convexity_sample_check((1, 2, 3), 10_000, seed=1999, tol=1e-9)
        assert report.ok
        assert report.max_facet_violation <= 1e-9
        assert report.max_hyperplane_deviation <= 1e-9
        datum = weighted_simplex((1, 2, 3))
        vertex_floats = sorted(tuple(float(x) for x in v.coords) for v in datum.vertices)
        for i, a_i in enumerate((1, 2, 3)):
            z = [0.0] * 6
            z[2 * i] = 1.0
            mu = moment_eval((1, 2, 3), z)
            target = min(
                vertex_floats,
                key=lambda v: max(abs(p - q) for p, q in zip(v, mu)),
            )
            assert max(abs(p - q) for p, q in zip(target, mu)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"sampling took {elapsed:.2f}s"


def test_criterion_6_lattice_property_suite():
    with criterion(6, "1000 random 5x5 matrices: HNF/SNF/kernel properties"):
        start = time.perf_counter()
        rng = random.Random(65537)
        for _ in range(1000):
            m = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(5)]
            h, u = hnf(m)
            assert matmul(m, u) == h
            assert abs(cofactor_det(u)) == 1
            s, su, sv = snf(m)
            assert matmul(matmul(su, m), sv) == s
            assert abs(cofactor_det(su)) == 1
            assert abs(cofactor_det(sv)) == 1
            diag = [s[i][i] for i in range(5)]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a else b == 0
            for rows in (m, m[:3]):
                basis = kernel_lattice_basis(rows)
                if not basis:
                    continue
                assert all(
                    not any(matmul(rows, transpose(basis))[i])
                    for i in range(len(rows))
                )
                ks, _, _ = snf(basis)
                assert all(
                    ks[i][i] == 1 for i in range(min(len(basis), len(basis[0])))
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"lattice suite took {elapsed:.2f}s"


def test_criterion_7_reeb_perturbation():
    with criterion(7, "positive orthant resliced by (1,1,2) and back"):
        std = standard_simplex_datum(2)
        perturbed = perturb_reeb(std, (1, 1, 2))
        reference = weighted_simplex((1, 1, 2))
        assert perturbed.polytope == reference.polytope
        assert perturbed.reeb == reference.reeb
        assert [v.coords for v in perturbed.vertices] == [
            v.coords for v in reference.vertices
        ]
        identity_slice = perturb_reeb(std, (1, 1, 1))
        assert [v.coords for v in identity_slice.vertices] == [
            v.coords for v in std.vertices
        ]
        back = perturb_reeb(perturbed, (1, 1, 1))
        assert [v.coords for v in back.vertices] == [v.coords for v in std.vertices]


def test_criterion_8_mutation_verification():
    with criterion(8, "any single-entry mutation of W or a fails verification"):
        for d in mutation_corpus():
            pres = synthesize(d)
            assert verify_presentation(pres, d).ok
            for i in range(len(pres.weights)):
                for j in range(pres.N):
                    rows = [list(r) for r in pres.weights]
                    rows[i][j] += 1
                    bad = SpherePresentation(
                        pres.N, pres.beta, tuple(map(tuple, rows)), pres.deformation
                    )
                    assert not verify_presentation(bad, d).ok, (d.reeb, "W", i, j)
            for j in range(pres.N):
                a = list(pres.deformation)
                a[j] += 1
                bad = SpherePresentation(pres.N, pres.beta, pres.weights, tuple(a))
                assert not verify_presentation(bad, d).ok, (d.reeb, "a", j)


def test_criterion_9_cube_fixture():
    with criterion(9, "labeled cube: 2x6 saturated kernel and round trip"):
        d = cube_datum()
        pres = synthesize(d)
        assert pres.N == 6
        assert len(pres.weights) == 2 and all(len(r) == 6 for r in pres.weights)
        w = [list(r) for r in pres.weights]
        ws, _, _ = snf(w)
        assert ws[0][0] == 1 and ws[1][1] == 1
        beta = [list(r) for r in pres.beta]
        assert all(not any(row) for row in matmul(beta, transpose(w)))
        report = verify_presentation(pres, d)
        assert report.ok
        assert report.polytope_match
        assert all(order is not None for _, order in report.local_freeness)
        poly, reeb = reduced_polytope(pres)
        assert reeb == (0, 0, 0, 1)
        assert [v.coords for v in validate_datum(poly, reeb).vertices] == [
            v.coords for v in d.vertices
        ]
