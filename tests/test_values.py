"""Value semantics of the package's immutable types: equality and hashing
by fields, no assignment or deletion, defaults and normalisations."""

import inspect
import re
from fractions import Fraction

import pytest

from toricontact.classify import (
    ClassificationReport,
    FaceInvariants,
    ToricContactDatum,
    classify,
)
from toricontact.lattice import FiniteAbelianGroup
from toricontact.polytope import LabeledFacet, LabeledPolytope, MomentCone, Vertex
from toricontact.reduction import SpherePresentation, VerificationReport
from toricontact.spheres import SampleReport, weighted_simplex

F = Fraction


def _ints(rows):
    return type(rows) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in rows
    )


# Per type: a factory that builds the value from fresh objects, so that two
# calls give equal but distinct values, and what it states about the result.
VALUES = {
    FiniteAbelianGroup: (
        lambda: FiniteAbelianGroup(),
        lambda g: g.is_trivial and g.invariant_factors == () and g.free_rank == 0,
    ),
    LabeledFacet: (
        lambda: LabeledFacet([F(-1), F(0)]),
        lambda f: _ints((f.normal,)) and f.normal == (-1, 0) and f.label == 1
        and type(f.offset) is Fraction and f.offset == 0,
    ),
    LabeledPolytope: (
        lambda: LabeledPolytope(2, [LabeledFacet((-1, 0)), LabeledFacet((0, -1))]),
        lambda p: type(p.facets) is tuple and p.dim == 1,
    ),
    Vertex: (
        lambda: Vertex((2, 1), 4, frozenset({0})),
        lambda v: v.coords == (F(1, 2), F(1, 4)),
    ),
    MomentCone: (
        lambda: MomentCone(2, (((1, 0), 1), ((0, 1), 2))),
        lambda c: c.normals[1] == ((0, 1), 2),
    ),
    ToricContactDatum: (
        lambda: weighted_simplex((1, 2)),
        lambda d: d.mode == "rational" and d.reeb == (1, 2),
    ),
    FaceInvariants: (
        lambda: FaceInvariants(frozenset({1}), ((0, -1),), FiniteAbelianGroup((2,)), (1,), 1),
        lambda f: f.holonomy.order() == 2 and f.sample_point == (1,),
    ),
    ClassificationReport: (
        lambda: classify(weighted_simplex((1, 2))),
        lambda r: r.regularity == "quasi-regular" and len(r.nontrivial_faces) == 1,
    ),
    SpherePresentation: (
        lambda: SpherePresentation(3, [[F(1), 0, 1], [0, 1, 1]], [[1, 1, -1]], [1, "1/2", 2]),
        lambda p: _ints(p.beta) and _ints(p.weights) and p.beta == ((1, 0, 1), (0, 1, 1))
        and p.deformation == (1, F(1, 2), 2)
        and all(type(x) is Fraction for x in p.deformation)
        and p.reeb_image is p.reeb_image == (3, F(5, 2)),
    ),
    VerificationReport: (
        lambda: VerificationReport(True, (), ((Vertex((1, 0), 1, frozenset({1})), 1),)),
        lambda r: r.problems == () and r.ok and r.smooth,
    ),
    SampleReport: (
        lambda: SampleReport(10, 1e-9, 0.0, 1e-16),
        lambda r: r.failures == () and r.ok,
    ),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    make, states = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    # the check runs first, so a cache it fills (reeb_image) must not count
    assert states(a)
    assert a == b and hash(a) == hash(b)
    fields = list(inspect.signature(cls).parameters)
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}({fields[0]}=")
    assert a != tuple(getattr(a, name) for name in fields)
    for other, (make_other, _) in VALUES.items():
        if other is not cls:
            assert a != make_other()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


# a non-integral Fraction, a float (integral or not) and a bool are refused,
# not truncated by int(); an integral Fraction still becomes its numerator
NOT_INTEGERS = [F(5, 2), 2.7, 2.0, True]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_labeled_facet_refuses_a_non_integer_normal_entry(bad):
    message = f"^normal entries must be integers, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        LabeledFacet((bad, 1))


@pytest.mark.parametrize("field", ["beta", "weights"])
@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_sphere_presentation_refuses_a_non_integer_entry(field, bad):
    rows = {"beta": [[1, 0, 1], [0, 1, 1]], "weights": [[1, 1, -1]]}
    rows[field][0][1] = bad
    message = f"^{field} entries must be integers, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        SpherePresentation(3, rows["beta"], rows["weights"], [1, 1, 1])
