"""Exact-arithmetic toolkit for toric contact manifolds of Reeb type.

A compact toric contact manifold whose Reeb field comes from the torus is
classified by a labeled rational polytope sitting in the characteristic
hyperplane of its moment map.  This package represents that data exactly,
computes the combinatorial invariants attached to it (isotropy algebras,
leaf holonomy, regular versus quasi-regular), and synthesizes and verifies
the presentation of the manifold as a contact reduction of an odd sphere.
"""

from .classify import (
    ClassificationReport,
    FaceInvariants,
    ToricContactDatum,
    classify,
    holonomy,
    perturb_reeb,
    validate_datum,
)
from .lattice import (
    FiniteAbelianGroup,
    hnf,
    kernel_lattice_basis,
    primitive,
    quotient_group,
    saturate,
    snf,
)
from .polytope import (
    LabeledFacet,
    LabeledPolytope,
    MomentCone,
    Vertex,
    cone_over,
    slice_cone,
    vertices,
)

# ``reduction`` and ``spheres`` load on first use (PEP 562), so that a CLI
# process whose command needs neither does not compile them.  The three
# imports above stay eager: every command validates a datum, and importing
# ``.classify`` first keeps the function ``classify`` bound over the
# submodule of the same name.
_LAZY = dict.fromkeys(
    (
        "reduction",
        "SpherePresentation",
        "VerificationReport",
        "build_beta",
        "deformation_vector",
        "kernel_torus_weights",
        "reduced_polytope",
        "synthesize",
        "verify_presentation",
    ),
    "reduction",
) | dict.fromkeys(
    (
        "spheres",
        "SampleReport",
        "convexity_sample_check",
        "weighted_simplex",
    ),
    "spheres",
)


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
