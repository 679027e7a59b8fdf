"""JSON documents for data, presentations, cones, and reports.

Rationals travel as strings "p/q" (or "p", and no other string form) so
every value round-trips bit-exactly; integers are accepted wherever a
rational is expected and non-reduced fractions are normalized on parse.
A classification's sample points are written from the faces' integer
sums, each coordinate with one gcd and no Fraction, as the same text
``str(Fraction)`` gives.  Field names follow the document formats
described in the README.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .classify import validate_datum
from .polytope import LabeledFacet, LabeledPolytope

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation names only, so that no command loads a module it does not run
    from .classify import ClassificationReport, ToricContactDatum
    from .polytope import MomentCone
    from .reduction import SpherePresentation, VerificationReport
    from .spheres import SampleReport

__all__ = [
    "classification_to_document",
    "cone_to_document",
    "datum_from_document",
    "datum_to_document",
    "parse_datum",
    "parse_presentation",
    "presentation_from_document",
    "presentation_to_document",
    "sample_report_to_document",
    "verification_to_document",
]


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _fraction_from(value, what: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"{what} must be an integer or a rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction(str) also reads decimals, exponents, "_" and spaces, and
        # "1e3000000" alone makes it build a 3-million-digit integer
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"bad rational {value!r} for {what}: not of the form p/q or p")
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational {value!r} for {what}: {exc}") from None
    raise ValueError(f"{what} must be an integer or a rational string, got {value!r}")


def _int_from(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{what} must be a nonempty list of integers")
    return [_int_from(x, what) for x in value]


def datum_to_document(datum: ToricContactDatum, emit_vertices: bool = False) -> dict:
    doc = {
        "ambient_dim": datum.polytope.ambient_dim,
        "facets": [
            {"normal": list(f.normal), "label": f.label, "offset": str(f.offset)}
            for f in datum.polytope.facets
        ],
        "reeb": [str(x) for x in datum.reeb],
        "mode": datum.mode,
    }
    if emit_vertices:
        doc["vertices"] = [[str(x) for x in v.coords] for v in datum.vertices]
    return doc


def datum_from_document(doc, mode: str | None = None) -> ToricContactDatum:
    if not isinstance(doc, dict):
        raise ValueError("datum document must be a JSON object")
    for key in ("ambient_dim", "facets", "reeb"):
        if key not in doc:
            raise ValueError(f"datum document is missing {key!r}")
    ambient = _int_from(doc["ambient_dim"], "ambient_dim")
    facets = []
    for k, fdoc in enumerate(_list(doc["facets"], "facets")):
        if not isinstance(fdoc, dict) or "normal" not in fdoc:
            raise ValueError(f"facet {k} must be an object with a normal")
        normal = _int_list(fdoc["normal"], f"facet {k} normal")
        label = _int_from(fdoc.get("label", 1), f"facet {k} label")
        offset = _fraction_from(fdoc.get("offset", 0), f"facet {k} offset")
        try:
            facets.append(LabeledFacet(tuple(normal), label, offset))
        except ValueError as exc:
            raise ValueError(f"facet {k} {exc}") from None
    reeb = [
        _fraction_from(x, f"reeb component {i}")
        for i, x in enumerate(_list(doc["reeb"], "reeb"))
    ]
    requested = mode if mode is not None else doc.get("mode", "rational")
    return validate_datum(LabeledPolytope(ambient, tuple(facets)), reeb, requested)


def parse_datum(text: str, mode: str | None = None) -> ToricContactDatum:
    return datum_from_document(_loads(text), mode)


def presentation_to_document(pres: SpherePresentation) -> dict:
    return {
        "N": pres.N,
        "beta": [list(row) for row in pres.beta],
        "weights": [list(row) for row in pres.weights],
        "deformation": [str(x) for x in pres.deformation],
    }


def presentation_from_document(doc) -> SpherePresentation:
    from .reduction import SpherePresentation

    if not isinstance(doc, dict):
        raise ValueError("presentation document must be a JSON object")
    for key in ("N", "beta", "weights", "deformation"):
        if key not in doc:
            raise ValueError(f"presentation document is missing {key!r}")
    n_cols = _int_from(doc["N"], "N")
    beta = [_int_list(row, "beta row") for row in _list(doc["beta"], "beta")]
    weights = [_int_list(row, "weights row") for row in _list(doc["weights"], "weights")]
    deformation = [
        _fraction_from(x, f"deformation component {i}")
        for i, x in enumerate(_list(doc["deformation"], "deformation"))
    ]
    return SpherePresentation(n_cols, beta, weights, deformation)


def parse_presentation(text: str) -> SpherePresentation:
    return presentation_from_document(_loads(text))


def cone_to_document(cone: MomentCone) -> dict:
    return {
        "ambient_dim": cone.ambient_dim,
        "normals": [{"normal": list(q), "label": label} for q, label in cone.normals],
    }


def _rationals_text(nums, den: int) -> list[str]:
    """``[str(Fraction(x, den)) for x in nums]`` for den > 0, each entry
    from one gcd and no Fraction: "p" or "p/q" in lowest terms."""
    text = []
    for x in nums:
        g = gcd(x, den)
        text.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return text


def classification_to_document(report: ClassificationReport) -> dict:
    """The report as a document.  Each sample point is written from its
    integer sums with :func:`_rationals_text`, and each holonomy group's
    order and name are computed once per group object, which ``classify``
    shares among faces with the same group."""
    named = {}  # id(group) -> (order, name); the report keeps each group alive
    per_face = []
    for f in report.per_face:
        group = f.holonomy
        key = id(group)
        if key not in named:
            named[key] = (group.order(), str(group))
        order, name = named[key]
        per_face.append(
            {
                "face": sorted(f.face),
                "isotropy_basis": [list(p) for p in f.isotropy_basis],
                "holonomy": {
                    "invariant_factors": list(group.invariant_factors),
                    "free_rank": group.free_rank,
                    "order": order,
                    "name": name,
                },
                "sample_point": _rationals_text(f.point_sums, f.point_den),
            }
        )
    return {"regularity": report.regularity, "per_face": per_face}


def verification_to_document(report: VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "polytope_match": report.polytope_match,
        "vertex_diff": [
            {"kind": kind, "vertex": [str(x) for x in coords]}
            for kind, coords in report.vertex_diff
        ],
        "local_freeness": [
            {"vertex": [str(x) for x in coords], "stabilizer_order": order}
            for coords, order in report.local_freeness
        ],
        "smooth": report.smooth,
        "problems": list(report.problems),
    }


def sample_report_to_document(report: SampleReport) -> dict:
    return {
        "ok": report.ok,
        "samples": report.samples,
        "tol": report.tol,
        "max_facet_violation": report.max_facet_violation,
        "max_hyperplane_deviation": report.max_hyperplane_deviation,
        "failures": [
            {"sample": idx, "facet_violation": fv, "hyperplane_deviation": hv}
            for idx, fv, hv in report.failures
        ],
    }


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
