"""JSON documents for data, presentations, cones, and reports.

Rationals travel as strings "p/q" (or "p") so every value round-trips
bit-exactly; integers are accepted wherever a rational is expected and
non-reduced fractions are normalized on parse.  Field names follow the
document formats described in the README.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .classify import ClassificationReport, ToricContactDatum, validate_datum
from .polytope import LabeledFacet, LabeledPolytope, MomentCone
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
    "serialize_datum",
    "serialize_presentation",
    "verification_to_document",
]


def _fraction_from(value, what: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"{what} must be an integer or a rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
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
            {
                "normal": list(f.normal),
                "label": f.label,
                "offset": str(f.offset),
            }
            for f in datum.polytope.facets
        ],
        "reeb": [str(x) for x in datum.reeb],
        "mode": datum.mode,
    }
    if emit_vertices:
        doc["vertices"] = [
            [str(x) for x in v.coords] for v in datum.vertices
        ]
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


def serialize_datum(datum: ToricContactDatum, emit_vertices: bool = False) -> str:
    return json.dumps(datum_to_document(datum, emit_vertices), indent=2)


def presentation_to_document(pres: SpherePresentation) -> dict:
    return {
        "N": pres.N,
        "beta": [list(row) for row in pres.beta],
        "weights": [list(row) for row in pres.weights],
        "deformation": [str(x) for x in pres.deformation],
    }


def presentation_from_document(doc) -> SpherePresentation:
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


def serialize_presentation(pres: SpherePresentation) -> str:
    return json.dumps(presentation_to_document(pres), indent=2)


def cone_to_document(cone: MomentCone) -> dict:
    return {
        "ambient_dim": cone.ambient_dim,
        "normals": [
            {"normal": list(q), "label": label} for q, label in cone.normals
        ],
    }


def _group_to_document(group) -> dict:
    return {
        "invariant_factors": list(group.invariant_factors),
        "free_rank": group.free_rank,
        "order": group.order(),
        "name": str(group),
    }


def classification_to_document(report: ClassificationReport) -> dict:
    return {
        "regularity": report.regularity,
        "per_face": [
            {
                "face": sorted(f.face),
                "isotropy_basis": [list(p) for p in f.isotropy_basis],
                "holonomy": _group_to_document(f.holonomy),
                "sample_point": [str(x) for x in f.sample_point],
            }
            for f in report.per_face
        ],
    }


def verification_to_document(report: VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "polytope_match": report.polytope_match,
        "vertex_diff": [
            {"kind": kind, "vertex": [str(x) for x in coords]}
            for kind, coords in report.vertex_diff
        ],
        "local_freeness": [
            {
                "vertex": [str(x) for x in coords],
                "stabilizer_order": order,
            }
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
