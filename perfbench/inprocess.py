"""The in-process pipeline and its correctness gate.

Per datum: parse (which validates), classify, synthesize, verify the real
presentation, verify one seeded single-entry mutation of it (a W entry
when the reduction torus is nontrivial, otherwise a deformation entry),
then write the classification and presentation documents.  Every call
goes through a module attribute, so a tracer's rebinding sees it.
"""

from __future__ import annotations

import gc
import importlib
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from toricontact import documents, reduction

from cpus import no_pick
from gen import Digest, Item, classification_content, cube_vertices, orbit_order, presentation_content

# the package namespace binds ``classify`` to the function, not the module
classify_mod = importlib.import_module("toricontact.classify")


STEPS = 6  # parse, classify, synthesize, verify, verify mutant, documents


@dataclass
class Outcome:
    item: Item
    steps: list  # seconds per step; zeros after a step that raised
    datum: object = None
    report: object = None
    pres: object = None
    verified: object = None
    mutant_verified: object = None
    classification_doc: dict = None
    presentation_doc: dict = None
    error: str = None


def mutate(pres, choice):
    """Add 1 to one entry of W, or of the deformation when W is empty."""
    a, b = choice
    if pres.weights:
        rows = [list(r) for r in pres.weights]
        rows[a % len(rows)][b % pres.N] += 1
        return reduction.SpherePresentation(pres.N, pres.beta, tuple(map(tuple, rows)), pres.deformation)
    deformation = list(pres.deformation)
    deformation[b % pres.N] += 1
    return reduction.SpherePresentation(pres.N, pres.beta, pres.weights, tuple(deformation))


def run_datum(item: Item, tracer=None, pick=no_pick) -> Outcome:
    """The pipeline on one datum; each step is timed on its own, after
    ``pick`` has chosen the CPU it runs on."""
    if tracer is not None:
        tracer.datum = item.name
    out = Outcome(item, [0.0] * STEPS)

    def timed(step, call, *args):
        pick()
        start = time.perf_counter()
        result = call(*args)
        out.steps[step] = time.perf_counter() - start
        return result

    def write_documents():
        return (
            documents.classification_to_document(out.report),
            documents.presentation_to_document(out.pres),
        )

    try:
        out.datum = timed(0, documents.parse_datum, item.text)
        out.report = timed(1, classify_mod.classify, out.datum)
        out.pres = timed(2, reduction.synthesize, out.datum)
        out.verified = timed(3, reduction.verify_presentation, out.pres, out.datum)
        mutant = mutate(out.pres, item.mutation)
        out.mutant_verified = timed(4, reduction.verify_presentation, mutant, out.datum)
        out.classification_doc, out.presentation_doc = timed(5, write_documents)
    except Exception as exc:  # counted as a failed operation by the gate
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def run_pass(items, tracer=None, pick=no_pick):
    """One timed pass; returns (wall seconds, outcomes)."""
    gc.collect()
    start = time.perf_counter()
    outcomes = [run_datum(item, tracer, pick) for item in items]
    return time.perf_counter() - start, outcomes


def _zero_offset_form(facets, reeb):
    """Facets (normal, label, 0) of the same cone: lambda*reeb - m*p = -g*q."""
    result = []
    for normal, label, offset in facets:
        w = [offset * r - label * p for r, p in zip(reeb, normal)]
        g = gcd(*(int(x) for x in w))
        result.append((tuple(-int(x) // g for x in w), g, Fraction(0)))
    return result


def problems(out: Outcome) -> list[str]:
    """Everything wrong with one datum's results, by independent checks."""
    if out.error:
        return [f"{out.item.name}: {out.error}"]
    item, found = out.item, []
    if not out.verified.ok:
        found.append("verification failed")
    if out.mutant_verified.ok:
        found.append("mutated presentation accepted")
    poly, reeb = reduction.reduced_polytope(out.pres)
    got = [(f.normal, f.label, f.offset) for f in poly.facets]
    if got != _zero_offset_form(item.facets, item.reeb) or tuple(reeb) != item.reeb:
        found.append("round trip differs from the datum")
    vertices = [v.coords for v in out.datum.vertices]
    faces = out.classification_doc["per_face"]
    if item.kind == "cube":
        n = item.param[0]
        if set(vertices) != cube_vertices(n) or len(vertices) != 2**n:
            found.append("cube vertices wrong")
        if len(faces) != 3**n:
            found.append("cube face count wrong")
    elif item.kind == "ngon":
        if len(vertices) != item.param[0]:
            found.append("polygon vertex count wrong")
    else:
        w = item.param
        if len(faces) != 2 ** len(w) - 1:
            found.append("sphere face count wrong")
        for face in faces:
            if face["holonomy"]["order"] != orbit_order(w, set(face["face"])):
                found.append(f"holonomy order wrong at face {face['face']}")
    return [f"{item.name}: {p}" for p in found]


def digest_add(digest: Digest, out: Outcome) -> None:
    if out.error:
        digest.add({"datum": out.item.name, "error": True})
        return
    digest.add(
        {
            "datum": out.item.name,
            "vertices": [[str(x) for x in v.coords] for v in out.datum.vertices],
            "classification": classification_content(out.classification_doc),
            "presentation": presentation_content(out.presentation_doc),
            "verified": out.verified.ok,
            "mutant_verified": out.mutant_verified.ok,
        }
    )
