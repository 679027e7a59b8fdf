"""Command line driver.

Commands read a datum document from stdin (except ``sphere`` and
``sample``, which generate their own data) and write to stdout, so they
compose in pipelines:

    toricontact sphere --weights 1,2 | toricontact classify

Exit codes: 0 success / property holds, 1 mathematical failure
(verification mismatch, sampling violations), 2 input error.
"""

from __future__ import annotations

import argparse
import sys

from . import documents
from .classify import classify, perturb_reeb
from .polytope import cone_over
from .reduction import synthesize, verify_presentation
from .spheres import convexity_sample_check, weighted_simplex


def _int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer vector, got {text!r}")


def _read_datum(args):
    return documents.parse_datum(sys.stdin.read(), getattr(args, "mode", None))


def _emit(args, doc: dict, text_lines) -> None:
    # default: text at an interactive terminal, the JSON document when piped,
    # so that command pipelines compose without flags
    mode = args.output or ("text" if sys.stdout.isatty() else "json")
    if mode == "json":
        import json

        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _emit_datum(args, datum) -> int:
    lines = [
        f"toric contact datum ({datum.mode} mode), ambient dimension "
        f"{datum.polytope.ambient_dim}, {len(datum.facets)} facets"
    ]
    for i, f in enumerate(datum.facets):
        lines.append(
            f"  facet {i}: normal ({', '.join(map(str, f.normal))}), "
            f"label {f.label}, offset {f.offset}"
        )
    lines.append(f"  reeb ({', '.join(str(x) for x in datum.reeb)})")
    if args.emit_vertices:
        for v in datum.vertices:
            lines.append(f"  vertex ({', '.join(str(x) for x in v.coords)})")
    _emit(args, documents.datum_to_document(datum, args.emit_vertices), lines)
    return 0


def _cmd_validate(args) -> int:
    return _emit_datum(args, _read_datum(args))


def _cmd_classify(args) -> int:
    report = classify(_read_datum(args))
    doc = documents.classification_to_document(report)
    lines = [f"regularity: {report.regularity}"]
    for f in report.per_face:
        face = "interior" if not f.face else f"facets {sorted(f.face)}"
        lines.append(
            f"  face ({face}): holonomy {f.holonomy}, sample point "
            f"({', '.join(str(x) for x in f.sample_point)})"
        )
    _emit(args, doc, lines)
    return 0


def _cmd_cone(args) -> int:
    datum = _read_datum(args)
    cone = cone_over(datum.polytope, datum.reeb)
    doc = documents.cone_to_document(cone)
    lines = [f"moment cone in dimension {cone.ambient_dim}"]
    for q, label in cone.normals:
        lines.append(f"  normal ({', '.join(map(str, q))}), label {label}")
    _emit(args, doc, lines)
    return 0


def _cmd_slice(args) -> int:
    return _emit_datum(args, perturb_reeb(_read_datum(args), args.reeb))


def _cmd_reduce(args) -> int:
    pres = synthesize(_read_datum(args))
    doc = documents.presentation_to_document(pres)
    lines = [f"sphere presentation: S^{2 * pres.N - 1}, reduction torus rank {len(pres.weights)}"]
    for row in pres.beta:
        lines.append(f"  beta row ({', '.join(map(str, row))})")
    for row in pres.weights:
        lines.append(f"  weight row ({', '.join(map(str, row))})")
    lines.append(f"  deformation ({', '.join(str(x) for x in pres.deformation)})")
    _emit(args, doc, lines)
    return 0


def _cmd_verify(args) -> int:
    datum = _read_datum(args)
    with open(args.presentation, "r", encoding="utf-8") as handle:
        pres = documents.parse_presentation(handle.read())
    report = verify_presentation(pres, datum)
    doc = documents.verification_to_document(report)
    lines = [
        f"verification: {'ok' if report.ok else 'FAILED'}",
        f"  polytope match: {report.polytope_match}",
        f"  smooth: {report.smooth}",
    ]
    for kind, coords in report.vertex_diff:
        lines.append(f"  {kind} vertex ({', '.join(str(x) for x in coords)})")
    for coords, order in report.local_freeness:
        shown = "infinite" if order is None else order
        lines.append(
            f"  vertex ({', '.join(str(x) for x in coords)}): stabilizer order {shown}"
        )
    for problem in report.problems:
        lines.append(f"  problem: {problem}")
    _emit(args, doc, lines)
    return 0 if report.ok else 1


def _cmd_sphere(args) -> int:
    return _emit_datum(args, weighted_simplex(args.weights))


def _cmd_sample(args) -> int:
    report = convexity_sample_check(args.weights, args.count, args.seed, args.tol)
    doc = documents.sample_report_to_document(report)
    lines = [
        f"sampled {report.samples} points, tolerance {report.tol}",
        f"  max facet violation: {report.max_facet_violation}",
        f"  max hyperplane deviation: {report.max_hyperplane_deviation}",
        f"  failures: {len(report.failures)}",
    ]
    _emit(args, doc, lines)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricontact",
        description="Toric contact data: validation, invariants, sphere reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stdin_datum=True, emits_datum=False):
        p.add_argument(
            "--output",
            choices=("json", "text"),
            default=None,
            help="default: text on a terminal, json when piped",
        )
        if stdin_datum:
            p.add_argument(
                "--mode",
                choices=("rational", "irrational"),
                default=None,
                help="override the document's parsing mode",
            )
        if emits_datum:
            p.add_argument("--emit-vertices", action="store_true")

    p = sub.add_parser("validate", help="parse, validate and echo a datum")
    common(p, emits_datum=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="regularity and per-face invariants")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cone", help="moment cone of a datum")
    common(p)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("slice", help="reslice the moment cone with a new Reeb vector")
    common(p, emits_datum=True)
    p.add_argument("--reeb", type=_int_vector, required=True)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("reduce", help="synthesize the sphere presentation")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="verify a presentation against a datum")
    common(p)
    p.add_argument("--presentation", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sphere", help="weighted sphere datum from weights")
    common(p, stdin_datum=False, emits_datum=True)
    p.add_argument("--weights", type=_int_vector, required=True)
    p.set_defaults(func=_cmd_sphere)

    p = sub.add_parser("sample", help="Gaussian sampling check of the moment image")
    common(p, stdin_datum=False)
    p.add_argument("--weights", type=_int_vector, required=True)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
