"""Command line driver.

Commands read a datum document from stdin (except ``sphere`` and
``sample``, which generate their own data) and write to stdout, so they
compose in pipelines:

    toricontact sphere --weights 1,2 | toricontact classify

Exit codes: 0 success / property holds, 1 mathematical failure
(verification mismatch, sampling violations), 2 input error, 141
(128 + SIGPIPE, nothing on stderr) when the reader closes stdout early,
as ``| head`` does.

Each command is one short process, so a process loads only the code its
command runs: ``reduction`` and ``spheres`` are imported inside the
commands that call them, and argv is parsed from the ``COMMANDS`` table.
The package needs nothing beyond the standard library: ``sample`` draws
its points from ``random``.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import documents
from .classify import classify, perturb_reeb
from .polytope import cone_over


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
    for f in doc["per_face"]:
        face = f"facets {f['face']}" if f["face"] else "interior"
        lines.append(
            f"  face ({face}): holonomy {f['holonomy']['name']}, sample point "
            f"({', '.join(f['sample_point'])})"
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
    from .reduction import synthesize

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
    from .reduction import verify_presentation

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
    from .spheres import weighted_simplex

    return _emit_datum(args, weighted_simplex(args.weights))


def _cmd_sample(args) -> int:
    from .spheres import convexity_sample_check

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


# A flag maps to (converter, default, required).  The converter is a
# callable that raises ValueError on a bad value, a tuple of the values
# allowed, or None for a switch, which takes no value and sets True.
_OUTPUT = {"--output": (("json", "text"), None, False)}
_MODE = {"--mode": (("rational", "irrational"), None, False)}
_VERTICES = {"--emit-vertices": (None, False, False)}
_WEIGHTS = {"--weights": (_int_vector, None, True)}

# command -> (handler, one-line help, flags)
COMMANDS = {
    "validate": (
        _cmd_validate, "parse, validate and echo a datum", {**_OUTPUT, **_MODE, **_VERTICES}
    ),
    "classify": (_cmd_classify, "regularity and per-face invariants", {**_OUTPUT, **_MODE}),
    "cone": (_cmd_cone, "moment cone of a datum", {**_OUTPUT, **_MODE}),
    "slice": (
        _cmd_slice,
        "reslice the moment cone with a new Reeb vector",
        {"--reeb": (_int_vector, None, True), **_OUTPUT, **_MODE, **_VERTICES},
    ),
    "reduce": (_cmd_reduce, "synthesize the sphere presentation", {**_OUTPUT, **_MODE}),
    "verify": (
        _cmd_verify,
        "verify a presentation against a datum",
        {"--presentation": (str, None, True), **_OUTPUT, **_MODE},
    ),
    "sphere": (
        _cmd_sphere, "weighted sphere datum from weights", {**_WEIGHTS, **_OUTPUT, **_VERTICES}
    ),
    "sample": (
        _cmd_sample,
        "Gaussian sampling check of the moment image",
        {
            **_WEIGHTS,
            "--count": (int, 10000, False),
            "--seed": (int, 0, False),
            "--tol": (float, 1e-9, False),
            **_OUTPUT,
        },
    ),
}

_NOTES = """\
Commands other than sphere and sample read a datum document on stdin.
--output defaults to text on a terminal and json when piped; --mode
overrides the document's parsing mode.  Flags take --flag VALUE or
--flag=VALUE and are not abbreviated; toricontact COMMAND --help lists
a command's flags."""


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: toricontact COMMAND [FLAGS]"
    words = ["usage: toricontact", command]
    for flag, (convert, _, required) in COMMANDS[command][2].items():
        if isinstance(convert, tuple):
            flag += " " + "|".join(convert)
        elif convert is not None:
            flag += " " + flag[2:].upper()
        words.append(flag if required else f"[{flag}]")
    return " ".join(words)


def _help(command: str | None):
    if command is None:
        lines = [_usage(None), "", "Toric contact data: validation, invariants, sphere reductions.",
                 "", "commands:", *(f"  {name:<9} {entry[1]}" for name, entry in COMMANDS.items())]
    else:
        lines = [_usage(command), "", COMMANDS[command][1]]
    print("\n".join([*lines, "", _NOTES]))
    sys.stdout.flush()
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    print(_usage(command), file=sys.stderr)
    print(f"toricontact: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv: list[str]):
    """(handler, args) for one command line.  ``--help`` raises
    SystemExit(0) after printing usage, a usage error SystemExit(2)."""
    if not argv:
        _fail(None, "missing command")
    command, *rest = argv
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        _fail(None, f"unknown command {command!r} (choose from {', '.join(COMMANDS)})")
    handler, _, flags = COMMANDS[command]
    values = {flag: default for flag, (_, default, _) in flags.items()}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        flag, eq, value = token.partition("=")
        if flag not in flags:
            if not flag.startswith("-"):
                _fail(command, f"unexpected argument {token!r}")
            _fail(command, f"unknown flag {flag}")
        convert = flags[flag][0]
        if convert is None:
            if eq:
                _fail(command, f"{flag} takes no value")
            values[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                _fail(command, f"{flag} needs a value")
        if isinstance(convert, tuple):
            if value not in convert:
                _fail(command, f"{flag} must be one of {', '.join(convert)}, got {value!r}")
            values[flag] = value
        else:
            try:
                values[flag] = convert(value)
            except ValueError as exc:
                _fail(command, f"{flag}: {exc}")
    for flag, (_, _, required) in flags.items():
        if required and values[flag] is None:
            _fail(command, f"missing required flag {flag}")
    args = SimpleNamespace(**{flag[2:].replace("-", "_"): v for flag, v in values.items()})
    return handler, args


def main(argv=None) -> int:
    try:
        handler, args = _parse_args(sys.argv[1:] if argv is None else argv)
        code = handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone, as in ``... | head``: exit as a SIGPIPE death
        # does, and give the interpreter's last flush somewhere to write
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
