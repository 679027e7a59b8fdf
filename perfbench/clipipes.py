"""The README's pipelines as separate ``python -m toricontact.cli`` processes.

Stages run one after another with captured stdio, so at most one child
runs at a time; a pipe ``a | b`` is ``a`` to completion, then ``b`` with
``a``'s stdout as its stdin.  Per weight vector w (one chain):

    sphere --weights w                 -> D
    classify < D
    reduce < D                         -> P
    verify --presentation P < D
    slice --reeb w < (round sphere of the same dimension)

and once per pass: ``sample``, an input that must exit 2 and a tampered
presentation that must exit 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cpus import no_pick
from gen import Digest, classification_content, datum_document, orbit_order, presentation_content
from gen import sphere_document, sphere_facets, unit

SAMPLE_COUNT = 10_000
CHILD = Path(__file__).resolve().parent / "cli_child.py"


@dataclass
class Op:
    name: str  # unique within a pass
    command: str
    argv: list
    stdin: object  # bytes, or the name of an earlier op whose stdout to pipe in
    presentation: str = None  # name of the op whose stdout is the --presentation file
    tamper: bool = False
    chain: int = -1


@dataclass
class Run:
    op: Op
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    start_ns: int
    end_ns: int


def plan(chains, sample_weights, seed) -> list[Op]:
    ops = []
    for c, w in enumerate(chains):
        wtext = ",".join(map(str, w))
        round_doc = datum_document(len(w), [(unit(i, len(w), -1), 1, 0) for i in range(len(w))], (1,) * len(w))
        d = f"sphere{c}"
        ops += [
            Op(d, "sphere", ["sphere", "--weights", wtext], b"", chain=c),
            Op(f"classify{c}", "classify", ["classify"], d, chain=c),
            Op(f"reduce{c}", "reduce", ["reduce"], d, chain=c),
            Op(f"verify{c}", "verify", ["verify"], d, presentation=f"reduce{c}", chain=c),
            Op(f"slice{c}", "slice", ["slice", "--reeb", wtext], json.dumps(round_doc).encode(), chain=c),
        ]
    wtext = ",".join(map(str, sample_weights))
    ops.append(
        Op("sample", "sample", ["sample", "--weights", wtext, "--count", str(SAMPLE_COUNT),
                                "--seed", str(seed), "--tol", "1e-9"], b"")
    )
    bad = sphere_document(chains[0])
    bad["facets"][0]["normal"] = [2 * x for x in bad["facets"][0]["normal"]]
    ops.append(Op("bad-input", "classify", ["classify"], json.dumps(bad).encode()))
    ops.append(Op("tampered", "verify", ["verify"], "sphere0", presentation="reduce0", tamper=True))
    return ops


def tamper(text: bytes) -> bytes:
    doc = json.loads(text)
    if doc["weights"]:
        doc["weights"][0][0] += 1
    else:
        doc["deformation"][0] = str(Fraction(doc["deformation"][0]) + 1)
    return json.dumps(doc).encode()


class Runner:
    def __init__(self, root: Path, scratch: Path, pick=no_pick):
        self.root = root
        self.scratch = scratch
        self.pick = pick  # chooses the CPU each child is started on
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def spawn(self, argv, stdin=b"", env=None):
        start = time.perf_counter_ns()
        proc = subprocess.run(argv, input=stdin, capture_output=True, cwd=self.root,
                              env=env or self.env, timeout=120)
        end = time.perf_counter_ns()
        return proc, start, end

    def run_op(self, op: Op, outputs: dict, traced: bool) -> Run:
        stdin = outputs[op.stdin] if isinstance(op.stdin, str) else op.stdin
        argv = list(op.argv)
        if op.presentation is not None:
            text = outputs[op.presentation]
            path = self.scratch / (op.name + ".json")
            path.write_bytes(tamper(text) if op.tamper else text)
            argv += ["--presentation", str(path)]
        env = None
        if traced:
            env = dict(self.env, PERFBENCH_SPANS=str(self.scratch / (op.name + ".spans.json")),
                       PERFBENCH_DATUM=op.name)
            argv = [sys.executable, str(CHILD)] + argv
        else:
            argv = [sys.executable, "-m", "toricontact.cli"] + argv
        self.pick()
        proc, start, end = self.spawn(argv, stdin, env)
        outputs[op.name] = proc.stdout
        return Run(op, proc.returncode, proc.stdout, proc.stderr, (end - start) / 1e9, start, end)

    def run_pass(self, ops, traced=False):
        """One timed pass; returns (wall seconds, runs)."""
        outputs = {}
        start = time.perf_counter()
        runs = [self.run_op(op, outputs, traced) for op in ops]
        return time.perf_counter() - start, runs


def _expected_text(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def problems(run: Run, chains, sample_weights) -> list[str]:
    op, found = run.op, []
    expected_code = 2 if op.name == "bad-input" else 1 if op.tamper else 0
    if run.code != expected_code:
        return [f"{op.name}: exit {run.code}, expected {expected_code}: {run.stderr.decode()[-300:]}"]
    if expected_code == 2:
        return [f"{op.name}: wrote to stdout"] if run.stdout else []
    w = chains[op.chain] if op.chain >= 0 else sample_weights
    if op.command == "sphere" and run.stdout != _expected_text(sphere_document(w)):
        found.append(f"{op.name}: datum document differs")
    if op.command == "slice":
        facets = [(unit(i, len(w), -1), 1, 0) for i in range(len(w))]
        if run.stdout != _expected_text(datum_document(len(w), facets, w)):
            found.append(f"{op.name}: resliced document differs")
    if op.command in ("sphere", "slice"):
        return found
    doc = json.loads(run.stdout)
    if op.command == "classify":
        faces = doc["per_face"]
        labels = [label for _, label, _ in sphere_facets(w)]
        orders = [orbit_order(w, set(f["face"])) for f in faces]
        if len(faces) != 2 ** len(w) - 1:
            found.append(f"{op.name}: face count wrong")
        if [f["holonomy"]["order"] for f in faces] != orders:
            found.append(f"{op.name}: holonomy order differs from the orbit oracle")
        regular = all(x == 1 for x in orders + labels)
        if doc["regularity"] != ("regular" if regular else "quasi-regular"):
            found.append(f"{op.name}: wrong regularity")
    elif op.command == "reduce":
        labels = [label for _, label, _ in sphere_facets(w)]
        n1 = len(w)
        beta = [[labels[i] * int(i == j) for j in range(n1)] for i in range(n1)]
        a = [str(Fraction(w[i], labels[i])) for i in range(n1)]
        if (doc["N"], doc["beta"], doc["weights"], doc["deformation"]) != (n1, beta, [], a):
            found.append(f"{op.name}: presentation differs")
    elif op.command == "verify":
        if doc["ok"] is op.tamper:
            found.append(f"{op.name}: verdict {doc['ok']}")
    elif op.command == "sample":
        if not doc["ok"] or doc["samples"] != SAMPLE_COUNT or doc["failures"]:
            found.append(f"{op.name}: sampling report wrong")
    return found


def digest_add(digest: Digest, run: Run) -> None:
    op = run.op
    content = None
    if run.code in (0, 1) and op.name != "bad-input":
        doc = json.loads(run.stdout)
        if op.command in ("sphere", "slice"):
            content = doc
        elif op.command == "classify":
            content = classification_content(doc)
        elif op.command == "reduce":
            content = presentation_content(doc)
        elif op.command == "verify":
            content = doc["ok"]
        else:
            content = [doc["ok"], doc["samples"], len(doc["failures"])]
    digest.add({"op": op.name, "code": run.code, "content": content})
