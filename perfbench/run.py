#!/usr/bin/env python3
"""Benchmark harness for toricontact.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from its
``src`` directory, and nothing else is used.  Workloads:

* ``cube-dims``     labeled cubes [0,1]^n, n = 2..6: every brute-force
                    stage is exponential in the dimension.
* ``ngon-facets``   lattice polygons with N = 6..12 facets: the face
                    lattice is trivial and the deformation LP dominates.
* ``sphere-corpus`` 400 weighted spheres from the criterion-3 corpus:
                    per-call overhead of tiny exact computations.
* ``cli-pipes``     the README's pipelines as separate CLI processes,
                    process start and ``import`` included.

``--trace 0`` runs whole passes over the workload until ``--seconds`` is
spent and prints the end-to-end metrics.  Each pass times every unit of
work (a pipeline step of one datum, or one CLI process); a shared host
slows whole stretches of seconds and only ever adds time, so each unit
keeps its best time over the passes, and a datum, the largest datum and
the pass are sums of best unit times.  All times are then scaled by how
fast a fixed calibration loop ran over the run (``cpus.py``), so that a
run the host slows as a whole reads like one it does not.  ``--trace 1``
runs untraced passes for half the time and traced passes (at least two)
for the other half and prints the per-layer metrics.  Every operation's
output goes through a correctness gate; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Spans of a
traced run are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import gen  # noqa: E402  (sibling module; the script's directory is on sys.path)
from cpus import CpuPicker  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("cube-dims", "ngon-facets", "sphere-corpus", "cli-pipes")
SIZES = {
    "full": {"cube-dims": range(2, 7), "ngon-facets": range(6, 13), "sphere-corpus": 400, "cli-pipes": 6},
    "tiny": {"cube-dims": range(2, 4), "ngon-facets": range(6, 8), "sphere-corpus": 12, "cli-pipes": 1},
}
SETUP_REPEATS = 9
PROBE_REPEATS = 5
CLI_PROBE_PASSES = 3
CLI_COMMANDS = ("sphere", "classify", "reduce", "slice", "verify", "sample")
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("largest_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Functions the in-process pipeline never calls: only their call counts are
# reported, since a self time would read 0 on three of the four workloads.
CLI_ONLY = {
    "polytope.slice_cone",
    "spheres.weighted_simplex",
    "spheres.convexity_sample_check",
    "documents.parse_presentation",
    "documents.presentation_from_document",
    "documents.datum_to_document",
    "documents.verification_to_document",
    "documents.sample_report_to_document",
}
COUNTS = (
    ("geometry.enumerate_hpoly.candidates", "count", "lower"),
    ("geometry.enumerate_hpoly.useful_ratio", "ratio", "higher"),
    ("polytope.vertices.found", "count", "lower"),
    ("classify.faces", "count", "lower"),
    ("reduction.deformation_vector.lp_vars", "count", "lower"),
    ("lattice.max_entry_bits", "bits", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run prints."""
    metrics = []
    for module, func in tracing.WRAPPED:
        name = f"{module}.{func}"
        metrics.append((f"{name}.calls", "count", "lower"))
        if name not in CLI_ONLY:
            metrics.append((f"{name}.self_s", "s", "lower"))
        if name in tracing.STAGES:
            metrics.append((f"{name}.s", "s", "lower"))
    metrics += COUNTS
    metrics += [("cli.python_start_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    metrics += [(f"cli.{c}.p50_ms", "ms", "lower") for c in CLI_COMMANDS]
    metrics += [("trace.coverage", "ratio", "higher"), ("trace.overhead_ratio", "ratio", "lower")]
    return metrics


class HarnessError(Exception):
    """The checkout cannot be benchmarked (no package source, wrong import)."""


def require_source():
    if not (SRC / "toricontact" / "__init__.py").is_file():
        raise HarnessError(f"no package source at {SRC}/toricontact")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_origin(path) -> None:
    if Path(path).resolve().parent != (SRC / "toricontact").resolve():
        raise HarnessError(f"toricontact imported from {path}, not from {SRC}")


# -- workloads ---------------------------------------------------------------


class Pass:
    def __init__(self, wall, units):
        self.wall = wall
        self.units = units  # seconds per timed unit, in the same order every pass
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        self.stdout = None
        self.spans = None
        self.counts = None


def check_pass(result, outcomes, problems, digest_add):
    """Gate every operation of a pass and digest what it computed."""
    digest = gen.Digest()
    for out in outcomes:
        result.attempted += 1
        try:
            found = problems(out)
        except Exception as exc:  # a malformed result is a failed operation
            found = [f"gate raised {type(exc).__name__}: {exc}"]
        if found:
            result.failed += 1
            result.problems += found
        digest_add(digest, out)
    result.digest = digest.hexdigest()


class InProcess:
    """cube-dims, ngon-facets and sphere-corpus: the pipeline in this process."""

    def __init__(self, name, seed, size, pick):
        require_source()
        import toricontact

        check_origin(toricontact.__file__)
        import inprocess

        self.lib = inprocess
        self.pick = pick
        spec = SIZES[size][name]
        if name == "cube-dims":
            self.items = gen.cube_items(seed, spec)
        elif name == "ngon-facets":
            self.items = gen.ngon_items(seed, spec)
        else:
            self.items = gen.sphere_items(seed, spec)
        # a datum's units are its pipeline steps
        steps = inprocess.STEPS
        self.op_units = [range(i * steps, (i + 1) * steps) for i in range(len(self.items))]
        largest = self.items.index(max(self.items, key=lambda it: it.size))
        self.largest_units = self.op_units[largest]

    def warm_up(self):
        self.lib.run_datum(min(self.items, key=lambda it: it.size))

    def run_pass(self, tracer=None):
        if tracer is not None:
            tracer.active = True
        try:
            wall, outcomes = self.lib.run_pass(self.items, tracer, self.pick)
        finally:
            if tracer is not None:
                tracer.active = False
        result = Pass(wall, [t for o in outcomes for t in o.steps])
        check_pass(result, outcomes, self.lib.problems, self.lib.digest_add)
        if tracer is not None:
            result.spans = list(tracer.spans)
            result.counts = dict(tracer.counts)
            tracer.reset()
        return result

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliPipes:
    """cli-pipes: one ``python -m toricontact.cli`` process per stage."""

    def __init__(self, chains, sample_weights, seed, pick):
        require_source()
        import clipipes

        self.lib = clipipes
        OUT.mkdir(exist_ok=True)
        self.runner = clipipes.Runner(ROOT, OUT, pick)
        self.chains, self.sample_weights = chains, sample_weights
        self.ops = clipipes.plan(chains, sample_weights, seed)
        # one unit per process; the largest datum is the chain of the largest weights
        self.op_units = [[i] for i in range(len(self.ops))]
        largest = max(range(len(self.chains)), key=lambda c: (len(self.chains[c]), self.chains[c]))
        self.largest_units = [i for i, op in enumerate(self.ops) if op.chain == largest]

    def warm_up(self):
        proc, _, _ = self.runner.spawn(
            [sys.executable, "-c", "import toricontact.cli, sys; sys.stdout.write(toricontact.__file__)"]
        )
        if proc.returncode != 0:
            raise HarnessError(f"cannot import toricontact.cli: {proc.stderr.decode()[-500:]}")
        check_origin(proc.stdout.decode())

    def run_pass(self, tracer=None):
        traced = tracer is not None
        wall, runs = self.runner.run_pass(self.ops, traced)
        result = Pass(wall, [r.seconds for r in runs])
        check_pass(result, runs, lambda run: self.lib.problems(run, self.chains, self.sample_weights),
                   self.lib.digest_add)
        result.stdout = [r.stdout for r in runs]
        if traced:
            result.spans, result.counts = self._collect(runs)
        return result

    def _collect(self, runs):
        spans, counts = [], {}
        for run in runs:
            top = len(spans)
            spans.append((f"cli.{run.op.command}", run.start_ns, run.end_ns, -1, run.op.name, 0))
            path = OUT / (run.op.name + ".spans.json")
            child = json.loads(path.read_text())
            path.unlink()
            for name, start, end, parent, datum, hook_ns in child["spans"]:
                spans.append((name, start, end, top if parent < 0 else top + 1 + parent, datum, hook_ns))
            merge_counts(counts, child["counts"])
        return spans, counts

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def merge_counts(total, part):
    for key, value in part.items():
        if key == "lattice.max_entry_bits":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def make_workload(name, seed, size, pick):
    if name == "cli-pipes":
        return CliPipes(*gen.cli_weights(seed, SIZES[size][name]), seed, pick)
    return InProcess(name, seed, size, pick)


# -- statistics --------------------------------------------------------------


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it; the
    maximum when there are too few samples for that to exceed the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_passes(workload, seconds, minimum, tracer=None, between=None):
    passes = []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(tracer))
        if between is not None:
            between()
    return passes


def setup_probe(args, pick):
    """Wall time of a fresh process that does only this run's set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size]
    pick()
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise HarnessError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def cli_probe(problems, pick):
    """Process start, ``import toricontact.cli`` and one median per command
    on the README's own examples; the same fixed probe on every workload."""
    probe = CliPipes([(1, 2)], (1, 2, 3), 1999, pick)
    probe.warm_up()

    def timed(code):
        pick()
        start = time.perf_counter()
        probe.runner.spawn([sys.executable, "-c", code])
        return time.perf_counter() - start

    bare = statistics.median(timed("pass") for _ in range(PROBE_REPEATS))
    imported = statistics.median(timed("import toricontact.cli") for _ in range(PROBE_REPEATS))
    per_command = {c: [] for c in CLI_COMMANDS}
    attempted = failed = 0
    for _ in range(CLI_PROBE_PASSES):
        result = probe.run_pass()
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        for op, seconds in zip(probe.ops, result.units):
            per_command[op.command].append(seconds)
    metrics = {"cli.python_start_ms": bare * 1e3, "cli.import_ms": (imported - bare) * 1e3}
    for command, samples in per_command.items():
        metrics[f"cli.{command}.p50_ms"] = statistics.median(samples) * 1e3
    return metrics, attempted, failed


# -- runs --------------------------------------------------------------------


def golden_digest(workload):
    golden = json.loads((HERE / "golden.json").read_text())
    return golden["digests"].get(workload)


def gate(args, passes, problems):
    """Run-level checks: every pass found the same results, and at the
    default seed they are the committed ones."""
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append("passes disagree on the results digest")
    if args.size == "full" and args.seed == gen.DEFAULT_SEED:
        expected = golden_digest(args.workload)
        if expected not in digests:
            problems.append(f"digest {sorted(digests)} differs from the committed {expected}")
    for p in passes:
        problems += p.problems


def end_to_end(args, workload, pick):
    # Set-up probes are spread between the passes so that they sample the
    # host at different moments.
    setups = [setup_probe(args, pick)]

    def probe():
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_probe(args, pick))

    passes = run_passes(workload, args.seconds, 1, between=probe)
    while len(setups) < SETUP_REPEATS:
        probe()
    problems = []
    gate(args, passes, problems)
    # On a shared host other tenants slow whole stretches of seconds, and
    # only ever add time.  So every unit (a pipeline step, or a process) is
    # timed in every pass and its best time is kept; a datum, the largest
    # datum and the pass are the sums of their units' best times.  Slow
    # stretches that outlast the run are taken out by scaling every time to
    # the reference speed of the calibration loop.
    scale = pick.factor()
    best = [min(samples) * scale for samples in zip(*(p.units for p in passes))]
    ops = [sum(best[u] for u in units) for units in workload.op_units]
    tail_s, tail_pct = tail(ops)
    k = f"units best of {len(passes)} passes, x{scale:.3f} to reference speed"
    walls = [p.wall for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups) * scale, f"median of {len(setups)} fresh set-ups, x{scale:.3f}"),
        "pass_s": (sum(best), f"{k}; pass walls {min(walls):.4g}..{max(walls):.4g}"),
        "largest_s": (sum(best[u] for u in workload.largest_units), k),
        "op_p50_ms": (statistics.median(ops) * 1e3, f"{len(ops)} operations, {k}"),
        "op_tail_ms": (tail_s * 1e3, f"p{tail_pct:.2f} of {len(ops)} operations, {k}"),
        "peak_rss_mb": (workload.peak_rss_mb(), "this workload only"),
    }
    return metrics, passes, problems, 0, 0


def per_layer(args, workload, pick):
    half = args.seconds / 2
    plain = run_passes(workload, half, 1)
    tracer = tracing.Tracer()
    if isinstance(workload, InProcess):
        tracer.install()
    try:
        traced = run_passes(workload, half, 2, tracer)
    finally:
        tracer.uninstall()
    problems = []
    gate(args, plain + traced, problems)
    if isinstance(workload, CliPipes) and any(p.stdout != plain[0].stdout for p in traced):
        problems.append("traced CLI stdout differs from untraced")
    counts = [p.counts for p in traced]
    aggregates = []
    for p in traced:
        calls, self_ns, incl_ns, top_ns = tracing.aggregate(p.spans)
        aggregates.append((calls, self_ns, incl_ns, top_ns / 1e9 / p.wall))
    call_counts = [a[0] for a in aggregates]
    if any(c != counts[0] for c in counts) or any(c != call_counts[0] for c in call_counts):
        problems.append("exact counts differ between traced passes")
    n = f"median of {len(traced)} traced passes"
    metrics = {}
    for module, func in tracing.WRAPPED:
        name = f"{module}.{func}"
        metrics[f"{name}.calls"] = (call_counts[0].get(name, 0), "per pass")
        if name not in CLI_ONLY:
            metrics[f"{name}.self_s"] = (statistics.median(a[1].get(name, 0) for a in aggregates) / 1e9, n)
        if name in tracing.STAGES:
            metrics[f"{name}.s"] = (statistics.median(a[2].get(name, 0) for a in aggregates) / 1e9, n)
    c = counts[0]
    candidates = c.get("geometry.enumerate_hpoly.candidates", 0)
    metrics["geometry.enumerate_hpoly.candidates"] = (candidates, "per pass")
    ratio = c.get("geometry.enumerate_hpoly.vertices", 0) / candidates if candidates else 0.0
    metrics["geometry.enumerate_hpoly.useful_ratio"] = (ratio, "vertices / candidates")
    for key in ("polytope.vertices.found", "classify.faces", "reduction.deformation_vector.lp_vars"):
        metrics[key] = (c.get(key, 0), "per pass")
    metrics["lattice.max_entry_bits"] = (c.get("lattice.max_entry_bits", 0), "largest hnf/snf entry")
    cli, attempted, failed = cli_probe(problems, pick)
    for key, value in cli.items():
        metrics[key] = (value, "fixed README probe")
    metrics["trace.coverage"] = (statistics.median(a[3] for a in aggregates), "top-level spans / pass wall")
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
    metrics["trace.overhead_ratio"] = (overhead, f"{len(traced)} traced vs {len(plain)} untraced passes")
    write_spans(args, traced)
    return metrics, plain + traced, problems, attempted, failed


def write_spans(args, passes):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for number, p in enumerate(passes):
            for span in p.spans:
                handle.write(json.dumps([number, *span]) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny runs a few small data, for the harness's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pick = CpuPicker()
        workload = make_workload(args.workload, args.seed, args.size, pick)
        workload.warm_up()
        if args.setup_probe:
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, passes, problems, extra_attempted, extra_failed = measure(args, workload, pick)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p.attempted for p in passes) + extra_attempted
    failed = sum(p.failed for p in passes) + extra_failed
    units = dict((m[0], m[1]) for m in END_TO_END)
    units.update((m[0], m[1]) for m in per_layer_metrics())
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed")
    for name, (value, note) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {units[name]:6s} {note}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
