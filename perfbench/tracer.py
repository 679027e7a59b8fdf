"""Spans and exact work counters around the package's public functions.

The tracer rebinds each wrapped function in its defining module and in
every ``toricontact`` module that imported it by name (``classify`` holds
``polytope.vertices`` as ``_poly_vertices``, ``polytope`` holds
``lattice.kernel_lattice_basis``, ...), so internal calls are timed too.
Nothing in the package changes: the rebinding lives only in the process
that installed it and is undone by ``uninstall``.

A span is ``(name, start_ns, end_ns, parent, datum, hook_ns)``.  ``parent``
is the index of the enclosing span or -1; ``hook_ns`` is the time the
tracer spent in counter hooks of direct children, which is taken out of
this span's self time so that counting does not bill the caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from itertools import chain
from math import comb
from time import perf_counter_ns

# (module, function) pairs.  Cheap helpers (dot, matvec, matmul, primitive,
# transpose) stay unwrapped: a span around each would cost more than they do.
WRAPPED = (
    ("polytope", "vertices"),
    ("polytope", "cone_over"),
    ("polytope", "slice_cone"),
    ("geometry", "enumerate_hpoly"),
    ("geometry", "solve_square"),
    ("geometry", "null_space"),
    ("geometry", "rank_q"),
    ("geometry", "solve_general"),
    ("lattice", "hnf"),
    ("lattice", "snf"),
    ("lattice", "rank"),
    ("lattice", "kernel_lattice_basis"),
    ("lattice", "saturate"),
    ("lattice", "quotient_group"),
    ("reduction", "build_beta"),
    ("reduction", "kernel_torus_weights"),
    ("reduction", "deformation_vector"),
    ("reduction", "reduced_polytope"),
    ("spheres", "weighted_simplex"),
    ("spheres", "convexity_sample_check"),
    ("documents", "parse_datum"),
    ("documents", "datum_from_document"),
    ("documents", "parse_presentation"),
    ("documents", "presentation_from_document"),
    ("documents", "datum_to_document"),
    ("documents", "presentation_to_document"),
    ("documents", "classification_to_document"),
    ("documents", "verification_to_document"),
    ("documents", "sample_report_to_document"),
    ("classify", "validate_datum"),
    ("classify", "classify"),
    ("reduction", "synthesize"),
    ("reduction", "verify_presentation"),
)

# Stage entry points also report inclusive time.
STAGES = (
    "classify.validate_datum",
    "classify.classify",
    "reduction.synthesize",
    "reduction.verify_presentation",
)


def _count_enumerate(counts, args, result):
    a_rows = args[0]
    if a_rows:
        counts["geometry.enumerate_hpoly.candidates"] += comb(len(a_rows), len(a_rows[0]))
    counts["geometry.enumerate_hpoly.vertices"] += len(result[1])


def _count_vertices(counts, args, result):
    counts["polytope.vertices.found"] += len(result)


def _count_faces(counts, args, result):
    counts["classify.faces"] += len(result.per_face)


def _count_lp(counts, args, result):
    beta = args[1]
    k = len(beta[0]) - len(beta)
    # the maximin LP has one variable per kernel direction plus the minimum
    counts["reduction.deformation_vector.lp_vars"] += k + 1 if k > 0 else 0


def _count_bits(counts, args, result):
    largest = max(map(abs, chain.from_iterable(chain.from_iterable(result))), default=0)
    bits = largest.bit_length()
    if bits > counts["lattice.max_entry_bits"]:
        counts["lattice.max_entry_bits"] = bits


HOOKS = {
    "geometry.enumerate_hpoly": _count_enumerate,
    "polytope.vertices": _count_vertices,
    "classify.classify": _count_faces,
    "reduction.deformation_vector": _count_lp,
    "lattice.hnf": _count_bits,
    "lattice.snf": _count_bits,
}


class Tracer:
    """Collects spans while ``active``; wrapped calls pass straight through
    when it is not."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.datum = None
        self._stack = []  # [span index, hook_ns of direct children]
        self._bound = []  # (module, attribute, original)

    def wrap(self, name, fn, hook=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    parent[0] if parent else -1,
                    self.datum,
                    frame[1],
                )
            if hook is not None:
                hook(self.counts, args, result)
                if parent is not None:
                    parent[1] += perf_counter_ns() - end
            return result

        return wrapper

    def install(self):
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "toricontact" or key.startswith("toricontact."))
        ]
        for module_name, func_name in WRAPPED:
            home = importlib.import_module(f"toricontact.{module_name}")
            original = getattr(home, func_name)
            name = f"{module_name}.{func_name}"
            wrapper = self.wrap(name, original, HOOKS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def aggregate(spans):
    """Per-name calls, self and inclusive nanoseconds, and top-level time.

    Inclusive time counts only the outermost span of a name, so a
    recursive call is not billed twice.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = Counter()
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    top_ns = 0
    for i, (name, start, end, parent, _, hook_ns) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_ns[name] += duration - child_ns[i] - hook_ns
        if parent < 0:
            top_ns += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            incl_ns[name] += duration
    return calls, self_ns, incl_ns, top_ns
