"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py

They run tiny sizes of every workload in fresh processes, exactly as the
benchmark is run, and check the harness's own machinery.
"""

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
_runs = {}


def bench(workload, trace, attempt=0):
    """Last-line JSON of a tiny run, cached per workload, trace mode and attempt."""
    key = (workload, trace, attempt)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
             "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        _runs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _runs[key]


def test_wrapper_returns_the_same_object_and_reraises_the_same_exception():
    tracer = Tracer()
    sentinel = object()
    error = ValueError("boom")

    def fails():
        raise error

    passes = tracer.wrap("m.passes", lambda x, y=0: (sentinel, x, y))
    raises = tracer.wrap("m.fails", fails)
    assert passes(1, y=2) == (sentinel, 1, 2)
    tracer.active = True
    result = passes(3)
    assert result[0] is sentinel and result[1:] == (3, 0)
    with pytest.raises(ValueError) as info:
        raises()
    assert info.value is error
    assert [span[0] for span in tracer.spans] == ["m.passes", "m.fails"]
    assert all(span[3] == -1 for span in tracer.spans)


def test_install_rebinds_every_imported_name_and_uninstall_restores():
    run.require_source()
    # the package namespace binds ``classify`` to the function, not the module
    classify, lattice, polytope, reduction = (
        importlib.import_module(f"toricontact.{name}")
        for name in ("classify", "lattice", "polytope", "reduction")
    )

    original = polytope.vertices
    matrix = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    expected = lattice.snf(matrix)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = polytope.vertices
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert classify._poly_vertices is wrapped
        assert reduction._poly_vertices is wrapped
        assert classify.snf is lattice.snf
        assert polytope.kernel_lattice_basis is lattice.kernel_lattice_basis
        tracer.active = True
        assert lattice.snf(matrix) == expected
        assert tracer.spans[0][0] == "lattice.snf"
    finally:
        tracer.active = False
        tracer.uninstall()
    assert polytope.vertices is original
    assert classify._poly_vertices is original


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_its_gate_and_prints_the_declared_metrics(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == declared[name]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_exact_counts_repeat_across_processes():
    first = bench("cube-dims", 1)
    second = bench("cube-dims", 1, attempt=1)
    exact = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "bits")]
    exact.append("geometry.enumerate_hpoly.useful_ratio")
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


def test_refuses_a_directory_without_the_package():
    stripped = run.OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cube-dims", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
