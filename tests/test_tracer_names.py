"""The benchmark tracer looks package functions up by name; keep them there.

``perfbench/tracer.py`` wraps every ``(module, function)`` in its
``WRAPPED`` table with ``getattr`` and reads some arguments by position in
its counter hooks, so a renamed or deleted function breaks ``--trace 1``.
These checks load the tracer from its path without writing anything.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_name_is_a_package_function(tracer):
    missing = [
        f"{module}.{name}"
        for module, name in tracer.WRAPPED
        if not callable(getattr(importlib.import_module(f"toricontact.{module}"), name, None))
    ]
    assert not missing


def test_every_hook_names_a_wrapped_function(tracer):
    wrapped = {f"{module}.{name}" for module, name in tracer.WRAPPED}
    assert set(tracer.HOOKS) <= wrapped


@pytest.mark.parametrize(
    "module, name, params",
    [
        ("reduction", "deformation_vector", ["datum", "beta"]),
        ("geometry", "enumerate_hpoly", ["a_rows", "b"]),
    ],
)
def test_hooked_signatures(module, name, params):
    fn = getattr(importlib.import_module(f"toricontact.{module}"), name)
    assert list(inspect.signature(fn).parameters) == params
