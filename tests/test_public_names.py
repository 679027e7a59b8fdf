"""Every public name of the package has a user.

A name in a module's ``__all__`` must be imported or read off its module by
another module of the package (``__init__`` re-exports and does not
count), be wrapped by the benchmark tracer (``WRAPPED`` in
``perfbench/tracer.py``), or be listed in the README's "Library API"
section.  Every name that section lists must be public where it says.
"""

import ast
import importlib
import re
from pathlib import Path

from test_tracer_names import tracer  # noqa: F401  (the fixture that loads it)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toricontact"


def _public(path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _uses(path) -> set[tuple[str, str]]:
    """(module, name) pairs one file imports with ``from .module import``
    or reads as ``module.name``."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            used |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add((node.value.id, node.attr))
    return used


def library_api() -> dict[str, set[str]]:
    """Module -> names, from the README's "* `toricontact.module`: ..." bullets."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `toricontact\.(\w+)`:(.*(?:\n  .*)*)", section, re.M)
    assert bullets, "no Library API bullets in README.md"
    return {module: set(re.findall(r"`(\w+)`", names)) for module, names in bullets}


def test_every_public_name_has_a_user(tracer):  # noqa: F811
    modules = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")
    uses = {p.stem: _uses(p) for p in modules}
    wrapped = set(tracer.WRAPPED)
    api = library_api()
    orphans = [
        f"{p.stem}.{name}"
        for p in modules
        for name in _public(p)
        if (p.stem, name) not in wrapped
        and name not in api.get(p.stem, ())
        and not any((p.stem, name) in used for other, used in uses.items() if other != p.stem)
    ]
    assert not orphans


def test_every_library_api_name_is_public():
    missing = [
        f"{module}.{name}"
        for module, names in library_api().items()
        for name in sorted(names)
        if name not in getattr(importlib.import_module(f"toricontact.{module}"), "__all__", ())
    ]
    assert not missing
