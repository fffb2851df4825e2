"""The names the wall-clock benchmark under ``e2ebench/`` binds in ``repro``.

The benchmark is never edited alongside the program, so a rename or a
deletion in ``src/`` that it still reaches would otherwise surface only
in its own, slower self-test job.  These checks fail in seconds.
"""

import ast
import importlib
from pathlib import Path

import pytest

from e2ebench.tracing import PATCHES

E2EBENCH = Path(__file__).resolve().parents[1] / "e2ebench"


def _repro_imports():
    """Every ``from repro... import name`` in the benchmark's modules."""
    for path in sorted(E2EBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module
                and node.module.split(".")[0] == "repro"
            ):
                for alias in node.names:
                    yield f"{path.name}:{node.module}.{alias.name}"


@pytest.mark.parametrize(
    "patch", PATCHES, ids=[f"{p.module}.{p.attr}" for p in PATCHES]
)
def test_every_traced_binding_resolves(patch):
    # Same lookup as Tracer.install: the wrapped attribute must live in
    # the owner's own namespace, not be inherited or re-exported lazily.
    owner = importlib.import_module(patch.module)
    *path, leaf = patch.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__


@pytest.mark.parametrize("binding", sorted(set(_repro_imports())))
def test_every_imported_name_exists(binding):
    _file, dotted = binding.split(":")
    module, name = dotted.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), name)


def test_fleet_soak_cache_clear_runs():
    from repro.perf.simcache import get_cache

    get_cache().clear()
