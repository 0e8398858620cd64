"""The benchmark's per-layer tracer finds each program name it wraps.

``bench/tracing.py`` swaps named module attributes for timing wrappers and
silently skips a name that no longer exists, so a refactor that drops or
renames one would only show up as a missing key in a traced benchmark run.
These tests load the tracer by path, without changing it, and check every
target against the program.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for module, cls, attr, name in tracing.TARGETS:
        owner = importlib.import_module(f"npcode.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(owner.__dict__.get(attr)), f"{name}: npcode.{module} has no {attr}"


def test_tracer_wraps_every_target_and_restores_it(tracing):
    originals = {}
    for module, cls, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"npcode.{module}")
        owner = getattr(owner, cls) if cls else owner
        originals[owner, attr] = owner.__dict__[attr]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in originals.items())
    assert tracer.wrapped == {name for *_, name in tracing.TARGETS}
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())
