"""Names the benchmark harness in ``perfbench/`` looks up in the package.

The harness wraps functions by name: ``probes.TRACED`` lists the traced
ones, ``probes.install_first_call_hook`` wraps every name in the engine
modules' ``__all__``, and ``child.py`` imports ``montecarlo.run_coverage``.
A name that is gone from the package breaks every benchmark run, so these
tests fail first.  They only read ``perfbench/``.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import mmwcov

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("probes")


def _modules():
    names = [mmwcov.__name__] + [f"{mmwcov.__name__}.{info.name}"
                                 for info in pkgutil.iter_modules(mmwcov.__path__)]
    return [importlib.import_module(name) for name in names]


def test_traced_names_resolve(probes):
    wanted = {layer: set(names) for layer, names in probes.TRACED.items()}
    wanted["montecarlo"].add("run_coverage")
    missing = [f"{layer}.{name}" for layer, names in sorted(wanted.items())
               for name in sorted(names)
               if not callable(getattr(importlib.import_module(f"mmwcov.{layer}"), name, None))]
    assert missing == []


def test_every_public_name_exists():
    stale = [f"{module.__name__}.{name}" for module in _modules()
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []
