"""Names the benchmark harness in ``perfbench/`` looks up in the package.

The harness wraps functions by name: ``probes.TRACED`` lists the traced
ones, ``probes.install_first_call_hook`` wraps every name in the engine
modules' ``__all__``, and ``child.py`` imports ``montecarlo.run_coverage``.
A name that is gone from the package breaks every benchmark run, so these
tests fail first.  They only read ``perfbench/``.  The set-up time ends at
the first call of a wrapped name, so every engine function the scenarios
call must be one of them.
"""

import ast
import importlib
import inspect
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


ENGINES = ("montecarlo", "analytic", "dominant")


def _engine_names_called_by_experiments():
    """(module, name) of every engine function ``experiments`` names: the
    names it imports from an engine module, its ``analytic.X`` and
    ``dominant.X`` attributes, and the coverage functions its curve walker
    looks up by prefix and policy."""
    from mmwcov import experiments

    tree = ast.parse(inspect.getsource(experiments))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ENGINES:
            named |= {(node.module, alias.name) for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ENGINES):
            named.add((node.value.id, node.attr))
    for module, prefix in experiments._COVERAGE.values():
        layer = module.__name__.rsplit(".", 1)[-1]
        named |= {(layer, prefix + policy) for policy in ("p1", "p2", "p3")
                  if hasattr(module, prefix + policy)}
    return named


def test_engine_functions_called_by_experiments_are_public():
    named = _engine_names_called_by_experiments()
    assert {("analytic", "coverage_p1"), ("dominant", "coverage_dom_p3")} <= named
    hidden = []
    for layer, name in sorted(named):
        module = importlib.import_module(f"mmwcov.{layer}")
        if inspect.isfunction(getattr(module, name)) and name not in module.__all__:
            hidden.append(f"{layer}.{name}")
    assert hidden == []
