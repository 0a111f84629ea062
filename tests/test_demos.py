"""The demos use only names and keyword arguments that the package has.

Each demo is read with ``ast``, not run: a name a demo imports from
``mmwcov`` must exist, and a keyword it passes to one of those names must
be a parameter of it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_imports(tree):
    """({local name: object}, [missing dotted names]) of a demo's imports
    from ``mmwcov``."""
    found, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mmwcov":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    found[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mmwcov":
                    importlib.import_module(alias.name)
    return found, missing


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_names_exist_in_the_package(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    found, missing = _package_imports(tree)
    assert missing == []
    unknown = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in found:
            params = inspect.signature(found[node.func.id]).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            unknown += [f"{node.func.id}({kw.arg}=...)" for kw in node.keywords
                        if kw.arg is not None and kw.arg not in params]
    assert unknown == []
