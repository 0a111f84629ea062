"""Every public name of the package is used outside the tests.

Each module's ``__all__`` is read with ``ast``, not run.  A name in it
counts as used when something other than its own definition and its
``__all__`` entry names it:

* the package source, as a ``Name`` or ``Attribute`` that is read, or as
  the import alias of another module;
* a demo, the same way;
* ``README.md``, as a whole word;
* the benchmark harness: ``TRACED`` in ``perfbench/probes.py``, or
  ``perfbench/child.py``.

A public function that only the tests call belongs in ``tests/`` as an
oracle, as ``field_oracle.py`` and ``analytic_oracle.py`` hold them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mmwcov"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(tree):
    """Identifiers the tree reads: loaded names and attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _imports(tree):
    """Names the tree imports, by their last dotted part."""
    return {alias.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def _public(tree):
    """The module's ``__all__``, or () if it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return tuple(ast.literal_eval(node.value))
    return ()


def _traced():
    """The function names of ``TRACED`` in ``perfbench/probes.py``."""
    for node in _tree(ROOT / "perfbench" / "probes.py").body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            return {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    raise AssertionError("perfbench/probes.py defines no TRACED")


def _unused_public_names():
    modules = {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    outside = set(_traced())
    for path in sorted((ROOT / "demos").glob("*.py")) + [ROOT / "perfbench" / "child.py"]:
        tree = _tree(path)
        outside |= _reads(tree) | _imports(tree)
    reads = set().union(*map(_reads, modules.values()))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for stem, tree in modules.items():
        imported_elsewhere = set().union(*(_imports(other) for name, other in modules.items()
                                           if name != stem))
        for name in _public(tree):
            if (name in reads or name in imported_elsewhere or name in outside
                    or re.search(rf"\b{re.escape(name)}\b", readme)):
                continue
            unused.append(f"{'mmwcov' if stem == '__init__' else stem}.{name}")
    return unused


def test_every_module_has_public_names():
    modules = [path.stem for path in PACKAGE.glob("*.py") if _public(_tree(path))]
    assert {"__init__", "montecarlo", "analytic", "dominant", "geometry"} <= set(modules)


def test_every_public_name_is_used_outside_the_tests():
    assert _unused_public_names() == []
