"""Every function, class and method that `src/amalgamlab` defines has a
caller in `src/amalgamlab`.

A name that only tests reach is library surface that no command runs, so
it goes, and a test that needs it as a helper keeps its own copy in
`conftest.py`.  Three groups of names are allowed without a caller: the
package's public API (what `amalgamlab/__init__.py` re-exports), the
command-line entry points, and the names that the benchmark's tracer wraps
by string.  The last group is read from the tracer's own tables, so it
shrinks by itself when the tracer stops wrapping a name.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import amalgamlab

PACKAGE = Path(amalgamlab.__file__).resolve().parent
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"
ENTRY_POINTS = {"main", "cli_dispatch"}


def _defined_names(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("_amalgamlab_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [
        *tracer.SPANS.values(),
        *tracer.PARSERS,
        *(target for targets in tracer.COUNTERS.values() for target in targets),
    ]
    paths = [path for _, path in targets] + list(tracer.SCANS)
    return {path.rsplit(".", 1)[-1] for path in paths}


def test_every_library_name_has_a_caller():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    defined = set().union(*map(_defined_names, trees))
    used = set().union(*map(_used_names, trees))
    allowed = _exported_names() | ENTRY_POINTS | _traced_names()
    uncalled = sorted(defined - used - allowed)
    assert not uncalled, f"no caller in src/amalgamlab: {', '.join(uncalled)}"
