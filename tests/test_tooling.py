"""The benchmark's tracer wraps fracmp functions by name.

A traced name that no longer exists would make the traced benchmark run
fail when it installs its wrappers, so every name is checked here.  The
table is read from the tracer's source, without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "fracbench" / "tracer.py"


def _traced():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in %s" % TRACER)


def test_every_traced_name_exists():
    traced = _traced()
    assert traced
    missing = [
        "%s.%s" % (module, name)
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module("fracmp." + module), name, None))
    ]
    assert not missing
