"""The benchmark's traced run wraps library functions by name; a renamed
function would drop out of `--trace 1` without an error, so check here that
every traced entry point still exists."""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "certbench", "tracing.py")


def _traced_layers() -> dict:
    """`LAYERS` of certbench/tracing.py, evaluated without running the file."""
    with open(TRACING) as fh:
        tree = ast.parse(fh.read(), TRACING)
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return eval(compile(ast.Expression(node.value), TRACING, "eval"), {})
    raise LookupError("no LAYERS assignment in certbench/tracing.py")


def test_traced_layers_exist():
    layers = _traced_layers()
    missing = []
    for layer, targets in layers.items():
        for module, name in targets:
            mod = importlib.import_module(f"mono3sat.{module}")
            if not callable(getattr(mod, name, None)):
                missing.append(f"{layer}: mono3sat.{module}.{name}")
    assert layers and not missing, missing
