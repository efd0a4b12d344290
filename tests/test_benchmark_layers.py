"""The benchmark's tracer names each traced layer by (module, attribute)
and only warns when one is missing, so its per-layer metrics would read
0 after a rename. Every pair must resolve in the package."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_layers():
    """The ``LAYERS`` literal of the tracer, read without running it."""
    tree = ast.parse(SPANS.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in n.targets))
    return ast.literal_eval(node.value)


@pytest.mark.parametrize("span,target", sorted(traced_layers().items()))
def test_traced_layer_resolves(span, target):
    modname, attr = target
    assert callable(getattr(importlib.import_module(modname), attr, None)), span
