"""The benchmark's tracer names each traced layer by (module, attribute)
and only warns when one is missing, so its per-layer metrics would read
0 after a rename. Every pair must resolve in the package, and the CLI
must behave the same while the tracer's wrappers are in place."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import cholcorr.cli as cli

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


def load_spans(monkeypatch):
    """The tracer module, loaded from its file (registered while the test
    runs, as its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def generated_files(outdir):
    assert cli.main(["generate", "--n", "25", "--count", "20", "--seed", "7",
                     "--out", str(outdir)]) == 0
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def test_traced_cli_runs_as_untraced(tmp_path, monkeypatch):
    """The tracer rebinds every traced name (aliases too) to a plain
    function; the CLI must run the same through those wrappers."""
    spans = load_spans(monkeypatch)
    valid, indefinite = tmp_path / "valid.csv", tmp_path / "indefinite.csv"
    np.savetxt(valid, [[1.0, 0.5], [0.5, 1.0]], delimiter=",")
    np.savetxt(indefinite, [[1.0, 0.9, 0.9], [0.9, 1.0, 0.1], [0.9, 0.1, 1.0]], delimiter=",")
    untraced = generated_files(tmp_path / "untraced")
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = generated_files(tmp_path / "traced")
        assert cli.main(["decompose", str(valid), "--check"]) == 0
        assert cli.main(["decompose", str(indefinite), "--check"]) == 3
    assert traced == untraced
    assert "randcorr.generate_batch" in {span.name for span in tracer.spans}
    assert not tracer.missing
