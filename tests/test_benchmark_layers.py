"""The benchmark's tracer names each traced layer by (module, attribute)
and only warns when one is missing, so its per-layer metrics would read
0 after a rename. Every pair must resolve in the package, and the CLI
must behave the same while the tracer's wrappers are in place."""

import ast
import collections
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import cholcorr.cli as cli
from cholcorr.identities import ALL_VERIFIERS
from cholcorr.randcorr import GeneratorConfig, generate_batch

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


def input_tables():
    """The input files of ``CASES`` by name, each written to ``<name>.csv``."""
    r = generate_batch(GeneratorConfig(n=6, seed=3), 1)[0].values
    sig = np.linspace(0.5, 3.0, 6)
    return {"correlation": r, "covariance": r * np.outer(sig, sig),
            "indefinite": np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.1], [0.9, 0.1, 1.0]]),
            "samples": np.random.default_rng(3).standard_normal((200, 4))}


# decompose --check builds every route once, whichever --method it writes
ROUTES = {"matrix_core.reference_cholesky": 1, "parametrizations.chol_semipartial": 1,
          "parametrizations.chol_detratio": 1, "parametrizations.extract_signs": 1}
VERIFIERS = {f"identities.{fn.__name__}": 1 for _, fn, _ in ALL_VERIFIERS}

# case -> (argv, exit code, the spans of one traced run, the input whose
# Cholesky factor the run writes to L.csv or None); inputs are read from
# the directory above the one the command runs in
CASES = {
    "generate": (["generate", "--n", "25", "--count", "20", "--seed", "7", "--out", "g"], 0,
                 {"randcorr.generate_batch": 1, "cli.render_table": 1}, None),
    **{f"decompose-{method}-{kind}": (
        ["decompose", f"../{kind}.csv", "--method", method, "--check", "--out", "L.csv",
         *["--covariance"] * (kind == "covariance")], 0,
        {"cli.load_table": 1, f"matrix_core.{container}": 1, **ROUTES, "cli.render_table": 1},
        kind)
       for method in ("reference", "semipartial", "detratio")
       for kind, container in (("correlation", "CorrelationMatrix"),
                               ("covariance", "CovarianceMatrix"))},
    "decompose-indefinite": (["decompose", "../indefinite.csv", "--check"], 3,
                             {"cli.load_table": 1, "matrix_core.CorrelationMatrix": 1}, None),
    "verify": (["verify", "../correlation.csv"], 0,
               {"cli.load_table": 1, "identities.check_order_conditions": 1,
                "matrix_core.CorrelationMatrix": 1, "parametrizations.chol_semipartial": 1,
                **VERIFIERS}, None),
    "test": (["test", "../samples.csv"], 0,
             {"cli.load_table": 1, "dependence_test.SampleMatrix": 1,
              "dependence_test.sequential_test": 1, "matrix_core.CorrelationMatrix": 1,
              "parametrizations.chol_semipartial": 1},
             None),
}


def run(argv, workdir, capsys, monkeypatch):
    """Exit code, stdout, stderr and every file written of ``cli.main(argv)``
    run in the new directory ``workdir``."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    files = {p.relative_to(workdir).as_posix(): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return code, out, err, files


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_cli_runs_as_untraced(tmp_path, capsys, monkeypatch, case):
    """The tracer rebinds every traced name (aliases and ``ALL_VERIFIERS``
    too) to a plain function in every cholcorr module. The CLI must run
    the same through those wrappers, and enter each traced layer as often
    as the command calls it: once per factor route for decompose --check."""
    argv, code, expected, factored = CASES[case]
    tables = input_tables()
    for name, table in tables.items():
        np.savetxt(tmp_path / f"{name}.csv", table, fmt="%.17g", delimiter=",")
    spans = load_spans(monkeypatch)
    untraced = run(argv, tmp_path / "untraced", capsys, monkeypatch)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = run(argv, tmp_path / "traced", capsys, monkeypatch)
    assert traced == untraced
    assert untraced[0] == code
    assert collections.Counter(span.name for span in tracer.spans) == expected
    assert not tracer.missing
    if factored:
        written = np.loadtxt(tmp_path / "traced" / "L.csv", delimiter=",")
        np.testing.assert_allclose(written, np.linalg.cholesky(tables[factored]), atol=1e-9)
