"""Tracing for the benchmark's traced run: in-memory spans around the
public calls each CLI subcommand makes, the n-sweep, and the import
breakdown.

Spans are recorded from the benchmark's side only. ``instrument`` swaps
each traced function for a timing wrapper in every ``cholcorr`` module
namespace that binds it, so an op still runs through ``cli.main`` and
calls made inside the library (``generate_batch`` building 20
``CorrelationMatrix`` objects, ``chol_covariance`` calling
``chol_semipartial``) get spans as well. The originals are put back when
the context exits.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# Span name -> (module, attribute) of each traced public call.
LAYERS = {
    "cli.render_table": ("cholcorr.cli", "render_table"),
    "cli.load_table": ("cholcorr.cli", "load_table"),
    "matrix_core.CorrelationMatrix": ("cholcorr.matrix_core", "CorrelationMatrix"),
    "matrix_core.CovarianceMatrix": ("cholcorr.matrix_core", "CovarianceMatrix"),
    "matrix_core.reference_cholesky": ("cholcorr.matrix_core", "reference_cholesky"),
    "parametrizations.chol_semipartial": ("cholcorr.parametrizations", "chol_semipartial"),
    "parametrizations.chol_detratio": ("cholcorr.parametrizations", "chol_detratio"),
    "parametrizations.chol_covariance": ("cholcorr.parametrizations", "chol_covariance"),
    "parametrizations.extract_signs": ("cholcorr.parametrizations", "extract_signs"),
    "randcorr.generate_batch": ("cholcorr.randcorr", "generate_batch"),
    "identities.check_order_conditions": ("cholcorr.identities", "check_order_conditions"),
    "identities.verify_product_sums": ("cholcorr.identities", "verify_product_sums"),
    "identities.verify_recursion": ("cholcorr.identities", "verify_recursion"),
    "identities.verify_ratio_differences": ("cholcorr.identities", "verify_ratio_differences"),
    "identities.verify_general_recursion": ("cholcorr.identities", "verify_general_recursion"),
    "dependence_test.SampleMatrix": ("cholcorr.dependence_test", "SampleMatrix"),
    "dependence_test.sequential_test": ("cholcorr.dependence_test", "sequential_test"),
}
# Layers whose call count per op is reported, because a change can alter it.
COUNTED = ("matrix_core.CorrelationMatrix", "parametrizations.chol_semipartial")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an op's root span
    op: int


class Tracer:
    """Collects spans in memory; one root span named ``op`` per op."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1
        self.missing: set[str] = set()  # layers the code no longer has

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)

        return traced

    def run_op(self, op: int, fn, *args):
        self.op = op
        return self.wrap("op", fn)(*args)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced call in the loaded ``cholcorr`` modules through
    ``tracer`` until the context exits. A layer the code no longer has is
    skipped (its metrics then read 0) and named on stderr."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cholcorr" or name.startswith("cholcorr."))]
    wrapped = {}
    for span, (modname, attr) in LAYERS.items():
        original = getattr(sys.modules.get(modname), attr, None)
        if original is None:
            if span not in tracer.missing:
                tracer.missing.add(span)
                print(f"perfbench: {modname}.{attr} not found, not traced", file=sys.stderr)
            continue
        wrapped[id(original)] = (original, tracer.wrap(span, original))
    saved = []
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                saved.append((module, key, value))
                setattr(module, key, wrapped[id(value)][1])
            elif key == "ALL_VERIFIERS":  # cmd_verify calls the verifiers through this table
                saved.append((module, key, value))
                setattr(module, key, tuple(
                    (name, wrapped.get(id(fn), (fn, fn))[1], min_n) for name, fn, min_n in value))
    try:
        yield
    finally:
        for module, key, value in reversed(saved):
            setattr(module, key, value)


def layer_metrics(spans: list[Span], untraced_p50_s: float) -> dict[str, tuple[float, str]]:
    """Per-op time (inclusive) and call counts per layer, the share of op
    time no layer span covers, and the tracing overhead at the median."""
    roots = {i: s for i, s in enumerate(spans) if s.parent == -1}
    ops = len(roots)
    total = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    covered = 0.0
    for s in spans:
        if s.parent == -1:
            continue
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.parent in roots:
            covered += s.end - s.start
    op_time = sum(s.end - s.start for s in roots.values())
    traced_p50 = statistics.median(s.end - s.start for s in roots.values())
    out = {f"{name}_ms": (1e3 * total[name] / ops, "ms") for name in LAYERS}
    out.update({f"{name}_calls": (calls[name] / ops, "count") for name in COUNTED})
    out["trace.unaccounted_share"] = (1.0 - covered / op_time, "share")
    out["trace.overhead_share"] = (traced_p50 / untraced_p50_s - 1.0, "share")
    return out


SWEEP_SIZES = (50, 100, 200, 400)


def time_call(fn, *args, min_reps: int = 3, budget_s: float = 0.3) -> float:
    """Median wall time of ``fn(*args)`` over at least ``min_reps`` calls,
    repeating until ``budget_s`` has been spent (at most 50 calls)."""
    times = []
    spent = 0.0
    while len(times) < min_reps or (spent < budget_s and len(times) < 50):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def growth_exponent(t_small: float, t_large: float, n_small: int, n_large: int) -> float:
    return math.log(t_large / t_small) / math.log(n_large / n_small)


def sweep(cases) -> dict[str, tuple[float, str]]:
    """``cases`` maps a metric prefix to ``make(n) -> (fn, *args)``. Prints
    the time at every size; reports the growth exponent fitted on the two
    largest sizes, where Python-loop overhead no longer flattens the slope,
    and the time at the largest size."""
    out = {}
    for prefix, make in cases.items():
        times = [time_call(*make(n)) for n in SWEEP_SIZES]
        print(f"sweep {prefix}: " + ", ".join(
            f"n={n} {1e3 * t:.3f} ms" for n, t in zip(SWEEP_SIZES, times)))
        out[f"{prefix}.growth_exp"] = (
            growth_exponent(times[-2], times[-1], SWEEP_SIZES[-2], SWEEP_SIZES[-1]), "exponent")
        out[f"{prefix}.n{SWEEP_SIZES[-1]}_ms"] = (1e3 * times[-1], "ms")
    return out


# Import-time groups: metric -> module prefix whose import subtree is summed.
IMPORT_GROUPS = {
    "import.numpy_ms": "numpy",
    "import.scipy_linalg_ms": "scipy.linalg",
    "import.scipy_special_ms": "scipy.special",
}


def parse_importtime(text: str) -> dict[str, tuple[float, str]]:
    """Split the ``-X importtime`` report of ``import cholcorr.cli``.

    Each line's cumulative time is charged to the group of its topmost
    ancestor (itself included) that belongs to a group, so what a group
    pulls in counts once, for the group that pulled it in: numpy.testing
    imported by scipy.special counts for scipy.special.
    ``import.cholcorr_self_ms`` sums the self time of the cholcorr
    modules; ``import.total_ms`` is the whole ``cholcorr.cli`` import.
    """
    rows = []  # (depth, self_us, cumulative_us, module)
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cum_us, name_field = line.split("|")
        depth = (len(name_field) - len(name_field.lstrip(" ")) - 1) // 2
        rows.append((depth, int(head[len("import time:"):]), int(cum_us), name_field.strip()))

    def group(module):
        return next((metric for metric, prefix in IMPORT_GROUPS.items()
                     if module == prefix or module.startswith(prefix + ".")), None)

    out = {metric: (0.0, "ms") for metric in IMPORT_GROUPS}
    # Lines come in post-order (children first, one level deeper), so read
    # in reverse the ancestors of a line are the stack left after popping.
    stack = []
    for depth, _, cum, module in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        metric = group(module)
        if metric and not any(ancestor_group for _, ancestor_group in stack):
            out[metric] = (out[metric][0] + cum / 1e3, "ms")
        stack.append((depth, metric))
    out["import.cholcorr_self_ms"] = (
        sum(s for _, s, _, m in rows if m.split(".")[0] == "cholcorr") / 1e3, "ms")
    out["import.total_ms"] = (
        next((c for _, _, c, m in rows if m == "cholcorr.cli"), 0) / 1e3, "ms")
    return out


def import_breakdown(python: str, env: dict, cwd: str) -> dict[str, tuple[float, str]]:
    """One fresh ``python -X importtime -c "import cholcorr.cli"`` spawn,
    after an untimed one that writes cholcorr's bytecode if it is missing."""
    argv = [python, "-X", "importtime", "-c", "import cholcorr.cli"]
    subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=60)
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import cholcorr.cli failed: {proc.stderr.strip()[-300:]}")
    return parse_importtime(proc.stderr)
