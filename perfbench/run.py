"""Closed-loop benchmark of the cholcorr CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {factor,generate,verify_test} \
        --seed N --seconds S --trace {0,1}

One client in one process runs ops back to back through
``cholcorr.cli.main(argv)``, with stdout and stderr captured in memory and
files written under a scratch directory in the checkout. Each op's
outputs are checked; the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, their times rescaled to a reference
host speed (see calibrate.py); with ``--trace 1`` a separate run
records spans and reports the per-layer ones. See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Pin BLAS threads before numpy loads, in this process and in every spawn:
# with two cores, threaded BLAS doubles the p90 of the factor routes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import POOL, WORKLOADS, Generate, Outcome, random_correlation  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP_OPS = POOL  # one pass over each input pool; the first factor call is ~100x slower
MIN_OPS = 100      # so that p90 has ten ops beyond it
COLD_SPAWNS = 24   # fresh interpreters per run, for setup_s and cold_run_s
SPAWN_TIMEOUT_S = 60
SPAWN_KERNEL_RUNS = 3  # calibration kernel runs on each side of a spawn

# Runs one CLI command in a fresh interpreter like ``python -m cholcorr.cli``,
# stamping the moment ``cholcorr.cli`` has been imported on stderr's first line.
BOOTSTRAP = (
    "import sys, time\n"
    "import cholcorr.cli\n"
    "sys.stderr.write('perfbench-imported %r\\n' % time.monotonic())\n"
    "sys.exit(cholcorr.cli.main())\n"
)
MARKER = "perfbench-imported "


class Run:
    """Counts attempted and failed ops and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, failure: str | None) -> bool:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {failure}")
        return failure is None


def call_main(main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return Outcome(code, out.getvalue(), err.getvalue())


def check_op(workload, k: int, outcomes: list[Outcome]) -> str | None:
    try:
        return workload.check(k, outcomes)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
        return f"output check: {type(exc).__name__}: {exc}"


def op_in_process(workload, k: int, main, tracer: spans.Tracer | None = None):
    """Run op ``k``; return (seconds, failure or None)."""
    workload.reset()
    steps = workload.steps(k)

    def body():
        return [call_main(main, step.argv) for step in steps]

    start = time.perf_counter()
    try:
        outcomes = tracer.run_op(k, body) if tracer else body()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, check_op(workload, k, outcomes)


def spawn_env() -> dict:
    """Environment of every spawn: the checkout's sources on the path, and
    bytecode caching on even where the caller turned it off, so spawns
    load cholcorr's bytecode the way an installed package would."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def op_cold(workload, k: int, env: dict):
    """Run op ``k`` as one fresh interpreter per command; return (setup
    seconds of each spawn, spawn-to-exit seconds of the op, failure).
    Times are rescaled to the reference host speed (see calibrate.py)
    by kernel runs right before and right after each spawn."""
    workload.reset()
    setups, total, outcomes = [], 0.0, []
    for step in workload.steps(k):
        before = calibrate.sample(SPAWN_KERNEL_RUNS)
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", BOOTSTRAP, *step.argv], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S)
        end = time.monotonic()
        slowdown = calibrate.slowdown(before, calibrate.sample(SPAWN_KERNEL_RUNS))
        total += (end - start) / slowdown
        first, _, rest = proc.stderr.partition("\n")
        if not first.startswith(MARKER):
            return setups, total, f"spawn exited {proc.returncode} before importing: {proc.stderr[-300:]}"
        setups.append((float(first[len(MARKER):]) - start) / slowdown)
        outcomes.append(Outcome(proc.returncode, proc.stdout, rest))
    return setups, total, check_op(workload, k, outcomes)


def import_cli():
    """Import ``cholcorr.cli`` from the checkout's ``src``, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import cholcorr.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: cholcorr imported from {cli.__file__}, not {SRC}")
    return cli


def warm_up(workload, work: Path, cli, run: Run) -> None:
    for k in range(WARMUP_OPS):
        _, failure = op_in_process(workload, k, cli.main)
        run.record(f"warm-up op {k}", failure)
    if isinstance(workload, Generate):
        outcome = call_main(cli.main, workload.golden_step(work).argv)
        run.record("golden generate", workload.golden_check(work, outcome))
    gc.collect()


class ClosedLoop:
    """One client calling ``op(k) -> (seconds, failure)`` back to back.
    Output checks run between ops and are not charged to any op.

    A ``calibrated`` loop also runs the calibration kernel between ops
    and keeps each op's latency rescaled to the reference host speed,
    from the kernel runs right before and right after it (see
    calibrate.py); ``busy`` then sums rescaled latencies."""

    def __init__(self, run: Run, op, first_k: int, calibrated: bool = False):
        self.run, self.op, self.k = run, op, first_k
        self.calibrated = calibrated
        self.latencies: list[float] = []  # as measured
        self.scaled: list[float] = []     # at reference host speed
        self.completed = 0
        self.busy = 0.0      # summed scaled latency of completed ops
        self.elapsed = 0.0   # loop wall time so far, checks included

    def run_until(self, seconds: float, min_ops: int = 0) -> None:
        """Run ops until the loop has run ``seconds`` in total and has
        made at least ``min_ops`` ops."""
        start = time.perf_counter() - self.elapsed
        before = calibrate.sample() if self.calibrated else 0.0
        while time.perf_counter() - start < seconds or len(self.latencies) < min_ops:
            elapsed, failure = self.op(self.k)
            slowdown = 1.0
            if self.calibrated:
                after = calibrate.sample()
                slowdown, before = calibrate.slowdown(before, after), after
            self.latencies.append(elapsed)
            self.scaled.append(elapsed / slowdown)
            if self.run.record(f"op {self.k}", failure):
                self.completed += 1
                self.busy += elapsed / slowdown
            self.k += 1
        self.elapsed = time.perf_counter() - start


def end_to_end(workload, work: Path, seconds: float, run: Run) -> dict:
    cli = import_cli()
    warm_up(workload, work, cli, run)
    env = spawn_env()
    op_cold(workload, 0, env)  # discarded: fills the page cache and writes bytecode
    loop = ClosedLoop(run, lambda k: op_in_process(workload, k, cli.main), WARMUP_OPS,
                      calibrated=True)
    setups, colds = [], []
    # Cold ops are spread over the run, between stretches of the loop, so
    # that both sample the same spells of machine load.
    cold_ops = -(-COLD_SPAWNS // len(workload.steps(0)))
    for i in range(cold_ops):
        op_setups, total, failure = op_cold(workload, i, env)
        run.record(f"cold op {i}", failure)
        setups += op_setups
        colds.append(total)
        loop.run_until(seconds * (i + 1) / cold_ops, MIN_OPS if i == cold_ops - 1 else 0)
    deciles = statistics.quantiles(loop.scaled, n=10)
    raw = statistics.quantiles(loop.latencies, n=10)
    print(f"unscaled loop latency: p50 {1e3 * statistics.median(loop.latencies):.6g} ms, "
          f"p90 {1e3 * raw[8]:.6g} ms")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cold_run_s": (statistics.median(colds), "s"),
        "ops_per_s": (loop.completed / loop.busy if loop.busy else 0.0, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(loop.scaled), "ms"),
        "latency_p90_ms": (1e3 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def sweep_cases(cli, seed: int) -> dict:
    from cholcorr.matrix_core import CorrelationMatrix
    from cholcorr.parametrizations import chol_detratio, chol_semipartial, extract_signs
    from cholcorr.randcorr import GeneratorConfig, generate

    rng = np.random.default_rng([seed, 9])
    matrices = {n: random_correlation(rng, n) for n in spans.SWEEP_SIZES}

    def detratio(n):
        m = CorrelationMatrix(matrices[n])
        return chol_detratio, m, extract_signs(chol_semipartial(m))

    return {
        "parametrizations.chol_semipartial":
            lambda n: (chol_semipartial, CorrelationMatrix(matrices[n])),
        "parametrizations.chol_detratio": detratio,
        "matrix_core.CorrelationMatrix": lambda n: (CorrelationMatrix, matrices[n]),
        "cli.render_table": lambda n: (cli.render_table, matrices[n], "csv"),
        "randcorr.generate": lambda n: (generate, GeneratorConfig(n=n, seed=seed)),
    }


def per_layer(workload, work: Path, seconds: float, seed: int, run: Run) -> dict:
    cli = import_cli()
    warm_up(workload, work, cli, run)
    tracer = spans.Tracer()
    untraced = []

    def alternate(k):
        # Traced and untraced ops alternate, so drift in machine speed during
        # the run does not show up as tracing overhead. The phase flips after
        # each pass over the pool, so every input is traced equally often.
        if (k + k // POOL) % 2:
            with spans.instrument(tracer):
                return op_in_process(workload, k, cli.main, tracer)
        elapsed, failure = op_in_process(workload, k, cli.main)
        untraced.append(elapsed)
        return elapsed, failure

    ClosedLoop(run, alternate, WARMUP_OPS).run_until(seconds, MIN_OPS)
    metrics = spans.layer_metrics(tracer.spans, statistics.median(untraced))
    gc.collect()
    metrics.update(spans.sweep(sweep_cases(cli, seed)))
    metrics.update(spans.import_breakdown(sys.executable, spawn_env(), str(ROOT)))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cholcorr" / "cli.py").is_file():
        print(f"perfbench: no cholcorr sources under {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / "perfbench" / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    run = Run()
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            metrics = per_layer(workload, work, args.seconds, args.seed, run)
        else:
            metrics = end_to_end(workload, work, args.seconds, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in run.errors:
        print(f"perfbench: failed {error}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={run.attempted} failed={run.failed} "
          f"failed_share={run.failed / run.attempted:.4g}"
          + (f" check_exits={workload.check_exits}" if hasattr(workload, "check_exits") else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:12.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
