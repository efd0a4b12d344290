"""Check the complexity that docstrings claim against timings.

For each stage the script makes one untimed call, then times best-of-k
calls at n = 100, 200, 400 and 800, fits the slope of log(time) against
log(n) by least squares, and prints it next to the exponent claimed for
the stage:

- ``_schur_steps``, ``chol_semipartial``: O(n^3), in their docstrings;
- ``CorrelationMatrix``: O(n^3), the reference factorization it runs;
- ``chain_walk``, the walk of the leading blocks that
  ``identities.verify`` makes, timed as ``identities._chain`` on a fresh
  container: O(n^4), in the ``identities`` docstring. It stops at
  n = 400: one walk took 0.78 s at n = 400 and 9.4 s at n = 800 (a
  shared 2-core x86-64 host with AVX-512, one BLAS thread);
- ``ar1_cholesky``: O(n^2), in its docstring;
- ``render_table`` (CSV): no claim, shown as ``-``.

Inputs are normalised A A^T with A an n x 2n standard normal matrix
from a fixed seed. BLAS is pinned to one thread, as in the benchmark.
The script writes nothing; it is a diagnostic, not a gate, and a fitted
slope moves by a few tenths between runs on a shared host. With the
defaults, the untimed calls included, it ran in 9.7 s on that host
while its walk at n = 100 read 13.6 ms, so the host was busier than
for the figures above.

Run from anywhere:

    python3 tools/growth.py [--reps K] [--sizes N ...]
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cholcorr.ar1_sampling import Ar1Spec, ar1_cholesky  # noqa: E402
from cholcorr.cli import render_table  # noqa: E402
from cholcorr.identities import _chain  # noqa: E402
from cholcorr.matrix_core import CorrelationMatrix, _schur_steps  # noqa: E402
from cholcorr.parametrizations import chol_semipartial  # noqa: E402

SIZES = (100, 200, 400, 800)
WALK_MAX_N = 400


def correlation(n: int) -> np.ndarray:
    a = np.random.default_rng(n).standard_normal((n, 2 * n))
    s = a @ a.T
    d = 1.0 / np.sqrt(np.diag(s))
    c = s * np.outer(d, d)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


def fresh(build):
    """A call of ``build`` on a fresh container of the input, built untimed."""
    return lambda a: functools.partial(build, CorrelationMatrix(a))


# name, claimed exponent (None: no claim), largest n (None: every size), and
# a function of the input matrix that returns the call to time
STAGES = [
    ("_schur_steps", 3, None, lambda a: functools.partial(_schur_steps, a)),
    ("chol_semipartial", 3, None, fresh(chol_semipartial)),
    ("CorrelationMatrix", 3, None, lambda a: functools.partial(CorrelationMatrix, a)),
    ("chain_walk", 4, WALK_MAX_N, fresh(_chain)),
    ("ar1_cholesky", 2, None,
     lambda a: functools.partial(ar1_cholesky, Ar1Spec(n=len(a), rho=0.5))),
    ("render_table", None, None, lambda a: functools.partial(render_table, a, "csv")),
]


def best_of(prepare, a: np.ndarray, reps: int) -> float:
    """Fastest of ``reps`` calls, each on what ``prepare`` builds afresh,
    after one untimed call that takes the first call's warm-up."""
    prepare(a)()
    best = math.inf
    for _ in range(reps):
        call = prepare(a)
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def slope(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(n)."""
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=3, help="calls per size; the fastest counts")
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES, help="matrix sizes n")
    args = parser.parse_args(argv)
    sizes = sorted(args.sizes)
    inputs = {n: correlation(n) for n in sizes}
    print(f"{'stage':<24} {'claimed':>7} {'fitted':>6}  " + " ".join(f"{f'n={n} ms':>11}" for n in sizes))
    for name, claimed, max_n, prepare in STAGES:
        ns = [n for n in sizes if max_n is None or n <= max_n]
        seconds = [best_of(prepare, inputs[n], args.reps) for n in ns]
        fitted = f"{slope(ns, seconds):.2f}" if len(ns) > 1 else "-"
        cells = [f"{s * 1e3:11.3f}" for s in seconds] + [f"{'-':>11}"] * (len(sizes) - len(ns))
        print(f"{name:<24} {claimed if claimed else '-':>7} {fitted:>6}  " + " ".join(cells),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
