"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed changes
from one op to the next by 20-40 % as neighbours load it. CPU time
changes with wall time, so the slowdown is in the core itself, not in
scheduling, and a median over a whole run still moves with the share of
slow spells in that run.

To keep that out of the timings, a fixed ``kernel`` runs right before and
right after each timed op or spawn (outside its timing), and the op's
time is divided by ``slowdown``: the kernel's time around the op over
``REFERENCE_S``. Each reported time is thus the op's wall-clock time
rescaled to a host on which the kernel takes ``REFERENCE_S``.

The kernel touches no cholcorr code, so a change to cholcorr cannot move
it, and it runs with the cyclic garbage collector off, so it never pays
for garbage an op left behind. It mixes the kinds of work cholcorr's ops
are made of: interpreted float loops and dict/str handling, many small
numpy calls and a small LAPACK factorisation, and float formatting.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU Intel Xeon VM the bounds were set on.
# Any fixed value would do; this one keeps reported times near raw ones.
REFERENCE_S = 0.0046

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((32, 32))
_SPD = _A @ _A.T + 32.0 * np.eye(32)
_ROW = _A.ravel()[:400].tolist()


def kernel() -> None:
    total = 0.0
    for i in range(12000):
        total += (i * 0.5) % 7.0
    table = {}
    for i in range(3000):
        table[str(i)] = i
    for _ in range(120):
        np.linalg.cholesky(_SPD)
        _SPD[3:9, 3:9].sum()
    ",".join(f"{x:.17g}" for x in _ROW)


def sample(runs: int = 1) -> float:
    """Median seconds of ``runs`` back-to-back runs of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference host the host was around an op,
    from kernel samples taken right before and right after it."""
    return (before + after) / (2.0 * REFERENCE_S)
