"""Lag-one autoregressive correlation structure and normal samplers.

The AR(1) matrix has entries rho^|i-j| and a closed-form factor that
needs no factorization: column 1 is rho^(j-1), and below that
l_ji = rho^(j-i) sqrt(1 - rho^2). Multiplying the factor into a vector of
independent standard normals yields normals with exactly this
autocorrelation, which is also how the general sampler works for any
lower factor.

Normal variates come from numpy's generator on a PCG64 stream, so samples
are reproducible per seed within this package; bit-equality across
languages is only promised for the uniform pipelines.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import CholeskyFactor, CorrelationMatrix, _Record
from .randcorr import stream


class Ar1Spec(_Record):
    """Dimension and lag-one coefficient, |rho| strictly below 1."""

    __slots__ = ("n", "rho")

    def __init__(self, n: int, rho: float):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if not abs(rho) < 1.0:
            raise ValueError(f"|rho| must be < 1, got {rho}")
        self._set(n, rho)


def ar1_matrix(spec: Ar1Spec) -> CorrelationMatrix:
    """Correlation matrix with entries rho^|i-j|."""
    idx = np.arange(spec.n)
    lags = np.abs(np.subtract.outer(idx, idx))
    return CorrelationMatrix(float(spec.rho) ** lags)


def ar1_cholesky(spec: Ar1Spec) -> CholeskyFactor:
    """Closed-form factor of the AR(1) matrix, built in O(n^2)."""
    n, rho = spec.n, float(spec.rho)
    powers = rho ** np.arange(n)
    entries = np.zeros((n, n))
    entries[:, 0] = powers
    tail = np.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        entries[i:, i] = powers[: n - i] * tail
    return CholeskyFactor(entries)


def sample_mvn(l: CholeskyFactor, count: int, seed: int) -> np.ndarray:
    """``count`` independent draws of L X with X standard normal, one row
    per draw. Deterministic per seed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = stream(seed)
    x = rng.standard_normal((count, l.n))
    return x @ l.entries.T
