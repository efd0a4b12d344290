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


def _lags(n: int) -> np.ndarray:
    """The n x n integer array |i - j|."""
    idx = np.arange(n)
    return np.abs(np.subtract.outer(idx, idx))


def ar1_matrix(spec: Ar1Spec) -> CorrelationMatrix:
    """Correlation matrix with entries rho^|i-j|."""
    return CorrelationMatrix(float(spec.rho) ** _lags(spec.n))


def ar1_cholesky(spec: Ar1Spec) -> CholeskyFactor:
    """Closed-form factor of the AR(1) matrix, built in O(n^2): the lower
    triangle of rho^|i-j| with every column after the first scaled by
    sqrt(1 - rho^2)."""
    rho = float(spec.rho)
    entries = np.tril(rho ** _lags(spec.n))
    entries[:, 1:] *= np.sqrt(1.0 - rho * rho)
    return CholeskyFactor(entries)


def sample_mvn(l: CholeskyFactor, count: int, seed: int) -> np.ndarray:
    """``count`` independent draws of L X with X standard normal, one row
    per draw. Deterministic per seed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = stream(seed)
    x = rng.standard_normal((count, l.n))
    return x @ l.entries.T
