"""Random positive-definite correlation matrices from ordered uniforms.

The generator writes down a Cholesky factor directly, choosing the
determinant ladder of every row instead of the entries themselves:

1. Diagonals. Draw n-1 uniforms on (0, 1], sort them decreasingly as
   targets for the leading-minor sequence D_2 >= ... >= D_n, and set
   l_11 = 1, l_22 = sqrt(D_2), l_jj = sqrt(D_j / D_{j-1}).
2. Rows. For each row j, take the ladder 1 = U_(1) >= U_(2) >= ... >=
   U_(j) = l_jj^2, where the j-2 interior values are uniforms drawn on
   (l_jj^2, 1] and sorted decreasingly, and set
   l_ji = sqrt(U_(i) - U_(i+1)). The row telescopes to unit norm.
3. Signs. Flip each strictly-lower entry negative with probability
   1 - sign_bias, independently.
4. Return L and R = L L^T.

Because the ladders are non-increasing and positive by construction, the
result is always positive-definite, and the determinant of R equals the
smallest uniform drawn in step 1.

Determinism contract
--------------------
Streams are numpy PCG64 generators keyed by ``SeedSequence``. A matrix
takes its ``n(n-1)`` uniforms in one ``rng.random`` call, in a fixed
order: ``n-1`` for step 1, then ``j-2`` per row for j = 3..n in
increasing j, then ``n(n-1)/2`` for step 3 (row-major over
strictly-lower positions). On one PCG64 stream consecutive ``random``
calls equal one call of their total length, so this is the same stream
and order as one call per step and row. Uniforms on (a, b] are realized
as ``b - (b - a) * u`` with ``u`` on [0, 1). Batch element k uses the
substream ``SeedSequence(seed, spawn_key=(k,))``, so it does not depend
on the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import CholeskyFactor, CorrelationMatrix


@dataclass(frozen=True)
class GeneratorConfig:
    """Dimension, seed and sign bias for the generator.

    ``sign_bias`` is the probability that an off-diagonal factor entry
    keeps a positive sign; 0.5 reproduces the symmetric coin flip.
    """

    n: int
    seed: int
    sign_bias: float = 0.5

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if not 0.0 <= self.sign_bias <= 1.0:
            raise ValueError("sign_bias must lie in [0, 1]")


def stream(seed: int, index: int | None = None) -> np.random.Generator:
    """Deterministic PCG64 stream for ``seed``; with ``index`` given, the
    per-element substream ``SeedSequence(seed, spawn_key=(index,))``."""
    if index is None:
        ss = np.random.SeedSequence(seed)
    else:
        ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def generate(cfg: GeneratorConfig, rng: np.random.Generator | None = None):
    """One random factor and its correlation matrix.

    Returns ``(l, r)`` with ``l`` the generated lower factor (unit row
    norms up to rounding) and ``r`` the assembled correlation matrix,
    which always passes positive-definite construction.
    """
    n = cfg.n
    if rng is None:
        rng = stream(cfg.seed)
    entries = np.zeros((n, n))
    entries[0, 0] = 1.0
    if n > 1:
        u = rng.random(n * (n - 1))
        half = n * (n - 1) // 2
        draws = np.sort(1.0 - u[: n - 1])[::-1]
        targets = np.concatenate(([1.0], draws))  # D_1 = 1, D_j = U_(j)
        ljj_sq = targets[1:, None] / targets[:-1, None]  # row j-2 is l_jj^2
        # row j-2 holds the j-2 interior draws of row j, padded with -1 so
        # that the descending sort leaves the pads behind them; the pads turn
        # into l_jj^2 only after the sort, as a draw can round a hair below it
        lower = np.tri(n - 1, k=-1, dtype=bool)
        inner = np.zeros((n - 1, n - 1))
        inner[lower] = u[n - 1 : half]
        inner = np.where(lower, 1.0 - (1.0 - ljj_sq) * inner, -1.0)
        inner.sort(axis=1)
        ladders = np.ones((n - 1, n))
        ladders[:, 1:] = np.where(lower, inner[:, ::-1], ljj_sq)
        entries[1:, :-1] = np.sqrt(ladders[:, :-1] - ladders[:, 1:])
        entries[1:, 1:][np.diag_indices(n - 1)] = np.sqrt(ljj_sq[:, 0])
        entries[np.tri(n, k=-1, dtype=bool)] *= np.where(u[half:] < cfg.sign_bias, 1.0, -1.0)
    factor = CholeskyFactor(entries)
    return factor, CorrelationMatrix(factor.reconstruct())


def generate_batch(cfg: GeneratorConfig, count: int) -> list[CorrelationMatrix]:
    """``count`` matrices on per-index substreams of ``cfg.seed``.

    Element k is what ``generate`` produces on substream k, so a longer
    batch with the same seed extends a shorter one elementwise.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return [generate(cfg, rng=stream(cfg.seed, k))[1] for k in range(count)]
