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

Distribution
------------
The output is not uniform over correlation matrices, and its law depends
on variable position. The step-1 targets D_2 >= ... >= D_n are n-1
independent uniforms on (0, 1], sorted. r_12 = l_21 and
l_21^2 = 1 - D_2, one minus the largest, so r_12^2 ~ Beta(1, n-1).
det R = D_n, the smallest, so P(det R <= x) = 1 - (1 - x)^(n-1). Later
rows split their unit norm over more ladder steps, so r_{n-1,n} has
another law than r_12. Callers who need draws that are exchangeable in
the variables permute each matrix themselves (P R P^T for a random
permutation P); the generator has no option for it.

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

A batch is computed as chunked stacks: each chunk of at most
``_CHUNK_FLOATS`` floats per stacked array (at least one matrix) draws
its elements' uniforms, builds their factors with the steps above along
a leading axis, and validates their correlation matrices in one pass.
The steps are elementwise, so every byte equals what element-by-element
generation gives; the chunk bounds peak memory, and at large n a chunk
is one matrix.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import CholeskyFactor, CorrelationMatrix, _correlation_stack, _Record

_CHUNK_FLOATS = 2**16  # floats per stacked array in a batch chunk


class GeneratorConfig(_Record):
    """Dimension, seed and sign bias for the generator.

    ``sign_bias`` is the probability that an off-diagonal factor entry
    keeps a positive sign; 0.5 reproduces the symmetric coin flip.
    """

    __slots__ = ("n", "seed", "sign_bias")

    def __init__(self, n: int, seed: int, sign_bias: float = 0.5):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if not 0.0 <= sign_bias <= 1.0:
            raise ValueError("sign_bias must lie in [0, 1]")
        self._set(n, seed, sign_bias)


def stream(seed: int, index: int | None = None) -> np.random.Generator:
    """Deterministic PCG64 stream for ``seed``; with ``index`` given, the
    per-element substream ``SeedSequence(seed, spawn_key=(index,))``."""
    ss = np.random.SeedSequence(seed, spawn_key=() if index is None else (index,))
    return np.random.Generator(np.random.PCG64(ss))


def _chunks(n: int, count: int) -> list[range]:
    """The index ranges, in order, that cut a batch of ``count`` n x n
    arrays into stacks of at most ``_CHUNK_FLOATS`` floats (at least one
    array each): the chunks the batch is generated on, and rendered on by
    the CLI's ``generate``."""
    step = max(1, _CHUNK_FLOATS // n**2)
    return [range(start, min(start + step, count)) for start in range(0, count, step)]


def _factor_entries(u: np.ndarray, n: int, sign_bias: float) -> np.ndarray:
    """The (k, n, n) stack of factor entries built from a (k, n(n-1))
    stack of uniforms, row k holding one matrix's draws in contract order."""
    count = u.shape[0]
    entries = np.zeros((count, n, n))
    entries[:, 0, 0] = 1.0
    half = n * (n - 1) // 2
    draws = np.sort(1.0 - u[:, : n - 1], axis=-1)[:, ::-1]
    targets = np.concatenate((np.ones((count, 1)), draws), axis=-1)  # D_1 = 1, D_j = U_(j)
    ljj_sq = (targets[:, 1:] / targets[:, :-1])[..., None]  # row j-2 is l_jj^2
    # row j-2 holds the j-2 raw interior draws of row j, padded with 2 so
    # that the ascending sort leaves the pads behind them; the map onto
    # (l_jj^2, 1] is non-increasing under rounding, so it turns the sorted
    # draws into the decreasing ladder, and the pads become l_jj^2
    lower = np.broadcast_to(np.tri(n - 1, k=-1, dtype=bool), (count, n - 1, n - 1))
    inner = np.full(lower.shape, 2.0)
    inner[lower] = u[:, n - 1 : half].ravel()
    inner.sort(axis=-1)
    ladders = np.ones((count, n - 1, n))
    ladders[..., 1:] = np.where(lower, 1.0 - (1.0 - ljj_sq) * inner, ljj_sq)
    del inner  # a chunk's live temporaries set the batch's peak memory
    entries[:, 1:, :-1] = np.sqrt(ladders[..., :-1] - ladders[..., 1:])
    del ladders
    np.einsum("...ii->...i", entries[:, 1:, 1:])[...] = np.sqrt(ljj_sq[..., 0])
    strict = np.broadcast_to(np.tri(n, k=-1, dtype=bool), entries.shape)
    entries[strict] *= np.where(u[:, half:] < sign_bias, 1.0, -1.0).ravel()
    return entries


def _generate(cfg: GeneratorConfig, rngs: list[np.random.Generator]):
    """Factor entries and correlation matrices of one stack, element k
    drawing its uniforms from ``rngs[k]``."""
    n = cfg.n
    entries = _factor_entries(np.stack([rng.random(n * (n - 1)) for rng in rngs]), n, cfg.sign_bias)
    return entries, _correlation_stack(entries @ np.swapaxes(entries, -1, -2))


def generate(cfg: GeneratorConfig, rng: np.random.Generator | None = None):
    """One random factor and its correlation matrix.

    Returns ``(l, r)`` with ``l`` the generated lower factor (unit row
    norms up to rounding) and ``r`` the assembled correlation matrix,
    which always passes positive-definite construction.
    """
    entries, matrices = _generate(cfg, [stream(cfg.seed) if rng is None else rng])
    return CholeskyFactor(entries[0]), matrices[0]


def generate_batch(cfg: GeneratorConfig, count: int) -> list[CorrelationMatrix]:
    """``count`` matrices on per-index substreams of ``cfg.seed``.

    Element k is what ``generate`` produces on substream k, so a longer
    batch with the same seed extends a shorter one elementwise.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    out = []
    for chunk in _chunks(cfg.n, count):
        out += _generate(cfg, [stream(cfg.seed, k) for k in chunk])[1]
    return out
