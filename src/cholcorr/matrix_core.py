"""Dense symmetric-matrix containers and the LAPACK Cholesky factorization
(``dpotrf``) that the rest of the library treats as its reference oracle.

Indexing convention
-------------------
Public indices are 1-based, matching the way correlation formulas are
usually written (``rho_1j`` is the correlation between variables 1 and j);
storage is 0-based numpy. Every function that takes indices states this.

The step-i "pivot" is the Schur complement of the leading (i-1)-block,
equal to the square of the factor's i-th diagonal entry. It is accepted
when it exceeds ``tol_pd`` times a_ii: that ratio is pivot i of the
scaled matrix D^{-1/2} A D^{-1/2}, so the decision does not depend on the
units of the data. Leading principal minors are running products of
pivots, which is numerically sturdier than recursing on the determinant
identity directly; the recursion itself is exercised by the
``identities`` module as a cross-check.

All containers copy and freeze their arrays after validation, so instances
are immutable and safe to share across threads. ``CorrelationMatrix`` and
``CovarianceMatrix`` keep the factor and pivots they were validated with,
which ``reference_cholesky`` and ``leading_minor_determinants`` reuse.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import NotPositiveDefinite, SchurNonPositive

TOL_SYM = 1e-10  # max absolute asymmetry accepted at construction
TOL_PD = 1e-12   # minimum accepted pivot (Schur complement)
TOL_REC = 1e-9   # factor reconstruction tolerance
TOL_EQ = 1e-9    # entrywise agreement tolerance between factor routes

METHOD_TAGS = ("reference", "semipartial", "detratio", "covariance", "ar1")


def _freeze(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def as_array(m) -> np.ndarray:
    """Return the square 2-d float array behind a container or array-like."""
    values = getattr(m, "values", m)
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def symmetry_error(a: np.ndarray) -> float:
    """Largest absolute difference between a matrix and its transpose."""
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


class SquareMatrix:
    """Immutable n x n real matrix with finite entries."""

    def __init__(self, values):
        a = np.array(as_array(values))
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.flags.writeable = False
        self._values = a

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.shape[0]

    def entry(self, i: int, j: int) -> float:
        """Entry at row i, column j (1-based)."""
        return float(self._values[i - 1, j - 1])

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


def _symmetrized(values, tol_sym: float) -> np.ndarray:
    """Finite square input, symmetric within ``tol_sym``, averaged with its
    transpose (a fresh array)."""
    a = as_array(values)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    err = symmetry_error(a)
    if err > tol_sym:
        raise ValueError(f"matrix is not symmetric: max asymmetry {err:.3e}")
    return 0.5 * (a + a.T)


def _store_validated(m: SquareMatrix, sym: np.ndarray, tol_sym: float, tol_pd: float) -> None:
    """Factor ``sym`` (raising ``NotPositiveDefinite`` on failure) and freeze
    it into ``m`` together with its factor and pivots."""
    lower, pivots = _cholesky_pivots(sym, tol_pd)
    for a in (sym, lower, pivots):
        a.flags.writeable = False
    m._values, m._lower, m._pivots = sym, lower, pivots
    m.tol_sym = tol_sym
    m.tol_pd = tol_pd


class CorrelationMatrix(SquareMatrix):
    """Symmetric positive-definite matrix with unit diagonal.

    Construction symmetrizes the input (after checking the asymmetry is
    below ``tol_sym``), sets the diagonal to exactly 1, requires every
    off-diagonal entry to lie strictly inside (-1, 1), and runs the
    reference factorization so that a non-positive-definite input is
    rejected immediately with the failing pivot. The factor is kept.
    """

    def __init__(self, values, *, tol_sym: float = TOL_SYM, tol_pd: float = TOL_PD):
        sym = _symmetrized(values, tol_sym)
        np.fill_diagonal(sym, 1.0)
        off = sym[~np.eye(sym.shape[0], dtype=bool)]
        if off.size and np.max(np.abs(off)) >= 1.0:
            raise ValueError("off-diagonal correlations must lie strictly inside (-1, 1)")
        _store_validated(self, sym, tol_sym, tol_pd)  # raises NotPositiveDefinite on failure

    def prefix(self, i: int, j: int) -> np.ndarray:
        """Correlations (rho_1j, ..., rho_{i-1,j}) between variable j and
        variables 1..i-1 (1-based; length i-1, possibly empty)."""
        return self._values[: i - 1, j - 1]


class CovarianceMatrix(SquareMatrix):
    """Symmetric positive-definite matrix with standard deviations on record.

    ``sigmas[k]`` is the square root of the k-th diagonal entry. Validation
    runs the reference factorization on the matrix itself, with each pivot
    judged relative to its diagonal entry, and keeps the factor.
    """

    def __init__(self, values, *, tol_sym: float = TOL_SYM, tol_pd: float = TOL_PD):
        sym = _symmetrized(values, tol_sym)
        diag = np.diag(sym)
        if np.any(diag <= 0):
            raise ValueError("covariance diagonal must be strictly positive")
        _store_validated(self, sym, tol_sym, tol_pd)
        self._sigmas = _freeze(np.sqrt(diag))

    @property
    def sigmas(self) -> np.ndarray:
        return self._sigmas

    def correlation(self) -> CorrelationMatrix:
        """The correlation matrix obtained by normalizing out the sigmas."""
        d = 1.0 / self._sigmas
        return CorrelationMatrix(self._values * np.outer(d, d), tol_pd=self.tol_pd)


class CholeskyFactor:
    """Lower-triangular factor with strictly positive diagonal.

    ``method`` records which construction produced the factor; it is one
    of ``reference``, ``semipartial``, ``detratio``, ``covariance``, ``ar1``.
    """

    def __init__(self, entries, method: str):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square factor, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("factor entries must be finite")
        if method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {method!r}")
        if np.any(np.triu(a, 1) != 0.0):
            raise ValueError("strict upper triangle must be exactly zero")
        if np.any(np.diag(a) <= 0.0):
            raise ValueError("diagonal entries must be strictly positive")
        a.flags.writeable = False
        self._entries = a
        self.method = method

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def entry(self, j: int, i: int) -> float:
        """Factor entry l_ji at row j, column i (1-based)."""
        return float(self._entries[j - 1, i - 1])

    def reconstruct(self) -> np.ndarray:
        """The product L L^T."""
        return self._entries @ self._entries.T

    def __repr__(self):
        return f"CholeskyFactor(n={self.n}, method={self.method!r})"


def _cholesky_pivots(a: np.ndarray, tol_pd: float):
    """Lower factor and pivot sequence of a symmetric matrix (lower
    triangle read) from one LAPACK ``dpotrf``.

    Pivot i is the Schur complement ``a_ii - sum_k l_ik^2`` (the squared
    diagonal entry). Raises ``NotPositiveDefinite`` at the first 1-based
    index whose pivot fails to exceed ``tol_pd * a_ii``, or at the index
    where ``dpotrf`` stops, whichever comes first.
    """
    lower, info = lapack.dpotrf(a, lower=1, clean=1)
    stop = info if info > 0 else a.shape[0] + 1  # 1-based index dpotrf failed at
    pivots = lower.diagonal()[: stop - 1] ** 2
    _check_pivots(a, lower, pivots, tol_pd)
    return lower, pivots


def _check_pivots(a: np.ndarray, lower: np.ndarray, pivots: np.ndarray, tol_pd: float) -> None:
    """Raise ``NotPositiveDefinite`` unless every one of the n pivots is
    present and exceeds ``tol_pd * a_ii``.

    The first pivot that fails (or the first one missing, where the
    factorization stopped) is reported with its Schur complement
    recomputed from the factor of the leading block before it.
    """
    small = np.flatnonzero(~(pivots > tol_pd * a.diagonal()[: pivots.size]))  # NaN fails too
    k = int(small[0]) + 1 if small.size else pivots.size + 1
    if k > a.shape[0]:
        return
    z = solve_triangular(lower[: k - 1, : k - 1], a[k - 1, : k - 1], lower=True, check_finite=False)
    raise NotPositiveDefinite(k, a[k - 1, k - 1] - z @ z)


def _factor_of(m, tol_pd: float):
    """Lower factor and pivots of ``m``: the ones a container was validated
    with (re-checked against ``tol_pd``), or one factorization of an array."""
    if not hasattr(m, "_pivots"):
        return _cholesky_pivots(as_array(m), tol_pd)
    _check_pivots(m.values, m._lower, m._pivots, tol_pd)
    return m._lower, m._pivots


def reference_cholesky(m, *, tol_pd: float = TOL_PD, tol_sym: float = TOL_SYM) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix with LAPACK ``dpotrf``.
    This is the oracle every closed-form construction in the library is
    compared against; its backward stability is the classic Cholesky
    result (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 10).

    Accepts any container with square ``values`` or a plain array; a
    validated container hands back the factor it already holds.
    Raises ``ValueError`` if the input is asymmetric beyond ``tol_sym``
    and ``NotPositiveDefinite`` if a pivot falls at or below ``tol_pd``
    times its diagonal entry.
    """
    a = as_array(m)
    err = symmetry_error(a)
    if err > tol_sym:
        raise ValueError(f"matrix is not symmetric: max asymmetry {err:.3e}")
    if not hasattr(m, "_pivots"):
        m = 0.5 * (a + a.T)
    return CholeskyFactor(_factor_of(m, tol_pd)[0], "reference")


def leading_minor_determinants(m, *, tol_pd: float = TOL_PD) -> np.ndarray:
    """Determinants of every leading principal block, element j (1-based)
    being the determinant of the leading j x j block.

    Computed as running products of squared factorization pivots (the
    ones a validated container already holds). For a correlation matrix
    the first element is exactly 1 and the sequence is positive and
    non-increasing.
    """
    return np.cumprod(_factor_of(m, tol_pd)[1])


def bordered_minor_column(m, j: int, *, tol_pd: float = TOL_PD) -> np.ndarray:
    """All bordered minors toward column j in one factorization.

    Element i (1-based, i = 1..j) is the determinant of the principal
    submatrix on rows and columns {1, ..., i-1, j}. For a correlation
    matrix element 1 is exactly 1; element j is the leading j x j minor.

    The whole column is obtained from a single ``dpotrf`` of the matrix
    reordered so that its leading index sets are exactly the bordered
    ones.
    """
    a = as_array(m)
    n = a.shape[0]
    if not 1 <= j <= n:
        raise IndexError(f"column index {j} outside 1..{n}")
    order = np.arange(-1, j - 1)  # j, then 1..j-1, within the leading j-block
    sub = a[:j, :j][order][:, order]
    _, pivots = _cholesky_pivots(sub, tol_pd)
    return np.cumprod(pivots)


def bordered_determinant(r, i: int, j: int, *, tol_pd: float = TOL_PD) -> float:
    """Determinant of the leading (i-1)-block bordered with the prefix row
    of column j, i.e. of the principal submatrix on {1, ..., i-1, j}
    (all indices 1-based, 2 <= i <= j <= n).

    When j = i this is the leading i x i minor.
    """
    a = as_array(r)
    n = a.shape[0]
    if not (2 <= i <= j <= n):
        raise IndexError(f"need 2 <= i <= j <= n, got i={i}, j={j}, n={n}")
    idx = np.r_[np.arange(i - 1), j - 1]
    sub = a[np.ix_(idx, idx)]
    _, pivots = _cholesky_pivots(sub, tol_pd)
    return float(np.prod(pivots))


def banachiewicz_inverse(r_prev_inv, rho, c: float, *, tol_pd: float = TOL_PD) -> np.ndarray:
    """Extend a block inverse by one row and column.

    Given ``B = r_prev_inv``, the inverse of the leading block ``A``, the
    border row ``rho``, and its Schur complement ``c = 1 - rho B rho^T``
    (which must be positive), returns the inverse of::

        [[ A    rho^T ],     namely   1/c * [[ c B + B rho^T rho B,  -B rho^T ],
         [ rho  1     ]]                     [ -rho B,                1        ]]

    ``r_prev_inv`` may be a container or array; the result is a plain
    array so chains of extensions stay cheap.
    """
    inv = np.asarray(getattr(r_prev_inv, "values", r_prev_inv), dtype=float)
    rho = np.asarray(rho, dtype=float)
    m = rho.shape[0]
    if inv.shape != (m, m):
        raise ValueError(f"inverse block is {inv.shape}, border has length {m}")
    if not c > tol_pd:
        raise SchurNonPositive(c)
    v = inv @ rho
    out = np.empty((m + 1, m + 1))
    out[:m, :m] = inv + np.outer(v, v) / c
    out[:m, m] = -v / c
    out[m, :m] = -v / c
    out[m, m] = 1.0 / c
    return out
