"""Dense symmetric-matrix containers and the LAPACK Cholesky factorization
(``potrf``) that the rest of the library treats as its reference oracle.

Validation runs ``potrf`` through ``numpy.linalg.cholesky``. A rejected
matrix is located from ``potrf``'s pivots, or from the Schur pivots
(below) when ``potrf`` stops, so numpy is the only dependency.

Indexing convention
-------------------
Public indices are 1-based, matching the way correlation formulas are
usually written (``rho_1j`` is the correlation between variables 1 and j);
storage is 0-based numpy. Every function that takes indices states this.

The step-i "pivot" is the Schur complement of the leading (i-1)-block,
equal to the square of the factor's i-th diagonal entry. It is accepted
when it exceeds ``TOL_PD`` times a_ii: that ratio is pivot i of the
scaled matrix D^{-1/2} A D^{-1/2}, so the decision does not depend on the
units of the data. Leading principal minors are running products of
pivots, which is numerically sturdier than recursing on the determinant
identity directly; the recursion itself is exercised by the
``identities`` module as a cross-check. One Schur elimination
(``_schur_steps``) that shares no code with LAPACK returns its pivots,
its steps, s_ji^2 / s_ii, the diagonal of the rank-one update that
step i subtracts: the squared factor entries, read where they are
formed rather than as a difference of two ratios of order 1, and the
signs of the s_ji, which are the factor's signs. Pivot j is
a_jj less the steps of column j, so the ratios of bordered minors, the
partial sums on the way, follow from the steps;
``identities.verify`` is the one caller that forms them, for its
``ratio_differences`` report.

All containers copy and freeze their arrays after validation, so instances
are immutable and safe to share across threads. ``CorrelationMatrix`` and
``CovarianceMatrix`` keep the factor they were validated with, which
``reference_cholesky`` returns and whose squared diagonal, the pivots,
``leading_minor_determinants`` reads (both take only a container, so every
matrix they see has been validated).

The one validation path takes a stack: each check, and the ``potrf``
factorization, reads one n x n matrix or a (k, n, n) stack alike, so a
batch of k matrices is validated in one pass of numpy calls. The private
builder ``_stack`` returns one container per element, holding views of
the frozen stacked arrays. A stack that fails any check, the ``potrf``
factorization included, raises at once, and ``_stack`` is the one place
that builds it again one element at a time, so it raises exactly what
its first failing element raises on its own.

The tolerances below are fixed constants, not parameters of any public
function.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NotPositiveDefinite

TOL_SYM = 1e-10  # max |a_ij - a_ji| / sqrt(|a_ii a_jj|), and max |a_ii - 1| of a correlation matrix
TOL_PD = 1e-12   # minimum accepted pivot (Schur complement)
TOL_REC = 1e-9   # factor reconstruction tolerance


def as_array(m) -> np.ndarray:
    """Return the square 2-d float array of an array-like."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """Finite square matrix or (k, n, n) stack, symmetric within
    ``TOL_SYM`` relative to its diagonal, averaged with its transpose (a
    fresh array).

    |a_ij - a_ji| may be at most ``TOL_SYM * sqrt(|a_ii a_jj|)``: the
    asymmetry of |D|^{-1/2} A |D|^{-1/2}, D the diagonal, is judged, so
    rescaling a variable does not change the decision, and the error
    reports the largest such ratio. A pair with a zero diagonal entry is
    not judged: every caller rejects a zero diagonal next, with the error
    that names it.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    at = np.swapaxes(a, -1, -2)
    root = np.sqrt(np.abs(np.diagonal(a, axis1=-2, axis2=-1)))
    scale = root[..., :, None] * root[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 and 0/0, left out by where=
        err = float(np.max(np.abs(a - at) / scale, where=scale > 0, initial=0.0))
    if err > TOL_SYM:
        raise ValueError(f"matrix is not symmetric: max asymmetry {err:.3e}")
    return 0.5 * (a + at)


def _unit_diagonal(a: np.ndarray) -> np.ndarray:
    """``a`` (a matrix or a stack) with every diagonal set to exactly 1, in
    place, after checking that no diagonal entry is further than
    ``TOL_SYM`` from 1."""
    diagonal = np.einsum("...ii->...i", a)  # a writable view
    err = float(np.max(np.abs(diagonal - 1.0)))
    if err > TOL_SYM:
        raise ValueError(f"matrix does not have a unit diagonal: max |a_ii - 1| {err:.3e}")
    diagonal[...] = 1.0
    return a


class _Record:
    """Immutable record whose fields are the subclass's ``__slots__``, set
    once by its ``__init__`` through ``_set``. Equality, hash and repr go
    by field, in slot order; assigning or deleting a field raises
    ``AttributeError``. Plain code, so that importing a record type
    generates and compiles nothing."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._fields()


class _FactoredMatrix:
    """Immutable symmetric positive-definite n x n matrix that keeps the
    factor it was validated with.

    The one validation path of both containers, ``_validated``, takes one
    matrix or a (k, n, n) stack: ``_symmetrized``, then the subclass's
    ``_check`` (which may set entries exactly), then the reference
    factorization, which raises ``NotPositiveDefinite`` at the failing
    pivot. The constructor runs it on one matrix, ``_stack`` on a stack.
    """

    def __init__(self, values):
        self._hold(*self._validated(as_array(values)))

    @classmethod
    def _validated(cls, a: np.ndarray):
        """Frozen symmetrized values and lower factor of ``a``."""
        sym = _symmetrized(a)
        cls._check(sym)
        lower = _reference_factor(sym)
        for x in (sym, lower):
            x.flags.writeable = False
        return sym, lower

    def _hold(self, values, lower):
        self._values, self._lower = values, lower

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class CorrelationMatrix(_FactoredMatrix):
    """Symmetric positive-definite matrix with unit diagonal.

    Construction symmetrizes the input (after checking the asymmetry is
    below ``TOL_SYM``), requires every diagonal entry to lie within
    ``TOL_SYM`` of 1 and then sets it to exactly 1, requires every
    off-diagonal entry to lie strictly inside (-1, 1), and runs the
    reference factorization so that a non-positive-definite input is
    rejected immediately with the failing pivot. The factor is kept.
    """

    @staticmethod
    def _check(sym: np.ndarray) -> None:
        # every diagonal entry is exactly 1 by now, so any |entry| >= 1
        # beyond one per row is off the diagonal
        if np.count_nonzero(np.abs(_unit_diagonal(sym)) >= 1.0) > sym.size // sym.shape[-1]:
            raise ValueError("off-diagonal correlations must lie strictly inside (-1, 1)")


class CovarianceMatrix(_FactoredMatrix):
    """Symmetric positive-definite matrix with a strictly positive diagonal.

    Validation runs the reference factorization on the matrix itself,
    with each pivot judged relative to its diagonal entry, and keeps the
    factor.
    """

    @staticmethod
    def _check(sym: np.ndarray) -> None:
        if np.any(np.diagonal(sym, axis1=-2, axis2=-1) <= 0):
            raise ValueError("covariance diagonal must be strictly positive")


class CholeskyFactor:
    """Lower-triangular factor with strictly positive diagonal."""

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square factor, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("factor entries must be finite")
        if np.any(np.triu(a, 1) != 0.0):
            raise ValueError("strict upper triangle must be exactly zero")
        if np.any(np.diagonal(a) <= 0.0):
            raise ValueError("diagonal entries must be strictly positive")
        a.flags.writeable = False
        self._entries = a

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def reconstruct(self) -> np.ndarray:
        """The product L L^T."""
        return self._entries @ self._entries.T

    def __repr__(self):
        return f"CholeskyFactor(n={self.n})"


def _reference_factor(a: np.ndarray) -> np.ndarray:
    """Lower factor of a symmetric matrix, or of each matrix of a
    (k, n, n) stack (lower triangle read), from LAPACK ``potrf``.

    Pivot i is the Schur complement ``a_ii - sum_k l_ik^2``, the squared
    diagonal entry. The factor comes from ``numpy.linalg.cholesky`` and
    is kept when every pivot exceeds ``TOL_PD * a_ii``. Otherwise raises
    ``NotPositiveDefinite`` at the first 1-based index whose pivot fails
    that test, reading the pivots of ``potrf``'s own factor or, when
    ``potrf`` stops, the pivots of ``_schur_steps``. Where ``potrf``
    stops but the Schur kernel's different rounding leaves every pivot
    above the tolerance, the smallest relative pivot is reported. A
    rejected stack raises a plain ``ValueError`` at once: ``_stack``
    catches it and builds the stack again one matrix at a time, up to the
    first that raises.
    """
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pivots = None
    else:
        pivots = np.diagonal(lower, axis1=-2, axis2=-1) ** 2
        if np.all(pivots > TOL_PD * np.diagonal(a, axis1=-2, axis2=-1)):  # NaN fails too
            return lower
    if a.ndim > 2:  # _stack builds the elements again one at a time
        raise ValueError("a matrix of the stack is not positive-definite")
    if pivots is None:
        pivots = _schur_steps(a)[0]
    ok = pivots > TOL_PD * a.diagonal()
    k = int(np.argmin(ok)) if not ok.all() else int(np.argmin(pivots / a.diagonal()))
    raise NotPositiveDefinite(k + 1, pivots[k])


def _stack(cls, values: np.ndarray) -> list:
    """One ``cls`` per element of the (k, n, n) stack ``values``, validated
    in one pass of ``cls._validated``; each holds views of the frozen
    stacked arrays."""
    try:
        stacked = cls._validated(values)
    except ValueError:  # built alone, the first failing element raises as it does on its own
        return [cls(v) for v in values]
    out = []
    for parts in zip(*stacked):
        m = cls.__new__(cls)
        m._hold(*parts)
        out.append(m)
    return out


# Bound to the classes here: a caller that names a class at call time
# would follow any later rebinding of that name to a plain function.
_correlation_stack = functools.partial(_stack, CorrelationMatrix)


def reference_cholesky(m) -> CholeskyFactor:
    """The LAPACK ``potrf`` factor of a ``CorrelationMatrix`` or
    ``CovarianceMatrix``: the one its validation computed and holds.
    This is the oracle every closed-form construction in the library is
    compared against; its backward stability is the classic Cholesky
    result (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 10). A matrix that fails validation never reaches it: the
    container's constructor raises ``ValueError`` or
    ``NotPositiveDefinite`` instead.
    """
    return CholeskyFactor(m._lower)


def leading_minor_determinants(m) -> np.ndarray:
    """Determinants of every leading principal block, element j (1-based)
    being the determinant of the leading j x j block.

    Computed as running products of the pivots, the squared diagonal of
    the factor that the ``CorrelationMatrix`` or ``CovarianceMatrix`` ``m``
    holds. For a correlation matrix the first element is exactly 1 and the
    sequence is positive and non-increasing, but it shrinks geometrically
    with n and underflows to 0 at moderate n on ill-conditioned input (from
    about n = 120 at kappa = 1e8), so a ratio of two minors is read as a
    pivot, not formed from the minors.
    """
    return np.cumprod(np.diagonal(m._lower) ** 2)


def _schur_steps(a):
    """The pivots, the steps and the signs of one Schur elimination, as
    ``(pivots, steps, signs)``.

    ``pivots[i]`` (0-based) is the diagonal entry i that the elimination
    leaves: the Schur complement of the leading i-block, the ratio
    |R_{i+1}| / |R_i| of successive leading minors. ``steps`` is strictly
    lower: ``steps[j, i]`` is s_ji^2 / s_ii, the diagonal entry j of the
    rank-one update that step i subtracts, so pivot j is a_jj less
    ``steps[j, 0]``, ..., ``steps[j, j - 1]``, rounded once per step in
    that order. The partial sums on the way are the ladder of column j,
    the bordered-minor ratios |B_{i+1}^{j+1}| / |R_i| for i = 0..j.
    ``signs`` is the integer (n, n) array of the signs of the s_ji that
    the steps square, -1 or +1 below the diagonal (0 maps to +1) and 0
    elsewhere: s_ji / sqrt(s_ii) is entry (j, i) of the Cholesky factor.

    One right-looking symmetric elimination, O(n^3), with no pivoting, no
    square root and no definiteness assumed (Golub & Van Loan, *Matrix
    Computations*, 4.2); an exactly zero pivot leaves inf or nan below it.
    Step i writes only below and right of pivot i, so the elimination
    runs in place and all three arrays are read off its result: the
    pivots, a read-only view, from its diagonal, and ``steps`` and
    ``signs`` from each column below its pivot, with the rounding the
    update used.
    """
    s = np.array(a, dtype=float)
    with np.errstate(all="ignore"):  # a zero pivot leaves inf/nan below it
        for i in range(len(s)):
            col = s[i + 1:, i]
            s[i + 1:, i + 1:] -= np.multiply.outer(col, col / s[i, i])
        below = np.tri(len(s), k=-1, dtype=bool)  # s holds column i there as step i read it
        steps = np.where(below, s * (s / s.diagonal()), 0.0)  # 0 above a zero pivot too
        return s.diagonal(), steps, np.where(below, np.where(s < 0.0, -1, 1), 0)
