"""Numeric verifiers for the determinant and semi-partial identities that
make the two factor constructions interchangeable.

``verify`` reports each identity that n allows. Each report computes
both sides of an identity through deliberately different code paths (LU
solves against leading blocks, or ladders formed from the Schur
elimination's steps, against the semi-partial recursion) and holds the
worst absolute residual with its location, so a shared bug cannot
cancel. Three reports read one walk of the leading blocks, which
``verify`` makes once per call. For each leading block R_i the walk
makes one LAPACK ``gesv`` solve (LU with partial pivoting, no code
shared with ``potrf`` or the semi-partial recursion) and from it the
bordered quadratic forms G_i = A_{:i}^T R_i^{-1} A_{:i}, holding only
the current and previous G. Block i's LU costs O(i^3), so the walk, and
with it ``cholcorr verify``, is O(n^4): 9.6 ms at n = 100 and 776 ms at
n = 400, as ``python3 tools/growth.py`` measured it (best of 3 walks,
one BLAS thread, a shared 2-core x86-64 host with AVX-512). The one-
and two-column recursions are checked on the difference of successive
G; ``recursion`` is one column of the two-column recursion that
``general_recursion`` checks. The walk does not read the semi-partial
factor C: ``product_sums`` compares the rows of G the walk keeps with
all running sums of products at once, as the one triangular product
tril(C, -1) C^T. ``verify`` builds C once per call as well.

Accuracy contract, in the backward-error form of Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 10: on a correlation matrix of
condition number kappa every report's ``max_residual`` is at most
n * kappa * eps. ``verify`` evaluates every matrix that
``CorrelationMatrix`` and ``chol_semipartial`` accept. On random
orthogonal spectra log-spaced from 1 to 1/kappa (n in {12, 64}, kappa in
{1e2, 1e6, 1e10}, 20 seeds each) the smallest margin is 480x, and on
AR(1) near |rho| = 1, equicorrelation near -1/(n-1) and planted tiny
entries it is 72x, over the OpenBLAS SkylakeX, Haswell, Sandybridge and
Prescott kernels; ``tests/test_identities.py`` holds about half of each.
``python3 tools/margins.py`` prints these margins on the running kernel.

``check_order_conditions`` is the odd one out: it does not assume
positive-definiteness, so it is a diagnostic usable on arbitrary
symmetric unit-diagonal input. It decides both of the paper's
determinant orderings with one test, every Schur pivot above the
containers' ``TOL_PD``, so the two orderings cannot disagree.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import (
    TOL_PD,
    CorrelationMatrix,
    _Record,
    _schur_steps,
    _symmetrized,
    _unit_diagonal,
    as_array,
)
from .parametrizations import chol_semipartial


class IdentityReport(_Record):
    """Worst absolute residual of one identity over all index choices.

    ``location`` is the 1-based (i, j, l) triple of the worst case; l is 0
    for identities indexed by (i, j) only.
    """

    __slots__ = ("name", "max_residual", "location")

    def __init__(self, name: str, max_residual: float, location: tuple[int, int, int]):
        if max_residual < 0:
            raise ValueError("residual must be non-negative")
        self._set(name, max_residual, location)


def _chain(r: CorrelationMatrix):
    """One walk of the leading blocks: ``q`` and the ``recursion`` and
    ``general_recursion`` reports; ``verify`` makes it once per call and
    reads ``product_sums`` from ``q``.

    For i = 1..n-1 one LAPACK solve (``gesv``) against the leading i-block
    gives the bordered quadratic forms G_i = A_{:i}^T R_i^{-1} A_{:i} on
    indices i..n (1-based), the only ones the step reads; G_0 = 0, the
    empty block. Only the previous G is held. Its row i holds q_ij, so
    with rest_j = rho_ij - q_ij, whose entry j = i is 1 - q_ii, the
    two-column residual at step i is
    |G_i - G_{i-1} - rest^T rest / (1 - q_ii)| over j >= l >= i+1, and the
    one-column ``recursion`` residual is its l = i+1 column. One step is
    the solve and the product that give G_i, then the residual in one
    array, in place: the difference, less the rank-one step, its absolute
    value, and 0 at l > j through a mask built once before the loop. Each
    operation rounds as on a fresh array, so the bytes are those of the
    plain loop in ``tests/helpers.chain_reference``. ``q[i, j-1]`` (0-based
    row i) keeps Q_{i+1}(j), row i+1 of G_i, for j >= i+1; it is what
    ``product_sums`` reads, and the walk does not read the
    semi-partial factor. Each report is the first worst residual in
    (i, j, l) order, 1-based; l is 0 for the one-column identity.
    """
    a, n = r.values, r.n
    prev = np.zeros((n + 1, n + 1))  # G_0 on indices 0..n
    q, rec = np.zeros((n, n)), np.zeros((n, n))
    upper = np.triu(np.ones((n, n), dtype=bool), 1)  # l > j, cut from each residual
    general = (-1.0, (0, 0, 0))
    for i in range(1, n):
        border = a[:i, i - 1:]
        g = border.T @ np.linalg.solve(a[:i, :i], border)  # G_i on indices i..n
        rest = a[i - 1, i - 1:] - prev[1, 1:]  # rho_ij - q_ij; 1 - q_ii first
        res = g[1:, 1:] - prev[2:, 2:]
        res -= np.multiply.outer(rest[1:], rest[1:]) / rest[0]
        np.abs(res, out=res)
        np.copyto(res, 0.0, where=upper[i:, i:])
        q[i, i:], rec[i, i:] = g[1, 1:], res[:, 0]
        j, l = divmod(int(np.argmax(res)), n - i)
        if res[j, l] > general[0]:
            general = (float(res[j, l]), (i, j + i + 1, l + i + 1))
        prev = g
    return q, _worst("recursion", rec[1:], 1), IdentityReport("general_recursion", *general)


def _worst(name: str, res: np.ndarray, first: int) -> IdentityReport:
    """The report of the first largest entry of ``res`` over j >= i+1, in
    (i, j) order, where row 0 of ``res`` is i = ``first`` and column j - 1
    is column j. Writes -1 into ``res`` below that range."""
    np.copyto(res, -1.0, where=np.tri(*res.shape, first - 1, dtype=bool))
    i, j = divmod(int(np.argmax(res)), res.shape[1])
    return IdentityReport(name, float(res[i, j]), (i + first, j + 1, 0))


# The reports of ``verify`` in their order, each with the smallest n that has it.
IDENTITIES = (("product_sums", 2), ("recursion", 3), ("ratio_differences", 3),
              ("general_recursion", 3))


def verify(r: CorrelationMatrix) -> tuple[IdentityReport, ...]:
    """The reports of the identities that n allows, in ``IDENTITIES``
    order: none at n = 1, ``product_sums`` alone at n = 2 and all four
    from n = 3. The semi-partial factor C, the walk of the leading blocks
    (``_chain``) and the Schur steps are each built once, in that order,
    so a pivot that the semi-partial route rejects raises
    ``NotPositiveDefinite`` before any solve. Indices are 1-based.

    ``product_sums``: the bordered quadratic form toward column j equals
    the running sum of products of semi-partial coefficients,

        rho_{i+1}^{*j} R_i^{-1} rho_{i+1}^T = sum_{k<=i} c[k, i+1] c[k, j],

    for 1 <= i < j <= n; left side from the walk's solves, right side
    from C.

    ``recursion``: the one-step recursion that grows the bordered
    quadratic form from block i-1 to block i, the l = i+1 column of
    ``general_recursion``,

        Q_{i+1}(j) = rho_i^{*j} R_{i-1}^{-1} (rho_i^{*i+1})^T
                     + (rho_{i,i+1} - q_{i,i+1})(rho_ij - q_ij) / (1 - q_ii),

    for 1 <= i < j <= n.

    ``ratio_differences``: the difference between two successive
    bordered-minor ratios equals the squared semi-partial numerator
    scaled by a minor ratio,

        |B_i^j|/|R_{i-1}| - |B_{i+1}^j|/|R_i|
            = (rho_ij - q_ij)^2 |R_{i-1}| / |R_i|,

    for j >= i+1 >= 3. Left side from the ladders of one right-looking
    Schur elimination, each column's diagonal entry less its steps one
    at a time, as the elimination rounds them; right side from C and
    the reference's pivots: |R_i| / |R_{i-1}| is pivot i, read as such
    because the minors themselves underflow at moderate n.

    ``general_recursion``: the two-column generalization of the
    recursion,

        rho_{i+1}^{*j} R_i^{-1} (rho_{i+1}^{*l})^T
            = rho_i^{*j} R_{i-1}^{-1} (rho_i^{*l})^T
              + (rho_ij - q_ij)(rho_il - q_il) / (1 - q_ii),

    for j >= l >= i+1.
    """
    if r.n < 2:
        return ()
    c = chol_semipartial(r).entries  # a rejected pivot raises here, before the walk
    q, recursion, general_recursion = _chain(r)
    strict = c.copy()  # c is lower-triangular, so only its diagonal is cut
    np.fill_diagonal(strict, 0.0)
    product_sums = _worst("product_sums", np.abs(q - strict @ c.T)[1:], 1)
    if r.n < 3:
        return (product_sums,)
    # row i of d: each column's ratio after i steps, a_jj less those steps
    d = np.subtract.accumulate(np.vstack((r.values.diagonal(), _schur_steps(r.values)[1].T[:-1])))
    num = c.T * np.diag(c)[:, None]  # num[i-1, j-1] = rho_ij - q_ij
    rhs = num[:-1] ** 2 / np.diagonal(r._lower)[:-1, None] ** 2
    # i = 1 is excluded
    ratio_differences = _worst("ratio_differences", np.abs(d[:-1] - d[1:] - rhs)[1:], 2)
    return product_sums, recursion, ratio_differences, general_recursion


# Not public: the benchmark's LAYERS (perfbench/spans.py) and the test that
# resolves them still name these. They go with ROADMAP item 4 step 1.
def verify_product_sums(r: CorrelationMatrix) -> IdentityReport:
    return verify(r)[0]


def verify_recursion(r: CorrelationMatrix) -> IdentityReport:
    return verify(r)[1]


def verify_ratio_differences(r: CorrelationMatrix) -> IdentityReport:
    return verify(r)[2]


def verify_general_recursion(r: CorrelationMatrix) -> IdentityReport:
    return verify(r)[3]


def check_order_conditions(m) -> bool:
    """Whether a symmetric unit-diagonal matrix meets the two determinant
    orderings, without assuming positive-definiteness: True when every
    Schur pivot (the ratio of successive leading minors) exceeds
    ``TOL_PD``, the containers' floor on a unit diagonal, which holds
    exactly when the matrix is positive-definite, up to that tolerance.
    The pivots are judged, not the minors: those shrink geometrically
    with n, so an absolute floor on them would fail well-conditioned input.

    One bool serves both orderings. The leading-minor ordering is the
    pivots' own: positive, and each at most 1 because it is the foot of
    a ladder that starts at 1. The ratio ordering asks each column's
    ladder of bordered-minor ratios |B_i^j| / |R_{i-1}| to lie in (0, 1]
    and never increase. The pivots come from one Schur elimination
    without pivoting (``_schur_steps``), in which the ladder of column j
    starts at exactly 1 and each step subtracts s_ji^2 / s_ii, which is
    >= 0 while the pivots are positive, with one rounding; rounding is
    monotone, so the ladder never increases and stays between its foot,
    pivot j, and 1. The elimination works on indefinite input; an exactly
    zero pivot gives inf or nan, which fails. The input passes the
    containers' finite, symmetry and unit-diagonal checks (``TOL_SYM``)
    or raises ``ValueError``.
    """
    return bool(np.all(_schur_steps(_unit_diagonal(_symmetrized(as_array(m))))[0] > TOL_PD))
