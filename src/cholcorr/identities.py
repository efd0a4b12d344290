"""Numeric verifiers for the determinant and semi-partial identities that
make the two factor constructions interchangeable.

Each verifier computes both sides of an identity through deliberately
different code paths (LU solves against leading blocks, or ladders
formed from the Schur elimination's steps, against the semi-partial
recursion) and reports the worst absolute residual with its location,
so a shared bug cannot cancel. The three solve-based verifiers read one walk of the
leading blocks, made once per matrix by the first of them to be called
and kept by the container. For each leading block R_i the walk makes one
LAPACK ``gesv`` solve (LU with partial pivoting, no code shared with
``potrf`` or the semi-partial recursion) and from it the bordered
quadratic forms G_i = A_{:i}^T R_i^{-1} A_{:i}, holding only the current
and previous G. The one- and two-column recursions are checked on the
difference of successive G; ``verify_recursion`` is one column of the
two-column recursion that ``verify_general_recursion`` checks. The walk
does not read the semi-partial factor C: ``verify_product_sums``
compares the rows of G the walk keeps with all running sums of products
at once, as the one triangular product tril(C, -1) C^T. The semi-partial
factor is built once per matrix as well.

Accuracy contract, in the backward-error form of Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 10: on a correlation matrix of
condition number kappa every report's ``max_residual`` is at most
n * kappa * eps. Every matrix ``CorrelationMatrix`` accepts is
evaluated. On random orthogonal spectra log-spaced from 1 to 1/kappa
(n in {12, 64}, kappa in {1e2, 1e6, 1e10}, 20 seeds each) the smallest
margin is about 470x, and on AR(1) near |rho| = 1, equicorrelation near
-1/(n-1) and planted tiny entries it is about 100x.

``check_order_conditions`` is the odd one out: it does not assume
positive-definiteness, so it is a diagnostic usable on arbitrary
symmetric unit-diagonal input. It decides the paper's two determinant
orderings, which hold exactly when the matrix is positive-definite, with
one test on the Schur pivots, the only part of the elimination it
reads: every ratio ladder starts at exactly 1 and falls by squared steps
to its pivot, so positive pivots imply the ratio ordering and the two
orderings cannot disagree.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import (
    CorrelationMatrix,
    _Record,
    _schur_steps,
    _symmetrized,
    _unit_diagonal,
    as_array,
)
from .parametrizations import chol_semipartial

TOL_ORD = 1e-10  # floor every Schur pivot must exceed for the order conditions


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
    ``general_recursion`` reports; reach it through ``r._once`` so one
    walk serves all three chain verifiers.

    For i = 1..n-1 one LAPACK solve (``gesv``) against the leading i-block
    gives the bordered quadratic forms G_i = A_{:i}^T R_i^{-1} A_{:i} on
    indices i..n (1-based), the only ones the step reads; G_0 = 0, the
    empty block. Only the previous G is held. Its row i holds q_ij, so
    with rest_j = rho_ij - q_ij, whose entry j = i is 1 - q_ii, the
    two-column residual at step i is
    |G_i - G_{i-1} - rest^T rest / (1 - q_ii)| over j >= l >= i+1, and the
    one-column ``recursion`` residual is its l = i+1 column. ``q[i, j-1]``
    (0-based row i) keeps Q_{i+1}(j), row i+1 of G_i, for j >= i+1; it is
    what ``verify_product_sums`` reads, and the walk does not read the
    semi-partial factor. Each report is the first worst residual in
    (i, j, l) order, 1-based; l is 0 for the one-column identity.
    """
    a, n = r.values, r.n
    prev = np.zeros((n + 1, n + 1))  # G_0 on indices 0..n
    q, rec = np.zeros((n, n)), np.zeros((n, n))
    general = (-1.0, (0, 0, 0))
    for i in range(1, n):
        border = a[:i, i - 1:]
        g = border.T @ np.linalg.solve(a[:i, :i], border)  # G_i on indices i..n
        rest = a[i - 1, i - 1:] - prev[1, 1:]  # rho_ij - q_ij; 1 - q_ii first
        step = np.multiply.outer(rest[1:], rest[1:]) / rest[0]
        res = np.tril(np.abs(g[1:, 1:] - prev[2:, 2:] - step))
        q[i, i:], rec[i, i:] = g[1, 1:], res[:, 0]
        j, l = divmod(int(np.argmax(res)), n - i)
        if res[j, l] > general[0]:
            general = (float(res[j, l]), (i, j + i + 1, l + i + 1))
        prev = g
    return q, _worst("recursion", rec[1:], 1), IdentityReport("general_recursion", *general)


def _worst(name: str, res: np.ndarray, first: int) -> IdentityReport:
    """The report of the first largest entry of ``res`` over j >= i+1, in
    (i, j) order, where row 0 of ``res`` is i = ``first`` and column j - 1
    is column j."""
    res = np.where(np.triu(np.ones(res.shape, dtype=bool), first), res, -1.0)
    i, j = divmod(int(np.argmax(res)), res.shape[1])
    return IdentityReport(name, float(res[i, j]), (i + first, j + 1, 0))


def verify_product_sums(r: CorrelationMatrix) -> IdentityReport:
    """Residual of: the bordered quadratic form toward column j equals the
    running sum of products of semi-partial coefficients,

        rho_{i+1}^{*j} R_i^{-1} rho_{i+1}^T = sum_{k<=i} c[k, i+1] c[k, j],

    for 1 <= i < j <= n. Left side via one LU solve per leading block,
    right side via the semi-partial factor.
    """
    if r.n < 2:
        raise ValueError("need n >= 2")
    c = r._once(chol_semipartial).entries  # a rejected pivot raises here, before the walk
    return _worst("product_sums", np.abs(r._once(_chain)[0] - np.tril(c, -1) @ c.T)[1:], 1)


def verify_recursion(r: CorrelationMatrix) -> IdentityReport:
    """Residual of the one-step recursion that grows the bordered quadratic
    form from block i-1 to block i, the l = i+1 column of
    ``verify_general_recursion``:

        Q_{i+1}(j) = rho_i^{*j} R_{i-1}^{-1} (rho_i^{*i+1})^T
                     + (rho_{i,i+1} - q_{i,i+1})(rho_ij - q_ij) / (1 - q_ii),

    for 1 <= i < j <= n.
    """
    if r.n < 3:
        raise ValueError("need n >= 3")
    return r._once(_chain)[1]


def verify_ratio_differences(r: CorrelationMatrix) -> IdentityReport:
    """Residual of: the difference between two successive bordered-minor
    ratios equals the squared semi-partial numerator scaled by a minor
    ratio,

        |B_i^j|/|R_{i-1}| - |B_{i+1}^j|/|R_i|
            = (rho_ij - q_ij)^2 |R_{i-1}| / |R_i|,

    for j >= i+1 >= 3. Left side from the ladders of one right-looking
    Schur elimination, each column's diagonal entry less its steps one
    at a time, as the elimination rounds them; right side from the
    left-looking semi-partial recursion and the reference's pivots:
    |R_i| / |R_{i-1}| is pivot i, read as such because the minors
    themselves underflow at moderate n.
    """
    if r.n < 3:
        raise ValueError("need n >= 3")
    # row i of d: each column's ratio after i steps, a_jj less those steps
    d = np.subtract.accumulate(np.vstack((r.values.diagonal(), _schur_steps(r.values)[1].T[:-1])))
    coeffs = r._once(chol_semipartial).entries
    num = coeffs.T * np.diag(coeffs)[:, None]  # num[i-1, j-1] = rho_ij - q_ij
    rhs = num[:-1] ** 2 / np.diagonal(r._lower)[:-1, None] ** 2
    return _worst("ratio_differences", np.abs(d[:-1] - d[1:] - rhs)[1:], 2)  # i = 1 is excluded


def verify_general_recursion(r: CorrelationMatrix) -> IdentityReport:
    """Residual of the two-column generalization of the recursion,

        rho_{i+1}^{*j} R_i^{-1} (rho_{i+1}^{*l})^T
            = rho_i^{*j} R_{i-1}^{-1} (rho_i^{*l})^T
              + (rho_ij - q_ij)(rho_il - q_il) / (1 - q_ii),

    for j >= l >= i+1.
    """
    if r.n < 3:
        raise ValueError("need n >= 3")
    return r._once(_chain)[2]


ALL_VERIFIERS = (
    ("product_sums", verify_product_sums, 2),
    ("recursion", verify_recursion, 3),
    ("ratio_differences", verify_ratio_differences, 3),
    ("general_recursion", verify_general_recursion, 3),
)


def check_order_conditions(m) -> bool:
    """Whether a symmetric unit-diagonal matrix meets the two determinant
    orderings, without assuming positive-definiteness: True when every
    Schur pivot (the ratio of successive leading minors) exceeds
    ``TOL_ORD``, which holds exactly when the matrix is positive-definite,
    up to the tolerance band around zero. The pivots are judged, not the
    minors: those shrink geometrically with n, so an absolute floor on
    them would fail well-conditioned input.

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
    return bool(np.all(_schur_steps(_unit_diagonal(_symmetrized(as_array(m))))[0] > TOL_ORD))
