"""Numeric verifiers for the determinant and semi-partial identities that
make the two factor constructions interchangeable.

Each verifier computes both sides of an identity through deliberately
different code paths (explicit blockwise inverses or Schur-elimination
ladders against the semi-partial recursion) and reports the worst
absolute residual with its location, so a shared bug cannot cancel.

``check_order_conditions`` is the odd one out: it does not assume
positive-definiteness. It evaluates the two determinant orderings that
hold exactly when the matrix is positive-definite, which makes it a
diagnostic usable on arbitrary symmetric unit-diagonal input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    CorrelationMatrix,
    _schur_ladders,
    _symmetrized,
    _unit_diagonal,
    banachiewicz_inverse,
    leading_minor_determinants,
)
from .parametrizations import chol_semipartial

TOL_ORD = 1e-10  # slack for order comparisons; exact ties are legitimate


@dataclass(frozen=True)
class IdentityReport:
    """Worst absolute residual of one identity over all index choices.

    ``location`` is the 1-based (i, j, l) triple of the worst case; l is 0
    for identities indexed by (i, j) only.
    """

    name: str
    max_residual: float
    location: tuple[int, int, int]

    def __post_init__(self):
        if self.max_residual < 0:
            raise ValueError("residual must be non-negative")


def _inverse_chain(a: np.ndarray, upto: int) -> list[np.ndarray]:
    """Inverses of all leading blocks up to size ``upto`` by blockwise
    extension; element k is the inverse of the leading k-block, with the
    empty 0-block at index 0 so prefix quadratic forms vanish naturally."""
    invs = [np.zeros((0, 0))]
    if upto >= 1:
        invs.append(np.array([[1.0 / a[0, 0]]]))
    for i in range(2, upto + 1):
        prev = invs[-1]
        rho = a[: i - 1, i - 1]
        c = a[i - 1, i - 1] - rho @ prev @ rho
        invs.append(banachiewicz_inverse(prev, rho, c))
    return invs


def verify_product_sums(r: CorrelationMatrix) -> IdentityReport:
    """Residual of: the bordered quadratic form toward column j equals the
    running sum of products of semi-partial coefficients,

        rho_{i+1}^{*j} R_i^{-1} rho_{i+1}^T = sum_{k<=i} c[k, i+1] c[k, j],

    for 1 <= i < j <= n. Left side via blockwise inverses, right side via
    the semi-partial factor.
    """
    n = r.n
    if n < 2:
        raise ValueError("need n >= 2")
    a = r.values
    invs = _inverse_chain(a, n - 1)
    coeffs = chol_semipartial(r).entries
    worst, where = -1.0, (0, 0, 0)
    for i in range(1, n):
        w = invs[i] @ a[:i, i]
        lhs = a[:i, :].T @ w
        rhs = coeffs[:, :i] @ coeffs[i, :i]
        res = np.abs(lhs - rhs)
        jbad = int(np.argmax(res[i:])) + i
        if res[jbad] > worst:
            worst, where = float(res[jbad]), (i, jbad + 1, 0)
    return IdentityReport("product_sums", worst, where)


def verify_recursion(r: CorrelationMatrix) -> IdentityReport:
    """Residual of the one-step recursion that grows the bordered quadratic
    form from block i-1 to block i,

        Q_{i+1}(j) = rho_i^{*j} R_{i-1}^{-1} (rho_i^{*i+1})^T
                     + (rho_{i,i+1} - q_{i,i+1})(rho_ij - q_ij) / (1 - q_ii),

    for 1 <= i < j <= n.
    """
    n = r.n
    if n < 3:
        raise ValueError("need n >= 3")
    a = r.values
    invs = _inverse_chain(a, n - 1)
    worst, where = -1.0, (0, 0, 0)
    for i in range(1, n):
        lhs = a[:i, :].T @ (invs[i] @ a[:i, i])
        pcols = a[: i - 1, :]
        base = pcols.T @ (invs[i - 1] @ pcols[:, i])
        v = invs[i - 1] @ a[: i - 1, i - 1]
        num1 = a[i - 1, i] - pcols[:, i] @ v
        num2 = a[i - 1, :] - pcols.T @ v
        den = 1.0 - a[: i - 1, i - 1] @ v
        rhs = base + num1 * num2 / den
        res = np.abs(lhs - rhs)
        jbad = int(np.argmax(res[i:])) + i
        if res[jbad] > worst:
            worst, where = float(res[jbad]), (i, jbad + 1, 0)
    return IdentityReport("recursion", worst, where)


def verify_ratio_differences(r: CorrelationMatrix) -> IdentityReport:
    """Residual of: the difference between two successive bordered-minor
    ratios equals the squared semi-partial numerator scaled by a minor
    ratio,

        |B_i^j|/|R_{i-1}| - |B_{i+1}^j|/|R_i|
            = (rho_ij - q_ij)^2 |R_{i-1}| / |R_i|,

    for j >= i+1 >= 3. Left side from the ladders of one right-looking
    Schur elimination, right side from the left-looking semi-partial
    recursion and the reference's pivot-product minors.
    """
    n = r.n
    if n < 3:
        raise ValueError("need n >= 3")
    d = _schur_ladders(r.values)
    minors = leading_minor_determinants(r)
    prev = np.concatenate(([1.0], minors[:-1]))
    coeffs = chol_semipartial(r).entries
    num = coeffs.T * np.diag(coeffs)[:, None]  # num[i-1, j-1] = rho_ij - q_ij
    rhs = num[:-1] ** 2 * (prev / minors)[:-1, None]
    keep = np.triu(np.ones((n - 1, n), dtype=bool), 1)
    keep[0] = False  # i = 1 is excluded
    res = np.where(keep, np.abs(d[:-1] - d[1:] - rhs), -1.0)  # row i-1, column j-1
    i, j = divmod(int(np.argmax(res)), n)
    return IdentityReport("ratio_differences", float(res[i, j]), (i + 1, j + 1, 0))


def verify_general_recursion(r: CorrelationMatrix) -> IdentityReport:
    """Residual of the two-column generalization of the recursion,

        rho_{i+1}^{*j} R_i^{-1} (rho_{i+1}^{*l})^T
            = rho_i^{*j} R_{i-1}^{-1} (rho_i^{*l})^T
              + (rho_ij - q_ij)(rho_il - q_il) / (1 - q_ii),

    for j >= l >= i+1.
    """
    n = r.n
    if n < 3:
        raise ValueError("need n >= 3")
    a = r.values
    invs = _inverse_chain(a, n - 1)
    worst, where = -1.0, (0, 0, 0)
    for i in range(1, n):
        cols = a[:i, :]
        lhs = cols.T @ (invs[i] @ cols)
        pcols = a[: i - 1, :]
        qprev = pcols.T @ (invs[i - 1] @ pcols)
        v = invs[i - 1] @ a[: i - 1, i - 1]
        num = a[i - 1, :] - pcols.T @ v
        den = 1.0 - a[: i - 1, i - 1] @ v
        rhs = qprev + np.outer(num, num) / den
        res = np.abs(lhs - rhs)[i:, i:]
        res = np.tril(res)
        flat = int(np.argmax(res))
        row, col = divmod(flat, res.shape[1])
        if res[row, col] > worst:
            worst = float(res[row, col])
            where = (i, row + i + 1, col + i + 1)
    return IdentityReport("general_recursion", worst, where)


ALL_VERIFIERS = (
    ("product_sums", verify_product_sums, 2),
    ("recursion", verify_recursion, 3),
    ("ratio_differences", verify_ratio_differences, 3),
    ("general_recursion", verify_general_recursion, 3),
)


def check_order_conditions(m):
    """Evaluate the two determinant orderings on a symmetric unit-diagonal
    matrix without assuming positive-definiteness.

    Returns ``(det_order_ok, ratio_order_ok, ladders)`` where the first
    flag asserts that the leading-minor sequence stays positive and
    non-increasing (within ``TOL_ORD``), the second asserts that every
    per-column ladder of bordered-minor ratios lies in (0, 1] and never
    increases (within ``TOL_ORD``), and ``ladders`` lists the ladders of
    columns j = 2..n as plain arrays: ``ladders[j-2]`` is a read-only
    array of length j whose element i-1 is |B_i^j| / |R_{i-1}|, starting
    at 1 and ending at |R_j| / |R_{j-1}|. For a positive-definite matrix
    successive differences of a ladder are squared factor entries. The
    two flags are both true exactly when the matrix is positive-definite,
    up to the tolerance band around zero.

    Ladders and leading minors (running pivot products) come from one
    Schur elimination without pivoting, so the diagnostic works on
    indefinite input; an exactly zero pivot gives inf or nan, failing both
    flags. The input passes the containers' finite, symmetry and
    unit-diagonal checks (``TOL_SYM``) or raises ``ValueError``.
    """
    with np.errstate(all="ignore"):  # a zero pivot leaves inf/nan, which fails every comparison
        d = _schur_ladders(_unit_diagonal(_symmetrized(m)))
        leading = np.cumprod(d.diagonal())
        det_ok = bool(np.all(leading > TOL_ORD) and np.all(np.diff(leading) <= TOL_ORD))
        upper = np.triu(np.ones(d.shape, dtype=bool))
        ratios = d[upper]
        ratio_ok = bool(
            np.all(ratios > TOL_ORD)
            and np.all(ratios <= 1.0 + TOL_ORD)
            and np.all(np.diff(d, axis=0)[upper[1:]] <= TOL_ORD)
        )
    d.flags.writeable = False
    return det_ok, ratio_ok, [d[:j, j - 1] for j in range(2, d.shape[0] + 1)]
