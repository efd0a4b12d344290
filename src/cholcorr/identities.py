"""Numeric verifiers for the determinant and semi-partial identities that
make the two factor constructions interchangeable.

Each verifier computes both sides of an identity through deliberately
different code paths (explicit blockwise inverses or Schur-elimination
ladders against the semi-partial recursion) and reports the worst
absolute residual with its location, so a shared bug cannot cancel.
The three inverse-based verifiers read one walk of the chain of
leading-block inverses, which holds only the current pair and runs once
per matrix: the first of them to be called makes it, and the container
keeps all three reports. ``verify_recursion`` is one column of the
two-column recursion that ``verify_general_recursion`` checks. The
semi-partial factor is likewise built once per matrix.

Accuracy contract, in the backward-error form of Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 10: on a correlation matrix of
condition number kappa every report's ``max_residual`` is at most
n * kappa * eps. On random orthogonal spectra log-spaced from 1 to
1/kappa (n in {12, 64}, kappa up to 1e10, 20 seeds each) the smallest
margin is about 50x; ``verify_ratio_differences`` builds no inverse and
stays near eps. Known limit: the chain's Schur complement
1 - rho R^{-1} rho^T is formed through an explicit inverse, so near
kappa = 1e10 it can round to at most ``TOL_PD`` and the three chain
verifiers raise ``SchurNonPositive`` on input ``CorrelationMatrix``
accepted (n = 64, kappa = 1e10: seeds 5 and 7, among others, of that
family).

``check_order_conditions`` is the odd one out: it does not assume
positive-definiteness. It evaluates the two determinant orderings that
hold exactly when the matrix is positive-definite, which makes it a
diagnostic usable on arbitrary symmetric unit-diagonal input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
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


def _chain_reports(r: CorrelationMatrix) -> dict[str, IdentityReport]:
    """The reports of the three inverse-based identities, by name, from one
    walk of the chain of leading-block inverses; reach it through
    ``r._once`` so one walk serves all three verifiers.

    For i = 1..n-1 the inverse of the leading i-block is grown from that of
    the (i-1)-block by blockwise extension. The empty 0-block starts the
    chain, so prefix quadratic forms vanish naturally; only the current
    pair is held. Each report is the worst residual over all i with its
    1-based (i, j, l); l is 0 unless the identity has two columns. Where
    the semi-partial factor rejects a pivot that the container accepted
    (rounding at the ``TOL_PD`` edge), ``verify_product_sums`` raises and
    the walk still makes the other two reports.
    """
    a = r.values
    worst = dict.fromkeys(("product_sums", "recursion", "general_recursion"), (-1.0, (0, 0, 0)))
    try:
        coeffs = r._once(chol_semipartial).entries
    except NotPositiveDefinite:  # verify_product_sums raises it before reading the walk
        del worst["product_sums"]
    inv = np.zeros((0, 0))
    for i in range(1, r.n):
        prev, rho = inv, a[: i - 1, i - 1]
        inv = banachiewicz_inverse(prev, rho, a[i - 1, i - 1] - rho @ prev @ rho)
        v = prev @ rho

        def num(cols):  # rho_i,cols - q_i,cols; 1 - q_ii at cols = i-1
            return a[i - 1, cols] - a[: i - 1, cols].T @ v

        q_next = a[:i].T @ (inv @ a[:i, i])  # Q_{i+1} toward column i+1
        rest, pivot = num(slice(None)), num(i - 1)
        general = np.abs(a[:i].T @ (inv @ a[:i]) - (
            a[: i - 1].T @ (prev @ a[: i - 1]) + np.multiply.outer(rest, rest) / pivot))
        blocks = {
            "recursion": np.abs(q_next - (
                a[: i - 1].T @ (prev @ a[: i - 1, i]) + np.multiply.outer(rest, num(i)) / pivot
            ))[i:, None],
            "general_recursion": np.tril(general[i:, i:]),
        }
        if "product_sums" in worst:
            blocks["product_sums"] = np.abs(q_next - coeffs[:, :i] @ coeffs[i, :i])[i:, None]
        for name, res in blocks.items():
            row, col = divmod(int(np.argmax(res)), res.shape[1])
            if res[row, col] > worst[name][0]:
                l = col + i + 1 if name == "general_recursion" else 0
                worst[name] = (float(res[row, col]), (i, row + i + 1, l))
    return {name: IdentityReport(name, *report) for name, report in worst.items()}


def verify_product_sums(r: CorrelationMatrix) -> IdentityReport:
    """Residual of: the bordered quadratic form toward column j equals the
    running sum of products of semi-partial coefficients,

        rho_{i+1}^{*j} R_i^{-1} rho_{i+1}^T = sum_{k<=i} c[k, i+1] c[k, j],

    for 1 <= i < j <= n. Left side via blockwise inverses, right side via
    the semi-partial factor.
    """
    if r.n < 2:
        raise ValueError("need n >= 2")
    r._once(chol_semipartial)  # a rejected pivot raises here, before the chain
    return r._once(_chain_reports)["product_sums"]


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
    return r._once(_chain_reports)["recursion"]


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
    coeffs = r._once(chol_semipartial).entries
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
    if r.n < 3:
        raise ValueError("need n >= 3")
    return r._once(_chain_reports)["general_recursion"]


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
    non-increasing, judged on the ratios of successive minors (the Schur
    pivots), each in (``TOL_ORD``, 1 + ``TOL_ORD``]: the minors themselves
    shrink geometrically with n, so an absolute floor on them would fail
    well-conditioned input. The second asserts that every per-column
    ladder of bordered-minor ratios lies in (0, 1] and never increases
    (within ``TOL_ORD``), and ``ladders`` lists the ladders of
    columns j = 2..n as plain arrays: ``ladders[j-2]`` is a read-only
    array of length j whose element i-1 is |B_i^j| / |R_{i-1}|, starting
    at 1 and ending at |R_j| / |R_{j-1}|. For a positive-definite matrix
    successive differences of a ladder are squared factor entries. The
    two flags are both true exactly when the matrix is positive-definite,
    up to the tolerance band around zero.

    Ladders and pivots come from one Schur elimination without pivoting,
    so the diagnostic works on indefinite input; an exactly zero pivot
    gives inf or nan, failing both flags. The input passes the containers'
    finite, symmetry and unit-diagonal checks (``TOL_SYM``) or raises
    ``ValueError``.
    """
    with np.errstate(all="ignore"):  # a zero pivot leaves inf/nan, which fails every comparison
        d = _schur_ladders(_unit_diagonal(_symmetrized(m)))
        pivots = d.diagonal()
        det_ok = bool(np.all(pivots > TOL_ORD) and np.all(pivots <= 1.0 + TOL_ORD))
        upper = np.triu(np.ones(d.shape, dtype=bool))
        ratios = d[upper]
        ratio_ok = bool(
            np.all(ratios > TOL_ORD)
            and np.all(ratios <= 1.0 + TOL_ORD)
            and np.all(np.diff(d, axis=0)[upper[1:]] <= TOL_ORD)
        )
    d.flags.writeable = False
    return det_ok, ratio_ok, [d[:j, j - 1] for j in range(2, d.shape[0] + 1)]
