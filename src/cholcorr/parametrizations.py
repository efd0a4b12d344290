"""Two closed-form routes to the Cholesky factor of a correlation matrix;
both run unchanged on a covariance matrix, row j scaled by sigma_j.

The first route fills entry (j, i) with the semi-partial correlation
between variables i and j given 1..i-1,

    l_ji = (rho_ij - q_ij) / sqrt(1 - q_ii),   q_ij = rho_i^{*j} R_{i-1}^{-1} rho_i^T,

where ``rho_i^{*j}`` is the prefix of column j above row i. The second
route takes each squared off-diagonal entry as the difference between two
successive ratios of bordered principal minors,

    l_ji = s_ij sqrt( |B_i^j| / |R_{i-1}| - |B_{i+1}^j| / |R_i| ),

with ``B_i^j`` the leading (i-1)-block bordered by column j's prefix and
``s_ij`` an externally supplied sign (the determinants fix magnitudes
only). Both routes must agree with the reference factorization entrywise:
``decompose --check`` fails beyond its ``--tol`` (default ``TOL_REC``),
and acceptance gate 1 holds them to 1e-9 on generated matrices.

With the reference they compute the same quantities by different code,
not different mathematics, and share none of its code: q_ij grows by the
paper's left-looking rank-one recursion Q_{i+1} = Q_i + c_i c_i^T, and
each ratio |B_i^j| / |R_{i-1}| is diagonal entry j of the Schur complement
after eliminating 1..i-1, so one right-looking elimination
(``matrix_core._schur_steps``) passes through every row's ladder. The
difference of two successive ratios is the diagonal entry s_ji^2 / s_ii
of the rank-one update that step i subtracts, and the last ratio is the
pivot; the kernel returns just these ``pivots`` and ``steps``, and the
second route reads its squared entries there, where a small one keeps
its digits, instead of subtracting two ratios of order 1.
``identities.verify_ratio_differences`` forms the ratios and checks the
subtracted form. The other ``identities`` verifiers solve against the
leading blocks instead.

Accuracy contract (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 10): on a correlation matrix of 2-norm condition number
kappa each route's factor is within n * kappa * eps of the reference
entrywise, and on a covariance matrix row j is within sigma_j times that,
kappa taken on its correlation matrix. ``tests/test_parametrizations.py``
pins the bound on AR(1) with |rho| up to 1 - 1e-5, equicorrelation within
1e-10 of its floor -1/(n-1), factors with one planted entry down to 1e-12,
and spectra of kappa up to 1e12, at n = 12 and 64.

Backward-error contract (Higham, Thm 10.3): each route's factor L of the
matrix A it was given, correlation or covariance, meets

    |L L^T - A| <= gamma_{n+1} |L| |L^T|   entrywise,
    gamma_{n+1} = (n + 1) eps / (1 - (n + 1) eps).

The bound does not depend on kappa, and A -> D A D leaves it unchanged,
so it has no units. The same tests pin it on the same families for every
route, the reference included; the worst ratio of the two sides is about
0.17. It is the sharper of the two: one entry of the kappa = 1e12 detratio
factor moved by 1e-10 relative takes the ratio to 11.6, while the entry
stays within the forward contract.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite
from .matrix_core import (
    TOL_PD,
    CholeskyFactor,
    CorrelationMatrix,
    CovarianceMatrix,
    _schur_steps,
)


def chol_semipartial(r: CorrelationMatrix | CovarianceMatrix) -> CholeskyFactor:
    """Cholesky factor whose entry (j, i) is the semi-partial correlation
    of variables i and j given 1..i-1; its diagonal entry (i, i) is the
    residual standard deviation sqrt(1 - q_ii). On a covariance matrix
    entry (j, i) is sigma_j times that semi-partial correlation.

    Runs the recursion on the bordered quadratic forms: with Q_1 = 0 and
    q_ij the entries of Q_i, column i of the factor is

        c_ji = (a_ij - q_ij) / sqrt(a_ii - q_ii)   (j > i),

    its diagonal entry is sqrt(a_ii - q_ii), and Q_{i+1} = Q_i + c_i c_i^T.
    Q_i is kept as the sum of the columns already written, so step i
    needs only its column i, one product of the first i-1 columns with
    row i: O(n^2) per step and O(n^3) in all. Neither the reference
    factorization nor a triangular solve is involved. A pivot a_ii - q_ii
    at or below ``TOL_PD * a_ii`` raises ``NotPositiveDefinite``, the
    reference's unit-free test.

    Accurate to n * kappa * eps (module docstring); over 200 draws per
    tested family at n = 12 and 64 the smallest margin is about 110x.

    Known limit: this recursion and ``potrf`` round a pivot differently,
    so where it lies within rounding of ``TOL_PD * a_ii`` the two can
    disagree about definiteness. With OpenBLAS's SkylakeX kernel, on seed
    837 of ``one_tiny_eigenvalue`` in ``tests/helpers.py`` (n = 65),
    written with ``%.17g``, ``CorrelationMatrix`` accepts (``potrf``'s
    pivot 65 is 1.0004e-12) but this route rejects pivot 65 at
    9.989787e-13; on seed 2345 (n = 54) it rejects pivot 54 at
    -5.341949e-12 against 1.195e-11. Other kernels round otherwise, so
    ``TestDecompose::test_routes_split_at_the_tol_pd_edge`` in
    ``tests/test_cli.py`` builds such a matrix on the running kernel.
    """
    a = r.values
    n = r.n
    coeffs = np.zeros((n, n))
    for i in range(n):
        q = coeffs[i:, :i] @ coeffs[i, :i]  # q_ji for j = i..n
        schur = a[i, i] - q[0]
        if not schur > TOL_PD * a[i, i]:
            raise NotPositiveDefinite(i + 1, schur)
        root = np.sqrt(schur)
        coeffs[i, i] = root
        coeffs[i + 1:, i] = (a[i + 1:, i] - q[1:]) / root
    return CholeskyFactor(coeffs)


def extract_signs(l: CholeskyFactor) -> np.ndarray:
    """Signs of the strictly-lower factor entries as a read-only integer
    (n, n) array: -1 or +1 below the diagonal (zeros map to +1, so the
    extraction is total and reconstruction is unaffected), 0 elsewhere."""
    s = np.tril(np.where(l.entries < 0.0, -1, 1), -1)
    s.flags.writeable = False
    return s


def chol_detratio(r: CorrelationMatrix | CovarianceMatrix, signs: np.ndarray) -> CholeskyFactor:
    """Cholesky factor with magnitudes from determinant-ratio differences
    and signs supplied externally.

    For row j the ratios |B_i^j| / |R_{i-1}| (i = 1..j, starting at a_jj
    and ending at |R_j|/|R_{j-1}|) are the diagonal entries j of one Schur
    elimination, O(n^3), and this route reads its pivots and steps, not
    the ratios: the last ratio, pivot j, is the squared diagonal entry,
    and each difference of successive ratios, a squared entry, is the
    step s_ji^2 / s_ii that the elimination's update forms, so it is
    never negative. A pivot at or below ``TOL_PD * a_ii`` raises
    ``NotPositiveDefinite``. ``signs`` is an (n, n) array with +1 or -1
    below the diagonal and 0 elsewhere, as ``extract_signs`` returns. The
    diagonal does not depend on signs; ``decompose`` takes them from the
    semi-partial factor, so the two routes are not independent in sign.
    On a covariance matrix row j equals sigma_j times row j of the
    correlation factor.

    Accurate to n * kappa * eps, row j to sigma_j times that on a
    covariance matrix (module docstring); over 200 draws per tested
    family at n = 12 and 64 the smallest margin is about 50x on
    correlation input and about 120x on covariance input.
    """
    n = r.n
    signs = np.asarray(signs)
    if signs.shape != (n, n):
        raise ValueError(f"sign array is {signs.shape}, matrix has n={n}")
    if np.any(np.abs(signs) != np.tri(n, k=-1)):  # true for nan
        raise ValueError("signs must be +1 or -1 below the diagonal and 0 elsewhere")
    pivots, steps = _schur_steps(r.values)
    ok = pivots > TOL_PD * r.values.diagonal()
    if not ok.all():
        k = int(np.argmin(ok))
        raise NotPositiveDefinite(k + 1, pivots[k])
    return CholeskyFactor(np.diag(np.sqrt(pivots)) + signs * np.sqrt(steps))


# Not public: the benchmark's LAYERS (perfbench/spans.py) and the test that
# resolves them still name it. It goes with ROADMAP item 4 step 1.
def chol_covariance(s: CovarianceMatrix, signs: np.ndarray) -> CholeskyFactor:
    return chol_detratio(s, signs)
