"""Sequential t-test for the linear dependence of one variable on a
growing set of others.

Given N samples of p jointly observed variables and a target variable,
the procedure estimates the sample correlation matrix with the target
ordered last, reads the semi-partial estimates r_k off the last row of
the semi-partial factor, and for each k = 1..p-1 tests whether the target
is uncorrelated with the first k variables using

    T = sqrt(N - k) * r_k / sqrt(1 - r_k^2),

rejected at level alpha when |T| exceeds the upper alpha/2 quantile of
the t distribution with N - k degrees of freedom. All k are scanned (no
early stopping) and no multiplicity correction is applied; the report
carries every per-k decision plus the largest rejected k.

The correlation estimator is the product-moment estimator with mean
centering; the variance divisor cancels in the ratio, so the N vs N-1
choice is immaterial.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateColumn, InvalidSemiPartial, NearSingular
from .matrix_core import CorrelationMatrix
from .parametrizations import chol_semipartial


@dataclass(frozen=True)
class SampleMatrix:
    """N samples of p variables, one column per variable.

    Requires N > p >= 2 and finite values, and raises ``DegenerateColumn``
    at the first column whose sample variance vanishes numerically: at or
    below the rounding that centering leaves in a constant column,
    (N eps)^2 times the column's mean square, so neither the units nor a
    large offset of a column decide degeneracy.
    """

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d sample block, got shape {a.shape}")
        n_samples, p = a.shape
        if p < 2:
            raise ValueError("need at least two variables")
        if n_samples <= p:
            raise ValueError(f"need more samples than variables, got N={n_samples}, p={p}")
        if not np.all(np.isfinite(a)):
            raise ValueError("sample values must be finite")
        rounding = (n_samples * np.finfo(float).eps) ** 2 * np.mean(a**2, axis=0)
        dead = np.nonzero(a.var(axis=0) <= rounding)[0]
        if dead.size:
            raise DegenerateColumn(int(dead[0]) + 1)
        a.flags.writeable = False
        object.__setattr__(self, "data", a)

    @property
    def N(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class StageResult:
    """Decision for one k: semi-partial estimate, statistic, threshold."""

    k: int
    r_semi: float
    t_stat: float
    df: int
    critical: float
    reject: bool


@dataclass(frozen=True)
class TestReport:
    """Full output of the sequential procedure.

    ``variable_order`` is the 1-based column order actually used (target
    last). ``largest_rejected_k`` is None when nothing was rejected.
    """

    alpha: float
    variable_order: tuple[int, ...]
    per_k: tuple[StageResult, ...]
    largest_rejected_k: int | None

    def to_dict(self) -> dict:
        return asdict(self)


def sample_correlation(x: SampleMatrix) -> CorrelationMatrix:
    """Product-moment correlation matrix of the sample columns (each of
    which ``SampleMatrix`` has checked for variance).

    Raises ``NearSingular`` if the estimate fails positive-definite
    construction (e.g. two columns are perfectly collinear).
    """
    centered = x.data - x.data.mean(axis=0)
    cov = centered.T @ centered / x.N
    d = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * np.outer(d, d)
    try:
        return CorrelationMatrix(corr)
    except ValueError as exc:
        raise NearSingular(f"sample correlation is not positive-definite: {exc}") from exc


def t_statistic(r_semi: float, N: int, k: int) -> float:
    """The statistic sqrt(N - k) * r / sqrt(1 - r^2).

    Odd and strictly increasing in ``r_semi``; raises
    ``InvalidSemiPartial`` when |r_semi| >= 1.
    """
    if not N > k >= 1:
        raise ValueError(f"need N > k >= 1, got N={N}, k={k}")
    if abs(r_semi) >= 1.0:
        raise InvalidSemiPartial(f"|r| = {abs(r_semi)} is outside (-1, 1)")
    return math.sqrt(N - k) * r_semi / math.sqrt(1.0 - r_semi * r_semi)


def t_quantile(prob: float, df: int) -> float:
    """Inverse CDF of the t distribution with ``df`` degrees of freedom.

    Inverts the regularized incomplete beta representation of the tail,
    so the returned quantile satisfies |CDF(q) - prob| <= 1e-10 across
    the supported range. ``scipy.special`` is imported on the first call,
    so only the ``test`` command pays for loading it.
    """
    from scipy import special

    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {prob}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if prob == 0.5:
        return 0.0
    tail = prob if prob < 0.5 else 1.0 - prob
    x = special.betaincinv(0.5 * df, 0.5, 2.0 * tail)
    q = math.sqrt(df * (1.0 - x) / x)
    return -q if prob < 0.5 else q


def sequential_test(x: SampleMatrix, target: int, alpha: float) -> TestReport:
    """Scan k = 1..p-1 for dependence of the target variable on the first
    k others (in their given order), rejecting each stage at level alpha.

    ``target`` is the 1-based column to test; columns are permuted so it
    comes last and the permutation is recorded in the report.
    """
    if not 1 <= target <= x.p:
        raise ValueError(f"target must lie in 1..{x.p}, got {target}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    order = [c for c in range(1, x.p + 1) if c != target] + [target]
    reordered = SampleMatrix(x.data[:, [c - 1 for c in order]])
    r_hat = sample_correlation(reordered)
    factor = chol_semipartial(r_hat)
    stages = []
    largest = None
    for k in range(1, x.p):
        r_k = float(factor.entries[x.p - 1, k - 1])
        t_k = t_statistic(r_k, x.N, k)
        df = x.N - k
        critical = t_quantile(1.0 - alpha / 2.0, df)
        reject = abs(t_k) > critical
        if reject:
            largest = k
        stages.append(StageResult(k=k, r_semi=r_k, t_stat=t_k, df=df,
                                  critical=critical, reject=reject))
    return TestReport(alpha=alpha, variable_order=tuple(order),
                      per_k=tuple(stages), largest_rejected_k=largest)
