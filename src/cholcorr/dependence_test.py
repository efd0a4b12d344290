"""Sequential t-test for the linear dependence of one variable on a
growing set of others.

Given N samples of p jointly observed variables and a target variable,
the procedure estimates the sample correlation matrix with the target
ordered last, reads the semi-partial estimates r_k off the last row of
the semi-partial factor, and for each k = 1..p-1 tests whether the target
is uncorrelated with the first k variables using

    T = sqrt(N - 2) * r_k / sqrt(1 - r_k^2),

rejected at level alpha when |T| exceeds the upper alpha/2 quantile of
the t distribution with N - 2 degrees of freedom. r_k is the sample
correlation of the target with variable k residualized on variables
1..k-1; the target itself is not residualized. So when the target is
Gaussian and independent of the others, r_k^2 ~ Beta(1/2, (N-2)/2)
whatever the others are, and T is exactly t(N - 2) at every stage: the
classical law of a sample correlation with a fixed vector (Anderson,
*An Introduction to Multivariate Statistical Analysis*, ch. 4). Each
stage is a separate test at level alpha: all k are scanned (no early
stopping) and no multiplicity correction is applied; the report carries
every per-k decision plus the largest rejected k.

The correlation estimator is the product-moment estimator with mean
centering; the variance divisor cancels in the ratio, so the N vs N-1
choice is immaterial. The inverse-t quantile takes the tail mass
alpha/2 itself, not the probability 1 - alpha/2, which rounds: the
critical value is within 2e-14 relative for 5e-13 <= alpha/2 < 1/2 and
N - 2 <= 10^6, and finite for every normal alpha in (0, 1). The
estimator and the quantile are private helpers of ``sequential_test``;
the public names are the sample container, the test and its report.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DegenerateColumn, NearSingular
from .matrix_core import CorrelationMatrix, _Record
from .parametrizations import chol_semipartial


class SampleMatrix(_Record):
    """N samples of p variables, one column per variable.

    Requires N > p >= 2 and finite values, and raises ``DegenerateColumn``
    at the first column whose sample variance vanishes numerically: at or
    below the rounding that centering leaves in a constant column,
    (N eps)^2 times the column's mean square, so neither the units nor a
    large offset of a column decide degeneracy.

    Equality and hash go by identity, as for the matrix containers: the
    block is an array, which has no single truth value to compare by.
    """

    __slots__ = ("data",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, data: np.ndarray):
        a = np.array(data, dtype=float)
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
        self._set(a)

    @property
    def N(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


class StageResult(_Record):
    """Decision for one k: semi-partial estimate, statistic, threshold."""

    __slots__ = ("k", "r_semi", "t_stat", "df", "critical", "reject")

    def __init__(self, k: int, r_semi: float, t_stat: float, df: int, critical: float,
                 reject: bool):
        self._set(k, r_semi, t_stat, df, critical, reject)


class TestReport(_Record):
    """Full output of the sequential procedure.

    ``variable_order`` is the 1-based column order actually used (target
    last). ``largest_rejected_k`` is None when nothing was rejected.
    """

    __slots__ = ("alpha", "variable_order", "per_k", "largest_rejected_k")

    def __init__(self, alpha: float, variable_order: tuple[int, ...],
                 per_k: tuple[StageResult, ...], largest_rejected_k: int | None):
        self._set(alpha, variable_order, per_k, largest_rejected_k)

    def to_dict(self) -> dict:
        """The fields by name, each stage as a dict of its fields."""
        out = dict(zip(self.__slots__, self._fields()))
        out["per_k"] = tuple(dict(zip(s.__slots__, s._fields())) for s in self.per_k)
        return out


def _sample_correlation(data: np.ndarray) -> CorrelationMatrix:
    """Product-moment correlation matrix of the columns of ``data`` (each
    of which ``SampleMatrix`` has checked for variance).

    Raises ``NearSingular`` if the estimate fails positive-definite
    construction (e.g. two columns are perfectly collinear).
    """
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / data.shape[0]
    d = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * np.outer(d, d)
    try:
        return CorrelationMatrix(corr)
    except ValueError as exc:
        raise NearSingular(f"sample correlation is not positive-definite: {exc}") from exc


_EPS = sys.float_info.epsilon
_NEWTON_STEPS = 20  # the normal start leaves at most 5
_FRACTION_TERMS = 1000  # at most about 150 are needed, at t near 1


def _t_quantile(tail: float, df: int) -> float:
    """The t > 0 with P(T > t) = ``tail`` under the t distribution with
    ``df`` degrees of freedom, for 0 < tail < 1/2.

    Imports only ``math``. The caller passes the tail mass itself, so no
    probability is formed as 1 minus a small number.

    - df = 1 and df = 2 have closed forms.
    - Otherwise Newton's method on s = log t starts at the normal quantile
      z of ``tail``: the rational approximation of Abramowitz & Stegun
      26.2.23, within 4.5e-4 of z, or the lower bound sqrt(2 pi)
      (1/2 - tail) where that is larger, as near tail = 1/2 the
      approximation goes negative. Each step matches the log of the tail
      mass beyond t, or of the central mass P(0 < T < t) when t < 1, so
      that no mass is formed by subtracting from 1/2; P(T > t) =
      I_x(df/2, 1/2) / 2 with x = df / (df + t^2).
    - I_x comes from the continued fraction of DiDonato & Morris
      (TOMS 708, 1992, BFRAC), which takes x and 1 - x separately, and
      log B(df/2, 1/2) from an asymptotic series for large df, so that
      no large log-gamma values cancel.

    Accuracy contract: within 2e-14 relative of a 40-digit reference
    for df <= 10^6 and 5e-13 <= tail < 1/2, and finite and positive for
    every tail from the smallest normal double up; below it only the
    df = 1 quantile, about 1 / (pi tail), passes the largest double.
    Measured with mpmath: at most 6.0e-15 over 300 random (tail, df),
    the worst near t = 1 where the continued fraction is longest. Both
    loops are capped; an evaluation takes at most about 150
    continued-fraction terms at any df.
    """
    if not 0.0 < tail < 0.5:
        raise ValueError(f"tail must lie in (0, 1/2), got {tail}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if df == 1:
        return 1.0 / math.tan(math.pi * tail) if tail < 0.25 else math.tan(math.pi * (0.5 - tail))
    if df == 2:
        return (1.0 - 2.0 * tail) / math.sqrt(2.0 * tail * (1.0 - tail))
    a = 0.5 * df
    log_beta = 0.5 * math.log(math.pi) - _log_gamma_half_ratio(a)  # log B(a, 1/2)
    log_df = math.log(df)
    log_tail, log_centre = math.log(tail), math.log(0.5 - tail)
    w = math.sqrt(-2.0 * log_tail)
    s = math.log(max(w - (2.515517 + w * (0.802853 + w * 0.010328))
                     / (1.0 + w * (1.432788 + w * (0.189269 + w * 0.001308))),
                     math.sqrt(2.0 * math.pi) * (0.5 - tail)))
    for _ in range(_NEWTON_STEPS):
        t = math.exp(s)
        u = t * t / df
        x, y = 1.0 / (1.0 + u), u / (1.0 + u)
        log_x = -math.log1p(u)
        # x^a y^(1/2) / B(a, 1/2), and t times the density at t
        log_front = a * log_x + 0.5 * (2.0 * s - log_df + log_x) - log_beta
        log_t_density = s + (a + 0.5) * log_x - 0.5 * log_df - log_beta
        lam = 0.5 * (t - 1.0) * (t + 1.0) * x  # (a + 1/2) y - 1/2
        if lam >= 0.0:  # P(T > t) = I_x(a, 1/2) / 2
            log_mass = math.log(0.5 * _beta_fraction(a, 0.5, x, y, lam)) + log_front
            slope, target = -math.exp(log_t_density - log_mass), log_tail
        else:  # P(0 < T < t) = I_y(1/2, a) / 2
            log_mass = math.log(0.5 * _beta_fraction(0.5, a, y, x, -lam)) + log_front
            slope, target = math.exp(log_t_density - log_mass), log_centre
        step = (log_mass - target) / slope
        s -= step
        if abs(step) <= 1e-12:  # convergence is quadratic: the next step is rounding
            break
    return math.exp(s)


def _log_gamma_half_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) for a > 0, to about 1e-15 absolute.

    The difference of two ``math.lgamma`` values loses about eps *
    lgamma(a) to cancellation (3e-11 near a = 9000). Below a = 100 the
    ratio of ``math.gamma`` values is taken instead, and from there the
    Bernoulli-polynomial series, whose next term is below 1e-21.
    """
    if a < 100.0:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    w = 1.0 / (a * a)
    series = -1.0 / 8 + w * (1.0 / 192 + w * (-1.0 / 640 + w * 17.0 / 14336))
    return 0.5 * math.log(a) + series / a


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """The r with I_x(a, b) = r x^a y^b / B(a, b), by the continued
    fraction of DiDonato & Morris (TOMS 708, BFRAC).

    Takes y = 1 - x and lam = (a + b) y - b >= 0 from the caller, so no
    quantity near 1 is differenced; at most ``_FRACTION_TERMS`` terms.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _FRACTION_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _EPS * r:
            break
        an /= bnp1
        bn /= bnp1
        anp1, bnp1 = r, 1.0
    return r


def sequential_test(x: SampleMatrix, target: int, alpha: float) -> TestReport:
    """Scan k = 1..p-1 for dependence of the target variable on the first
    k others (in their given order), rejecting each stage at level alpha.

    ``target`` is the 1-based column to test; columns are permuted so it
    comes last and the permutation is recorded in the report. ``alpha``
    lies in [``sys.float_info.min``, 1): from the smallest normal double
    up every critical value is finite, below it the df = 1 quantile
    overflows and alpha/2 can round to 0.
    """
    if not 1 <= target <= x.p:
        raise ValueError(f"target must lie in 1..{x.p}, got {target}")
    if not sys.float_info.min <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [{sys.float_info.min}, 1), got {alpha}")
    order = [c for c in range(1, x.p + 1) if c != target] + [target]
    factor = chol_semipartial(_sample_correlation(x.data[:, [c - 1 for c in order]]))
    df = x.N - 2
    critical = _t_quantile(alpha / 2.0, df)
    stages = []
    largest = None
    for k in range(1, x.p):
        # |r_k| < 1: the target row of an accepted factor has l_pp^2 > TOL_PD
        r_k = float(factor.entries[x.p - 1, k - 1])
        t_k = math.sqrt(df) * r_k / math.sqrt(1.0 - r_k * r_k)
        reject = abs(t_k) > critical
        if reject:
            largest = k
        stages.append(StageResult(k=k, r_semi=r_k, t_stat=t_k, df=df,
                                  critical=critical, reject=reject))
    return TestReport(alpha=alpha, variable_order=tuple(order),
                      per_k=tuple(stages), largest_rejected_k=largest)
