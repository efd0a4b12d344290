"""Independent oracles shared by the test modules.

Everything here is deliberately naive (cofactor expansions, adjugates,
quadrature) so it shares no code path with the library internals it
checks.
"""

import math

import numpy as np
from scipy import special
from scipy.integrate import quad

from cholcorr.matrix_core import CorrelationMatrix
from cholcorr.randcorr import GeneratorConfig, generate


def random_correlation(n, seed):
    """A valid correlation matrix from the library's own generator."""
    return generate(GeneratorConfig(n=n, seed=seed))[1]


def kappa_correlation(n, kappa, seed):
    """A random orthogonal matrix times a log-spaced spectrum from 1 down
    to 1/kappa, rescaled to unit diagonal."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    a = (q * np.logspace(0.0, -np.log10(kappa), n)) @ q.T
    d = 1.0 / np.sqrt(np.diag(a))
    return CorrelationMatrix(a * np.outer(d, d))


def one_tiny_eigenvalue(t):
    """Unit-diagonal matrix from seed [11, t]: n in 3..79, a random
    orthogonal basis, eigenvalues log-uniform on [1e-3, 1] except one of
    +-10^U(-17, -10). Its last pivots sit at the level of rounding, where
    LAPACK and the Schur kernel can disagree about the sign."""
    rng = np.random.default_rng([11, t])
    n = int(rng.integers(3, 80))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.exp(rng.uniform(np.log(1e-3), 0.0, n))
    ev[rng.integers(n)] = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-17, -10)
    a = (q * ev) @ q.T
    d = 1.0 / np.sqrt(np.diag(a))
    a = a * np.outer(d, d)
    return 0.5 * (a + a.T)


def cofactor_det(a):
    """Determinant by recursive first-row cofactor expansion. Factorial
    cost, keep n small."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for c in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), c, axis=1)
        total += (-1.0) ** c * a[0, c] * cofactor_det(minor)
    return total


def adjugate_inverse(a):
    """Matrix inverse via the adjugate and the cofactor determinant."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    det = cofactor_det(a)
    adj = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof = (-1.0) ** (i + j) * (cofactor_det(minor) if n > 1 else 1.0)
            adj[j, i] = cof
    return adj / det


def t_cdf_quadrature(x, df):
    """Student-t CDF by adaptive quadrature of the density."""
    # through lgamma: math.gamma((df + 1) / 2) overflows from df = 343
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)

    def pdf(u):
        return c * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    if x >= 0:
        tail, _ = quad(pdf, 0.0, x, epsabs=1e-13, epsrel=1e-13)
        return 0.5 + tail
    tail, _ = quad(pdf, x, 0.0, epsabs=1e-13, epsrel=1e-13)
    return 0.5 - tail


def t_quantile_betaincinv(prob, df):
    """Student-t quantile by scipy's inverse regularized incomplete beta.

    P(T > t) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2), so the tail
    quantile is sqrt(df (1 - x) / x) at x = betaincinv(df/2, 1/2, 2 tail).
    Near the median x is close to 1 and 1 - x loses digits (6e-11 at
    df = 1999, prob = 0.49, against a 40-digit reference), so tails above
    1/4 invert the mirror I_y(1/2, df/2) = 1 - 2 tail for y = 1 - x,
    where 1 - 2 tail is exact. Within 5e-14 of the 40-digit reference for
    df <= 10^4 and 1e-12 <= prob <= 1 - 1e-12.
    """
    tail = prob if prob < 0.5 else 1.0 - prob
    if tail > 0.25:
        y = special.betaincinv(0.5, 0.5 * df, 1.0 - 2.0 * tail)
        q = math.sqrt(df * y / (1.0 - y))
    else:
        x = special.betaincinv(0.5 * df, 0.5, 2.0 * tail)
        q = math.sqrt(df * (1.0 - x) / x)
    return -q if prob < 0.5 else q


def gram_schmidt_columns(a):
    """Orthonormalize columns; output columns are exactly uncorrelated
    after centering because they are orthogonal with zero mean removed."""
    a = np.asarray(a, dtype=float)
    a = a - a.mean(axis=0)
    q = np.empty_like(a)
    for k in range(a.shape[1]):
        v = a[:, k].copy()
        for j in range(k):
            v -= (q[:, j] @ a[:, k]) * q[:, j]
        q[:, k] = v / np.linalg.norm(v)
    return q
