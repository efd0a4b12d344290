"""Independent oracles shared by the test modules.

Everything here is deliberately naive (cofactor expansions, quadrature,
per-cell parsing) so it shares no code path with the library internals
it checks.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from cholcorr.identities import IDENTITIES, IdentityReport, verify
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


def ar1_correlation(n, rho):
    """AR(1) matrix rho^|i - j|; as |rho| -> 1 every pivot after the
    first, 1 - rho^2, goes to 0."""
    return CorrelationMatrix(rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n))))


def equicorrelation(n, gap):
    """Every off-diagonal entry -(1 - gap) / (n - 1), just above the
    lowest value that keeps the matrix positive-definite: its smallest
    eigenvalue is gap, the others 1 + (1 - gap) / (n - 1)."""
    rho = -(1.0 - gap) / (n - 1)
    return CorrelationMatrix(np.where(np.eye(n, dtype=bool), 1.0, rho))


def planted_correlation(n, seed, tiny=1e-8):
    """F F^T for a lower-triangular F with unit rows, so F is its Cholesky
    factor: unit diagonal plus standard normal off-diagonals scaled by
    2/sqrt(n) (each row's squared norm stays below about 5, so no diagonal
    entry of F falls far below 1/sqrt(5)), with one entry below the
    diagonal set to ``tiny`` before the rows are normalized."""
    rng = np.random.default_rng(seed)
    f = np.tril(rng.standard_normal((n, n)), -1) * (2.0 / np.sqrt(n)) + np.eye(n)
    j = int(rng.integers(1, n))
    f[j, rng.integers(j)] = tiny
    f /= np.linalg.norm(f, axis=1)[:, None]
    return CorrelationMatrix(f @ f.T)


def hard_correlations(n):
    """Hypothesis strategies for the three families above at dimension n,
    by name: "ar1" with |rho| = 1 - 10^-u, u in [1, 5], either sign;
    "equicorrelation" with gap 10^-u, u in [1, 10]; "planted" with any
    seed and an entry of 10^-u, u in [6, 12]."""
    return {
        "ar1": st.builds(lambda u, sign: ar1_correlation(n, sign * (1.0 - 10.0**-u)),
                         st.floats(1.0, 5.0), st.sampled_from((-1.0, 1.0))),
        "equicorrelation": st.builds(lambda u: equicorrelation(n, 10.0**-u), st.floats(1.0, 10.0)),
        "planted": st.builds(lambda seed, u: planted_correlation(n, seed, 10.0**-u),
                             st.integers(0, 2**32 - 1), st.floats(6.0, 12.0)),
    }


def contract_bound(r):
    """n * kappa * eps, kappa the 2-norm condition number of ``r``: the
    accuracy that the factor routes and the identity verifiers state
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 10)."""
    return r.n * np.linalg.cond(r.values) * np.finfo(float).eps


def margin(error, bound):
    """How many times over ``error`` meets ``bound``: bound / error, and inf
    for an error of 0 (nan for a nan error, which fails any floor). The
    accuracy tests hold a floor on it, so a margin that falls far below the
    one measured fails before the bound itself does."""
    return bound / error if error else math.inf


def backward_ratio(l, a):
    """max |L L^T - A| / (gamma_{n+1} |L| |L^T|) entrywise, with
    gamma_{n+1} = (n + 1) eps / (1 - (n + 1) eps): at most 1 when the factor
    ``l`` of ``a`` meets the Cholesky backward-error bound (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 10.3), which
    does not depend on kappa or on the units of ``a``. The residual is
    formed in double precision."""
    u = (len(l) + 1) * np.finfo(float).eps
    return float(np.max(np.abs(l @ l.T - a) / (u / (1 - u) * (np.abs(l) @ np.abs(l).T))))


def one_tiny_eigenvalue(t):
    """Unit-diagonal matrix from seed [11, t]: n in 3..79, a random
    orthogonal basis, eigenvalues log-uniform on [1e-3, 1] except one of
    +-10^U(-17, -10). Its last pivots sit at the level of rounding, where
    LAPACK and the Schur kernel can disagree about the sign."""
    matrix, tiny = tiny_eigenvalue_family(t)
    return matrix(tiny)


def tiny_eigenvalue_family(t):
    """``(matrix, tiny)``: ``matrix(lam)`` is ``one_tiny_eigenvalue(t)``
    with its tiny eigenvalue set to ``lam`` before the rescaling to unit
    diagonal, and ``tiny`` is the value that seed t draws."""
    rng = np.random.default_rng([11, t])
    n = int(rng.integers(3, 80))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.exp(rng.uniform(np.log(1e-3), 0.0, n))
    tiny = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-17, -10)
    k = rng.integers(n)

    def matrix(lam):
        e = ev.copy()
        e[k] = lam
        a = (q * e) @ q.T
        d = 1.0 / np.sqrt(np.diag(a))
        a = a * np.outer(d, d)
        return 0.5 * (a + a.T)

    return matrix, tiny


def schur_ladders(a, steps):
    """The ladders of the Schur elimination of ``a``, formed from the
    ``steps`` that ``matrix_core._schur_steps`` returns: an upper-triangular (n, n)
    ``d`` whose row i is each column's diagonal entry after steps 0..i-1,
    a_jj less those steps in their order, so ``d[i, j]`` (0-based,
    j >= i) is the ratio |B_{i+1}^{j+1}| / |R_i| and ``d[j, j]``, the foot
    of ladder j, is pivot j."""
    with np.errstate(all="ignore"):  # inf and nan below a zero pivot
        return np.triu(np.subtract.accumulate(np.vstack((np.diagonal(a), steps.T[:-1]))))


def schur_steps_reference(a):
    """The Schur elimination of ``matrix_core._schur_steps`` as a plain
    loop that writes each ladder row and each step as the elimination
    forms it, as ``(d, steps)``: row i of ``d`` is the diagonal before
    step i, so ``d[i, i]`` is pivot i, and column i of ``steps`` is the
    diagonal of the rank-one update that step i subtracts."""
    s = np.array(a, dtype=float)
    n = s.shape[0]
    d, steps = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        d[i, i:] = s.diagonal()[i:]
        col = s[i + 1:, i]
        update = np.outer(col, col / s[i, i])
        s[i + 1:, i + 1:] -= update
        steps[i + 1:, i] = update.diagonal()
    return d, steps


def chain_reference(r):
    """The walk of ``identities._chain`` as a plain loop that forms each
    step's residual as a fresh array and cuts its upper part with
    ``np.tril``, as ``(q, recursion, general_recursion)``; the recursion
    report is taken as ``identities._worst`` takes it, through a
    ``np.triu`` mask."""
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
    worst = np.where(np.triu(np.ones(rec[1:].shape, dtype=bool), 1), rec[1:], -1.0)
    i, j = divmod(int(np.argmax(worst)), worst.shape[1])
    return (q, IdentityReport("recursion", float(worst[i, j]), (i + 1, j + 1, 0)),
            IdentityReport("general_recursion", *general))


def report_of(name):
    """The verifier of one identity: the report named ``name`` that
    ``identities.verify`` returns, and ``ValueError`` at an n without one."""
    def verifier(r):
        for report in verify(r):
            if report.name == name:
                return report
        raise ValueError(f"verify gives no {name} report at n = {r.n}")

    verifier.__name__ = f"verify_{name}"
    return verifier


# The verifiers the identity tests iterate, each read from ``verify``. The
# Hypothesis tests name them in their bodies, whose source seeds their draws.
ALL_VERIFIERS = tuple((name, report_of(name), min_n) for name, min_n in IDENTITIES)
verify_product_sums, verify_recursion, verify_ratio_differences, verify_general_recursion = (
    fn for _, fn, _ in ALL_VERIFIERS)


def exact_schur(a):
    """The Schur elimination of ``matrix_core._schur_steps`` in
    ``fractions.Fraction`` arithmetic on the same float input, as
    ``(pivots, steps, signs)``: nested lists of the exact values that the
    kernel rounds. ``pivots[i]`` is the exact pivot i, ``steps[j][i]``
    (j > i, 0 elsewhere) the exact s_ji^2 / s_ii, and ``signs[j][i]`` the
    sign of the exact s_ji, -1 or +1 (0 maps to +1) below the diagonal
    and 0 elsewhere. Every float converts exactly, so nothing is rounded.
    As in the kernel, only the lower triangle is read. A zero pivot
    raises ``ZeroDivisionError``. The fractions grow with each step;
    keep n small."""
    n = len(a)
    s = [[Fraction(x) for x in row[:j + 1]] for j, row in enumerate(np.asarray(a).tolist())]
    steps = [[Fraction(0)] * n for _ in range(n)]
    signs = [[0] * n for _ in range(n)]
    for i in range(n):
        scaled = {k: s[k][i] / s[i][i] for k in range(i + 1, n)}
        for j in range(i + 1, n):
            steps[j][i] = s[j][i] * scaled[j]
            signs[j][i] = -1 if s[j][i] < 0 else 1
            for k in range(i + 1, j + 1):
                s[j][k] -= s[j][i] * scaled[k]
    return [s[i][i] for i in range(n)], steps, signs


def per_cell_csv(text):
    """The table ``cholcorr.cli.load_table`` reads from CSV ``text``, or the
    message it raises after the path, by a loop of ``float()`` per cell:
    every line that is not all whitespace is a row, split at each comma,
    and the first cell ``float()`` rejects names the error."""
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    try:
        cells = [[float(v) for v in row] for row in rows]
    except ValueError as exc:
        return f"cannot parse as csv: {exc}"
    if not cells:
        return "the table has no rows"
    if len({len(row) for row in cells}) != 1:
        return "rows have inconsistent lengths"
    a = np.array(cells, dtype=float)
    if not np.all(np.isfinite(a)):
        return "values must be finite"
    return a


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


def t_quantile_betaincinv(tail, df):
    """The t > 0 with P(T > t) = tail, by scipy's inverse regularized
    incomplete beta.

    P(T > t) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2). The helper
    solves for the smaller of x and y = 1 - x, so that the other is not
    formed as 1 minus a number near 1, and gives the solver 2 tail, which
    is exact, in either form: x = betaincinv(df/2, 1/2, 2 tail) when
    x < 1/2, i.e. when 2 tail < I_{1/2}(df/2, 1/2), and otherwise
    y = betainccinv(1/2, df/2, 2 tail), from the mirror
    1 - I_y(1/2, df/2) = 2 tail. Within 2e-15 relative of a 50-digit
    mpmath root for df up to 10^6 and 5e-13 <= tail < 1/2 (at most
    1.9e-15 measured, at df = 30 and tail = 5e-7).
    """
    if 2.0 * tail < special.betainc(0.5 * df, 0.5, 0.5):
        x = special.betaincinv(0.5 * df, 0.5, 2.0 * tail)
        return math.sqrt(df * (1.0 - x) / x)
    y = special.betainccinv(0.5, 0.5 * df, 2.0 * tail)
    return math.sqrt(df * y / (1.0 - y))


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
