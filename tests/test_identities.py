import itertools
import operator
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    ALL_VERIFIERS,
    chain_reference,
    cofactor_det,
    contract_bound,
    exact_schur,
    hard_correlations,
    kappa_correlation,
    margin,
    random_correlation,
    schur_ladders,
    verify_general_recursion,
    verify_product_sums,
    verify_ratio_differences,
    verify_recursion,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cholcorr.errors import NotPositiveDefinite
from cholcorr.identities import IDENTITIES, _chain, check_order_conditions, verify
from cholcorr.matrix_core import (
    TOL_PD,
    CorrelationMatrix,
    _schur_steps,
    leading_minor_determinants,
    reference_cholesky,
)


def ar1(n, rho):
    return CorrelationMatrix(rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n))))


def exact_det(m):
    """Determinant of a square list of lists of fractions by its permutation
    expansion, summed row by row over the sets of columns taken so far
    (k 2^(k-1) products for k rows): no elimination, so it shares no step
    with ``helpers.exact_schur``. An empty matrix has determinant 1."""
    partial = {0: Fraction(1)}  # columns taken by the rows so far -> signed sum
    for row in m:
        nxt = {}
        for taken, value in partial.items():
            for c, x in enumerate(row):
                if not taken >> c & 1:
                    # one inversion per earlier row that took a column right of c
                    sign = -1 if bin(taken >> c).count("1") % 2 else 1
                    nxt[taken | 1 << c] = nxt.get(taken | 1 << c, 0) + sign * value * x
        partial = nxt
    return partial[(1 << len(m)) - 1]


class TestProductSums:
    def test_identity_input_is_exactly_zero(self):
        assert verify_product_sums(CorrelationMatrix(np.eye(6))).max_residual == 0.0

    def test_smallest_block_closed_form(self):
        # the i = 1 quadratic form collapses to rho_1j * rho_12
        r = random_correlation(4, seed=2)
        a = r.values
        for j in range(2, 5):
            assert abs(a[:1, j - 1] @ np.array([[1.0]]) @ a[:1, 1] - a[0, j - 1] * a[0, 1]) == 0.0
        assert verify_product_sums(r).max_residual <= 1e-12

    def test_random_seed17(self):
        rep = verify_product_sums(random_correlation(8, seed=17))
        assert rep.name == "product_sums"
        assert rep.max_residual <= 1e-10
        i, j, l = rep.location
        assert 1 <= i < j <= 8 and l == 0

    def test_sums_match_factor_inner_products(self):
        # quadratic form toward column j = inner product of factor rows
        r = random_correlation(7, seed=33)
        factor = reference_cholesky(r).entries
        a = r.values
        for i in range(1, 7):
            inv = np.linalg.inv(a[:i, :i])
            for j in range(i + 1, 8):
                lhs = a[:i, j - 1] @ inv @ a[:i, i]
                rhs = factor[i, :i] @ factor[j - 1, :i]
                assert abs(lhs - rhs) <= 1e-11

    def test_planted_factor_error_is_found(self, monkeypatch):
        # on the identity every quadratic form is 0, so c_52 = 1e-3 in the factor
        # the check reads leaves only the sum for i = 4, j = 5: c_52^2 = 1e-6
        import cholcorr.identities as identities
        c = np.eye(6)
        c[4, 1] = 1e-3
        monkeypatch.setattr(identities, "chol_semipartial", lambda r: SimpleNamespace(entries=c))
        rep = verify_product_sums(CorrelationMatrix(np.eye(6)))
        assert rep.max_residual == pytest.approx(1e-6)
        assert rep.location == (4, 5, 0)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            verify_product_sums(CorrelationMatrix(np.eye(1)))


class TestRecursion:
    def test_identity_input_is_exactly_zero(self):
        assert verify_recursion(CorrelationMatrix(np.eye(5))).max_residual == 0.0

    def test_planted_inverse_error_is_found_in_column_i_plus_1(self, monkeypatch):
        # every solve reads rho_11 as 1 / (1 + d), so the inverse of the 1 x 1
        # block is off by d: later blocks stay consistent with it, and the
        # error shows only at i = 1, as d * rho_1j * rho_1l. The recursion
        # reads l = 2, the general recursion every l >= 2
        a = np.eye(4)
        a[0, 1:] = a[1:, 0] = (0.1, 0.2, 0.6)
        solve = np.linalg.solve

        def planted(block, border):
            block = block.copy()
            block[0, 0] = 1.0 / (1.0 + 1e-3)
            return solve(block, border)

        monkeypatch.setattr(np.linalg, "solve", planted)
        r = CorrelationMatrix(a)
        rec, general = verify_recursion(r), verify_general_recursion(r)
        assert (rec.max_residual, rec.location) == (pytest.approx(1e-3 * 0.1 * 0.6), (1, 4, 0))
        assert (general.max_residual, general.location) == (pytest.approx(1e-3 * 0.36), (1, 4, 4))

    def test_three_by_three_hand_check(self):
        r = random_correlation(5, seed=40)
        a = r.values
        # grow the i = 2 form by hand and compare with the direct inverse
        for j in range(3, 6):
            r12 = a[0, 1]
            direct = a[:2, j - 1] @ np.linalg.inv(a[:2, :2]) @ a[:2, 2]
            semi_23 = (a[1, 2] - r12 * a[0, 2]) / np.sqrt(1 - r12**2)
            semi_2j = (a[1, j - 1] - r12 * a[0, j - 1]) / np.sqrt(1 - r12**2)
            recursed = a[0, 2] * a[0, j - 1] + semi_23 * semi_2j
            assert abs(direct - recursed) <= 1e-13

    def test_random_seed23(self):
        rep = verify_recursion(random_correlation(10, seed=23))
        assert rep.max_residual <= 1e-10

    def test_needs_three(self):
        with pytest.raises(ValueError):
            verify_recursion(CorrelationMatrix(np.eye(2)))


class TestRatioDifferences:
    def test_identity_input_is_exactly_zero(self):
        assert verify_ratio_differences(CorrelationMatrix(np.eye(5))).max_residual == 0.0

    def test_ar1_hand_value(self):
        # for the lag-one structure at i=2, j=3 both sides equal rho^2 (1 - rho^2)
        rho = 0.5
        r = ar1(3, rho)
        a = r.values
        idx = [0, 2]
        lhs = cofactor_det(a[np.ix_(idx, idx)]) / 1.0 - cofactor_det(a) / cofactor_det(a[:2, :2])
        expected = rho**2 * (1 - rho**2)
        assert abs(lhs - expected) <= 1e-14
        assert abs(expected - 0.1875) == 0.0
        assert verify_ratio_differences(r).max_residual <= 1e-13

    def test_random_seed31(self):
        rep = verify_ratio_differences(random_correlation(9, seed=31))
        assert rep.max_residual <= 1e-10

    def test_needs_three(self):
        with pytest.raises(ValueError):
            verify_ratio_differences(CorrelationMatrix(np.eye(2)))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_residual_is_exactly_zero_in_exact_arithmetic(self, n):
        # the left side from the ladders of helpers.exact_schur, the right
        # side from determinants of the float input's submatrices, both exact
        values = random_correlation(n, seed=n).values
        pivots, steps, _ = exact_schur(values)
        a = [[Fraction(x) for x in row] for row in values.tolist()]

        def det(rows, cols):
            return exact_det([[a[i][k] for k in cols] for i in rows])

        lead = [det(range(i), range(i)) for i in range(n + 1)]  # |R_0| = 1, ..., |R_n|
        assert pivots == [lead[i + 1] / lead[i] for i in range(n)]
        for j in range(3, n + 1):  # 1-based i and j, as in the docstring
            # ladder[i - 1] = |B_i^j| / |R_{i-1}|: a_jj less the steps 1..i-1
            ladder = list(itertools.accumulate(steps[j - 1][:j - 1], operator.sub,
                                               initial=a[j - 1][j - 1]))
            for i in range(2, j):
                border = [*range(i - 1), j - 1]
                assert ladder[i - 1] == det(border, border) / lead[i - 1]
                num = det(range(i), border) / lead[i - 1]  # rho_ij - q_ij
                assert ladder[i - 1] - ladder[i] - num**2 * lead[i - 1] / lead[i] == 0


class TestGeneralRecursion:
    def test_identity_input_is_exactly_zero(self):
        assert verify_general_recursion(CorrelationMatrix(np.eye(6))).max_residual == 0.0

    def test_smallest_block_two_columns(self):
        # i = 1: the two-column quadratic form collapses to rho_1l * rho_1j
        r = random_correlation(5, seed=12)
        a = r.values
        for l in range(2, 6):
            for j in range(l, 6):
                lhs = a[:1, j - 1] @ np.array([[1.0]]) @ a[:1, l - 1]
                assert abs(lhs - a[0, l - 1] * a[0, j - 1]) == 0.0
        assert verify_general_recursion(r).max_residual <= 1e-12

    def test_random_seed41(self):
        rep = verify_general_recursion(random_correlation(7, seed=41))
        assert rep.max_residual <= 1e-10
        i, j, l = rep.location
        assert 1 <= i < l <= j <= 7

    def test_needs_three(self):
        with pytest.raises(ValueError):
            verify_general_recursion(CorrelationMatrix(np.eye(2)))

    def test_keeps_the_first_nan(self, monkeypatch):
        # a NaN in the last column of the walk's second solve reaches G_2 at
        # (6, 6) and, through q, the l = i+1 column at step 3: the two-column
        # report holds the first NaN, so it never reads below ``recursion``
        solve, calls = np.linalg.solve, []

        def nan_in_second(a, b):
            x = solve(a, b)
            calls.append(None)
            if len(calls) == 2:
                x[:, -1] = np.nan
            return x

        monkeypatch.setattr(np.linalg, "solve", nan_in_second)
        reports = {rep.name: rep for rep in verify(random_correlation(6, seed=3))}
        assert np.isnan(reports["recursion"].max_residual)
        assert reports["recursion"].location == (3, 6, 0)
        assert np.isnan(reports["general_recursion"].max_residual)
        assert reports["general_recursion"].location == (2, 6, 6)


class TestAllVerifiersSweep:
    @pytest.mark.parametrize("n,seed", [(3, 0), (6, 1), (10, 2), (15, 3), (20, 4)])
    def test_residuals_small_on_valid_input(self, n, seed):
        for report in verify(random_correlation(n, seed)):
            assert report.max_residual <= 1e-9


class TestKappaSweep:
    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("kappa", [1e2, 1e6, 1e10])
    def test_residuals_within_n_kappa_eps(self, n, kappa):
        # every accepted matrix is evaluated: no verifier raises. The smallest
        # margin over the four OpenBLAS kernels is 480x (tools/margins.py);
        # the floor is 240x.
        bound = n * kappa * np.finfo(float).eps
        for seed in range(20):
            for report in verify(kappa_correlation(n, kappa, seed)):
                assert margin(report.max_residual, bound) >= 240


# Outside the test body: Hypothesis seeds the derandomized draws from a
# digest of the test function's source, so a floor written in the body
# would re-draw the inputs whenever it moved.
HARD_INPUTS_FLOOR = 36


class TestHardInputs:
    """The n * kappa * eps contract on the families ``TestAccuracyContract``
    runs the factor routes over: AR(1) near |rho| = 1, equicorrelation near
    -1/(n-1), and planted tiny entries. The smallest margin over the OpenBLAS
    SkylakeX, Haswell, Sandybridge and Prescott kernels is 72.8x
    (equicorrelation at n = 12 under Sandybridge), as printed by
    ``tools/margins.py``; ``HARD_INPUTS_FLOOR`` is about half of it."""

    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("family", ["ar1", "equicorrelation", "planted"])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_residuals_within_n_kappa_eps(self, family, n, data):
        r = data.draw(hard_correlations(n)[family])
        for _, fn, _ in ALL_VERIFIERS:
            assert margin(fn(r).max_residual, contract_bound(r)) >= HARD_INPUTS_FLOOR


class TestChainBits:
    """The walk forms each step's residual in place and cuts its upper part
    with one mask built before the loop. It must give the bytes of the plain
    loop in ``helpers.chain_reference``: both call the same BLAS and LAPACK,
    so this holds under every OpenBLAS kernel and is not marked blas_bits."""

    @staticmethod
    def assert_same_walk(r):
        q, recursion, general = _chain(r)
        want_q, want_recursion, want_general = chain_reference(r)
        assert q.tobytes() == want_q.tobytes()
        assert (recursion, general) == (want_recursion, want_general)

    @pytest.mark.parametrize("n", [3, 12, 25, 64])
    def test_random_and_conditioned_inputs(self, n):
        for seed in range(3):
            self.assert_same_walk(random_correlation(n, seed))
        for kappa in (1e2, 1e6, 1e10):
            self.assert_same_walk(kappa_correlation(n, kappa, seed=n))

    @pytest.mark.parametrize("n", [3, 12, 25, 64])
    @pytest.mark.parametrize("family", ["ar1", "equicorrelation", "planted"])
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(data=st.data())
    def test_hard_inputs(self, family, n, data):
        self.assert_same_walk(data.draw(hard_correlations(n)[family]))


class TestStreamedChain:
    def test_peak_memory_below_2mb_at_n120(self):
        # a list of every leading-block inverse would hold n^3 / 3 floats, about 4.6 MB
        r = random_correlation(120, seed=3)
        tracemalloc.start()
        try:
            verify(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestVerify:
    """``verify`` builds the semi-partial factor, the walk and the Schur
    steps once per call, as locals, and returns the reports n allows."""

    @pytest.mark.parametrize("n,names", [
        (1, ()),
        (2, ("product_sums",)),
        (3, ("product_sums", "recursion", "ratio_differences", "general_recursion")),
    ])
    def test_reports_the_identities_n_allows_in_table_order(self, n, names):
        assert tuple(report.name for report in verify(random_correlation(n, seed=n))) == names
        assert tuple(name for name, min_n in IDENTITIES if n >= min_n) == names

    def test_threads_sharing_one_container_get_equal_reports(self):
        r = random_correlation(12, seed=8)
        expected = verify(r)
        assert len(expected) == 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(verify, r) for _ in range(6)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected] * 6

    def test_rejected_semipartial_factor_raises_before_any_solve(self, monkeypatch):
        # at the TOL_PD edge the semi-partial recursion can reject a pivot the
        # container accepted; verify builds that factor before its walk
        import cholcorr.identities as identities
        r = random_correlation(9, seed=3)
        solves = []

        def reject(r):
            raise NotPositiveDefinite(4, 1e-13)

        monkeypatch.setattr(identities, "chol_semipartial", reject)
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
        with pytest.raises(NotPositiveDefinite):
            verify(r)
        assert solves == []


def bordered_minors(a, j):
    """Bordered minors toward column j (1-based, j >= 2): element i-1 is the
    determinant of the principal submatrix on {1, ..., i-1, j}, read as
    the ladder of column j, formed from the ``_schur_steps`` steps, times
    the LU determinant of each leading (i-1)-block (the empty block's is 1)."""
    a = np.asarray(getattr(a, "values", a))
    ladder = schur_ladders(a, _schur_steps(a)[1])[:j, j - 1]
    return ladder * np.array([np.linalg.det(a[:i, :i]) for i in range(j)])


class TestBorderedDeterminant:
    """``bordered_minors(r, j)[i-1]`` is the determinant of the principal
    submatrix on {1, ..., i-1, j}."""

    def test_coincides_with_leading_minor_when_j_equals_i(self):
        r = random_correlation(6, seed=5)
        minors = leading_minor_determinants(r)
        for i in range(2, 7):
            assert abs(bordered_minors(r, i)[i - 1] - minors[i - 1]) <= 1e-12

    def test_two_by_two_hand_formula(self):
        r = random_correlation(4, seed=7)
        rho_14 = r.values[0, 3]
        assert abs(bordered_minors(r, 4)[1] - (1.0 - rho_14**2)) <= 1e-14

    def test_identity_blocks(self):
        r = CorrelationMatrix(np.eye(5))
        assert bordered_minors(r, 5)[2] == 1.0

    def test_against_cofactor_oracle(self):
        r = random_correlation(5, seed=13)
        for j in range(2, 6):
            col = bordered_minors(r, j)
            for i in range(2, j + 1):
                idx = list(range(i - 1)) + [j - 1]
                expected = cofactor_det(r.values[np.ix_(idx, idx)])
                assert abs(col[i - 1] - expected) <= 1e-12

    def test_column_matches_single_queries(self):
        # each element against an LU determinant of its own submatrix
        r = random_correlation(6, seed=21)
        for j in range(2, 7):
            col = bordered_minors(r, j)
            assert col[0] == 1.0
            for i in range(2, j + 1):
                idx = list(range(i - 1)) + [j - 1]
                assert abs(col[i - 1] - np.linalg.det(r.values[np.ix_(idx, idx)])) <= 1e-12


def pivot_ladders(r):
    """Ladders for columns j = 2..n from factorization pivots: bordered
    minors toward j divided by the previous leading minors."""
    prev = np.concatenate(([1.0], leading_minor_determinants(r)[:-1]))
    return [bordered_minors(r, j) / prev[:j] for j in range(2, r.n + 1)]


class TestDeterminantLadders:
    def test_identity_ladders_are_all_ones(self):
        for j, ladder in enumerate(pivot_ladders(CorrelationMatrix(np.eye(5))), start=2):
            np.testing.assert_array_equal(ladder, np.ones(j))

    @pytest.mark.parametrize("seed", range(5))
    def test_differences_are_nonnegative(self, seed):
        # each difference is a squared factor entry, so it cannot go below 0
        for ladder in pivot_ladders(random_correlation(8, seed)):
            assert np.all(-np.diff(ladder) >= -1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_orders_hold_on_valid_input(self, seed):
        # ratios above TOL_PD, the containers' pivot floor, that start at 1
        # and never increase, up to a rounding slack of TOL_PD
        for ladder in pivot_ladders(random_correlation(7, seed)):
            assert np.all(ladder > TOL_PD) and np.all(ladder <= 1.0 + TOL_PD)
            assert np.all(np.diff(ladder) <= TOL_PD)


def lu_bordered(a, i, j):
    """LU determinant of the principal submatrix on {1..i-1, j} (1-based)."""
    idx = list(range(i - 1)) + [j - 1]
    return float(np.linalg.det(a[np.ix_(idx, idx)]))


def indefinite_input(kind, n, param):
    """Symmetric unit-diagonal matrices the generator never produces:
    uniform noise (seeded by ``param``), or equicorrelation at
    -1/(n-1) + ``param``, just inside or just outside the definite set."""
    if kind == "noise":
        raw = np.random.default_rng(param).uniform(-1.0, 1.0, size=(n, n))
        a = 0.5 * (raw + raw.T)
    else:
        a = np.full((n, n), -1.0 / (n - 1) + param)
    np.fill_diagonal(a, 1.0)
    return a


ORDER_FAMILIES = ("noise", "perturbed", "equicorrelation", "rank_deficient", "zero_pivot")


def order_input(family, n, seed):
    """Symmetric unit-diagonal n x n matrix of one family, from ``seed``:
    scaled uniform noise; a log-spaced spectrum from 1 down to
    10^-U(1, 12), rescaled to unit diagonal, plus noise of scale
    10^-U(1, 14); equicorrelation within 10^-U(1, 15) of -1/(n-1) on
    either side; a Gram matrix of rank below n; or scaled noise in which
    variable k repeats variable k-1, so that pivot k is exactly 0 (or nan
    after an earlier zero)."""
    rng = np.random.default_rng(seed)
    if family in ("noise", "zero_pivot"):
        a = rng.uniform(-1.0, 1.0, (n, n)) * rng.uniform(0.02, 1.0)
    elif family == "perturbed":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.logspace(0.0, -rng.uniform(1.0, 12.0), n)) @ q.T
        a = a / np.sqrt(np.outer(np.diag(a), np.diag(a)))
        a += rng.standard_normal((n, n)) * 10.0 ** -rng.uniform(1.0, 14.0)
    elif family == "equicorrelation":
        gap = rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1.0, 15.0)
        a = np.full((n, n), -(1.0 - gap) / (n - 1))
    else:
        f = rng.standard_normal((n, int(rng.integers(1, n))))
        f /= np.linalg.norm(f, axis=1)[:, None]
        a = f @ f.T
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 1.0)
    if family == "zero_pivot":
        k = int(rng.integers(1, n))
        a[k], a[:, k] = a[k - 1], a[:, k - 1]
        a[k, k - 1] = a[k - 1, k] = 1.0
    return a


class TestCheckOrderConditions:
    @pytest.mark.parametrize("family", ORDER_FAMILIES)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
    def test_positive_pivots_imply_the_ratio_ordering(self, family, n, seed):
        # the one decision stands for both orderings: once every pivot
        # passes, each rung of a ladder is the one above minus a step >= 0,
        # rounded once, so the ladder starts at 1 and never increases down
        # to its pivot
        a = order_input(family, n, seed)
        with np.errstate(all="ignore"):
            pivots, steps, _ = _schur_steps(a)
        d = schur_ladders(a, steps)
        ok = check_order_conditions(a)
        assert ok == bool(np.all(pivots > TOL_PD))
        if family == "zero_pivot":
            assert not ok
        if ok:
            assert np.all(steps >= 0.0)
            for j in range(n):
                ladder = d[: j + 1, j]
                assert ladder[1:].tobytes() == (ladder[:-1] - steps[j, :j]).tobytes()
                assert ladder[0] == 1.0
                assert np.all((d[j, j] <= ladder) & (ladder <= 1.0))
                assert np.all(np.diff(ladder) <= 0.0)

    @pytest.mark.parametrize(
        "kind,n,param",
        [("noise", n, seed) for n in (8, 25) for seed in range(3)]
        + [("equicorrelation", n, off) for n in (8, 25) for off in (-1e-3, 1e-3)],
    )
    def test_ladders_match_lu_determinants(self, kind, n, param):
        a = indefinite_input(kind, n, param)
        d = schur_ladders(a, _schur_steps(a)[1])
        for j in range(2, n + 1):
            col = bordered_minors(a, j)
            for i in range(1, j + 1):
                det = lu_bordered(a, i, j)
                assert abs(col[i - 1] - det) <= 1e-12 * max(1.0, abs(det))
                ratio = det / np.linalg.det(a[: i - 1, : i - 1])  # the empty block's det is 1
                assert abs(d[i - 1, j - 1] - ratio) <= 1e-12 * max(1.0, abs(ratio))

    def test_bordered_minors_of_known_indefinite_matrix(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        col = bordered_minors(bad, 3)
        np.testing.assert_allclose(col, [1.0, 0.19, -2.888], rtol=0.0, atol=1e-12)
        for i in range(1, 4):
            assert abs(col[i - 1] - lu_bordered(bad, i, 3)) <= 1e-12

    def test_exact_zero_pivot_fails_without_warning(self):
        a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok = check_order_conditions(a)
        assert ok is False

    def test_identity(self):
        assert check_order_conditions(np.eye(5)) is True
        pivots, steps, _ = _schur_steps(np.eye(5))
        np.testing.assert_array_equal(pivots, np.ones(5))
        np.testing.assert_array_equal(schur_ladders(np.eye(5), steps), np.triu(np.ones((5, 5))))

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_matrices_pass(self, seed):
        r = random_correlation(6, seed)
        assert check_order_conditions(r.values) is True

    def test_known_indefinite_matrix_fails(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        assert cofactor_det(bad) < 0
        assert check_order_conditions(bad) is False

    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e10])
    def test_kappa_family_keeps_both_orderings(self, n, kappa):
        # from n = 12, kappa = 1e4 (2.8e-14 to 8.1e-13) the determinant lies
        # below TOL_PD, while each ratio of successive leading minors stays
        # above it
        for seed in range(5):
            assert check_order_conditions(kappa_correlation(n, kappa, seed).values) is True

    @pytest.mark.parametrize(
        "kind,n,param",
        [("noise", n, seed) for n in (8, 25) for seed in range(3)]
        + [("equicorrelation", n, -1e-3) for n in (8, 25)],
    )
    def test_indefinite_input_violates_both_orderings(self, kind, n, param):
        a = indefinite_input(kind, n, param)
        assert np.linalg.eigvalsh(a)[0] < 0.0
        assert check_order_conditions(a) is False

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            check_order_conditions(np.array([[1.0, 0.2], [0.5, 1.0]]))

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError):
            check_order_conditions(np.array([[2.0, 0.2], [0.2, 2.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            check_order_conditions(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_factorization_success(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        if seed % 2 == 0:
            a = random_correlation(n, seed).values
        else:
            a = rng.uniform(-1, 1, size=(n, n))
            a = 0.5 * (a + a.T)
            np.fill_diagonal(a, 1.0)
        ok = check_order_conditions(a)
        try:
            reference_cholesky(CorrelationMatrix(a))
            succeeded = True
        except NotPositiveDefinite:
            succeeded = False
        assert ok == succeeded
