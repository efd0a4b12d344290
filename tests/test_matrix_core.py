import numpy as np
import pytest
import scipy
from helpers import (
    cofactor_det,
    one_tiny_eigenvalue,
    random_correlation,
    schur_ladders,
    schur_steps_reference,
)
from scipy.linalg import lapack

import cholcorr.matrix_core as matrix_core
from cholcorr.errors import NotPositiveDefinite
from cholcorr.matrix_core import (
    TOL_PD,
    TOL_SYM,
    CholeskyFactor,
    CorrelationMatrix,
    CovarianceMatrix,
    leading_minor_determinants,
    reference_cholesky,
)

NOT_PD_3X3 = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.1], [0.9, 0.1, 1.0]])


def tiny_pivot_block(pivot):
    """2 x 2 correlation block whose second pivot 1 - rho^2 is ``pivot``."""
    rho = np.sqrt(1.0 - pivot)
    return np.array([[1.0, rho], [rho, 1.0]])


def exact_schur(a, k):
    """Schur complement of the leading (k-1)-block at 1-based index k."""
    lead = a[: k - 1, : k - 1]
    return a[k - 1, k - 1] - a[k - 1, : k - 1] @ np.linalg.solve(lead, a[: k - 1, k - 1])


def lapack_builds():
    """The LAPACK builds that numpy and scipy link, as one line: the two
    can differ, and their ``potrf`` pivots then round differently."""
    return "; ".join(
        f"{module.__name__} {module.__version__} links LAPACK {build['name']} {build['version']}"
        for module in (np, scipy)
        for build in [module.show_config(mode="dicts")["Build Dependencies"]["lapack"]]
    )


def dpotrf_reject_index(a):
    """1-based index of the first pivot of scipy's ``dpotrf`` factor at or
    below ``TOL_PD * a_kk``, else the index where ``dpotrf`` stopped, else
    None (accepted)."""
    lower, info = lapack.dpotrf(a, lower=1, clean=1)
    stop = info if info > 0 else a.shape[0] + 1
    pivots = lower.diagonal()[: stop - 1] ** 2
    small = np.flatnonzero(~(pivots > TOL_PD * a.diagonal()[: stop - 1]))
    k = int(small[0]) + 1 if small.size else stop
    return k if k <= a.shape[0] else None


def reject_index(a):
    try:
        matrix_core._reference_factor(a)
    except NotPositiveDefinite as err:
        return err.pivot_index
    return None


class TestContainers:
    def test_square_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, 0.2, 0.3], [0.2, 1.0, 0.4]])

    def test_square_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_entries_are_frozen(self):
        m = CorrelationMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_correlation_sets_unit_diagonal_exactly(self):
        r = CorrelationMatrix([[1.0 + 5e-11, 0.3], [0.3, 1.0 - 5e-11]])
        assert r.values[0, 0] == 1.0
        assert r.values[1, 1] == 1.0

    @pytest.mark.parametrize("diagonal", [4.0, 1.0 + 2e-10, 1.0 - 2e-10])
    def test_correlation_rejects_non_unit_diagonal(self, diagonal):
        with pytest.raises(ValueError, match="unit diagonal"):
            CorrelationMatrix([[diagonal, 0.5], [0.5, diagonal]])

    def test_correlation_rejects_abs_one(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, 1.0], [1.0, 1.0]])

    def test_correlation_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_correlation_rejects_not_positive_definite(self):
        assert cofactor_det(NOT_PD_3X3) < 0
        with pytest.raises(NotPositiveDefinite) as err:
            CorrelationMatrix(NOT_PD_3X3)
        assert err.value.pivot_index == 3

    def test_correlation_dimension_one(self):
        r = CorrelationMatrix([[1.0]])
        assert r.n == 1
        assert leading_minor_determinants(r).tolist() == [1.0]

    def test_repr_names_the_type_and_dimension(self):
        assert repr(CorrelationMatrix(np.eye(3))) == "CorrelationMatrix(n=3)"
        assert repr(CovarianceMatrix(np.diag([4.0, 9.0]))) == "CovarianceMatrix(n=2)"
        assert repr(CholeskyFactor(np.eye(2))) == "CholeskyFactor(n=2)"

    def test_covariance_sigmas(self):
        s = CovarianceMatrix([[4.0, 0.0], [0.0, 9.0]])
        np.testing.assert_allclose(np.sqrt(np.diag(s.values)), [2.0, 3.0])

    def test_covariance_accepts_tiny_variance(self):
        # pivot 1e-12 is at TOL_PD in absolute terms but 1 relative to its diagonal
        s = CovarianceMatrix(np.diag([1e-12, 1.0]))
        sigmas = np.sqrt(np.diag(s.values))
        np.testing.assert_allclose(sigmas, [1e-6, 1.0])
        np.testing.assert_array_equal(s.values / np.outer(sigmas, sigmas), np.eye(2))
        np.testing.assert_allclose(reference_cholesky(s).entries, np.diag([1e-6, 1.0]))

    def test_covariance_rejection_reports_raw_pivot(self):
        sig = np.array([1e-3, 2e-3, 5e-4])
        cov = NOT_PD_3X3 * np.outer(sig, sig)
        with pytest.raises(NotPositiveDefinite) as err:
            CovarianceMatrix(cov)
        assert err.value.pivot_index == 3
        assert abs(err.value.pivot_value - exact_schur(cov, 3)) <= 1e-12 * sig[2] ** 2

    def test_containers_reuse_their_factor(self, monkeypatch):
        r = random_correlation(6, seed=4)
        s = CovarianceMatrix(r.values * np.outer(np.arange(1.0, 7.0), np.arange(1.0, 7.0)))
        expected = {m: np.linalg.cholesky(m.values) for m in (r, s)}

        def refuse(*args, **kwargs):
            raise AssertionError("a validated container was factored again")

        monkeypatch.setattr(matrix_core, "_reference_factor", refuse)
        for m in (r, s):
            np.testing.assert_allclose(reference_cholesky(m).entries, expected[m], atol=1e-12)
            minors = leading_minor_determinants(m)
            np.testing.assert_allclose(minors, np.cumprod(np.diag(expected[m]) ** 2), rtol=1e-12)

    def test_covariance_correlation_roundtrip(self):
        r = random_correlation(4, seed=11)
        sig = np.array([0.5, 1.0, 1.5, 2.0])
        s = CovarianceMatrix(r.values * np.outer(sig, sig))
        sigmas = np.sqrt(np.diag(s.values))
        np.testing.assert_allclose(s.values / np.outer(sigmas, sigmas), r.values, atol=1e-14)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e8, 1e10, 1e-6])
    def test_one_ulp_of_asymmetry_is_accepted_at_every_scale(self, scale):
        # the relative asymmetry is about 1.5e-17 at every scale; an
        # absolute TOL_SYM rejected it from scale 1e8 up
        a = np.cov(np.random.default_rng(0).standard_normal((40, 5)), rowvar=False) * scale
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        assert CovarianceMatrix(a).values[0, 1] == 0.5 * (a[0, 1] + a[1, 0])

    @pytest.mark.parametrize("rel", [0.0, 2e-17, 0.5 * TOL_SYM, 2.0 * TOL_SYM, 1e-6])
    @pytest.mark.parametrize("k", range(4))
    def test_rescaling_a_variable_keeps_the_symmetry_decision(self, k, rel):
        base = np.cov(np.random.default_rng(k).standard_normal((30, 4)), rowvar=False)
        base[1, 2] += rel * np.sqrt(base[1, 1] * base[2, 2])

        def symmetric(a):
            try:
                CovarianceMatrix(a)
            except ValueError as exc:
                assert "not symmetric" in str(exc)
                return False
            return True

        want = symmetric(base)
        assert want == (rel < TOL_SYM)
        for factor in (1e-6, 1e6):
            d = np.ones(4)
            d[k] = factor
            assert symmetric(base * np.outer(d, d)) == want

    @pytest.mark.parametrize("diagonal,asymmetry,message", [
        (0.0, 0.0, "diagonal"), (0.0, 1e-300, "diagonal"), (0.0, 0.5, "diagonal"),
        (-1.0, 1e-300, "diagonal"), (-1.0, 0.5, "not symmetric"),
        (-1e-20, 1e-31, "diagonal"), (-1e-20, 1e-12, "not symmetric"),
    ])
    def test_non_positive_diagonal_after_symmetry(self, diagonal, asymmetry, message):
        # a negative diagonal entry is judged by its size; a pair with a
        # zero diagonal entry is left to the diagonal check, which names it
        a = np.array([[1.0, 0.0, 0.3], [0.0, diagonal, 0.0], [0.3, 0.0, 1.0]])
        a[0, 1] = asymmetry
        for container in (CovarianceMatrix, CorrelationMatrix):
            with pytest.raises(ValueError) as err:
                container(a)
            assert message in str(err.value)

    def test_factor_rejects_nonzero_upper(self):
        with pytest.raises(ValueError):
            CholeskyFactor([[1.0, 1e-300], [0.5, 1.0]])

    def test_factor_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            CholeskyFactor([[1.0, 0.0], [0.5, 0.0]])


def with_entries(a, entries):
    """A copy of ``a`` with ``entries``, a map of (row, column) to value."""
    out = np.array(a, dtype=float)
    for (i, j), value in entries.items():
        out[i, j] = value
    return out


def planted(stack, element, at=2):
    """A copy of ``stack`` with ``element`` in position ``at``."""
    out = stack.copy()
    out[at] = element
    return out


def tiny_pivot_3x3(pivot):
    a = np.eye(3)
    a[:2, :2] = tiny_pivot_block(pivot)
    return a


GOOD = np.stack([random_correlation(3, seed).values for seed in range(5)])
BASE = random_correlation(3, seed=99).values
BAD_CORRELATIONS = {
    "non-finite": with_entries(BASE, {(0, 1): np.nan, (1, 0): np.nan}),
    "asymmetric": with_entries(BASE, {(0, 1): BASE[0, 1] + 1e-6}),
    "off unit diagonal": with_entries(BASE, {(1, 1): 1.0 + 1e-8}),
    "off-diagonal +1": with_entries(BASE, {(0, 2): 1.0, (2, 0): 1.0}),
    "off-diagonal -1": with_entries(BASE, {(0, 2): -1.0, (2, 0): -1.0}),
    "indefinite": NOT_PD_3X3,
    "pivot below TOL_PD": tiny_pivot_3x3(0.5 * TOL_PD),
}
BASE_FACTOR = np.linalg.cholesky(BASE)
BAD_FACTORS = {  # kind: (factor, the message CholeskyFactor raises)
    "non-square": (BASE_FACTOR[:, :2], "expected a square factor, got shape (3, 2)"),
    "non-finite": (with_entries(BASE_FACTOR, {(2, 1): np.inf}),
                   "factor entries must be finite"),
    "nonzero upper": (with_entries(BASE_FACTOR, {(1, 2): 1e-300}),
                      "strict upper triangle must be exactly zero"),
    "nonpositive diagonal": (with_entries(BASE_FACTOR, {(2, 2): 0.0}),
                             "diagonal entries must be strictly positive"),
}


def raised(build, *args):
    with pytest.raises(ValueError) as err:
        build(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("kind", sorted(BAD_FACTORS))
def test_bad_factor_raises_its_message(kind):
    bad, message = BAD_FACTORS[kind]
    assert raised(CholeskyFactor, bad) == (ValueError, message)


class TestStackedValidation:
    """A stack is validated in one pass; a stack that fails raises what its
    first failing element raises when built alone."""

    @pytest.mark.parametrize("kind", sorted(BAD_CORRELATIONS))
    def test_planted_correlation_raises_as_alone(self, kind):
        bad = BAD_CORRELATIONS[kind]
        stack = planted(GOOD, bad)
        assert raised(matrix_core._stack, CorrelationMatrix, stack) == raised(
            CorrelationMatrix, bad)

    def test_rejected_stack_factors_each_element_at_most_once(self, monkeypatch):
        # one stacked factorization, then each element alone once, up to
        # the indefinite 4th
        good = np.stack([random_correlation(3, seed).values for seed in range(8)])
        stack = planted(good, NOT_PD_3X3, at=3)
        calls = []
        factor = matrix_core._reference_factor

        def counting(a):
            calls.append(a.shape)
            return factor(a)

        monkeypatch.setattr(matrix_core, "_reference_factor", counting)
        with pytest.raises(NotPositiveDefinite):
            matrix_core._stack(CorrelationMatrix, stack)
        assert calls == [(8, 3, 3)] + [(3, 3)] * 4

    def test_first_failing_element_raises(self):
        stack = planted(GOOD, BAD_CORRELATIONS["asymmetric"], at=1)
        stack[3] = with_entries(BASE, {(0, 1): BASE[0, 1] + 1e-3})  # larger asymmetry, later
        stack[4] = BAD_CORRELATIONS["non-finite"]
        assert raised(matrix_core._stack, CorrelationMatrix, stack) == raised(
            CorrelationMatrix, BAD_CORRELATIONS["asymmetric"])


class TestReferenceCholesky:
    def test_identity(self):
        out = reference_cholesky(CorrelationMatrix(np.eye(3)))
        np.testing.assert_array_equal(out.entries, np.eye(3))

    def test_two_by_two(self):
        out = reference_cholesky(CorrelationMatrix([[1.0, 0.5], [0.5, 1.0]]))
        expected = [[1.0, 0.0], [0.5, np.sqrt(0.75)]]
        np.testing.assert_allclose(out.entries, expected, atol=1e-15)

    def test_not_positive_definite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as err:
            reference_cholesky(CorrelationMatrix(NOT_PD_3X3))
        assert err.value.pivot_index == 3
        assert err.value.pivot_value <= 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            reference_cholesky(CorrelationMatrix([[1.0, 0.5], [0.1, 1.0]]))

    def test_pivot_below_tolerance_is_rejected(self):
        # dpotrf alone accepts pivot 2 in (0, TOL_PD]; the tolerance does not
        a = np.eye(3)
        a[:2, :2] = tiny_pivot_block(0.5 * TOL_PD)
        _, info = lapack.dpotrf(a, lower=1)
        assert info == 0
        for container in (CorrelationMatrix, CovarianceMatrix):
            with pytest.raises(NotPositiveDefinite) as err:
                reference_cholesky(container(a))
            assert err.value.pivot_index == 2
            assert 0.0 < err.value.pivot_value <= TOL_PD

    def test_tiny_pivot_reported_before_dpotrf_stops(self):
        a = np.eye(5)
        a[:2, :2] = tiny_pivot_block(0.5 * TOL_PD)
        a[2:, 2:] = NOT_PD_3X3
        _, info = lapack.dpotrf(a, lower=1)
        assert info == 5
        with pytest.raises(NotPositiveDefinite) as err:
            CorrelationMatrix(a)
        assert err.value.pivot_index == 2

    @pytest.mark.parametrize("kind,n", [("generated", 25), ("generated", 64), ("gram", 200)])
    def test_accepted_factor_matches_dpotrf(self, kind, n):
        if kind == "generated":
            a = random_correlation(n, seed=n).values
        else:
            g = np.random.default_rng(n).standard_normal((n, 2 * n))
            g = g @ g.T
            d = 1.0 / np.sqrt(np.diag(g))
            a = CorrelationMatrix(g * np.outer(d, d)).values
        lower = matrix_core._reference_factor(a)
        expected, info = lapack.dpotrf(a, lower=1, clean=1)
        assert info == 0
        assert np.max(np.abs(lower - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_pivot_accepted_by_potrf_is_still_reported(self):
        a = np.eye(6)
        a[2:4, 2:4] = tiny_pivot_block(0.5 * TOL_PD)
        np.linalg.cholesky(a)  # potrf accepts pivot 4
        with pytest.raises(NotPositiveDefinite) as err:
            matrix_core._reference_factor(a)
        assert err.value.pivot_index == 4
        assert 0.0 < err.value.pivot_value <= TOL_PD

    # t = 459: potrf returns pivot 46 below the tolerance, the Schur
    # kernel's pivot 46 is above it; t = 215: potrf stops at pivot 76,
    # every Schur pivot is above the tolerance and pivot 76 is the smallest
    def test_reject_index_matches_dpotrf_on_seeded_family(self):
        seeds = [*range(1000), 1566]
        got = {t: reject_index(one_tiny_eigenvalue(t)) for t in seeds}
        expected = {t: dpotrf_reject_index(one_tiny_eigenvalue(t)) for t in seeds}
        assert {t: (got[t], expected[t]) for t in seeds if got[t] != expected[t]} == {}, (
            lapack_builds())
        assert 500 < sum(k is not None for k in got.values()) < 1000

    def test_potrf_stop_with_every_schur_pivot_passing_names_the_smallest_relative(
            self, monkeypatch):
        # sigma = (10, 1, 0.1), r_12 = 0.9: Schur pivots (100, 0.19, 0.01), all
        # above TOL_PD * a_ii; relative to a_ii they are (1, 0.19, 1), so pivot
        # 2 is reported, not pivot 3, the smallest in absolute terms
        def stop(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        a = np.array([[100.0, 9.0, 0.0], [9.0, 1.0, 0.0], [0.0, 0.0, 0.01]])
        monkeypatch.setattr(np.linalg, "cholesky", stop)
        with pytest.raises(NotPositiveDefinite) as err:
            matrix_core._reference_factor(a)
        assert err.value.pivot_index == 2
        assert err.value.pivot_value == pytest.approx(0.19, rel=1e-15)

    @pytest.mark.parametrize("n", [3, 10, 64])
    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_reject_index_matches_dpotrf_on_equicorrelation(self, n, c):
        a = np.full((n, n), -c / (n - 1))
        np.fill_diagonal(a, 1.0)
        assert reject_index(a) == dpotrf_reject_index(a) is not None

    @pytest.mark.parametrize("n,k", [(3, 3), (200, 142)])
    def test_failing_pivot_value_is_exact(self, n, k):
        # equicorrelation: pivot k is (1 - rho)(1 + (k-1) rho) / (1 + (k-2) rho)
        rho = -1.0 / (k - 1.5)
        a = np.full((n, n), rho)
        np.fill_diagonal(a, 1.0)
        with pytest.raises(NotPositiveDefinite) as err:
            reference_cholesky(CorrelationMatrix(a))
        expected = (1.0 - rho) * (1.0 + (k - 1) * rho) / (1.0 + (k - 2) * rho)
        assert err.value.pivot_index == k
        assert abs(err.value.pivot_value - expected) <= 1e-9

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (12, 2), (25, 3)])
    def test_reconstruction(self, n, seed):
        r = random_correlation(n, seed)
        out = reference_cholesky(r)
        assert np.max(np.abs(out.reconstruct() - r.values)) <= 1e-9

    def test_applies_to_covariance(self):
        r = random_correlation(3, seed=9)
        sig = np.array([1.0, 2.0, 0.5])
        cov = r.values * np.outer(sig, sig)
        out = reference_cholesky(CovarianceMatrix(cov))
        assert np.max(np.abs(out.reconstruct() - cov)) <= 1e-9

    @pytest.mark.parametrize("container,sig", [
        (CorrelationMatrix, np.ones(5)), (CovarianceMatrix, np.array([0.5, 1.0, 3.0, 2.0, 0.1]))])
    def test_oracle_and_minors_read_what_the_container_holds(self, container, sig):
        m = container(random_correlation(5, seed=3).values * np.outer(sig, sig))
        assert reference_cholesky(m).entries.tobytes() == m._lower.tobytes()
        assert leading_minor_determinants(m).tobytes() == np.cumprod(np.diagonal(m._lower) ** 2).tobytes()


class TestLeadingMinors:
    def test_identity(self):
        r = CorrelationMatrix(np.eye(4))
        np.testing.assert_array_equal(leading_minor_determinants(r), np.ones(4))

    def test_ar1_closed_form(self):
        rho = 0.5
        a = rho ** np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        r = CorrelationMatrix(a)
        np.testing.assert_allclose(
            leading_minor_determinants(r), [1.0, 0.75, 0.5625], atol=1e-15
        )

    def test_against_cofactor_oracle(self):
        r = random_correlation(4, seed=42)
        minors = leading_minor_determinants(r)
        for k in range(1, 5):
            assert abs(minors[k - 1] - cofactor_det(r.values[:k, :k])) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_positive_and_nonincreasing(self, seed):
        r = random_correlation(8, seed)
        minors = leading_minor_determinants(r)
        assert np.all(minors > 0)
        assert np.all(np.diff(minors) <= 1e-12)


class TestSchurSteps:
    """The pivots and steps that ``_reference_factor``, ``chol_detratio``,
    ``check_order_conditions`` and ``verify_ratio_differences`` read, and
    the ladders they imply, bit for bit."""

    @pytest.mark.parametrize("definite", [True, False])
    @pytest.mark.parametrize("seed", range(20))
    def test_each_rung_is_the_previous_minus_its_step(self, seed, definite):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        if definite:
            sig = rng.uniform(0.1, 10.0, n)
            a = random_correlation(n, seed).values * np.outer(sig, sig)
        else:
            a = rng.uniform(-1.0, 1.0, (n, n))
            a = 0.5 * (a + a.T)
        pivots, steps, _ = matrix_core._schur_steps(a)
        d = schur_ladders(a, steps)
        assert definite == bool(np.all(pivots > 0))
        assert d[0].tobytes() == a.diagonal().tobytes()
        for i in range(n - 1):
            assert d[i + 1, i + 1:].tobytes() == (d[i, i + 1:] - steps[i + 1:, i]).tobytes()

    @pytest.mark.parametrize("kind", ["definite", "indefinite", "zero_pivot"])
    @pytest.mark.parametrize("n", [1, 2, 5, 31, 120])
    def test_pivots_are_the_foot_of_each_ladder(self, kind, n):
        # the pivots are read off the elimination's diagonal, the ladders
        # formed from its steps: the two meet bit for bit, nan and inf
        # below a zero pivot included
        for a in schur_inputs(kind, n):
            with np.errstate(all="ignore"):
                pivots, steps, _ = matrix_core._schur_steps(a)
            assert pivots.tobytes() == schur_ladders(a, steps).diagonal().tobytes()

    @pytest.mark.parametrize("kind", ["definite", "indefinite", "zero_pivot"])
    @pytest.mark.parametrize("n", [1, 2, 5, 31, 120])
    def test_matches_the_reference_loop_bit_for_bit(self, kind, n):
        # the in-place elimination reads its pivots and steps off the
        # result; the reference writes each ladder row and step as it is
        # formed. nan and inf below a zero pivot land in the same places
        for a in schur_inputs(kind, n):
            with np.errstate(all="ignore"):
                pivots, steps, _ = matrix_core._schur_steps(a)
                d, want = schur_steps_reference(a)
            assert pivots.tobytes() == d.diagonal().tobytes()
            assert steps.tobytes() == want.tobytes()
            assert schur_ladders(a, steps).tobytes() == d.tobytes()


def schur_inputs(kind, n):
    """Four symmetric n x n inputs of one kind: generated correlation
    matrices, unit-diagonal uniform noise, or that noise with variable k
    a copy of k-1, which leaves an exact zero pivot (for n = 1 the one
    diagonal entry is 0)."""
    rng = np.random.default_rng([n, len(kind)])
    out = []
    for _ in range(4):
        if kind == "definite":
            a = random_correlation(n, int(rng.integers(1000))).values
        else:
            a = rng.uniform(-1.0, 1.0, (n, n))
            a = 0.5 * (a + a.T)
            np.fill_diagonal(a, 1.0)
        if kind == "zero_pivot":  # variable k repeats k-1, or the one pivot is 0
            k = int(rng.integers(1, n)) if n > 1 else 0
            a[k], a[:, k] = a[k - 1], a[:, k - 1]
            a[k, k - 1] = a[k - 1, k] = a[k, k] = float(n > 1)
        out.append(a)
    return out
