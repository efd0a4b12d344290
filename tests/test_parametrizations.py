import numpy as np
import pytest
from helpers import (
    ar1_correlation,
    backward_ratio,
    contract_bound,
    hard_correlations,
    kappa_correlation,
    margin,
    random_correlation,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import cholcorr.matrix_core as matrix_core
import cholcorr.parametrizations as parametrizations
from cholcorr.cli import main, render_table
from cholcorr.errors import NotPositiveDefinite
from cholcorr.matrix_core import (
    TOL_PD,
    CorrelationMatrix,
    CovarianceMatrix,
    leading_minor_determinants,
    reference_cholesky,
)
from cholcorr.parametrizations import (
    chol_covariance,
    chol_detratio,
    chol_semipartial,
    extract_signs,
)

TOL_EQ = 1e-9  # entrywise agreement between factor routes, as in acceptance gate 1


def covariance_factor(s):
    """``chol_detratio`` of the covariance matrix with its own signs, as
    ``decompose --covariance`` calls it."""
    return chol_detratio(s)


class TestSemipartialCoefficient:
    def test_first_column_is_plain_correlation(self):
        r = random_correlation(5, seed=8)
        for j in range(2, 6):
            assert chol_semipartial(r).entries[j - 1, 0] == r.values[0, j - 1]
        assert chol_semipartial(r).entries[0, 0] == 1.0

    def test_two_given_one_formula(self):
        r = random_correlation(3, seed=15)
        r12, r13, r23 = r.values[0, 1], r.values[0, 2], r.values[1, 2]
        expected = (r23 - r12 * r13) / np.sqrt(1.0 - r12**2)
        assert abs(chol_semipartial(r).entries[2, 1] - expected) <= 1e-14

    def test_identity_cases(self):
        r = CorrelationMatrix(np.eye(4))
        assert chol_semipartial(r).entries[3, 1] == 0.0
        assert chol_semipartial(r).entries[2, 2] == 1.0

    def test_ar1_closed_form(self):
        r = ar1_correlation(3, 0.5)
        value = chol_semipartial(r).entries[2, 1]
        assert abs(value - 0.5 * np.sqrt(0.75)) <= 1e-14
        assert abs(value - reference_cholesky(r).entries[2, 1]) <= 1e-14

    def test_matches_table(self):
        # the recursion's factor against the defining formula with explicit solves
        r = random_correlation(6, seed=31)
        coeffs = chol_semipartial(r).entries
        a = r.values
        for i in range(1, 7):
            w = np.linalg.solve(a[: i - 1, : i - 1], a[: i - 1, i - 1]) if i > 1 else np.zeros(0)
            root = np.sqrt(1.0 - a[: i - 1, i - 1] @ w)
            for j in range(i, 7):
                expected = (a[i - 1, j - 1] - a[: i - 1, j - 1] @ w) / root
                assert abs(coeffs[j - 1, i - 1] - expected) <= 1e-13


class TestSemipartialTable:
    @pytest.mark.parametrize("seed", range(5))
    def test_invariants(self, seed):
        coeffs = chol_semipartial(random_correlation(7, seed)).entries
        diag = np.diag(coeffs)
        assert coeffs[0, 0] == 1.0
        assert np.all(diag > 0) and np.all(diag <= 1.0)
        low = coeffs[np.tril_indices(7, -1)]
        assert np.max(np.abs(low)) < 1.0


class TestCholSemipartial:
    def test_identity(self):
        out = chol_semipartial(CorrelationMatrix(np.eye(5)))
        np.testing.assert_array_equal(out.entries, np.eye(5))

    def test_two_by_two(self):
        out = chol_semipartial(CorrelationMatrix([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_allclose(out.entries, [[1.0, 0.0], [0.5, np.sqrt(0.75)]], atol=1e-15)

    def test_agrees_with_reference_seed3(self):
        r = random_correlation(5, seed=3)
        diff = chol_semipartial(r).entries - reference_cholesky(r).entries
        assert np.max(np.abs(diff)) <= 1e-10

    def test_independent_of_the_reference(self, monkeypatch):
        r = random_correlation(12, seed=5)
        expected = np.linalg.cholesky(r.values)

        def refuse(*args, **kwargs):
            raise AssertionError("the semi-partial route used the reference factorization")

        # wherever a library module binds the reference
        for module in (matrix_core, parametrizations):
            monkeypatch.setattr(module, "_reference_factor", refuse, raising=False)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        assert np.max(np.abs(chol_semipartial(r).entries - expected)) <= TOL_EQ

    @pytest.mark.parametrize("n", [64, 200])
    def test_matches_numpy_on_normalised_gram_matrices(self, n):
        a = np.random.default_rng(n).standard_normal((n, 2 * n))
        gram = a @ a.T
        d = 1.0 / np.sqrt(np.diag(gram))
        r = CorrelationMatrix(gram * np.outer(d, d))
        diff = chol_semipartial(r).entries - np.linalg.cholesky(r.values)
        assert np.max(np.abs(diff)) <= TOL_EQ

    def test_reconstruction(self):
        r = random_correlation(9, seed=27)
        out = chol_semipartial(r)
        assert np.max(np.abs(out.reconstruct() - r.values)) <= 1e-9

    def test_covariance_rows_scale_like_sigmas(self):
        # entry (j, i) is sigma_j times the semi-partial correlation
        r = random_correlation(8, seed=21)
        sig = np.random.default_rng(21).uniform(0.1, 10.0, size=8)
        s = CovarianceMatrix(r.values * np.outer(sig, sig))
        scaled = sig[:, None] * chol_semipartial(r).entries
        assert np.max(np.abs(chol_semipartial(s).entries - scaled)) <= 1e-13 * np.max(sig)

    def test_covariance_pivot_test_is_unit_free(self):
        # pivot 1e-12 is at TOL_PD in absolute terms but 1 relative to its diagonal
        s = CovarianceMatrix(np.diag([1e-12, 1.0]))
        np.testing.assert_array_equal(chol_semipartial(s).entries, np.diag([1e-6, 1.0]))


class TestExtractSigns:
    def test_identity_factor_all_positive(self):
        signs = extract_signs(reference_cholesky(CorrelationMatrix(np.eye(4))))
        low = signs[np.tril_indices(4, -1)]
        assert np.all(low == 1)

    def test_negative_correlation(self):
        factor = reference_cholesky(CorrelationMatrix([[1.0, -0.3], [-0.3, 1.0]]))
        assert extract_signs(factor)[1, 0] == -1

    def test_roundtrip_on_random_factor(self):
        factor = chol_semipartial(random_correlation(6, seed=5))
        signs = extract_signs(factor)
        rebuilt = signs * np.abs(factor.entries) + np.diag(np.diag(factor.entries))
        np.testing.assert_array_equal(rebuilt, factor.entries)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=2, max_value=9))
    def test_roundtrip_property(self, seed, n):
        factor = chol_semipartial(random_correlation(n, seed))
        signs = extract_signs(factor)
        rebuilt = signs * np.abs(factor.entries) + np.diag(np.diag(factor.entries))
        np.testing.assert_array_equal(rebuilt, factor.entries)

    def test_sign_pattern_validation(self):
        with pytest.raises(ValueError):
            chol_detratio(random_correlation(3, seed=0), np.triu(np.ones((3, 3), dtype=int)))
        with pytest.raises(ValueError):
            chol_detratio(random_correlation(2, seed=0), np.array([[0, 0], [2, 0]]))

    @pytest.mark.parametrize("at,value,accepted", [
        ((1, 0), 1, True), ((1, 0), -1, True), ((1, 0), 1.0, True), ((1, 0), -1.0, True),
        ((0, 1), -0.0, True), ((1, 1), -0.0, True), ((1, 0), 0, False), ((1, 0), 0.0, False),
        ((1, 1), 1, False), ((0, 2), -1, False), ((2, 2), 1.0, False), ((0, 1), -1.0, False),
        ((2, 1), 2, False), ((2, 1), 0.5, False), ((2, 1), np.nan, False), ((0, 2), np.nan, False),
    ])
    def test_sign_check_table(self, at, value, accepted):
        # one comparison of |signs| with the strict-lower indicator accepts
        # what a mask of the band and a mask of the rest accept
        r = random_correlation(3, seed=0)
        signs = np.tril(-np.ones((3, 3), dtype=int if isinstance(value, int) else float), -1)
        signs[at] = value
        below = np.tril(np.ones((3, 3), dtype=bool), -1)
        assert accepted == (np.all(signs[~below] == 0) and np.all(np.abs(signs[below]) == 1))
        if accepted:
            assert chol_detratio(r, signs).entries[2, 1] < 0.0 or at == (2, 1)
        else:
            with pytest.raises(ValueError, match="signs must be"):
                chol_detratio(r, signs)

    def test_signs_are_frozen_integers(self):
        signs = extract_signs(chol_semipartial(random_correlation(4, seed=2)))
        assert signs.dtype.kind == "i"
        with pytest.raises(ValueError):
            signs[1, 0] = -signs[1, 0]


class TestCholDetratio:
    def test_identity_all_positive_signs(self):
        r = CorrelationMatrix(np.eye(4))
        signs = np.tril(np.ones((4, 4), dtype=int), -1)
        np.testing.assert_array_equal(chol_detratio(r, signs).entries, np.eye(4))

    def test_ar1_closed_form(self):
        r = ar1_correlation(3, 0.5)
        signs = extract_signs(chol_semipartial(r))
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.5, np.sqrt(0.75), 0.0],
                [0.25, 0.5 * np.sqrt(0.75), np.sqrt(0.75)],
            ]
        )
        np.testing.assert_allclose(chol_detratio(r, signs).entries, expected, atol=1e-14)

    def test_agrees_with_semipartial_seed11(self):
        r = random_correlation(6, seed=11)
        semi = chol_semipartial(r)
        out = chol_detratio(r, extract_signs(semi))
        assert np.max(np.abs(out.entries - semi.entries)) <= 1e-10

    def test_diagonal_does_not_depend_on_signs(self):
        r = random_correlation(5, seed=19)
        semi = chol_semipartial(r)
        flipped = -extract_signs(semi)
        a = chol_detratio(r, extract_signs(semi)).entries
        b = chol_detratio(r, flipped).entries
        np.testing.assert_array_equal(np.diag(a), np.diag(b))

    def test_exact_zero_entry_stays_exactly_zero(self):
        r = CorrelationMatrix([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        signs = extract_signs(chol_semipartial(r))
        out = chol_detratio(r, signs)
        assert out.entries[2, 1] == 0.0
        # the elimination takes the sign of its zero s_ji as +1 too
        assert np.array_equal(matrix_core._schur_steps(r.values)[2], signs)
        assert chol_detratio(r).entries.tobytes() == out.entries.tobytes()

    def test_dimension_mismatch(self):
        r = random_correlation(4, seed=2)
        signs = extract_signs(chol_semipartial(random_correlation(3, seed=2)))
        with pytest.raises(ValueError):
            chol_detratio(r, signs)

    def test_independent_of_the_reference(self, monkeypatch):
        r = random_correlation(12, seed=5)
        sig = np.random.default_rng(5).uniform(0.5, 2.0, size=12)
        s = CovarianceMatrix(r.values * np.outer(sig, sig))
        signs = extract_signs(chol_semipartial(r))
        expected = np.linalg.cholesky(r.values)

        def refuse(*args, **kwargs):
            raise AssertionError("the ratio route used the reference factorization")

        # the containers are built; from here on the oracle must not run
        monkeypatch.setattr(matrix_core, "_reference_factor", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        assert np.max(np.abs(chol_detratio(r, signs).entries - expected)) <= TOL_EQ
        scaled = sig[:, None] * expected
        assert np.max(np.abs(chol_detratio(s, signs).entries - scaled)) <= TOL_EQ * np.max(sig)
        # the name the benchmark still traces is the same route
        assert np.array_equal(chol_covariance(s, signs).entries, chol_detratio(s, signs).entries)

    @pytest.mark.parametrize("scale", [1.0, -1.0])
    def test_kernel_pivot_guard(self, tmp_path, capsys, monkeypatch, scale):
        # a pivot the Schur kernel rounds to TOL_PD * a_kk or below raises
        # NotPositiveDefinite at k on either container; nothing reaches the factor
        r = random_correlation(5, seed=6)
        sig = np.array([0.5, 2.0, 1.0, 3.0, 0.1])
        s = CovarianceMatrix(r.values * np.outer(sig, sig))
        signs = extract_signs(chol_semipartial(r))
        original = parametrizations._schur_steps

        def low_pivot(a):
            pivots, steps, signs = original(a)
            pivots = pivots.copy()  # the kernel's pivots are a read-only view
            pivots[2] = scale * TOL_PD * a[2, 2]
            return pivots, steps, signs

        monkeypatch.setattr(parametrizations, "_schur_steps", low_pivot)
        for route, m in ((chol_detratio, r), (chol_detratio, s), (chol_covariance, s)):
            with pytest.raises(NotPositiveDefinite) as err:
                route(m, signs)
            assert err.value.pivot_index == 3
            assert err.value.pivot_value == scale * TOL_PD * m.values[2, 2]
        src = tmp_path / "r.csv"
        src.write_text(render_table(r.values, "csv"))
        assert main(["decompose", str(src), "--method", "detratio"]) == 3
        assert "not positive-definite: pivot 3 is" in capsys.readouterr().err


class TestOwnSigns:
    """The ratio route's own signs, those of the s_ji its elimination
    forms, are the signs of the semi-partial factor on the hard families
    and the kappa sweep, correlation and covariance alike, so its factor
    is byte for byte the one it builds from that factor's signs."""

    @pytest.mark.parametrize("covariance", [False, True], ids=["correlation", "covariance"])
    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("family", ["ar1", "equicorrelation", "planted", "kappa"])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_elimination_signs_are_the_semipartial_signs(self, family, n, covariance, data):
        families = {**hard_correlations(n), "kappa": st.builds(
            lambda u, seed: kappa_correlation(n, 10.0**u, seed),
            st.floats(2.0, 12.0), st.integers(0, 2**32 - 1))}
        m = data.draw(families[family])
        if covariance:
            sig = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.1, 10.0, n)
            m = CovarianceMatrix(m.values * np.outer(sig, sig))
        signs = extract_signs(chol_semipartial(m))
        assert np.array_equal(matrix_core._schur_steps(m.values)[2], signs)
        assert chol_detratio(m).entries.tobytes() == chol_detratio(m, signs).entries.tobytes()


def route_factor(route, r):
    """``route``'s factor, the container it factors and that container's
    sigmas. The correlation routes factor ``r`` itself (sigmas 1); the
    covariance route factors r scaled by sigmas drawn from seed n."""
    if route == "covariance":
        sig = np.random.default_rng(r.n).uniform(0.1, 10.0, r.n)
        s = CovarianceMatrix(r.values * np.outer(sig, sig))
        return covariance_factor(s), s, sig
    if route == "reference":
        return reference_cholesky(r), r, np.ones(r.n)
    out = chol_semipartial(r) if route == "semipartial" else chol_detratio(r)
    return out, r, np.ones(r.n)


def route_error(route, r):
    """Largest entrywise distance of ``route``'s factor from the reference
    factor of the matrix it factors, row j divided by sigma_j: the
    unit-free error that the bound on the correlation matrix ``r``
    governs."""
    factor, m, sig = route_factor(route, r)
    diff = factor.entries - reference_cholesky(m).entries
    return float(np.max(np.abs(diff) / sig[:, None]))


ROUTES = ["semipartial", "detratio", "covariance"]


class TestAccuracyContract:
    """Every route within n * kappa * eps of the reference on the three
    families of ``helpers.hard_correlations``. The smallest margin of these
    draws is 84x over the OpenBLAS SkylakeX, Haswell, Sandybridge and
    Prescott kernels (the ratio route under Prescott); the test holds a
    floor of 35x. ``tools/margins.py`` prints the margins of these tests."""

    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("family", ["ar1", "equicorrelation", "planted"])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_within_bound(self, family, route, n, data):
        r = data.draw(hard_correlations(n)[family])
        assert margin(route_error(route, r), contract_bound(r)) >= 35


class TestDetratioAccuracy:
    """The smallest margin over the four kernels is 1173x (under
    Sandybridge, printed by ``tools/margins.py``); the floor is 500x."""

    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("kappa", [1e4, 1e6, 1e8, 1e10, 1e12])
    def test_kappa_sweep_within_contract(self, n, kappa):
        for seed in range(20):
            r = kappa_correlation(n, kappa, seed)
            assert margin(route_error("detratio", r), contract_bound(r)) >= 500, seed


class TestBackwardErrorContract:
    """Every route, the reference included, within the backward-error
    bound |L L^T - A| <= gamma_{n+1} |L| |L^T| on the matrix it factors
    (module docstring), on the hard families and the kappa sweep. The
    smallest margin over the four kernels, 1 / ratio, is 5.45 on the hard
    families (worst ratio 0.18) and 5.2 on the sweep, as printed by
    ``tools/margins.py``; the floors are 2.4 and 2.5."""

    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("route", ["reference", *ROUTES])
    @pytest.mark.parametrize("family", ["ar1", "equicorrelation", "planted"])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_hard_families_within_bound(self, family, route, n, data):
        factor, m, _ = route_factor(route, data.draw(hard_correlations(n)[family]))
        assert margin(backward_ratio(factor.entries, m.values), 1) >= 2.4

    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("route", ["reference", *ROUTES])
    def test_kappa_sweep_within_bound(self, route, n):
        for kappa in (1e4, 1e6, 1e8, 1e10, 1e12):
            for seed in range(10):
                factor, m, _ = route_factor(route, kappa_correlation(n, kappa, seed))
                assert margin(backward_ratio(factor.entries, m.values), 1) >= 2.5, (kappa, seed)

    def test_one_entry_off_by_1e_10_relative_breaks_it(self):
        # the forward contract, n * kappa * eps at kappa = 1e12, lets it pass
        r = kappa_correlation(64, 1e12, 3)
        l = chol_detratio(r, extract_signs(chol_semipartial(r))).entries.copy()
        assert backward_ratio(l, r.values) < 0.1
        l[40, 20] *= 1 + 1e-10
        assert backward_ratio(l, r.values) > 10
        assert np.max(np.abs(l - reference_cholesky(r).entries)) <= contract_bound(r)


class TestCholCovariance:
    def test_uncorrelated_diagonal(self):
        s = CovarianceMatrix([[4.0, 0.0], [0.0, 9.0]])
        np.testing.assert_allclose(covariance_factor(s).entries, [[2.0, 0.0], [0.0, 3.0]], atol=1e-14)

    def test_two_by_two_scaled(self):
        sig = np.array([1.0, 2.0])
        s = CovarianceMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]) * np.outer(sig, sig))
        expected = [[1.0, 0.0], [1.0, 2.0 * np.sqrt(0.75)]]
        np.testing.assert_allclose(covariance_factor(s).entries, expected, atol=1e-14)

    def test_agrees_with_reference_seed9(self):
        r = random_correlation(5, seed=9)
        rng = np.random.default_rng(9)
        sig = rng.uniform(0.5, 2.0, size=5)
        s = CovarianceMatrix(r.values * np.outer(sig, sig))
        diff = covariance_factor(s).entries - reference_cholesky(s).entries
        assert np.max(np.abs(diff)) <= 1e-9

    def test_rows_scale_like_sigmas(self):
        r = random_correlation(6, seed=14)
        rng = np.random.default_rng(14)
        sig = rng.uniform(0.5, 2.0, size=6)
        s = CovarianceMatrix(r.values * np.outer(sig, sig))
        scaled = sig[:, None] * chol_semipartial(r).entries
        assert np.max(np.abs(covariance_factor(s).entries - scaled)) <= 1e-10

    def test_reconstruction_scale(self):
        r = random_correlation(4, seed=23)
        sig = np.array([0.5, 1.5, 2.0, 1.0])
        s = CovarianceMatrix(r.values * np.outer(sig, sig))
        out = covariance_factor(s)
        tol = 1e-9 * float(np.max(sig) ** 2)
        assert np.max(np.abs(out.reconstruct() - s.values)) <= tol


class TestOracleEquivalence:
    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (10, 2), (25, 4), (50, 5)])
    def test_three_routes_agree(self, n, seed):
        r = random_correlation(n, seed)
        ref = reference_cholesky(r).entries
        semi = chol_semipartial(r).entries
        det = chol_detratio(r, extract_signs(chol_semipartial(r))).entries
        assert np.max(np.abs(semi - ref)) <= 1e-9
        assert np.max(np.abs(det - ref)) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_matches_minor_ratios(self, seed):
        r = random_correlation(8, seed)
        minors = leading_minor_determinants(r)
        prev = np.concatenate(([1.0], minors[:-1]))
        diag = np.diag(chol_semipartial(r).entries)
        assert np.max(np.abs(diag**2 - minors / prev)) <= 1e-10
