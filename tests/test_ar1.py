import numpy as np
import pytest

from cholcorr.ar1_sampling import Ar1Spec, ar1_cholesky, ar1_matrix, sample_mvn
from cholcorr.matrix_core import CorrelationMatrix, leading_minor_determinants, reference_cholesky
from cholcorr.parametrizations import chol_semipartial
from cholcorr.randcorr import GeneratorConfig, generate


class TestSpec:
    def test_rejects_unit_rho(self):
        with pytest.raises(ValueError):
            Ar1Spec(n=3, rho=1.0)
        with pytest.raises(ValueError):
            Ar1Spec(n=3, rho=-1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ar1Spec(n=0, rho=0.5)


class TestAr1Matrix:
    def test_zero_rho_is_identity(self):
        np.testing.assert_array_equal(ar1_matrix(Ar1Spec(4, 0.0)).values, np.eye(4))

    def test_entries(self):
        r = ar1_matrix(Ar1Spec(3, 0.5))
        expected = [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        np.testing.assert_allclose(r.values, expected, atol=1e-15)

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.2, 0.8])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_determinant_closed_form(self, rho, n):
        minors = leading_minor_determinants(ar1_matrix(Ar1Spec(n, rho)))
        assert abs(minors[-1] - (1.0 - rho**2) ** (n - 1)) <= 1e-10

    def test_negative_rho_is_positive_definite(self):
        reference_cholesky(ar1_matrix(Ar1Spec(10, -0.95)))


class TestAr1Cholesky:
    def test_zero_rho_is_identity(self):
        np.testing.assert_array_equal(ar1_cholesky(Ar1Spec(5, 0.0)).entries, np.eye(5))

    def test_closed_form_entries(self):
        out = ar1_cholesky(Ar1Spec(3, 0.5)).entries
        root = np.sqrt(0.75)
        expected = [[1.0, 0.0, 0.0], [0.5, root, 0.0], [0.25, 0.5 * root, root]]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_large_negative_rho_matches_reference(self):
        spec = Ar1Spec(20, -0.8)
        diff = ar1_cholesky(spec).entries - reference_cholesky(ar1_matrix(spec)).entries
        assert np.max(np.abs(diff)) <= 1e-12

    @pytest.mark.parametrize("rho", [-0.95, -0.5, 0.0, 0.5, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_grid_matches_reference(self, rho, n):
        spec = Ar1Spec(n, rho)
        diff = ar1_cholesky(spec).entries - reference_cholesky(ar1_matrix(spec)).entries
        assert np.max(np.abs(diff)) <= 1e-12

    @pytest.mark.parametrize("rho", [-0.7, 0.3, 0.9])
    def test_rows_have_unit_norm(self, rho):
        entries = ar1_cholesky(Ar1Spec(12, rho)).entries
        assert np.max(np.abs(np.sum(entries**2, axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("rho", [-0.6, 0.4])
    def test_semipartial_numerator_closed_form(self, rho):
        # rho_ij - q_ij collapses to rho^(j-i) |R_i| / |R_{i-1}| on this structure
        n = 8
        r = ar1_matrix(Ar1Spec(n, rho))
        coeffs = chol_semipartial(r).entries
        minors = leading_minor_determinants(r)
        prev = np.concatenate(([1.0], minors[:-1]))
        for i in range(2, n + 1):
            for j in range(i + 1, n + 1):
                numerator = coeffs[j - 1, i - 1] * coeffs[i - 1, i - 1]
                closed = rho ** (j - i) * minors[i - 1] / prev[i - 1]
                assert abs(numerator - closed) <= 1e-12


class TestAr1Transform:
    """The induced transform of independent normals, x -> L x."""

    def test_zero_rho_is_identity_map(self):
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_array_equal(ar1_cholesky(Ar1Spec(3, 0.0)).entries @ x, x)

    def test_first_basis_vector_gives_powers(self):
        out = ar1_cholesky(Ar1Spec(5, 0.6)).entries @ np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(out, 0.6 ** np.arange(5), atol=1e-15)

    def test_covariance_monte_carlo(self):
        spec = Ar1Spec(4, 0.6)
        draws = sample_mvn(ar1_cholesky(spec), count=50_000, seed=99)
        cov = np.cov(draws, rowvar=False)
        target = 0.6 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
        assert np.max(np.abs(cov - target)) <= 0.02


class TestSampleMvn:
    def test_identity_factor_gives_uncorrelated_draws(self):
        factor = reference_cholesky(CorrelationMatrix(np.eye(3)))
        draws = sample_mvn(factor, count=40_000, seed=1)
        corr = np.corrcoef(draws, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) <= 3.0 / np.sqrt(40_000)

    def test_recovers_generated_correlation(self):
        factor, r = generate(GeneratorConfig(n=4, seed=5))
        draws = sample_mvn(factor, count=100_000, seed=5)
        corr = np.corrcoef(draws, rowvar=False)
        assert np.max(np.abs(corr - r.values)) <= 0.01

    def test_deterministic_per_seed(self):
        factor = ar1_cholesky(Ar1Spec(3, 0.2))
        one = sample_mvn(factor, count=1, seed=42)
        two = sample_mvn(factor, count=1, seed=42)
        np.testing.assert_array_equal(one, two)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_mvn(ar1_cholesky(Ar1Spec(2, 0.1)), count=0, seed=0)
