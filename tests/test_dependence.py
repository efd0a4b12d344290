import math
import sys
import time

import numpy as np
import pytest
from helpers import gram_schmidt_columns, t_cdf_quadrature, t_quantile_betaincinv

from cholcorr.ar1_sampling import Ar1Spec, ar1_cholesky, sample_mvn
from cholcorr.dependence_test import SampleMatrix, _sample_correlation, _t_quantile, sequential_test
from cholcorr.errors import DegenerateColumn, NearSingular


class TestSampleMatrix:
    def test_requires_more_samples_than_variables(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.ones((3, 3)))

    def test_rejects_zero_variance_column(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((20, 3))
        data[:, 1] = 0.0
        with pytest.raises(DegenerateColumn) as err:
            SampleMatrix(data)
        assert err.value.index == 2

    def test_constant_column_is_degenerate(self):
        # a nonzero constant leaves rounding crumbs of variance, which the
        # container judges against the rounding centering leaves behind
        rng = np.random.default_rng(0)
        data = rng.standard_normal((20, 3))
        data[:, 1] = 4.2
        with pytest.raises(DegenerateColumn) as err:
            SampleMatrix(data)
        assert err.value.index == 2

    def test_rejects_nan(self):
        data = np.ones((5, 2)) * np.arange(5)[:, None]
        data[0, 0] = np.nan
        with pytest.raises(ValueError):
            SampleMatrix(data)


class TestSampleCorrelation:
    def test_orthogonalized_columns_give_identity(self):
        rng = np.random.default_rng(3)
        data = gram_schmidt_columns(rng.standard_normal((60, 4)))
        r = _sample_correlation(SampleMatrix(data).data)
        assert np.max(np.abs(r.values - np.eye(4))) <= 1e-12

    def test_duplicated_column_is_near_singular(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(30)
        data = np.column_stack([col, col, rng.standard_normal(30)])
        with pytest.raises(NearSingular):
            _sample_correlation(SampleMatrix(data).data)

    def test_recovers_ar1_structure(self):
        spec = Ar1Spec(n=4, rho=0.5)
        draws = sample_mvn(ar1_cholesky(spec), count=100, seed=13)
        r = _sample_correlation(SampleMatrix(draws).data)
        target = 0.5 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
        assert np.max(np.abs(r.values - target)) <= 3.0 / math.sqrt(100)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((40, 3))
        r1 = _sample_correlation(SampleMatrix(data).data)
        r2 = _sample_correlation(SampleMatrix(data * np.array([3.0, 0.01, 250.0])).data)
        assert np.max(np.abs(r1.values - r2.values)) <= 1e-12

    @pytest.mark.parametrize("scale,offset", [(1e-7, 0.0), (1.0, 1e7)])
    def test_tiny_scale_or_large_offset_is_not_degenerate(self, scale, offset):
        data = np.random.default_rng(21).standard_normal((500, 4))
        r1 = _sample_correlation(SampleMatrix(data).data)
        r2 = _sample_correlation(SampleMatrix(scale * data + offset).data)
        assert np.max(np.abs(r1.values - r2.values)) <= 1e-8


class TestTQuantile:
    def test_table_value(self):
        assert abs(_t_quantile(0.025, 10) - 2.2281) <= 5e-5

    def test_cauchy_quartile(self):
        assert abs(_t_quantile(0.25, 1) - 1.0) <= 1e-12

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 200, 1999, 100000])
    @pytest.mark.parametrize("tail", [0.001, 0.025, 0.1, 0.25, 0.4, 0.45])
    def test_cdf_roundtrip_against_quadrature(self, df, tail):
        q = _t_quantile(tail, df)
        assert abs(t_cdf_quadrature(-q, df) - tail) <= 1e-10

    ACCURACY_DF = [1, 2, 3, 5, 10, 30, 200, 1999, 10**4, 10**5, 10**6]
    ACCURACY_TAIL = [1e-12, 1e-8, 1e-3, 0.025, 0.3, 0.49]

    @pytest.mark.parametrize("df", ACCURACY_DF)
    def test_matches_betaincinv_oracle(self, df):
        # log B(df/2, 1/2) taken as a difference of lgamma values misses
        # this bound at df = 1999 and 10^4
        for tail in self.ACCURACY_TAIL:
            q = _t_quantile(tail, df)
            assert abs(q - t_quantile_betaincinv(tail, df)) <= 1e-13 * q, tail

    @pytest.mark.parametrize("n_samples", [12, 50, 2000, 10**5])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_critical_values_of_sequential_test(self, n_samples, alpha):
        # the grid `sequential_test` reads: df = N - 2, tail = alpha/2
        tail, df = alpha / 2.0, n_samples - 2
        q = _t_quantile(tail, df)
        assert abs(q - t_quantile_betaincinv(tail, df)) <= 2e-14 * q

    @pytest.mark.parametrize("n_samples", [3, 4, 12, 2000])
    @pytest.mark.parametrize("alpha", [1e-6, 1e-12])
    def test_small_alpha_critical_is_exact(self, n_samples, alpha):
        # 1 - alpha/2 rounds, by 4.4e-5 relative in the quantile at N = 4,
        # alpha = 1e-12 (exactly 1e6): the tail alpha/2 must be passed as is
        data = np.random.default_rng(n_samples).standard_normal((n_samples, 2))
        critical = sequential_test(SampleMatrix(data), target=2, alpha=alpha).per_k[0].critical
        want = t_quantile_betaincinv(alpha / 2.0, n_samples - 2)
        assert abs(critical - want) <= 2e-14 * want

    @pytest.mark.parametrize("df", [3, 30, 10**6])
    def test_just_below_half(self, df):
        # the rational start for the normal quantile is negative here, and
        # the lower bound sqrt(2 pi) (1/2 - tail) starts Newton instead
        for tail in (0.5 - 2.0**-40, 0.5 - 1e-8):
            q = _t_quantile(tail, df)
            assert 0.0 < q and abs(q - t_quantile_betaincinv(tail, df)) <= 2e-14 * q

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 17, 30, 200])
    def test_vanishes_at_the_median(self, df):
        # at the largest tail below 1/2 the quantile is (1/2 - tail) / f(0),
        # f the t density, up to a relative O(t^2) far below rounding
        tail = math.nextafter(0.5, 0.0)
        f0 = math.gamma(0.5 * (df + 1)) / (math.gamma(0.5 * df) * math.sqrt(df * math.pi))
        want = (0.5 - tail) / f0
        assert abs(_t_quantile(tail, df) - want) <= 2e-14 * want

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 30, 1999, 10**6])
    def test_decreases_in_the_tail(self, df):
        # across the switch between the tail mass and the central mass at t = 1
        qs = [_t_quantile(tail, df) for tail in np.geomspace(1e-12, 0.49, 400)]
        assert all(a > b > 0.0 for a, b in zip(qs, qs[1:]))

    def test_large_df_is_bounded(self):
        _t_quantile(0.025, 10)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            q = _t_quantile(0.025, 10**6)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) <= 0.010
        assert abs(q - t_quantile_betaincinv(0.025, 10**6)) <= 1e-10 * q

    def test_domain(self):
        for tail in (0.0, 0.5):
            with pytest.raises(ValueError):
                _t_quantile(tail, 5)
        with pytest.raises(ValueError):
            _t_quantile(0.4, 0)


class TestSequentialTest:
    def test_two_variables_match_classical_form(self):
        rng = np.random.default_rng(17)
        data = rng.standard_normal((30, 2))
        x = SampleMatrix(data)
        report = sequential_test(x, target=2, alpha=0.05)
        assert len(report.per_k) == 1
        stage = report.per_k[0]
        assert stage.df == 28
        r = _sample_correlation(x.data).values[0, 1]
        expected = math.sqrt(28) * r / math.sqrt(1 - r * r)
        assert abs(stage.t_stat - expected) <= 1e-12

    def test_statistic_of_every_stage(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((40, 4))
        data[:, 3] += 0.3 * data[:, 1]
        report = sequential_test(SampleMatrix(data), target=4, alpha=0.05)
        assert [stage.df for stage in report.per_k] == [38, 38, 38]
        assert len({stage.critical for stage in report.per_k}) == 1
        for stage in report.per_k:
            r = stage.r_semi
            expected = math.sqrt(38) * r / math.sqrt(1 - r * r)
            assert abs(stage.t_stat - expected) <= 1e-12 * abs(expected)

    def test_every_stage_holds_its_level(self):
        # under independence T is exactly t(N - 2) at every stage; each
        # stage is its own test (no multiplicity correction), so each
        # rate is checked on its own: 6,000 replicates, se about 0.003
        reps, alpha = 6000, 0.05
        blocks = np.random.default_rng(2014).standard_normal((reps, 12, 6))
        rejections = np.zeros(5)
        for data in blocks:
            report = sequential_test(SampleMatrix(data), target=6, alpha=alpha)
            rejections += [stage.reject for stage in report.per_k]
        rates = rejections / reps
        assert np.all((0.040 <= rates) & (rates <= 0.060)), rates

    def test_negated_target_negates_every_statistic(self):
        # the statistic is odd in r_k, and negating the target column
        # negates its row of the sample correlation exactly
        rng = np.random.default_rng(13)
        data = rng.standard_normal((50, 4))
        data[:, 3] += 0.4 * data[:, 0]
        flipped = data * np.array([1.0, 1.0, 1.0, -1.0])
        a = sequential_test(SampleMatrix(data), target=4, alpha=0.05)
        b = sequential_test(SampleMatrix(flipped), target=4, alpha=0.05)
        assert [s.t_stat for s in b.per_k] == [-s.t_stat for s in a.per_k]
        assert [s.reject for s in b.per_k] == [s.reject for s in a.per_k]
        assert a.per_k[0].reject

    def test_strong_dependence_is_detected(self):
        rng = np.random.default_rng(4)
        for rep in range(5):
            base = rng.standard_normal((200, 3))
            target = base[:, 0] + 0.1 * rng.standard_normal(200)
            x = SampleMatrix(np.column_stack([base, target]))
            report = sequential_test(x, target=4, alpha=0.05)
            assert report.largest_rejected_k is not None
            assert report.largest_rejected_k >= 1

    def test_target_permutation_recorded(self):
        rng = np.random.default_rng(9)
        x = SampleMatrix(rng.standard_normal((25, 4)))
        report = sequential_test(x, target=2, alpha=0.05)
        assert report.variable_order == (1, 3, 4, 2)

    def test_rescaling_does_not_change_decisions(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((60, 4))
        data[:, 3] += 0.4 * data[:, 0]
        a = sequential_test(SampleMatrix(data), target=4, alpha=0.05)
        scaled = data * np.array([2.0, 0.5, 30.0, 0.001])
        b = sequential_test(SampleMatrix(scaled), target=4, alpha=0.05)
        assert a.largest_rejected_k == b.largest_rejected_k
        for sa, sb in zip(a.per_k, b.per_k):
            assert sa.reject == sb.reject
            assert abs(sa.r_semi - sb.r_semi) <= 1e-12

    def test_semipartials_shrink_with_sample_size(self):
        # with an independent target every semi-partial estimate tends to 0
        # like 1/sqrt(N); quadrupling N should roughly halve the spread
        rng = np.random.default_rng(21)
        spreads = []
        for n_samples in (100, 400, 1600):
            values = []
            for _ in range(150):
                x = SampleMatrix(rng.standard_normal((n_samples, 3)))
                report = sequential_test(x, target=3, alpha=0.05)
                values.append(abs(report.per_k[0].r_semi))
            spreads.append(np.mean(values))
        assert spreads[2] < spreads[1] < spreads[0]
        assert spreads[2] / spreads[0] < 0.4

    def test_alpha_and_target_validation(self):
        rng = np.random.default_rng(2)
        x = SampleMatrix(rng.standard_normal((10, 3)))
        with pytest.raises(ValueError):
            sequential_test(x, target=0, alpha=0.05)
        with pytest.raises(ValueError):
            sequential_test(x, target=1, alpha=1.0)
        for alpha in (1e-320, 5e-324):  # below the smallest normal double
            with pytest.raises(ValueError, match=f"got {alpha}$"):
                sequential_test(x, target=1, alpha=alpha)
        critical = sequential_test(x, target=1, alpha=sys.float_info.min).per_k[0].critical
        assert math.isfinite(critical)

    def test_report_dict_shape(self):
        rng = np.random.default_rng(6)
        x = SampleMatrix(rng.standard_normal((20, 3)))
        d = sequential_test(x, target=3, alpha=0.1).to_dict()
        # the key order is the order of the `test` command's JSON output
        assert list(d) == ["alpha", "variable_order", "per_k", "largest_rejected_k"]
        for row in d["per_k"]:
            assert list(row) == ["k", "r_semi", "t_stat", "df", "critical", "reject"]
        assert [row["k"] for row in d["per_k"]] == [1, 2]

    def test_semipartial_estimates_come_from_last_factor_row(self):
        rng = np.random.default_rng(30)
        data = rng.standard_normal((50, 4))
        x = SampleMatrix(data)
        report = sequential_test(x, target=4, alpha=0.05)
        from cholcorr.parametrizations import chol_semipartial

        factor = chol_semipartial(_sample_correlation(x.data))
        for stage in report.per_k:
            assert abs(stage.r_semi - factor.entries[3, stage.k - 1]) <= 1e-14
