import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import cholcorr.randcorr as randcorr
from cholcorr.matrix_core import CorrelationMatrix, leading_minor_determinants, reference_cholesky
from cholcorr.randcorr import GeneratorConfig, generate, generate_batch, stream


class TestConfig:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=0, seed=1)

    def test_rejects_bad_bias(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=3, seed=1, sign_bias=1.5)


class TestGenerate:
    def test_dimension_one(self):
        factor, r = generate(GeneratorConfig(n=1, seed=0))
        np.testing.assert_array_equal(factor.entries, [[1.0]])
        np.testing.assert_array_equal(r.values, [[1.0]])

    def test_two_by_two_hand_trace(self):
        seed = 123
        factor, r = generate(GeneratorConfig(n=2, seed=seed))
        rng = stream(seed)
        u = 1.0 - rng.random(1)[0]       # step 1 diagonal target
        flip = rng.random(1)[0]          # step 3 sign draw
        sign = 1.0 if flip < 0.5 else -1.0
        assert factor.entries[1, 1] == np.sqrt(u)
        assert factor.entries[1, 0] == sign * np.sqrt(1.0 - u)
        assert abs(r.values[0, 1] - sign * np.sqrt(1.0 - u)) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9), n=st.integers(min_value=1, max_value=12))
    def test_rows_have_unit_norm(self, seed, n):
        factor, _ = generate(GeneratorConfig(n=n, seed=seed))
        norms = np.sum(factor.entries**2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (10, 2), (25, 3)])
    def test_determinant_equals_smallest_diagonal_target(self, n, seed):
        _, r = generate(GeneratorConfig(n=n, seed=seed))
        rng = stream(seed)
        targets = np.sort(1.0 - rng.random(n - 1))[::-1]
        det = np.prod(np.diag(reference_cholesky(r).entries) ** 2)
        assert abs(det - targets[-1]) <= 1e-10

    def test_reproducible(self):
        cfg = GeneratorConfig(n=7, seed=99)
        f1, r1 = generate(cfg)
        f2, r2 = generate(cfg)
        np.testing.assert_array_equal(f1.entries, f2.entries)
        np.testing.assert_array_equal(r1.values, r2.values)

    def test_sign_bias_one_gives_positive_factor(self):
        factor, _ = generate(GeneratorConfig(n=6, seed=4, sign_bias=1.0))
        assert np.all(factor.entries[np.tril_indices(6, -1)] >= 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_output_is_positive_definite(self, seed):
        _, r = generate(GeneratorConfig(n=10, seed=seed))
        reference_cholesky(r)  # would raise if not

    def test_sweep_passes_factorization_and_order_checks(self):
        from cholcorr.identities import check_order_conditions

        for r in generate_batch(GeneratorConfig(n=10, seed=42), 1000):
            reference_cholesky(r)
            assert check_order_conditions(r.values) is True


def stepwise_factor(n, seed, sign_bias):
    """The factor built row by row, with one draw call per step and row in
    the order the determinism contract fixes."""
    rng = stream(seed)
    entries = np.eye(n)
    if n > 1:
        targets = np.concatenate(([1.0], np.sort(1.0 - rng.random(n - 1))[::-1]))
        for j in range(2, n + 1):
            ljj_sq = targets[j - 1] / targets[j - 2]
            inner = np.sort(1.0 - (1.0 - ljj_sq) * rng.random(j - 2))[::-1]
            ladder = np.concatenate(([1.0], inner, [ljj_sq]))
            entries[j - 1, : j - 1] = np.sqrt(ladder[:-1] - ladder[1:])
            entries[j - 1, j - 1] = np.sqrt(ljj_sq)
        entries[np.tril_indices(n, -1)] *= np.where(rng.random(n * (n - 1) // 2) < sign_bias, 1, -1)
    return entries, rng


class TestDrawContract:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 25, 64, 100, 200])
    @pytest.mark.parametrize("sign_bias", [0.0, 0.3, 0.5, 1.0])
    def test_matches_stepwise_draws_bit_for_bit(self, n, sign_bias):
        for seed in range(5):
            rng = stream(seed)
            factor, _ = generate(GeneratorConfig(n=n, seed=seed, sign_bias=sign_bias), rng=rng)
            expected, after = stepwise_factor(n, seed, sign_bias)
            assert factor.entries.tobytes() == expected.tobytes()
            assert rng.random() == after.random()  # n(n-1) uniforms taken, no more


class TestPinnedFactorBytes:
    """sha256 of generated factor entries. L is built by sorts and
    elementwise arithmetic, with no BLAS call, so the pins hold on every
    OpenBLAS kernel; R's bytes pass through a gemm and are not pinned here."""

    FACTOR = {
        1: "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
        2: "f46de1dabe715315247d10f3041c7ea618af1172cece44f4431898a07172c978",
        3: "94be9a5e565240fcf54c6674d256abf8f843829e1b17453c9d9885029687a2ad",
        25: "fa9fe3f7f3b2007f70cbcf817703d149d1ac85a889cf1c17b0756f968a5b734e",
        64: "7e126402c0731b1132f05a92f03ac27442b706b26775fda6694d01aefde6166e",
        200: "ddd9a0295f35777c305e9e68736aadfa71c2d07117f689388c3a6c50692360f0",
    }

    @pytest.mark.parametrize("n", sorted(FACTOR))
    def test_factor_bytes(self, n):
        factor, _ = generate(GeneratorConfig(n, seed=0, sign_bias=0.3))
        assert hashlib.sha256(factor.entries.tobytes()).hexdigest() == self.FACTOR[n]


class TestGenerateBatch:
    def test_single_element_equals_substream_zero(self):
        cfg = GeneratorConfig(n=4, seed=7)
        batch = generate_batch(cfg, 1)
        _, direct = generate(cfg, rng=stream(cfg.seed, 0))
        np.testing.assert_array_equal(batch[0].values, direct.values)

    def test_prefix_stability(self):
        cfg = GeneratorConfig(n=5, seed=7)
        short = generate_batch(cfg, 10)
        long = generate_batch(cfg, 100)
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a.values, b.values)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            generate_batch(GeneratorConfig(n=3, seed=0), 0)

    def test_off_diagonal_mean_is_centered(self):
        # symmetric sign flips force a zero mean; compare against the
        # empirical spread of per-matrix means
        cfg = GeneratorConfig(n=5, seed=7)
        batch = generate_batch(cfg, 10_000)
        mask = ~np.eye(5, dtype=bool)
        means = np.array([r.values[mask].mean() for r in batch])
        standard_error = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean()) <= 3.0 * standard_error


def assert_elements_match_single_generation(cfg, batch):
    """Element k equals ``generate`` on substream k bit for bit, and holds
    the factor of its values validated alone."""
    for k, r in enumerate(batch):
        _, alone = generate(cfg, rng=stream(cfg.seed, k))
        assert r.values.tobytes() == alone.values.tobytes()
        rebuilt = CorrelationMatrix(r.values)
        assert r._lower.tobytes() == rebuilt._lower.tobytes()


class TestBatchStacks:
    @pytest.mark.parametrize("n", [1, 2, 3, 25, 64])
    @pytest.mark.parametrize("count", [1, 7, 20])
    @pytest.mark.parametrize("sign_bias", [0.0, 0.3, 1.0])
    def test_element_equals_single_generation(self, n, count, sign_bias):
        cfg = GeneratorConfig(n=n, seed=31, sign_bias=sign_bias)
        assert_elements_match_single_generation(cfg, generate_batch(cfg, count))

    def test_batch_spanning_several_chunks(self):
        cfg = GeneratorConfig(n=100, seed=5, sign_bias=0.3)
        per_chunk = randcorr._CHUNK_FLOATS // cfg.n**2
        assert_elements_match_single_generation(cfg, generate_batch(cfg, 2 * per_chunk + 3))

    def test_containers_are_frozen(self):
        for r in generate_batch(GeneratorConfig(n=4, seed=2), 3):
            for a in (r.values, r._lower):
                assert not a.flags.writeable

    # tracemalloc peaks of the element-by-element generator, in MB
    @pytest.mark.parametrize("n,count,unstacked_peak_mb", [(100, 200, 32.9), (400, 10, 34.8)])
    def test_peak_memory_is_bounded_by_chunks(self, n, count, unstacked_peak_mb):
        tracemalloc.start()
        try:
            generate_batch(GeneratorConfig(n=n, seed=1), count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * unstacked_peak_mb * 1e6


class TestOutputLaw:
    """The law stated in the module docstring, checked by seeded KS tests
    (fixed seed and draw count; a p-value threshold fixed here)."""

    DRAWS = 2000

    def batch(self, n):
        return generate_batch(GeneratorConfig(n=n, seed=1), self.DRAWS)

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_first_correlation_squared_is_beta(self, n):
        r12 = np.array([r.values[0, 1] for r in self.batch(n)])
        assert stats.kstest(r12**2, stats.beta(1, n - 1).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_determinant_law(self, n):
        det = np.array([leading_minor_determinants(r)[-1] for r in self.batch(n)])
        assert stats.kstest(det, lambda x: 1.0 - (1.0 - x) ** (n - 1)).pvalue > 1e-3

    def test_law_depends_on_variable_position(self):
        n = 10
        batch = self.batch(n)
        first = np.array([r.values[0, 1] for r in batch])
        last = np.array([r.values[n - 2, n - 1] for r in batch])
        assert stats.ks_2samp(first, last).pvalue < 1e-6
