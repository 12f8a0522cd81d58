import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pd4g.rollout import (
    AGGRESSIVE_WEIGHTS,
    EMA_ALPHA,
    RolloutConfig,
    current_distribution,
    level_distribution,
    sample_level,
    update_ema,
)


class TestLevelDistribution:
    def test_uniform_endpoint_exact(self):
        pi = level_distribution(0.0)
        assert np.array_equal(pi, np.array([1.0 / 3.0] * 3))

    def test_aggressive_endpoint_exact(self):
        pi = level_distribution(1.0)
        assert np.array_equal(pi, np.array([0.15, 0.30, 0.55]))

    def test_midpoint(self):
        pi = level_distribution(0.5)
        np.testing.assert_allclose(pi, [0.24167, 0.31667, 0.44167], atol=1e-5)

    def test_domain_error(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                level_distribution(bad)

    @settings(deadline=None, max_examples=100)
    @given(rho=st.floats(0, 1))
    def test_always_a_valid_distribution(self, rho):
        pi = level_distribution(rho)
        assert np.all(pi >= 0)
        assert abs(float(pi.sum()) - 1.0) <= 1e-9

    def test_affine_on_grid(self):
        lo = level_distribution(0.0)
        hi = level_distribution(1.0)
        for rho in np.linspace(0, 1, 11):
            expected = (1 - rho) * lo + rho * hi
            np.testing.assert_allclose(level_distribution(float(rho)), expected, atol=1e-9)


class TestEma:
    def test_single_step(self):
        assert update_ema(0.0, 1.0) == pytest.approx(0.05)

    def test_fixed_point(self):
        assert update_ema(0.42, 0.42) == pytest.approx(0.42)

    def test_geometric_convergence(self):
        ema = 0.0
        for _ in range(200):
            ema = update_ema(ema, 1.0)
        assert ema == pytest.approx(1.0 - 0.95**200, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            update_ema(0.0, 1.5)

    @settings(deadline=None, max_examples=60)
    @given(a=st.floats(0, 1), b=st.floats(0, 1), sample=st.floats(0, 1))
    def test_contraction(self, a, b, sample):
        ra = update_ema(a, sample)
        rb = update_ema(b, sample)
        assert abs(ra - rb) == pytest.approx((1 - EMA_ALPHA) * abs(a - b), abs=1e-12)


class TestWarmup:
    def test_uniform_during_warmup(self):
        cfg = RolloutConfig()
        assert np.array_equal(current_distribution(1.0, 0, cfg), [1 / 3] * 3)
        assert np.array_equal(current_distribution(1.0, cfg.warmup_steps - 1, cfg), [1 / 3] * 3)

    def test_adaptive_at_boundary(self):
        cfg = RolloutConfig()
        assert np.array_equal(current_distribution(1.0, cfg.warmup_steps, cfg), [0.15, 0.30, 0.55])


class TestSampleLevel:
    def test_degenerate_distributions(self):
        for level, pi in enumerate(([1, 0, 0], [0, 1, 0], [0, 0, 1])):
            for counter in range(20):
                assert sample_level(np.array(pi, dtype=float), 9, counter) == level

    def test_deterministic_per_counter(self):
        pi = np.array([0.2, 0.3, 0.5])
        draws1 = [sample_level(pi, 123, c) for c in range(100)]
        draws2 = [sample_level(pi, 123, c) for c in range(100)]
        assert draws1 == draws2

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            sample_level(np.array([0.5, 0.5, 0.5]), 0, 0)
        with pytest.raises(ValueError):
            sample_level(np.array([-0.1, 0.6, 0.5]), 0, 0)

    def test_empirical_frequencies_uniform(self):
        pi = np.array([1 / 3, 1 / 3, 1 / 3])
        draws = np.array([sample_level(pi, 777, c) for c in range(300_000)])
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.all(np.abs(freqs - 1 / 3) < 0.01)

    def test_empirical_frequencies_skewed(self):
        pi = np.array([0.15, 0.30, 0.55])
        draws = np.array([sample_level(pi, 778, c) for c in range(100_000)])
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.all(np.abs(freqs - pi) < 0.01)


class TestRolloutConfig:
    def test_published_defaults(self):
        cfg = RolloutConfig()
        assert cfg.aggressive_weights == AGGRESSIVE_WEIGHTS == (0.15, 0.30, 0.55)
        assert cfg.ema_alpha == EMA_ALPHA == 0.05
        assert cfg.sample_period == 200
        assert cfg.warmup_steps == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(aggressive_weights=(0.5, 0.5, 0.5)),
            dict(aggressive_weights=(0.2, 0.3, 0.5)),
            dict(aggressive_weights=(0.55, 0.30, 0.15)),
            dict(ema_alpha=0.5),
            dict(ema_alpha=0.0),
            dict(aggressive_weights=(0.2, 0.3, 0.5), ema_alpha=0.5),
        ],
    )
    def test_rejects_unpublished_values(self, kwargs):
        with pytest.raises(ValueError, match="fixed at"):
            RolloutConfig(**kwargs)
