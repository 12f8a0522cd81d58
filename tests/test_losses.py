import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pd4g.acceptance import _fd_gradient
from pd4g.losses import (
    PAIR_FACTOR,
    TAU,
    InsufficientAnchorsError,
    LossWeights,
    binary_entropy,
    level_loss,
    pair_weights,
    sample_pairs,
    smoothness,
)


def binary_entropy_value(mask):
    return binary_entropy(mask)[0]


def smoothness_value(mask, positions, pairs, tau):
    return smoothness(mask, pair_weights(positions, tau), pairs)[0]


def _per_pair_weights(positions, pairs, tau):
    # the per-pair formula pair_weights replaced, kept as its bit-for-bit reference
    x = np.asarray(positions, dtype=np.float64)
    i, j = pairs[:, 0], pairs[:, 1]
    return np.exp(-np.linalg.norm(x[i] - x[j], axis=1) / float(tau))


def _add_at_smoothness(mask, positions, pairs, tau):
    # the smoothness that gathered per-pair weights and scattered with two np.add.at calls
    m = np.asarray(mask, dtype=np.float64)
    grad = np.zeros_like(m)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return 0.0, grad
    i, j = pairs[:, 0], pairs[:, 1]
    weights = _per_pair_weights(positions, pairs, tau)
    diff = m[i] - m[j]
    contrib = weights * np.sign(diff) / pairs.shape[0]
    np.add.at(grad, i, contrib)
    np.add.at(grad, j, -contrib)
    return float(np.mean(weights * np.abs(diff))), grad


def _random_case(seed):
    """Positions (2-D or 3-D, at a random scale), a mask with ties and poles, pairs and a tau."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 80))
    positions = 10.0 ** rng.uniform(-3, 1) * rng.normal(size=(count, int(rng.integers(2, 4))))
    mask = rng.choice([0.0, 1.0, 0.5, rng.uniform()], size=count) if rng.uniform() < 0.5 else rng.uniform(0, 1, count)
    pairs = sample_pairs(count, int(rng.integers(1, 5 * count)), int(rng.integers(1 << 30)))
    return positions, mask, pairs, float(10.0 ** rng.uniform(-2, 0))


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy_value(np.full(5, 0.5)) == pytest.approx(1.0)

    def test_near_zero_at_poles(self):
        assert binary_entropy_value(np.array([0.0, 1.0, 0.0])) <= 3e-6

    def test_mean_of_per_anchor_entropies(self):
        assert binary_entropy_value(np.array([0.5, 1.0])) == pytest.approx(0.5, abs=1e-5)

    def test_unique_maximum_by_grid_scan(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [binary_entropy_value(np.array([g])) for g in grid]
        assert np.argmax(values) == 50

    @settings(deadline=None, max_examples=50)
    @given(mask=st.lists(st.floats(0, 1), min_size=1, max_size=16))
    def test_non_negative(self, mask):
        assert binary_entropy_value(np.array(mask)) >= 0.0


class TestSmoothness:
    def test_identical_masks_cost_nothing(self):
        positions = np.random.default_rng(0).uniform(0, 1, (6, 2))
        pairs = sample_pairs(6, 10, 1)
        assert smoothness_value(np.full(6, 0.7), positions, pairs, 0.1) == 0.0

    def test_coincident_pair_weight_is_one(self):
        positions = np.zeros((2, 2))
        pairs = np.array([[0, 1]])
        assert smoothness_value(np.array([1.0, 0.0]), positions, pairs, 0.1) == pytest.approx(1.0)

    def test_unit_distance_weight(self):
        positions = np.array([[0.0, 0.0], [0.1, 0.0]])
        pairs = np.array([[0, 1]])
        got = smoothness_value(np.array([1.0, 0.0]), positions, pairs, 0.1)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_empty_pairs(self):
        value, grad = smoothness(np.ones(3), pair_weights(np.zeros((3, 2)), 0.1), np.empty((0, 2)))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(3))

    @settings(deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_add_at_form(self, seed):
        positions, mask, pairs, tau = _random_case(seed)
        value, grad = smoothness(mask, pair_weights(positions, tau), pairs)
        want_value, want_grad = _add_at_smoothness(mask, positions, pairs, tau)
        assert value == want_value
        assert grad.tobytes() == want_grad.tobytes()


class TestPairWeights:
    @settings(deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_per_pair_formula(self, seed):
        positions, _, pairs, tau = _random_case(seed)
        table = pair_weights(positions, tau)
        assert table.shape == (len(positions),) * 2
        got = table[pairs[:, 0], pairs[:, 1]]
        assert got.tobytes() == _per_pair_weights(positions, pairs, tau).tobytes()

    def test_read_only_with_unit_diagonal(self):
        table = pair_weights(np.random.default_rng(5).uniform(0, 1, (7, 2)), 0.1)
        assert not table.flags.writeable
        assert np.all(np.diag(table) == 1.0)

    @pytest.mark.parametrize("tau", [0.0, -0.1, math.nan])
    def test_rejects_non_positive_tau(self, tau):
        with pytest.raises(ValueError):
            pair_weights(np.zeros((3, 2)), tau)

    @settings(deadline=None, max_examples=40)
    @given(
        a=st.lists(st.floats(0, 1), min_size=5, max_size=5),
        b=st.lists(st.floats(0, 1), min_size=5, max_size=5),
        c=st.lists(st.floats(0, 1), min_size=5, max_size=5),
    )
    def test_pseudometric_in_the_mask_vector(self, a, b, c):
        positions = np.random.default_rng(3).uniform(0, 1, (5, 2))
        pairs = sample_pairs(5, 12, 7)
        a, b, c = np.array(a), np.array(b), np.array(c)

        def d(x, y):
            # the loss applied to a difference vector induces the pseudometric
            return smoothness_value(x - y, positions, pairs, 0.1)

        assert d(a, a) == 0.0
        assert d(a, b) == pytest.approx(d(b, a), abs=1e-12)
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-9


class TestSamplePairs:
    def test_two_anchors(self):
        pairs = sample_pairs(2, 50, 3)
        assert set(map(tuple, pairs)) <= {(0, 1), (1, 0)}

    def test_deterministic(self):
        assert np.array_equal(sample_pairs(10, 100, 42), sample_pairs(10, 100, 42))

    def test_no_self_pairs(self):
        pairs = sample_pairs(8, 500, 9)
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_insufficient_anchors(self):
        with pytest.raises(InsufficientAnchorsError):
            sample_pairs(1, 10, 0)

    def test_first_index_uniformity(self):
        pairs = sample_pairs(100, 10000, 1234)
        counts = np.bincount(pairs[:, 0], minlength=100)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01


class TestLevelLoss:
    def _setup(self, mask):
        mask = np.asarray(mask, dtype=float)
        positions = np.random.default_rng(0).uniform(0, 1, (mask.size, 2))
        pairs = sample_pairs(mask.size, 4 * mask.size, 5)
        return mask, pair_weights(positions, TAU), pairs

    def test_reduces_to_render_loss_without_weights(self):
        mask, table, pairs = self._setup(np.full(6, 0.37))
        weights = LossWeights(lambda_layer=(0.0, 0.0, 0.0), lambda_temporal=0.0)
        bits = np.full(6, 99.0)
        total, grad, rate, consistency = level_loss(1.25, mask, 0, weights, table, pairs, bits)
        assert total == 1.25
        assert np.all(grad == 0)
        assert rate == pytest.approx(0.37 * 99.0)
        assert consistency > 0

    def test_weighted_rate_example(self):
        mask, table, pairs = self._setup(np.ones(6))
        weights = LossWeights(lambda_layer=(0.04, 0.01, 0.00025), lambda_temporal=0.01)
        result = level_loss(0.0, mask, 0, weights, table, pairs, np.full(6, 2.0))
        assert result.rate == 2.0
        assert result.total == pytest.approx(0.08, abs=1e-6)

    def test_gradient_includes_rate_term(self):
        mask, table, pairs = self._setup(np.full(4, 0.6))
        weights = LossWeights(lambda_layer=(0.04, 0.01, 0.00025), lambda_temporal=0.0)
        bits = np.array([10.0, 20.0, 30.0, 40.0])
        result = level_loss(0.0, mask, 0, weights, table, pairs, bits)
        np.testing.assert_allclose(result.grad, 0.04 * bits / 4)

    def test_all_terms_non_negative(self):
        mask, table, pairs = self._setup(np.random.default_rng(1).uniform(0, 1, 8))
        weights = LossWeights()
        bits = np.random.default_rng(2).uniform(0, 30, 8)
        result = level_loss(0.5, mask, 1, weights, table, pairs, bits)
        assert result.rate >= 0 and result.consistency >= 0
        assert result.total >= 0.5


class TestGradientsAgainstFiniteDifferences:
    def test_binary_entropy_gradient(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mask = rng.uniform(0.01, 0.99, 12)
            _, analytic = binary_entropy(mask)
            fd = _fd_gradient(binary_entropy_value, mask)
            assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-4

    def test_smoothness_gradient(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 1, (10, 2))
        for trial in range(10):
            pairs = sample_pairs(10, 40, trial)
            mask = rng.uniform(0, 1, 10)
            while np.min(np.abs(mask[pairs[:, 0]] - mask[pairs[:, 1]])) < 1e-3:
                mask = rng.uniform(0, 1, 10)
            _, analytic = smoothness(mask, pair_weights(positions, 0.1), pairs)
            fd = _fd_gradient(lambda m: smoothness_value(m, positions, pairs, 0.1), mask)
            assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4


class TestLossWeights:
    def test_defaults_follow_published_constants(self):
        w = LossWeights()
        assert w.lambda_layer == (0.04, 0.01, 0.00025)
        assert w.lambda_temporal == 0.01
        assert (TAU, PAIR_FACTOR) == (0.1, 4)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_layer=(-0.1, 0.0, 0.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_layer": (math.nan, 0.0, 0.0)},
            {"lambda_temporal": math.nan},
            {"lambda_temporal": math.inf},
            {"binary_weight": math.nan},
            {"smooth_weight": math.inf},
        ],
    )
    def test_rejects_non_finite_weights(self, kwargs):
        with pytest.raises(ValueError):
            LossWeights(**kwargs)
