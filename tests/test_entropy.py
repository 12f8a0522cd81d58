import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pd4g.asset import AnchorSet
from pd4g.entropy import (
    AttributePrior,
    InsufficientDataError,
    bit_cost,
    estimate_prior,
    family_priors,
    per_anchor_bits,
    quantize_array,
)
from pd4g.losses import TAU, LossWeights, level_loss, pair_weights

# frozen against a 30-digit quadrature of the standard normal density
CENTER_UNIT_INTERVAL_BITS = 1.3848665342909897
CLAMP_BITS = 19.931568569324174  # -log2(1e-6)


class TestEstimatePrior:
    def test_constant_input_hits_std_floor(self):
        p = estimate_prior(np.array([1.0, 1.0, 1.0, 1.0]), np.ones(4, dtype=bool), 0.1)
        assert p.mean == 1.0
        assert p.std == 1e-6

    def test_only_active_subset_counts(self):
        values = np.array([0.0, 2.0, 100.0])
        active = np.array([True, True, False])
        p = estimate_prior(values, active, 0.1)
        assert p.mean == pytest.approx(1.0)
        assert p.std == pytest.approx(1.0)  # population divisor

    def test_symmetric_two_point(self):
        p = estimate_prior(np.array([-1.0, 1.0]), np.ones(2, dtype=bool), 0.1)
        assert p.mean == pytest.approx(0.0)
        assert p.std == pytest.approx(1.0)

    def test_insufficient_active(self):
        with pytest.raises(InsufficientDataError):
            estimate_prior(np.array([1.0, 2.0]), np.array([True, False]), 0.1)


class TestBitCost:
    def test_center_of_unit_prior(self):
        p = AttributePrior(mean=0.0, std=1.0, quant_step=1.0)
        assert bit_cost(0.0, p) == pytest.approx(CENTER_UNIT_INTERVAL_BITS, abs=1e-9)

    def test_full_mass_interval_costs_nothing(self):
        p = AttributePrior(mean=0.0, std=1.0, quant_step=1000.0)
        assert bit_cost(0.0, p) == pytest.approx(0.0, abs=1e-9)

    def test_clamp_deep_in_tail(self):
        p = AttributePrior(mean=0.0, std=1.0, quant_step=0.01)
        assert bit_cost(10.0, p) == pytest.approx(CLAMP_BITS, abs=1e-12)

    def test_symmetry_about_mean(self):
        p = AttributePrior(mean=0.7, std=0.3, quant_step=0.05)
        for d in (0.01, 0.3, 1.5, 4.0):
            assert bit_cost(0.7 + d, p) == pytest.approx(bit_cost(0.7 - d, p), abs=1e-9)

    @settings(deadline=None, max_examples=60)
    @example(d1=0.0, d2=2.0019170595277396e-10, sigma=6.0, q=0.001)  # flat cost at the mean
    @given(
        d1=st.floats(0, 6),
        d2=st.floats(0, 6),
        sigma=st.floats(0.01, 10),
        q=st.floats(0.001, 2),
    )
    def test_monotone_in_distance_from_mean(self, d1, d2, sigma, q):
        lo, hi = sorted((d1, d2))
        p = AttributePrior(mean=0.0, std=sigma, quant_step=q)
        assert bit_cost(hi * sigma, p) >= bit_cost(lo * sigma, p) - 1e-12

    def test_vectorized_matches_scalar(self):
        p = AttributePrior(mean=0.2, std=0.5, quant_step=0.1)
        values = np.array([-1.0, 0.2, 3.5])
        vec = bit_cost(values, p)
        assert vec.shape == (3,)
        for v, expected in zip(values, vec):
            assert bit_cost(float(v), p) == pytest.approx(float(expected), abs=1e-12)

    def test_never_negative(self):
        p = AttributePrior(mean=0.0, std=1e-6, quant_step=1000.0)
        assert bit_cost(0.0, p) >= 0.0


class TestQuantize:
    def test_zero(self):
        assert quantize_array(np.array([0.0]), 0.5).tolist() == [0]

    def test_rounding_example(self):
        index = quantize_array(np.array([0.13]), 0.0625)
        assert index.tolist() == [2]
        assert index[0] * 0.0625 == pytest.approx(0.125)

    def test_tie_breaks_away_from_zero(self):
        assert quantize_array(np.array([-0.03125, 0.03125]), 0.0625).tolist() == [-1, 1]

    def test_overflow(self):
        with pytest.raises(OverflowError):
            quantize_array(np.array([1e12]), 1e-4)

    @settings(deadline=None, max_examples=200)
    @given(a=st.floats(-1e6, 1e6), q=st.floats(0.001, 10))
    def test_reconstruction_error_bounded(self, a, q):
        rec = quantize_array(np.array([a]), q)[0] * q
        assert abs(a - rec) <= q / 2 + 1e-9 * max(1.0, abs(a))

    def test_array_matches_scalar(self):
        # reference: the rounding rule applied one Python float at a time
        rng = np.random.default_rng(0)
        values = rng.normal(0, 3, 100)
        idx = quantize_array(values, 0.0625)
        for v, i in zip(values, idx):
            scaled = float(v) / 0.0625
            assert math.copysign(math.floor(abs(scaled) + 0.5), scaled) == int(i)


def _table(anchors):
    return pair_weights(anchors.positions, TAU)


class TestLayerRate:
    """The rate term of ``losses.level_loss``: ``mean(mask * per_anchor_bits)``."""

    @staticmethod
    def _level_loss(anchors, mask, bits):
        return level_loss(0.0, mask, 0, LossWeights(), _table(anchors), np.empty((0, 2)), bits)

    def _fixture(self):
        rng = np.random.default_rng(1)
        anchors = AnchorSet(
            positions=rng.uniform(0, 1, (2, 2)),
            features=rng.normal(0, 1, (2, 3)),
            scales=rng.uniform(0.5, 1.5, 2),
            offsets=rng.normal(0, 0.2, (2, 2)),
            opacities=rng.uniform(0, 1, 2),
            colors=rng.uniform(0, 1, (2, 3)),
        )
        quant = {"feature": 0.0625, "scale": 0.0625, "offset": 0.0625}
        priors = family_priors(anchors, np.ones(2, dtype=bool), quant)
        return anchors, per_anchor_bits(anchors, priors)

    def test_zero_masks_zero_rate(self):
        anchors, bits = self._fixture()
        assert self._level_loss(anchors, np.zeros(2), bits).rate == 0.0

    def test_half_active_mean(self):
        anchors, bits = self._fixture()
        assert self._level_loss(anchors, np.array([1.0, 0.0]), bits).rate == pytest.approx(bits[0] / 2)

    def test_single_anchor_full_mask_is_total_cost(self):
        rng = np.random.default_rng(2)
        anchors = AnchorSet(
            positions=rng.uniform(0, 1, (1, 2)),
            features=rng.normal(0, 1, (1, 3)),
            scales=[1.0],
            offsets=rng.normal(0, 0.2, (1, 2)),
            opacities=[0.5],
            colors=rng.uniform(0, 1, (1, 3)),
        )
        priors = {
            "features": AttributePrior(0.0, 1.0, 0.0625),
            "scales": AttributePrior(1.0, 0.5, 0.0625),
            "offsets": AttributePrior(0.0, 0.3, 0.0625),
        }
        expected = (
            float(np.sum(bit_cost(anchors.features, priors["features"])))
            + float(bit_cost(1.0, priors["scales"]))
            + float(np.sum(bit_cost(anchors.offsets, priors["offsets"])))
        )
        bits = per_anchor_bits(anchors, priors)
        assert self._level_loss(anchors, np.ones(1), bits).rate == pytest.approx(expected)

    def test_no_bits_no_rate(self):
        # fewer than two active anchors: no priors, so no rate and no rate gradient
        anchors, bits = self._fixture()
        mask = np.array([0.3, 0.8])
        without = self._level_loss(anchors, mask, None)
        assert without.rate == 0.0
        unweighted = level_loss(
            0.0, mask, 0, LossWeights(lambda_layer=(0.0, 0.0, 0.0)), _table(anchors), np.empty((0, 2)), bits
        )
        assert without.total == unweighted.total
        assert np.array_equal(without.grad, unweighted.grad)
