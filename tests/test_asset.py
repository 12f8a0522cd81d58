from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pd4g.asset import (
    AnchorSet,
    DeformationTable,
    LocalResiduals,
    MaskBank,
    MissingLayerError,
    activation_rate,
    active_set,
    route_level,
)


def make_anchors(count=4, dim=2, fdim=3, seed=0):
    rng = np.random.default_rng(seed)
    return AnchorSet(
        positions=rng.uniform(0, 1, (count, dim)),
        features=rng.normal(0, 1, (count, fdim)),
        scales=rng.uniform(0.1, 2.0, count),
        offsets=rng.uniform(-0.1, 0.1, (count, dim)),
        opacities=rng.uniform(0, 1, count),
        colors=rng.uniform(0, 1, (count, 3)),
    )


def make_table(anchors, steps=3, seed=1, zero=False):
    rng = np.random.default_rng(seed)
    count, dim = anchors.count, anchors.dim
    fdim = anchors.feature_dim
    times = np.linspace(0, 1, steps) if steps > 1 else np.array([0.0])

    def draw(shape):
        return np.zeros(shape) if zero else rng.normal(0, 0.1, shape)

    return DeformationTable(
        timesteps=times,
        displacements=draw((steps, count, dim)),
        feature_residuals=draw((steps, count, fdim)),
        local=LocalResiduals(
            d_position=draw((steps, count, dim)),
            d_scale=draw((steps, count)),
            d_opacity=draw((steps, count)),
            d_color=draw((steps, count, 3)),
        ),
    )


class TestAnchorSet:
    def test_validates_leading_dimension(self):
        with pytest.raises(ValueError):
            AnchorSet(
                positions=np.zeros((3, 2)),
                features=np.zeros((2, 4)),
                scales=np.ones(3),
                offsets=np.zeros((3, 2)),
                opacities=np.zeros(3),
                colors=np.zeros((3, 3)),
            )

    def test_rejects_out_of_range_opacity(self):
        a = make_anchors()
        with pytest.raises(ValueError):
            AnchorSet(
                positions=a.positions,
                features=a.features,
                scales=a.scales,
                offsets=a.offsets,
                opacities=np.full(a.count, 1.5),
                colors=a.colors,
            )

    @pytest.mark.parametrize("field", ["scales", "opacities", "colors"])
    def test_rejects_nan_attribute(self, field):
        a = make_anchors()
        values = getattr(a, field).copy()
        values[1] = np.nan
        with pytest.raises(ValueError):
            replace(a, **{field: values})

    def test_arrays_are_immutable(self):
        a = make_anchors()
        with pytest.raises(ValueError):
            a.positions[0, 0] = 5.0


class TestActiveSet:
    def test_threshold_example(self):
        assert list(active_set(np.array([0.005, 0.011, 1.0]), 0.01)) == [1, 2]

    def test_all_zero(self):
        assert active_set(np.zeros(5), 0.01).size == 0

    def test_all_one(self):
        assert list(active_set(np.ones(5), 0.01)) == [0, 1, 2, 3, 4]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            active_set(np.ones(3), 0.0)

    @settings(deadline=None, max_examples=50)
    @given(
        mask=st.lists(st.floats(0, 1), min_size=1, max_size=20),
        lo=st.floats(0.01, 0.5),
        hi=st.floats(0.5, 0.99),
    )
    def test_raising_threshold_never_adds(self, mask, lo, hi):
        mask = np.array(mask)
        low = set(active_set(mask, lo))
        high = set(active_set(mask, hi))
        assert high <= low


class TestActivationRate:
    def test_extremes(self):
        ones, zeros = np.ones(6), np.zeros(6)
        assert activation_rate(MaskBank(levels=(zeros, zeros, ones))) == 1.0
        assert activation_rate(MaskBank(levels=(ones, ones, ones))) == 0.0

    def test_mean_example(self):
        bank = MaskBank(
            levels=(np.full(4, 0.5), np.full(4, 0.5), np.array([1, 1, 0.5, 0.5]))
        )
        assert activation_rate(bank) == pytest.approx(0.25)

    def test_clamped_when_base_exceeds_top(self):
        bank = MaskBank(levels=(np.ones(3), np.ones(3), np.zeros(3)))
        assert activation_rate(bank) == 0.0


class TestRouteLevel:
    def test_level0_is_canonical(self):
        a = make_anchors()
        table = make_table(a)
        out = route_level(a, table, 0, 0.7)
        assert np.array_equal(out.positions, a.positions)
        assert np.array_equal(out.opacities, a.opacities)

    def test_level1_zero_table_matches_level0(self):
        a = make_anchors()
        table = make_table(a, zero=True)
        out = route_level(a, table, 1, 0.5)
        assert np.array_equal(out.positions, a.positions)
        assert np.array_equal(out.features, a.features)

    def test_level1_applies_displacement_at_nearest_timestep(self):
        a = make_anchors()
        table = make_table(a, steps=3)
        out = route_level(a, table, 1, 0.95)  # nearest stored time is 1.0
        np.testing.assert_array_equal(out.positions, a.positions + table.displacements[2])
        np.testing.assert_array_equal(out.features, a.features + table.feature_residuals[2])

    def test_level2_opacity_annihilation(self):
        a = make_anchors()
        table = make_table(a, zero=True)
        d_opacity = np.zeros((table.step_count, a.count))
        d_opacity[:] = -a.opacities[None, :]
        table = DeformationTable(
            timesteps=table.timesteps,
            displacements=table.displacements,
            feature_residuals=table.feature_residuals,
            local=LocalResiduals(
                d_position=table.local.d_position,
                d_scale=table.local.d_scale,
                d_opacity=d_opacity,
                d_color=table.local.d_color,
            ),
        )
        out = route_level(a, table, 2, 0.0)
        assert np.all(out.opacities == 0)

    def test_level2_equals_level1_when_local_zero(self):
        a = make_anchors()
        rng = np.random.default_rng(5)
        steps = 3
        table = DeformationTable(
            timesteps=np.linspace(0, 1, steps),
            displacements=rng.normal(0, 0.2, (steps, a.count, 2)),
            feature_residuals=rng.normal(0, 0.2, (steps, a.count, a.feature_dim)),
            local=LocalResiduals(
                d_position=np.zeros((steps, a.count, 2)),
                d_scale=np.zeros((steps, a.count)),
                d_opacity=np.zeros((steps, a.count)),
                d_color=np.zeros((steps, a.count, 3)),
            ),
        )
        for t in (0.0, 0.4, 1.0):
            l1 = route_level(a, table, 1, t)
            l2 = route_level(a, table, 2, t)
            assert np.array_equal(l1.positions, l2.positions)
            assert np.array_equal(l1.opacities, l2.opacities)
            assert np.array_equal(l1.scales, l2.scales)

    def test_missing_table_raises_for_dynamic_levels(self):
        a = make_anchors()
        assert route_level(a, None, 0, 0.0) is a
        for level in (1, 2):
            with pytest.raises(MissingLayerError):
                route_level(a, None, level, 0.0)

    def test_level2_clamps(self):
        a = make_anchors()
        table = make_table(a, zero=True)
        local = LocalResiduals(
            d_position=np.zeros((table.step_count, a.count, 2)),
            d_scale=np.full((table.step_count, a.count), -10.0),
            d_opacity=np.full((table.step_count, a.count), 10.0),
            d_color=np.full((table.step_count, a.count, 3), 10.0),
        )
        table = DeformationTable(
            timesteps=table.timesteps,
            displacements=table.displacements,
            feature_residuals=table.feature_residuals,
            local=local,
        )
        out = route_level(a, table, 2, 0.0)
        assert np.all(out.scales == 0)
        assert np.all(out.opacities == 1)
        assert np.all(out.colors == 1)


class TestMaskBank:
    def test_clamps_on_construction(self):
        bank = MaskBank(levels=(np.array([-1.0, 2.0]), np.zeros(2), np.ones(2)))
        assert list(bank.level(0)) == [0.0, 1.0]

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            MaskBank(levels=(np.ones(2), np.ones(2), np.ones(2)), threshold=1.0)


class TestDeformationTable:
    def test_rejects_decreasing_timesteps(self):
        a = make_anchors()
        with pytest.raises(ValueError):
            DeformationTable(
                timesteps=np.array([0.5, 0.2]),
                displacements=np.zeros((2, a.count, 2)),
                feature_residuals=np.zeros((2, a.count, 3)),
                local=LocalResiduals(
                    d_position=np.zeros((2, a.count, 2)),
                    d_scale=np.zeros((2, a.count)),
                    d_opacity=np.zeros((2, a.count)),
                    d_color=np.zeros((2, a.count, 3)),
                ),
            )

    @pytest.mark.parametrize("times", [[np.nan], [0.2, np.nan], [np.nan, 0.2]])
    def test_rejects_nan_timestep(self, times):
        table = make_table(make_anchors(), steps=len(times))
        with pytest.raises(ValueError, match="timesteps"):
            replace(table, timesteps=np.array(times))

    def test_nearest_index(self):
        a = make_anchors()
        table = make_table(a, steps=3)  # times 0, 0.5, 1
        assert table.nearest_index(0.0) == 0
        assert table.nearest_index(0.26) == 1
        assert table.nearest_index(0.9) == 2
