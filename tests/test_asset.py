import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from pd4g.asset import (
    MASK_THRESHOLD,
    AnchorSet,
    DeformationTable,
    LocalResiduals,
    MaskBank,
    MissingLayerError,
    activation_rate,
    active_set,
)
from pd4g.toyscene import ToyScene, _pairwise_d2, _pixel_grid, _Splat

PIXELS = _pixel_grid(8, 8)


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
        assert list(active_set(np.array([0.005, 0.01, 0.011, 1.0]))) == [2, 3]

    def test_all_zero(self):
        assert active_set(np.zeros(5)).size == 0

    def test_all_one(self):
        assert list(active_set(np.ones(5))) == [0, 1, 2, 3, 4]


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


def make_splat(anchors, table, level, t):
    return _Splat(anchors, table, level, t, PIXELS)


def with_local(table, **fields):
    return replace(table, local=replace(table.local, **fields))


class TestRouteLevel:
    """The level routing rule, as the splat kernel applies it."""

    def test_level0_is_canonical(self):
        a = make_anchors()
        splat = make_splat(a, make_table(a), 0, 0.7)
        bare = make_splat(a, None, 0, 0.7)
        assert np.array_equal(splat.d2, _pairwise_d2(a.positions, PIXELS))
        assert np.array_equal(splat.colors, a.colors)
        mask = np.random.default_rng(2).uniform(0, 1, a.count)
        assert np.array_equal(splat.image(mask), bare.image(mask))

    def test_level1_zero_table_matches_level0(self):
        a = make_anchors()
        table = make_table(a, zero=True)
        mask = np.random.default_rng(3).uniform(0, 1, a.count)
        l0 = make_splat(a, table, 0, 0.5).image(mask)
        assert np.array_equal(make_splat(a, table, 1, 0.5).image(mask), l0)

    def test_level1_applies_displacement_at_nearest_timestep(self):
        a = make_anchors()
        table = make_table(a, steps=3)
        splat = make_splat(a, table, 1, 0.95)  # nearest stored time is 1.0
        np.testing.assert_array_equal(splat.d2, _pairwise_d2(a.positions + table.displacements[2], PIXELS))
        np.testing.assert_array_equal(splat.colors, a.colors)

    def test_level2_adds_local_residuals_at_nearest_timestep(self):
        a = make_anchors()
        table = make_table(a, steps=3)
        splat = make_splat(a, table, 2, 0.3)  # nearest stored time is 0.5
        positions = a.positions + table.displacements[1] + table.local.d_position[1]
        np.testing.assert_array_equal(splat.d2, _pairwise_d2(positions, PIXELS))
        np.testing.assert_array_equal(splat.colors, np.clip(a.colors + table.local.d_color[1], 0, 1))

    def test_level2_opacity_annihilation(self):
        a = make_anchors()
        table = make_table(a, zero=True)
        table = with_local(table, d_opacity=np.tile(-a.opacities, (table.step_count, 1)))
        assert np.all(make_splat(a, table, 2, 0.0).image(np.ones(a.count)) == 0)

    def test_level2_equals_level1_when_local_zero(self):
        a = make_anchors()
        table = replace(make_table(a), local=make_table(a, zero=True).local)
        mask = np.random.default_rng(5).uniform(0, 1, a.count)
        for t in (0.0, 0.4, 1.0):
            l1 = make_splat(a, table, 1, t)
            l2 = make_splat(a, table, 2, t)
            assert np.array_equal(l1.d2, l2.d2)
            assert np.array_equal(l1.image(mask), l2.image(mask))

    def test_missing_table_raises_for_dynamic_levels(self):
        a = make_anchors()
        make_splat(a, None, 0, 0.0)
        for level in (1, 2):
            with pytest.raises(MissingLayerError):
                make_splat(a, None, level, 0.0)

    def test_level2_clamps(self):
        a = make_anchors()
        a = replace(a, scales=a.scales / 20)  # small blobs leave most pixels unsaturated
        table = make_table(a, zero=True)
        shape = (table.step_count, a.count)
        ones = np.ones(a.count)
        vanished = with_local(table, d_scale=np.full(shape, -10.0))
        assert np.all(make_splat(a, vanished, 2, 0.0).image(ones) == 0)
        # opacity and color saturate at 1: the image is that of a level-0
        # render with opacity and color 1
        saturated = with_local(table, d_opacity=np.full(shape, 10.0), d_color=np.full(shape + (3,), 10.0))
        white = replace(a, opacities=np.ones(a.count), colors=np.ones((a.count, 3)))
        image = make_splat(a, saturated, 2, 0.0).image(ones)
        assert np.array_equal(image, make_splat(white, None, 0, 0.0).image(ones))

    def test_anchor_count_mismatch_raises(self):
        a = make_anchors(count=4)
        table = make_table(make_anchors(count=5))
        make_splat(a, table, 0, 0.0)  # level 0 does not read the table
        for level in (1, 2):
            with pytest.raises(ValueError, match="anchor count"):
                make_splat(a, table, level, 0.0)


class TestMaskBank:
    def test_clamps_on_construction(self):
        bank = MaskBank(levels=(np.array([-1.0, 2.0]), np.zeros(2), np.ones(2)))
        assert list(bank.level(0)) == [0.0, 1.0]

    def test_threshold_is_the_published_constant(self):
        assert [f.name for f in fields(MaskBank)] == ["levels"]
        assert MaskBank.all_ones(2).threshold == MaskBank.threshold == MASK_THRESHOLD == 0.01
        assert [list(inspect.signature(f).parameters) for f in (MaskBank.all_ones, active_set)] == [["count"], ["mask"]]
        with pytest.raises(TypeError, match="threshold"):
            MaskBank(levels=(np.ones(2), np.ones(2), np.ones(2)), threshold=0.5)

    def test_rejects_nan(self):
        # clipping keeps NaN, and a NaN mask is never above the threshold
        with pytest.raises(ValueError, match="NaN"):
            MaskBank(levels=(np.ones(2), np.array([1.0, np.nan]), np.ones(2)))


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


def _read_only(a):
    a.flags.writeable = False
    return a


def _array_fields(*owners):
    """name -> (build from a new value, read the stored value, the current value) for each array field."""
    cases = {}
    for owner in owners:
        for f in fields(owner):
            value = getattr(owner, f.name)
            if isinstance(value, np.ndarray):
                cases[f"{type(owner).__name__}.{f.name}"] = (
                    lambda v, owner=owner, name=f.name: replace(owner, **{name: v}),
                    lambda built, name=f.name: getattr(built, name),
                    value,
                )
    return cases


_ANCHORS = make_anchors()
_TABLE = make_table(_ANCHORS)
# the types that store an input as it is when it qualifies for adoption
ADOPTING = _array_fields(_ANCHORS, _TABLE, _TABLE.local)
_BANK = MaskBank(levels=(np.full(4, 0.5), np.ones(4), np.ones(4)))
ALL_FIELDS = ADOPTING | _array_fields(
    ToyScene(anchors=_ANCHORS, deformations=_TABLE, image_size=(8, 8), ground_truth=np.zeros((3, 8, 8, 3)))
)
ALL_FIELDS["MaskBank.levels"] = (
    lambda v: replace(_BANK, levels=(v, *_BANK.levels[1:])),
    lambda built: built.levels[0],
    _BANK.levels[0],
)


class TestConstructionCopies:
    """Construction adopts a fresh read-only array and copies every other input."""

    @pytest.mark.parametrize("field", sorted(ALL_FIELDS))
    def test_writeable_input_is_copied(self, field):
        build, read, value = ALL_FIELDS[field]
        mine = np.array(value)
        built = build(mine)
        mine += 0.25
        stored = read(built)
        assert not stored.flags.writeable and not np.shares_memory(stored, mine)
        assert np.array_equal(stored, value)

    @pytest.mark.parametrize("field", sorted(ADOPTING))
    def test_read_only_owned_array_is_adopted(self, field):
        build, read, value = ADOPTING[field]
        mine = _read_only(np.array(value))
        assert np.shares_memory(read(build(mine)), mine)

    @pytest.mark.parametrize(
        "field, form",
        [
            (field, form)
            for field, (_, _, value) in sorted(ADOPTING.items())
            # a flat array that owns its memory is always contiguous
            for form in ("view", "non-contiguous", "float32")
            if form != "non-contiguous" or value.ndim > 1
        ],
    )
    def test_other_read_only_inputs_are_copied(self, field, form):
        build, read, value = ADOPTING[field]
        if form == "view":  # C-contiguous float64, but its memory belongs to another array
            owner = np.array(value)
            mine = _read_only(owner.view())
            shared = owner
        elif form == "non-contiguous":  # owns its memory in Fortran order
            mine = shared = _read_only(np.array(value, order="F"))
            assert mine.flags.owndata and not mine.flags.c_contiguous
        else:
            mine = shared = _read_only(np.array(value, dtype=np.float32))
        stored = read(build(mine))
        assert stored.dtype == np.float64 and not stored.flags.writeable
        assert not np.shares_memory(stored, shared)
        assert np.array_equal(stored, mine)
