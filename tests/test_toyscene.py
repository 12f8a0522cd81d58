import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pd4g import entropy, toyscene
from pd4g.acceptance import _fd_gradient, _rel_err
from pd4g.asset import AnchorSet, DeformationTable, LocalResiduals, MaskBank, MissingLayerError
from pd4g.bitstream import DEFAULT_QUANT_STEPS
from pd4g.config import load_config
from pd4g.losses import LossWeights
from pd4g.rollout import RolloutConfig
from pd4g.toyscene import (
    SCENE_KINDS,
    ToyScene,
    _pairwise_d2,
    _pixel_grid,
    _render_gradient,
    _Splat,
    l1_distortion,
    make_scene,
    psnr,
    render,
    train_masks,
)


@pytest.fixture(scope="module")
def small_scene():
    return make_scene("mixed", 24, 3, seed=9, image_size=(20, 20))


class TestRender:
    def test_zero_masks_render_black(self, small_scene):
        bank = MaskBank(levels=(np.zeros(24), np.zeros(24), np.zeros(24)))
        img = render(small_scene, bank, 0, 0.0)
        assert np.all(img == 0)

    def test_saturated_center_pixel(self):
        scene = make_scene("static", 4, 1, seed=1, image_size=(16, 16))
        # replace with one huge centered white blob via direct construction
        from pd4g.asset import AnchorSet, DeformationTable, LocalResiduals

        anchors = AnchorSet(
            positions=[[0.5, 0.5]],
            features=[[0.0, 0.0]],
            scales=[5.0],
            offsets=[[0.0, 0.0]],
            opacities=[1.0],
            colors=[[1.0, 1.0, 1.0]],
        )
        table = DeformationTable(
            timesteps=np.array([0.0]),
            displacements=np.zeros((1, 1, 2)),
            feature_residuals=np.zeros((1, 1, 2)),
            local=LocalResiduals(
                d_position=np.zeros((1, 1, 2)),
                d_scale=np.zeros((1, 1)),
                d_opacity=np.zeros((1, 1)),
                d_color=np.zeros((1, 1, 3)),
            ),
        )
        gt = np.zeros((1, 16, 16, 3))
        scene = ToyScene(anchors=anchors, deformations=table, image_size=(16, 16), ground_truth=gt)
        img = render(scene, MaskBank.all_ones(1), 0, 0.0)
        assert img[8, 8, 0] == pytest.approx(1.0, abs=1e-3)

    def test_deterministic(self, small_scene):
        bank = MaskBank.all_ones(24)
        a = render(small_scene, bank, 2, 0.5)
        b = render(small_scene, bank, 2, 0.5)
        assert np.array_equal(a, b)

    def test_missing_layer_error(self, small_scene):
        bare = ToyScene(
            anchors=small_scene.anchors,
            deformations=None,
            image_size=small_scene.image_size,
            ground_truth=small_scene.ground_truth[:1],
        )
        assert render(bare, MaskBank.all_ones(24), 0, 0.0).shape == (20, 20, 3)
        with pytest.raises(MissingLayerError):
            render(bare, MaskBank.all_ones(24), 1, 0.0)

    def test_gating_annihilation_matches_black(self, small_scene):
        bank = MaskBank(levels=(np.zeros(24), np.ones(24), np.ones(24)))
        img = render(small_scene, bank, 0, 0.0)
        assert np.array_equal(img, np.zeros_like(img))

    def test_render_bytes_pinned(self):
        # sha256 over every kind, seeds 1-3 (48 anchors, 4 timesteps, 24x24):
        # ground truth, then render at levels 0-2 and t in {0, 0.3, 1} under
        # all-ones, uniform and thresholded-uniform masks
        h = hashlib.sha256()
        for kind in SCENE_KINDS:
            for seed in (1, 2, 3):
                scene = make_scene(kind, 48, 4, seed, image_size=(24, 24))
                h.update(scene.ground_truth.tobytes())
                rng = np.random.default_rng(seed)
                banks = (
                    MaskBank.all_ones(48),
                    MaskBank(levels=tuple(rng.uniform(0, 1, (3, 48)))),
                    MaskBank(levels=tuple((rng.uniform(0, 1, (3, 48)) > 0.5).astype(np.float64))),
                )
                for bank in banks:
                    for level in range(3):
                        for t in (0.0, 0.3, 1.0):
                            h.update(render(scene, bank, level, t).tobytes())
        assert h.hexdigest() == "460a47dc44acad81f9b3a4bb5ca51b9d4ac23726578ebe94c6c40e9d40544ac2"

    def test_render_rejects_anchors_of_another_dimension(self):
        rng = np.random.default_rng(4)
        anchors = AnchorSet(
            positions=rng.uniform(0, 1, (6, 3)),
            features=np.zeros((6, 2)),
            scales=np.full(6, 0.05),
            offsets=np.zeros((6, 3)),
            opacities=np.full(6, 0.8),
            colors=np.full((6, 3), 0.5),
        )
        scene = ToyScene(anchors=anchors, deformations=None, image_size=(8, 8), ground_truth=np.zeros((1, 8, 8, 3)))
        with pytest.raises(ValueError, match="3-D.*2-D"):
            render(scene, MaskBank.all_ones(6), 0, 0.0)


def _einsum_d2(positions, pixels):
    # the formula _pairwise_d2 replaced, kept as its bit-for-bit reference
    diff = positions[:, None, :] - pixels[None, :, :]
    return np.einsum("vpk,vpk->vp", diff, diff)


class TestPairwiseD2:
    @settings(max_examples=400, deadline=None)
    @given(
        anchors=st.integers(1, 300),
        pixel_count=st.integers(1, 300),
        log_scale=st.floats(-3.0, 2.0),
        far=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(anchors=1, pixel_count=257, log_scale=0.0, far=False, seed=0)
    @example(anchors=300, pixel_count=1, log_scale=-3.0, far=True, seed=1)
    @example(anchors=1, pixel_count=1, log_scale=2.0, far=True, seed=2)
    def test_bit_identical_to_einsum(self, anchors, pixel_count, log_scale, far, seed):
        rng = np.random.default_rng(seed)
        # far: the anchors sit up to 100 units outside the unit square
        center = rng.uniform(-100.0, 100.0, 2) if far else np.full(2, 0.5)
        positions = center + 10.0**log_scale * rng.uniform(-1.0, 1.0, (anchors, 2))
        pixels = rng.uniform(0.0, 1.0, (pixel_count, 2))
        got, want = _pairwise_d2(positions, pixels), _einsum_d2(positions, pixels)
        assert got.shape == want.shape == (anchors, pixel_count)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDistortionMetrics:
    def test_identical_images(self):
        img = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        assert l1_distortion(img, img) == 0.0
        assert psnr(img, img) == 99.0

    def test_black_vs_white(self):
        black = np.zeros((4, 4, 3))
        white = np.ones((4, 4, 3))
        assert l1_distortion(black, white) == 1.0
        assert psnr(black, white) == pytest.approx(0.0)

    def test_half_pixels_differ(self):
        a = np.zeros((2, 2, 3))
        b = np.zeros((2, 2, 3))
        b[0] = 0.5  # half of all pixels differ by 0.5
        assert l1_distortion(a, b) == pytest.approx(0.25)

    def test_psnr_log_arithmetic(self):
        a = np.zeros((10, 10, 3))
        b = np.full((10, 10, 3), 0.1)  # MSE = 0.01
        assert psnr(a, b) == pytest.approx(20.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l1_distortion(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)))
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)))


class TestMakeScene:
    def test_static_tables_exactly_zero(self):
        scene = make_scene("static", 16, 4, seed=3, image_size=(16, 16))
        table = scene.deformations
        assert np.all(table.displacements == 0)
        assert np.all(table.feature_residuals == 0)
        assert np.all(table.local.d_position == 0)
        assert np.all(table.local.d_scale == 0)

    def test_same_seed_is_byte_identical(self):
        a = make_scene("motion-dense", 16, 3, seed=5, image_size=(16, 16))
        b = make_scene("motion-dense", 16, 3, seed=5, image_size=(16, 16))
        assert np.array_equal(a.anchors.positions, b.anchors.positions)
        assert np.array_equal(a.ground_truth, b.ground_truth)
        assert np.array_equal(a.deformations.local.d_position, b.deformations.local.d_position)

    def test_global_motion_levels_1_and_2_agree(self):
        scene = make_scene("global-motion", 16, 3, seed=7, image_size=(16, 16))
        bank = MaskBank.all_ones(16)
        for t in scene.deformations.timesteps:
            l1 = render(scene, bank, 1, float(t))
            l2 = render(scene, bank, 2, float(t))
            assert np.array_equal(l1, l2)

    def test_ground_truth_is_level2_render(self):
        # bit for bit: ground truth and render share one splat kernel
        for kind in SCENE_KINDS:
            scene = make_scene(kind, 16, 3, seed=8, image_size=(16, 12))
            bank = MaskBank.all_ones(16)
            for i, t in enumerate(scene.deformations.timesteps):
                assert render(scene, bank, 2, float(t)).tobytes() == scene.ground_truth[i].tobytes()

    def test_ground_truth_pinned_at_benchmark_shapes(self):
        # codec-stress shape (motion-dense, 1024 anchors, 32 timesteps, 8x8)
        # and configs/motion_dense.cfg (64 anchors, 4 timesteps, 32x32)
        stress = make_scene("motion-dense", 1024, 32, 7, image_size=(8, 8))
        assert (
            hashlib.sha256(stress.ground_truth.tobytes()).hexdigest()
            == "99efa5e4ad9262c40a4150fd167cf90ff2da6e4712465c51f13c8e022d66af10"
        )
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "motion_dense.cfg")
        dense = make_scene(
            cfg.scene_kind,
            cfg.anchor_count,
            cfg.timestep_count,
            cfg.seed,
            image_size=(cfg.image_width, cfg.image_height),
            feature_dim=cfg.feature_dim,
        )
        assert dense.ground_truth.shape == (4, 32, 32, 3)
        assert (
            hashlib.sha256(dense.ground_truth.tobytes()).hexdigest()
            == "fe1c6dc00451b4cb7b996b8d8031fda343d35851f605c2f4f6f7df044082cd16"
        )

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            make_scene("static", 2, 3, seed=0)
        with pytest.raises(ValueError):
            make_scene("static", 16, 0, seed=0)
        with pytest.raises(ValueError):
            make_scene("nonsense", 16, 3, seed=0)

    def test_anchor_pixel_product_is_bounded(self):
        # 4 anchors at 512x512 is the bound; one more pixel row or column passes it
        assert 4 * 512 * 512 == toyscene.MAX_ANCHOR_PIXELS
        assert make_scene("static", 4, 1, seed=0, image_size=(512, 512)).ground_truth.shape == (1, 512, 512, 3)
        for size in ((512, 513), (513, 512)):
            with pytest.raises(ValueError, match=r"anchor_count \* width \* height must be at most 1048576"):
                make_scene("static", 4, 1, seed=0, image_size=size)
        with pytest.raises(ValueError, match="at most 1048576"):
            make_scene("static", 1024, 1, seed=0, image_size=(32, 33))

    def test_all_kinds_construct(self):
        for kind in SCENE_KINDS:
            scene = make_scene(kind, 8, 2, seed=2, image_size=(12, 12))
            assert scene.ground_truth.shape == (2, 12, 12, 3)
            assert np.all(scene.ground_truth >= 0) and np.all(scene.ground_truth <= 1)


def _fd_render_gradient(scene, mask, level, k):
    t = float(scene.deformations.timesteps[k])

    def loss(m):
        return l1_distortion(render(scene, MaskBank(levels=(m, m, m)), level, t), scene.ground_truth[k])

    return _fd_gradient(loss, mask)


class TestRenderGradient:
    def _gradient(self, scene, mask, level, k):
        t = float(scene.deformations.timesteps[k])
        splat = _Splat(scene.anchors, scene.deformations, level, t, _pixel_grid(*scene.image_size))
        return splat, _render_gradient(splat, mask, scene.ground_truth[k].reshape(-1, 3))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_matches_finite_differences_at_interior_masks(self, small_scene, level):
        mask = np.random.default_rng(level).uniform(0.05, 0.95, 24)
        _, (loss, grad) = self._gradient(small_scene, mask, level, 1)
        image = render(small_scene, MaskBank(levels=(mask, mask, mask)), level, 0.5)  # timestep 1 of 0, 0.5, 1
        assert loss == l1_distortion(image, small_scene.ground_truth[1])
        assert _rel_err(grad, _fd_render_gradient(small_scene, mask, level, 1)) < 1e-4

    def test_level2_clamps_zero_their_derivative(self):
        base = make_scene("motion-dense", 12, 2, seed=3, image_size=(16, 16))
        loc = base.deformations.local
        d_opacity = np.array(loc.d_opacity)
        d_scale = np.array(loc.d_scale)
        d_opacity[:, :2] = 0.95  # opacity clamps at 1 for anchors 0, 1
        d_scale[:, 2:4] = -0.2  # scale clamps at 0 for anchors 2, 3
        table = DeformationTable(
            timesteps=base.deformations.timesteps,
            displacements=base.deformations.displacements,
            feature_residuals=base.deformations.feature_residuals,
            local=LocalResiduals(
                d_position=loc.d_position, d_scale=d_scale, d_opacity=d_opacity, d_color=loc.d_color
            ),
        )
        scene = ToyScene(anchors=base.anchors, deformations=table, image_size=(16, 16), ground_truth=base.ground_truth)
        mask = np.random.default_rng(0).uniform(0.3, 0.9, 12)
        splat, (_, grad) = self._gradient(scene, mask, 2, 1)
        alpha, scale, d_alpha, d_scale_dm = splat.attributes(mask)
        assert np.all(alpha[:2] == 1.0) and np.all(d_alpha[:2] == 0.0)
        assert np.all(scale[2:4] == 0.0) and np.all(d_scale_dm[2:4] == 0.0)
        assert np.all(grad[2:4] == 0.0)  # a vanished blob has no render gradient
        assert np.all(grad[:2] != 0.0)  # the scale path still moves clamped-opacity anchors
        assert _rel_err(grad, _fd_render_gradient(scene, mask, 2, 1)) < 1e-4

    def test_subgradient_vanishes_where_render_matches_ground_truth(self, small_scene):
        ones = np.ones(24)
        for k in range(small_scene.deformations.step_count):
            _, (loss, grad) = self._gradient(small_scene, ones, 2, k)
            assert loss == 0.0
            assert np.all(grad == 0.0)


class TestTrainMasks:
    def test_zero_steps_leaves_masks_at_one(self, small_scene):
        bank, report = train_masks(
            small_scene, LossWeights(), RolloutConfig(), steps=0, seed=1, learning_rate=0.4, progressive_start=400
        )
        for level in range(3):
            assert np.all(bank.level(level) == 1.0)
        assert report.steps == 0

    @pytest.mark.parametrize("steps", [0, 40])
    def test_builds_one_splat_per_level_and_timestep(self, small_scene, monkeypatch, steps):
        # level 0 takes no deformation, so its one splat serves every timestep: 1 + 2T in all
        built = []

        class CountedSplat(toyscene._Splat):
            def __init__(self, anchors, deformations, level, t, pixels):
                super().__init__(anchors, deformations, level, t, pixels)
                built.append(level)

        monkeypatch.setattr(toyscene, "_Splat", CountedSplat)
        cfg = RolloutConfig(sample_period=10, warmup_steps=20)
        train_masks(small_scene, LossWeights(), cfg, steps=steps, seed=4, learning_rate=0.3, progressive_start=20)
        t = small_scene.deformations.step_count
        assert sorted(built) == [0] + [1] * t + [2] * t

    def test_threshold_is_fixed(self, small_scene):
        kwargs = dict(steps=0, seed=1, learning_rate=0.4, progressive_start=400)
        with pytest.raises(ValueError, match="threshold"):
            train_masks(small_scene, LossWeights(), RolloutConfig(), threshold=0.02, **kwargs)

    def test_quant_steps_are_fixed(self, small_scene):
        # the rate model prices the steps the coder writes, and no others
        kwargs = dict(steps=0, seed=1, learning_rate=0.4, progressive_start=400)
        coarse = {**DEFAULT_QUANT_STEPS, "feature": 0.5}
        with pytest.raises(ValueError, match="quant steps are fixed"):
            train_masks(small_scene, LossWeights(), RolloutConfig(), quant_steps=coarse, **kwargs)
        for steps in (None, dict(DEFAULT_QUANT_STEPS)):
            train_masks(small_scene, LossWeights(), RolloutConfig(), quant_steps=steps, **kwargs)

    def test_deterministic_given_seed(self, small_scene):
        cfg = RolloutConfig(sample_period=10, warmup_steps=20)
        kwargs = dict(steps=60, seed=4, learning_rate=0.3, progressive_start=20)
        bank1, rep1 = train_masks(small_scene, LossWeights(), cfg, **kwargs)
        bank2, rep2 = train_masks(small_scene, LossWeights(), cfg, **kwargs)
        for level in range(3):
            assert np.array_equal(bank1.level(level), bank2.level(level))
        assert rep1.to_json() == rep2.to_json()

    def test_report_structure(self, small_scene):
        cfg = RolloutConfig(sample_period=10, warmup_steps=20)
        bank, report = train_masks(
            small_scene, LossWeights(), cfg, steps=40, seed=4, learning_rate=0.2, progressive_start=10
        )
        assert len(report.loss_curve) == 40
        assert len(report.activation_trajectory) == 4  # steps 0, 10, 20, 30
        assert all(np.isfinite(p) for p in report.psnr_per_level)
        assert all(0 <= n <= 24 for n in report.active_per_level)
        csv_text = report.loss_curve_csv()
        assert csv_text.splitlines()[0] == "step,level,timestep,render,rate,consistency,total"
        assert len(csv_text.splitlines()) == 41

    def test_distribution_constant_between_samples(self, small_scene):
        # between scheduler samples the level distribution cannot change, so
        # the recorded trajectory carries exactly one entry per period
        cfg = RolloutConfig(sample_period=25, warmup_steps=0)
        _, report = train_masks(
            small_scene, LossWeights(), cfg, steps=100, seed=4, learning_rate=0.2, progressive_start=10
        )
        sampled_steps = [s for s, _, _ in report.activation_trajectory]
        assert sampled_steps == [0, 25, 50, 75]


# sha256 prefixes of (mask bytes, loss_curve_csv(), to_json()) for 3000-step
# runs at 64 anchors, 4 timesteps, 32x32, lr 0.5, RolloutConfig(25, 400),
# progressive start 400, seed 11, and the render passes each run makes
PINNED_RUNS = {
    "motion-dense-101": (
        "motion-dense",
        101,
        LossWeights(),
        ("ee3e642b186879cf", "d570b799188c3e1e", "23531476e73cd115"),
        1832,
    ),
    "mixed-201-lambda0": (
        "mixed",
        201,
        LossWeights(lambda_layer=(0.00025, 0.01, 0.00025)),
        ("d393bb8ffc2ee32c", "f3a4b55e072310da", "fe078ac884a71174"),
        1968,
    ),
}


def _counting_fits(monkeypatch) -> list[int]:
    """Count entropy.family_priors calls, as train_masks makes them."""
    fits = [0]
    fit = entropy.family_priors

    def counted(*args, **kwargs):
        fits[0] += 1
        return fit(*args, **kwargs)

    monkeypatch.setattr(entropy, "family_priors", counted)
    return fits


def _recording_renders(monkeypatch) -> list[np.ndarray]:
    """Record the gradient of each toyscene._render_gradient call, as train_masks makes them."""
    grads = []
    render_gradient = toyscene._render_gradient

    def recorded(*args, **kwargs):
        loss, grad = render_gradient(*args, **kwargs)
        grads.append(grad)
        return loss, grad

    monkeypatch.setattr(toyscene, "_render_gradient", recorded)
    return grads


@pytest.fixture(scope="module")
def pinned_runs():
    """Each pinned run trained once: its digest triple, prior-fit count and render-pass gradients."""
    results = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        fits = _counting_fits(monkeypatch)
        grads = _recording_renders(monkeypatch)
        for name, (kind, seed, weights, *_) in PINNED_RUNS.items():
            scene = make_scene(kind, 64, 4, seed, image_size=(32, 32))
            fits[0] = 0
            grads.clear()
            bank, report = train_masks(
                scene,
                weights,
                RolloutConfig(sample_period=25, warmup_steps=400),
                steps=3000,
                seed=11,
                learning_rate=0.5,
                progressive_start=400,
            )
            masks = b"".join(bank.level(level).tobytes() for level in range(3))
            texts = (masks, report.loss_curve_csv().encode(), report.to_json().encode())
            results[name] = (tuple(hashlib.sha256(t).hexdigest()[:16] for t in texts), fits[0], list(grads))
    return results


class TestTrainingBits:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_digests_pinned(self, pinned_runs, name):
        digests, _, _ = pinned_runs[name]
        assert digests == PINNED_RUNS[name][3], f"new digest triple for {name}: {digests}"

    def test_priors_refit_when_the_active_set_changes(self, pinned_runs):
        # motion-dense 101 fits its priors 31 times in 2600 progressive steps:
        # once per level and active set, not once per step
        _, fits, _ = pinned_runs["motion-dense-101"]
        assert 3 < fits < 100

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_render_passes_only_for_a_new_mask(self, pinned_runs, name):
        # a step whose (level, timestep) meets the mask bytes it last met
        # reuses that render pass; the digests above show the reuse exact
        _, _, grads = pinned_runs[name]
        assert len(grads) == PINNED_RUNS[name][4]

    def test_stored_render_gradients_are_read_only(self, pinned_runs):
        _, _, grads = pinned_runs["motion-dense-101"]
        assert not any(grad.flags.writeable for grad in grads)

    def test_priors_fit_once_per_level_on_a_fixed_active_set(self, monkeypatch):
        fits = _counting_fits(monkeypatch)
        scene = make_scene("static", 16, 2, seed=5, image_size=(16, 16))
        bank, _ = train_masks(
            scene,
            LossWeights(),
            RolloutConfig(sample_period=10, warmup_steps=20),
            steps=200,
            seed=3,
            learning_rate=0.3,
            progressive_start=20,
        )
        assert all(np.all(bank.level(level) > bank.threshold) for level in range(3))
        assert fits[0] <= 3
