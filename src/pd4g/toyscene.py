"""Desk-scale synthetic 2D scenes: splat renderer, scene generator, mask training.

Stands in for a CUDA rasterizer and learned deformation fields so the whole
train -> encode -> stream pipeline can be exercised end to end in seconds.
Anchors live in the unit square and splat as isotropic 2D blobs; deformation
is tabulated per timestep; ground truth is rendered from the generator's own
full configuration, so a perfect level-2 reconstruction is always attainable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import entropy, losses, rollout
from .asset import (
    MASK_THRESHOLD,
    AnchorSet,
    DeformationTable,
    LocalResiduals,
    MaskBank,
    MissingLayerError,
    activation_rate,
    check_layer,
)
from .bitstream import DEFAULT_QUANT_STEPS
from .seeds import counter_uniform, derive_seed, rng_for

PSNR_CAP_DB = 99.0
_SCALE_FLOOR = 1e-9  # blobs below this width contribute nothing

SCENE_KINDS = ("static", "global-motion", "mixed", "motion-dense")


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss; carries the offending step index."""

    def __init__(self, step: int, message: str | None = None):
        super().__init__(message or f"training loss became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class ToyScene:
    """A generated scene: anchors, their deformation tables, and ground truth.

    ``deformations`` may be None for a bare static asset (e.g. a decoded
    base-layer prefix); such a scene renders at level 0 only.
    """

    anchors: AnchorSet
    deformations: DeformationTable | None
    image_size: tuple[int, int]  # (width, height)
    ground_truth: np.ndarray  # (T, height, width, 3) in [0, 1]

    def __post_init__(self):
        gt = np.array(self.ground_truth, dtype=np.float64, copy=True)
        gt.flags.writeable = False
        object.__setattr__(self, "ground_truth", gt)
        w, h = self.image_size
        t = self.deformations.step_count if self.deformations is not None else gt.shape[0]
        if gt.shape != (t, h, w, 3):
            raise ValueError(f"ground truth shape {gt.shape} does not match (T={t}, H={h}, W={w}, 3)")
        if np.any((gt < 0) | (gt > 1)):
            raise ValueError("ground truth pixel values must lie in [0, 1]")


@dataclass(frozen=True)
class TrainReport:
    """Summary of one mask-training run; JSON/CSV export is deterministic."""

    steps: int
    psnr_per_level: tuple[float, float, float]
    active_per_level: tuple[int, int, int]
    final_activation_ema: float
    final_distribution: tuple[float, float, float]
    activation_trajectory: tuple[tuple[int, float, float], ...]  # (step, sample, ema)
    loss_curve: tuple[dict, ...]

    def to_json(self) -> str:
        payload = {
            "steps": self.steps,
            "psnr_per_level_db": list(self.psnr_per_level),
            "active_per_level": list(self.active_per_level),
            "final_activation_ema": self.final_activation_ema,
            "final_distribution": list(self.final_distribution),
            "activation_trajectory": [
                {"step": s, "sample": r, "ema": e} for s, r, e in self.activation_trajectory
            ],
        }
        return json.dumps(payload, indent=2)

    def loss_curve_csv(self) -> str:
        lines = ["step,level,timestep,render,rate,consistency,total"]
        for row in self.loss_curve:
            lines.append(
                f"{row['step']},{row['level']},{row['timestep']},"
                f"{row['render']!r},{row['rate']!r},{row['consistency']!r},{row['total']!r}"
            )
        return "\n".join(lines) + "\n"


def _pixel_grid(width: int, height: int) -> np.ndarray:
    """Pixel-center coordinates in scene units, row-major, shape (H*W, 2)."""
    xs = (np.arange(width) + 0.5) / width
    ys = (np.arange(height) + 0.5) / height
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _pairwise_d2(positions: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Squared distances (V, P), one whole-array pass per coordinate for speed; must equal 0 + d0^2 + d1^2 bit for bit."""
    if positions.shape[1] != pixels.shape[1]:
        raise ValueError(f"anchor positions are {positions.shape[1]}-D but the pixel grid is {pixels.shape[1]}-D")
    d2 = np.subtract.outer(positions[:, 0], pixels[:, 0])
    d2 *= d2
    for k in range(1, pixels.shape[1]):
        dk = np.subtract.outer(positions[:, k], pixels[:, k])
        dk *= dk
        d2 += dk
    return d2


class _Splat:
    """The splat kernel: gate -> route -> splat -> clamp for one level and time.

    Routing uses the deformation table at the stored timestep nearest ``t``:
    level 0 takes the canonical anchors, level 1 adds the global
    displacement, and level 2 further adds the local position residual and
    clips ``color + d_color`` to [0, 1]. Routing does not depend on the mask,
    so positions, colors and the squared anchor-pixel distances are fixed at
    construction. The mask enters through the gated opacity
    ``alpha = alpha0 * m`` and scale ``s = s0 * m``, which level 2 offsets by
    its local residuals and clamps to [0, 1] and >= 0. Each anchor splats
    ``alpha * exp(-d^2 / (2 s^2))`` per pixel, and the image is the
    color-weighted sum, clipped to [0, 1].
    """

    def __init__(
        self,
        anchors: AnchorSet,
        deformations: DeformationTable | None,
        level: int,
        t: float,
        pixels: np.ndarray,
    ):
        level = check_layer(level)
        self.alpha0 = anchors.opacities
        self.scale0 = anchors.scales
        self.d_opacity = None
        self.d_scale = None
        positions, colors = anchors.positions, anchors.colors
        if level > 0:
            if deformations is None:
                raise MissingLayerError(f"level {level} requested but no deformation table is present")
            if deformations.count != anchors.count:
                raise ValueError("deformation table anchor count does not match the anchor set")
            k = deformations.nearest_index(t)
            positions = positions + deformations.displacements[k]
            if level == 2:
                loc = deformations.local
                positions = positions + loc.d_position[k]
                colors = np.clip(colors + loc.d_color[k], 0.0, 1.0)
                self.d_opacity = loc.d_opacity[k]
                self.d_scale = loc.d_scale[k]
        self.colors = colors
        self.d2 = _pairwise_d2(positions, pixels)

    def attributes(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gated (and on level 2 clamped) opacity and scale, and their mask derivatives."""
        alpha = self.alpha0 * mask
        scale = self.scale0 * mask
        if self.d_opacity is None:
            return alpha, scale, self.alpha0, self.scale0
        alpha = alpha + self.d_opacity
        scale = scale + self.d_scale
        d_alpha = np.where((alpha > 0.0) & (alpha < 1.0), self.alpha0, 0.0)
        d_scale = np.where(scale > 0.0, self.scale0, 0.0)
        return np.clip(alpha, 0.0, 1.0), np.maximum(scale, 0.0), d_alpha, d_scale

    def falloff(self, scale: np.ndarray) -> np.ndarray:
        """Per-anchor, per-pixel exp(-d^2 / (2 s^2)), (V, P); zero for vanished blobs."""
        live = scale > _SCALE_FLOOR
        # a vanished blob's row is zeroed anyway; a unit width keeps its exp
        # off numpy's slow underflow path
        s2 = np.where(live, scale, 1.0) ** 2
        e = np.divide(self.d2, -2.0 * s2[:, None])
        np.exp(e, out=e)
        e[~live] = 0.0
        return e

    def image(self, mask: np.ndarray) -> np.ndarray:
        """Clipped (P, 3) image for a mask vector."""
        alpha, scale, _, _ = self.attributes(mask)
        weights = self.falloff(scale)
        weights *= alpha[:, None]
        return np.clip(weights.T @ self.colors, 0.0, 1.0)


def render(scene: ToyScene, bank: MaskBank, level: int, t: float) -> np.ndarray:
    """Render the scene at one level and time as an (H, W, 3) image in [0, 1].

    Anchors are gated by the level's mask, routed through the deformation
    prefix, then splatted additively and clamped. Pure and deterministic.
    """
    level = check_layer(level)
    mask = bank.level(level)
    if mask.shape != (scene.anchors.count,):
        raise ValueError(f"mask length {mask.shape} does not match anchor count {scene.anchors.count}")
    width, height = scene.image_size
    splat = _Splat(scene.anchors, scene.deformations, level, t, _pixel_grid(width, height))
    return splat.image(mask).reshape(height, width, 3)


def l1_distortion(rendered: np.ndarray, ground_truth: np.ndarray) -> float:
    """Mean absolute pixel difference between two images."""
    rendered = np.asarray(rendered, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if rendered.shape != ground_truth.shape:
        raise ValueError(f"image shapes differ: {rendered.shape} vs {ground_truth.shape}")
    return float(np.mean(np.abs(rendered - ground_truth)))


def psnr(rendered: np.ndarray, ground_truth: np.ndarray) -> float:
    """PSNR in dB against a peak value of 1.0, capped at the 99 dB sentinel."""
    rendered = np.asarray(rendered, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if rendered.shape != ground_truth.shape:
        raise ValueError(f"image shapes differ: {rendered.shape} vs {ground_truth.shape}")
    mse = float(np.mean((rendered - ground_truth) ** 2))
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP_DB)


def make_scene(
    kind: str,
    anchor_count: int,
    timesteps: int,
    seed: int,
    *,
    image_size: tuple[int, int] = (64, 64),
    feature_dim: int = 4,
) -> ToyScene:
    """Generate a deterministic synthetic scene of the requested motion profile.

    ``static`` has all-zero deformation tables; ``global-motion`` adds one
    shared rigid drift; ``mixed`` additionally moves a quarter of the anchors
    locally (gently) and dims another quarter so keep/drop decisions have
    genuine middle ground; ``motion-dense`` moves half the anchors with
    large local residuals on top of the drift. Scenes of different kinds
    built from the same seed share their base anchor population.
    """
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene kind {kind!r}; expected one of {SCENE_KINDS}")
    if not (4 <= anchor_count <= 1024):
        raise ValueError("anchor_count must lie in [4, 1024]")
    if not (1 <= timesteps <= 32):
        raise ValueError("timesteps must lie in [1, 32]")
    width, height = image_size
    if width < 8 or height < 8:
        raise ValueError("image_size must be at least 8x8")

    rng = rng_for(seed, "scene")
    count = anchor_count
    positions = rng.uniform(0.14, 0.86, size=(count, 2))
    features = rng.normal(0.0, 0.03, size=(count, feature_dim))
    scales = rng.uniform(0.036, 0.050, size=count)
    offsets = rng.uniform(-0.02, 0.02, size=(count, 2))
    opacities = rng.uniform(0.60, 0.95, size=count)
    colors = rng.uniform(0.40, 1.00, size=(count, 3))

    if timesteps == 1:
        times = np.array([0.0])
    else:
        times = np.linspace(0.0, 1.0, timesteps)
    ramp = times[:, None, None]  # motion grows linearly from rest at t=0

    displacements = np.zeros((timesteps, count, 2))
    feature_residuals = np.zeros((timesteps, count, feature_dim))
    d_position = np.zeros((timesteps, count, 2))
    d_scale = np.zeros((timesteps, count))
    d_opacity = np.zeros((timesteps, count))
    d_color = np.zeros((timesteps, count, 3))

    if kind != "static":
        theta = rng.uniform(0.0, 2.0 * math.pi)
        drift = 0.05 * np.array([math.cos(theta), math.sin(theta)])
        displacements[:] = ramp * drift[None, None, :]
        feature_residuals[:] = ramp * rng.normal(0.0, 0.015, size=(1, count, feature_dim))

    if kind in ("mixed", "motion-dense"):
        if kind == "motion-dense":
            mover_count = count // 2
            amp_lo, amp_hi = 0.22, 0.32
        else:
            mover_count = count // 4
            amp_lo, amp_hi = 0.05, 0.10
        movers = rng.choice(count, size=mover_count, replace=False)
        if kind == "motion-dense":
            # locally refined detail is chunky on purpose: a misplaced mover
            # must cost the base layer visibly more than its bit budget
            scales[movers] *= rng.uniform(1.15, 1.40, size=mover_count)
            opacities[movers] = np.clip(opacities[movers] * rng.uniform(1.05, 1.20, size=mover_count), 0.0, 1.0)
        if kind == "motion-dense":
            # outward trajectories (plus jitter) carry movers clear of the
            # cluttered scene core instead of onto other anchors' content
            outward = positions[movers] - 0.5
            base_angles = np.arctan2(outward[:, 1], outward[:, 0])
            angles = base_angles + rng.uniform(-0.5, 0.5, size=mover_count)
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=mover_count)
        amps = rng.uniform(amp_lo, amp_hi, size=mover_count)
        dirs = amps[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        # movers sit off their canonical spot at every timestep, so the base
        # layer genuinely cannot explain them
        onset = (0.5 + 0.5 * np.sqrt(times))[:, None]
        d_position[:, movers, :] = onset[:, :, None] * dirs[None, :, :]
        d_scale[:, movers] = onset * rng.uniform(-0.006, 0.010, size=mover_count)[None, :]
        d_opacity[:, movers] = onset * rng.uniform(-0.10, 0.10, size=mover_count)[None, :]
        d_color[:, movers, :] = onset[:, :, None] * rng.uniform(-0.08, 0.08, size=(1, mover_count, 3))

    if kind == "mixed":
        dims = rng.choice(count, size=count // 4, replace=False)
        opacities[dims] *= rng.uniform(0.05, 0.45, size=dims.size)
        scales[dims] *= rng.uniform(0.55, 0.90, size=dims.size)

    anchors = AnchorSet(
        positions=positions,
        features=features,
        scales=scales,
        offsets=offsets,
        opacities=opacities,
        colors=colors,
    )
    deformations = DeformationTable(
        timesteps=times,
        displacements=displacements,
        feature_residuals=feature_residuals,
        local=LocalResiduals(
            d_position=d_position, d_scale=d_scale, d_opacity=d_opacity, d_color=d_color
        ),
    )

    pixels = _pixel_grid(width, height)
    full_mask = np.ones(count)
    gt = np.stack([_Splat(anchors, deformations, 2, float(t), pixels).image(full_mask) for t in times])
    gt = gt.reshape(timesteps, height, width, 3)
    return ToyScene(anchors=anchors, deformations=deformations, image_size=(width, height), ground_truth=gt)


def _render_gradient(splat: _Splat, mask: np.ndarray, gt_flat: np.ndarray) -> tuple[float, np.ndarray]:
    """L1 render loss against ``gt_flat`` (P, 3) and its closed-form mask (sub)gradient.

    With ``G = sign(clip(raw) - gt) * 1[0 < raw < 1] / (P * 3)`` the loss
    gradient w.r.t. the splat weights is ``C @ G.T`` (V, P), and each weight
    ``alpha * E`` with ``E = exp(-d^2 / (2 s^2))`` moves with the mask as
    ``alpha' * E + alpha * E * d^2 / s^3 * s'``. Where a clamp binds, its
    derivative (``alpha'`` or ``s'``) is zero; ``sign(0) = 0`` at exact matches.
    """
    alpha, scale, d_alpha, d_scale = splat.attributes(mask)
    falloff = splat.falloff(scale)
    raw = (alpha[:, None] * falloff).T @ splat.colors  # (P, 3)
    diff = np.clip(raw, 0.0, 1.0) - gt_flat
    loss = float(np.mean(np.abs(diff)))
    g = np.sign(diff) * ((raw > 0.0) & (raw < 1.0)) / diff.size
    dw = (splat.colors @ g.T) * falloff  # dL/dw * E, (V, P)
    s3 = np.maximum(scale, _SCALE_FLOOR) ** 3
    grad = d_alpha * dw.sum(axis=1) + (alpha * d_scale / s3) * np.einsum("vp,vp->v", dw, splat.d2)
    return loss, grad


def train_masks(
    scene: ToyScene,
    weights: losses.LossWeights,
    rollout_config: rollout.RolloutConfig,
    steps: int,
    seed: int,
    *,
    learning_rate: float = 0.05,
    progressive_start: int = 1000,
    threshold: float = MASK_THRESHOLD,
    quant_steps: dict[str, float] | None = None,
) -> tuple[MaskBank, TrainReport]:
    """Train the per-level masks end to end and report convergence statistics.

    Each step samples a forward level from the current capacity-weighted
    distribution and a random timestep, differentiates the L1 render loss
    through the splat in closed form, and from ``progressive_start`` on adds
    the rate and consistency terms of ``losses.level_loss``, which also
    supplies the loss curve's rate and consistency columns. The entropy
    priors behind the rate are fitted on the level's active anchors and
    refitted whenever that level's active set changes; with fewer than two
    active the rate is 0. Masks follow projected gradient descent onto
    [0, 1]. Every ``sample_period`` steps the activation rate is re-measured
    and folded into the scheduler's moving average.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if scene.deformations is None:
        raise ValueError("training requires a scene with deformation tables")
    quant_steps = dict(DEFAULT_QUANT_STEPS if quant_steps is None else quant_steps)
    count = scene.anchors.count
    pixels = _pixel_grid(*scene.image_size)
    gt_flat = scene.ground_truth.reshape(scene.deformations.step_count, -1, 3)

    levels = [np.ones(count), np.ones(count), np.ones(count)]
    state = rollout.RolloutState(activation_ema=0.0, step=0)
    rollout_seed = derive_seed(seed, "rollout")
    timestep_seed = derive_seed(seed, "timestep")

    splat_cache: dict[tuple[int, int], _Splat] = {}

    def splat_at(level: int, k: int) -> _Splat:
        key = (level, k)
        if key not in splat_cache:
            t = float(scene.deformations.timesteps[k])
            splat_cache[key] = _Splat(scene.anchors, scene.deformations, level, t, pixels)
        return splat_cache[key]

    # per level, the last active set (as bytes) and the bits fitted on it:
    # anchors and quant steps are fixed for the run, so the bits depend on
    # the active set alone
    fitted: list[tuple[bytes, np.ndarray | None] | None] = [None, None, None]
    trajectory: list[tuple[int, float, float]] = []
    curve: list[dict] = []
    positions = scene.anchors.positions

    for step in range(steps):
        state.step = step
        if step % rollout_config.sample_period == 0:
            bank_now = MaskBank(levels=(levels[0], levels[1], levels[2]), threshold=threshold)
            sample = activation_rate(bank_now)
            state = rollout.update_ema(state, sample, rollout_config)
            trajectory.append((step, sample, state.activation_ema))

        pi = rollout.current_distribution(state, rollout_config)
        level = rollout.sample_level(pi, rollout_seed, step)
        k = int(counter_uniform(timestep_seed, step) * scene.deformations.step_count)

        mask = levels[level]
        render_loss, grad = _render_gradient(splat_at(level, k), mask, gt_flat[k])
        total, rate, consistency = render_loss, 0.0, 0.0
        if step >= progressive_start:
            active = mask > threshold
            active_key = active.tobytes()
            if fitted[level] is None or fitted[level][0] != active_key:
                bits = None
                if int(active.sum()) >= 2:
                    priors = entropy.family_priors(scene.anchors, active, quant_steps)
                    bits = entropy.per_anchor_bits(scene.anchors, priors)
                fitted[level] = (active_key, bits)
            bits = fitted[level][1]
            pairs = losses.sample_pairs(
                count, weights.pair_factor * count, derive_seed(seed, "pairs", step)
            )
            total, extra, rate, consistency = losses.level_loss(
                render_loss, mask, level, weights, positions, pairs, bits
            )
            grad = grad + extra
        if not np.isfinite(total) or not np.all(np.isfinite(grad)):
            raise TrainingDivergedError(step)

        levels[level] = np.clip(mask - learning_rate * grad, 0.0, 1.0)
        curve.append(
            {
                "step": step,
                "level": level,
                "timestep": k,
                "render": render_loss,
                "rate": rate,
                "consistency": consistency,
                "total": total,
            }
        )

    bank = MaskBank(levels=(levels[0], levels[1], levels[2]), threshold=threshold)
    state.step = steps
    final_pi = rollout.current_distribution(state, rollout_config)

    psnr_levels = []
    active_levels = []
    for level in range(3):
        values = [
            psnr(splat_at(level, k).image(bank.level(level)).reshape(gt.shape), gt)
            for k, gt in enumerate(scene.ground_truth)
        ]
        psnr_levels.append(float(np.mean(values)))
        active_levels.append(int(np.flatnonzero(bank.level(level) > threshold).size))

    report = TrainReport(
        steps=steps,
        psnr_per_level=tuple(psnr_levels),
        active_per_level=tuple(active_levels),
        final_activation_ema=state.activation_ema,
        final_distribution=tuple(float(p) for p in final_pi),
        activation_trajectory=tuple(trajectory),
        loss_curve=tuple(curve),
    )
    return bank, report
