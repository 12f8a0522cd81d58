"""The three benchmark workloads and the seeded inputs each one feeds to pd4g.

Every workload runs the same closed loop, one client at a time: a *round*
produces one asset (trained or synthetic masks), encodes it, and then serves
it to a fixed number of client *sessions*. A session parses a bandwidth
trace, simulates the round's catalogue over it, emits the ABR manifest and a
latency table, and decodes the container prefix at every layer boundary plus
one seeded mid-chunk cut. The workloads differ only in their inputs, which
decide the layer that dominates:

- ``train-motion-dense``: the author's pipeline on ``configs/motion_dense.cfg``
  (64 anchors, 4 timesteps, 32x32, the acceptance-test scale). Masks are
  trained, so ``toyscene`` dominates; each session replays both bundled traces.
- ``codec-stress``: assets at the config limits (1024 anchors x 32 timesteps)
  with synthetic nested masks whose base-layer share varies across assets.
  Training is bypassed; encode and prefix decodes dominate.
- ``trace-replay``: an ABR planner's loop over long seeded traces (1000
  segments, 2-50 Mbps, zero-throughput collapses) against a catalogue of the
  reference model sizes plus codec-stress containers built at set-up.
  Training is bypassed and ``stream`` dominates.

Only the workload seed varies the inputs; the same seed gives the same
scenes, masks, traces and cuts. Set-up time counts only the calls into pd4g,
not the benchmark's own generation of traces and masks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pd4g import bitstream, config, losses, rollout, toyscene
from pd4g.asset import MaskBank

ROOT = Path(__file__).resolve().parent.parent

# Training steps per round on train-motion-dense. The config's 4000 steps take
# about half a minute on a 2-core x86 machine; 400 steps, with the warm-up and
# progressive phases scaled by the same factor, keep the config's step mix
# (10% warm-up) while six rounds fit into one run.
TRAIN_STEPS = 400
LATENCY_BANDWIDTHS_MBPS = (2.0, 10.0, 50.0)
STRESS_BASE_SHARES = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)


@dataclass(frozen=True)
class Workload:
    name: str
    sessions_per_round: int
    scene_pool: int
    traces_per_session: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-motion-dense", sessions_per_round=80, scene_pool=6, traces_per_session=2),
        Workload("codec-stress", sessions_per_round=10, scene_pool=6),
        Workload("trace-replay", sessions_per_round=4, scene_pool=6),
    )
}


@dataclass
class Training:
    """Arguments of ``train_masks`` derived from the author's config."""

    weights: losses.LossWeights
    rollout_config: rollout.RolloutConfig
    steps: int
    learning_rate: float
    progressive_start: int
    threshold: float
    quant_steps: dict[str, float]


@dataclass
class Inputs:
    """Everything one run hands to pd4g, generated from (workload, seed)."""

    workload: Workload
    seed: int
    scenes: list[toyscene.ToyScene]
    traces: list[str]
    encode_config: bitstream.EncodeConfig
    training: Training | None = None
    # fixed catalogue entries simulated next to each round's asset:
    # (label, cumulative byte sizes, size in MB or LayerManifest for latency_table)
    catalogue: list[tuple[str, list[int], object]] = field(default_factory=list)
    setup_s: float = 0.0  # wall time of the pd4g calls that built these inputs

    def rng(self, *labels: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *labels])

    def scene(self, round_index: int) -> toyscene.ToyScene:
        return self.scenes[round_index % len(self.scenes)]

    def synthetic_masks(self, round_index: int) -> MaskBank:
        """The round's nested masks, redrawn per round; the base share cycles."""
        share = STRESS_BASE_SHARES[round_index % len(STRESS_BASE_SHARES)]
        return nested_bank(self.scene(round_index).anchors.count, share, self.rng(1, round_index))

    def train_seed(self, round_index: int) -> int:
        return int(self.rng(2, round_index).integers(1 << 31))

    def session_traces(self, round_index: int, session: int) -> list[str]:
        per = self.workload.traces_per_session
        first = (round_index * self.workload.sessions_per_round + session) * per
        return [self.traces[(first + k) % len(self.traces)] for k in range(per)]

    def session_cut(self, round_index: int, session: int, cumulative: tuple[int, ...]) -> tuple[int, int]:
        """A seeded mid-chunk truncation: (prefix bytes, expected max_level)."""
        rng = self.rng(3, round_index, session)
        chunk = int(rng.integers(1, len(cumulative)))
        lo, hi = cumulative[chunk - 1], cumulative[chunk]
        return int(rng.integers(lo + 1, hi)), chunk - 1


def nested_bank(count: int, base_share: float, rng: np.random.Generator) -> MaskBank:
    """Synthetic masks with L0 within L1 within L2 = all anchors.

    Anchors active in L1 or L2 but pruned from L0 travel as supplemental
    records, so the base share sets how much of the asset is supplemental.
    """
    order = rng.permutation(count)
    shares = (base_share, (1.0 + base_share) / 2.0, 1.0)
    levels = []
    for share in shares:
        mask = np.zeros(count)
        members = order[: max(1, int(round(share * count)))]
        mask[members] = rng.uniform(0.6, 1.0, members.size)
        levels.append(mask)
    return MaskBank(levels=tuple(levels))


def trace_text(rng: np.random.Generator, segments: int, duration_range: tuple[float, float], collapse_share: float) -> str:
    """A ``duration_s,mbps`` trace with 2-50 Mbps segments and zero-rate collapses."""
    lines = ["# seeded benchmark trace: duration_s,mbps"]
    for _ in range(segments):
        if rng.random() < collapse_share:
            lines.append(f"{rng.uniform(0.5, 2.0):.3f},0")
        else:
            lines.append(f"{rng.uniform(*duration_range):.3f},{rng.uniform(2.0, 50.0):.1f}")
    return "\n".join(lines) + "\n"


def _scene_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


class SetupClock:
    """Calls into pd4g during set-up, summing their wall time."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds += time.perf_counter() - start
        return result


def _author_inputs(workload: Workload, seed: int, call: SetupClock) -> Inputs:
    cfg = call(config.load_config, ROOT / "configs" / "motion_dense.cfg")
    scale = TRAIN_STEPS / cfg.train_steps
    rollout_cfg = cfg.rollout_config()
    rollout_cfg = rollout.RolloutConfig(
        aggressive_weights=rollout_cfg.aggressive_weights,
        ema_alpha=rollout_cfg.ema_alpha,
        sample_period=rollout_cfg.sample_period,
        warmup_steps=round(cfg.warmup_steps * scale),
    )
    training = Training(
        weights=cfg.loss_weights(),
        rollout_config=rollout_cfg,
        steps=TRAIN_STEPS,
        learning_rate=cfg.learning_rate,
        progressive_start=round(cfg.progressive_start_step * scale),
        threshold=cfg.mask_threshold,
        quant_steps=cfg.quant_steps(),
    )
    rng = np.random.default_rng([seed, 0])
    scenes = [
        call(
            toyscene.make_scene,
            cfg.scene_kind,
            cfg.anchor_count,
            cfg.timestep_count,
            _scene_seed(rng),
            image_size=(cfg.image_width, cfg.image_height),
            feature_dim=cfg.feature_dim,
        )
        for _ in range(workload.scene_pool)
    ]
    traces = [(ROOT / "traces" / name).read_text() for name in ("constant_2mbps.csv", "collapse_and_recover.csv")]
    return Inputs(
        workload=workload,
        seed=seed,
        scenes=scenes,
        traces=traces,
        encode_config=bitstream.EncodeConfig(quant_steps=training.quant_steps, preset=cfg.compressor_preset),
        training=training,
    )


def _synthetic_scenes(
    call: SetupClock, rng: np.random.Generator, count: int, anchors: int, timesteps: int
) -> list[toyscene.ToyScene]:
    # 8x8 is the smallest image make_scene accepts; ground truth only feeds PSNR
    scene_seeds = [_scene_seed(rng) for _ in range(count)]
    return [call(toyscene.make_scene, "motion-dense", anchors, timesteps, s, image_size=(8, 8)) for s in scene_seeds]


def _stress_inputs(workload: Workload, seed: int, call: SetupClock) -> Inputs:
    rng = np.random.default_rng([seed, 0])
    scenes = _synthetic_scenes(call, rng, workload.scene_pool, 1024, 32)
    traces = [trace_text(rng, 16, (0.1, 1.0), 0.05) for _ in range(16)]
    return Inputs(workload, seed, scenes, traces, bitstream.EncodeConfig.default())


def _replay_inputs(workload: Workload, seed: int, call: SetupClock) -> Inputs:
    rng = np.random.default_rng([seed, 0])
    inputs = Inputs(
        workload,
        seed,
        scenes=_synthetic_scenes(call, rng, workload.scene_pool, 256, 8),
        traces=[trace_text(rng, 1000, (0.05, 0.25), 0.05) for _ in range(12)],
        encode_config=bitstream.EncodeConfig.default(),
    )
    for line in (ROOT / "data" / "reference_model_sizes.csv").read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            label, size_mb = body.split(",")
            inputs.catalogue.append((label, [round(float(size_mb) * 1e6)], float(size_mb)))
    for k, scene in enumerate(_synthetic_scenes(call, rng, 3, 1024, 32)):
        bank = nested_bank(1024, STRESS_BASE_SHARES[k], np.random.default_rng([seed, 4, k]))
        blob = call(bitstream.encode, scene.anchors, bank, scene.deformations, inputs.encode_config)
        man = call(bitstream.manifest, blob)
        inputs.catalogue.append((f"codec-stress-{k}", list(man.cumulative_sizes), man))
    return inputs


_BUILDERS = {
    "train-motion-dense": _author_inputs,
    "codec-stress": _stress_inputs,
    "trace-replay": _replay_inputs,
}


def build_inputs(name: str, seed: int) -> Inputs:
    """Set-up: generate the workload's inputs from the seed, timing the pd4g calls."""
    call = SetupClock()
    inputs = _BUILDERS[name](WORKLOADS[name], seed, call)
    inputs.setup_s = call.seconds
    return inputs
