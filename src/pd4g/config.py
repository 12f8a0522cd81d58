"""Flat, typed key=value run configuration.

One line per key (``key = value``, '#' comments), every key validated against
a registry with explicit units in the names. A ``RunConfig`` is an immutable
value, validated when it is built: by construction, by ``dataclasses.replace``
and by ``parse_config`` alike, so an invalid one never exists. A key exists
only for what a run varies: the method's fixed loss and rollout constants, the
activation threshold, the feature width and the codec's quant steps and preset
are not keys, and live with their owners (``LossWeights``, ``losses``,
``RolloutConfig``, ``asset``, ``toyscene``, ``bitstream``) alone. Published
defaults are read from those owners, never restated; the desk-scale schedule
knobs (steps, learning rate) default to values that converge on toy scenes in
under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import ClassVar

from . import toyscene
from .asset import MASK_THRESHOLD, MaskBank
from .bitstream import DEFAULT_PRESET, DEFAULT_QUANT_STEPS
from .losses import LossWeights
from .rollout import RolloutConfig

_LOSS = LossWeights()
_ROLLOUT = RolloutConfig()


class ConfigError(ValueError):
    """A config line or value is invalid; the message names the key."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible pipeline needs, and the one mapping onto its calls.

    Frozen and hashable; every instance is validated when it is built, and an
    invalid one raises ``ConfigError`` naming the key.
    """

    seed: int = 0
    scene_kind: str = "mixed"
    anchor_count: int = 64
    timestep_count: int = 4
    image_width: int = 32
    image_height: int = 32

    lambda_layer0: float = _LOSS.lambda_layer[0]
    binary_weight: float = _LOSS.binary_weight

    sample_period: int = _ROLLOUT.sample_period
    warmup_steps: int = _ROLLOUT.warmup_steps

    train_steps: int = 4000
    progressive_start_step: int = 400
    learning_rate: float = 0.4

    out_dir: str = "out"

    # fixed values perfbench/workloads.py reads off a config, as it does quant_steps(); constants, not keys
    feature_dim: ClassVar[int] = toyscene.FEATURE_DIM
    mask_threshold: ClassVar[float] = MASK_THRESHOLD
    compressor_preset: ClassVar[int] = DEFAULT_PRESET

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTED_TYPES[kind]):
                raise ConfigError(f"{name} must be of type {kind}, got {type(value).__name__} {value!r}")
        if not (-(2**63) <= self.seed < 2**63):
            raise ConfigError("seed must lie in [-2**63, 2**63)")
        if self.scene_kind not in toyscene.SCENE_KINDS:
            raise ConfigError(f"scene_kind must be one of {toyscene.SCENE_KINDS}, got {self.scene_kind!r}")
        if not (4 <= self.anchor_count <= 1024):
            raise ConfigError("anchor_count must lie in [4, 1024]")
        if not (1 <= self.timestep_count <= 32):
            raise ConfigError("timestep_count must lie in [1, 32]")
        if self.image_width < 8 or self.image_height < 8:
            raise ConfigError("image_width/image_height must be at least 8")
        if self.anchor_count * self.image_width * self.image_height > toyscene.MAX_ANCHOR_PIXELS:
            raise ConfigError(
                f"anchor_count * image_width * image_height must be at most {toyscene.MAX_ANCHOR_PIXELS}"
            )
        if self.train_steps < 0:
            raise ConfigError("train_steps must be non-negative")
        if self.progressive_start_step < 0:
            raise ConfigError("progressive_start_step must be non-negative")
        if not (0 < self.learning_rate < math.inf):
            raise ConfigError("learning_rate must be positive and finite")
        for name in ("lambda_layer0", "binary_weight"):
            if not (0 <= getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be non-negative and finite")
        # LossWeights and RolloutConfig check the values they own, sample_period and warmup_steps too
        try:
            self.loss_weights()
            self.rollout_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def loss_weights(self) -> LossWeights:
        return replace(
            _LOSS, lambda_layer=(self.lambda_layer0, *_LOSS.lambda_layer[1:]), binary_weight=self.binary_weight
        )

    def rollout_config(self) -> RolloutConfig:
        return replace(_ROLLOUT, sample_period=self.sample_period, warmup_steps=self.warmup_steps)

    def quant_steps(self) -> dict[str, float]:
        return dict(DEFAULT_QUANT_STEPS)

    def make_scene(self) -> toyscene.ToyScene:
        return toyscene.make_scene(
            self.scene_kind,
            self.anchor_count,
            self.timestep_count,
            self.seed,
            image_size=(self.image_width, self.image_height),
        )

    def train_masks(self, scene: toyscene.ToyScene, seed: int) -> tuple[MaskBank, toyscene.TrainReport]:
        return toyscene.train_masks(
            scene,
            self.loss_weights(),
            self.rollout_config(),
            steps=self.train_steps,
            seed=seed,
            learning_rate=self.learning_rate,
            progressive_start=self.progressive_start_step,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {"int": int, "float": float, "str": str}
# the Python types a field of each declared type takes; bool, an int subclass, is refused apart
_ACCEPTED_TYPES = {"int": int, "float": (int, float), "str": str}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a validated RunConfig.

    Unknown keys, duplicate keys and unparseable values are rejected with the
    offending key named in the error.
    """
    values: dict[str, int | float | str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {number}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r} (line {number})")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r} (line {number})")
        parser = _PARSERS[_FIELD_TYPES[key]]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())
