"""Flat, typed key=value run configuration.

One line per key (``key = value``, '#' comments), every key validated against
a registry with explicit units in the names. Published constants are read
from their owners (``LossWeights``, ``RolloutConfig``, ``asset``,
``bitstream``), never restated; the desk-scale schedule knobs (steps, learning
rate) default to values that converge on toy scenes in under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import toyscene
from .asset import MASK_THRESHOLD, MaskBank
from .bitstream import DEFAULT_PRESET, DEFAULT_QUANT_STEPS, QUANT_FAMILIES, usable_quant_step
from .losses import LossWeights
from .rollout import RolloutConfig

_LOSS = LossWeights()
_ROLLOUT = RolloutConfig()


class ConfigError(ValueError):
    """A config line or value is invalid; the message names the key."""


@dataclass
class RunConfig:
    """Everything a reproducible pipeline needs, and the one mapping onto its calls."""

    seed: int = 0
    scene_kind: str = "mixed"
    anchor_count: int = 64
    timestep_count: int = 4
    image_width: int = 32
    image_height: int = 32
    feature_dim: int = 4

    lambda_layer0: float = _LOSS.lambda_layer[0]
    lambda_layer1: float = _LOSS.lambda_layer[1]
    lambda_layer2: float = _LOSS.lambda_layer[2]
    lambda_temporal: float = _LOSS.lambda_temporal
    binary_weight: float = _LOSS.binary_weight
    smooth_weight: float = _LOSS.smooth_weight
    tau_scene_units: float = _LOSS.tau
    pair_factor: int = _LOSS.pair_factor
    mask_threshold: float = MASK_THRESHOLD

    pi_aggressive0: float = _ROLLOUT.aggressive_weights[0]
    pi_aggressive1: float = _ROLLOUT.aggressive_weights[1]
    pi_aggressive2: float = _ROLLOUT.aggressive_weights[2]
    ema_alpha: float = _ROLLOUT.ema_alpha
    sample_period: int = _ROLLOUT.sample_period
    warmup_steps: int = _ROLLOUT.warmup_steps

    train_steps: int = 4000
    progressive_start_step: int = 400
    learning_rate: float = 0.4

    quant_step_position: float = DEFAULT_QUANT_STEPS["position"]
    quant_step_feature: float = DEFAULT_QUANT_STEPS["feature"]
    quant_step_scale: float = DEFAULT_QUANT_STEPS["scale"]
    quant_step_offset: float = DEFAULT_QUANT_STEPS["offset"]
    quant_step_mask: float = DEFAULT_QUANT_STEPS["mask"]
    quant_step_deform: float = DEFAULT_QUANT_STEPS["deform"]
    compressor_preset: int = DEFAULT_PRESET

    out_dir: str = "out"

    def validate(self) -> None:
        if self.scene_kind not in toyscene.SCENE_KINDS:
            raise ConfigError(f"scene_kind must be one of {toyscene.SCENE_KINDS}, got {self.scene_kind!r}")
        if not (4 <= self.anchor_count <= 1024):
            raise ConfigError("anchor_count must lie in [4, 1024]")
        if not (1 <= self.timestep_count <= 32):
            raise ConfigError("timestep_count must lie in [1, 32]")
        if self.image_width < 8 or self.image_height < 8:
            raise ConfigError("image_width/image_height must be at least 8")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be at least 1")
        if not (0.0 < self.mask_threshold < 1.0):
            raise ConfigError("mask_threshold must lie strictly inside (0, 1)")
        if self.train_steps < 0:
            raise ConfigError("train_steps must be non-negative")
        if self.progressive_start_step < 0:
            raise ConfigError("progressive_start_step must be non-negative")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        for name in (
            "lambda_layer0",
            "lambda_layer1",
            "lambda_layer2",
            "lambda_temporal",
            "binary_weight",
            "smooth_weight",
        ):
            if not (0 <= getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be non-negative and finite")
        if not (0 < self.tau_scene_units < math.inf):
            raise ConfigError("tau_scene_units must be positive and finite")
        for family, step in self.quant_steps().items():
            if not usable_quant_step(step):
                raise ConfigError(f"quant_step_{family} must be positive and finite, also times 2**31")
        if not (0 <= self.compressor_preset <= 9):
            raise ConfigError("compressor_preset must lie in 0..9")
        # delegate cross-field checks
        try:
            self.loss_weights()
            self.rollout_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            lambda_layer=(self.lambda_layer0, self.lambda_layer1, self.lambda_layer2),
            lambda_temporal=self.lambda_temporal,
            tau=self.tau_scene_units,
            pair_factor=self.pair_factor,
            binary_weight=self.binary_weight,
            smooth_weight=self.smooth_weight,
        )

    def rollout_config(self) -> RolloutConfig:
        return RolloutConfig(
            aggressive_weights=(self.pi_aggressive0, self.pi_aggressive1, self.pi_aggressive2),
            ema_alpha=self.ema_alpha,
            sample_period=self.sample_period,
            warmup_steps=self.warmup_steps,
        )

    def quant_steps(self) -> dict[str, float]:
        return {family: getattr(self, f"quant_step_{family}") for family in QUANT_FAMILIES}

    def make_scene(self) -> toyscene.ToyScene:
        return toyscene.make_scene(
            self.scene_kind,
            self.anchor_count,
            self.timestep_count,
            self.seed,
            image_size=(self.image_width, self.image_height),
            feature_dim=self.feature_dim,
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
            threshold=self.mask_threshold,
            quant_steps=self.quant_steps(),
        )

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {"int": int, "float": float, "str": str}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a validated RunConfig.

    Unknown keys, duplicate keys and unparseable values are rejected with the
    offending key named in the error.
    """
    cfg = RunConfig()
    seen: set[str] = set()
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
        if key in seen:
            raise ConfigError(f"duplicate config key {key!r} (line {number})")
        seen.add(key)
        parser = _PARSERS[_FIELD_TYPES[key]]
        try:
            setattr(cfg, key, parser(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())
