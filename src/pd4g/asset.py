"""Core data model: anchors, per-level masks, tabulated deformations.

The renderable scene is a set of canonical anchors shared by all bitstream
layers. Level 0 is the anchors as-is, level 1 adds tabulated per-anchor
global displacements and feature residuals, level 2 additionally carries
per-anchor local residuals (position, scale, opacity, color); the splat
kernel ``toyscene._Splat`` applies them when rendering. All types are
immutable after construction and every operation returns new values, so the
model is safe for concurrent reads.

Construction stores each array read-only. An input that is a float64
``np.ndarray`` (not a subclass), C-contiguous, owning its memory and already
read-only is adopted as it is; any other input, a caller's writeable array
among them, is copied. ``MaskBank`` stores the clamped copy it makes of each
level. Marking a fresh array with ``read_only`` before handing it over is a
promise that nothing writes it afterwards, through it or through a view of
it: ``bitstream.decode_prefix`` and ``toyscene.make_scene`` hand over their
own arrays this way, so each exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


LAYER_COUNT = 3
MASK_THRESHOLD = 0.01  # published hard activation cut on trained masks


class MissingLayerError(ValueError):
    """A level above 0 was requested but no deformation data is available."""


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, marked read-only so that the asset types adopt it without a copy."""
    a.flags.writeable = False
    return a


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float64 array: adopted if it qualifies (see the module docstring), else copied."""
    if (
        type(a) is np.ndarray
        and a.dtype == np.float64
        and a.flags.c_contiguous
        and a.flags.owndata
        and not a.flags.writeable
    ):
        return a
    return read_only(np.array(a, dtype=np.float64, copy=True))


def check_layer(level: int) -> int:
    level = int(level)
    if level not in (0, 1, 2):
        raise ValueError(f"layer must be 0, 1 or 2, got {level}")
    return level


@dataclass(frozen=True)
class AnchorSet:
    """Canonical anchors: positions, feature vectors, scales, offsets, opacity, color.

    Arrays share their leading dimension (the anchor count). Scales are
    non-negative (mask gating legitimately drives them to zero), opacities
    and colors live in [0, 1]. Positions use scene units; 2-D and 3-D
    layouts are both accepted.
    """

    positions: np.ndarray
    features: np.ndarray
    scales: np.ndarray
    offsets: np.ndarray
    opacities: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions", _frozen(self.positions))
        object.__setattr__(self, "features", _frozen(self.features))
        object.__setattr__(self, "scales", _frozen(self.scales))
        object.__setattr__(self, "offsets", _frozen(self.offsets))
        object.__setattr__(self, "opacities", _frozen(self.opacities))
        object.__setattr__(self, "colors", _frozen(self.colors))

        if self.positions.ndim != 2:
            raise ValueError("positions must be a (count, dim) array")
        count, dim = self.positions.shape
        if count < 1:
            raise ValueError("anchor set must contain at least one anchor")
        if dim not in (2, 3):
            raise ValueError(f"spatial dim must be 2 or 3, got {dim}")
        if self.features.ndim != 2 or self.features.shape[0] != count:
            raise ValueError("features must be (count, feature_dim)")
        if self.scales.shape != (count,):
            raise ValueError("scales must be a flat (count,) array")
        if self.offsets.shape != (count, dim):
            raise ValueError("offsets must match positions' shape")
        if self.opacities.shape != (count,):
            raise ValueError("opacities must be a flat (count,) array")
        if self.colors.shape != (count, 3):
            raise ValueError("colors must be (count, 3)")
        if not np.all(self.scales >= 0):
            raise ValueError("scales must be non-negative")
        if not np.all((self.opacities >= 0) & (self.opacities <= 1)):
            raise ValueError("opacities must lie in [0, 1]")
        if not np.all((self.colors >= 0) & (self.colors <= 1)):
            raise ValueError("colors must lie in [0, 1]")

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class MaskBank:
    """Per-level keep/drop masks in [0, 1], one value per anchor per level.

    Stored values are clamped into [0, 1] on construction. ``threshold`` is
    ``MASK_THRESHOLD``, the hard activation cut of every bank (strictly greater-than).
    """

    levels: tuple[np.ndarray, np.ndarray, np.ndarray]
    threshold: ClassVar[float] = MASK_THRESHOLD

    def __post_init__(self):
        if len(self.levels) != LAYER_COUNT:
            raise ValueError(f"mask bank requires {LAYER_COUNT} levels")
        levels = tuple(np.array(m, dtype=np.float64) for m in self.levels)  # own copies, clamped in place
        if any(np.isnan(m).any() for m in levels):
            raise ValueError("mask values must not be NaN")
        object.__setattr__(self, "levels", tuple(read_only(np.clip(m, 0.0, 1.0, out=m)) for m in levels))
        counts = {m.shape for m in self.levels}
        if len(counts) != 1 or self.levels[0].ndim != 1:
            raise ValueError("all mask levels must be flat arrays of equal length")

    @property
    def count(self) -> int:
        return self.levels[0].shape[0]

    def level(self, level: int) -> np.ndarray:
        return self.levels[check_layer(level)]

    @staticmethod
    def all_ones(count: int) -> "MaskBank":
        ones = np.ones(count)
        return MaskBank(levels=(ones, ones.copy(), ones.copy()))


@dataclass(frozen=True)
class LocalResiduals:
    """Per-anchor, per-timestep refinement residuals for the top layer."""

    d_position: np.ndarray  # (T, count, dim)
    d_scale: np.ndarray  # (T, count)
    d_opacity: np.ndarray  # (T, count)
    d_color: np.ndarray  # (T, count, 3)

    def __post_init__(self):
        object.__setattr__(self, "d_position", _frozen(self.d_position))
        object.__setattr__(self, "d_scale", _frozen(self.d_scale))
        object.__setattr__(self, "d_opacity", _frozen(self.d_opacity))
        object.__setattr__(self, "d_color", _frozen(self.d_color))


@dataclass(frozen=True)
class DeformationTable:
    """Tabulated displacement fields over discrete timesteps in [0, 1].

    ``displacements`` and ``feature_residuals`` form the global field
    (applied at level 1); ``local`` holds the level-2 residual records.
    Queries use nearest-timestep lookup, so the table is exact at its own
    timesteps and piecewise constant in between.
    """

    timesteps: np.ndarray  # (T,) strictly increasing within [0, 1]
    displacements: np.ndarray  # (T, count, dim)
    feature_residuals: np.ndarray  # (T, count, feature_dim)
    local: LocalResiduals

    def __post_init__(self):
        object.__setattr__(self, "timesteps", _frozen(self.timesteps))
        object.__setattr__(self, "displacements", _frozen(self.displacements))
        object.__setattr__(self, "feature_residuals", _frozen(self.feature_residuals))

        t = self.timesteps
        if t.ndim != 1 or t.shape[0] < 1:
            raise ValueError("at least one timestep is required")
        if not np.all((t >= 0) & (t <= 1)):
            raise ValueError("timesteps must lie in [0, 1]")
        if not np.all(np.diff(t) > 0):
            raise ValueError("timesteps must be strictly increasing")
        steps = t.shape[0]
        if self.displacements.ndim != 3 or self.displacements.shape[0] != steps:
            raise ValueError("displacements must be (timesteps, count, dim)")
        count, dim = self.displacements.shape[1:]
        if self.feature_residuals.ndim != 3 or self.feature_residuals.shape[:2] != (steps, count):
            raise ValueError("feature_residuals must be (timesteps, count, feature_dim)")
        loc = self.local
        if loc.d_position.shape != (steps, count, dim):
            raise ValueError("local d_position must be (timesteps, count, dim)")
        if loc.d_scale.shape != (steps, count):
            raise ValueError("local d_scale must be (timesteps, count)")
        if loc.d_opacity.shape != (steps, count):
            raise ValueError("local d_opacity must be (timesteps, count)")
        if loc.d_color.shape != (steps, count, 3):
            raise ValueError("local d_color must be (timesteps, count, 3)")

    @property
    def count(self) -> int:
        return self.displacements.shape[1]

    @property
    def step_count(self) -> int:
        return self.timesteps.shape[0]

    def nearest_index(self, t: float) -> int:
        """Index of the stored timestep closest to ``t`` (ties go to the earlier one)."""
        return int(np.argmin(np.abs(self.timesteps - float(t))))


def active_set(mask: np.ndarray) -> np.ndarray:
    """Indices of anchors whose mask strictly exceeds ``MASK_THRESHOLD``, ascending."""
    return np.flatnonzero(np.asarray(mask, dtype=np.float64) > MASK_THRESHOLD)


def activation_rate(bank: MaskBank) -> float:
    """Mean per-anchor excess of the top-level mask over the base-level mask.

    Clamped to [0, 1]: early in training the base mask can exceed the top
    mask for some anchors, and downstream scheduling needs a valid
    interpolation coefficient at all times.
    """
    raw = float(np.mean(bank.level(2) - bank.level(0)))
    return min(1.0, max(0.0, raw))

