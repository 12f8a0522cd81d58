"""Capacity-weighted level sampling driven by the learned mask activation rate.

Deeper layers carry several times the parameters of the base layer, so
uniform level sampling under-trains them. The scheduler interpolates between
a uniform distribution and a fixed deeper-heavy one, with the interpolation
coefficient supplied online by the smoothed mask activation rate. During a
warm-up window the output stays uniform while the smoothed rate accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeds import counter_uniform

_SUM_TOL = 1e-9
UNIFORM_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)  # the schedule's fixed starting point
AGGRESSIVE_WEIGHTS = (0.15, 0.30, 0.55)  # its fixed deeper-heavy end point
EMA_ALPHA = 0.05  # the moving average's fixed rate


@dataclass(frozen=True)
class RolloutConfig:
    """The scheduler's cadence; its end point and EMA rate, kept as keywords, accept only the constants."""

    aggressive_weights: tuple[float, float, float] = AGGRESSIVE_WEIGHTS
    ema_alpha: float = EMA_ALPHA
    sample_period: int = 200
    warmup_steps: int = 2000

    def __post_init__(self):
        if self.aggressive_weights != AGGRESSIVE_WEIGHTS or self.ema_alpha != EMA_ALPHA:
            raise ValueError(f"end point and EMA rate are fixed at {AGGRESSIVE_WEIGHTS} and {EMA_ALPHA}, got {self}")
        if self.sample_period < 1:
            raise ValueError("sample_period must be at least 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be non-negative")


def level_distribution(activation: float) -> np.ndarray:
    """Convex combination of the uniform and deeper-heavy endpoint distributions.

    ``activation`` = 0 reproduces the uniform endpoint exactly and 1 the
    aggressive endpoint exactly; the output is a valid distribution for
    every coefficient in between.
    """
    activation = float(activation)
    if not (0.0 <= activation <= 1.0):
        raise ValueError(f"activation rate must lie in [0, 1], got {activation}")
    uniform = np.asarray(UNIFORM_WEIGHTS, dtype=np.float64)
    aggressive = np.asarray(AGGRESSIVE_WEIGHTS, dtype=np.float64)
    return (1.0 - activation) * uniform + activation * aggressive


def update_ema(activation_ema: float, activation_sample: float) -> float:
    """Fold one activation-rate sample into the exponential moving average, clamped to [0, 1]."""
    activation_sample = float(activation_sample)
    if not (0.0 <= activation_sample <= 1.0):
        raise ValueError("activation sample must lie in [0, 1]")
    ema = (1.0 - EMA_ALPHA) * activation_ema + EMA_ALPHA * activation_sample
    return min(1.0, max(0.0, ema))


def current_distribution(activation_ema: float, step: int, config: RolloutConfig) -> np.ndarray:
    """Level distribution in effect at training step ``step``.

    Uniform while still inside the warm-up window, adaptive afterwards. The
    moving average keeps accumulating during warm-up so the adaptive phase
    starts from an informed value.
    """
    if step < config.warmup_steps:
        return np.asarray(UNIFORM_WEIGHTS, dtype=np.float64)
    return level_distribution(activation_ema)


def sample_level(pi: np.ndarray, seed: int, counter: int) -> int:
    """Draw a forward level from a 3-way distribution, reproducibly.

    Inverse-CDF over a counter-addressed uniform: the same (seed, counter)
    pair always yields the same level, independent of draw order.
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (3,) or np.any(pi < 0) or abs(float(pi.sum()) - 1.0) > _SUM_TOL:
        raise ValueError(f"{pi!r} is not a valid 3-way distribution")
    u = counter_uniform(seed, counter) * float(pi.sum())
    edge = 0.0
    for level in range(2):
        edge += float(pi[level])
        if u < edge:
            return level
    return 2
