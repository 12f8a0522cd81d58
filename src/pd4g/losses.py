"""Rate-distortion and mask-consistency objectives with closed-form mask gradients.

The per-level training loss combines the render distortion, a rate term
weighted by the level's sparsification strength, and a consistency
regularizer (binary entropy + spatial smoothness) that herds mask values
toward clean {0, 1} activation patterns shared by nearby anchors.
``level_loss`` is the one definition of that objective: training and the
gradient acceptance check both call it. The render gradient is supplied
externally; everything else is differentiated here in closed form, each
term computing its value and gradient in one pass. The smoothness length
scale ``TAU`` and pair count ``PAIR_FACTOR`` are fixed constants of the
method, not weights. The pair weights depend only on the anchor positions
and ``TAU``, which a run holds fixed, so they come from one (V, V) table,
``pair_weights``, built once per run and gathered from at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asset import check_layer, read_only
from .seeds import rng_for

MASK_EPS = 1e-7  # keeps exact {0,1} masks representable inside the logs
TAU = 0.1  # smoothness length scale, in scene units
PAIR_FACTOR = 4  # smoothness pairs sampled per anchor at each step


class InsufficientAnchorsError(ValueError):
    """Pair sampling needs at least two anchors."""


@dataclass(frozen=True)
class LossWeights:
    """Weights of the non-render loss terms.

    ``lambda_layer`` holds the per-level rate weights, strongest for the base
    layer so it is compressed aggressively while the top layer keeps nearly
    all anchors. ``lambda_temporal`` weighs the consistency term as a whole;
    ``binary_weight`` / ``smooth_weight`` scale its two parts and exist for
    ablations. The smoothness constants ``TAU`` and ``PAIR_FACTOR`` are not
    weights and live at module level.
    """

    lambda_layer: tuple[float, float, float] = (0.04, 0.01, 0.00025)
    lambda_temporal: float = 0.01
    binary_weight: float = 1.0
    smooth_weight: float = 1.0

    def __post_init__(self):
        if not all(0 <= w < math.inf for w in (*self.lambda_layer, self.lambda_temporal)):
            raise ValueError("loss weights must be non-negative and finite")
        if not (0 <= self.binary_weight < math.inf and 0 <= self.smooth_weight < math.inf):
            raise ValueError("term scales must be non-negative and finite")


def binary_entropy(mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Bernoulli entropy of the mask vector (bits) and its mask gradient.

    Maximal (1.0) at 0.5 and approximately zero at {0, 1}; minimizing it
    drives masks toward deterministic keep/drop decisions.
    """
    m = np.clip(np.asarray(mask, dtype=np.float64), MASK_EPS, 1.0 - MASK_EPS)
    value = float(-np.mean(m * np.log2(m) + (1.0 - m) * np.log2(1.0 - m)))
    return value, -np.log2(m / (1.0 - m)) / m.size


def pair_weights(positions: np.ndarray, tau: float) -> np.ndarray:
    """The read-only (V, V) table of smoothness pair weights ``exp(-|x_i - x_j| / tau)``.

    Anchor positions are fixed for a training run, so a run builds the table
    once and every step gathers its sampled pairs from it. Each entry has the
    bits of the same formula evaluated for that one pair.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    x = np.asarray(positions, dtype=np.float64)
    table = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    np.negative(table, out=table)
    table /= float(tau)
    return read_only(np.exp(table, out=table))


def smoothness(mask: np.ndarray, table: np.ndarray, pairs: np.ndarray) -> tuple[float, np.ndarray]:
    """Distance-weighted mean mask disagreement over sampled anchor pairs, and its mask subgradient.

    ``table`` is ``pair_weights(positions, tau)``: a pair's weight decays as
    exp(-distance / tau), so only spatially adjacent anchors are pushed toward
    sharing an activation state.
    """
    m = np.asarray(mask, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return 0.0, np.zeros_like(m)
    i, j = pairs[:, 0], pairs[:, 1]
    weights = table[i, j]
    diff = m[i] - m[j]
    contrib = weights * np.sign(diff) / pairs.shape[0]
    # adds every i entry, then every j entry, in pair order: the order of two np.add.at calls
    grad = np.bincount(np.concatenate((i, j)), np.concatenate((contrib, -contrib)), minlength=m.size)
    return float(np.mean(weights * np.abs(diff))), grad


def sample_pairs(anchor_count: int, pair_count: int, rng_seed: int) -> np.ndarray:
    """Sample ordered anchor pairs (i, j), i != j, uniformly and reproducibly.

    Returns an (pair_count, 2) int array. The second index is drawn by a
    shifted-modulus trick so it is exactly uniform over the other anchors.
    """
    if anchor_count < 2:
        raise InsufficientAnchorsError(f"need at least 2 anchors to form pairs, got {anchor_count}")
    if pair_count < 1:
        raise ValueError("pair_count must be at least 1")
    rng = rng_for(rng_seed)
    pairs = np.empty((pair_count, 2), dtype=np.int64)
    first, second = pairs.T  # views of the two columns
    first[:] = rng.integers(0, anchor_count, size=pair_count)
    second[:] = rng.integers(1, anchor_count, size=pair_count)  # the shift
    second += first
    second %= anchor_count
    return pairs


def consistency_loss(
    mask: np.ndarray,
    table: np.ndarray,
    pairs: np.ndarray,
    weights: LossWeights,
) -> tuple[float, np.ndarray]:
    """Combined binary-entropy + smoothness term and its mask gradient, with ``table`` from ``pair_weights``."""
    binary_value, binary_grad = binary_entropy(mask)
    smooth_value, smooth_grad = smoothness(mask, table, pairs)
    value = weights.binary_weight * binary_value + weights.smooth_weight * smooth_value
    grad = weights.binary_weight * binary_grad + weights.smooth_weight * smooth_grad
    return value, grad


class LevelLoss(NamedTuple):
    """One level's loss: the total, the mask gradient of its non-render terms, and the two terms."""

    total: float
    grad: np.ndarray
    rate: float
    consistency: float


def level_loss(
    render_loss: float,
    mask: np.ndarray,
    level: int,
    weights: LossWeights,
    table: np.ndarray,
    pairs: np.ndarray,
    bits: np.ndarray | None,
) -> LevelLoss:
    """One level's objective: render distortion + weighted rate + weighted consistency.

    ``mask`` is the sampled level's mask vector, ``table`` the run's
    ``pair_weights(positions, TAU)``, and ``bits`` the per-anchor
    bit cost under the current priors (``entropy.per_anchor_bits``), or
    None when the priors cannot be fitted; the rate ``mean(mask * bits)`` is
    then 0. Priors are held fixed (refitted whenever the level's active set
    changes, not differentiated through), so the rate is linear in the mask.
    The gradient covers the rate and consistency terms only; the caller
    differentiates the render loss through its renderer and adds that.
    """
    level = check_layer(level)
    mask = np.asarray(mask, dtype=np.float64)
    lam = weights.lambda_layer[level]
    rate = 0.0 if bits is None else float(np.mean(mask * bits))
    tmc_value, tmc_grad = consistency_loss(mask, table, pairs, weights)
    total = float(render_loss) + lam * rate + weights.lambda_temporal * tmc_value
    grad = weights.lambda_temporal * tmc_grad
    if bits is not None:
        grad = grad + lam * np.asarray(bits, dtype=np.float64) / mask.size
    return LevelLoss(total, grad, rate, tmc_value)
