"""Rate-distortion and mask-consistency objectives with closed-form mask gradients.

The per-level training loss combines the render distortion, a rate term
weighted by the level's sparsification strength, and a consistency
regularizer (binary entropy + spatial smoothness) that herds mask values
toward clean {0, 1} activation patterns shared by nearby anchors. The render
gradient is supplied externally; everything else is differentiated here in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asset import check_layer
from .seeds import rng_for

MASK_EPS = 1e-7  # keeps exact {0,1} masks representable inside the logs


class InsufficientAnchorsError(ValueError):
    """Pair sampling needs at least two anchors."""


@dataclass(frozen=True)
class LossWeights:
    """Weights of the non-render loss terms.

    ``lambda_layer`` holds the per-level rate weights, strongest for the base
    layer so it is compressed aggressively while the top layer keeps nearly
    all anchors. ``binary_weight`` / ``smooth_weight`` scale the two
    consistency terms inside the temporal weight and exist for ablations.
    """

    lambda_layer: tuple[float, float, float] = (0.04, 0.01, 0.00025)
    lambda_temporal: float = 0.01
    tau: float = 0.1
    pair_factor: int = 4
    binary_weight: float = 1.0
    smooth_weight: float = 1.0

    def __post_init__(self):
        if any(w < 0 for w in self.lambda_layer) or self.lambda_temporal < 0:
            raise ValueError("loss weights must be non-negative")
        if not self.tau > 0:
            raise ValueError("smoothness length scale tau must be positive")
        if self.pair_factor < 1:
            raise ValueError("pair_factor must be at least 1")
        if self.binary_weight < 0 or self.smooth_weight < 0:
            raise ValueError("term scales must be non-negative")


def binary_entropy_loss(mask: np.ndarray) -> float:
    """Mean Bernoulli entropy of the mask vector (bits).

    Maximal (1.0) at 0.5 and approximately zero at {0, 1}; minimizing it
    drives masks toward deterministic keep/drop decisions.
    """
    m = np.clip(np.asarray(mask, dtype=np.float64), MASK_EPS, 1.0 - MASK_EPS)
    return float(-np.mean(m * np.log2(m) + (1.0 - m) * np.log2(1.0 - m)))


def binary_entropy_gradient(mask: np.ndarray) -> np.ndarray:
    """Gradient of ``binary_entropy_loss`` with respect to the mask vector."""
    m = np.clip(np.asarray(mask, dtype=np.float64), MASK_EPS, 1.0 - MASK_EPS)
    return -np.log2(m / (1.0 - m)) / m.size


def smoothness_loss(
    mask: np.ndarray,
    positions: np.ndarray,
    pairs: np.ndarray,
    tau: float,
) -> float:
    """Distance-weighted mean mask disagreement over sampled anchor pairs.

    Pair weight decays as exp(-distance / tau), so only spatially adjacent
    anchors are pushed toward sharing an activation state.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return 0.0
    m = np.asarray(mask, dtype=np.float64)
    x = np.asarray(positions, dtype=np.float64)
    i, j = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(x[i] - x[j], axis=1)
    weights = np.exp(-dist / float(tau))
    return float(np.mean(weights * np.abs(m[i] - m[j])))


def smoothness_gradient(
    mask: np.ndarray,
    positions: np.ndarray,
    pairs: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Subgradient of ``smoothness_loss`` with respect to the mask vector."""
    m = np.asarray(mask, dtype=np.float64)
    grad = np.zeros_like(m)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return grad
    x = np.asarray(positions, dtype=np.float64)
    i, j = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(x[i] - x[j], axis=1)
    contrib = np.exp(-dist / float(tau)) * np.sign(m[i] - m[j]) / pairs.shape[0]
    np.add.at(grad, i, contrib)
    np.add.at(grad, j, -contrib)
    return grad


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
    first = rng.integers(0, anchor_count, size=pair_count)
    shift = rng.integers(1, anchor_count, size=pair_count)
    second = (first + shift) % anchor_count
    return np.stack([first, second], axis=1)


def consistency_loss(
    mask: np.ndarray,
    positions: np.ndarray,
    pairs: np.ndarray,
    weights: LossWeights,
) -> tuple[float, np.ndarray]:
    """Combined binary-entropy + smoothness term and its mask gradient."""
    value = weights.binary_weight * binary_entropy_loss(mask) + weights.smooth_weight * smoothness_loss(
        mask, positions, pairs, weights.tau
    )
    grad = weights.binary_weight * binary_entropy_gradient(mask) + weights.smooth_weight * smoothness_gradient(
        mask, positions, pairs, weights.tau
    )
    return value, grad


def level_loss(
    render_loss: float,
    rate: float,
    mask: np.ndarray,
    level: int,
    weights: LossWeights,
    positions: np.ndarray,
    pairs: np.ndarray,
    per_anchor_bits: np.ndarray | None = None,
) -> tuple[float, np.ndarray, float]:
    """One level's total loss, the mask gradient of its non-render terms, and its consistency term.

    ``mask`` is the sampled level's mask vector and ``rate`` its
    already-computed mask-weighted bit cost. The gradient covers the rate and
    consistency terms only; the caller differentiates the render loss through
    its renderer and adds that. ``per_anchor_bits`` supplies the rate
    gradient; a scalar rate alone cannot be differentiated per anchor, so
    without it the rate term contributes value but no gradient.
    """
    level = check_layer(level)
    mask = np.asarray(mask, dtype=np.float64)
    lam = weights.lambda_layer[level]
    tmc_value, tmc_grad = consistency_loss(mask, positions, pairs, weights)
    total = float(render_loss) + lam * float(rate) + weights.lambda_temporal * tmc_value
    grad = weights.lambda_temporal * tmc_grad
    if per_anchor_bits is not None:
        grad = grad + lam * np.asarray(per_anchor_bits, dtype=np.float64) / mask.size
    return total, grad, tmc_value
