"""Differentiable Gaussian entropy model for anchor attributes.

Each continuous attribute family (features, scales, offsets) is modeled by a
single Gaussian prior fitted on the currently active anchors. The Shannon
bit cost of a value is the negative log probability mass of its quantization
interval under that prior, which tracks the output length of the
general-purpose coder used at export closely enough to drive keep/drop
decisions during optimization. ``per_anchor_bits`` is this module's output
to training; the mask-weighted rate built from it lives in
``losses.level_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .asset import AnchorSet

STD_FLOOR = 1e-6
MASS_CLAMP = 1e-6
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# Intervals whose half-width * (|midpoint| + 1) is at most _NARROW, both in
# units of sqrt(2) standard deviations, are integrated by 4-point quadrature.
_NARROW = 0.03
_GL_PAIRS = tuple(zip(*(a[2:] for a in np.polynomial.legendre.leggauss(4))))


class InsufficientDataError(ValueError):
    """Too few active samples to fit a prior."""


@dataclass(frozen=True)
class AttributePrior:
    """Gaussian prior plus the fixed quantization step of one attribute family."""

    mean: float
    std: float
    quant_step: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError("prior std must be strictly positive")
        if not self.quant_step > 0:
            raise ValueError("quantization step must be strictly positive")


def estimate_prior(values: np.ndarray, active: np.ndarray, quant_step: float) -> AttributePrior:
    """Fit a Gaussian prior on the active subset of a value population.

    Uses the population standard deviation (divisor = number of active
    entries), floored at ``STD_FLOOR`` so constant populations stay usable.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    active = np.asarray(active, dtype=bool).ravel()
    if values.shape != active.shape:
        raise ValueError("values and active flags must have the same length")
    subset = values[active]
    if subset.size < 2:
        raise InsufficientDataError(f"prior estimation needs at least 2 active entries, got {subset.size}")
    mean = float(np.mean(subset))
    std = max(float(np.std(subset)), STD_FLOOR)
    return AttributePrior(mean=mean, std=std, quant_step=float(quant_step))


def _interval_mass(mid: np.ndarray, half: float) -> np.ndarray:
    """Standard-normal mass of [mid - half, mid + half] with full relative accuracy.

    A difference of two CDF values loses relative precision in proportion
    to the size of the values it cancels, which ruins narrow intervals and
    far tails alike. The interval is taken by midpoint and half-width, so a
    narrow one keeps its width exact, and mirrored onto the right
    half-line. Narrow intervals are integrated by Gauss-Legendre
    quadrature, which cancels nothing; wide ones take the error-function or
    complementary-error-function difference that cancels the smaller pair.
    Either way the relative error stays near machine epsilon, which the
    bit-cost tolerance requires. Rounding may leave the result a few ulps
    outside [0, 1]; ``bit_cost`` clamps it.
    """
    mid = np.abs(mid) * _INV_SQRT2
    half = half * _INV_SQRT2
    lo, hi = mid - half, mid + half
    erf_hi = special.erf(hi)
    erfc_lo = special.erfc(lo)
    mass = 0.5 * np.where(erf_hi <= erfc_lo, erf_hi - special.erf(lo), erfc_lo - special.erfc(hi))
    if half > _NARROW:
        return mass
    # Gauss-Legendre nodes come in pairs +-x with one weight w, and
    # exp(-(m + hx)^2) + exp(-(m - hx)^2) = 2 exp(-m^2 - h^2 x^2) cosh(2 m h x):
    # a sum of positive terms. The caps keep cosh and the square finite on
    # intervals whose quadrature is discarded or underflows to 0 anyway.
    mh = np.minimum(mid * half, _NARROW)
    pairs = sum(2.0 * w * math.exp(-((half * x) ** 2)) * np.cosh((2.0 * x) * mh) for x, w in _GL_PAIRS)
    quad = _INV_SQRT_PI * half * np.exp(-np.square(np.minimum(mid, 64.0))) * pairs
    return np.where(half * (mid + 1.0) <= _NARROW, quad, mass)


def bit_cost(a, prior: AttributePrior):
    """Shannon bit cost of attribute value(s) ``a`` under the prior.

    Returns ``-log2`` of the prior mass over the quantization interval
    centered at ``a``, with the mass clamped below at ``MASS_CLAMP`` so the
    cost stays finite deep in the tails. Accepts scalars or arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    mid = (a - prior.mean) / prior.std
    half = 0.5 * prior.quant_step / prior.std
    mass = np.maximum(_interval_mass(mid, half), MASS_CLAMP)
    cost = np.maximum(-np.log2(mass), 0.0)
    if np.isscalar(a) or a.ndim == 0:
        return float(cost)
    return cost


def per_anchor_bits(anchors: AnchorSet, priors: dict[str, AttributePrior]) -> np.ndarray:
    """Total modeled bit cost of each anchor's rate-carrying attributes.

    Sums the feature, scale and offset costs per anchor; vector families sum
    over their components under the family's shared prior.
    """
    bits = np.sum(bit_cost(anchors.features, priors["features"]), axis=1)
    bits = bits + bit_cost(anchors.scales, priors["scales"])
    bits = bits + np.sum(bit_cost(anchors.offsets, priors["offsets"]), axis=1)
    return bits


def family_priors(
    anchors: AnchorSet,
    active: np.ndarray,
    quant_steps: dict[str, float],
) -> dict[str, AttributePrior]:
    """Fit the three attribute-family priors on one active-anchor subset.

    ``active`` is a per-anchor boolean vector; vector families pool all
    components of the active anchors into one sample.
    """
    active = np.asarray(active, dtype=bool)
    feat_active = np.repeat(active, anchors.feature_dim)
    off_active = np.repeat(active, anchors.dim)
    return {
        "features": estimate_prior(anchors.features.ravel(), feat_active, quant_steps["feature"]),
        "scales": estimate_prior(anchors.scales, active, quant_steps["scale"]),
        "offsets": estimate_prior(anchors.offsets.ravel(), off_active, quant_steps["offset"]),
    }


def quantize_array(values: np.ndarray, quant_step: float) -> np.ndarray:
    """Vectorized quantization indices (half away from zero), int64 output."""
    if not quant_step > 0:
        raise ValueError("quantization step must be strictly positive")
    scaled = np.asarray(values, dtype=np.float64) / float(quant_step)
    index = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    if np.any(np.abs(index) >= 2**31):
        raise OverflowError("quantization index exceeds signed 32-bit range")
    return index.astype(np.int64)
