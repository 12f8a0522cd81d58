"""Release-gate checks: every shipped behavior verified at a stated tolerance.

Each criterion is a standalone function returning (passed, details); the
registry runs them all with wall-clock accounting. Training-based checks
share one in-process cache so repeated verification stays affordable.
They train ``ACCEPT_RUN``: ``RunConfig``'s desk-scale defaults, with the
published loss weights and a tighter scheduler cadence (sample period 25,
warm-up 400) than the published full-scale constants. Each
criterion's runs are declared once below, as ``RunConfig`` values derived
from ``ACCEPT_RUN``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import bitstream, entropy, losses, rollout, stream, toyscene
from .asset import MASK_THRESHOLD, AnchorSet, DeformationTable, LocalResiduals, MaskBank
from .config import RunConfig

# --- desk-scale training setup shared by the training-based criteria
ACCEPT_RUN = RunConfig(sample_period=25, warmup_steps=400)
ACCEPT_TRAIN_SEED = 11
MOTION_SEEDS = (101, 102, 103)
SWEEP_SEED = 201
TMC_SEEDS = (301, 302)

# the runs criteria 6-9 train: 6 the motion runs, 7 each motion run against
# its static twin, 8 the sweep, 9 each (binary term on, binary term off) pair
MOTION_RUNS = tuple(replace(ACCEPT_RUN, scene_kind="motion-dense", seed=seed) for seed in MOTION_SEEDS)
STATIC_RUNS = tuple(replace(ACCEPT_RUN, scene_kind="static", seed=seed) for seed in MOTION_SEEDS)
SWEEP_RUNS = tuple(
    replace(ACCEPT_RUN, scene_kind="mixed", seed=SWEEP_SEED, lambda_layer0=lam, train_steps=6000, learning_rate=0.8)
    for lam in (0.00025, 0.01, 0.04)
)
BINARY_PAIRS = tuple(
    tuple(
        replace(ACCEPT_RUN, scene_kind="mixed", seed=seed, binary_weight=weight, train_steps=6000, learning_rate=0.5)
        for weight in (1.0, 0.0)
    )
    for seed in TMC_SEEDS
)

# First-frame latency reference grid: representative model sizes (MB), link rates
# (Mbps), and the latency each cell must reproduce at its stated precision.
LATENCY_SIZES_MB = (232.4, 109.4, 78.5, 18.37, 6.88, 0.436)
LATENCY_BANDWIDTHS_MBPS = (2.0, 10.0, 50.0)
LATENCY_EXPECTED = (
    ("929.6", "185.9", "37.2"),
    ("437.6", "87.5", "17.5"),
    ("314.0", "62.8", "12.6"),
    ("73.5", "14.7", "2.94"),
    ("27.5", "5.5", "1.10"),
    ("1.74", "0.35", "0.07"),
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    seconds: float


_TRAIN_CACHE: dict[RunConfig, tuple[toyscene.ToyScene, MaskBank, toyscene.TrainReport]] = {}


def trained(cfg: RunConfig) -> tuple[toyscene.ToyScene, MaskBank, toyscene.TrainReport]:
    """Train (or fetch from cache) the run ``cfg`` with training seed ``ACCEPT_TRAIN_SEED``."""
    if cfg not in _TRAIN_CACHE:
        scene = cfg.make_scene()
        bank, report = cfg.train_masks(scene, ACCEPT_TRAIN_SEED)
        _TRAIN_CACHE[cfg] = (scene, bank, report)
    return _TRAIN_CACHE[cfg]


# ---------------------------------------------------------------- criteria


def criterion_latency_table() -> tuple[bool, str]:
    """First-frame latency grid reproduces every reference cell after rounding."""
    failures = []
    for size, expected_row in zip(LATENCY_SIZES_MB, LATENCY_EXPECTED):
        for bw, expected in zip(LATENCY_BANDWIDTHS_MBPS, expected_row):
            computed = stream.first_frame_latency(size, bw)
            decimals = len(expected.split(".")[1]) if "." in expected else 0
            if round(computed, decimals) != float(expected):
                failures.append(f"({size} MB, {bw} Mbps): {computed:.4f} !~ {expected}")
    if failures:
        return False, "; ".join(failures)
    return True, f"{len(LATENCY_SIZES_MB) * len(LATENCY_BANDWIDTHS_MBPS)} cells exact after rounding"


def criterion_distribution_interpolation() -> tuple[bool, str]:
    """Level-distribution endpoints exact; affine in the activation rate."""
    lo = rollout.level_distribution(0.0)
    hi = rollout.level_distribution(1.0)
    if not (np.array_equal(lo, [1.0 / 3.0] * 3) and np.array_equal(hi, [0.15, 0.30, 0.55])):
        return False, f"endpoints wrong: {lo}, {hi}"
    worst = 0.0
    for rho in np.linspace(0.0, 1.0, 11):
        pi = rollout.level_distribution(float(rho))
        expect = (1.0 - rho) * lo + rho * hi
        worst = max(worst, float(np.max(np.abs(pi - expect))))
        if abs(float(pi.sum()) - 1.0) > 1e-9 or np.any(pi < 0):
            return False, f"invalid distribution at rho={rho}"
    if worst > 1e-9:
        return False, f"affinity deviation {worst:.2e} > 1e-9"
    return True, f"endpoints exact, affinity within {worst:.1e} on 11 grid points"


def _oracle_bits(a: float, mu: float, sigma: float, q: float):
    """Quadrature of the normal density over the quantization interval (mpmath).

    Breakpoints around the density's bump keep the quadrature accurate even
    when the interval is hundreds of standard deviations wide.
    """
    import mpmath as mp

    with mp.workdps(25):
        lo = (mp.mpf(a) - mp.mpf(q) / 2 - mp.mpf(mu)) / mp.mpf(sigma)
        hi = (mp.mpf(a) + mp.mpf(q) / 2 - mp.mpf(mu)) / mp.mpf(sigma)
        interior = [p for p in (-8, -4, -1, 0, 1, 4, 8) if lo < p < hi]
        points = [lo] + interior + [hi]
        mass = mp.quad(lambda x: mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi), points)
        clamped = mass < mp.mpf("1e-6")
        if clamped:
            mass = mp.mpf("1e-6")
        return float(-mp.log(mass) / mp.log(2)), clamped


def criterion_entropy_oracle(samples: int = 1000) -> tuple[bool, str]:
    """bit_cost agrees with numerical integration to 1e-6 bits; clamps align."""
    rng = np.random.default_rng(40)
    worst = 0.0
    clamp_mismatch = 0
    clamped_cases = 0
    for _ in range(samples):
        mu = rng.normal(0.0, 2.0)
        sigma = 10.0 ** rng.uniform(-2.0, 1.0)
        q = 10.0 ** rng.uniform(-3.0, 0.5)
        a = mu + sigma * rng.uniform(-8.0, 8.0)
        prior = entropy.AttributePrior(mean=mu, std=sigma, quant_step=q)
        ours = entropy.bit_cost(a, prior)
        expect, clamped = _oracle_bits(a, mu, sigma, q)
        ours_clamped = ours >= -np.log2(entropy.MASS_CLAMP) - 1e-9
        if clamped != ours_clamped:
            clamp_mismatch += 1
        clamped_cases += int(clamped)
        worst = max(worst, abs(ours - expect))
    if worst > 1e-6:
        return False, f"worst deviation {worst:.3e} bits > 1e-6"
    if clamp_mismatch:
        return False, f"{clamp_mismatch} clamp-activation mismatches"
    return True, f"worst deviation {worst:.2e} bits over {samples} configs ({clamped_cases} clamped)"


def _random_anchors(rng: np.random.Generator, positions: np.ndarray, fdim: int) -> AnchorSet:
    """Anchors at ``positions`` with the other five fields drawn from ``rng`` in field order."""
    count = len(positions)
    return AnchorSet(
        positions=positions,
        features=rng.normal(0, 1, (count, fdim)),
        scales=rng.uniform(0.2, 2.0, count),
        offsets=rng.normal(0, 0.5, (count, 2)),
        opacities=rng.uniform(0, 1, count),
        colors=rng.uniform(0, 1, (count, 3)),
    )


def _random_gradient_fixture(rng: np.random.Generator):
    count = int(rng.integers(8, 32))
    fdim = int(rng.integers(2, 6))
    anchors = _random_anchors(rng, rng.uniform(0, 1, (count, 2)), fdim)
    while True:
        mask = rng.uniform(0.05, 0.95, count)
        pairs = losses.sample_pairs(count, losses.PAIR_FACTOR * count, int(rng.integers(1 << 30)))
        gaps = np.abs(mask[pairs[:, 0]] - mask[pairs[:, 1]])
        if gaps.min() > 1e-3:  # keep the |.| subgradient well-defined under FD
            return anchors, mask, pairs


def _fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2 * h)
    return grad


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))


def _render_gradient_error(rng: np.random.Generator, level: int) -> float:
    """Closed-form render-loss gradient vs central differences through ``render``.

    A small generated scene, a random timestep and a random interior mask
    keep the L1 and clamp kinks out of the finite-difference stencil.
    """
    kind = toyscene.SCENE_KINDS[int(rng.integers(len(toyscene.SCENE_KINDS)))]
    count = int(rng.integers(8, 24))
    steps = int(rng.integers(1, 4))
    scene = toyscene.make_scene(kind, count, steps, int(rng.integers(1 << 30)), image_size=(16, 16))
    k = int(rng.integers(scene.deformations.step_count))
    t = float(scene.deformations.timesteps[k])
    mask = rng.uniform(0.05, 0.95, count)

    def loss_of(m):
        bank = MaskBank(levels=(m, m, m))
        return toyscene.l1_distortion(toyscene.render(scene, bank, level, t), scene.ground_truth[k])

    pixels = toyscene._pixel_grid(*scene.image_size)
    splat = toyscene._Splat(scene.anchors, scene.deformations, level, t, pixels)
    _, analytic = toyscene._render_gradient(splat, mask, scene.ground_truth[k].reshape(-1, 3))
    return _rel_err(analytic, _fd_gradient(loss_of, mask))


def criterion_gradients(configs: int = 100) -> tuple[bool, str]:
    """level_loss's rate/consistency gradients and the render gradient match central differences."""
    rng = np.random.default_rng(41)
    # one term of level_loss at a time; the rate term's priors are refitted
    # for every mask in the stencil, as training refits them whenever the
    # level's active set changes
    terms = {
        "rate": losses.LossWeights(lambda_layer=(1.0, 0.0, 0.0), lambda_temporal=0.0),
        "binary": losses.LossWeights(lambda_temporal=1.0, smooth_weight=0.0),
        "smooth": losses.LossWeights(lambda_temporal=1.0, binary_weight=0.0),
    }
    worst = {"rate": 0.0, "binary": 0.0, "smooth": 0.0, "render": 0.0}
    for _ in range(configs):
        anchors, mask, pairs = _random_gradient_fixture(rng)
        table = losses.pair_weights(anchors.positions, losses.TAU)

        def objective(term, m):
            bits = None
            if term == "rate":
                priors = entropy.family_priors(anchors, m > MASK_THRESHOLD, bitstream.DEFAULT_QUANT_STEPS)
                bits = entropy.per_anchor_bits(anchors, priors)
            return losses.level_loss(0.0, m, 0, terms[term], table, pairs, bits)

        for term in terms:
            fd = _fd_gradient(lambda m: objective(term, m).total, mask)
            worst[term] = max(worst[term], _rel_err(objective(term, mask).grad, fd))
    render_configs = configs // 5  # cycling through levels 0, 1, 2
    for case in range(render_configs):
        worst["render"] = max(worst["render"], _render_gradient_error(rng, case % 3))
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    details = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    if bad:
        return False, f"relative error above 1e-4: {details}"
    return True, f"worst relative errors over {configs} configs ({render_configs} render scenes): {details}"


def random_asset(rng: np.random.Generator):
    """Random (anchors, bank, table) triple with a non-empty base active set."""
    count = int(rng.integers(8, 48))
    fdim = int(rng.integers(2, 6))
    steps = int(rng.integers(1, 6))
    anchors = _random_anchors(rng, rng.normal(0, 0.5, (count, 2)), fdim)
    masks = rng.uniform(0, 1, (3, count))
    masks[0, 0] = 0.9  # keep the base layer non-empty
    bank = MaskBank(levels=(masks[0], masks[1], masks[2]))
    times = np.sort(rng.uniform(0, 1, steps)) if steps > 1 else np.array([0.5])
    times = np.unique(times)
    steps = times.size
    table = DeformationTable(
        timesteps=times,
        displacements=rng.normal(0, 0.3, (steps, count, 2)),
        feature_residuals=rng.normal(0, 0.3, (steps, count, fdim)),
        local=LocalResiduals(
            d_position=rng.normal(0, 0.2, (steps, count, 2)),
            d_scale=rng.normal(0, 0.1, (steps, count)),
            d_opacity=rng.normal(0, 0.2, (steps, count)),
            d_color=rng.normal(0, 0.2, (steps, count, 3)),
        ),
    )
    return anchors, bank, table


def expected_reconstruction(anchors, bank, table, indices, q):
    """Independent quantize-reconstruct expectation for round-trip checks."""
    idx = np.asarray(indices)
    exp_anchors = {
        "positions": entropy.quantize_array(anchors.positions[idx], q["position"]) * q["position"],
        "features": entropy.quantize_array(anchors.features[idx], q["feature"]) * q["feature"],
        "scales": entropy.quantize_array(anchors.scales[idx], q["scale"]) * q["scale"],
        "offsets": entropy.quantize_array(anchors.offsets[idx], q["offset"]) * q["offset"],
        "opacities": anchors.opacities[idx].astype(np.float32).astype(np.float64),
        "colors": anchors.colors[idx].astype(np.float32).astype(np.float64),
    }
    masks = []
    for level in range(3):
        active = bank.level(level) > bank.threshold
        m = np.zeros(idx.size)
        sel = active[idx]
        m[sel] = entropy.quantize_array(bank.level(level)[idx][sel], q["mask"]) * q["mask"]
        masks.append(np.clip(m, 0.0, 1.0))
    tables = {}
    for name, arr in (
        ("displacements", table.displacements),
        ("feature_residuals", table.feature_residuals),
        ("d_position", table.local.d_position),
        ("d_scale", table.local.d_scale),
        ("d_opacity", table.local.d_opacity),
        ("d_color", table.local.d_color),
    ):
        level = 1 if name in ("displacements", "feature_residuals") else 2
        active = bank.level(level) > bank.threshold
        out = np.zeros((table.step_count,) + (idx.size,) + arr.shape[2:])
        sel = active[idx]
        out[:, sel] = entropy.quantize_array(arr[:, idx][:, sel], q["deform"]) * q["deform"]
        tables[name] = out
    return exp_anchors, masks, tables


def criterion_prefix_decodability(containers: int = 20) -> tuple[bool, str]:
    """Every chunk-boundary truncation decodes; full round trip is exact."""
    rng = np.random.default_rng(42)
    q = dict(bitstream.DEFAULT_QUANT_STEPS)
    for case in range(containers):
        anchors, bank, table = random_asset(rng)
        blob = bitstream.encode(anchors, bank, table)
        man = bitstream.manifest(blob)
        boundaries = man.cumulative_sizes
        for level, boundary in enumerate(boundaries):
            decoded = bitstream.decode_prefix(blob[:boundary])
            if decoded.max_level != level:
                return False, f"case {case}: truncation at chunk {level} decoded level {decoded.max_level}"
            # mid-chunk truncation must fall back to the last complete chunk
            if level + 1 < len(boundaries):
                mid = (boundary + boundaries[level + 1]) // 2
                partial = bitstream.decode_prefix(blob[:mid])
                if partial.max_level != level:
                    return False, f"case {case}: mid-chunk truncation decoded level {partial.max_level}"

        decoded = bitstream.decode_prefix(blob)
        exp_anchors, exp_masks, exp_tables = expected_reconstruction(
            anchors, bank, table, decoded.anchor_indices, q
        )
        fields = [(name, getattr(decoded.anchors, name), want) for name, want in exp_anchors.items()]
        fields += [(f"mask {level}", decoded.bank.level(level), want) for level, want in enumerate(exp_masks)]
        for name, want in exp_tables.items():
            owner = decoded.deformations.local if name.startswith("d_") else decoded.deformations
            fields.append((name, getattr(owner, name), want))
        for name, got, expect in fields:
            if not np.array_equal(got, expect):
                return False, f"case {case}: field {name} not exactly reconstructed"
    return True, f"{containers} containers: all boundary truncations and round trips exact"


def criterion_level_monotonicity() -> tuple[bool, str]:
    """Deeper layers never render worse; the top layer clearly beats the base."""
    details = []
    for cfg in MOTION_RUNS:
        _, _, report = trained(cfg)
        p0, p1, p2 = report.psnr_per_level
        if not (p0 <= p1 <= p2):
            return False, f"seed {cfg.seed}: PSNR not monotone {report.psnr_per_level}"
        if p2 - p0 < 0.5:
            return False, f"seed {cfg.seed}: level-2 gain {p2 - p0:.2f} dB < 0.5 dB"
        details.append(f"seed {cfg.seed}: {p0:.1f}<={p1:.1f}<={p2:.1f} dB")
    return True, "; ".join(details)


def criterion_activation_adaptivity() -> tuple[bool, str]:
    """Motion demand shows up in the learned activation rate; static stays uniform."""
    details = []
    for dense, static in zip(MOTION_RUNS, STATIC_RUNS):
        seed = dense.seed
        _, _, dense_report = trained(dense)
        _, _, static_report = trained(static)
        gap = dense_report.final_activation_ema - static_report.final_activation_ema
        if gap < 0.2:
            return False, f"seed {seed}: activation gap {gap:.3f} < 0.2"
        uniform_dev = max(abs(p - 1.0 / 3.0) for p in static_report.final_distribution)
        if uniform_dev > 0.05:
            return False, f"seed {seed}: static distribution strays {uniform_dev:.3f} from uniform"
        details.append(f"seed {seed}: gap {gap:.2f}, static dev {uniform_dev:.3f}")
    return True, "; ".join(details)


def criterion_lambda_sweep() -> tuple[bool, str]:
    """Stronger base-layer rate weight never grows the base layer."""
    actives = []
    compressed = []
    for cfg in SWEEP_RUNS:
        scene, bank, report = trained(cfg)
        actives.append(report.active_per_level[0])
        blob = bitstream.encode(scene.anchors, bank, scene.deformations)
        compressed.append(bitstream.manifest(blob).compressed_sizes[0])
    ok_active = all(a >= b for a, b in zip(actives, actives[1:]))
    ok_size = all(a >= b for a, b in zip(compressed, compressed[1:]))
    details = f"actives {actives}, base-chunk bytes {compressed}"
    if not (ok_active and ok_size):
        return False, f"not non-increasing: {details}"
    return True, details


def _near_binary_fraction(bank: MaskBank) -> float:
    values = np.concatenate(bank.levels)
    return float(np.mean(np.minimum(values, 1.0 - values) <= 0.05))


def criterion_mask_binarization() -> tuple[bool, str]:
    """The binary-entropy term measurably sharpens trained masks."""
    details = []
    for on, off in BINARY_PAIRS:
        seed = on.seed
        _, bank_on, _ = trained(on)
        _, bank_off, _ = trained(off)
        frac_on = _near_binary_fraction(bank_on)
        frac_off = _near_binary_fraction(bank_off)
        if frac_on < 0.9:
            return False, f"seed {seed}: near-binary fraction {frac_on:.3f} < 0.9"
        if frac_off >= frac_on:
            return False, f"seed {seed}: disabling the binary term did not reduce it ({frac_off:.3f} >= {frac_on:.3f})"
        details.append(f"seed {seed}: {frac_on:.3f} vs {frac_off:.3f}")
    return True, "; ".join(details)


def criterion_rate_coder_correlation(points: int = 20) -> tuple[bool, str]:
    """Modeled bits track the general-purpose coder's output across a variance sweep."""
    from scipy import stats

    rng = np.random.default_rng(43)
    q = 1.0 / 16.0
    modeled = []
    actual = []
    for sigma in np.geomspace(0.02, 2.0, points):
        values = rng.normal(0.0, sigma, 4096)
        prior = entropy.estimate_prior(values, np.ones(values.size, dtype=bool), q)
        modeled.append(float(np.sum(entropy.bit_cost(values, prior))))
        indices = entropy.quantize_array(values, q)
        actual.append(len(bitstream.compress_chunk(bitstream.pack_ints(indices))))
    corr = float(stats.spearmanr(modeled, actual).statistic)
    if corr < 0.9:
        return False, f"Spearman correlation {corr:.3f} < 0.9"
    return True, f"Spearman correlation {corr:.3f} over {points} variance points"


def criterion_simulator_exactness() -> tuple[bool, str]:
    """Constant-trace simulation equals the closed form; splitting segments is a no-op."""
    sizes = [436000, 1623000, 6898000]
    worst = 0.0
    for bw in (2.0, 7.5, 10.0, 50.0):
        trace = stream.BandwidthTrace.constant(Fraction(bw))
        timeline = stream.simulate(sizes, trace)
        got = float(timeline.first_frame_time)
        expect = stream.first_frame_latency(sizes[0] / 1e6, bw)
        worst = max(worst, abs(got - expect))
    if worst > 1e-12:
        return False, f"constant-trace deviation {worst:.3e} s > 1e-12"

    rng = np.random.default_rng(44)
    for _ in range(10):
        segments = []
        for _ in range(int(rng.integers(2, 6))):
            segments.append(
                (Fraction(int(rng.integers(1, 30)), 4), Fraction(int(rng.integers(0, 40)), 2))
            )
        segments.append((Fraction(10**6), Fraction(8)))
        base = stream.simulate(sizes, stream.BandwidthTrace(segments=tuple(segments)))
        split = []
        for duration, mbps in segments:
            split.append((duration / 2, mbps))
            split.append((duration / 2, mbps))
        halved = stream.simulate(sizes, stream.BandwidthTrace(segments=tuple(split)))
        if base.events != halved.events:
            return False, "segment splitting changed the timeline"
    return True, f"formula agreement within {worst:.1e} s; split invariance exact on 10 traces"


CRITERIA: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("first-frame latency grid", criterion_latency_table),
    ("level-distribution interpolation", criterion_distribution_interpolation),
    ("entropy model vs integration oracle", criterion_entropy_oracle),
    ("analytic gradients vs finite differences", criterion_gradients),
    ("prefix decodability and round trip", criterion_prefix_decodability),
    ("per-level quality monotonicity", criterion_level_monotonicity),
    ("activation-rate adaptivity", criterion_activation_adaptivity),
    ("rate-weight sweep sparsification", criterion_lambda_sweep),
    ("mask binarization contrast", criterion_mask_binarization),
    ("rate model vs coder correlation", criterion_rate_coder_correlation),
    ("simulator exactness", criterion_simulator_exactness),
)


def run_all(selected: set[int] | None = None) -> list[CriterionResult]:
    results = []
    for index, (name, fn) in enumerate(CRITERIA, start=1):
        if selected and index not in selected:
            continue
        start = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(index, name, passed, details, time.perf_counter() - start))
    return results
