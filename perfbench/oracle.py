"""Correctness checks on pd4g's outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
right. The stream oracle integrates byte arrival itself, with its own trace
parser, so it shares no code with ``pd4g.stream``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pd4g import acceptance, stream

_ANCHOR_FIELDS = ("positions", "features", "scales", "offsets", "opacities", "colors")
_GLOBAL_FIELDS = ("displacements", "feature_residuals")
_LOCAL_FIELDS = ("d_position", "d_scale", "d_opacity", "d_color")


@dataclass
class PrefixExpectation:
    """What a prefix carrying layers 0..level must decode to."""

    level: int
    indices: np.ndarray
    anchors: dict
    masks: list
    tables: dict
    timesteps: np.ndarray


def prefix_expectations(scene, bank, quant_steps) -> list[PrefixExpectation]:
    """Expected decode of each layer prefix, from ``acceptance.expected_reconstruction``."""
    table = scene.deformations
    active = [bank.level(level) > bank.threshold for level in range(3)]
    out = []
    for level in range(3):
        carried = np.flatnonzero(np.logical_or.reduce(active[: level + 1]))
        anchors, masks, tables = acceptance.expected_reconstruction(scene.anchors, bank, table, carried, quant_steps)
        out.append(PrefixExpectation(level, carried, anchors, masks, tables, table.timesteps))
    return out


def check_decode(decoded, expected: PrefixExpectation, original_count: int) -> list[str]:
    """Every field of a decoded prefix equals the layers that prefix carries."""
    if decoded.max_level != expected.level:
        return [f"decoded max_level {decoded.max_level}, expected {expected.level}"]
    problems = []
    if decoded.original_count != original_count:
        problems.append("original anchor count differs")
    if not np.array_equal(decoded.anchor_indices, expected.indices):
        return problems + ["carried anchor indices differ"]
    for name in _ANCHOR_FIELDS:
        if not np.array_equal(getattr(decoded.anchors, name), expected.anchors[name]):
            problems.append(f"anchor field {name} differs")
    for level in range(3):
        want = expected.masks[level] if level <= expected.level else np.zeros(expected.indices.size)
        if not np.array_equal(decoded.bank.level(level), want):
            problems.append(f"level-{level} mask differs")
    table = decoded.deformations
    if expected.level == 0:
        if table is not None:
            problems.append("base-only prefix carries a deformation table")
        return problems
    if not np.array_equal(table.timesteps, expected.timesteps):
        problems.append("timesteps differ")
    for name in _GLOBAL_FIELDS:
        if not np.array_equal(getattr(table, name), expected.tables[name]):
            problems.append(f"table {name} differs")
    for name in _LOCAL_FIELDS:
        got = getattr(table.local, name)
        want = expected.tables[name] if expected.level == 2 else np.zeros_like(expected.tables[name])
        if not np.array_equal(got, want):
            problems.append(f"table {name} differs")
    return problems


class TraceIntegral:
    """Exact cumulative bytes of a ``duration_s,mbps`` trace, parsed independently."""

    def __init__(self, text: str):
        self.starts: list[Fraction] = []
        self.rates: list[Fraction] = []
        self.bytes_at_end: list[Fraction] = []
        now = Fraction(0)
        total = Fraction(0)
        for line in text.splitlines():
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            duration, mbps = (Fraction(part.strip()) for part in body.split(","))
            rate = mbps * 1_000_000 / 8
            self.starts.append(now)
            self.rates.append(rate)
            now += duration
            total += rate * duration
            self.bytes_at_end.append(total)

    def time_to_receive(self, size: int) -> Fraction | None:
        """Exact instant the first ``size`` bytes have arrived, or None if never."""
        i = bisect.bisect_left(self.bytes_at_end, size)
        if i == len(self.bytes_at_end):
            return None
        before = self.bytes_at_end[i - 1] if i else Fraction(0)
        return self.starts[i] + (size - before) / self.rates[i]


def check_timeline(timeline, cumulative, integral: TraceIntegral) -> list[str]:
    """Layer-complete events fire exactly when the oracle's integral says."""
    got = [(e.layer, e.time) for e in timeline.events if e.kind == "layer-complete"]
    want = []
    for layer, size in enumerate(cumulative):
        when = integral.time_to_receive(size)
        if when is None:
            break
        want.append((layer, when))
    if got != want:
        return [f"layer-complete events {got[:3]}... differ from exact integration {want[:3]}..."]
    return []


def check_constant_rate(cumulative, mbps: float) -> list[str]:
    """On a constant-rate trace the base layer lands at ``first_frame_latency``."""
    timeline = stream.simulate(cumulative, stream.BandwidthTrace.constant(Fraction(mbps)))
    expect = stream.first_frame_latency(cumulative[0] / stream.BYTES_PER_MB, mbps)
    got = float(timeline.first_frame_time)
    if abs(got - expect) > 1e-12 * max(1.0, expect):
        return [f"constant {mbps} Mbps first frame {got!r} != first_frame_latency {expect!r}"]
    return []


def check_latency_table(rows, sizes_mb, bandwidths) -> list[str]:
    """Latency rows equal 8 * size / bandwidth for every catalogue entry."""
    for row, size_mb in zip(rows, sizes_mb):
        for latency, mbps in zip(row["latency_s"], bandwidths):
            if abs(latency - 8.0 * size_mb / mbps) > 1e-9 * max(1.0, latency):
                return [f"latency table row {row['label']} differs at {mbps} Mbps"]
    if len(rows) != len(sizes_mb):
        return ["latency table has the wrong number of rows"]
    return []
