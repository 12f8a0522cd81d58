"""Deterministic bandwidth-trace streaming simulator and ABR manifest emission.

A trace stores each segment as reduced integer ratios (numerator and
positive denominator of its seconds and of its Mbps) with the lcm of each
column's denominators; its ``Fraction`` view, ``segments``, is built only
when read, and neither the parser nor the simulator reads it. Byte arrival
is integrated exactly from those integers: each trace carries its integral
in integers at the common denominators (segment start times, cumulative
bytes at the end of each positive-rate segment, and its zero-rate runs), and
``simulate`` places every layer completion by bisection over the cumulative
bytes, so completion instants carry no time-stepping error and come out as
exact ``Fraction``s. Sizes use decimal megabytes (1e6 bytes) and throughput
decimal megabits per second, which makes the first-frame formula 8*S/B
exact. The simulator models download only; decode and render time are out
of scope.

Trace numbers are read exactly by one parser, ``_parse_ratio``, which builds
integer numerators and denominators from the digits of a field. It accepts
the language of Python 3.11's ``Fraction(str)``: an optional sign, digits with
``_`` separators, then either ``/denominator`` or an optional ``.fraction``
and ``e``/``E`` exponent, with whitespace around the field. The one
difference is that it refuses a decimal exponent beyond ``MAX_EXPONENT`` in
magnitude before building any power of ten.

``BandwidthTrace(segments)`` is the one constructor, and ``from_csv`` feeds
it a file's lines one at a time. Per call, it reads each distinct value of a
column once, reduces it with one ``gcd`` and reuses that checked ratio on
later segments. Segments are checked in order, so the first faulty one is
reported. A trace whose common duration, or rate, denominator has more than
``MAX_DENOMINATOR_DIGITS`` decimal digits is refused when it is built, as the
integral's integers grow with those digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .bitstream import LayerManifest

BYTES_PER_MB = 10**6
BYTES_PER_MBIT = BYTES_PER_MB // 8
MAX_EXPONENT = 1000  # largest decimal exponent magnitude a trace number may carry
DEFAULT_BANDWIDTHS_MBPS = (2.0, 10.0, 50.0)  # the latency-table columns when none are given
MAX_DENOMINATOR_DIGITS = 1100  # most decimal digits of a trace's common duration, or rate, denominator
_DENOMINATOR_LIMIT = 10**MAX_DENOMINATOR_DIGITS
LAYER_DESCRIPTIONS = (
    "static scaffold",
    "static scaffold + global deformation",
    "static scaffold + global deformation + local refinement",
)


class TraceParseError(ValueError):
    """A trace CSV line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# The trace-number grammar: ``fractions._RATIONAL_FORMAT`` of Python 3.11,
# matched against a field stripped of surrounding whitespace. Either side of
# a decimal point may be empty, not both; ``\d`` matches any script's decimal
# digits, as in ``Fraction`` and ``int``.
_DIGITS = r"\d+(?:_\d+)*"
_NUMBER = re.compile(
    rf"(?P<sign>[-+]?)(?=\.?\d)(?P<num>(?:{_DIGITS})?)"
    rf"(?:/(?P<denom>{_DIGITS})|(?:\.(?P<decimal>(?:{_DIGITS})?))?(?:[eE](?P<esign>[-+]?)(?P<exp>{_DIGITS}))?)"
)


def _exponent(sign: str, digits: str, field: str) -> int:
    """The signed decimal exponent, refused beyond ``MAX_EXPONENT`` before any power of ten is built.

    The digit count is checked before ``int``, so ``1e10000000`` fails at once.
    """
    digits = digits.replace("_", "")
    if not digits.isascii():
        digits = "".join(str(int(c)) for c in digits)
    digits = digits.lstrip("0") or "0"
    magnitude = int(digits) if len(digits) <= len(str(MAX_EXPONENT)) else MAX_EXPONENT + 1
    if magnitude > MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_EXPONENT} in {field!r}")
    return -magnitude if sign == "-" else magnitude


def _parse_ratio(field: str) -> tuple[int, int]:
    """One trace number as (numerator, denominator), built from its digits.

    The denominator is positive and not reduced. Accepts what
    ``Fraction(field)`` accepts, except a decimal exponent beyond
    ``MAX_EXPONENT`` in magnitude. Raises ``ValueError`` for any other field
    and ``ZeroDivisionError`` for a zero denominator, as ``Fraction`` does.
    """
    match = _NUMBER.fullmatch(field.strip())
    if match is None:
        raise ValueError(f"invalid number {field!r}")
    sign, num, denom, decimal, exp_sign, exp = match.groups()
    exponent = 0 if exp is None else _exponent(exp_sign, exp, field)
    numerator = int(num) if num else 0
    if denom is not None:
        denominator = int(denom)
        if not denominator:
            raise ZeroDivisionError(f"zero denominator in {field!r}")
    else:
        denominator = 1
        if decimal:
            decimal = decimal.replace("_", "")
            denominator = 10 ** len(decimal)
            numerator = numerator * denominator + int(decimal)
        if exponent > 0:
            numerator *= 10**exponent
        elif exponent < 0:
            denominator *= 10**-exponent
    return (-numerator if sign == "-" else numerator), denominator


def _ratio(value) -> tuple[int, int]:
    """Reduced (numerator, positive denominator): strings through ``_parse_ratio``, other values through ``Fraction``.

    Raises ``ValueError`` naming an infinite or NaN value, which has no ratio.
    """
    if isinstance(value, str):
        numerator, denominator = _parse_ratio(value)
        common = math.gcd(numerator, denominator)
        return numerator // common, denominator // common
    try:
        return Fraction(value).as_integer_ratio()
    except (OverflowError, ValueError):  # what ``Fraction`` raises for an infinity and for a NaN
        raise ValueError(f"trace numbers must be finite, got {value!r}") from None


class _Integral(NamedTuple):
    """Byte arrival over a trace in integers at common denominators.

    Time counts ticks of 1/D s, where D is the lcm of the duration
    denominators; bytes count units of 1/(D*L) byte, where L is the lcm of
    the Mbps denominators, so a rate of m Mbps is m*L*125000 units per tick.
    """

    ticks_per_s: int  # D
    units_per_byte: int  # D*L
    starts: list[int]  # tick at which each positive-rate segment starts
    rates: list[int]  # its rate in units per tick
    arrived: list[int]  # units received by its end, strictly increasing
    runs_after: list[int]  # per maximal zero-rate run: positive-rate segments before it
    stalls: list[tuple[StreamEvent, StreamEvent]]  # per run: its stall-begin and stall-end


@dataclass(frozen=True, init=False)
class BandwidthTrace:
    """Piecewise-constant throughput timeline: (duration seconds, Mbps) segments.

    Each segment is held as reduced integer ratios, ``((seconds numerator,
    denominator), (Mbps numerator, denominator))`` with positive
    denominators; equality and hash go by these ratios. ``segments`` is the
    same timeline as ``Fraction``s, built on first read.
    """

    ratios: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    per_s: int = field(compare=False, repr=False)  # the lcm of the duration denominators
    per_mbps: int = field(compare=False, repr=False)  # the lcm of the rate denominators

    def __init__(self, segments: Iterable[tuple[object, object]]):
        """``segments`` holds (seconds, Mbps) pairs of numbers or of strings read by ``_parse_ratio``.

        Each segment is checked before the next is drawn, and a value met
        earlier in the same column reuses its checked ratio. The segment at
        which a common denominator first reaches ``MAX_DENOMINATOR_DIGITS``
        digits is refused: without the bound, a few hundred kilobytes of
        distinct duration denominators keep ``simulate`` busy for minutes.
        """
        ratios = []
        durations, rates = {}, {}  # value -> checked ratio, per column and for this call only
        per_s = per_mbps = 1  # the lcm of the duration and of the rate denominators so far
        for d, m in segments:
            duration, mbps = durations.get(d), rates.get(m)
            if duration is None or mbps is None:
                duration = _ratio(d) if duration is None else duration
                mbps = _ratio(m) if mbps is None else mbps
                if duration[0] <= 0:
                    raise ValueError("segment durations must be positive")
                if mbps[0] < 0:
                    raise ValueError("throughput cannot be negative")
                per_s, per_mbps = math.lcm(per_s, duration[1]), math.lcm(per_mbps, mbps[1])
                if per_s >= _DENOMINATOR_LIMIT or per_mbps >= _DENOMINATOR_LIMIT:
                    column = "duration" if per_s >= _DENOMINATOR_LIMIT else "rate"
                    raise ValueError(f"common {column} denominator has more than {MAX_DENOMINATOR_DIGITS} digits")
                durations[d], rates[m] = duration, mbps
            ratios.append((duration, mbps))
        if not ratios:
            raise ValueError("trace requires at least one segment")
        self.__dict__.update(ratios=tuple(ratios), per_s=per_s, per_mbps=per_mbps)

    @cached_property
    def segments(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The segments as exact (seconds, Mbps) ``Fraction``s."""
        return tuple((Fraction(*d), Fraction(*m)) for d, m in self.ratios)

    @staticmethod
    def constant(mbps) -> "BandwidthTrace":
        """A 10**9 s segment at ``mbps``."""
        return BandwidthTrace(segments=((10**9, mbps),))

    @staticmethod
    def from_csv(text: str) -> "BandwidthTrace":
        """Parse ``duration_s,mbps`` lines; '#' comments and blank lines ignored.

        Each number is an optionally signed integer (``8``, ``1_000``), ratio
        (``1/3``) or decimal with an optional exponent (``1.5``, ``.5``,
        ``2e-3``), with whitespace allowed around it: the language of
        Python 3.11's ``Fraction(str)``, except that the decimal exponent must
        be at most ``MAX_EXPONENT`` in magnitude. Lines go to ``BandwidthTrace``
        one at a time, so each distinct field text of a column is read once,
        and the first faulty line (malformed, a bad number, or where a common
        denominator first passes ``MAX_DENOMINATOR_DIGITS`` digits) is reported.
        """
        number, line = 0, ""  # the line being read; number is 0 once every line is read

        def fields():
            nonlocal number, line
            for number, line in enumerate(text.splitlines(), start=1):
                body = line.split("#", 1)[0].strip()
                if body:
                    parts = body.split(",")
                    if len(parts) != 2:
                        raise TraceParseError(number, f"expected 'duration_s,mbps', got {line!r}")
                    yield parts
            number = 0

        try:
            return BandwidthTrace(fields())
        except TraceParseError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            if not number:  # no line was left to blame: none held a segment
                raise TraceParseError(0, "trace file holds no segments") from None
            raise TraceParseError(number, f"{exc} in {line!r}") from exc

    @cached_property
    def _integral(self) -> _Integral:
        per_s = self.per_s
        units_per_mbps = self.per_mbps * BYTES_PER_MBIT
        ticks = [p * (per_s // q) for (p, q), _ in self.ratios]
        rates = [p * (units_per_mbps // q) for _, (p, q) in self.ratios]
        ends = list(accumulate(ticks))
        positive = [i for i, rate in enumerate(rates) if rate]
        arrived = list(accumulate(ticks[i] * rates[i] for i in positive))
        units_per_byte = per_s * self.per_mbps

        runs_after, stalls = [], []
        previous = -1  # the last positive-rate segment passed
        for before, i in enumerate(positive + [len(rates)]):
            if i > previous + 1:  # segments previous+1 .. i-1 are a maximal zero-rate run
                held = Fraction(arrived[before - 1] if before else 0, units_per_byte)
                begin = Fraction(ends[previous] if before else 0, per_s)
                runs_after.append(before)
                stalls.append(
                    (
                        StreamEvent(begin, "stall-begin", None, held),
                        StreamEvent(Fraction(ends[i - 1], per_s), "stall-end", None, held),
                    )
                )
            previous = i
        return _Integral(
            ticks_per_s=per_s,
            units_per_byte=units_per_byte,
            starts=[ends[i] - ticks[i] for i in positive],
            rates=[rates[i] for i in positive],
            arrived=arrived,
            runs_after=runs_after,
            stalls=stalls,
        )


@dataclass(frozen=True)
class StreamEvent:
    time: Fraction
    kind: str  # "layer-complete" | "stall-begin" | "stall-end"
    layer: Optional[int]
    bytes_received: Fraction


@dataclass(frozen=True)
class StreamTimeline:
    """Chronological download events plus headline latency figures."""

    events: tuple[StreamEvent, ...]
    first_frame_time: Optional[Fraction]
    final_level: Optional[int]
    total_bytes: Fraction

    def to_json(self) -> str:
        """The timeline with exact values rounded to floats.

        Raises ``ValueError`` naming the first field too large for a float.
        """
        first = self.first_frame_time
        payload = {
            "first_frame_time_s": None if first is None else _json_float(first, "first_frame_time_s"),
            "final_level": self.final_level,
            "total_bytes": _json_float(self.total_bytes, "total_bytes"),
            "events": [
                {
                    "time_s": _json_float(e.time, f"events[{i}].time_s"),
                    "kind": e.kind,
                    "layer": e.layer,
                    "bytes_received": _json_float(e.bytes_received, f"events[{i}].bytes_received"),
                }
                for i, e in enumerate(self.events)
            ],
        }
        return json.dumps(payload, indent=2)


def _json_float(value: Fraction, field: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"timeline field {field} is too large for a float") from None


def first_frame_latency(size_mb: float, bandwidth_mbps: float) -> float:
    """Seconds until a first renderable frame: 8 * size / bandwidth.

    Decimal units throughout (MB = 1e6 bytes, Mbps = 1e6 bits/s). This is a
    lower bound: only transfer time is modeled.
    """
    _check_bandwidth(bandwidth_mbps)
    _check_size(size_mb)
    latency = 8.0 * size_mb / bandwidth_mbps
    if not math.isfinite(latency):
        raise ValueError(f"latency 8 * {size_mb!r} MB / {bandwidth_mbps!r} Mbps overflows a float")
    return latency


def _finite(value: float) -> bool:
    """``math.isfinite``, reading a number too large for a float as infinite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_bandwidth(mbps: float) -> None:
    if not (mbps > 0 and _finite(mbps)):
        raise ValueError(f"bandwidth must be finite and strictly positive, got {mbps!r}")


def _check_size(size_mb: float) -> None:
    if not (size_mb >= 0 and _finite(size_mb)):
        raise ValueError(f"size must be finite and non-negative, got {size_mb!r}")


def _cumulative_bytes(manifest_or_sizes) -> list[int]:
    if isinstance(manifest_or_sizes, LayerManifest):
        manifest_or_sizes = manifest_or_sizes.cumulative_sizes
    try:
        sizes = [operator.index(s) for s in manifest_or_sizes]
    except TypeError as exc:
        raise ValueError(f"cumulative layer sizes must be integers: {exc}") from None
    if not sizes:
        raise ValueError("manifest must describe at least one layer")
    if sizes[0] <= 0:
        raise ValueError("the base layer must hold at least one byte")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("cumulative layer sizes must be strictly increasing")
    return sizes


def simulate(
    manifest: Union[LayerManifest, Sequence[int]],
    trace: BandwidthTrace,
) -> StreamTimeline:
    """Place the layer-upgrade timeline on the trace's byte-arrival integral.

    ``manifest`` supplies cumulative prefix sizes in bytes (a LayerManifest
    or a raw ascending sequence of integers, the first positive). A
    layer-complete event fires at the exact instant its prefix finishes;
    zero-throughput runs emit stall begin/end events while the download is
    still incomplete. If the trace ends before the base layer completes the
    result is an incomplete-stream timeline (final level None), not an error.
    """
    sizes = _cumulative_bytes(manifest)
    g = trace._integral
    events: list[StreamEvent] = []
    completions: list[Fraction] = []
    placed = 0  # zero-rate runs already in ``events``
    for layer, size in enumerate(sizes):
        target = size * g.units_per_byte
        j = bisect_left(g.arrived, target)  # the positive-rate segment in which this prefix completes
        if j == len(g.arrived):
            break
        before = bisect_right(g.runs_after, j)
        events.extend(e for pair in g.stalls[placed:before] for e in pair)
        placed = before
        rate = g.rates[j]
        missing = target - (g.arrived[j - 1] if j else 0)
        completions.append(Fraction(g.starts[j] * rate + missing, g.ticks_per_s * rate))
        events.append(StreamEvent(completions[-1], "layer-complete", layer, Fraction(size)))

    if len(completions) == len(sizes):
        total = Fraction(sizes[-1])
    else:
        events.extend(e for pair in g.stalls[placed:] for e in pair)
        total = Fraction(g.arrived[-1] if g.arrived else 0, g.units_per_byte)
    return StreamTimeline(
        events=tuple(events),
        first_frame_time=completions[0] if completions else None,
        final_level=len(completions) - 1 if completions else None,
        total_bytes=total,
    )


def emit_abr_manifest(manifest: LayerManifest, base_url: str) -> str:
    """JSON manifest listing the layers as byte-range representations.

    Each representation addresses a prefix range [0, S_level) of the single
    container file, so an ABR client upgrades by fetching only the next
    incremental range. Output is deterministic for identical inputs.
    """
    cumulative = manifest.cumulative_sizes
    representations = []
    for level, end in enumerate(cumulative):
        representations.append(
            {
                "id": f"layer-{level}",
                "level": level,
                "description": LAYER_DESCRIPTIONS[level],
                "byte_range": {"start": 0, "end": end},
                "incremental_range": {"start": 0 if level == 0 else cumulative[level - 1], "end": end},
                "cumulative_bytes": end,
            }
        )
    payload = {
        "url": base_url,
        "total_bytes": manifest.total_bytes,
        "representations": representations,
    }
    return json.dumps(payload, indent=2)


def latency_table(
    manifests: Sequence[Union[LayerManifest, float]],
    bandwidths: Sequence[float],
    labels: Sequence[str] | None = None,
) -> list[dict]:
    """First-frame latency grid over (model size, bandwidth) pairs.

    Entries of ``manifests`` are either LayerManifest objects (their total
    size is used) or plain sizes in decimal MB. Returns one row per model
    with per-bandwidth latencies in seconds. ``labels``, when given, names
    each entry; raises ``ValueError`` when their counts differ or when
    ``bandwidths`` is empty.
    """
    for b in bandwidths:
        _check_bandwidth(b)
    if labels is not None and len(labels) != len(manifests):
        raise ValueError(f"{len(labels)} labels for {len(manifests)} entries")
    rows = []
    for i, entry in enumerate(manifests):
        size_mb = entry.total_bytes / BYTES_PER_MB if isinstance(entry, LayerManifest) else entry
        label = f"model-{i}" if labels is None else labels[i]
        try:
            _check_size(size_mb)
            latencies = [first_frame_latency(size_mb, b) for b in bandwidths]
        except ValueError as exc:
            raise ValueError(f"{label}: {exc}") from None
        rows.append({"label": label, "size_mb": float(size_mb), "latency_s": latencies})
    if not bandwidths:  # checked after the sizes, so that a bad size is still named first
        raise ValueError("the bandwidths list is empty")
    return rows


def latency_table_csv(rows: list[dict], bandwidths: Sequence[float]) -> str:
    """CSV rendering of a latency grid, two decimal places; a label with a comma or quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "size_mb", *(f"latency_{b:g}mbps_s" for b in bandwidths)])
    for row in rows:
        writer.writerow([row["label"], f"{row['size_mb']:g}", *(f"{v:.2f}" for v in row["latency_s"])])
    return out.getvalue()
