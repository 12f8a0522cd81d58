import csv
import fractions
import hashlib
import io
import json
import math
import random
import re
import sys
import time
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pd4g import bitstream, stream
from pd4g.acceptance import random_asset
from pd4g.stream import (
    MAX_EXPONENT,
    BandwidthTrace,
    TraceParseError,
    _parse_ratio,
    emit_abr_manifest,
    first_frame_latency,
    latency_table,
    latency_table_csv,
    simulate,
)


def _reference_simulate(sizes, trace):
    """The segment walk the simulator replaced, kept as its reference.

    Walks the trace one segment at a time in ``Fraction`` arithmetic and
    returns (events as field tuples, first-frame time, final level, total
    bytes).
    """
    thresholds = [Fraction(s) for s in sizes]
    events = []
    received = Fraction(0)
    now = Fraction(0)
    next_layer = 0
    stalled = False
    done = False
    for duration, mbps in trace.segments:
        if done:
            break
        rate = mbps * 10**6 / 8
        if rate == 0:
            if not stalled:
                events.append((now, "stall-begin", None, received))
                stalled = True
            now += duration
            continue
        if stalled:
            events.append((now, "stall-end", None, received))
            stalled = False
        seg_end = now + duration
        while next_layer < len(thresholds):
            reach = now + (thresholds[next_layer] - received) / rate
            if reach > seg_end:
                break
            events.append((reach, "layer-complete", next_layer, thresholds[next_layer]))
            next_layer += 1
        if next_layer >= len(thresholds):
            done = True
            received = thresholds[-1]
            now = events[-1][0]
        else:
            received += rate * duration
            now = seg_end
    if stalled and not done:
        events.append((now, "stall-end", None, received))
    completions = [e for e in events if e[1] == "layer-complete"]
    first = completions[0][0] if completions else None
    final = completions[-1][2] if completions else None
    return events, first, final, received


def _assert_matches_reference(sizes, trace):
    timeline = simulate(sizes, trace)
    events, first, final, total = _reference_simulate(sizes, trace)
    assert len(timeline.events) == len(events)
    for got, want in zip(timeline.events, events):
        assert (got.time, got.kind, got.layer, got.bytes_received) == want
        assert type(got.time) is Fraction and type(got.bytes_received) is Fraction
    assert timeline.first_frame_time == first
    assert timeline.final_level == final
    assert timeline.total_bytes == total and type(timeline.total_bytes) is Fraction


# quarter seconds at half-Mbps steps deliver whole bytes, so sizes can land on segment ends
_DURATIONS = st.one_of(
    st.integers(1, 120).map(lambda n: Fraction(n, 4)),
    st.fractions(min_value=Fraction(1, 100), max_value=30, max_denominator=200),
)
_RATES = st.one_of(
    st.just(Fraction(0)),
    st.integers(1, 160).map(lambda n: Fraction(n, 2)),
    st.fractions(min_value=Fraction(1, 10), max_value=80, max_denominator=20),
)


@st.composite
def _streams(draw):
    """A 1-12 segment trace (about a third of them zero-rate) and 1-3 ascending sizes.

    Sizes are drawn from the floor and ceiling of the byte count at each
    segment end (exact when that count is an integer) and from a range
    reaching past the trace's total, which leaves some streams incomplete.
    """
    segments = draw(st.lists(st.tuples(_DURATIONS, _RATES), min_size=1, max_size=12))
    ends = list(accumulate(d * m * 125_000 for d, m in segments))
    near_ends = sorted({b for e in ends if e > 0 for b in (math.floor(e), math.ceil(e)) if b > 0})
    anywhere = st.integers(1, 2 * math.ceil(ends[-1]) + 10)
    pool = st.one_of(st.sampled_from(near_ends), anywhere) if near_ends else anywhere
    sizes = draw(st.lists(pool, min_size=1, max_size=3, unique=True))
    return BandwidthTrace(segments=tuple(segments)), sorted(sizes)


def _benchmark_style_trace(seed: int) -> str:
    """1000 segments: 0.05-0.25 s at 2-50 Mbps, 5% of them 0.5-2 s zero-rate collapses."""
    rng = np.random.default_rng(seed)
    lines = ["# seeded trace: duration_s,mbps"]
    for _ in range(1000):
        if rng.random() < 0.05:
            lines.append(f"{rng.uniform(0.5, 2.0):.3f},0")
        else:
            lines.append(f"{rng.uniform(0.05, 0.25):.3f},{rng.uniform(2.0, 50.0):.1f}")
    return "\n".join(lines) + "\n"


TRACES = Path(__file__).resolve().parent.parent / "traces"
# characters of trace numbers, plus a non-breaking space and an Arabic-Indic one
_NUMBER_CHARS = "0123456789+-./eE _\t\xa0\u0661"
_DIGIT_RUNS = st.lists(st.text("0123456789", min_size=1, max_size=4), min_size=1, max_size=3).map("_".join)


@st.composite
def _grammar_fields(draw):
    """A field built from the number grammar: sign, digits, ratio or decimal and exponent, whitespace."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = draw(st.one_of(st.just(""), _DIGIT_RUNS))
    if draw(st.booleans()):
        body = f"{whole}/{draw(st.one_of(st.just('0'), _DIGIT_RUNS))}"
    else:
        point = draw(st.sampled_from(["", "."])) + draw(st.one_of(st.just(""), _DIGIT_RUNS))
        exponent = draw(
            st.one_of(
                st.just(""),
                st.builds(
                    "{}{}{}".format,
                    st.sampled_from("eE"),
                    st.sampled_from(["", "+", "-"]),
                    st.one_of(st.integers(0, 1100).map(str), _DIGIT_RUNS),
                ),
            )
        )
        body = whole + point + exponent
    space = st.text(" \t\n\xa0", max_size=2)
    return draw(space) + sign + body + draw(space)


def _fraction_reference(field: str):
    """``Fraction(field)``, the exception type it raises, or "beyond" for an exponent past ``MAX_EXPONENT``.

    The exponent is read with the standard library's own pattern and never
    handed to ``Fraction``, which would build its power of ten.
    """
    match = fractions._RATIONAL_FORMAT.match(field)
    if match and match.group("exp"):
        try:
            if abs(int(match.group("exp"))) > MAX_EXPONENT:
                return "beyond"
        except ValueError:  # more digits than ``int`` reads; ``Fraction`` refuses it below
            pass
    try:
        return Fraction(field)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _fraction_segments(text: str) -> tuple:
    """A trace's segments as ``Fraction(str)`` reads its fields."""
    segments = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            duration, mbps = body.split(",")
            segments.append((Fraction(duration), Fraction(mbps)))
    return tuple(segments)


def _reference_from_csv(text: str):
    """The per-line loop ``from_csv`` ran before it read each distinct field once.

    Returns the segments, or the ``TraceParseError`` that loop raised.
    """
    segments = []
    for number, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split(",")
        if len(parts) != 2:
            return TraceParseError(number, f"expected 'duration_s,mbps', got {line!r}")
        try:
            duration, mbps = _parse_ratio(parts[0]), _parse_ratio(parts[1])
            if duration[0] <= 0:
                raise ValueError("segment durations must be positive")
            if mbps[0] < 0:
                raise ValueError("throughput cannot be negative")
            segments.append((Fraction(*duration), Fraction(*mbps)))
        except (ValueError, ZeroDivisionError) as exc:
            return TraceParseError(number, f"{exc} in {line!r}")
    if not segments:
        return TraceParseError(0, "trace file holds no segments")
    return tuple(segments)


# few enough fields that they repeat across lines and columns: valid, zero,
# negative, malformed, zero-denominator and beyond-exponent numbers
_FIELD_POOL = (
    ["1", " 1", "8", "0", "-0", "-1", "0.5", ".25", "+2.5e-1"]
    + ["1/3", "3/1_0", "-2/3", "1/0", "abc", "", "1e1001"]
)
_TRACE_LINES = st.one_of(
    st.builds("{},{}".format, st.sampled_from(_FIELD_POOL), st.sampled_from(_FIELD_POOL)),
    st.builds("{},{} # note".format, st.sampled_from(_FIELD_POOL), st.sampled_from(_FIELD_POOL)),
    st.sampled_from(["", "  ", "# comment", "8", "1,2,3"]),
)


# size lists replayed by the timeline pin: a base layer, the benchmark's
# catalogue-like ladders, and one past every pinned trace's total
_PINNED_SIZES = ([436_000], [400_000, 1_100_000, 9_000_000], [436_000, 1_623_000, 6_898_000], [232_400_000])
# sha256 of repr((events, first_frame_time, final_level, total_bytes)) over
# ``_PINNED_SIZES``, recorded while traces were still stored as Fractions
_PINNED_TIMELINES = {
    "constant_2mbps.csv": "fb8936b99b7a3b8c9e90d9fddfdfed54c434877a0139d40bb97ac6325b95f38c",
    "collapse_and_recover.csv": "f70600784dc32643308fdb4eefc9667557476fa81d4305b17df908366314c50f",
    931: "3d6e14d884fa7a646f17a35ba6e2319874853be16090cd4826f5e47b1f51bafb",
    7: "d2fd09615825ae25eab4ad8cbf24fd3d5fb4c0ebea5447249ce46ff7a08b58e0",
    6301: "0ed3f312082139699474d175acfc4a51bc85842b22c0ba8ee69f6713e0ed6df5",
}


class TestFirstFrameLatency:
    def test_published_cells(self):
        assert first_frame_latency(0.436, 2) == pytest.approx(1.744, abs=1e-12)
        assert first_frame_latency(6.88, 50) == pytest.approx(1.1008, abs=1e-12)
        assert first_frame_latency(18.37, 2) == pytest.approx(73.48, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            first_frame_latency(1.0, 0.0)
        with pytest.raises(ValueError):
            first_frame_latency(-1.0, 2.0)
        for bad in (math.nan, math.inf, -math.inf, 10**400):  # 10**400 overflows a float
            with pytest.raises(ValueError, match=repr(bad)):
                first_frame_latency(1.0, bad)
            with pytest.raises(ValueError, match=repr(bad)):
                first_frame_latency(bad, 2.0)

    def test_overflowing_quotient_rejected(self):
        # both inputs are finite, but 8 * size / bandwidth is not
        with pytest.raises(ValueError, match="overflows"):
            first_frame_latency(1e308, 1e-300)

    def test_doubling_bandwidth_halves_latency(self):
        for size in (0.436, 6.88, 232.4):
            assert first_frame_latency(size, 4) == pytest.approx(first_frame_latency(size, 2) / 2)


class TestSimulate:
    SIZES = [436000, 1623000, 6898000]

    def test_constant_trace_layer_completions(self):
        timeline = simulate(self.SIZES, BandwidthTrace.constant(2))
        times = [float(e.time) for e in timeline.events if e.kind == "layer-complete"]
        assert times == pytest.approx([1.744, 6.492, 27.592], abs=1e-12)
        assert float(timeline.first_frame_time) == pytest.approx(1.744, abs=1e-12)
        assert timeline.final_level == 2

    def test_freeze_and_resume_after_collapse(self):
        trace = BandwidthTrace(
            segments=(
                (Fraction(1), Fraction(8)),  # 1 MB arrives
                (Fraction(2), Fraction(0)),  # throughput collapse
                (Fraction(1000), Fraction(8)),
            )
        )
        timeline = simulate(self.SIZES, trace)
        kinds = [e.kind for e in timeline.events]
        assert kinds == [
            "layer-complete",  # layer 0 at 0.436 s
            "stall-begin",
            "stall-end",
            "layer-complete",  # layer 1 resumes after recovery
            "layer-complete",
        ]
        stall_begin = timeline.events[1]
        assert stall_begin.time == Fraction(1)
        assert stall_begin.bytes_received == Fraction(1_000_000)
        assert timeline.events[2].time == Fraction(3)
        assert timeline.final_level == 2

    def test_incomplete_stream_is_a_result_not_an_error(self):
        trace = BandwidthTrace(segments=((Fraction(1, 10), Fraction(1)),))
        timeline = simulate(self.SIZES, trace)
        assert timeline.final_level is None
        assert timeline.first_frame_time is None
        assert timeline.total_bytes == Fraction(12500)

    def test_partial_layers_freeze_at_received_level(self):
        trace = BandwidthTrace(segments=((Fraction(1), Fraction(8)), (Fraction(100), Fraction(0))))
        timeline = simulate(self.SIZES, trace)
        assert timeline.final_level == 0
        assert [e.kind for e in timeline.events] == ["layer-complete", "stall-begin", "stall-end"]

    def test_near_infinite_bandwidth(self):
        timeline = simulate(self.SIZES, BandwidthTrace.constant(10**6))
        assert float(timeline.events[-1].time) < 1e-3

    def test_json_names_the_field_too_large_for_a_float(self):
        timeline = simulate([1000], BandwidthTrace.from_csv("1e400,1e-400\n"))
        assert timeline.first_frame_time == Fraction(8 * 10**397)
        with pytest.raises(ValueError, match=r"first_frame_time_s"):
            timeline.to_json()

    def test_exact_byte_integration(self):
        trace = BandwidthTrace(segments=((Fraction(1, 3), Fraction(7)), (Fraction(5, 7), Fraction(3))))
        timeline = simulate([10**9], trace)
        expected = Fraction(1, 3) * Fraction(7_000_000, 8) + Fraction(5, 7) * Fraction(3_000_000, 8)
        assert timeline.total_bytes == expected

    def test_segment_split_invariance(self):
        rng = np.random.default_rng(5)
        segments = tuple(
            (Fraction(int(rng.integers(1, 20)), 3), Fraction(int(rng.integers(0, 30)), 2))
            for _ in range(4)
        ) + ((Fraction(10**6), Fraction(4)),)
        halved = tuple(
            half for duration, mbps in segments for half in ((duration / 2, mbps), (duration / 2, mbps))
        )
        base = simulate(self.SIZES, BandwidthTrace(segments=segments))
        split = simulate(self.SIZES, BandwidthTrace(segments=halved))
        assert base.events == split.events

    def test_rejects_non_positive_base_size(self):
        for sizes in ([-5000, 10], [0, 10]):
            with pytest.raises(ValueError):
                simulate(sizes, BandwidthTrace.constant(8))

    def test_rejects_non_integral_sizes(self):
        for sizes in ([1.7, 2.9], [Fraction(3, 2)], ["436000"]):
            with pytest.raises(ValueError):
                simulate(sizes, BandwidthTrace.constant(8))

    def test_accepts_numpy_integer_sizes(self):
        sizes = np.array(self.SIZES, dtype=np.int64)
        assert simulate(sizes, BandwidthTrace.constant(2)).events == simulate(self.SIZES, BandwidthTrace.constant(2)).events

    def test_completion_exactly_at_segment_end_precedes_the_stall(self):
        trace = BandwidthTrace(segments=((Fraction(1), Fraction(8)), (Fraction(2), Fraction(0)), (Fraction(1), Fraction(8))))
        timeline = simulate([1_000_000, 1_500_000], trace)
        assert [(e.time, e.kind) for e in timeline.events] == [
            (Fraction(1), "layer-complete"),
            (Fraction(1), "stall-begin"),
            (Fraction(3), "stall-end"),
            (Fraction(7, 2), "layer-complete"),
        ]
        assert simulate([1_000_000], trace).events == timeline.events[:1]

    @settings(max_examples=300, deadline=None)
    @given(_streams())
    def test_matches_segment_walk(self, stream):
        trace, sizes = stream
        _assert_matches_reference(sizes, trace)

    @pytest.mark.parametrize("seed", [931, 7])
    def test_matches_segment_walk_on_benchmark_style_trace(self, seed):
        trace = BandwidthTrace.from_csv(_benchmark_style_trace(seed))
        total = sum(d * m * 125_000 for d, m in trace.segments)
        for sizes in ([436_000], [6_880_000], [232_400_000], [400_000, 1_100_000, 9_000_000], [math.floor(total) + 1]):
            _assert_matches_reference(sizes, trace)

    @pytest.mark.parametrize("source", list(_PINNED_TIMELINES))
    def test_timelines_pinned(self, source):
        text = (TRACES / source).read_text() if isinstance(source, str) else _benchmark_style_trace(source)
        trace = BandwidthTrace.from_csv(text)
        digest = hashlib.sha256()
        for sizes in _PINNED_SIZES:
            t = simulate(sizes, trace)
            digest.update(repr((t.events, t.first_frame_time, t.final_level, t.total_bytes)).encode())
        assert digest.hexdigest() == _PINNED_TIMELINES[source]

    @settings(max_examples=200, deadline=None)
    @given(_streams(), st.booleans())
    def test_rebuilt_from_segments_equals_the_trace(self, stream, via_csv):
        trace, sizes = stream
        if via_csv:
            text = "".join(f"{d},{m}\n" for d, m in trace.segments)
            trace = BandwidthTrace.from_csv(text)
        rebuilt = BandwidthTrace(segments=trace.segments)
        assert rebuilt == trace and hash(rebuilt) == hash(trace)
        every_field = [f.name for f in fields(BandwidthTrace)]  # the ratios and the integral built from them
        assert [getattr(rebuilt, f) for f in every_field] == [getattr(trace, f) for f in every_field]
        assert simulate(sizes, rebuilt) == simulate(sizes, trace)
        if via_csv:  # a trace whose segments were never read compares alike
            assert BandwidthTrace.from_csv(text) == rebuilt

    def test_completion_time_non_increasing_in_bandwidth(self):
        previous = None
        for bw in (1, 2, 5, 20, 100):
            timeline = simulate(self.SIZES, BandwidthTrace.constant(bw))
            final = timeline.events[-1].time
            if previous is not None:
                assert final <= previous
            previous = final


class TestTraceParsing:
    def test_round_trip(self):
        trace = BandwidthTrace.from_csv("1.5,8\n# comment\n2,0\n0.5,12.5\n")
        assert trace.segments == (
            (Fraction(3, 2), Fraction(8)),
            (Fraction(2), Fraction(0)),
            (Fraction(1, 2), Fraction(25, 2)),
        )

    def test_error_carries_line_number(self):
        with pytest.raises(TraceParseError) as err:
            BandwidthTrace.from_csv("1,8\nbogus line\n")
        assert err.value.line_number == 2
        with pytest.raises(TraceParseError):
            BandwidthTrace.from_csv("-1,8\n")

    def test_exponent_bound(self):
        for field in ("1e10000000", "1e1001", "1E-1001", "2.5e+0001001"):
            started = time.perf_counter()
            with pytest.raises(TraceParseError) as err:
                BandwidthTrace.from_csv(f"1,8\n{field},8\n")
            assert err.value.line_number == 2
            assert time.perf_counter() - started < 1.0
        with pytest.raises(TraceParseError):
            BandwidthTrace.from_csv("1,1e-1001\n")
        trace = BandwidthTrace.from_csv("1e300,8\n1e-1000,1e1000\n")
        assert trace.segments == ((Fraction(10**300), Fraction(8)), (Fraction(1, 10**1000), Fraction(10**1000)))

    def test_construction_and_parsing_validate_alike(self):
        assert BandwidthTrace.from_csv("1.5,8\n2,0\n") == BandwidthTrace(segments=(("1.5", 8), (2, "0")))
        with pytest.raises(ValueError):
            BandwidthTrace(segments=((0, 8),))
        with pytest.raises(ValueError):
            BandwidthTrace(segments=((1, -1),))
        with pytest.raises(ValueError):
            BandwidthTrace(segments=(("1e10000000", 8),))

    @pytest.mark.parametrize(
        "bad",
        [math.inf, -math.inf, math.nan, Decimal("Infinity"), Decimal("NaN"), Decimal("sNaN"), np.float64(np.inf)],
        ids=repr,
    )
    def test_non_finite_numbers_rejected(self, bad):
        builds = (
            lambda: BandwidthTrace(segments=((bad, 8),)),
            lambda: BandwidthTrace(segments=((1, 8), (1, bad))),
            lambda: BandwidthTrace.constant(bad),
        )
        for build in builds:
            with pytest.raises(ValueError, match=f"must be finite, got {re.escape(repr(bad))}"):
                build()

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the grammar is Python 3.11's Fraction(str)")
    @settings(max_examples=1500, deadline=None)
    @given(st.one_of(st.text(max_size=12), st.text(_NUMBER_CHARS, max_size=12), _grammar_fields()))
    @example("1.")
    @example(".5e-3")
    @example("1.e5")
    @example("1.d")
    @example("\xa0\u0661\u0662/\u0663 ")
    @example("1e\u0660\u0660\u0660\u0660\u0660\u0665")
    @example("-1/0")
    @example("1_0e1_0")
    @example("1e" + "9" * 5000)
    def test_parser_matches_fraction(self, field):
        want = _fraction_reference(field)
        if want == "beyond":
            with pytest.raises(ValueError):
                _parse_ratio(field)
        elif isinstance(want, type):
            with pytest.raises(want):
                _parse_ratio(field)
        else:
            numerator, denominator = _parse_ratio(field)
            assert denominator > 0 and Fraction(numerator, denominator) == want

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_TRACE_LINES, min_size=1, max_size=8).map("\n".join))
    @example("1,0\n0,8\n")
    @example("-1,abc")
    @example("8,1\n1,8\n8,-1\n")
    @example("abc,1\n8\n")
    @example("1,8\n# c\n\n1/0,8\n")
    @example("1,8\n1,-8\n")
    def test_parser_matches_per_line_reference(self, text):
        want = _reference_from_csv(text)
        try:
            got = BandwidthTrace.from_csv(text)
        except TraceParseError as exc:
            assert isinstance(want, TraceParseError), exc
            assert (exc.line_number, str(exc)) == (want.line_number, str(want))
        else:
            assert got.segments == want
            assert all(type(value) is Fraction for segment in got.segments for value in segment)

    def test_repeated_fields_are_checked_in_each_column_and_line(self):
        # "0" was read as a valid rate on line 1 and is still refused as a duration
        for text in ("1,0\n0,8\n", "1,0\n0,0\n"):
            with pytest.raises(TraceParseError) as err:
                BandwidthTrace.from_csv(text)
            assert err.value.line_number == 2 and "segment durations must be positive" in str(err.value)
        # both fields are parsed before either sign is checked
        with pytest.raises(TraceParseError, match="invalid number 'abc'"):
            BandwidthTrace.from_csv("-1,abc")

    @pytest.mark.parametrize("column", ["duration", "rate"])
    def test_denominator_bound(self, column):
        rng = random.Random(14)
        denominators = [rng.randrange(10**399, 10**400) for _ in range(1000)]
        lines = [f"1/{q},8" if column == "duration" else f"8,1/{q}" for q in denominators]
        common, crossing = 1, None
        for number, q in enumerate(denominators, start=1):
            common = math.lcm(common, q)
            if common >= 10**stream.MAX_DENOMINATOR_DIGITS:
                crossing = number
                break
        assert crossing is not None
        BandwidthTrace.from_csv("\n".join(lines[: crossing - 1]))
        started = time.perf_counter()
        with pytest.raises(TraceParseError, match=f"common {column} denominator") as err:
            BandwidthTrace.from_csv("\n".join(lines) + "\n")
        assert time.perf_counter() - started < 0.5
        assert err.value.line_number == crossing
        segments = [(Fraction(1, q), 8) if column == "duration" else (8, Fraction(1, q)) for q in denominators]
        with pytest.raises(ValueError, match=f"common {column} denominator"):
            BandwidthTrace(segments=tuple(segments))

    @pytest.mark.parametrize("name", ["constant_2mbps.csv", "collapse_and_recover.csv"])
    def test_bundled_traces_read_as_fraction_does(self, name):
        text = (TRACES / name).read_text()
        assert BandwidthTrace.from_csv(text).segments == _fraction_segments(text)

    @pytest.mark.parametrize("seed", [931, 7, 6301])
    def test_benchmark_style_traces_read_as_fraction_does(self, seed):
        text = _benchmark_style_trace(seed)
        segments = BandwidthTrace.from_csv(text).segments
        assert len(segments) == 1000 and segments == _fraction_segments(text)
        assert all(type(value) is Fraction for segment in segments for value in segment)


class TestAbrManifest:
    def _manifest(self):
        anchors, bank, table = random_asset(np.random.default_rng(3))
        return bitstream.manifest(bitstream.encode(anchors, bank, table))

    def test_nested_byte_ranges(self):
        man = self._manifest()
        doc = json.loads(emit_abr_manifest(man, "asset.pd4g"))
        reps = doc["representations"]
        assert len(reps) == 3
        ends = [r["byte_range"]["end"] for r in reps]
        assert all(r["byte_range"]["start"] == 0 for r in reps)
        assert ends == sorted(ends) and len(set(ends)) == 3

    def test_base_range_matches_manifest(self):
        man = self._manifest()
        doc = json.loads(emit_abr_manifest(man, "asset.pd4g"))
        assert doc["representations"][0]["byte_range"]["end"] == man.cumulative_sizes[0]
        assert doc["total_bytes"] == man.total_bytes

    def test_emission_deterministic(self):
        man = self._manifest()
        assert emit_abr_manifest(man, "x") == emit_abr_manifest(man, "x")


class TestLatencyTable:
    def test_single_cell(self):
        rows = latency_table([1.0], [8.0], labels=["one"])
        assert rows[0]["latency_s"] == [pytest.approx(1.0)]

    def test_grid_shape_and_csv(self):
        rows = latency_table([232.4, 0.436], [2, 10, 50], labels=["big", "base"])
        csv_text = latency_table_csv(rows, [2, 10, 50])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "label,size_mb,latency_2mbps_s,latency_10mbps_s,latency_50mbps_s"
        assert lines[1].startswith("big,232.4,929.60,")
        assert lines[2].endswith("1.74,0.35,0.07")

    def test_csv_quotes_labels_and_reads_back(self):
        labels = ["run/a,b.pd4g", 'say "hi"', "plain"]
        rows = latency_table([1.0, 2.0, 3.0], [2, 10], labels=labels)
        parsed = list(csv.reader(io.StringIO(latency_table_csv(rows, [2, 10]))))
        assert [row[0] for row in parsed] == ["label", *labels]
        assert [len(row) for row in parsed] == [4] * 4

    def test_manifest_entries_use_total_size(self):
        anchors, bank, table = random_asset(np.random.default_rng(4))
        man = bitstream.manifest(bitstream.encode(anchors, bank, table))
        rows = latency_table([man], [8.0], labels=["asset"])
        assert rows[0]["size_mb"] == pytest.approx(man.total_bytes / 1e6)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            latency_table([1.0], [0.0], labels=["one"])

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]], ids=["fewer", "more"])
    def test_rejects_label_count_mismatch(self, labels):
        with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 entries"):
            latency_table([1.0, 2.0], [2.0], labels=labels)

    def test_rejects_empty_bandwidths(self):
        with pytest.raises(ValueError, match="bandwidths list is empty"):
            latency_table([1.0], [], labels=["one"])

    def test_rejects_overflowing_latency(self):
        with pytest.raises(ValueError, match="huge: .*overflows"):
            latency_table([1e308], [1e-300], labels=["huge"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400], ids=["nan", "inf", "1e400"])
    def test_rejects_non_finite_inputs(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            latency_table([], [2.0, bad], labels=[])
        for bandwidths in ([2.0], []):
            with pytest.raises(ValueError, match=f"big: .*{bad!r}"):
                latency_table([1.0, bad], bandwidths, labels=["small", "big"])
