"""Span tracing of pd4g's layers from outside the package.

``Tracer.install`` replaces module attributes of pd4g (functions such as
``entropy.family_priors``, and the ``lzma`` / ``zlib`` modules bitstream
uses) with wrappers that record a span per call. ``src/`` is untouched and
``Tracer.remove`` restores every attribute. Spans stay in memory as
``[name, start_ns, end_ns, parent, session, tag]``; a layer's self time is its
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from pd4g import bitstream, entropy, losses, rollout, seeds, stream, toyscene

NAME, START, END, PARENT, SESSION, TAG = range(6)

# (module, attribute, span name). Functions imported by name into another
# module are wrapped where they are looked up at call time.
_FUNCTIONS = (
    (toyscene, "make_scene", "toyscene.make_scene"),
    (toyscene, "train_masks", "toyscene.train_masks"),
    (toyscene, "render", "toyscene.render"),
    (toyscene, "activation_rate", "asset.activation_rate"),
    (toyscene, "derive_seed", "seeds.derive_seed"),
    (seeds, "derive_seed", "seeds.derive_seed"),
    (entropy, "family_priors", "entropy.family_priors"),
    (entropy, "per_anchor_bits", "entropy.per_anchor_bits"),
    (losses, "sample_pairs", "losses.sample_pairs"),
    (losses, "consistency_loss", "losses.consistency_loss"),
    (rollout, "sample_level", "rollout.sample_level"),
    (rollout, "current_distribution", "rollout.current_distribution"),
    (bitstream, "encode", "bitstream.encode"),
    (bitstream, "decode_prefix", "bitstream.decode_prefix"),
    (bitstream, "manifest", "bitstream.manifest"),
    (stream, "simulate", "stream.simulate"),
    (stream, "emit_abr_manifest", "stream.emit_abr_manifest"),
    (stream, "latency_table", "stream.latency_table"),
)


def _event_counts(args, timeline):
    return len(timeline.events), sum(e.kind == "stall-begin" for e in timeline.events)


class _ModuleProxy:
    """Stands in for a module: listed attributes are overridden, the rest pass through."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.session = "setup"
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []
        self._decompressed: dict[str, set] = defaultdict(set)

    def wrap(self, name, fn, tag=None):
        """``fn`` recording one span per call; ``tag(args, result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.session, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                self._stack.pop()
            if tag is not None:
                span[TAG] = tag(args, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, attr, name in _FUNCTIONS:
            tag = None
            if attr == "decode_prefix":
                tag = lambda args, result: result.max_level  # noqa: E731
            elif attr == "sample_level":
                tag = lambda args, result: result  # noqa: E731
            elif attr == "simulate":
                tag = _event_counts
            self._patch(module, attr, self.wrap(name, getattr(module, attr), tag))
        parse = stream.BandwidthTrace.from_csv
        self._patch(
            stream.BandwidthTrace,
            "from_csv",
            staticmethod(self.wrap("stream.from_csv", parse, lambda args, trace: len(trace.segments))),
        )
        lzma, zlib = bitstream.lzma, bitstream.zlib
        self._patch(
            bitstream,
            "lzma",
            _ModuleProxy(
                lzma,
                compress=self.wrap("bitstream.lzma_compress", lzma.compress, lambda a, out: (len(a[0]), len(out))),
                decompress=self.wrap("bitstream.lzma_decompress", lzma.decompress, self._decompress_tag),
            ),
        )
        self._patch(bitstream, "zlib", _ModuleProxy(zlib, crc32=self.wrap("bitstream.crc32", zlib.crc32)))

    def _decompress_tag(self, args, out):
        """(decompressed bytes, whether this session already decompressed the chunk)."""
        seen = self._decompressed[self.session]
        key = hash(args[0])
        redundant = key in seen
        seen.add(key)
        return len(out), redundant

    def remove(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def paused(self):
        """Calls made inside (correctness checks) record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans) -> list[int]:
    """Per-span duration minus the durations of its direct children, in ns."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, steps_per_train: int, untraced_steps_per_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and a breakdown of train and decode time from the spans.

    Training-internal layers are normalised per training step, bitstream
    write-side layers per encode, read-side layers per full-container decode,
    and stream layers per client session. Spans recorded during set-up only
    feed ``toyscene.make_scene_ms``.
    """
    own = self_times(spans)
    ms = 1e-6

    def ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return p
            p = spans[p][PARENT]
        return -1

    in_train = defaultdict(float)  # self ns per layer inside train_masks
    train_total = 0
    renders = []
    make_scene = []
    levels = [0, 0, 0]
    encode = defaultdict(float)
    encodes = 0
    layer_bytes = defaultdict(list)
    decode = defaultdict(lambda: defaultdict(float))  # max_level -> layer -> ns
    decodes = defaultdict(int)
    decompressed = [0, 0]  # total, redundant
    session_stream = defaultdict(float)
    sessions = set()
    manifests = []

    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "toyscene.make_scene":
            make_scene.append(s[END] - s[START])
            continue
        if s[SESSION] == "setup":
            continue
        train = ancestor(i, "toyscene.train_masks") if name != "toyscene.train_masks" else i
        if train >= 0:
            in_train[name] += own[i]
            if name == "toyscene.train_masks":
                train_total += s[END] - s[START]
            if name == "toyscene.render":
                renders.append(s[END] - s[START])
            if name == "rollout.sample_level":
                levels[s[TAG]] += 1
            continue
        if name.startswith("stream."):
            sessions.add(s[SESSION])
            session_stream[name] += own[i]
            if name == "stream.from_csv":
                session_stream["segments"] += s[TAG]
            if name == "stream.simulate":
                session_stream["events"] += s[TAG][0]
                session_stream["stall_events"] += s[TAG][1]
            continue
        if name == "bitstream.manifest":
            manifests.append(s[END] - s[START])
            continue
        enc = ancestor(i, "bitstream.encode") if name != "bitstream.encode" else i
        if enc >= 0:
            encode[name] += own[i]
            if name == "bitstream.encode":
                encodes += 1
            if name == "bitstream.lzma_compress":
                layer = sum(1 for j in range(enc + 1, i) if spans[j][NAME] == name)
                layer_bytes[layer].append(s[TAG])
            continue
        dec = ancestor(i, "bitstream.decode_prefix") if name != "bitstream.decode_prefix" else i
        if dec >= 0:
            level = spans[dec][TAG]
            decode[level][name] += own[i]
            if name == "bitstream.decode_prefix":
                decodes[level] += 1
            if name == "bitstream.lzma_decompress":
                size, redundant = s[TAG]
                decompressed[0] += size
                decompressed[1] += size * redundant

    train_runs = sum(1 for s in spans if s[NAME] == "toyscene.train_masks")
    traced_steps = train_runs * steps_per_train

    def per_step(name):
        return in_train[name] * ms / traced_steps if traced_steps else 0.0

    def mean(values):
        return sum(values) * ms / len(values) if values else 0.0

    def per_encode(name):
        return encode[name] * ms / encodes if encodes else 0.0

    def per_full_decode(name):
        return decode[2][name] * ms / decodes[2] if decodes[2] else 0.0

    def per_session(key, scale=ms):
        return session_stream[key] * scale / len(sessions) if sessions else 0.0

    metrics = {
        "toyscene.train_steps_per_s": untraced_steps_per_s,
        "toyscene.train_self_ms_per_step": per_step("toyscene.train_masks"),
        "toyscene.render_ms": mean(renders),
        "toyscene.make_scene_ms": mean(make_scene),
        "entropy.family_priors_ms": per_step("entropy.family_priors"),
        "entropy.per_anchor_bits_ms": per_step("entropy.per_anchor_bits"),
        "losses.sample_pairs_ms": per_step("losses.sample_pairs"),
        "losses.consistency_loss_ms": per_step("losses.consistency_loss"),
        "rollout.sample_level_ms": per_step("rollout.sample_level"),
        "rollout.current_distribution_ms": per_step("rollout.current_distribution"),
        "rollout.level_count_l0": levels[0] / train_runs if train_runs else 0.0,
        "rollout.level_count_l1": levels[1] / train_runs if train_runs else 0.0,
        "rollout.level_count_l2": levels[2] / train_runs if train_runs else 0.0,
        "seeds.derive_seed_ms": per_step("seeds.derive_seed"),
        "asset.activation_rate_ms": per_step("asset.activation_rate"),
        "bitstream.serialize_ms": per_encode("bitstream.encode"),
        "bitstream.lzma_compress_ms": per_encode("bitstream.lzma_compress"),
        "bitstream.crc_ms": per_encode("bitstream.crc32"),
        "bitstream.decode_assemble_ms": per_full_decode("bitstream.decode_prefix"),
        "bitstream.lzma_decompress_ms": per_full_decode("bitstream.lzma_decompress"),
        "bitstream.crc_verify_ms": per_full_decode("bitstream.crc32"),
        "bitstream.manifest_ms": mean(manifests),
        "bitstream.redundant_decompress_share": decompressed[1] / decompressed[0] if decompressed[0] else 0.0,
        "stream.from_csv_ms": per_session("stream.from_csv"),
        "stream.segments_parsed": per_session("segments", 1),
        "stream.simulate_ms": per_session("stream.simulate"),
        "stream.events": per_session("events", 1),
        "stream.stall_events": per_session("stall_events", 1),
        "stream.emit_abr_manifest_ms": per_session("stream.emit_abr_manifest"),
        "stream.latency_table_ms": per_session("stream.latency_table"),
    }
    for layer in range(3):
        sizes = layer_bytes[layer]
        metrics[f"bitstream.raw_bytes_l{layer}"] = sum(r for r, _ in sizes) / len(sizes) if sizes else 0.0
        metrics[f"bitstream.compressed_bytes_l{layer}"] = sum(c for _, c in sizes) / len(sizes) if sizes else 0.0

    breakdown = {
        "train_ms": train_total * ms,
        "train_self_ms_by_layer": {k: v * ms for k, v in sorted(in_train.items())},
        "decode_ms_by_max_level": {
            str(level): {"decodes": decodes[level], **{k: v * ms / decodes[level] for k, v in sorted(parts.items())}}
            for level, parts in sorted(decode.items())
        },
    }
    return metrics, breakdown
