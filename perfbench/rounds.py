"""The closed loop: rounds of one workload, timed, with every output checked.

A round produces one asset (trained or synthetic masks), encodes it, and
serves it to the workload's client sessions. Only calls into pd4g are timed;
the checks in ``oracle`` run between them, with tracing paused.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import oracle
from pd4g import bitstream, stream, toyscene
from workloads import LATENCY_BANDWIDTHS_MBPS

MIN_ROUNDS = 3
MIN_TAIL_SAMPLES = 200  # a p95 needs ten samples beyond it
HARD_LIMIT_S = 140.0


@dataclass
class Record:
    """Samples and check outcomes of one run's timed rounds."""

    pipeline_s: list = field(default_factory=list)
    busy_s: list = field(default_factory=list)  # all timed work per round
    encode_ms: list = field(default_factory=list)
    first_decode_ms: list = field(default_factory=list)
    full_decode_ms: list = field(default_factory=list)
    replay_ms: list = field(default_factory=list)
    psnr: list = field(default_factory=list)  # (level 0, level 2) per round
    bytes: list = field(default_factory=list)  # (base, total) per round
    digests: list = field(default_factory=list)
    train_s: float = 0.0
    train_steps: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])

    def absorb_checks(self, other: "Record") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def enough(self, quality_rounds: int) -> bool:
        return len(self.pipeline_s) >= max(MIN_ROUNDS, quality_rounds) and min(
            len(self.first_decode_ms), len(self.full_decode_ms), len(self.replay_ms)
        ) >= MIN_TAIL_SAMPLES


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def decoded_psnr(scene, decoded, level: int) -> float:
    """Mean PSNR over timesteps of the client's render of a decoded prefix."""
    view = toyscene.ToyScene(
        anchors=decoded.anchors,
        deformations=decoded.deformations,
        image_size=scene.image_size,
        ground_truth=scene.ground_truth,
    )
    values = [
        toyscene.psnr(toyscene.render(view, decoded.bank, level, float(t)), scene.ground_truth[k])
        for k, t in enumerate(scene.deformations.timesteps)
    ]
    return statistics.fmean(values)


class Runner:
    """Runs rounds of one workload and checks every output."""

    def __init__(self, inputs, tracer=None):
        self.inputs = inputs
        self.tracer = tracer
        self.integrals = {text: oracle.TraceIntegral(text) for text in set(inputs.traces)}

    def quiet(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def session(self, label: str) -> None:
        if self.tracer:
            self.tracer.session = label

    def round(self, i: int, rec: Record) -> None:
        try:
            self._round(i, rec)
        except Exception:  # a crashed operation is a failed one; keep measuring
            rec.attempted += 1
            rec.failed += 1
            rec.problems.append(f"round {i} raised: {traceback.format_exc(limit=3)}")
            traceback.print_exc(file=sys.stderr)

    def _round(self, i: int, rec: Record) -> None:
        """Produce and encode one asset, then serve it to the round's sessions.

        ``pipeline_s`` is the author-to-first-client path: masks, encode,
        manifest and session 0. ``busy_s`` adds the other sessions.
        """
        inputs = self.inputs
        scene = inputs.scene(i)
        self.session(f"r{i}")
        produce = 0.0
        if inputs.training:
            t = inputs.training
            (bank, _), produce = _timed(
                toyscene.train_masks,
                scene,
                t.weights,
                t.rollout_config,
                steps=t.steps,
                seed=inputs.train_seed(i),
                learning_rate=t.learning_rate,
                progressive_start=t.progressive_start,
                threshold=t.threshold,
                quant_steps=t.quant_steps,
            )
            rec.train_s += produce
            rec.train_steps += t.steps
        else:
            bank = inputs.synthetic_masks(i)
        blob, elapsed = _timed(bitstream.encode, scene.anchors, bank, scene.deformations, inputs.encode_config)
        rec.encode_ms.append(elapsed * 1e3)
        man, manifest_s = _timed(bitstream.manifest, blob)
        produce += elapsed + manifest_s
        rec.digests.append(hashlib.sha256(blob).hexdigest())
        rec.bytes.append((man.cumulative_sizes[0], man.total_bytes))
        with self.quiet():
            expectations = oracle.prefix_expectations(scene, bank, inputs.encode_config.quant_steps)
            rec.check(oracle.check_constant_rate(man.cumulative_sizes, 10.0), f"round {i} constant-rate replay")

        catalogue = inputs.catalogue + [(f"round-{i}", list(man.cumulative_sizes), man)]
        psnr = {}
        sessions = [
            self._session(i, j, rec, blob, man, catalogue, expectations, psnr)
            for j in range(inputs.workload.sessions_per_round)
        ]
        rec.pipeline_s.append(produce + sessions[0])
        rec.busy_s.append(produce + sum(sessions))
        rec.psnr.append((psnr[0], psnr[2]))

    def _session(self, i, j, rec, blob, man, catalogue, expectations, psnr) -> float:
        """One client: replay its traces over the catalogue, then decode arriving prefixes.

        Returns the session's timed seconds. The first boundary decodes of
        levels 0 and 2 are rendered into ``psnr``.
        """
        inputs = self.inputs
        bandwidths = LATENCY_BANDWIDTHS_MBPS
        cumulative = man.cumulative_sizes
        scene = inputs.scene(i)
        self.session(f"r{i}s{j}")
        texts = inputs.session_traces(i, j)
        start = time.perf_counter()
        replays = []
        for text in texts:
            trace = stream.BandwidthTrace.from_csv(text)
            replays.append([stream.simulate(sizes, trace) for _, sizes, _ in catalogue])
        abr = stream.emit_abr_manifest(man, f"round-{i}.pd4g")
        rows = stream.latency_table([e for _, _, e in catalogue], bandwidths, [label for label, _, _ in catalogue])
        busy = time.perf_counter() - start
        rec.replay_ms.append(busy * 1e3)
        with self.quiet():
            problems = []
            for text, timelines in zip(texts, replays):
                for (_, sizes, _), timeline in zip(catalogue, timelines):
                    problems += oracle.check_timeline(timeline, sizes, self.integrals[text])
            ends = [r["byte_range"]["end"] for r in json.loads(abr)["representations"]]
            if ends != list(cumulative):
                problems.append(f"ABR manifest ranges {ends} != {list(cumulative)}")
            sizes_mb = [e.total_bytes / 1e6 if hasattr(e, "total_bytes") else e for _, _, e in catalogue]
            problems += oracle.check_latency_table(rows, sizes_mb, bandwidths)
            rec.check(problems, f"round {i} session {j} replay")

        cuts = [(size, level) for level, size in enumerate(cumulative)]
        cuts.append(inputs.session_cut(i, j, cumulative))
        for nbytes, level in sorted(cuts):
            prefix = blob[:nbytes]
            decoded, elapsed = _timed(bitstream.decode_prefix, prefix)
            busy += elapsed
            if nbytes == len(blob):
                rec.full_decode_ms.append(elapsed * 1e3)
            elif level == 0:
                rec.first_decode_ms.append(elapsed * 1e3)
            with self.quiet():
                rec.check(
                    oracle.check_decode(decoded, expectations[level], scene.anchors.count),
                    f"round {i} session {j} decode of {nbytes}/{len(blob)} bytes",
                )
                if nbytes in cumulative and level in (0, 2) and level not in psnr:
                    psnr[level] = decoded_psnr(scene, decoded, level)
        return busy


def settle() -> None:
    """Move everything alive before timing out of the cyclic collector's reach.

    Without this, full collections scan the inputs and the oracle's cached
    trace integrals and pause for up to ~30 ms inside timed calls, which
    makes the latency tails depend on when a collection happens to land.
    """
    gc.collect()
    gc.freeze()


def run_loop(runner, rec: Record, budget_s: float, between=lambda elapsed: None) -> None:
    """Closed loop: rounds until the budget and the minimum sample counts are met.

    ``between(elapsed_s)`` runs after each round, outside every timed region.
    """
    settle()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= budget_s and rec.enough(runner.inputs.workload.scene_pool)):
            break
        runner.round(i, rec)
        between(time.perf_counter() - start)
        i += 1


def traced_loop(inputs, tracer, plain: Record, traced: Record, budget_s: float) -> int:
    """Pairs of the same round untraced and traced, alternating which runs first.

    One untraced warm-up round first keeps lazy initialisation out of both
    sides; its checks still count.
    """
    runners = {False: Runner(inputs), True: Runner(inputs, tracer)}
    warm_up = Record()
    runners[False].round(0, warm_up)
    plain.absorb_checks(warm_up)
    settle()
    start = time.perf_counter()
    pairs = 0
    while pairs == 0 or time.perf_counter() - start < budget_s:
        for with_trace in (False, True) if pairs % 2 == 0 else (True, False):
            if with_trace:
                tracer.install()
            try:
                runners[with_trace].round(pairs, traced if with_trace else plain)
            finally:
                tracer.remove()
        pairs += 1
    return pairs
