"""Tests of the benchmark itself: `python -m pytest perfbench` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import rounds  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pd4g import bitstream, entropy, stream  # noqa: E402


def test_benchmark_json_names_the_workloads_and_bounds_setup_widest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert "setup_s" in run.metric_units("end_to_end")


def _round_digests(name: str, seed: int, count: int) -> list[str]:
    inputs = workloads.build_inputs(name, seed)
    rec = rounds.Record()
    runner = rounds.Runner(inputs)
    for i in range(count):
        runner.round(i, rec)
    assert rec.failed == 0, rec.problems
    return rec.digests


@pytest.mark.parametrize("name,count", [("train-motion-dense", 1), ("codec-stress", 2), ("trace-replay", 2)])
def test_container_digests_repeat_for_a_seed(name, count):
    first = _round_digests(name, 7, count)
    assert first == _round_digests(name, 7, count)
    assert first != _round_digests(name, 8, count)


def test_trace_integral_matches_simulate_exactly():
    text = "# t,mbps\n0.5,8\n1.25,0\n2,3.5\n0.75,0\n100,12\n"
    sizes = [400_000, 1_100_000, 9_000_000]
    timeline = stream.simulate(sizes, stream.BandwidthTrace.from_csv(text))
    assert oracle.check_timeline(timeline, sizes, oracle.TraceIntegral(text)) == []
    integral = oracle.TraceIntegral(text)
    assert integral.time_to_receive(500_000) == Fraction(1, 2)  # exactly at the end of the first segment
    assert integral.time_to_receive(600_000) == Fraction(1, 2) + Fraction(5, 4) + Fraction(100_000, 437_500)
    assert integral.time_to_receive(10**12) is None


def test_check_decode_flags_a_wrong_field():
    inputs = workloads.build_inputs("trace-replay", 3)
    scene, bank = inputs.scene(0), inputs.synthetic_masks(0)
    blob = bitstream.encode(scene.anchors, bank, scene.deformations, inputs.encode_config)
    expected = oracle.prefix_expectations(scene, bank, inputs.encode_config.quant_steps)
    decoded = bitstream.decode_prefix(blob)
    assert oracle.check_decode(decoded, expected[2], scene.anchors.count) == []
    expected[2].anchors["scales"] = expected[2].anchors["scales"] + 1.0
    assert oracle.check_decode(decoded, expected[2], scene.anchors.count) == ["anchor field scales differs"]
    assert oracle.check_decode(decoded, expected[1], scene.anchors.count)[0].startswith("decoded max_level 2")


def test_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0, 100, -1, "s", None],
        ["child", 10, 40, 0, "s", None],
        ["grandchild", 15, 25, 1, "s", None],
        ["child", 50, 60, 0, "s", None],
    ]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_tracer_restores_every_attribute():
    before = (bitstream.lzma, bitstream.zlib, bitstream.encode, entropy.family_priors, stream.BandwidthTrace.from_csv)
    tracer = tracing.Tracer()
    tracer.install()
    assert bitstream.lzma is not before[0] and entropy.family_priors is not before[3]
    stream.BandwidthTrace.from_csv("1,2\n")
    tracer.remove()
    after = (bitstream.lzma, bitstream.zlib, bitstream.encode, entropy.family_priors, stream.BandwidthTrace.from_csv)
    assert after == before
    assert [s[tracing.NAME] for s in tracer.spans] == ["stream.from_csv"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec-stress", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
