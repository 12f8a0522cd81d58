#!/usr/bin/env python3
"""pd4g benchmark: one closed-loop client, three workloads, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload codec-stress --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs each round twice, untraced and traced, and reports per-layer metrics
from the spans plus the tracing overhead. Every pd4g output is checked outside
the timed region; a violated check counts as a failed operation. The last
line of standard output is the JSON result; a fuller record (sample counts,
environment, container digests, spans) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Set-ups per run. The first builds the inputs; the rest are spread over the
# measured loop, so that their median spans the host's speed changes.
SETUP_REPEATS = 10


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, which defines the metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def percentile(samples: list[float], p: int) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(rec, setup_times: list[float], quality_rounds: int) -> tuple[dict, dict]:
    """Every end-to-end metric with its statistic and sample count, plus medians.

    Per-operation latencies are bounded at p95 and per-round ones at p90, not
    at the median: the host alternates between a fast and a slow speed mode
    for seconds at a time, and a run's median lands in either mode while the
    tail stays in the slow one. The medians are returned for information only.

    PSNR and container bytes average the first ``quality_rounds`` rounds (one
    pass over the scene pool), so they depend on the seed and not on how many
    rounds the machine managed.
    """
    psnr, sizes = rec.psnr[:quality_rounds], rec.bytes[:quality_rounds]
    values = {
        "setup_s": (statistics.median(setup_times), "median", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "peak", 1),
        "pipeline_s_p90": (percentile(rec.pipeline_s, 90), "p90 of rounds", len(rec.pipeline_s)),
        "psnr_l0_db": (statistics.fmean(p for p, _ in psnr), "mean round", len(psnr)),
        "psnr_l2_db": (statistics.fmean(p for _, p in psnr), "mean round", len(psnr)),
        "base_bytes": (statistics.fmean(b for b, _ in sizes), "mean container", len(sizes)),
        "total_bytes": (statistics.fmean(t for _, t in sizes), "mean container", len(sizes)),
        "encode_ms_p50": (statistics.median(rec.encode_ms), "median", len(rec.encode_ms)),
    }
    medians = {"pipeline_ms_p50": statistics.median(rec.pipeline_s) * 1e3}
    for name, samples in (
        ("first_decode_ms", rec.first_decode_ms),
        ("full_decode_ms", rec.full_decode_ms),
        ("replay_ms", rec.replay_ms),
    ):
        values[f"{name}_p95"] = (percentile(samples, 95), "p95", len(samples))
        medians[f"{name}_p50"] = statistics.median(samples)
    metrics = {}
    for name, unit in metric_units("end_to_end").items():
        value, how, n = values[name]
        metrics[name] = {"value": value, "unit": unit, "statistic": how, "samples": n}
    return metrics, medians


def environment() -> dict:
    """Core count, cgroup limits, CPU model, library versions and BLAS threads."""
    import ctypes

    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = {}  # numpy and scipy may each bundle their own OpenBLAS
    for line in (read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in path and Path(path).name not in blas_threads:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    blas_threads[Path(path).name] = getattr(lib, symbol)()
                    break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup": {
            name: read(path)
            for name, path in (
                ("cpu.max", "/sys/fs/cgroup/cpu.max"),
                ("memory.max", "/sys/fs/cgroup/memory.max"),
                ("cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
                ("cpu.cfs_period_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
                ("memory.limit_in_bytes", "/sys/fs/cgroup/memory/memory.limit_in_bytes"),
            )
        },
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "process_threads": "one process; its only extra threads are BLAS's",
    }


def measured_run(args, detail: dict):
    """Untraced run: set up, run the closed loop with further set-ups between rounds; end-to-end metrics."""
    import rounds
    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed)
    setup_times = [inputs.setup_s]

    def set_up_again(elapsed: float) -> None:
        if len(setup_times) < SETUP_REPEATS and elapsed >= args.seconds * len(setup_times) / SETUP_REPEATS:
            setup_times.append(workloads.build_inputs(args.workload, args.seed).setup_s)

    rec = rounds.Record()
    rounds.run_loop(rounds.Runner(inputs), rec, args.seconds, between=set_up_again)
    while len(setup_times) < SETUP_REPEATS:  # rounds too long to fit them all in
        setup_times.append(workloads.build_inputs(args.workload, args.seed).setup_s)
    details, medians = end_to_end(rec, setup_times, inputs.workload.scene_pool)
    detail["metrics"] = details
    detail["medians_ms"] = medians
    detail["samples"] = {
        "setup_s": setup_times,
        "pipeline_s": rec.pipeline_s,
        "encode_ms": rec.encode_ms,
        "first_decode_ms": rec.first_decode_ms,
        "full_decode_ms": rec.full_decode_ms,
        "replay_ms": rec.replay_ms,
    }
    for name, d in details.items():
        print(f"{name:22s} {d['value']:14.6g} {d['unit']:6s} {d['statistic']} of {d['samples']}")
    print("medians (information, not bounded):", ", ".join(f"{k} {v:.4g} ms" for k, v in medians.items()))
    return rec, {name: {"value": d["value"], "unit": d["unit"]} for name, d in details.items()}


def traced_run(args, detail: dict, spans_path: Path):
    """Traced run: per-layer metrics from paired untraced and traced rounds."""
    import rounds
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    inputs = workloads.build_inputs(args.workload, args.seed)
    tracer.remove()
    plain, rec = rounds.Record(), rounds.Record()
    pairs = rounds.traced_loop(inputs, tracer, plain, rec, args.seconds)
    metrics, breakdown = tracing.layer_metrics(
        tracer.spans,
        steps_per_train=inputs.training.steps if inputs.training else 0,
        untraced_steps_per_s=plain.train_steps / plain.train_s if plain.train_s else 0.0,
    )
    base, traced = sum(plain.busy_s), sum(rec.busy_s)
    metrics["trace.overhead_pct"] = 100.0 * (traced - base) / base
    breakdown["overhead"] = {"round_pairs": pairs, "untraced_s": base, "traced_s": traced}
    rec.absorb_checks(plain)
    tracer.write(spans_path)
    detail["breakdown"] = breakdown

    result = {name: {"value": metrics[name], "unit": unit} for name, unit in metric_units("per_layer").items()}
    for name, item in result.items():
        print(f"{name:38s} {item['value']:14.6g} {item['unit']}")
    if breakdown["train_ms"]:
        print(f"train time by layer (self, share of {breakdown['train_ms']:.1f} ms):")
        for name, value in breakdown["train_self_ms_by_layer"].items():
            print(f"  {name:34s} {100.0 * value / breakdown['train_ms']:6.2f}%")
    print("decode time per call by max_level:", json.dumps(breakdown["decode_ms_by_max_level"]))
    print(f"tracing overhead: {metrics['trace.overhead_pct']:.2f}% over {pairs} pairs of rounds")
    return rec, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "pd4g" / "__init__.py").is_file():
        print(f"pd4g sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "environment": environment()}
    if args.trace:
        rec, result = traced_run(args, detail, stem.with_name(stem.name + "-spans.jsonl"))
    else:
        rec, result = measured_run(args, detail)
    detail["container_sha256"] = rec.digests
    detail["problems"] = rec.problems[:50]
    stem.with_name(stem.name + ".json").write_text(json.dumps(detail, indent=2) + "\n")
    for problem in rec.problems[:10]:
        print("FAILED", problem, file=sys.stderr)
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
