#!/usr/bin/env python3
"""Compare two sets of benchmark results: parent runs against change runs.

Usage (from the repository root):

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*.json`` records that ``perfbench/run.py --trace 0``
writes to ``perfbench/results/``. Runs are paired by (workload, seed). For
every end-to-end metric in ``BENCHMARK.json`` the report gives, per workload:

- the median parent and change values over the pairs;
- the relative change of the medians;
- pair wins: the pairs in which the change is better, in the metric's
  direction;
- whether the change's median is worse than the parent's by more than the
  metric's bound, a fraction of the parent's median.

It also counts the pairs whose container digests differ on their common
rounds and prints every record with a non-empty ``problems`` list. The exit
status is 1 if any of these three checks finds something, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> result record; traced records, which hold no end-to-end metrics, are skipped."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "metrics" in record:
            runs[(record["workload"], record["seed"])] = record
    return runs


def relative_change(parent: float, change: float) -> float:
    if parent == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - parent) / abs(parent)


def compare(parent: dict, change: dict, metrics: list[dict]) -> tuple[list[str], bool]:
    """Report lines and whether every check passed."""
    lines, ok = [], True
    pairs = sorted(parent.keys() & change.keys())
    unpaired = sorted(parent.keys() ^ change.keys())
    if unpaired:
        lines.append("unpaired runs (ignored): " + ", ".join(f"{w} seed {s}" for w, s in unpaired))
    if not pairs:
        lines.append("no (workload, seed) pair in both directories")
        ok = False
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        lines.append(f"{workload}: {len(seeds)} pairs, seeds {', '.join(map(str, seeds))}")
        lines.append(f"  {'metric':22s} {'parent':>12s} {'change':>12s} {'rel':>8s} {'wins':>6s}  bound")
        for metric in metrics:
            name, better = metric["name"], 1 if metric["better"] == "higher" else -1
            before = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            after = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            rel = relative_change(statistics.median(before), statistics.median(after))
            wins = sum(better * (b - a) > 0 for a, b in zip(before, after))
            beyond = -better * rel > metric["bound"]
            ok &= not beyond
            lines.append(
                f"  {name:22s} {statistics.median(before):12.6g} {statistics.median(after):12.6g}"
                f" {rel:+8.1%} {wins:>3d}/{len(seeds):<2d}  {'BEYOND ' if beyond else 'within '}{metric['bound']:g}"
            )
        differing = []
        for seed in seeds:
            a, b = parent[(workload, seed)]["container_sha256"], change[(workload, seed)]["container_sha256"]
            common = min(len(a), len(b))
            if a[:common] != b[:common]:
                differing.append(seed)
        ok &= not differing
        lines.append(f"  container digests differ on common rounds: {', '.join(map(str, differing)) or 'none'}")
    for side, runs in (("parent", parent), ("change", change)):
        for (workload, seed), record in sorted(runs.items()):
            if record.get("problems"):
                ok = False
                lines.append(f"problems in {side} {workload} seed {seed}: {'; '.join(record['problems'][:5])}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's result records")
    parser.add_argument("change", type=Path, help="directory of the change's result records")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    lines, ok = compare(load_runs(args.parent), load_runs(args.change), metrics)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
