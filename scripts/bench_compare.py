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
  metric's bound, a fraction of the parent's median;
- whether a claimed gain holds: at least ten pairs, of which the change
  wins at least nine tenths (ties count for neither side), and a median
  better than the parent's by more than the parent's interquartile range;
- the parent runs' spread, (max - min) / median, and whether run-to-run
  noise leaves the metric unresolved: its spread is wider than the bound,
  and not every change run beats every parent run. Such a row reads
  ``unresolved`` in the ``noise`` column; it does not enter the exit status.

It also counts the pairs whose container digests differ on their common
rounds and prints every record with a non-empty ``problems`` list. The exit
status is 1 if any of these three checks finds something, else 0.

``--json PATH`` also writes these figures to PATH, with each side's q1,
median and q3 per metric, the claim verdict (``claim_holds``) and the
distinct ``environment`` blocks of each side's records. The committed
``BENCH_<n>.json`` files are written this way:

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR --json BENCH_<n>.json

``--tier1 PARENT_TXT CHANGE_TXT`` adds the test suite's own figures: each
file holds the output of one or more pytest runs of a side, and every pytest
summary line in it (``N passed, M failed ... in S s``) is recorded, with its
counts by outcome and its seconds, under ``tier1`` in the report and the
JSON. These runs are not paired, and they do not enter the exit status.

``--verify PARENT_TXT CHANGE_TXT`` does the same for ``pd4g verify`` output:
every criterion line (``[PASS]  7 name (  20.41s)  details``) of a side is
recorded under ``verify``, by criterion, as its status, seconds and details
text, in file order. The criteria whose details text is not the same on every
line of both sides are listed under ``verify_details_differ`` and in the
report, so a change that must not move any criterion's figures shows it
mechanically. These runs are not paired either, and neither a FAIL nor a
differing details text enters the exit status.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
# a pytest summary line, bare (-q) or between '=' rules: "466 passed, 5 warnings in 114.23s (0:01:54)"
PYTEST_SUMMARY = re.compile(r"=*\s*(\d+ [a-z]+(?:, \d+ [a-z]+)*) in (\d+(?:\.\d+)?)s\b")
# a criterion line of ``pd4g verify``: "[PASS]  7 activation-rate adaptivity (  20.41s)  details"
VERIFY_LINE = re.compile(r"\[(PASS|FAIL)\]\s+(\d+) (.+?)\s+\(\s*(\d+(?:\.\d+)?)s\)\s*(.*)")


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> result record; traced records, which hold no end-to-end metrics, are skipped."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "metrics" in record:
            runs[(record["workload"], record["seed"])] = record
    return runs


def tier1_runs(path: Path) -> list[dict]:
    """Each pytest summary line of ``path`` as its counts by outcome (plural, as in "errors") and its seconds."""
    runs = []
    for line in path.read_text().splitlines():
        match = PYTEST_SUMMARY.match(line.strip())
        if match:
            counts = {}
            for part in match.group(1).split(", "):
                number, outcome = part.split()
                counts[outcome if outcome.endswith(("s", "ed")) else outcome + "s"] = int(number)
            runs.append({**counts, "seconds": float(match.group(2))})
    if not runs:
        raise ValueError(f"{path}: no pytest summary line ('N passed ... in S s')")
    return runs


def verify_runs(path: Path) -> dict[str, list[dict]]:
    """Each ``pd4g verify`` criterion line of ``path``: "<index> <name>" -> its runs' status, seconds and details."""
    criteria = {}
    for line in path.read_text().splitlines():
        match = VERIFY_LINE.match(line.strip())
        if match:
            status, index, name, seconds, details = match.groups()
            run = {"status": status, "seconds": float(seconds), "details": details}
            criteria.setdefault(f"{index} {name}", []).append(run)
    if not criteria:
        raise ValueError(f"{path}: no pd4g verify criterion line ('[PASS] n name (  s.ss s)')")
    return criteria


def differing_details(verify: dict[str, dict[str, list[dict]]]) -> list[str]:
    """The criteria whose details text differs between any two of their lines, on either side or across them."""
    texts = {}
    for criteria in verify.values():
        for criterion, runs in criteria.items():
            texts.setdefault(criterion, set()).update(run["details"] for run in runs)
    return [criterion for criterion, seen in texts.items() if len(seen) > 1]


def relative_change(parent: float, change: float) -> float:
    if parent == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - parent) / abs(parent)


def spread(values: list[float]) -> float:
    """(max - min) / |median|: how far the runs of one side move apart; 0 when they all agree."""
    width, median = max(values) - min(values), statistics.median(values)
    if median == 0:
        return 0.0 if width == 0 else math.inf
    return width / abs(median)


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3, linearly interpolated (numpy's default method)."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """Every figure and check of the report, as JSON-ready data; ``ok`` is whether every check passed."""
    pairs = sorted(parent.keys() & change.keys())
    summary = {
        "ok": bool(pairs),
        "unpaired": [list(key) for key in sorted(parent.keys() ^ change.keys())],
        "workloads": {},
        "problems": {},
        "environment": {},
    }
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        rows = {}
        for metric in metrics:
            name, better = metric["name"], 1 if metric["better"] == "higher" else -1
            before = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            after = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            q_before, q_after = quartiles(before), quartiles(after)
            rel = relative_change(q_before["median"], q_after["median"])
            beyond = -better * rel > metric["bound"]
            summary["ok"] &= not beyond
            wins = sum(better * (b - a) > 0 for a, b in zip(before, after))  # a tie is no win
            gap = better * (q_after["median"] - q_before["median"])
            noise = spread(before)
            beats_every_parent = min(better * a for a in after) > max(better * b for b in before)
            rows[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": q_before,
                "change": q_after,
                "relative_change": rel,
                "wins": wins,
                "bound": metric["bound"],
                "beyond_bound": beyond,
                "parent_spread": noise,
                "unresolved": noise > metric["bound"] and not beats_every_parent,
                "claim_holds": len(seeds) >= CLAIM_MIN_PAIRS
                and wins >= CLAIM_WIN_SHARE * len(seeds)
                and gap > q_before["q3"] - q_before["q1"],
            }
        differing = []
        for seed in seeds:
            a, b = parent[(workload, seed)]["container_sha256"], change[(workload, seed)]["container_sha256"]
            common = min(len(a), len(b))
            if a[:common] != b[:common]:
                differing.append(seed)
        summary["ok"] &= not differing
        summary["workloads"][workload] = {"seeds": seeds, "metrics": rows, "digests_differ": differing}
    for side, runs in (("parent", parent), ("change", change)):
        found = [
            {"workload": workload, "seed": seed, "problems": record["problems"]}
            for (workload, seed), record in sorted(runs.items())
            if record.get("problems")
        ]
        summary["ok"] &= not found
        summary["problems"][side] = found
        # the host each side ran on, once per distinct block
        blocks = [record["environment"] for _, record in sorted(runs.items()) if "environment" in record]
        summary["environment"][side] = [b for i, b in enumerate(blocks) if b not in blocks[:i]]
    return summary


def report(summary: dict) -> list[str]:
    """The printed form of ``summarize``'s result."""
    lines = []
    if summary["unpaired"]:
        lines.append("unpaired runs (ignored): " + ", ".join(f"{w} seed {s}" for w, s in summary["unpaired"]))
    if not summary["workloads"]:
        lines.append("no (workload, seed) pair in both directories")
    for workload, entry in summary["workloads"].items():
        seeds = entry["seeds"]
        lines.append(f"{workload}: {len(seeds)} pairs, seeds {', '.join(map(str, seeds))}")
        lines.append(
            f"  {'metric':22s} {'parent':>12s} {'change':>12s} {'rel':>8s} {'wins':>6s}  {'bound':12s}"
            f" {'spread':>7s} {'noise':10s} claim"
        )
        for name, row in entry["metrics"].items():
            lines.append(
                f"  {name:22s} {row['parent']['median']:12.6g} {row['change']['median']:12.6g}"
                f" {row['relative_change']:+8.1%} {row['wins']:>3d}/{len(seeds):<2d}"
                f"  {'BEYOND ' if row['beyond_bound'] else 'within '}{row['bound']:<5g}"
                f" {row['parent_spread']:7.1%} {'unresolved' if row['unresolved'] else 'resolved':10s}"
                f" {'holds' if row['claim_holds'] else '-'}"
            )
        lines.append(
            f"  container digests differ on common rounds: {', '.join(map(str, entry['digests_differ'])) or 'none'}"
        )
    for side, found in summary["problems"].items():
        for run in found:
            lines.append(f"problems in {side} {run['workload']} seed {run['seed']}: {'; '.join(run['problems'][:5])}")
    for side, runs in summary.get("tier1", {}).items():
        for run in runs:
            counts = ", ".join(f"{n} {outcome}" for outcome, n in run.items() if outcome != "seconds")
            lines.append(f"tier-1 {side}: {counts} in {run['seconds']:g} s")
    for side, criteria in summary.get("verify", {}).items():
        for criterion, runs in criteria.items():
            times = " / ".join(f"{run['seconds']:g} s" + ("" if run["status"] == "PASS" else " FAIL") for run in runs)
            lines.append(f"verify {side}: {criterion}: {times}")
    if "verify_details_differ" in summary:
        lines.append(f"verify details differ: {', '.join(summary['verify_details_differ']) or 'none'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's result records")
    parser.add_argument("change", type=Path, help="directory of the change's result records")
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write the report's figures to PATH as JSON")
    parser.add_argument(
        "--tier1",
        type=Path,
        nargs=2,
        metavar=("PARENT_TXT", "CHANGE_TXT"),
        help="pytest output of each side, whose summary lines are recorded unpaired",
    )
    parser.add_argument(
        "--verify",
        type=Path,
        nargs=2,
        metavar=("PARENT_TXT", "CHANGE_TXT"),
        help="pd4g verify output of each side, whose status, seconds and details per criterion are recorded unpaired",
    )
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize(load_runs(args.parent), load_runs(args.change), metrics)
    for key, paths, read in (("tier1", args.tier1, tier1_runs), ("verify", args.verify, verify_runs)):
        if paths:
            try:
                summary[key] = {side: read(path) for side, path in zip(("parent", "change"), paths)}
            except ValueError as exc:
                parser.error(str(exc))
    if args.verify:
        summary["verify_details_differ"] = differing_details(summary["verify"])
    print("\n".join(report(summary)))
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
