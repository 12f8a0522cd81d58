import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_compare.py"
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _write_run(
    directory: Path, seed: int, replay_ms: float, digests=("a", "b"), problems=(), traced=False, environment=None
):
    """One synthetic result record: every end-to-end metric 100 except ``replay_ms_p95``."""
    directory.mkdir(exist_ok=True)
    record = {"workload": "trace-replay", "seed": seed, "container_sha256": list(digests), "problems": list(problems)}
    record["environment"] = environment or {"nproc": 2}
    if not traced:
        record["metrics"] = {m["name"]: {"value": 100.0, "unit": m["unit"]} for m in METRICS}
        record["metrics"]["replay_ms_p95"]["value"] = replay_ms
    (directory / f"trace-replay-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record))


def _compare(tmp_path, *options):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "parent"), str(tmp_path / "change"), *options],
        capture_output=True,
        text=True,
        check=False,
    )


def _row(stdout: str, metric: str) -> list[str]:
    return next(line.split() for line in stdout.splitlines() if line.split()[:1] == [metric])


def test_reports_medians_wins_and_bounds(tmp_path):
    for seed, (before, after) in enumerate([(20.0, 10.0), (19.0, 9.0), (18.0, 19.0)], start=1):
        _write_run(tmp_path / "parent", seed, before)
        _write_run(tmp_path / "change", seed, after)
    _write_run(tmp_path / "parent", 1, 0.0, traced=True)  # per-layer records are not compared
    result = _compare(tmp_path)
    assert result.returncode == 0, result.stdout
    assert "trace-replay: 3 pairs, seeds 1, 2, 3" in result.stdout
    assert _row(result.stdout, "replay_ms_p95") == [
        "replay_ms_p95", "19", "10", "-47.4%", "2/3", "within", "0.25", "10.5%", "resolved", "-"
    ]
    assert _row(result.stdout, "psnr_l0_db")[3:5] == ["+0.0%", "0/3"]
    assert "differ on common rounds: none" in result.stdout


def test_flags_regressions_digests_and_problems(tmp_path):
    _write_run(tmp_path / "parent", 1, 10.0, digests=("a", "b", "c"))
    _write_run(tmp_path / "change", 1, 13.0, digests=("a", "x"), problems=["round 0: decode mismatch"])
    _write_run(tmp_path / "change", 2, 13.0)
    result = _compare(tmp_path)
    assert result.returncode == 1
    assert _row(result.stdout, "replay_ms_p95")[3:7] == ["+30.0%", "0/1", "BEYOND", "0.25"]
    assert "differ on common rounds: 1" in result.stdout
    assert "problems in change trace-replay seed 1: round 0: decode mismatch" in result.stdout
    assert "unpaired runs (ignored): trace-replay seed 2" in result.stdout


def test_json_holds_the_report_figures(tmp_path):
    parent_ms, change_ms = [20.0, 19.0, 18.0, 30.0, 21.0], [10.0, 9.0, 19.0, 11.0, 12.0]
    for seed, (before, after) in enumerate(zip(parent_ms, change_ms), start=1):
        _write_run(tmp_path / "parent", seed, before, environment={"nproc": 2, "numpy": "1"})
        _write_run(tmp_path / "change", seed, after, environment={"nproc": 2, "numpy": "2" if seed < 3 else "3"})
    _write_run(tmp_path / "change", 9, 10.0, problems=["round 2: timeline mismatch"])
    out = tmp_path / "bench.json"
    result = _compare(tmp_path, "--json", str(out))
    assert result.returncode == 1  # the unpaired record's problem is still a failed check
    summary = json.loads(out.read_text())
    assert summary["ok"] is False
    assert summary["unpaired"] == [["trace-replay", 9]]
    entry = summary["workloads"]["trace-replay"]
    assert entry["seeds"] == [1, 2, 3, 4, 5] and entry["digests_differ"] == []
    row = entry["metrics"]["replay_ms_p95"]
    assert row["parent"] == {"q1": 19.0, "median": 20.0, "q3": 21.0}
    assert row["change"] == {"q1": 10.0, "median": 11.0, "q3": 12.0}
    assert row["relative_change"] == (11.0 - 20.0) / 20.0
    assert (row["wins"], row["bound"], row["beyond_bound"], row["unit"]) == (4, 0.25, False, "ms")
    assert entry["metrics"].keys() == {m["name"] for m in METRICS}
    assert summary["problems"] == {
        "parent": [],
        "change": [{"workload": "trace-replay", "seed": 9, "problems": ["round 2: timeline mismatch"]}],
    }
    assert summary["environment"]["parent"] == [{"nproc": 2, "numpy": "1"}]
    assert summary["environment"]["change"] == [{"nproc": 2, "numpy": "2"}, {"nproc": 2, "numpy": "3"}, {"nproc": 2}]
    assert _row(result.stdout, "replay_ms_p95")[1:5] == ["20", "11", "-45.0%", "4/5"]  # the printed report agrees


PARENT_MS = [20.0 + i for i in range(10)]  # median 24.5, quartiles 22.25 and 26.75: an IQR of 4.5


@pytest.mark.parametrize(
    "change_ms, holds",
    [
        ([p - 6 for p in PARENT_MS[:9]] + [PARENT_MS[9]], True),  # 9 wins and a tie; median gap 6
        ([p - 4 for p in PARENT_MS[:9]] + [PARENT_MS[9]], False),  # 9 wins, but a median gap of 4 < IQR
        ([p - 6 for p in PARENT_MS[:8]] + PARENT_MS[8:], False),  # 8 wins and two ties
        ([p - 6 for p in PARENT_MS[:9]], False),  # 9 of 9 won, but fewer than ten pairs
        ([p + 6 for p in PARENT_MS], False),  # every pair lost
    ],
    ids=["holds", "gap-within-iqr", "eight-wins", "nine-pairs", "worse"],
)
def test_claim_rule(tmp_path, change_ms, holds):
    for seed, (before, after) in enumerate(zip(PARENT_MS, change_ms), start=1):
        _write_run(tmp_path / "parent", seed, before)
        _write_run(tmp_path / "change", seed, after)
    out = tmp_path / "bench.json"
    result = _compare(tmp_path, "--json", str(out))
    metrics = json.loads(out.read_text())["workloads"]["trace-replay"]["metrics"]
    assert metrics["replay_ms_p95"]["claim_holds"] is holds
    assert not any(row["claim_holds"] for name, row in metrics.items() if name != "replay_ms_p95")  # all ties
    assert _row(result.stdout, "replay_ms_p95")[-1] == ("holds" if holds else "-")


@pytest.mark.parametrize(
    "change_ms, unresolved",
    [
        ([90.0, 120.0, 105.0], True),  # the parent spread 27.3% is wider than the 25% bound
        ([95.0, 99.0, 98.0], False),  # as wide, but every change run beats every parent run
        ([100.0, 130.0, 110.0], True),  # no change at all cannot be told from the noise either
    ],
    ids=["overlapping", "every-run-better", "equal"],
)
def test_parent_spread_beyond_the_bound_is_unresolved(tmp_path, change_ms, unresolved):
    for seed, (before, after) in enumerate(zip([100.0, 130.0, 110.0], change_ms), start=1):
        _write_run(tmp_path / "parent", seed, before)
        _write_run(tmp_path / "change", seed, after)
    out = tmp_path / "bench.json"
    result = _compare(tmp_path, "--json", str(out))
    assert result.returncode == 0, result.stdout  # noise alone is no failed check
    metrics = json.loads(out.read_text())["workloads"]["trace-replay"]["metrics"]
    assert metrics["replay_ms_p95"]["parent_spread"] == 30.0 / 110.0
    assert metrics["replay_ms_p95"]["unresolved"] is unresolved
    # the other metrics read 100 in every run: no spread, so resolved
    others = [row for name, row in metrics.items() if name != "replay_ms_p95"]
    assert all(row["parent_spread"] == 0.0 and not row["unresolved"] for row in others)
    row = _row(result.stdout, "replay_ms_p95")
    assert row[7:9] == ["27.3%", "unresolved" if unresolved else "resolved"]


def test_tier1_summaries_are_recorded_unpaired(tmp_path):
    _write_run(tmp_path / "parent", 1, 10.0)
    _write_run(tmp_path / "change", 1, 10.0)
    parent_txt, change_txt = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent_txt.write_text("....\n391 passed, 5 warnings in 114.23s (0:01:54)\n")
    change_txt.write_text(
        "========= 470 passed in 98.50s (0:01:38) =========\n"
        "x\n"
        "========= 1 failed, 469 passed, 1 error in 101s =========\n"
    )
    out = tmp_path / "bench.json"
    result = _compare(tmp_path, "--json", str(out), "--tier1", str(parent_txt), str(change_txt))
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(out.read_text())["tier1"] == {
        "parent": [{"passed": 391, "warnings": 5, "seconds": 114.23}],
        "change": [{"passed": 470, "seconds": 98.5}, {"failed": 1, "passed": 469, "errors": 1, "seconds": 101.0}],
    }
    assert "tier-1 parent: 391 passed, 5 warnings in 114.23 s" in result.stdout
    assert "tier-1 change: 1 failed, 469 passed, 1 errors in 101 s" in result.stdout
    change_txt.write_text("collected 0 items\n")
    result = _compare(tmp_path, "--tier1", str(parent_txt), str(change_txt))
    assert result.returncode == 2 and "no pytest summary line" in result.stderr


def test_verify_seconds_are_recorded_per_criterion(tmp_path):
    _write_run(tmp_path / "parent", 1, 10.0)
    _write_run(tmp_path / "change", 1, 10.0)
    parent_txt, change_txt = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent_txt.write_text(
        "[PASS]  7 activation-rate adaptivity           (  32.10s)  level-2 share 0.41 > 0.12\n"
        "1/1 criteria passed in 32.1s\n"
        "[PASS]  7 activation-rate adaptivity           (  36.25s)  level-2 share 0.41 > 0.12\n"
    )
    change_txt.write_text(
        "[PASS]  1 first-frame latency grid   (   0.52s)  12 rows\n"
        "[FAIL] 11 simulator exactness        ( 120.00s)  raised ValueError: x (y)\n"
        "2 of 2 criteria ...\n"
    )
    out = tmp_path / "bench.json"
    result = _compare(tmp_path, "--json", str(out), "--verify", str(parent_txt), str(change_txt))
    assert result.returncode == 0, result.stdout + result.stderr
    share = "level-2 share 0.41 > 0.12"
    assert json.loads(out.read_text())["verify"] == {
        "parent": {
            "7 activation-rate adaptivity": [
                {"status": "PASS", "seconds": 32.1, "details": share},
                {"status": "PASS", "seconds": 36.25, "details": share},
            ]
        },
        "change": {
            "1 first-frame latency grid": [{"status": "PASS", "seconds": 0.52, "details": "12 rows"}],
            "11 simulator exactness": [{"status": "FAIL", "seconds": 120.0, "details": "raised ValueError: x (y)"}],
        },
    }
    assert "verify parent: 7 activation-rate adaptivity: 32.1 s / 36.25 s" in result.stdout
    assert "verify change: 11 simulator exactness: 120 s FAIL" in result.stdout
    change_txt.write_text("0/0 criteria passed in 0.0s\n")
    result = _compare(tmp_path, "--verify", str(parent_txt), str(change_txt))
    assert result.returncode == 2 and "no pd4g verify criterion line" in result.stderr


def test_verify_details_that_differ_are_listed(tmp_path):
    _write_run(tmp_path / "parent", 1, 10.0)
    _write_run(tmp_path / "change", 1, 10.0)
    parent_txt, change_txt = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent_txt.write_text(
        "[PASS]  6 per-level quality monotonicity (  14.74s)  seed 101: 10.5<=10.6<=99.0 dB\n"
        "[PASS]  7 activation-rate adaptivity     (  13.96s)  seed 101: gap 0.38\n"
        "[PASS]  8 rate-weight sweep              (  18.55s)  actives [63, 57, 49]\n"
        "[PASS]  6 per-level quality monotonicity (  15.02s)  seed 101: 10.5<=10.6<=99.0 dB\n"
        "[PASS]  8 rate-weight sweep              (  18.91s)  actives [63, 57, 48]\n"
    )
    change_txt.write_text(
        "[PASS]  6 per-level quality monotonicity (  13.10s)  seed 101: 10.5<=10.6<=99.0 dB\n"
        "[PASS]  7 activation-rate adaptivity     (  12.40s)  seed 101: gap 0.39\n"
    )
    out = tmp_path / "bench.json"
    result = _compare(tmp_path, "--json", str(out), "--verify", str(parent_txt), str(change_txt))
    # 7 differs between the sides and 8 within the parent's runs; neither enters the exit status
    assert result.returncode == 0, result.stdout + result.stderr
    differ = ["7 activation-rate adaptivity", "8 rate-weight sweep"]
    assert json.loads(out.read_text())["verify_details_differ"] == differ
    assert f"verify details differ: {', '.join(differ)}" in result.stdout
    change_txt.write_text(parent_txt.read_text().replace("[63, 57, 48]", "[63, 57, 49]"))
    parent_txt.write_text(change_txt.read_text())
    result = _compare(tmp_path, "--json", str(out), "--verify", str(parent_txt), str(change_txt))
    assert json.loads(out.read_text())["verify_details_differ"] == []
    assert "verify details differ: none" in result.stdout
