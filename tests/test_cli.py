import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from pd4g import bitstream
from pd4g.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main

FAST_TRAIN = """\
seed = 5
scene_kind = static
anchor_count = 16
timestep_count = 2
image_width = 16
image_height = 16
train_steps = 120
progressive_start_step = 30
sample_period = 10
warmup_steps = 20
learning_rate = 0.3
"""


def write_config(tmp_path: Path, body: str, out: Path) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(body + f"out_dir = {out}\n")
    return path


NOT_UTF8 = b"\xff\xfe not UTF-8\n"  # 0xff never occurs in UTF-8


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """One fast end-to-end train+encode shared by the CLI tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, FAST_TRAIN, out)
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    assert main(["encode", "--config", str(cfg)]) == EXIT_OK
    return cfg, out


class TestTrain:
    def test_static_scene_keeps_uniform_distribution(self, trained_dir):
        _, out = trained_dir
        report = json.loads((out / "report.json").read_text())
        assert report["final_activation_ema"] < 0.1
        assert (out / "loss_curve.csv").exists()
        assert (out / "masks.json").exists()

    def test_artifacts_pinned(self, trained_dir):
        # sha256 prefixes recorded before the config -> call wiring moved into
        # RunConfig; asset.pd4g re-recorded for container version 3
        _, out = trained_dir
        pinned = {
            "masks.json": "b940e2f9eb286079",
            "report.json": "103b358eaa5b8ce1",
            "loss_curve.csv": "0694088f1dcbaae1",
            "asset.pd4g": "cde578d932c24fb3",
        }
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] for name in pinned}
        assert digests == pinned

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(FAST_TRAIN + f"out_dir = {out}\n")
            assert main(["train", "--config", str(cfg)]) == EXIT_OK
            outs.append(out)
        for artifact in ("report.json", "loss_curve.csv", "masks.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "not_a_key" in capsys.readouterr().err

    def test_codec_constant_in_config_is_validation_error(self, tmp_path, capsys):
        # the compressor preset is a codec constant, not a key, even at its published value
        out = tmp_path / "out"
        cfg = write_config(tmp_path, FAST_TRAIN + "compressor_preset = 6\n", out)
        assert main(["train", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "compressor_preset" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"seed = 5\n" + NOT_UTF8)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(cfg) in err and "not UTF-8" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda_layer0", "nan"),
            ("binary_weight", "inf"),
            ("lambda_temporal", "nan"),
            ("tau_scene_units", "inf"),
            ("learning_rate", "inf"),
        ],
    )
    def test_non_finite_weight_is_validation_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        # the value replaces the key's own line, so the error is about the value, not a duplicate key
        body = "".join(line for line in FAST_TRAIN.splitlines(keepends=True) if not line.startswith(f"{key} ="))
        cfg = write_config(tmp_path, body + f"{key} = {value}\n", out)
        assert main(["train", "--config", str(cfg)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("in_config", [False, True])
    def test_seed_beyond_64_bits_is_validation_error(self, tmp_path, capsys, in_config):
        out = tmp_path / "out"
        seed = str(2**63)
        body = FAST_TRAIN.replace("seed = 5", f"seed = {seed}") if in_config else FAST_TRAIN
        argv = ["train", "--config", str(write_config(tmp_path, body, out))]
        if not in_config:  # the override is validated as the config line is
            argv += ["--seed", seed]
        assert main(argv) == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestEncodeInspect:
    def test_container_and_manifest_exist(self, trained_dir):
        _, out = trained_dir
        assert (out / "asset.pd4g").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["total_bytes"] == (out / "asset.pd4g").stat().st_size
        assert [e["layer"] for e in manifest["layers"]] == [0, 1, 2]

    def test_inspect_reports_full_level(self, trained_dir, capsys):
        _, out = trained_dir
        assert main(["inspect", str(out / "asset.pd4g")]) == EXIT_OK
        assert "max decodable level 2" in capsys.readouterr().out

    def test_truncation_ladder(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        blob = (out / "asset.pd4g").read_bytes()
        man = bitstream.manifest(blob)
        for level, boundary in enumerate(man.cumulative_sizes):
            clipped = tmp_path / f"level{level}.pd4g"
            clipped.write_bytes(blob[:boundary])
            assert main(["inspect", str(clipped)]) == EXIT_OK
            assert f"max decodable level {level}" in capsys.readouterr().out

    def test_missing_masks_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        cfg = write_config(tmp_path, FAST_TRAIN, out)
        assert main(["encode", "--config", str(cfg)]) == EXIT_RUNTIME
        assert "mask bank" in capsys.readouterr().err
        assert not out.exists()  # inputs are read before the output directory is made

    def test_empty_base_layer_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        cfg = write_config(tmp_path, FAST_TRAIN, out)
        dead = {"threshold": 0.01, "levels": [[0.0] * 16, [1.0] * 16, [1.0] * 16]}
        (out / "masks.json").write_text(json.dumps(dead))
        assert main(["encode", "--config", str(cfg)]) == EXIT_RUNTIME
        assert "base-layer" in capsys.readouterr().err.replace("base layer", "base-layer")

    @pytest.mark.parametrize(
        "case, field",
        [
            ("no threshold", "'threshold'"),
            ("other threshold", "'threshold'"),
            ("two levels", "'levels'"),
            ("15 anchors", "'levels'[0]"),
            ("NaN", "NaN"),
        ],
    )
    def test_malformed_masks_are_validation_errors(self, trained_dir, tmp_path, capsys, case, field):
        cfg, out = trained_dir
        bank = json.loads((out / "masks.json").read_text())
        if case == "no threshold":
            del bank["threshold"]
        elif case == "other threshold":  # the container does not record the cut, so its decode would use 0.01
            bank["threshold"] = 0.001
            bank["levels"][0][0] = 0.005
        elif case == "two levels":
            bank["levels"].pop()
        elif case == "NaN":  # the JSON reader accepts NaN
            bank["levels"][1][3] = float("nan")
        else:  # the config has 16 anchors
            bank["levels"] = [level[:15] for level in bank["levels"]]
        masks = tmp_path / "masks.json"
        masks.write_text(json.dumps(bank))
        code = main(["encode", "--config", str(cfg), "--masks", str(masks), "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(masks) in err and field in err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_masks_is_validation_error(self, trained_dir, tmp_path, capsys):
        cfg, _ = trained_dir
        masks = tmp_path / "masks.json"
        masks.write_bytes(NOT_UTF8)
        code = main(["encode", "--config", str(cfg), "--masks", str(masks), "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(masks) in err and "not UTF-8" in err
        assert not (tmp_path / "out" / "asset.pd4g").exists()


class TestSimulate:
    def test_constant_trace_agrees_with_formula(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        trace = tmp_path / "trace.csv"
        trace.write_text("1000000,2\n")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(out / "asset.pd4g"), str(trace), "--out", str(sim_out)]) == EXIT_OK
        timeline = json.loads((sim_out / "timeline.json").read_text())
        man = json.loads((out / "manifest.json").read_text())
        expected = 8.0 * (man["layers"][0]["cumulative_bytes"] / 1e6) / 2.0
        assert timeline["first_frame_time_s"] == pytest.approx(expected, abs=1e-12)
        assert (sim_out / "latency.csv").exists()

    def test_latency_csv_pinned(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        trace = tmp_path / "trace.csv"
        trace.write_text("10,2\n")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(out / "asset.pd4g"), str(trace), "--out", str(sim_out)]) == EXIT_OK
        assert (sim_out / "latency.csv").read_text() == (
            "label,size_mb,latency_2mbps_s,latency_10mbps_s,latency_50mbps_s\n"
            "asset.pd4g,0.000592,0.00,0.00,0.00\n"
        )

    def test_latency_csv_reads_back_with_a_comma_in_the_name(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        container = tmp_path / "a,b.pd4g"
        container.write_bytes((out / "asset.pd4g").read_bytes())
        trace = tmp_path / "trace.csv"
        trace.write_text("10,2\n")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(container), str(trace), "--out", str(sim_out)]) == EXIT_OK
        with open(sim_out / "latency.csv", newline="") as f:
            header, row = csv.reader(f)
        assert len(header) == len(row) == 5
        assert row[0] == "a,b.pd4g"

    def test_zero_throughput_is_distinct_from_errors(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        trace = tmp_path / "stall.csv"
        trace.write_text("5,0\n")
        code = main(["simulate", str(out / "asset.pd4g"), str(trace), "--out", str(tmp_path / "sim")])
        assert code == EXIT_OK
        assert "incomplete" in capsys.readouterr().out

    def test_timeline_too_large_for_json_is_validation_error(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        trace = tmp_path / "huge.csv"
        trace.write_text("1e400,1e-400\n")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(out / "asset.pd4g"), str(trace), "--out", str(sim_out)]) == EXIT_VALIDATION
        assert "first_frame_time_s" in capsys.readouterr().err
        assert not (sim_out / "timeline.json").exists()

    def test_zero_chunk_container_is_unreadable(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        blob = bytearray((out / "asset.pd4g").read_bytes())
        blob[64] = 0  # chunk count; FORMAT.md requires 0 < N <= 3
        container = tmp_path / "empty.pd4g"
        container.write_bytes(bytes(blob))
        trace = tmp_path / "trace.csv"
        trace.write_text("10,2\n")
        assert main(["simulate", str(container), str(trace), "--out", str(tmp_path / "sim")]) == EXIT_RUNTIME
        assert "unreadable container" in capsys.readouterr().err

    def test_container_cut_in_base_chunk_is_unreadable(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        blob = (out / "asset.pd4g").read_bytes()
        container = tmp_path / "cut.pd4g"
        container.write_bytes(blob[: bitstream.manifest(blob).header_bytes + 3])  # 3 bytes into layer 0
        trace = tmp_path / "trace.csv"
        trace.write_text("10,2\n")
        assert main(["simulate", str(container), str(trace), "--out", str(tmp_path / "sim")]) == EXIT_RUNTIME
        assert "unreadable container: no complete base-layer chunk" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_non_utf8_trace_is_validation_error(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        trace = tmp_path / "latin.csv"
        trace.write_bytes(b"1,8\n" + NOT_UTF8)
        assert main(["simulate", str(out / "asset.pd4g"), str(trace), "--out", str(tmp_path / "sim")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(trace) in err and "not UTF-8" in err
        assert not (tmp_path / "sim").exists()

    def test_malformed_trace_names_line(self, trained_dir, tmp_path, capsys):
        _, out = trained_dir
        trace = tmp_path / "bad.csv"
        trace.write_text("1,8\nnot a segment\n")
        assert main(["simulate", str(out / "asset.pd4g"), str(trace)]) == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err


class TestLatencyTable:
    def test_reference_sizes(self, tmp_path, capsys):
        sizes = Path(__file__).resolve().parent.parent / "data" / "reference_model_sizes.csv"
        assert main(["latency-table", "--sizes", str(sizes), "--bandwidths", "2,10,50"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1.74" in out and "929.60" in out

    def test_default_bandwidths(self, capsys):
        sizes = Path(__file__).resolve().parent.parent / "data" / "reference_model_sizes.csv"
        assert main(["latency-table", "--sizes", str(sizes)]) == EXIT_OK
        default = capsys.readouterr().out
        assert default.startswith("label,size_mb,latency_2mbps_s,latency_10mbps_s,latency_50mbps_s\n")
        assert main(["latency-table", "--sizes", str(sizes), "--bandwidths", "2,10,50"]) == EXIT_OK
        assert capsys.readouterr().out == default

    def test_quoted_label_is_read(self, tmp_path, capsys):
        # the quoting latency tables write for a label holding a comma or a quote
        sizes = tmp_path / "sizes.csv"
        sizes.write_text('"a,b",1.0\n"say ""hi""",2 # note\n')
        assert main(["latency-table", "--sizes", str(sizes), "--bandwidths", "2"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[1:] == [["a,b", "1", "4.00"], ['say "hi"', "2", "8.00"]]

    def test_field_beyond_the_csv_limit_is_validation_error(self, tmp_path, capsys):
        sizes = tmp_path / "sizes.csv"
        sizes.write_text("model,1.0\n" + "x" * (csv.field_size_limit() + 1) + ",1.0\n")
        assert main(["latency-table", "--sizes", str(sizes)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "line 2: field larger than field limit" in captured.err and captured.out == ""

    def test_non_utf8_sizes_is_validation_error(self, tmp_path, capsys):
        sizes = tmp_path / "sizes.csv"
        sizes.write_bytes(b"model,1.0\n" + NOT_UTF8)
        assert main(["latency-table", "--sizes", str(sizes)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert str(sizes) in captured.err and "not UTF-8" in captured.err and captured.out == ""

    def test_bad_bandwidth_list(self, tmp_path, capsys):
        sizes = tmp_path / "sizes.csv"
        sizes.write_text("model,1.0\n")
        assert main(["latency-table", "--sizes", str(sizes), "--bandwidths", "2,zero"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("bandwidths", ["2,nan", "2,inf", "10,-inf"])
    def test_non_finite_bandwidth_is_named(self, tmp_path, capsys, bandwidths):
        sizes = tmp_path / "sizes.csv"
        sizes.write_text("model,1.0\n")
        assert main(["latency-table", "--sizes", str(sizes), "--bandwidths", bandwidths]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert bandwidths.rpartition(",")[2] in captured.err and captured.out == ""

    @pytest.mark.parametrize("size", ["nan", "inf"])
    def test_non_finite_size_is_named(self, tmp_path, capsys, size):
        sizes = tmp_path / "sizes.csv"
        sizes.write_text(f"model,1.0\na,{size}\n")
        assert main(["latency-table", "--sizes", str(sizes), "--bandwidths", "2"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "a:" in err and size in err

    def test_overflowing_latency_exits_1(self, tmp_path, capsys):
        sizes = tmp_path / "sizes.csv"
        sizes.write_text("model,1.0\nhuge,1e308\n")
        assert main(["latency-table", "--sizes", str(sizes), "--bandwidths", "1e-300"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "huge:" in captured.err and "overflows" in captured.err and captured.out == ""


class TestVerifyCommand:
    def test_fast_criteria_pass_and_report_timing(self, capsys):
        assert main(["verify", "--only", "1,2,11"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        assert "s)" in out  # wall clock per criterion

    def test_usage_error_is_validation(self, capsys):
        assert main(["verify", "--only", "one"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("only, named", [("99", "99"), ("0", "0"), ("1,12", "12")])
    def test_unknown_criterion_is_named(self, capsys, only, named):
        assert main(["verify", "--only", only]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"no criterion {named}" in captured.err and captured.out == ""


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_VALIDATION

    def test_missing_container(self, capsys):
        assert main(["inspect", "/nonexistent/file.pd4g"]) == EXIT_RUNTIME
