"""Command-line pipelines: train, encode, inspect, simulate, latency-table, verify.

Every command is deterministic given (config, seed): repeated runs produce
byte-identical primary outputs. Exit codes: 0 success, 1 validation error,
2 runtime/training failure, 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import acceptance, bitstream, stream, toyscene
from .asset import LAYER_COUNT, MASK_THRESHOLD, MaskBank
from .config import ConfigError, RunConfig, parse_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are validation
        raise _CliError(EXIT_VALIDATION, message)


def _load_run_config(args) -> RunConfig:
    try:
        cfg = parse_config(_read_text(Path(args.config))) if args.config else RunConfig()
        overrides = {"seed": args.seed, "out_dir": args.out}
        return replace(cfg, **{key: value for key, value in overrides.items() if value is not None})
    except ConfigError as exc:
        raise _CliError(EXIT_VALIDATION, str(exc)) from exc


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_text(path: Path) -> str:
    """An input text file; bytes that are not UTF-8 are a validation error naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_VALIDATION, f"{path}: not UTF-8 text: {exc}") from exc


def _bank_to_json(bank: MaskBank) -> str:
    payload = {
        "threshold": bank.threshold,
        "levels": [[float(v) for v in level] for level in bank.levels],
    }
    return json.dumps(payload, indent=2)


def _bank_from_json(path: Path, anchor_count: int) -> MaskBank:
    """The mask bank that ``pd4g train`` wrote; a validation error names the file and the field."""

    def invalid(message: str) -> _CliError:
        return _CliError(EXIT_VALIDATION, f"{path}: {message}")

    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise invalid(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise invalid("expected an object with the fields 'threshold' and 'levels'")
    for key in ("threshold", "levels"):
        if key not in payload:
            raise invalid(f"missing field {key!r}")
    if payload["threshold"] != MASK_THRESHOLD:
        raise invalid(f"field 'threshold' must be the fixed activation cut {MASK_THRESHOLD}, got {payload['threshold']!r}")
    levels = payload["levels"]
    if not isinstance(levels, list) or len(levels) != LAYER_COUNT:
        raise invalid(f"field 'levels' must be a list of {LAYER_COUNT} levels")
    for i, level in enumerate(levels):
        if not isinstance(level, list) or len(level) != anchor_count:
            raise invalid(f"field 'levels'[{i}] must list {anchor_count} masks, one per anchor of the config")
    try:
        return MaskBank(levels=tuple(np.asarray(level, dtype=np.float64) for level in levels))
    except (TypeError, ValueError) as exc:
        raise invalid(str(exc)) from exc


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    scene = cfg.make_scene()
    try:
        bank, report = cfg.train_masks(scene, cfg.seed)
    except toyscene.TrainingDivergedError as exc:
        raise _CliError(EXIT_RUNTIME, str(exc)) from exc
    out = _out_dir(cfg)
    (out / "report.json").write_text(report.to_json())
    (out / "loss_curve.csv").write_text(report.loss_curve_csv())
    (out / "masks.json").write_text(_bank_to_json(bank))
    print(f"trained {cfg.scene_kind} scene ({cfg.anchor_count} anchors) for {cfg.train_steps} steps")
    print(f"per-level PSNR (dB): {[round(p, 2) for p in report.psnr_per_level]}")
    print(f"per-level active anchors: {list(report.active_per_level)}")
    print(f"final activation EMA: {report.final_activation_ema:.4f}")
    print(f"artifacts in {out}/: report.json, loss_curve.csv, masks.json")
    return EXIT_OK


def cmd_encode(args) -> int:
    cfg = _load_run_config(args)
    bank_path = Path(args.masks) if args.masks else Path(cfg.out_dir) / "masks.json"
    bank = _bank_from_json(bank_path, cfg.anchor_count)
    scene = cfg.make_scene()
    try:
        blob = bitstream.encode(scene.anchors, bank, scene.deformations)
    except bitstream.EmptyBaseLayerError as exc:
        raise _CliError(EXIT_RUNTIME, f"encode failed: {exc}") from exc
    out = _out_dir(cfg)
    container = out / "asset.pd4g"
    container.write_bytes(blob)
    man = bitstream.manifest(blob)
    (out / "manifest.json").write_text(json.dumps(man.to_json_dict(), indent=2))
    (out / "abr.json").write_text(stream.emit_abr_manifest(man, container.name))
    print(f"wrote {container} ({man.total_bytes} bytes)")
    for entry in man.to_json_dict()["layers"]:
        print(
            f"  layer {entry['layer']}: raw {entry['raw_bytes']}, "
            f"compressed {entry['compressed_bytes']}, cumulative {entry['cumulative_bytes']}"
        )
    return EXIT_OK


def cmd_inspect(args) -> int:
    path = Path(args.container)
    data = path.read_bytes()
    try:
        man = bitstream.manifest(data)
        decoded = bitstream.decode_prefix(data)
    except bitstream.IntegrityError as exc:
        raise _CliError(EXIT_RUNTIME, f"integrity failure: {exc}") from exc
    except (bitstream.FormatError, bitstream.TruncatedStreamError) as exc:
        raise _CliError(EXIT_RUNTIME, f"unreadable container: {exc}") from exc
    print(f"{path}: {len(data)} bytes, max decodable level {decoded.max_level}")
    print(f"anchors carried: {decoded.anchors.count} of {decoded.original_count} canonical")
    for entry in man.to_json_dict()["layers"]:
        print(
            f"  layer {entry['layer']}: raw {entry['raw_bytes']}, "
            f"compressed {entry['compressed_bytes']}, cumulative {entry['cumulative_bytes']}, crc {entry['crc32']}"
        )
    if args.json:
        print(json.dumps(man.to_json_dict(), indent=2))
    return EXIT_OK


def cmd_simulate(args) -> int:
    container = Path(args.container)
    try:
        man = bitstream.manifest(container.read_bytes())
    except (bitstream.FormatError, bitstream.TruncatedStreamError) as exc:
        raise _CliError(EXIT_RUNTIME, f"unreadable container: {exc}") from exc
    try:
        trace = stream.BandwidthTrace.from_csv(_read_text(Path(args.trace)))
    except stream.TraceParseError as exc:
        raise _CliError(EXIT_VALIDATION, f"malformed trace: {exc}") from exc

    timeline = stream.simulate(man, trace)
    try:
        timeline_json = timeline.to_json()
    except ValueError as exc:
        raise _CliError(EXIT_VALIDATION, f"timeline not representable: {exc}") from exc
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "timeline.json").write_text(timeline_json)
    bandwidths = stream.DEFAULT_BANDWIDTHS_MBPS
    rows = stream.latency_table([man], bandwidths, labels=[container.name])
    (out / "latency.csv").write_text(stream.latency_table_csv(rows, bandwidths))

    if timeline.first_frame_time is None:
        print("stream incomplete: the trace ended before the base layer finished")
        print(f"received {float(timeline.total_bytes):.0f} of {man.total_bytes} bytes")
    else:
        print(f"first frame after {float(timeline.first_frame_time):.4f} s")
        for event in timeline.events:
            if event.kind == "layer-complete":
                print(f"  layer {event.layer} complete at {float(event.time):.4f} s")
        final = timeline.final_level
        print(f"final level: {final if final is not None else 'none'}")
    print(f"artifacts in {out}/: timeline.json, latency.csv")
    return EXIT_OK


def cmd_latency_table(args) -> int:
    labels = []
    sizes = []
    for number, line in enumerate(_read_text(Path(args.sizes)).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:  # a label may be quoted, as latency tables write one holding a comma or quote
            parts = [p.strip() for p in next(csv.reader([body]))]
        except csv.Error as exc:
            raise _CliError(EXIT_VALIDATION, f"line {number}: {exc}") from exc
        if len(parts) != 2:
            raise _CliError(EXIT_VALIDATION, f"line {number}: expected 'label,size_mb'")
        try:
            sizes.append(float(parts[1]))
        except ValueError as exc:
            raise _CliError(EXIT_VALIDATION, f"line {number}: bad size: {exc}") from exc
        labels.append(parts[0])
    try:
        bandwidths = [float(b) for b in args.bandwidths.split(",")]
        rows = stream.latency_table(sizes, bandwidths, labels=labels)
    except ValueError as exc:
        raise _CliError(EXIT_VALIDATION, str(exc)) from exc
    csv_text = stream.latency_table_csv(rows, bandwidths)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "latency_table.csv").write_text(csv_text)
        print(f"wrote {out / 'latency_table.csv'}")
    print(csv_text, end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    selected = None
    if args.only:
        try:
            selected = {int(x) for x in args.only.split(",")}
        except ValueError as exc:
            raise _CliError(EXIT_VALIDATION, f"bad --only list: {exc}") from exc
        unknown = sorted(selected - set(range(1, len(acceptance.CRITERIA) + 1)))
        if unknown:
            raise _CliError(
                EXIT_VALIDATION, f"bad --only list: no criterion {unknown[0]}; they are 1..{len(acceptance.CRITERIA)}"
            )
    results = acceptance.run_all(selected)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"[{status}] {r.index:2d} {r.name:<{width}} ({r.seconds:7.2f}s)  {r.details}")
    total = sum(r.seconds for r in results)
    print(f"{len(results) - failures}/{len(results)} criteria passed in {total:.1f}s")
    return EXIT_OK if failures == 0 else EXIT_ACCEPTANCE


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key=value run config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pd4g", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="generate a scene and train its masks")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("encode", help="encode a trained scene into a .pd4g container")
    _add_common(p)
    p.add_argument("--masks", help="trained mask bank JSON (default: <out>/masks.json)")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("inspect", help="decode a container and report its layers")
    p.add_argument("container")
    p.add_argument("--json", action="store_true", help="also print the manifest as JSON")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("simulate", help="stream a container over a bandwidth trace")
    p.add_argument("container")
    p.add_argument("trace", help="CSV trace: duration_s,mbps per line")
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("latency-table", help="first-frame latency grid for model sizes")
    p.add_argument("--sizes", required=True, help="CSV of label,size_mb rows")
    p.add_argument(
        "--bandwidths",
        default=",".join(f"{b:g}" for b in stream.DEFAULT_BANDWIDTHS_MBPS),
        help="comma-separated Mbps list",
    )
    p.add_argument("--out", help="output directory for the CSV")
    p.set_defaults(fn=cmd_latency_table)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers to run")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:  # every command reads all its inputs before it writes
        print(f"error: input not found: {exc.filename}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # unexpected runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
