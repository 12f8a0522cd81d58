"""Prefix-decodable layered container (.pd4g): serialization, compression, integrity.

The container concatenates up to three independently compressed chunks in
layer order behind a fixed header and chunk table, so that any byte prefix
ending at a chunk boundary decodes to a renderable model at some level.
Continuous attributes are stored as quantization indices (reconstruction is
``index * step`` exactly); each chunk carries a CRC32 over its decompressed
payload. See FORMAT.md for the byte-level layout.
"""

from __future__ import annotations

import io
import lzma
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .asset import AnchorSet, DeformationTable, LocalResiduals, MaskBank, active_set
from .entropy import quantize_array

MAGIC = b"PD4G"
VERSION = 1
HEADER_BASE_SIZE = 65  # magic..quant steps + chunk count
CHUNK_ENTRY_SIZE = 22
DEFAULT_PRESET = 6

QUANT_FAMILIES = ("position", "feature", "scale", "offset", "mask", "deform")


class FormatError(ValueError):
    """The byte stream is not a well-formed container."""


class TruncatedStreamError(ValueError):
    """The stream ends before the header and base chunk are complete."""


class IntegrityError(ValueError):
    """A chunk's decompressed payload fails its checksum."""

    def __init__(self, layer: int, message: str | None = None):
        super().__init__(message or f"crc mismatch in layer {layer} chunk")
        self.layer = layer


class EmptyBaseLayerError(ValueError):
    """Nothing survives the base-layer mask threshold; the asset is unstreamable."""


@dataclass(frozen=True)
class EncodeConfig:
    """Container-level knobs: per-family quantization steps and compressor preset."""

    quant_steps: dict[str, float]
    preset: int = DEFAULT_PRESET

    def __post_init__(self):
        missing = [f for f in QUANT_FAMILIES if f not in self.quant_steps]
        if missing:
            raise ValueError(f"missing quantization steps for families: {missing}")
        for fam in QUANT_FAMILIES:
            if not 0 < self.quant_steps[fam] < math.inf:
                raise ValueError(f"quantization step for {fam!r} must be positive and finite")
        if not (0 <= self.preset <= 9):
            raise ValueError("compressor preset must lie in 0..9")

    @staticmethod
    def default() -> "EncodeConfig":
        from .toyscene import DEFAULT_QUANT_STEPS

        return EncodeConfig(quant_steps=dict(DEFAULT_QUANT_STEPS))


@dataclass(frozen=True)
class ChunkInfo:
    layer: int
    index_width: int
    raw_length: int
    compressed_length: int
    crc32: int


@dataclass(frozen=True)
class LayerManifest:
    """Byte accounting of a container, derivable from the header alone."""

    header_bytes: int
    chunks: tuple[ChunkInfo, ...]

    @property
    def compressed_sizes(self) -> tuple[int, ...]:
        return tuple(c.compressed_length for c in self.chunks)

    @property
    def cumulative_sizes(self) -> tuple[int, ...]:
        """Prefix byte counts: header+table plus compressed chunks up to each layer."""
        out = []
        total = self.header_bytes
        for c in self.chunks:
            total += c.compressed_length
            out.append(total)
        return tuple(out)

    @property
    def total_bytes(self) -> int:
        return self.cumulative_sizes[-1] if self.chunks else self.header_bytes

    def to_json_dict(self) -> dict:
        return {
            "header_bytes": self.header_bytes,
            "layers": [
                {
                    "layer": c.layer,
                    "raw_bytes": c.raw_length,
                    "compressed_bytes": c.compressed_length,
                    "cumulative_bytes": self.cumulative_sizes[i],
                    "crc32": f"0x{c.crc32:08x}",
                }
                for i, c in enumerate(self.chunks)
            ],
            "total_bytes": self.total_bytes,
        }


@dataclass(frozen=True)
class DecodedPrefix:
    """Result of decoding a (possibly truncated) container prefix.

    ``anchors`` holds every anchor carried by the decoded layers, ordered by
    ascending original index (``anchor_indices``). ``deformations`` is None
    when only the base layer arrived. Mask levels are zero for anchors that
    were inactive (hence not transmitted) at that level.
    """

    max_level: int
    anchors: AnchorSet
    deformations: Optional[DeformationTable]
    bank: MaskBank
    anchor_indices: np.ndarray
    original_count: int


def _pack_ints(values: np.ndarray, width: int) -> bytes:
    dtype = "<i2" if width == 2 else "<i4"
    return np.ascontiguousarray(values, dtype=dtype).tobytes()


def _unpack_ints(buf: io.BytesIO, count: int, width: int) -> np.ndarray:
    dtype = "<i2" if width == 2 else "<i4"
    raw = buf.read(count * width)
    if len(raw) != count * width:
        raise FormatError("chunk payload ends mid-array")
    return np.frombuffer(raw, dtype=dtype).astype(np.int64)


def _pack_f32(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f4").tobytes()


def _unpack_f32(buf: io.BytesIO, count: int) -> np.ndarray:
    raw = buf.read(count * 4)
    if len(raw) != count * 4:
        raise FormatError("chunk payload ends mid-array")
    return np.frombuffer(raw, dtype="<f4").astype(np.float64)


def _pack_u32(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<u4").tobytes()


def _unpack_u32(buf: io.BytesIO, count: int) -> np.ndarray:
    raw = buf.read(count * 4)
    if len(raw) != count * 4:
        raise FormatError("chunk payload ends mid-array")
    return np.frombuffer(raw, dtype="<u4").astype(np.int64)


def _base_record_arrays(anchors: AnchorSet, idx: np.ndarray, q: dict[str, float]):
    """Quantization indices + raw float fields of the base attribute record."""
    return {
        "positions": quantize_array(anchors.positions[idx], q["position"]),
        "features": quantize_array(anchors.features[idx], q["feature"]),
        "scales": quantize_array(anchors.scales[idx], q["scale"]),
        "offsets": quantize_array(anchors.offsets[idx], q["offset"]),
        "opacities": anchors.opacities[idx],
        "colors": anchors.colors[idx],
    }


def _collect_chunk_ints(parts: list[np.ndarray]) -> int:
    """Index width (2 or 4 bytes) needed by the signed ints of one chunk."""
    lo, hi = 0, 0
    for arr in parts:
        if arr.size:
            lo = min(lo, int(arr.min()))
            hi = max(hi, int(arr.max()))
    if -(2**15) <= lo and hi < 2**15:
        return 2
    return 4


def encode(
    anchors: AnchorSet,
    bank: MaskBank,
    deformations: DeformationTable,
    config: EncodeConfig | None = None,
) -> bytes:
    """Serialize an asset into the layered container format.

    The base chunk carries the level-0 active anchors' quantized attributes
    plus raw colors/opacities; the global chunk carries timesteps and the
    global table rows of level-1 active anchors; the refinement chunk carries
    the local residual rows of level-2 active anchors. Anchors active above
    the base level but pruned from it travel as supplemental records inside
    the higher chunk. Output is byte-identical for identical inputs.
    """
    config = config or EncodeConfig.default()
    q = config.quant_steps
    if deformations.count != anchors.count or bank.count != anchors.count:
        raise ValueError("anchors, bank and deformation table must agree on anchor count")

    act = [active_set(bank.level(level), bank.threshold) for level in range(3)]
    if act[0].size == 0:
        raise EmptyBaseLayerError("no anchor exceeds the base-layer mask threshold")
    base_pos = {int(v): i for i, v in enumerate(act[0])}

    chunks: list[bytes] = []

    # --- layer 0: base attribute records for the level-0 active set
    rec = _base_record_arrays(anchors, act[0], q)
    mask_idx = quantize_array(bank.level(0)[act[0]], q["mask"])
    int_parts = [rec["positions"], rec["features"], rec["scales"], rec["offsets"], mask_idx]
    width0 = _collect_chunk_ints(int_parts)
    body = io.BytesIO()
    body.write(_pack_u32([act[0].size]))
    body.write(_pack_u32(act[0]))
    for arr in (rec["positions"], rec["features"], rec["scales"], rec["offsets"]):
        body.write(_pack_ints(arr, width0))
    body.write(_pack_f32(rec["opacities"]))
    body.write(_pack_f32(rec["colors"]))
    body.write(_pack_ints(mask_idx, width0))
    chunks.append(body.getvalue())
    widths = [width0]

    # --- layers 1 and 2: membership, supplemental base records, masks, tables
    for level in (1, 2):
        idx = act[level]
        shared_mask = np.isin(idx, act[0])
        shared = idx[shared_mask]
        supp = idx[~shared_mask]
        refs = np.array([base_pos[int(v)] for v in shared], dtype=np.int64)

        mask_idx = quantize_array(bank.level(level)[idx], q["mask"])
        supp_rec = _base_record_arrays(anchors, supp, q)
        if level == 1:
            tables = [
                quantize_array(deformations.displacements[:, idx, :], q["deform"]),
                quantize_array(deformations.feature_residuals[:, idx, :], q["deform"]),
            ]
        else:
            loc = deformations.local
            tables = [
                quantize_array(loc.d_position[:, idx, :], q["deform"]),
                quantize_array(loc.d_scale[:, idx], q["deform"]),
                quantize_array(loc.d_opacity[:, idx], q["deform"]),
                quantize_array(loc.d_color[:, idx, :], q["deform"]),
            ]
        int_parts = [
            supp_rec["positions"],
            supp_rec["features"],
            supp_rec["scales"],
            supp_rec["offsets"],
            mask_idx,
            *tables,
        ]
        width = _collect_chunk_ints(int_parts)
        body = io.BytesIO()
        if level == 1:
            body.write(np.ascontiguousarray(deformations.timesteps, dtype="<f8").tobytes())
        body.write(_pack_u32([shared.size, supp.size]))
        body.write(_pack_u32(refs))
        body.write(_pack_u32(supp))
        for arr in (supp_rec["positions"], supp_rec["features"], supp_rec["scales"], supp_rec["offsets"]):
            body.write(_pack_ints(arr, width))
        body.write(_pack_f32(supp_rec["opacities"]))
        body.write(_pack_f32(supp_rec["colors"]))
        body.write(_pack_ints(mask_idx, width))
        for arr in tables:
            body.write(_pack_ints(arr, width))
        chunks.append(body.getvalue())
        widths.append(width)

    # --- header + chunk table + compressed payload
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<BBBB", VERSION, config.preset, 0, anchors.dim))
    out.write(struct.pack("<IHH", anchors.count, anchors.feature_dim, deformations.step_count))
    for fam in QUANT_FAMILIES:
        out.write(struct.pack("<d", q[fam]))
    out.write(struct.pack("<B", len(chunks)))

    compressed = [lzma.compress(c, preset=config.preset) for c in chunks]
    for layer, (raw, comp, width) in enumerate(zip(chunks, compressed, widths)):
        out.write(
            struct.pack("<BBQQI", layer, width, len(raw), len(comp), zlib.crc32(raw) & 0xFFFFFFFF)
        )
    for comp in compressed:
        out.write(comp)
    return out.getvalue()


def _parse_header(data: bytes):
    if len(data) < HEADER_BASE_SIZE:
        raise TruncatedStreamError("stream shorter than the fixed header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}")
    version, preset, flags, dim = struct.unpack_from("<BBBB", data, 4)
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if flags != 0:
        raise FormatError(f"reserved flags byte is 0x{flags:02x}; it must be 0")
    if dim not in (2, 3):
        raise FormatError(f"spatial dimension {dim} is not 2 or 3")
    count, feature_dim, step_count = struct.unpack_from("<IHH", data, 8)
    quant = {}
    off = 16
    for fam in QUANT_FAMILIES:
        (quant[fam],) = struct.unpack_from("<d", data, off)
        if not 0 < quant[fam] < math.inf:
            raise FormatError(f"quantization step for {fam!r} is {quant[fam]!r}; it must be positive and finite")
        off += 8
    (chunk_count,) = struct.unpack_from("<B", data, off)
    off += 1
    if chunk_count > 3:
        raise FormatError(f"chunk table claims {chunk_count} chunks")
    table_end = off + chunk_count * CHUNK_ENTRY_SIZE
    if len(data) < table_end:
        raise TruncatedStreamError("stream ends inside the chunk table")
    chunks = []
    for i in range(chunk_count):
        layer, width, raw_len, comp_len, crc = struct.unpack_from(
            "<BBQQI", data, off + i * CHUNK_ENTRY_SIZE
        )
        if layer != i:
            raise FormatError(f"chunk {i} labeled layer {layer}; layers must start at 0 and ascend")
        if width not in (2, 4):
            raise FormatError(f"unsupported index width {width}")
        chunks.append(ChunkInfo(layer, width, raw_len, comp_len, crc))
    header = {
        "preset": preset,
        "dim": dim,
        "count": count,
        "feature_dim": feature_dim,
        "step_count": step_count,
        "quant": quant,
        "header_bytes": table_end,
        "chunks": chunks,
    }
    return header


def manifest(data: bytes) -> LayerManifest:
    """Byte accounting from the header and chunk table alone (no decompression).

    Only chunks whose compressed extent is fully present are listed, so the
    manifest of a boundary-truncated prefix describes exactly the layers that
    prefix can deliver.
    """
    h = _parse_header(data)
    present = []
    offset = h["header_bytes"]
    for info in h["chunks"]:
        offset += info.compressed_length
        if offset > len(data):
            break
        present.append(info)
    return LayerManifest(header_bytes=h["header_bytes"], chunks=tuple(present))


def _read_base_records(buf: io.BytesIO, n: int, width: int, dim: int, fdim: int, q: dict):
    pos = _unpack_ints(buf, n * dim, width).reshape(n, dim) * q["position"]
    feat = _unpack_ints(buf, n * fdim, width).reshape(n, fdim) * q["feature"]
    scale = _unpack_ints(buf, n, width) * q["scale"]
    off = _unpack_ints(buf, n * dim, width).reshape(n, dim) * q["offset"]
    opac = _unpack_f32(buf, n)
    col = _unpack_f32(buf, n * 3).reshape(n, 3)
    return pos, feat, scale, off, opac, col


def decode_prefix(data: bytes) -> DecodedPrefix:
    """Decode every complete chunk in a byte prefix of a container.

    A truncation after chunk k and before the end of chunk k+1 simply yields
    ``max_level = k``; a truncated base chunk raises. CRC failures raise
    ``IntegrityError`` naming the offending layer (lower layers remain
    decodable by re-slicing the prefix to their extent).
    """
    h = _parse_header(data)
    dim, fdim, q = h["dim"], h["feature_dim"], h["quant"]
    step_count = h["step_count"]

    payloads = []
    offset = h["header_bytes"]
    for info in h["chunks"]:
        end = offset + info.compressed_length
        if end > len(data):
            break
        try:
            raw = lzma.decompress(data[offset:end])
        except lzma.LZMAError as exc:
            raise IntegrityError(info.layer, f"layer {info.layer} chunk fails to decompress: {exc}") from exc
        if len(raw) != info.raw_length:
            raise IntegrityError(info.layer, f"layer {info.layer} chunk has wrong decompressed length")
        if zlib.crc32(raw) & 0xFFFFFFFF != info.crc32:
            raise IntegrityError(info.layer)
        payloads.append((info, raw))
        offset = end
    if not payloads:
        raise TruncatedStreamError("no complete base-layer chunk in the stream")

    # --- base chunk
    info0, raw0 = payloads[0]
    buf = io.BytesIO(raw0)
    n0 = int(_unpack_u32(buf, 1)[0])
    base_idx = _unpack_u32(buf, n0)
    pos, feat, scale, off, opac, col = _read_base_records(buf, n0, info0.index_width, dim, fdim, q)
    mask0 = _unpack_ints(buf, n0, info0.index_width) * q["mask"]

    records: dict[int, tuple] = {
        int(v): (pos[i], feat[i], scale[i], off[i], opac[i], col[i]) for i, v in enumerate(base_idx)
    }
    level_masks: dict[int, dict[int, float]] = {0: {}, 1: {}, 2: {}}
    for i, v in enumerate(base_idx):
        level_masks[0][int(v)] = float(mask0[i])

    timesteps = None
    global_rows: dict[int, tuple] = {}
    local_rows: dict[int, tuple] = {}

    for info, raw in payloads[1:]:
        level = info.layer
        buf = io.BytesIO(raw)
        if level == 1:
            ts_raw = buf.read(step_count * 8)
            if len(ts_raw) != step_count * 8:
                raise FormatError("layer 1 chunk ends inside the timestep array")
            timesteps = np.frombuffer(ts_raw, dtype="<f8").copy()
        counts = _unpack_u32(buf, 2)
        n_shared, n_supp = int(counts[0]), int(counts[1])
        refs = _unpack_u32(buf, n_shared)
        supp_idx = _unpack_u32(buf, n_supp)
        if np.any(refs >= n0):
            raise FormatError(f"layer {level} references a base record that does not exist")
        s_pos, s_feat, s_scale, s_off, s_opac, s_col = _read_base_records(
            buf, n_supp, info.index_width, dim, fdim, q
        )
        for i, v in enumerate(supp_idx):
            records.setdefault(int(v), (s_pos[i], s_feat[i], s_scale[i], s_off[i], s_opac[i], s_col[i]))
        members = np.concatenate([base_idx[refs], supp_idx])
        order = np.argsort(members, kind="stable")
        members = members[order]
        n_level = members.size
        masks = _unpack_ints(buf, n_level, info.index_width) * q["mask"]
        for i, v in enumerate(members):
            level_masks[level][int(v)] = float(masks[i])
        if level == 1:
            disp = _unpack_ints(buf, step_count * n_level * dim, info.index_width)
            disp = disp.reshape(step_count, n_level, dim) * q["deform"]
            fres = _unpack_ints(buf, step_count * n_level * fdim, info.index_width)
            fres = fres.reshape(step_count, n_level, fdim) * q["deform"]
            for i, v in enumerate(members):
                global_rows[int(v)] = (disp[:, i, :], fres[:, i, :])
        else:
            dmu = _unpack_ints(buf, step_count * n_level * dim, info.index_width)
            dmu = dmu.reshape(step_count, n_level, dim) * q["deform"]
            dsc = _unpack_ints(buf, step_count * n_level, info.index_width).reshape(step_count, n_level)
            dsc = dsc * q["deform"]
            dop = _unpack_ints(buf, step_count * n_level, info.index_width).reshape(step_count, n_level)
            dop = dop * q["deform"]
            dcol = _unpack_ints(buf, step_count * n_level * 3, info.index_width)
            dcol = dcol.reshape(step_count, n_level, 3) * q["deform"]
            for i, v in enumerate(members):
                local_rows[int(v)] = (dmu[:, i, :], dsc[:, i], dop[:, i], dcol[:, i, :])

    max_level = payloads[-1][0].layer
    union = np.array(sorted(records), dtype=np.int64)
    n = union.size
    arrays = {
        "positions": np.stack([records[v][0] for v in union]),
        "features": np.stack([records[v][1] for v in union]),
        "scales": np.array([records[v][2] for v in union]),
        "offsets": np.stack([records[v][3] for v in union]),
        "opacities": np.array([records[v][4] for v in union]),
        "colors": np.stack([records[v][5] for v in union]),
    }
    anchors = AnchorSet(**arrays)

    bank_levels = []
    for level in range(3):
        m = np.zeros(n)
        for i, v in enumerate(union):
            m[i] = level_masks[level].get(int(v), 0.0)
        bank_levels.append(m)
    bank = MaskBank(levels=tuple(bank_levels))

    deformations = None
    if max_level >= 1:
        disp = np.zeros((step_count, n, dim))
        fres = np.zeros((step_count, n, fdim))
        for i, v in enumerate(union):
            row = global_rows.get(int(v))
            if row is not None:
                disp[:, i, :], fres[:, i, :] = row
        local = LocalResiduals(
            d_position=np.zeros((step_count, n, dim)),
            d_scale=np.zeros((step_count, n)),
            d_opacity=np.zeros((step_count, n)),
            d_color=np.zeros((step_count, n, 3)),
        )
        if max_level == 2:
            dmu = np.zeros((step_count, n, dim))
            dsc = np.zeros((step_count, n))
            dop = np.zeros((step_count, n))
            dcol = np.zeros((step_count, n, 3))
            for i, v in enumerate(union):
                row = local_rows.get(int(v))
                if row is not None:
                    dmu[:, i, :], dsc[:, i], dop[:, i], dcol[:, i, :] = row
            local = LocalResiduals(d_position=dmu, d_scale=dsc, d_opacity=dop, d_color=dcol)
        deformations = DeformationTable(
            timesteps=timesteps,
            displacements=disp,
            feature_residuals=fres,
            local=local,
        )

    return DecodedPrefix(
        max_level=max_level,
        anchors=anchors,
        deformations=deformations,
        bank=bank,
        anchor_indices=union,
        original_count=h["count"],
    )
