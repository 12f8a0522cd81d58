"""Prefix-decodable layered container (.pd4g): serialization, compression, integrity.

The container concatenates up to three independently compressed chunks in
layer order behind a fixed header and chunk table, so that any byte prefix
ending at a chunk boundary decodes to a renderable model at some level.
Continuous attributes are stored as quantization indices (reconstruction is
``index * step`` exactly); each chunk carries a CRC32 over its decompressed
payload. See FORMAT.md for the byte-level layout.
"""

from __future__ import annotations

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
DEFAULT_QUANT_STEPS = {
    "position": 1.0 / 16.0,
    "feature": 1.0 / 16.0,
    "scale": 1.0 / 16.0,
    "offset": 1.0 / 16.0,
    "mask": 1.0 / 256.0,
    "deform": 1.0 / 16.0,
}


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


def usable_quant_step(step: float) -> bool:
    """Whether every 32-bit index, up to magnitude 2**31, reconstructs to a finite value."""
    return step > 0 and math.isfinite(step * 2**31)


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
            if not usable_quant_step(self.quant_steps[fam]):
                raise ValueError(f"quantization step for {fam!r} must be positive and finite, also times 2**31")
        if not (0 <= self.preset <= 9):
            raise ValueError("compressor preset must lie in 0..9")

    @staticmethod
    def default() -> "EncodeConfig":
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


def _pack(values, dtype: str) -> bytes:
    """Little-endian bytes of ``values`` as ``dtype`` (``"<u4"``, ``"<f4"``, ``"<i2"``, ...)."""
    return np.ascontiguousarray(values, dtype=dtype).tobytes()


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


def _level_tables(deformations: DeformationTable, level: int) -> tuple[np.ndarray, ...]:
    """The deformation arrays a layer carries, in payload order (none for layer 0)."""
    if level == 1:
        return deformations.displacements, deformations.feature_residuals
    loc = deformations.local
    return (loc.d_position, loc.d_scale, loc.d_opacity, loc.d_color) if level == 2 else ()


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
    # the header records the anchors' widths, and the decoder reads every table by them
    if deformations.feature_residuals.shape[2] != anchors.feature_dim:
        raise ValueError(
            f"feature residuals are {deformations.feature_residuals.shape[2]} wide "
            f"but the anchors' features are {anchors.feature_dim} wide"
        )
    if deformations.displacements.shape[2] != anchors.dim:
        raise ValueError(
            f"deformation table is {deformations.displacements.shape[2]}-D but the anchors are {anchors.dim}-D"
        )

    act = [active_set(bank.level(level), bank.threshold) for level in range(3)]
    if act[0].size == 0:
        raise EmptyBaseLayerError("no anchor exceeds the base-layer mask threshold")

    chunks: list[bytes] = []
    widths: list[int] = []
    for level, idx in enumerate(act):
        # layer 0 carries a record for each member; higher layers refer to the
        # records layer 0 carries and add supplemental records for the rest
        in_base = np.isin(idx, act[0]) if level else np.zeros(idx.size, dtype=bool)
        shared, supp = idx[in_base], idx[~in_base]
        records = [
            quantize_array(anchors.positions[supp], q["position"]),
            quantize_array(anchors.features[supp], q["feature"]),
            quantize_array(anchors.scales[supp], q["scale"]),
            quantize_array(anchors.offsets[supp], q["offset"]),
        ]
        ints = [
            quantize_array(bank.level(level)[idx], q["mask"]),
            *(quantize_array(t[:, idx], q["deform"]) for t in _level_tables(deformations, level)),
        ]
        width = _collect_chunk_ints(records + ints)
        counts = [supp.size] if level == 0 else [shared.size, supp.size]
        body = [_pack(deformations.timesteps, "<f8")] if level == 1 else []
        body += [_pack(counts, "<u4"), _pack(np.searchsorted(act[0], shared), "<u4"), _pack(supp, "<u4")]
        body += [_pack(a, f"<i{width}") for a in records]
        body += [_pack(anchors.opacities[supp], "<f4"), _pack(anchors.colors[supp], "<f4")]
        body += [_pack(a, f"<i{width}") for a in ints]
        chunks.append(b"".join(body))
        widths.append(width)

    # --- header + chunk table + compressed payload
    header = [
        MAGIC,
        struct.pack("<BBBB", VERSION, config.preset, 0, anchors.dim),
        struct.pack("<IHH", anchors.count, anchors.feature_dim, deformations.step_count),
        *(struct.pack("<d", q[fam]) for fam in QUANT_FAMILIES),
        struct.pack("<B", len(chunks)),
    ]
    compressed = [lzma.compress(c, preset=config.preset) for c in chunks]
    table = [
        struct.pack("<BBQQI", layer, width, len(raw), len(comp), zlib.crc32(raw) & 0xFFFFFFFF)
        for layer, (raw, comp, width) in enumerate(zip(chunks, compressed, widths))
    ]
    return b"".join(header + table + compressed)


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
        if not usable_quant_step(quant[fam]):
            raise FormatError(
                f"quantization step for {fam!r} is {quant[fam]!r}; it must be positive and finite, also times 2**31"
            )
        off += 8
    (chunk_count,) = struct.unpack_from("<B", data, off)
    off += 1
    if not 0 < chunk_count <= 3:
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


class _Reader:
    """Consecutive little-endian arrays of one decompressed chunk payload."""

    def __init__(self, raw: bytes, width: int):
        self.raw = raw
        self.offset = 0
        self.ints = f"<i{width}"  # the chunk's signed quantization indices

    def take(self, dtype: str, *shape: int) -> np.ndarray:
        """The next ``shape``-shaped array of ``dtype``; FormatError past the payload's end."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        end = self.offset + count * dtype.itemsize
        if end > len(self.raw):
            raise FormatError("chunk payload ends mid-array")
        out = np.frombuffer(self.raw, dtype, count, self.offset).reshape(shape)
        self.offset = end
        return out


def _check_indices(idx: np.ndarray, bound: int, what: str) -> None:
    if idx.size and (idx[-1] >= bound or np.any(idx[1:] <= idx[:-1])):
        raise FormatError(f"{what} must ascend strictly and stay below {bound}")


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

    table_shapes = {0: [], 1: [(dim,), (fdim,)], 2: [(dim,), (), (), (3,)]}
    carried, records, level_rows = [], [], []
    timesteps = None
    for info, raw in payloads:
        level = info.layer
        r = _Reader(raw, info.index_width)
        if level == 1:
            timesteps = r.take("<f8", step_count)
        if level == 0:
            n_shared, n_supp = 0, int(r.take("<u4", 1)[0])
        else:
            n_shared, n_supp = (int(c) for c in r.take("<u4", 2))
        refs = r.take("<u4", n_shared).astype(np.int64)
        supp = r.take("<u4", n_supp).astype(np.int64)
        _check_indices(supp, h["count"], f"layer {level} anchor indices")
        if level == 0:
            base = supp
        else:
            _check_indices(refs, base.size, f"layer {level} refs")
            if np.any(np.isin(supp, base)):
                raise FormatError(f"layer {level} supplements an anchor that layer 0 carries")
        carried.append(supp)
        block = (
            r.take(r.ints, n_supp, dim) * q["position"],
            r.take(r.ints, n_supp, fdim) * q["feature"],
            r.take(r.ints, n_supp) * q["scale"],
            r.take(r.ints, n_supp, dim) * q["offset"],
            r.take("<f4", n_supp),
            r.take("<f4", n_supp, 3),
        )
        records.append(block)
        members = np.sort(np.concatenate([base[refs], supp]))
        masks = r.take(r.ints, members.size) * q["mask"]
        tables = [r.take(r.ints, step_count, members.size, *s) * q["deform"] for s in table_shapes[level]]
        if r.offset != len(raw):
            raise FormatError(f"layer {level} chunk payload has bytes after its last array")
        level_rows.append((members, masks, tables))

    # the union in ascending order; a repeated supplemental record keeps its first copy
    union, first = np.unique(np.concatenate(carried), return_index=True)
    n = union.size
    max_level = payloads[-1][0].layer
    bank_levels = [np.zeros(n) for _ in range(3)]
    full_tables = {}
    if max_level >= 1:
        full_tables = {lvl: [np.zeros((step_count, n, *s)) for s in table_shapes[lvl]] for lvl in (1, 2)}
    for level, (members, masks, tables) in enumerate(level_rows):
        at = np.searchsorted(union, members)
        bank_levels[level][at] = masks
        for full, rows in zip(full_tables.get(level, ()), tables):
            full[:, at] = rows

    try:
        anchors = AnchorSet(*(np.concatenate(field)[first] for field in zip(*records)))
        bank = MaskBank(levels=tuple(bank_levels))
        deformations = None
        if max_level >= 1:
            deformations = DeformationTable(timesteps, *full_tables[1], LocalResiduals(*full_tables[2]))
    except ValueError as exc:
        raise FormatError(f"decoded asset is invalid: {exc}") from exc

    return DecodedPrefix(
        max_level=max_level,
        anchors=anchors,
        deformations=deformations,
        bank=bank,
        anchor_indices=union,
        original_count=h["count"],
    )
