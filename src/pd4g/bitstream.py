"""Prefix-decodable layered container (.pd4g): serialization, compression, integrity.

The container concatenates up to three independently compressed chunks in
layer order behind a fixed header and chunk table, so that any byte prefix
ending at a chunk boundary decodes to a renderable model at some level.
Continuous attributes are stored as quantization indices (reconstruction is
``index * step`` exactly), each index array at the narrowest width that holds
it. Each chunk is a raw LZMA2 stream with a CRC32 over its decompressed
payload, and a CRC32 guards the header and chunk table. See FORMAT.md for the
byte-level layout.
"""

from __future__ import annotations

import lzma
import math
import struct
import sys
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .asset import MASK_THRESHOLD, AnchorSet, DeformationTable, LocalResiduals, MaskBank, active_set, read_only
from .entropy import quantize_array

MAGIC = b"PD4G"
VERSION = 3
# FORMAT.md's fixed layout: magic, version, preset, flags, dim, N, F, T, the
# six quant steps and the chunk count; per chunk its layer, raw and compressed
# lengths and payload CRC32; then the CRC32 of all of that
HEADER = struct.Struct("<4sBBBBIHH6dB")
CHUNK_ENTRY = struct.Struct("<BQQI")
HEADER_CRC = struct.Struct("<I")
DEFAULT_PRESET = 6
DICT_SIZE = 2**20  # every chunk's LZMA2 dictionary, whatever the preset
_DECODE_FILTERS = [{"id": lzma.FILTER_LZMA2, "dict_size": DICT_SIZE}]  # FORMAT.md's decoder chain, for every preset
INT_WIDTHS = (1, 2, 4)
MAX_FEATURE_DIM = 0xFFFF  # the header's u16 field F

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
    """The quant steps and preset pd4g writes; kept as keywords, they accept only the published values."""

    quant_steps: dict[str, float]
    preset: int = DEFAULT_PRESET

    def __post_init__(self):
        if self.quant_steps != DEFAULT_QUANT_STEPS or self.preset != DEFAULT_PRESET:
            raise ValueError(f"pd4g writes only DEFAULT_QUANT_STEPS and preset {DEFAULT_PRESET}, got {self}")

    @staticmethod
    def default() -> "EncodeConfig":
        return EncodeConfig(quant_steps=dict(DEFAULT_QUANT_STEPS))


@dataclass(frozen=True)
class ChunkInfo:
    layer: int
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
    were inactive (hence not transmitted) at that level. Every array is
    read-only.
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


def pack_ints(values: np.ndarray) -> bytes:
    """A signed-int array as FORMAT.md stores it: one width byte, then the ints at that width.

    The width is the smallest of 1, 2 or 4 bytes that holds the array's
    minimum and maximum (1 for an empty array).
    """
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    width = next(w for w in INT_WIDTHS if -(2 ** (8 * w - 1)) <= lo and hi < 2 ** (8 * w - 1))
    return bytes([width]) + _pack(values, f"<i{width}")


def _filters(preset: int) -> list[dict]:
    """The LZMA2 filter chain chunks are compressed with: the preset's settings with the fixed dictionary size."""
    return [{"id": lzma.FILTER_LZMA2, "preset": preset, "dict_size": DICT_SIZE}]


def compress_chunk(raw: bytes, preset: int) -> bytes:
    """One chunk payload as a raw LZMA2 stream."""
    return lzma.compress(raw, format=lzma.FORMAT_RAW, filters=_filters(preset))


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

    Every chunk lists the anchors active at its level and their masks; the
    global chunk adds timesteps and the global table rows, the refinement
    chunk the local residual rows. Each anchor's quantized attributes and raw
    color and opacity travel once, in the lowest chunk that lists it. Output
    is byte-identical for identical inputs. A ``config`` can hold only the
    published steps and preset, which are written.
    """
    q = DEFAULT_QUANT_STEPS
    if deformations.count != anchors.count or bank.count != anchors.count:
        raise ValueError("anchors, bank and deformation table must agree on anchor count")
    for name, value, limit in (
        ("anchor count", anchors.count, 0xFFFFFFFF),
        ("feature dimension F", anchors.feature_dim, MAX_FEATURE_DIM),
        ("timestep count T", deformations.step_count, 0xFFFF),
    ):
        if value > limit:
            raise ValueError(f"{name} is {value}, beyond the header field's {limit}")
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

    act = [active_set(bank.level(level)) for level in range(3)]
    if act[0].size == 0:
        raise EmptyBaseLayerError("no anchor exceeds the base-layer mask threshold")

    sent = np.zeros(anchors.count, dtype=bool)  # anchors whose record a lower layer carries
    chunks: list[bytes] = []
    for level, idx in enumerate(act):
        # each layer lists its members and carries a record for each member
        # that no lower layer lists
        new = idx[~sent[idx]]
        sent[idx] = True
        records = [
            quantize_array(anchors.positions[new], q["position"]),
            quantize_array(anchors.features[new], q["feature"]),
            quantize_array(anchors.scales[new], q["scale"]),
            quantize_array(anchors.offsets[new], q["offset"]),
        ]
        ints = [
            quantize_array(bank.level(level)[idx], q["mask"]),
            *(quantize_array(t[:, idx], q["deform"]) for t in _level_tables(deformations, level)),
        ]
        body = [_pack(deformations.timesteps, "<f8")] if level == 1 else []
        body += [_pack([idx.size], "<u4"), _pack(idx, "<u4")]
        body += [pack_ints(a) for a in records]
        body += [_pack(anchors.opacities[new], "<f4"), _pack(anchors.colors[new], "<f4")]
        body += [pack_ints(a) for a in ints]
        chunks.append(b"".join(body))

    # --- header + chunk table + compressed payload
    sizes = (anchors.dim, anchors.count, anchors.feature_dim, deformations.step_count)
    header = HEADER.pack(MAGIC, VERSION, DEFAULT_PRESET, 0, *sizes, *(q[fam] for fam in QUANT_FAMILIES), len(chunks))
    compressed = [compress_chunk(c, DEFAULT_PRESET) for c in chunks]
    table = [
        CHUNK_ENTRY.pack(layer, len(raw), len(comp), zlib.crc32(raw) & 0xFFFFFFFF)
        for layer, (raw, comp) in enumerate(zip(chunks, compressed))
    ]
    head = b"".join([header, *table])
    return head + HEADER_CRC.pack(zlib.crc32(head) & 0xFFFFFFFF) + b"".join(compressed)


def _parse_header(data: bytes):
    if len(data) < HEADER.size:
        raise TruncatedStreamError("stream shorter than the fixed header")
    magic, version, preset, flags, dim, count, feature_dim, step_count, *steps, chunk_count = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if not 0 < chunk_count <= 3:
        raise FormatError(f"chunk table claims {chunk_count} chunks")
    table_end = HEADER.size + chunk_count * CHUNK_ENTRY.size
    if len(data) < table_end + HEADER_CRC.size:
        raise TruncatedStreamError("stream ends inside the chunk table")
    if zlib.crc32(data[:table_end]) & 0xFFFFFFFF != HEADER_CRC.unpack_from(data, table_end)[0]:
        raise FormatError("header and chunk table fail their CRC32")
    if preset > 9:
        raise FormatError(f"compressor preset {preset} is not in 0..9")
    if flags != 0:
        raise FormatError(f"reserved flags byte is 0x{flags:02x}; it must be 0")
    if dim not in (2, 3):
        raise FormatError(f"spatial dimension {dim} is not 2 or 3")
    quant = dict(zip(QUANT_FAMILIES, steps))
    for fam, step in quant.items():
        if not usable_quant_step(step):
            raise FormatError(
                f"quantization step for {fam!r} is {step!r}; it must be positive and finite, also times 2**31"
            )
    chunks = [ChunkInfo(*entry) for entry in CHUNK_ENTRY.iter_unpack(data[HEADER.size:table_end])]
    for i, info in enumerate(chunks):
        if info.layer != i:
            raise FormatError(f"chunk {i} labeled layer {info.layer}; layers must start at 0 and ascend")
    return {
        "dim": dim,
        "count": count,
        "feature_dim": feature_dim,
        "step_count": step_count,
        "quant": quant,
        "header_bytes": table_end + HEADER_CRC.size,
        "chunks": chunks,
    }


def manifest(data: bytes) -> LayerManifest:
    """Byte accounting from the header and chunk table alone (no decompression).

    Only chunks whose compressed extent is fully present are listed, so the
    manifest of a boundary-truncated prefix describes exactly the layers that
    prefix can deliver. A prefix without a complete base chunk raises
    ``TruncatedStreamError``, as in ``decode_prefix``.
    """
    h = _parse_header(data)
    return LayerManifest(header_bytes=h["header_bytes"], chunks=tuple(info for info, _ in _complete_chunks(data, h)))


def _complete_chunks(data: bytes, h: dict) -> list[tuple[ChunkInfo, slice]]:
    """Each chunk, in layer order, that ``data`` holds in full, with its extent; the first cut one ends the list."""
    present = []
    offset = h["header_bytes"]
    for info in h["chunks"]:
        end = offset + info.compressed_length
        if end > len(data):
            break
        present.append((info, slice(offset, end)))
        offset = end
    if not present:
        raise TruncatedStreamError("no complete base-layer chunk in the stream")
    return present


# every dtype a payload array is read as, resolved once
_DTYPES = {code: np.dtype(code) for code in ("<u4", "<f4", "<f8", *(f"<i{w}" for w in INT_WIDTHS))}


class _Reader:
    """Consecutive little-endian arrays of one decompressed chunk payload.

    Each array is a read-only view of the payload bytes, of a dtype from
    ``_DTYPES``.
    """

    def __init__(self, raw: bytes):
        self.raw = raw
        self.offset = 0

    def take(self, dtype: str, *shape: int) -> np.ndarray:
        """The next ``shape``-shaped array of ``dtype``; FormatError past the payload's end."""
        dtype = _DTYPES[dtype]
        count = math.prod(shape)
        end = self.offset + count * dtype.itemsize
        if end > len(self.raw):
            raise FormatError("chunk payload ends mid-array")
        out = np.frombuffer(self.raw, dtype, count, self.offset)
        self.offset = end
        return out if len(shape) == 1 else out.reshape(shape)

    def ints(self, *shape: int) -> np.ndarray:
        """The next signed-int array: its width byte, then the ints at that width."""
        if self.offset >= len(self.raw):
            raise FormatError("chunk payload ends mid-array")
        width = self.raw[self.offset]
        if width not in INT_WIDTHS:
            raise FormatError(f"int array width {width} is not 1, 2 or 4")
        self.offset += 1
        return self.take(f"<i{width}", *shape)


def _check_indices(idx: np.ndarray, bound: int, what: str) -> None:
    if idx.size and (idx[-1] >= bound or (idx[1:] <= idx[:-1]).any()):
        raise FormatError(f"{what} must ascend strictly and stay below {bound}")


def _dense_table(rows: np.ndarray, at: np.ndarray, n: int, step: float) -> np.ndarray:
    """The float table with ``rows * step`` in columns ``at`` of ``n`` and zeros elsewhere.

    The rows are scaled once, followed by one zero column, and the table takes
    each of its ``n`` columns from there in a single gather, which is several
    times faster than a scatter into zeros. The int to float64 cast is exact and
    the zero column is +0.0, so every bit equals that of ``index * step``.
    """
    m = rows.shape[1]
    if m == n:  # the layer carries every anchor of the union: ``at`` is 0..n-1
        return np.multiply(rows, step, dtype=np.float64)
    scaled = np.empty((rows.shape[0], m + 1, *rows.shape[2:]))
    np.multiply(rows, step, out=scaled[:, :m])
    scaled[:, m] = 0.0
    source = np.full(n, m)
    source[at] = np.arange(m)
    return scaled.take(source, axis=1)


def decode_prefix(data: bytes) -> DecodedPrefix:
    """Decode every complete chunk in a byte prefix of a container.

    A truncation after chunk k and before the end of chunk k+1 simply yields
    ``max_level = k``; a truncated base chunk raises. CRC failures raise
    ``IntegrityError`` naming the offending layer (lower layers remain
    decodable by re-slicing the prefix to their extent). A payload that breaks
    one of FORMAT.md's payload rules, an empty layer 0 among them, raises
    ``FormatError``.

    Each anchor's record is read from the lowest layer that lists it; a
    higher layer that lists the anchor again reads no record for it, so no
    anchor can have two. Small prefixes cost little beyond their LZMA work:
    the records stay quantized ints until the union is formed, and each field
    is then scaled in one multiply. When only layer 0 carries records, a
    base-only prefix among them, the union is layer 0's members in their
    stored order, with no sort.
    """
    h = _parse_header(data)
    dim, fdim, q = h["dim"], h["feature_dim"], h["quant"]
    step_count = h["step_count"]

    payloads = []
    for info, extent in _complete_chunks(data, h):
        # one byte past the declared length tells a long stream from an exact one
        decompressor = lzma.LZMADecompressor(format=lzma.FORMAT_RAW, filters=_DECODE_FILTERS)
        try:
            raw = decompressor.decompress(data[extent], max_length=min(info.raw_length + 1, sys.maxsize))
        except lzma.LZMAError as exc:
            raise IntegrityError(info.layer, f"layer {info.layer} chunk fails to decompress: {exc}") from exc
        if not decompressor.eof or decompressor.unused_data or len(raw) != info.raw_length:
            raise IntegrityError(
                info.layer, f"layer {info.layer} chunk does not end its LZMA2 stream at its raw length and extent"
            )
        if zlib.crc32(raw) & 0xFFFFFFFF != info.crc32:
            raise IntegrityError(info.layer)
        payloads.append((info, raw))

    table_shapes = {0: [], 1: [(dim,), (fdim,)], 2: [(dim,), (), (), (3,)]}
    carried, records, level_rows = [], [], []
    timesteps = None
    for info, raw in payloads:
        level = info.layer
        r = _Reader(raw)
        if level == 1:
            timesteps = r.take("<f8", step_count)
        members = r.take("<u4", int(r.take("<u4", 1)[0])).astype(np.int64)
        _check_indices(members, h["count"], f"layer {level} anchor indices")
        if level == 0 and members.size == 0:
            raise FormatError("layer 0 carries no anchor")
        # a layer carries the record of each member that no lower layer lists; a lower
        # layer's members ascend strictly, so a member is among them when it equals its bisection
        new = members
        for lower, _, _ in level_rows:
            if lower.size:
                new = new[lower.take(np.searchsorted(lower, new), mode="clip") != new]
        carried.append(new)
        # the quantized fields stay ints here and are scaled once, in the union
        block = (
            r.ints(new.size, dim),
            r.ints(new.size, fdim),
            r.ints(new.size),
            r.ints(new.size, dim),
            r.take("<f4", new.size),
            r.take("<f4", new.size, 3),
        )
        records.append(block)
        masks = r.ints(members.size) * q["mask"]
        if masks.size and not (masks.min() > MASK_THRESHOLD and masks.max() <= 1.0):
            raise FormatError(f"layer {level} carries a mask outside ({MASK_THRESHOLD}, 1]")
        tables = [r.ints(step_count, members.size, *s) for s in table_shapes[level]]
        if r.offset != len(raw):
            raise FormatError(f"layer {level} chunk payload has bytes after its last array")
        level_rows.append((members, masks, tables))

    if not any(new.size for new in carried[1:]):  # the union is layer 0's members, which ascend strictly
        union, fields = carried[0], records[0]
    else:
        # the carried sets are disjoint, so sorting them together gives the union
        every = np.concatenate(carried)
        order = every.argsort()
        union = every[order]
        fields = [np.concatenate(field)[order] for field in zip(*records)]
    n = union.size
    max_level = payloads[-1][0].layer
    bank_levels = [np.zeros(n) for _ in range(3)]
    full_tables = {}
    # the tables and anchor fields handed to the asset types below are fresh
    # and held nowhere else, so they are marked read-only and adopted, not
    # copied; MaskBank clamps the mask levels into copies of its own
    for level, (members, masks, tables) in enumerate(level_rows):
        at = np.searchsorted(union, members)
        bank_levels[level][at] = masks
        full_tables[level] = [read_only(_dense_table(rows, at, n, q["deform"])) for rows in tables]
    if max_level == 1:
        full_tables[2] = [read_only(np.zeros((step_count, n, *s))) for s in table_shapes[2]]

    # casting a signaling NaN warns; AnchorSet's range check rejects it, as every NaN
    with np.errstate(invalid="ignore"):
        raw_floats = [read_only(values.astype(np.float64)) for values in fields[4:]]
    try:
        scaled = (read_only(ints * q[fam]) for ints, fam in zip(fields, ("position", "feature", "scale", "offset")))
        anchors = AnchorSet(*scaled, *raw_floats)
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
        anchor_indices=read_only(union),
        original_count=h["count"],
    )
