import functools
import hashlib
import lzma
import re
import struct
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pd4g.acceptance import expected_reconstruction, random_asset
from pd4g.asset import AnchorSet, DeformationTable, LocalResiduals, MaskBank, active_set
from pd4g.bitstream import (
    CHUNK_ENTRY,
    DEFAULT_PRESET,
    DEFAULT_QUANT_STEPS,
    HEADER,
    QUANT_FAMILIES,
    EmptyBaseLayerError,
    EncodeConfig,
    FormatError,
    IntegrityError,
    TruncatedStreamError,
    compress_chunk,
    decode_prefix,
    encode,
    manifest,
)
from pd4g.entropy import quantize_array
from pd4g.toyscene import make_scene


@pytest.fixture()
def asset():
    return random_asset(np.random.default_rng(7))


PINNED_CONTAINERS = {
    3: "592cf3594c16729591b22c029ea1800bbd2354165cbcd3bd86e08357d7f6f666",
    7: "8f3bf3e6e320f4d63dd783b6c725c1aba580b1be6c5b203b0b7dd4802c055858",
    11: "1a3386dc8510d93afecda861796178f122cc16c543d4e9c06e26cc5c93266a0d",
    "motion-dense": "47226aea736f2b1dc25a39dad3e9b09c2b6dd938f946e531b6402dd2d988f0f4",
}


def _pinned_container(source) -> bytes:
    """A random asset's container for an int seed, or a 40-anchor motion-dense scene with uniform masks."""
    if source == "motion-dense":
        scene = make_scene("motion-dense", 40, 4, seed=5, image_size=(16, 16))
        bank = MaskBank(levels=tuple(np.random.default_rng(5).uniform(0, 1, (3, 40))))
        return encode(scene.anchors, bank, scene.deformations)
    return encode(*random_asset(np.random.default_rng(source)))


def _decoded_digest(decoded) -> str:
    """sha256 prefix over every decoded array (dtype, shape and bytes) and the scalar fields."""
    h = hashlib.sha256()
    a = decoded.anchors
    arrays = [decoded.anchor_indices, a.positions, a.features, a.scales, a.offsets, a.opacities, a.colors]
    arrays += decoded.bank.levels
    if decoded.deformations is not None:
        t = decoded.deformations
        arrays += [t.timesteps, t.displacements, t.feature_residuals, *vars(t.local).values()]
    for arr in arrays:
        h.update(arr.dtype.str.encode() + repr(arr.shape).encode() + np.ascontiguousarray(arr).tobytes())
    h.update(repr((decoded.max_level, decoded.original_count, decoded.bank.threshold)).encode())
    return h.hexdigest()[:16]


class TestEncode:
    def test_deterministic(self, asset):
        anchors, bank, table = asset
        assert encode(anchors, bank, table) == encode(anchors, bank, table)

    def test_empty_base_layer_rejected(self, asset):
        anchors, _, table = asset
        n = anchors.count
        bank = MaskBank(levels=(np.zeros(n), np.ones(n), np.ones(n)))
        with pytest.raises(EmptyBaseLayerError):
            encode(anchors, bank, table)

    def test_feature_width_mismatch_rejected_before_writing(self):
        # 7-wide residuals against 4-wide features once encoded to 603 bytes
        # that decode_prefix rejected
        scene = make_scene("mixed", 8, 2, 1)
        table = scene.deformations
        wide = DeformationTable(
            timesteps=table.timesteps,
            displacements=table.displacements,
            feature_residuals=np.zeros((2, 8, 7)),
            local=table.local,
        )
        with pytest.raises(ValueError, match="7 wide.*4 wide"):
            encode(scene.anchors, MaskBank.all_ones(8), wide)

    def test_spatial_dim_mismatch_rejected_before_writing(self):
        scene = make_scene("mixed", 8, 2, 1)
        a = scene.anchors
        solid = AnchorSet(
            positions=np.c_[a.positions, np.full(8, 0.5)],
            features=a.features,
            scales=a.scales,
            offsets=np.c_[a.offsets, np.zeros(8)],
            opacities=a.opacities,
            colors=a.colors,
        )
        with pytest.raises(ValueError, match="2-D.*3-D"):
            encode(solid, MaskBank.all_ones(8), scene.deformations)

    @pytest.mark.parametrize(
        "field, feature_dim, steps", [("feature dimension F", 65536, 1), ("timestep count T", 1, 65536)]
    )
    def test_header_field_overflow_rejected(self, field, feature_dim, steps):
        # F and T are u16 in the header; struct.pack would raise struct.error
        a = AnchorSet(
            positions=np.full((4, 2), 0.5),
            features=np.zeros((4, feature_dim)),
            scales=np.ones(4),
            offsets=np.zeros((4, 2)),
            opacities=np.ones(4),
            colors=np.ones((4, 3)),
        )
        table = DeformationTable(
            timesteps=np.linspace(0, 1, steps),
            displacements=np.zeros((steps, 4, 2)),
            feature_residuals=np.zeros((steps, 4, feature_dim)),
            local=LocalResiduals(
                d_position=np.zeros((steps, 4, 2)),
                d_scale=np.zeros((steps, 4)),
                d_opacity=np.zeros((steps, 4)),
                d_color=np.zeros((steps, 4, 3)),
            ),
        )
        with pytest.raises(ValueError, match=f"{field} is 65536, beyond the header field's 65535"):
            encode(a, MaskBank.all_ones(4), table)

    @pytest.mark.parametrize(
        "steps, preset",
        [
            *(
                ({**DEFAULT_QUANT_STEPS, fam: step}, DEFAULT_PRESET)
                for fam in QUANT_FAMILIES
                for step in (0.0, -0.5, float("inf"), float("nan"), 1.7e308, 1 / 512, 1 / 16, 0.4)
                if step != DEFAULT_QUANT_STEPS[fam]
            ),
            ({fam: DEFAULT_QUANT_STEPS[fam] for fam in QUANT_FAMILIES[:-1]}, DEFAULT_PRESET),
            ({**DEFAULT_QUANT_STEPS, "color": 1 / 16}, DEFAULT_PRESET),
            *((DEFAULT_QUANT_STEPS, preset) for preset in (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, -1)),
        ],
    )
    def test_config_refuses_unpublished_values(self, steps, preset):
        # the published steps are the ones training's rate model prices, and
        # the only mask step under which every mask above the cut decodes above it
        with pytest.raises(ValueError, match="writes only"):
            EncodeConfig(quant_steps=dict(steps), preset=preset)

    # sha256 of the container bytes, recorded when container version 3 gave
    # every layer one layout: a given asset and config always encode the same
    @pytest.mark.parametrize("source", PINNED_CONTAINERS)
    def test_container_bytes_are_pinned(self, source):
        assert hashlib.sha256(_pinned_container(source)).hexdigest() == PINNED_CONTAINERS[source]

    # sha256 prefixes of the decoded values at each layer boundary of the
    # pinned containers, recorded with container version 1; a container
    # layout change must leave every decoded value as it was
    @pytest.mark.parametrize(
        "source, digests",
        [
            (3, ["0b1ccea04532561a", "ce046563c78af7ea", "1dc62d65329bbbb3"]),
            (7, ["61ae3aad0d1d46d1", "1a1baea023a7cdf5", "183806043d5a4a06"]),
            (11, ["8a184d614d1542ae", "cfcc2d47d08da6cd", "1c747c231203deea"]),
            ("motion-dense", ["2644f52e6727c8c2", "b74967b5103c5b7a", "4bbc69ae877f9099"]),
        ],
    )
    def test_decoded_values_are_pinned(self, source, digests):
        blob = _pinned_container(source)
        got = [_decoded_digest(decode_prefix(blob[:end])) for end in manifest(blob).cumulative_sizes]
        assert got == digests

    def test_zero_tables_still_emit_all_chunks(self):
        scene = make_scene("static", 12, 2, seed=1, image_size=(12, 12))
        bank = MaskBank.all_ones(12)
        blob = encode(scene.anchors, bank, scene.deformations)
        man = manifest(blob)
        assert len(man.chunks) == 3
        assert [c.layer for c in man.chunks] == [0, 1, 2]

    def test_wider_active_set_grows_base_chunk(self, asset):
        anchors, _, table = asset
        n = anchors.count
        lean = np.zeros(n)
        lean[: n // 2] = 1.0
        wide = np.ones(n)
        blob_lean = encode(anchors, MaskBank(levels=(lean, lean, lean)), table)
        blob_wide = encode(anchors, MaskBank(levels=(wide, wide, wide)), table)
        assert manifest(blob_wide).chunks[0].raw_length > manifest(blob_lean).chunks[0].raw_length


class TestManifest:
    def test_cumulative_accounting(self, asset):
        anchors, bank, table = asset
        blob = encode(anchors, bank, table)
        man = manifest(blob)
        h = man.header_bytes
        comp = man.compressed_sizes
        expected = (h + comp[0], h + comp[0] + comp[1], h + comp[0] + comp[1] + comp[2])
        assert man.cumulative_sizes == expected
        assert man.total_bytes == len(blob)

    def test_strictly_increasing(self, asset):
        anchors, bank, table = asset
        man = manifest(encode(anchors, bank, table))
        sizes = man.cumulative_sizes
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_malformed_table_rejected(self, asset):
        anchors, bank, table = asset
        blob = bytearray(encode(anchors, bank, table))
        for chunk_count in (7, 0):  # FORMAT.md requires 0 < N <= 3
            blob[64] = chunk_count
            with pytest.raises(FormatError):
                manifest(bytes(blob))

    def test_base_only_prefix_lists_one_entry(self, asset):
        anchors, bank, table = asset
        blob = encode(anchors, bank, table)
        full = manifest(blob)
        clipped = manifest(blob[: full.cumulative_sizes[0]])
        assert len(clipped.chunks) == 1
        assert clipped.cumulative_sizes == full.cumulative_sizes[:1]
        assert clipped.total_bytes == full.cumulative_sizes[0]


class TestDecodePrefix:
    def test_round_trip_exact(self, asset):
        anchors, bank, table = asset
        q = dict(DEFAULT_QUANT_STEPS)
        blob = encode(anchors, bank, table, EncodeConfig(quant_steps=q))
        decoded = decode_prefix(blob)
        assert decoded.max_level == 2
        exp_anchors, exp_masks, exp_tables = expected_reconstruction(
            anchors, bank, table, decoded.anchor_indices, q
        )
        assert np.array_equal(decoded.anchors.positions, exp_anchors["positions"])
        assert np.array_equal(decoded.anchors.opacities, exp_anchors["opacities"])
        assert np.array_equal(decoded.bank.level(0), exp_masks[0])
        assert np.array_equal(decoded.deformations.displacements, exp_tables["displacements"])
        assert np.array_equal(decoded.deformations.local.d_color, exp_tables["d_color"])

    def test_base_prefix_is_static_scaffold(self, asset):
        anchors, bank, table = asset
        blob = encode(anchors, bank, table)
        man = manifest(blob)
        decoded = decode_prefix(blob[: man.cumulative_sizes[0]])
        assert decoded.max_level == 0
        assert decoded.deformations is None
        base_active = np.flatnonzero(bank.level(0) > bank.threshold)
        assert np.array_equal(decoded.anchor_indices, base_active)

    def test_bit_flip_names_offending_layer(self, asset):
        anchors, bank, table = asset
        blob = bytearray(encode(anchors, bank, table))
        man = manifest(bytes(blob))
        blob[man.cumulative_sizes[1] + 5] ^= 0x01  # inside the layer-2 chunk
        with pytest.raises(IntegrityError) as err:
            decode_prefix(bytes(blob))
        assert err.value.layer == 2
        # layers 0 and 1 remain decodable from the unharmed prefix
        decoded = decode_prefix(bytes(blob)[: man.cumulative_sizes[1]])
        assert decoded.max_level == 1

    def test_corrupt_header_magic(self, asset):
        anchors, bank, table = asset
        blob = bytearray(encode(anchors, bank, table))
        blob[0] = ord("X")
        with pytest.raises(FormatError):
            decode_prefix(bytes(blob))

    def test_nonzero_flags_rejected(self, asset):
        blob = bytearray(encode(*asset))
        blob[6] = 0x01  # reserved flags byte
        blob = _reseal(blob)
        with pytest.raises(FormatError, match="flags"):
            decode_prefix(blob)
        with pytest.raises(FormatError):
            manifest(blob)

    @pytest.mark.parametrize("dim", [0, 1, 4, 7])
    def test_unsupported_dim_rejected(self, asset, dim):
        blob = bytearray(encode(*asset))
        blob[7] = dim
        with pytest.raises(FormatError, match="dimension"):
            decode_prefix(_reseal(blob))

    @pytest.mark.parametrize("step", [-1.0 / 16.0, 0.0, float("inf"), float("-inf"), float("nan"), 1.7e308])
    def test_bad_quant_step_rejected(self, asset, step):
        blob = bytearray(encode(*asset))
        struct.pack_into("<d", blob, 16 + 8 * 2, step)  # the scale family's step
        with pytest.raises(FormatError, match="quantization step"):
            decode_prefix(_reseal(blob))

    def test_version_1_rejected(self, asset):
        blob = bytearray(encode(*asset))
        blob[4] = 1
        with pytest.raises(FormatError, match="version 1"):
            decode_prefix(_reseal(blob))

    def test_preset_beyond_9_rejected(self, asset):
        blob = bytearray(encode(*asset))
        blob[5] = 10
        with pytest.raises(FormatError, match="preset 10"):
            decode_prefix(_reseal(blob))

    def test_every_header_bit_flip_rejected(self, asset):
        blob = encode(*asset)
        for at in range(manifest(blob).header_bytes):  # header, chunk table and their CRC
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[at] ^= 1 << bit
                with pytest.raises(FormatError):
                    decode_prefix(bytes(flipped))

    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("cut, junk", [(0, bytes(range(16))), (1, b"")], ids=["junk-after-end", "no-end-marker"])
    def test_stream_must_end_at_its_extent(self, asset, layer, cut, junk):
        blob = encode(*asset)
        man = manifest(blob)
        end = man.cumulative_sizes[layer]
        edited = bytearray(blob[: end - cut] + junk + blob[end:])
        entry = HEADER.size + CHUNK_ENTRY.size * layer
        struct.pack_into("<Q", edited, entry + 9, man.chunks[layer].compressed_length - cut + len(junk))
        with pytest.raises(IntegrityError) as err:
            decode_prefix(_reseal(edited))
        assert err.value.layer == layer

    def test_raw_length_beyond_ssize_t_is_integrity_error(self, asset):
        blob = bytearray(encode(*asset))
        struct.pack_into("<Q", blob, HEADER.size + 1, 2**64 - 1)  # layer 0's raw length
        with pytest.raises(IntegrityError):
            decode_prefix(_reseal(blob))

    @pytest.mark.parametrize("preset", range(10))
    def test_chunk_beyond_the_dictionary_round_trips(self, preset):
        # layer 1 repeats a random first row 1.3 MB later, past the 1 MiB
        # dictionary: an encoder left at the preset's own, larger dictionary
        # (presets 2-9) refers back to it, and FORMAT.md's chain cannot follow.
        # pd4g writes only preset 6; the chunks are recompressed at each preset
        # a decoder must read
        n, steps = 1024, 130
        ints = np.zeros((steps, n, 2), dtype=np.int64)
        ints[0] = ints[-1] = np.random.default_rng(0).integers(-(2**31) + 1, 2**31, (n, 2))
        flat = np.zeros((n, 2))
        anchors = AnchorSet(flat, flat, np.ones(n), flat, np.ones(n), np.ones((n, 3)))
        still, zeros = np.zeros((steps, n, 2)), np.zeros((steps, n))
        local = LocalResiduals(still, zeros, zeros, np.zeros((steps, n, 3)))
        table = DeformationTable(np.linspace(0, 1, steps), ints / 16.0, still, local)
        blob = _recompressed(encode(anchors, MaskBank.all_ones(n), table), preset)
        assert blob[5] == preset  # the header's preset byte, after the magic and version
        assert len(_payload(blob, 1)) == manifest(blob).chunks[1].raw_length > 2**20
        assert np.array_equal(decode_prefix(blob).deformations.displacements, table.displacements)

    def test_truncated_base_layer(self, asset):
        anchors, bank, table = asset
        blob = encode(anchors, bank, table)
        man = manifest(blob)
        with pytest.raises(TruncatedStreamError):
            decode_prefix(blob[: man.header_bytes + 10])
        with pytest.raises(TruncatedStreamError):
            decode_prefix(blob[:20])

    def test_supplemental_anchors_survive_base_pruning(self):
        # anchors active at level 2 but pruned at level 0 must still decode
        rng = np.random.default_rng(11)
        anchors, _, table = random_asset(rng)
        n = anchors.count
        m0 = np.zeros(n)
        m0[: max(n // 3, 1)] = 1.0
        m2 = np.ones(n)
        bank = MaskBank(levels=(m0, m0.copy(), m2))
        blob = encode(anchors, bank, table)
        decoded = decode_prefix(blob)
        assert decoded.anchors.count == n  # union of all level active sets
        assert decoded.max_level == 2

    def test_decoded_masks_respect_threshold_semantics(self, asset):
        anchors, bank, table = asset
        decoded = decode_prefix(encode(anchors, bank, table))
        for level in range(3):
            original_active = np.flatnonzero(bank.level(level) > bank.threshold)
            decoded_active = decoded.anchor_indices[
                np.flatnonzero(decoded.bank.level(level) > decoded.bank.threshold)
            ]
            assert np.array_equal(decoded_active, original_active)


def _layout_container() -> bytes:
    """Eight anchors (D=2, F=2, T=2) whose payloads have the offsets in ``MALFORMED``.

    Layer 0 lists anchors 0-3 and carries their records; layer 1 lists 0, 1,
    4 and 5 and carries the records of 4 and 5; layer 2 lists 0, 2, 4, 6 and
    7 and carries the records of 6 and 7.
    """
    scene = make_scene("motion-dense", 8, 2, seed=1, image_size=(8, 8), feature_dim=2)
    bank = MaskBank(
        levels=(
            np.array([1, 1, 1, 1, 0, 0, 0, 0.0]),
            np.array([1, 1, 0, 0, 1, 1, 0, 0.0]),
            np.array([1, 0, 1, 0, 1, 0, 1, 1.0]),
        )
    )
    blob = encode(scene.anchors, bank, scene.deformations)
    raw = _payload(blob, 0)
    assert [raw[at] for at in (_POSITIONS_0, _SCALES_0 - 1, _OPACITIES_0 - 9, _MASKS_0)] == [1, 1, 1, 2]
    return blob


# FORMAT.md's filter chain: LZMA2 with a 1 MiB dictionary, other settings from the preset
_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 6, "dict_size": 2**20}]


def _reseal(blob) -> bytes:
    """``blob`` with the CRC32 that follows its chunk table recomputed."""
    out = bytearray(blob)
    end = HEADER.size + CHUNK_ENTRY.size * out[HEADER.size - 1]
    struct.pack_into("<I", out, end, zlib.crc32(out[:end]))
    return bytes(out)


def _payload(blob: bytes, layer: int) -> bytes:
    man = manifest(blob)
    bounds = (man.header_bytes, *man.cumulative_sizes)
    return lzma.decompress(blob[bounds[layer] : bounds[layer + 1]], format=lzma.FORMAT_RAW, filters=_FILTERS)


def _recompressed(blob: bytes, preset: int) -> bytes:
    """``blob`` with its chunks recompressed at ``preset``, and its preset byte, chunk table and CRC to match."""
    man = manifest(blob)
    comps = [compress_chunk(_payload(blob, layer), preset) for layer in range(len(man.chunks))]
    head = bytearray(blob[: man.header_bytes])
    head[5] = preset
    for layer, comp in enumerate(comps):  # each entry's compressed length follows its layer byte and raw length
        struct.pack_into("<Q", head, HEADER.size + CHUNK_ENTRY.size * layer + 9, len(comp))
    return _reseal(head) + b"".join(comps)


def _rewrite_chunk(blob: bytes, layer: int, offset: int, fmt: str, *values, tail=b"", keep=None) -> bytes:
    """Patch one chunk's decompressed payload, cut it to ``keep`` bytes and append ``tail``.

    The chunk is then recompressed, and its table entry and the header CRC fixed.
    """
    man = manifest(blob)
    bounds = (man.header_bytes, *man.cumulative_sizes)
    raw = bytearray(_payload(blob, layer))
    struct.pack_into(fmt, raw, offset, *values)
    raw = raw[:keep] + tail
    comp = lzma.compress(bytes(raw), format=lzma.FORMAT_RAW, filters=_FILTERS)
    out = bytearray(blob[: bounds[layer]] + comp + blob[bounds[layer + 1] :])
    entry = HEADER.size + CHUNK_ENTRY.size * layer
    struct.pack_into("<QQI", out, entry + 1, len(raw), len(comp), zlib.crc32(raw))
    return _reseal(out)


# Byte offsets in the layout container's decompressed payloads (FORMAT.md):
# layer 0 is n (u32) and 4 member indices (u32), then positions (8), features
# (8), scales (4) and offsets (8), each a width byte of 1 and 1-byte ints, then
# 4 f32 opacities, 12 f32 colors and 4 masks behind a width byte of 2;
# layer 1 starts with 2 f64 timesteps, then n and 4 member indices; layer 2
# starts with n and 5 member indices.
_INDICES_0 = 4
_POSITIONS_0 = _INDICES_0 + 4 * 4  # the width byte
_SCALES_0 = _POSITIONS_0 + (1 + 8) + (1 + 8) + 1
_OPACITIES_0 = _SCALES_0 + 4 + (1 + 8)
_MASKS_0 = _OPACITIES_0 + 4 * (4 + 12)
_MEMBERS_1 = 16 + 4
_MEMBERS_2 = 4
_SIGNALING_NAN = 0x7FA00000  # float32 bits

# case -> (the rewrite: layer, offset, struct format, values), and the message it must raise
MALFORMED = {
    "base index beyond anchor count": ((0, _INDICES_0 + 3 * 4, "<I", 10**6), "layer 0 anchor indices must ascend"),
    "duplicated base index": ((0, _INDICES_0 + 2 * 4, "<I", 1), "layer 0 anchor indices must ascend"),
    "layer-1 member indices out of order": ((1, _MEMBERS_1 + 2 * 4, "<2I", 5, 4), "layer 1 anchor indices must ascend"),
    "layer-1 member index duplicated": ((1, _MEMBERS_1 + 4, "<I", 0), "layer 1 anchor indices must ascend"),
    "layer-1 member index equal to the anchor count": (
        (1, _MEMBERS_1 + 3 * 4, "<I", 8),
        "layer 1 anchor indices must ascend strictly and stay below 8",
    ),
    "layer-2 member indices out of order": ((2, _MEMBERS_2, "<2I", 2, 0), "layer 2 anchor indices must ascend"),
    "layer-2 member index duplicated": ((2, _MEMBERS_2 + 2 * 4, "<I", 2), "layer 2 anchor indices must ascend"),
    "layer-2 member index beyond anchor count": (
        (2, _MEMBERS_2 + 4 * 4, "<I", 10**6),
        "layer 2 anchor indices must ascend strictly and stay below 8",
    ),
    "opacity 2.0": ((0, _OPACITIES_0, "<f", 2.0), "opacities must lie in"),
    "NaN opacity": ((0, _OPACITIES_0 + 4, "<f", float("nan")), "opacities must lie in"),
    # a signaling NaN, written as its bits: a float32 -> float64 cast of it warns
    "signaling NaN opacity": ((0, _OPACITIES_0 + 4, "<I", _SIGNALING_NAN), "opacities must lie in"),
    "signaling NaN color": ((0, _OPACITIES_0 + 4 * 4 + 5 * 4, "<I", _SIGNALING_NAN), "colors must lie in"),
    "negative scale index": ((0, _SCALES_0, "<b", -1), "scales must be non-negative"),
    # the decoded masks of the anchors a layer carries must lie in (0.01, 1]
    "layer-0 mask int 0": ((0, _MASKS_0 + 1, "<h", 0), "layer 0 carries a mask outside"),
    "layer-0 mask int 257": ((0, _MASKS_0 + 1 + 2 * 3, "<h", 257), "layer 0 carries a mask outside"),
    "reversed timesteps": ((1, 0, "<2d", 1.0, 0.0), "timesteps must be strictly increasing"),
    "NaN timestep": ((1, 8, "<d", float("nan")), "timesteps must lie in"),
}


def _layer_records(blob: bytes) -> list[tuple[list[int], int]]:
    """Each layer's member indices and the number of anchor records it carries, read as FORMAT.md lays them out.

    A layer carries a record for each member that no lower layer lists; the
    walk over its arrays must end exactly at the payload's end.
    """
    dim, fdim, steps = blob[7], *struct.unpack_from("<HH", blob, 12)
    table_widths = {0: (), 1: (dim, fdim), 2: (dim, 1, 1, 3)}
    listed, out = set(), []
    for layer in range(len(manifest(blob).chunks)):
        raw = _payload(blob, layer)
        at = 8 * steps if layer == 1 else 0
        (n,) = struct.unpack_from("<I", raw, at)
        members = list(struct.unpack_from(f"<{n}I", raw, at + 4))
        at += 4 + 4 * n
        k = len(set(members) - listed)
        listed.update(members)
        for count in (k * dim, k * fdim, k, k * dim):  # positions, features, scales, offsets
            at += 1 + raw[at] * count
        at += 4 * k + 4 * 3 * k  # opacities, colors
        for count in (n, *(steps * n * width for width in table_widths[layer])):  # masks, then tables
            at += 1 + raw[at] * count
        assert at == len(raw), f"layer {layer} payload is {len(raw)} bytes, its arrays {at}"
        out.append((members, k))
    return out


def _members(*indices) -> np.ndarray:
    """A mask level over eight anchors: 1 for ``indices``, 0 elsewhere."""
    mask = np.zeros(8)
    mask[list(indices)] = 1.0
    return mask


def _empty_base_container() -> bytes:
    """Eight anchors whose layer 0 lists none, while layers 1 and 2 list anchors 4 and 5.

    ``encode`` refuses an empty base layer, so layer 0's payload is rewritten:
    n = 0, then four empty record fields and empty masks, each one width byte.
    """
    scene = make_scene("motion-dense", 8, 2, seed=1, image_size=(8, 8), feature_dim=2)
    blob = encode(scene.anchors, MaskBank(levels=(_members(0), _members(4, 5), _members(4, 5))), scene.deformations)
    return _rewrite_chunk(blob, 0, 0, "<I", 0, keep=4, tail=b"\x01" * 5)


class TestMalformedPayload:
    def test_layout_container_decodes(self):
        decoded = decode_prefix(_layout_container())
        assert decoded.anchor_indices.tolist() == list(range(8))
        assert decoded.deformations.timesteps.tolist() == [0.0, 1.0]

    def test_members_listed_below_read_no_record(self):
        # layer 1 lists base anchors 0 and 1, and layer 2 lists base anchors 0
        # and 2 and layer 1's anchor 4: no record follows for any of them, and
        # each decodes to the values of the layer that carries its record
        blob = _layout_container()
        assert _layer_records(blob) == [([0, 1, 2, 3], 4), ([0, 1, 4, 5], 2), ([0, 2, 4, 6, 7], 2)]
        full = decode_prefix(blob)
        fields = ("positions", "features", "scales", "offsets", "opacities", "colors")
        for end in manifest(blob).cumulative_sizes[:2]:
            lower = decode_prefix(blob[:end])
            at = np.searchsorted(full.anchor_indices, lower.anchor_indices)
            for name in fields:
                assert np.array_equal(getattr(full.anchors, name)[at], getattr(lower.anchors, name)), name
        # a layer 2 that lists base anchor 1 in place of 0 still reads no record for it
        crafted = decode_prefix(_rewrite_chunk(blob, 2, _MEMBERS_2, "<I", 1))
        assert crafted.bank.level(2)[:2].tolist() == [0.0, full.bank.level(2)[0]]
        for name in fields:
            assert np.array_equal(getattr(crafted.anchors, name), getattr(full.anchors, name)), name

    def test_supplemental_indices_around_the_base_decode(self):
        # layer 1 carries the records of 0 (below the first base index), 3
        # (between base indices 2 and 5) and 7 (beyond the last); layer 2 lists
        # 5 and 7 and carries no record
        scene = make_scene("motion-dense", 8, 2, seed=1, image_size=(8, 8), feature_dim=2)
        bank = MaskBank(levels=(_members(2, 5), _members(0, 3, 7), _members(5, 7)))
        decoded = decode_prefix(encode(scene.anchors, bank, scene.deformations))
        assert decoded.anchor_indices.tolist() == [0, 2, 3, 5, 7]
        assert [k for _, k in _layer_records(encode(scene.anchors, bank, scene.deformations))] == [2, 3, 0]
        expected, _, _ = expected_reconstruction(
            scene.anchors, bank, scene.deformations, decoded.anchor_indices, DEFAULT_QUANT_STEPS
        )
        for name, want in expected.items():
            assert np.array_equal(getattr(decoded.anchors, name), want), name

    def test_layers_carrying_no_anchor_decode(self):
        scene = make_scene("motion-dense", 8, 2, seed=1, image_size=(8, 8), feature_dim=2)
        bank = MaskBank(levels=(_members(0, 1), _members(), _members()))
        decoded = decode_prefix(encode(scene.anchors, bank, scene.deformations))
        assert decoded.max_level == 2 and decoded.anchor_indices.tolist() == [0, 1]
        assert not decoded.bank.level(1).any() and not decoded.bank.level(2).any()

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_empty_base_layer_rejected(self, level):
        blob = _empty_base_container()
        with pytest.raises(FormatError, match="layer 0 carries no anchor"):
            decode_prefix(blob[: manifest(blob).cumulative_sizes[level]])

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_as_format_error(self, case):
        rewrite, message = MALFORMED[case]
        blob = _rewrite_chunk(_layout_container(), *rewrite)
        with warnings.catch_warnings(), pytest.raises(FormatError, match=re.escape(message)):
            warnings.simplefilter("error")
            decode_prefix(blob)

    @pytest.mark.parametrize("width", [0, 3, 8])
    def test_unsupported_int_width_rejected(self, width):
        blob = _rewrite_chunk(_layout_container(), 0, _POSITIONS_0, "<B", width)
        with pytest.raises(FormatError, match=f"width {width}"):
            decode_prefix(blob)

    @pytest.mark.parametrize("keep", [_MASKS_0, _MASKS_0 + 2])  # at the masks' width byte, inside the masks
    def test_payload_ending_mid_array_rejected(self, keep):
        blob = _rewrite_chunk(_layout_container(), 0, 0, "", keep=keep)
        with pytest.raises(FormatError, match="mid-array"):
            decode_prefix(blob)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_bytes_after_last_array_rejected(self, layer):
        blob = _rewrite_chunk(_layout_container(), layer, 0, "", tail=b"\x00" * 3)
        with pytest.raises(FormatError, match="after its last array"):
            decode_prefix(blob)


@functools.cache
def _contract_sources() -> tuple[bytes, ...]:
    """Small valid containers (T and F at most 5) for the decoder contract."""
    return _layout_container(), encode(*random_asset(np.random.default_rng(3)))


@st.composite
def _mutated_containers(draw) -> bytes:
    """A small container cut at any offset, or with a few bytes of one payload or header field rewritten.

    A rewritten payload is recompressed and its chunk entry and the header CRC
    fixed; a rewritten header is resealed. The chunk count byte is left alone.
    """
    blob = draw(st.sampled_from(_contract_sources()))
    how = draw(st.sampled_from(["truncate", "payload", "header"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    patch = draw(st.binary(min_size=1, max_size=4))
    chunks = manifest(blob).chunks
    if how == "payload":
        layer = draw(st.integers(0, len(chunks) - 1))
        offset = draw(st.integers(0, chunks[layer].raw_length - len(patch)))
        return _rewrite_chunk(blob, layer, offset, f"{len(patch)}s", patch)
    table_end = HEADER.size + CHUNK_ENTRY.size * len(chunks)
    start, stop = draw(st.sampled_from([(4, HEADER.size - 1), (HEADER.size, table_end)]))
    offset = draw(st.integers(start, stop - len(patch)))
    return _reseal(blob[:offset] + patch + blob[offset + len(patch) :])


class TestDecoderContract:
    @settings(deadline=None, max_examples=150)
    @given(blob=_mutated_containers())
    @example(blob=_empty_base_container())
    @example(blob=_rewrite_chunk(_layout_container(), *MALFORMED["signaling NaN opacity"][0]))
    @example(blob=_rewrite_chunk(_layout_container(), *MALFORMED["layer-0 mask int 257"][0]))
    def test_input_decodes_or_raises_a_declared_error(self, blob):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                decoded = decode_prefix(blob)
            except (FormatError, TruncatedStreamError, IntegrityError):
                return
        assert decoded.anchors.count == decoded.anchor_indices.size == decoded.bank.count


class TestPrefixProperty:
    def test_every_boundary_truncation(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            anchors, bank, table = random_asset(rng)
            blob = encode(anchors, bank, table)
            man = manifest(blob)
            for level, boundary in enumerate(man.cumulative_sizes):
                assert decode_prefix(blob[:boundary]).max_level == level
                if level < 2:
                    mid = (boundary + man.cumulative_sizes[level + 1]) // 2
                    assert decode_prefix(blob[:mid]).max_level == level

    def test_fifty_random_round_trips_exact(self):
        rng = np.random.default_rng(22)
        q = dict(DEFAULT_QUANT_STEPS)
        cfg = EncodeConfig(quant_steps=q)
        for _ in range(50):
            anchors, bank, table = random_asset(rng)
            decoded = decode_prefix(encode(anchors, bank, table, cfg))
            exp_anchors, exp_masks, exp_tables = expected_reconstruction(
                anchors, bank, table, decoded.anchor_indices, q
            )
            assert np.array_equal(decoded.anchors.positions, exp_anchors["positions"])
            assert np.array_equal(decoded.anchors.features, exp_anchors["features"])
            assert np.array_equal(decoded.anchors.scales, exp_anchors["scales"])
            assert np.array_equal(decoded.anchors.offsets, exp_anchors["offsets"])
            assert np.array_equal(decoded.anchors.opacities, exp_anchors["opacities"])
            assert np.array_equal(decoded.anchors.colors, exp_anchors["colors"])
            for level in range(3):
                assert np.array_equal(decoded.bank.level(level), exp_masks[level])
            assert np.array_equal(decoded.deformations.displacements, exp_tables["displacements"])
            assert np.array_equal(
                decoded.deformations.feature_residuals, exp_tables["feature_residuals"]
            )
            assert np.array_equal(decoded.deformations.local.d_position, exp_tables["d_position"])
            assert np.array_equal(decoded.deformations.local.d_scale, exp_tables["d_scale"])
            assert np.array_equal(decoded.deformations.local.d_opacity, exp_tables["d_opacity"])
            assert np.array_equal(decoded.deformations.local.d_color, exp_tables["d_color"])


# member anchors of levels 0, 1 and 2 among 12; "nested" gives a layer 2 that
# carries every anchor of the union, and a layer 1 that carries all of the
# level-1 prefix's union but a strict subset of the full one
ORACLE_MEMBERS = {
    "nested": (range(6), range(9), range(12)),
    "scattered": ((0, 1, 2, 3), (2, 3, 7, 9), (1, 4, 10, 11)),
    "one member": ((5,), (3,), (5, 8)),
}


def _oracle_asset(members, steps: int, span: int):
    """12 anchors (D=2, F=3) whose deformation tables are ``ints * step``, |ints| <= ``span``."""
    rng = np.random.default_rng([steps, span])
    n, step = 12, DEFAULT_QUANT_STEPS["deform"]
    anchors = AnchorSet(
        positions=rng.normal(0, 0.5, (n, 2)),
        features=rng.normal(0, 1, (n, 3)),
        scales=rng.uniform(0.2, 2.0, n),
        offsets=rng.normal(0, 0.5, (n, 2)),
        opacities=rng.uniform(0, 1, n),
        colors=rng.uniform(0, 1, (n, 3)),
    )
    levels = []
    for level in members:
        mask = np.zeros(n)
        mask[list(level)] = rng.uniform(0.6, 1.0, len(level))
        levels.append(mask)

    def table(*shape):
        return rng.integers(-span, span + 1, (steps, n, *shape)) * step

    local = LocalResiduals(table(2), table(), table(), table(3))
    deformations = DeformationTable(np.linspace(0, 1, steps + 2)[1:-1], table(2), table(3), local)
    return anchors, MaskBank(levels=tuple(levels)), deformations


def _expected_prefix(anchors, bank, deformations, max_level: int):
    """Every decoded array of a prefix up to ``max_level``, built from the source asset.

    Each level's member rows are quantized and scaled, then placed at the
    members' positions in the union of the levels present; all else is zero.
    """
    q = DEFAULT_QUANT_STEPS
    members = [active_set(bank.level(level)) for level in range(max_level + 1)]
    union = np.unique(np.concatenate(members))
    arrays = {"anchor_indices": union}
    for name, family in (("positions", "position"), ("features", "feature"), ("scales", "scale"), ("offsets", "offset")):
        arrays[name] = quantize_array(getattr(anchors, name)[union], q[family]) * q[family]
    for name in ("opacities", "colors"):
        arrays[name] = getattr(anchors, name)[union].astype(np.float32).astype(np.float64)
    for level in range(3):
        arrays[f"mask {level}"] = np.zeros(union.size)
        if level <= max_level:
            at = np.searchsorted(union, members[level])
            arrays[f"mask {level}"][at] = quantize_array(bank.level(level)[members[level]], q["mask"]) * q["mask"]
    if max_level == 0:
        return arrays
    arrays["timesteps"] = deformations.timesteps
    loc = deformations.local
    named = {
        1: {"displacements": deformations.displacements, "feature_residuals": deformations.feature_residuals},
        2: {"d_position": loc.d_position, "d_scale": loc.d_scale, "d_opacity": loc.d_opacity, "d_color": loc.d_color},
    }
    for level, tables in named.items():
        for name, source in tables.items():
            full = np.zeros((source.shape[0], union.size, *source.shape[2:]))
            if level <= max_level:
                at = np.searchsorted(union, members[level])
                full[:, at] = quantize_array(source[:, members[level]], q["deform"]) * q["deform"]
            arrays[name] = full
    return arrays


def _decoded_arrays(decoded) -> dict[str, np.ndarray]:
    a, t = decoded.anchors, decoded.deformations
    arrays = {"anchor_indices": decoded.anchor_indices}
    arrays |= {name: getattr(a, name) for name in ("positions", "features", "scales", "offsets", "opacities", "colors")}
    arrays |= {f"mask {level}": decoded.bank.level(level) for level in range(3)}
    if t is not None:
        arrays |= {"timesteps": t.timesteps, "displacements": t.displacements, "feature_residuals": t.feature_residuals}
        arrays |= vars(t.local)
    return arrays


@pytest.mark.parametrize("span", [100, 30000, 2**31 - 1], ids=["1-byte", "2-byte", "4-byte"])
@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("case", sorted(ORACLE_MEMBERS))
def test_decoded_tables_match_source(case, steps, span):
    anchors, bank, deformations = _oracle_asset(ORACLE_MEMBERS[case], steps, span)
    blob = encode(anchors, bank, deformations)
    cuts = manifest(blob).cumulative_sizes
    prefixes = [(level, end) for level, end in enumerate(cuts)] + [(1, (cuts[1] + cuts[2]) // 2)]
    for max_level, end in prefixes:
        decoded = decode_prefix(blob[:end])
        assert decoded.max_level == max_level
        got, expected = _decoded_arrays(decoded), _expected_prefix(anchors, bank, deformations, max_level)
        assert got.keys() == expected.keys()
        for name, want in expected.items():
            have = got[name]
            assert have.dtype == want.dtype and have.shape == want.shape, (max_level, name)
            if have.dtype == np.float64:  # bit for bit, so a -0.0 for +0.0 fails
                have, want = have.view(np.uint64), want.view(np.uint64)
            assert np.array_equal(have, want), (max_level, name)


def _nested_blob() -> bytes:
    """1024 anchors x 32 timesteps with nested masks: 85% of the anchors in
    layer 0, 92.5% in layer 1 and all of them in layer 2."""
    n = 1024
    scene = make_scene("motion-dense", n, 32, seed=3, image_size=(8, 8))
    rng = np.random.default_rng(3)
    order = rng.permutation(n)
    levels = []
    for share in (0.85, 0.925, 1.0):
        mask = np.zeros(n)
        mask[order[: round(share * n)]] = rng.uniform(0.6, 1.0, round(share * n))
        levels.append(mask)
    return encode(scene.anchors, MaskBank(levels=tuple(levels)), scene.deformations)


@pytest.mark.parametrize("source", ["nested", "layout", 3, "motion-dense"])
def test_each_anchor_record_travels_once(source):
    blob = {"nested": _nested_blob, "layout": _layout_container}.get(source, lambda: _pinned_container(source))()
    assert sum(k for _, k in _layer_records(blob)) == decode_prefix(blob).anchor_indices.size


def _format_example() -> bytes:
    """The container of FORMAT.md's hex-annotated example."""
    anchors = AnchorSet(
        positions=np.array([[0.25, 0.5], [-0.25, 0.75]]),
        features=np.array([[0.125, -0.0625], [0.0, 0.5]]),
        scales=np.array([0.5, 0.25]),
        offsets=np.array([[0.0625, 0.0], [0.0, -0.0625]]),
        opacities=np.array([1.0, 0.5]),
        colors=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    )
    bank = MaskBank(levels=(np.array([1.0, 0.0]), np.array([1.0, 0.5]), np.array([1.0, 1.0])))
    displacements = np.zeros((2, 2, 2))
    displacements[1] = [[0.125, 0.0], [0.0, -0.125]]
    local = LocalResiduals(np.zeros((2, 2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2, 3)))
    return encode(anchors, bank, DeformationTable(np.array([0.0, 1.0]), displacements, np.zeros((2, 2, 2)), local))


# a hex line of FORMAT.md: an optional offset label, then bytes, each followed by one space
_HEX_LINE = re.compile(r"(?:offset 0x([0-9a-f]+):)?\s*((?:[0-9a-f]{2} )+)")


def _format_md_hex(after: str) -> bytes:
    """The bytes in the hex columns of the first code block after ``after`` in FORMAT.md."""
    text = (Path(__file__).resolve().parents[1] / "FORMAT.md").read_text()
    block = text.split(after, 1)[1].split("```", 2)[1]
    out = bytearray()
    for line in block.splitlines()[1:]:
        m = _HEX_LINE.match(line + " ")
        if m:
            assert m[1] is None or int(m[1], 16) == len(out), line
            out += bytes.fromhex(m[2])
    return bytes(out)


def test_format_example_matches_encode():
    blob = _format_example()
    head = _format_md_hex("## Hex-annotated example")
    assert len(head) > manifest(blob).header_bytes and blob.startswith(head)
    assert _payload(blob, 0) == _format_md_hex("Layer-0 payload of that example")
    assert _payload(blob, 2) == _format_md_hex("Layer-2 payload of that example")


def _decode_peak(prefix: bytes):
    """The decoded prefix, the ``tracemalloc`` peak of decoding it, and the bytes of its arrays."""
    tracemalloc.start()
    try:
        decoded = decode_prefix(prefix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return decoded, peak, sum(a.nbytes for a in _decoded_arrays(decoded).values())


def test_full_decode_peak_allocation():
    # the coarse bound: a float copy of the int rows (3.2-3.4x the output)
    # breaks it; test_decode_peak_allocation_without_copies holds 1.6x
    decoded, peak, output = _decode_peak(_nested_blob())
    assert decoded.max_level == 2 and decoded.anchors.count == 1024
    assert peak <= 2.6 * output, f"peak {peak / 1e6:.2f} MB for {output / 1e6:.2f} MB of decoded arrays"


@pytest.mark.parametrize("max_level", [1, 2])
def test_decode_peak_allocation_without_copies(max_level):
    # the asset types adopt the decoder's own read-only tables, so each
    # exists once: about 1.45x (level 1) and 1.49x (level 2) the output,
    # the rest being the decompressed payloads and int rows
    blob = _nested_blob()
    prefix = blob[: manifest(blob).cumulative_sizes[max_level]]
    decoded, peak, output = _decode_peak(prefix)
    assert decoded.max_level == max_level
    assert peak <= 1.6 * output, f"peak {peak / 1e6:.2f} MB for {output / 1e6:.2f} MB of decoded arrays"


@pytest.mark.parametrize("cut", ["layer 0", "layer 1", "inside layer 2", "layer 2"])
def test_decoded_arrays_are_read_only(asset, cut):
    blob = encode(*asset)
    cuts = manifest(blob).cumulative_sizes
    end = {"layer 0": cuts[0], "layer 1": cuts[1], "inside layer 2": (cuts[1] + cuts[2]) // 2, "layer 2": cuts[2]}
    arrays = _decoded_arrays(decode_prefix(blob[: end[cut]]))
    assert [name for name, a in arrays.items() if a.flags.writeable] == []
