import hashlib
import lzma
import struct
import zlib

import numpy as np
import pytest

from pd4g.acceptance import expected_reconstruction, random_asset
from pd4g.asset import AnchorSet, DeformationTable, MaskBank
from pd4g.bitstream import (
    CHUNK_ENTRY_SIZE,
    HEADER_BASE_SIZE,
    EmptyBaseLayerError,
    EncodeConfig,
    FormatError,
    IntegrityError,
    TruncatedStreamError,
    decode_prefix,
    encode,
    manifest,
)
from pd4g.toyscene import DEFAULT_QUANT_STEPS, make_scene


@pytest.fixture()
def asset():
    return random_asset(np.random.default_rng(7))


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

    @pytest.mark.parametrize("step", [0.0, -0.5, float("inf"), float("nan"), 1.7e308])
    def test_config_rejects_steps_the_decoder_would(self, step):
        with pytest.raises(ValueError, match="positive and finite"):
            EncodeConfig(quant_steps={**DEFAULT_QUANT_STEPS, "scale": step})

    # sha256 of the container bytes, recorded when the encoder was rewritten
    # around index arithmetic: a given asset and config always encode the same
    @pytest.mark.parametrize(
        "source, digest",
        [
            (3, "e99de9bb7a46d61109e5cc240312e5d580ea7039468ad60d1fd0187111616e4e"),
            (7, "646e3031a03f8decaa790a07ffab9ec78bf0551e7de4aa841d4edc5b066b82c5"),
            (11, "b347234450b44a219aaa59ebb97bc7cb548147a7b403d6b6574ba974f4af80e3"),
            ("motion-dense", "66c7f3d84759858f37269885d134d097570b37ce332e3adb31a3cf8fc2c35544"),
        ],
    )
    def test_container_bytes_are_pinned(self, source, digest):
        if source == "motion-dense":
            scene = make_scene("motion-dense", 40, 4, seed=5, image_size=(16, 16))
            bank = MaskBank(levels=tuple(np.random.default_rng(5).uniform(0, 1, (3, 40))))
            blob = encode(scene.anchors, bank, scene.deformations)
        else:
            blob = encode(*random_asset(np.random.default_rng(source)))
        assert hashlib.sha256(blob).hexdigest() == digest

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
        blob[64] = 7  # absurd chunk count
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
        with pytest.raises(FormatError, match="flags"):
            decode_prefix(bytes(blob))
        with pytest.raises(FormatError):
            manifest(bytes(blob))

    @pytest.mark.parametrize("dim", [0, 1, 4, 7])
    def test_unsupported_dim_rejected(self, asset, dim):
        blob = bytearray(encode(*asset))
        blob[7] = dim
        with pytest.raises(FormatError, match="dimension"):
            decode_prefix(bytes(blob))

    @pytest.mark.parametrize("step", [-1.0 / 16.0, 0.0, float("inf"), float("-inf"), float("nan"), 1.7e308])
    def test_bad_quant_step_rejected(self, asset, step):
        blob = bytearray(encode(*asset))
        struct.pack_into("<d", blob, 16 + 8 * 2, step)  # the scale family's step
        with pytest.raises(FormatError, match="quantization step"):
            decode_prefix(bytes(blob))

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

    Layer 0 carries anchors 0-3; layer 1 refers to 0 and 1 and supplements
    4 and 5; layer 2 refers to 0 and 2 and supplements 4, 6 and 7.
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
    assert [c.index_width for c in manifest(blob).chunks] == [2, 2, 2]
    return blob


def _rewrite_chunk(blob: bytes, layer: int, offset: int, fmt: str, *values, tail: bytes = b"") -> bytes:
    """Patch one chunk's decompressed payload and append ``tail``, then recompress it and fix its table entry."""
    man = manifest(blob)
    bounds = (man.header_bytes, *man.cumulative_sizes)
    raw = bytearray(lzma.decompress(blob[bounds[layer] : bounds[layer + 1]]))
    struct.pack_into(fmt, raw, offset, *values)
    raw += tail
    comp = lzma.compress(bytes(raw), preset=6)
    out = bytearray(blob[: bounds[layer]] + comp + blob[bounds[layer + 1] :])
    entry = HEADER_BASE_SIZE + CHUNK_ENTRY_SIZE * layer
    struct.pack_into("<QQI", out, entry + 2, len(raw), len(comp), zlib.crc32(raw))
    return bytes(out)


# Byte offsets in the layout container's decompressed payloads (FORMAT.md):
# layer 0 is n0 (u32), 4 indices (u32), then 2-byte positions (8), features
# (8), scales (4) and offsets (8), then f32 opacities; layer 1 starts with 2
# f64 timesteps, then the two counts, 2 refs and 2 supplemental indices;
# layer 2 starts with the counts, 2 refs and 3 supplemental indices.
_INDICES_0 = 4
_SCALES_0 = _INDICES_0 + 4 * 4 + 2 * (8 + 8)
_OPACITIES_0 = _SCALES_0 + 2 * (4 + 8)
_SUPP_1 = 16 + 8 + 2 * 4
_REFS_2, _SUPP_2 = 8, 8 + 2 * 4

MALFORMED = {
    "base index beyond anchor count": (0, _INDICES_0 + 3 * 4, "<I", 10**6),
    "duplicated base index": (0, _INDICES_0 + 2 * 4, "<I", 1),
    "supplemental index beyond anchor count": (2, _SUPP_2 + 2 * 4, "<I", 10**6),
    "supplemental indices out of order": (1, _SUPP_1, "<2I", 5, 4),
    "supplemental index also in layer 0": (1, _SUPP_1, "<I", 3),
    "refs out of order": (2, _REFS_2, "<2I", 2, 0),
    "opacity 2.0": (0, _OPACITIES_0, "<f", 2.0),
    "NaN opacity": (0, _OPACITIES_0 + 4, "<f", float("nan")),
    "negative scale index": (0, _SCALES_0, "<h", -1),
    "reversed timesteps": (1, 0, "<2d", 1.0, 0.0),
    "NaN timestep": (1, 8, "<d", float("nan")),
}


class TestMalformedPayload:
    def test_layout_container_decodes(self):
        decoded = decode_prefix(_layout_container())
        assert decoded.anchor_indices.tolist() == list(range(8))
        assert decoded.deformations.timesteps.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_as_format_error(self, case):
        blob = _rewrite_chunk(_layout_container(), *MALFORMED[case])
        with pytest.raises(FormatError):
            decode_prefix(blob)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_bytes_after_last_array_rejected(self, layer):
        blob = _rewrite_chunk(_layout_container(), layer, 0, "", tail=b"\x00" * 3)
        with pytest.raises(FormatError, match="after its last array"):
            decode_prefix(blob)


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
