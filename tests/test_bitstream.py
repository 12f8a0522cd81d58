import struct

import numpy as np
import pytest

from pd4g.acceptance import expected_reconstruction, random_asset
from pd4g.asset import MaskBank
from pd4g.bitstream import (
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

    @pytest.mark.parametrize("step", [0.0, -0.5, float("inf"), float("nan")])
    def test_config_rejects_steps_the_decoder_would(self, step):
        with pytest.raises(ValueError, match="positive and finite"):
            EncodeConfig(quant_steps={**DEFAULT_QUANT_STEPS, "scale": step})

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

    @pytest.mark.parametrize("step", [-1.0 / 16.0, 0.0, float("inf"), float("-inf"), float("nan")])
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
