#!/usr/bin/env python3
"""Sweep the base-layer rate weight and report how the base layer shrinks.

Trains acceptance criterion 8's declared runs (``acceptance.SWEEP_RUNS``:
the same mixed scene under each rate weight), encodes the result, and
tabulates active-anchor counts, base-chunk bytes, and base-layer PSNR.
"""

from pd4g import acceptance, bitstream

if __name__ == "__main__":
    print(f"{'rate weight':>12} {'active@0':>9} {'base bytes':>11} {'PSNR@0 (dB)':>12}")
    for cfg in acceptance.SWEEP_RUNS:
        scene, bank, report = acceptance.trained(cfg)
        blob = bitstream.encode(scene.anchors, bank, scene.deformations)
        manifest = bitstream.manifest(blob)
        print(
            f"{cfg.lambda_layer0:>12} {report.active_per_level[0]:>9} "
            f"{manifest.compressed_sizes[0]:>11} {report.psnr_per_level[0]:>12.2f}"
        )
