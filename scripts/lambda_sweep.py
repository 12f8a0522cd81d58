#!/usr/bin/env python3
"""Sweep the base-layer rate weight and report how the base layer shrinks.

Trains the same mixed scene under each rate weight on the acceptance
schedule (the setup of acceptance criterion 8), encodes the result, and
tabulates active-anchor counts, base-chunk bytes, and base-layer PSNR.
"""

from pd4g import acceptance, bitstream

LAMBDAS = (0.00025, 0.01, 0.04)

if __name__ == "__main__":
    print(f"{'rate weight':>12} {'active@0':>9} {'base bytes':>11} {'PSNR@0 (dB)':>12}")
    for lam in LAMBDAS:
        scene, bank, report = acceptance.trained(
            "mixed", acceptance.SWEEP_SEED, lambda_layer0=lam, steps=6000, learning_rate=0.8
        )
        blob = bitstream.encode(scene.anchors, bank, scene.deformations)
        manifest = bitstream.manifest(blob)
        print(
            f"{lam:>12} {report.active_per_level[0]:>9} "
            f"{manifest.compressed_sizes[0]:>11} {report.psnr_per_level[0]:>12.2f}"
        )
