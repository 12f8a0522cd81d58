#!/usr/bin/env python3
"""Compare the learned activation rate across scene motion profiles.

Trains matched-seed scenes of every kind on the acceptance schedule and
prints the final activation EMA, the resulting level-sampling distribution,
and per-level quality, showing how motion demand shifts training budget
toward deeper layers.
"""

from dataclasses import replace

import numpy as np

from pd4g import acceptance, toyscene

if __name__ == "__main__":
    for kind in toyscene.SCENE_KINDS:
        emas, distributions, psnrs = [], [], []
        for seed in acceptance.MOTION_SEEDS:
            _, _, report = acceptance.trained(replace(acceptance.ACCEPT_RUN, scene_kind=kind, seed=seed))
            emas.append(report.final_activation_ema)
            distributions.append(report.final_distribution)
            psnrs.append(report.psnr_per_level)
        pi = np.mean(distributions, axis=0)
        psnr = np.mean(psnrs, axis=0)
        print(
            f"{kind:>13}: activation EMA {np.mean(emas):.3f} "
            f"| sampling ({pi[0]:.3f}, {pi[1]:.3f}, {pi[2]:.3f}) "
            f"| PSNR {psnr[0]:6.2f} / {psnr[1]:6.2f} / {psnr[2]:6.2f} dB"
        )
