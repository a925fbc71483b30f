#!/usr/bin/env python3
"""Closed-loop echo sensing demo: simulate fringes, fit them, recover the AC field.

Generates a spin-echo scan at the standard operating point (3.33 kHz rotation,
6.2 G bias tilted ~1 deg so the rotation induces an ~88 mG AC field), then fits
the fringe model and compares the recovered amplitude with the configured one.

Outputs land in ./out/ as plot-ready columnar text.
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rotornv import pipeline
from rotornv.config import config_from_dict
from rotornv.geometry import eac_amplitude

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "out")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    theta_b = math.degrees(math.asin(0.088 / (6.2 * math.sin(math.radians(54.7)))))
    cfg = config_from_dict(
        {
            "geometry": {"phi_nv0_deg": math.degrees(1.2)},
            "field": {"theta_b_deg": theta_b},
            "seed": 20240808,
        }
    )
    b_true = eac_amplitude(cfg.geometry, cfg.field_cfg)
    taus = np.linspace(2.0, 21.0, 16)

    data, meta = pipeline.simulate_echo_scan(cfg, taus)
    path = os.path.join(OUT_DIR, "echo_scan.dat")
    with open(path, "w") as fh:
        fh.write(pipeline.format_scan(data, meta, cfg))

    fit = pipeline.fit_dataset(cfg, data)
    print(f"wrote {path}")
    print(f"true AC amplitude : {b_true * 1e3:8.2f} mG")
    print(
        f"fitted amplitude  : {fit.params['b_perp_gauss'] * 1e3:8.2f}"
        f" +- {fit.sigmas['b_perp_gauss'] * 1e3:.2f} mG"
    )
    print(f"fringe phase      : {fit.params['phi0_rad']:8.3f} rad")
    print(f"contrast/baseline : {fit.params['contrast']:.3f} / {fit.params['baseline']:.3f}")
    print(f"converged         : {fit.converged} ({fit.iterations} iterations)")
    with open(os.path.join(OUT_DIR, "echo_fit.txt"), "w") as fh:
        fh.write(fit.as_text() + "\n")


if __name__ == "__main__":
    main()
