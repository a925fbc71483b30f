#!/usr/bin/env python3
"""Rabi scans at the readout position (t = 0) and half a turn away (t = T_rot/2).

The second scan starts from the dark state: a calibrated pi pulse fires at the
trigger, the variable pulse is applied after half a rotation, 20 um from the
readout region, and the strobed readout happens when the NV comes back around.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rotornv import pipeline
from rotornv.config import config_from_dict

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "out")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    cfg = config_from_dict({"seed": 77, "protocol": {"shots_per_point": 100_000}})
    durations = np.linspace(0.0, 1.1, 40)
    for variant in ("start", "half"):
        data, meta = pipeline.simulate_rabi_scan(cfg, durations, pulse_at=variant)
        path = os.path.join(OUT_DIR, f"rabi_{variant}.dat")
        with open(path, "w") as fh:
            fh.write(pipeline.format_scan(data, meta, cfg))
        fit = pipeline.fit_dataset(cfg, data, "rabi")
        print(
            f"{variant:5s}: wrote {path};  Rabi frequency "
            f"{fit.params['rabi_freq_mhz']:.3f} +- {fit.sigmas['rabi_freq_mhz']:.3f} MHz, "
            f"signal starts {'dark' if variant == 'half' else 'bright'}"
        )


if __name__ == "__main__":
    main()
