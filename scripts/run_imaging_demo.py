#!/usr/bin/env python3
"""Strobed-confocal imaging demo: stationary vs rotating spot widths.

Renders the emitter pair (3.6 um apart, 10 um off axis) stationary and
rotating, fits the spot widths, and writes both images plus a summary.
Exits with status 1 if any spot fit fails.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rotornv import pipeline
from rotornv.config import config_from_dict
from rotornv.imaging import ScanGrid

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "out")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    cfg = config_from_dict({"strobe": {"t_phi_us": 0.0}, "seed": 5})
    grid = ScanGrid(
        x_range_um=(7.0, 12.5), y_range_um=(-2.0, 5.2), step_um=0.15, dwell_ms=200.0
    )
    failed = 0
    for stationary in (True, False):
        label = "stationary" if stationary else "rotating"
        image, summaries = pipeline.simulate_image(cfg, grid, stationary=stationary)
        path = os.path.join(OUT_DIR, f"image_{label}.dat")
        with open(path, "w") as fh:
            fh.write(pipeline.format_image(image, cfg))
        print(f"{label}: wrote {path} (duty cycle {image.duty_cycle:.4f})")
        print(pipeline.format_spots(summaries), end="")
        failed += sum("error" in s for s in summaries)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
