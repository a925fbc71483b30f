#!/usr/bin/env python3
"""Readout transit study: traces for both spin states and the turn-on optimum.

Writes the binned fluorescence traces for an NV prepared bright (m_S = 0) and
dark (m_S = -1), prints the early-window contrast, and scans the laser turn-on
offset for the contrast signal-to-noise optimum.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rotornv import pipeline
from rotornv.config import config_from_dict
from rotornv.photophysics import optimal_turn_on, state_contrast

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "out")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    # the shots are a config key, so the header's config_sha256 covers them
    cfg = config_from_dict({"protocol": {"shots_per_point": 300_000}})
    g, b, m, pro = cfg.geometry, cfg.beam, cfg.rates, cfg.protocol
    traces = {}
    # each trace draws from its own seed, which its file's header records
    for seed, name in enumerate(("ms0", "ms1"), start=1):
        trace_cfg = cfg.replace(seed=seed)
        trace, meta = pipeline.simulate_readout_trace(trace_cfg, name)
        traces[name] = trace
        path = os.path.join(OUT_DIR, f"readout_{name}.dat")
        with open(path, "w") as fh:
            fh.write(pipeline.format_scan(trace, meta, trace_cfg))
        print(f"wrote {path} ({trace.counts.sum()} counts over {trace.shots} shots)")

    ratio, sigma = state_contrast(traces["ms1"], traces["ms0"], pro.readout_window_us)
    print(f"early-window ratio ms1/ms0: {ratio:.4f} +- {sigma:.4f}"
          f"  (contrast {100 * (1 - ratio):.1f}%)")

    opt = optimal_turn_on(g, b, m, cfg.strobe.t_pulse_us, window_us=pro.readout_window_us)
    v = 2.0 * np.pi * g.r_nv_um * g.f_rot_hz * 1e-6
    print(f"optimal laser turn-on offset: {opt:+.3f} us "
          f"({abs(opt) * v * 1e3:.0f} nm from beam centre)")


if __name__ == "__main__":
    main()
