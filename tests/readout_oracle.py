"""Reference transit readout: every exponential factor of ``photophysics._transit_counts`` taken directly.

The kernel interpolates its commutator-free factors exp((h/2) (gen0 + s slope))
in the intensity blend s from a few Chebyshev nodes.  This oracle keeps the
same step rule, the same Gauss-point intensities and blends, the same
time-ordered product by halving and the same per-bin state loop, but
exponentiates each of the 2 * steps * n_bins factors on its own with the
Pade ``photophysics.expm``.  So it differs from the kernel only in how the
factors are obtained, and the two must agree to rounding; the step
discretisation itself is checked against DOP853 in ``test_photophysics``.
Its halving pads each bin's factors with identities to a power of two
(:func:`padded_halving`); the kernel carries an odd last factor instead,
which must give the same products bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from rotornv import photophysics
from rotornv.geometry import TWO_PI
from rotornv.photophysics import (
    _CF4_BLEND,
    _GAUSS_NODES,
    _STEP_SCALE,
    MAX_READOUT_STEPS,
    detection_calibration,
    rate_matrix,
    transit_offset_um,
)


def transit_counts(initial, g, b, m, turn_on_offset_us, n_bins, bin_width_us):
    """Cumulative counts at every bin edge (n_bins + 1, k) and final populations (5, k)."""
    gen0 = np.zeros((6, 6))
    gen1 = np.zeros((6, 6))
    gen0[:5, :5] = rate_matrix(m, 0.0)
    gen1[:5, :5] = rate_matrix(m, 1.0)
    gen1[5, 2:4] = 1.0
    if b.collection_mode != "confocal-squared":
        gen0[5, 2:4] = 1.0
    slope = gen1 - gen0

    speed_um_per_us = TWO_PI * g.r_nv_um * g.f_rot_hz * 1e-6
    rate = math.sqrt(np.abs(gen1[:5, :5]).sum(axis=0).max() * speed_um_per_us / b.waist_radius_um)
    wanted = bin_width_us * rate / _STEP_SCALE
    steps = MAX_READOUT_STEPS // n_bins
    if wanted < steps:
        steps = max(1, math.ceil(wanted))

    h = bin_width_us / steps
    starts = (bin_width_us * np.arange(n_bins))[:, None, None] + h * np.arange(steps)[:, None]
    off = transit_offset_um(g, starts + h * _GAUSS_NODES + turn_on_offset_us)
    d = b.waist_diameter_1e2_um
    gauss_intensity = np.exp(-8.0 * (np.minimum(off, 10.0 * d) / d) ** 2)
    blend = np.clip(gauss_intensity @ _CF4_BLEND, 0.0, None)
    exponents = (0.5 * h) * (gen0 + blend[..., None, None] * slope)
    factors = padded_halving(photophysics.expm(exponents.reshape(n_bins, 2 * steps, 6, 6)))

    state = np.vstack([initial, np.zeros(initial.shape[1])])
    excited_us = np.zeros((n_bins + 1, initial.shape[1]))
    for i in range(n_bins):
        state = factors[i, 0] @ state
        excited_us[i + 1] = state[5]
    counts_per_excited_us = detection_calibration(m, b) * m.radiative_rate_per_us * 1e-6
    background = b.background_cps * 1e-6 * bin_width_us * np.arange(n_bins + 1)[:, None]
    return counts_per_excited_us * excited_us + background, state[:5]


def padded_halving(factors):
    """Time-ordered product of each bin's (n_bins, n, 6, 6) factors, earliest first, as (n_bins, 1, 6, 6).

    Identities pad the factor count to a power of two, and each round
    multiplies factor 2j+1 onto factor 2j.
    """
    n_bins, n = factors.shape[:2]
    padding = (1 << (n - 1).bit_length()) - n
    factors = np.concatenate([factors, np.broadcast_to(np.eye(6), (n_bins, padding, 6, 6))], axis=1)
    while factors.shape[1] > 1:
        factors = factors[:, 1::2] @ factors[:, 0::2]
    return factors
