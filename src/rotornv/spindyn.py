"""Coherent two-level spin dynamics for the rotating NV qubit.

The qubit is the m_S = 0 <-> m_S = -1 pair, represented by a Bloch vector
with +z = m_S = 0 (bright) and -z = m_S = -1 (dark).  Microwave pulses are
rotations about a tilted axis set by the drive amplitude, phase and
detuning; free evolution is precession about z at the instantaneous
detuning.  With the microwave tuned to the rotation-averaged transition,
the free detuning is gamma_e times the AC field of :func:`geometry.effective_field`.
:func:`simulate_sequence` is the one simulator: it runs every timeline of a
:class:`seqlang.TimelineBatch`, whether a scan or one compiled program (a
batch of one).  Its test oracle integrates the Bloch equation numerically
(``quad`` for free precession, DOP853 ``solve_ivp`` through each pulse
under the moving detuning), sharing none of the closed forms used here;
the generalised Rabi formula a constant drive must reproduce is a test
reference too.  The echo fringe built on :func:`echo_phase` and
:func:`c13_envelope` is :class:`estimation.EchoFitModel`.

Frequencies are linear (MHz), times are microseconds, so a resonant pulse
of duration 1/(2 Omega) is a pi rotation.  All functions are pure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import geometry
from .config import FieldConfig, PhysicalConstants, RotorGeometry, check_ranges, check_value, check_values
from .errors import ValidationError, record
from .geometry import TWO_PI

if TYPE_CHECKING:
    from .seqlang import TimelineBatch

# fraction of a full turn that each target pulse rotates the spin by
TARGET_FRACTIONS = {"pi": 0.5, "pi/2": 0.25}
# how far, in us, an event may start before the previous one ends: rounding, not an overlap
ORDER_TOL_US = 1e-12
# EchoParams field -> its DOMAINS row: the config key it comes from, or the model's own
_ECHO_KEYS = (("b_perp_gauss", "echo.b_perp_gauss"), ("phi0_rad", "echo.phi0_rad"), ("f_rot_hz", "geometry.f_rot_hz"),
              ("t2_us", "protocol.t2_us"), ("envelope_exponent", "protocol.envelope_exponent"),
              ("b0_gauss", "field.b0_gauss"))


# refused as the config refuses the settings they come from
@record(check=lambda params: check_ranges(params, _ECHO_KEYS))
class EchoParams:
    """Everything the closed-form echo fringe model needs.

    ``b_perp_gauss`` is the AC-field amplitude B0 sin(theta_nv) sin(theta_b);
    ``b0_gauss`` is the full bias magnitude, which only enters through the
    nuclear-bath revival time.
    """

    b_perp_gauss: float = 0.088
    phi0_rad: float = 0.0
    f_rot_hz: float = 3333.33
    t2_us: float = 350.0
    envelope_exponent: float = 4.0
    b0_gauss: float = 6.2

    @classmethod
    def from_experiment(cls, g, f, t2_us=350.0, **kw) -> "EchoParams":
        return cls(
            b_perp_gauss=geometry.eac_amplitude(g, f),
            phi0_rad=geometry.fringe_phase_offset(g, f),
            f_rot_hz=g.f_rot_hz,
            t2_us=t2_us,
            b0_gauss=f.b0_gauss,
            **kw,
        )


# ---------------------------------------------------------------------------
# elementary rotations


def rotate_bloch(vec: np.ndarray, axis: np.ndarray, angle_rad) -> np.ndarray:
    """Right-handed Rodrigues rotation of ``vec`` about unit ``axis``.

    Broadcasts over leading axes: ``vec`` and ``axis`` are (..., 3) and
    ``angle_rad`` is (...), so one call rotates a whole (N, 3) batch.
    """
    angle = np.asarray(angle_rad, dtype=float)[..., None]
    c, s = np.cos(angle), np.sin(angle)
    # a matmul of single rows rounds like np.dot on two 3-vectors
    dot = (axis[..., None, :] @ vec[..., :, None])[..., 0]
    return c * vec + s * np.cross(axis, vec) + (1.0 - c) * dot * axis


def pulse_rotation(vec, rabi_freq_mhz, detuning_mhz, duration_us, phase_rad=0.0) -> np.ndarray:
    """Exact constant-(Omega, Delta) rotation of Bloch vectors; broadcasts like :func:`rotate_bloch`.

    The generalised Rabi frequency must be non-zero; a zero duration turns by 0 and returns ``vec``.
    """
    rabi, delta = np.asarray(rabi_freq_mhz, dtype=float), np.asarray(detuning_mhz, dtype=float)
    gen = np.hypot(rabi, delta)
    axis = np.empty(np.broadcast_shapes(gen.shape, np.shape(phase_rad)) + (3,))
    axis[..., 0] = rabi * np.cos(phase_rad)
    axis[..., 1] = rabi * np.sin(phase_rad)
    axis[..., 2] = delta
    axis /= gen[..., None]
    return rotate_bloch(vec, axis, TWO_PI * gen * duration_us)


# ---------------------------------------------------------------------------
# echo closed forms


def ac_phase(c: PhysicalConstants, f_rot_hz: float, b_gauss, phi0_rad, t0_us, t1_us):
    """2 pi gamma_e b integral_{t0}^{t1} cos(w t + phi0) dt in rad, w = 2 pi f_rot in rad/us.

    The one AC-phase closed form: simulator, echo phase and fringe fit share it.  Broadcasts.
    """
    w = TWO_PI * f_rot_hz * 1e-6
    integral_g_us = b_gauss * (np.sin(w * t1_us + phi0_rad) - np.sin(w * t0_us + phi0_rad)) / w
    return TWO_PI * (c.gamma_e_mhz_per_g * integral_g_us)


def echo_ac_phase(c: PhysicalConstants, f_rot_hz: float, b_gauss, phi0_rad, tau_us):
    """:func:`ac_phase` over the first free half of a tau echo minus that over the second."""
    half = tau_us / 2.0
    first = ac_phase(c, f_rot_hz, b_gauss, phi0_rad, 0.0, half)
    return first - ac_phase(c, f_rot_hz, b_gauss, phi0_rad, half, tau_us)


def echo_phase(p: EchoParams, c: PhysicalConstants, tau_us):
    """Phase difference between the two free halves of a tau spin echo, in rad:
    (2 pi gamma_e b_perp / w) [2 sin(w tau/2 + phi0) - sin(phi0) - sin(w tau + phi0)]."""
    tau = check_values("tau_us", tau_us)
    out = echo_ac_phase(c, p.f_rot_hz, p.b_perp_gauss, p.phi0_rad, tau)
    return float(out) if np.isscalar(tau_us) else out


def c13_revival_time_us(b0_gauss: float, c: PhysicalConstants) -> float:
    """First nuclear-bath contrast revival, 2 / (gamma_13C * B0), in us.

    The rows of B0 and gamma_13C keep it a positive finite float.
    """
    check_value("field.b0_gauss", b0_gauss)
    return 2e3 / (c.gamma_c13_khz_per_g * b0_gauss)


# The phenomenological collapse between revivals: the dip width as a fraction
# of the revival time, and the contrast left at a dip's centre.
COLLAPSE_WIDTH_FRAC = 0.1
COLLAPSE_FLOOR = 0.02
# A dip 39 widths away is exp(-760.5): exactly 0 in floats, whose exp underflows below -745.2.
_DIP_REACH_WIDTHS = 39.0


def c13_envelope(p: EchoParams, c: PhysicalConstants, tau_us):
    """Phenomenological collapse-revival envelope of the echo contrast.

    Unity at tau = 0, Gaussian collapse dips centred between revivals
    (odd multiples of tau_R / 2), full revivals at integer multiples of
    tau_R = 2/(gamma_13C B0), all damped by exp[-(tau/T2)^p].  Only the
    revival position and the T2 damping are treated as quantitative; the
    dip shape is a modelling choice.  The dips summed are those at odd m
    in [-m_max, m_max], m_max = ceil(max tau / (tau_R / 2)) + 3; each tau
    takes only the ones within reach, in ascending m, since the others add
    an exact zero, so the cost does not grow with B0.  The domains of B0
    and gamma_13C keep the dip width's variance a positive finite float.
    """
    tau = check_values("tau_us", tau_us)
    tau_r = c13_revival_time_us(p.b0_gauss, c)
    width = COLLAPSE_WIDTH_FRAC * tau_r
    two_var = 2.0 * width**2
    half = tau_r / 2.0
    m_max = int(np.ceil(float(np.max(tau, initial=0.0)) / half)) + 3
    reach = _DIP_REACH_WIDTHS * width / half  # in half-periods
    # the lowest odd m within reach of each tau, and never below -m_max
    m = np.maximum(2.0 * np.ceil((tau / half - reach - 1.0) / 2.0) + 1.0, 1 - 2 * ((m_max + 1) // 2))
    dips = np.zeros_like(tau)
    for _ in range(min(int(reach) + 1, m_max + 1)):  # the most odd m in reach of one tau
        dips += np.where(m <= m_max, np.exp(-((tau - m * half) ** 2) / two_var), 0.0)
        m += 2.0
    comb = 1.0 - (1.0 - COLLAPSE_FLOOR) * np.clip(dips, 0.0, 1.0)
    with np.errstate(over="ignore"):  # (tau / T2)^p beyond the float range damps to exactly 0
        damp = np.exp(-((tau / p.t2_us) ** p.envelope_exponent))
    out = comb * damp
    return float(out) if np.isscalar(tau_us) else out


# ---------------------------------------------------------------------------
# timeline simulation


def free_phase(
    g: RotorGeometry, f: FieldConfig, c: PhysicalConstants, t0_us, t1_us
):
    """Precession angle 2 pi * integral of the detuning over [t0, t1] us, by :func:`ac_phase`.

    Broadcasts over array ``t0_us`` and ``t1_us``.
    """
    b_perp, phi0 = geometry.eac_amplitude(g, f), geometry.fringe_phase_offset(g, f)
    return ac_phase(c, g.f_rot_hz, b_perp, phi0, t0_us, t1_us)


_Z_AXIS = np.array([0.0, 0.0, 1.0])


def _free_evolve(bloch, g, f, c, t0_us, t1_us):
    """Free precession of (N, 3) Bloch vectors from t0 to t1; a row with t1 == t0 turns by 0, the identity."""
    if (t1_us == t0_us).all():  # a batch's first event at t = 0: nothing turns
        return bloch
    return rotate_bloch(bloch, _Z_AXIS, free_phase(g, f, c, t0_us, t1_us))


def _pulse_detuning(g, f, c, start_us, duration_us):
    """Free detuning at the pulse centre, held constant over the pulse, in MHz."""
    t_mid = start_us + duration_us / 2.0
    return c.gamma_e_mhz_per_g * geometry.effective_field(g, f, t_mid * 1e-6)


def simulate_sequence(
    batch: TimelineBatch,
    g: RotorGeometry,
    f: FieldConfig,
    c: PhysicalConstants,
) -> np.ndarray:
    """Final Bloch vectors, shape (N, 3), of the N timelines of a batch, from m_S = 0.

    A scan is one batch, and a compiled program is a batch of one.
    Each timeline takes its events in order: free precession to the event
    start by the closed-form AC phase, then for a microwave event the
    constant-(Omega, Delta) rotation about the axis at its phase, with Delta
    held at its value at the pulse centre, and for a laser event free
    precession through its window.  A microwave row of zero duration takes
    the exact target rotation when its event has a target; every other row
    takes the driven rotation, which at zero duration turns by 0 and is the
    identity, as a free precession of zero length is.  A target event
    computes only the rotations its rows keep: the target rotation alone when
    every row has zero duration, the driven one alone when none has (both
    only in a hand-made batch).
    Optical dynamics belong to the photophysics layer.  Before any
    rotation, an event that starts more than :data:`ORDER_TOL_US` before the
    previous one ends, on any channel, is refused naming both events and
    the overlap.
    """
    start, dur = batch.start_us, batch.duration_us
    end = start + dur
    early = start[1:] < end[:-1] - ORDER_TOL_US
    if early.any():
        k, i = np.argwhere(early)[0]
        raise ValidationError(f"event {batch.describe_overlap(k, k + 1, i)}")

    bloch = np.tile(_Z_AXIS, (start.shape[1], 1))
    t = np.zeros(start.shape[1])
    for k, channel in enumerate(batch.channels):
        bloch = _free_evolve(bloch, g, f, c, t, start[k])
        if channel == "mw":
            phase = batch.phase_rad[k]
            zero = dur[k] == 0.0
            fraction = TARGET_FRACTIONS.get(batch.targets[k])
            if fraction is not None and zero.all():
                bloch = pulse_rotation(bloch, 1.0, 0.0, fraction, phase)
            else:
                detuning = _pulse_detuning(g, f, c, start[k], dur[k])
                driven = pulse_rotation(bloch, batch.rabi_mhz[k], detuning, dur[k], phase)
                if fraction is not None and zero.any():  # a hand-made batch: its zero rows take the target
                    driven = np.where(zero[:, None], pulse_rotation(bloch, 1.0, 0.0, fraction, phase), driven)
                bloch = driven
        else:
            bloch = _free_evolve(bloch, g, f, c, start[k], end[k])
        t = end[k]
    return bloch
