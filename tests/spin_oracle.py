"""Independent references for ``spindyn``.

``BlochOracle`` checks ``spindyn.simulate_sequence`` by integrating the
Bloch equation numerically.  ``rabi_population`` is the generalised Rabi
formula a constant drive must reproduce.  ``c13_envelope_full_loop`` is the
bath envelope summing every dip of its window in turn, which
``spindyn.c13_envelope`` must reproduce bit for bit.  ``rotate_bloch_np_cross``
and ``pulse_rotation_stacked`` are the two rotations written plainly, with
``np.cross``, ``np.hypot`` and an ``np.stack`` axis, which
``spindyn.rotate_bloch`` and ``spindyn.pulse_rotation`` (an axis filled in
place) must reproduce bit for bit.

The Bloch oracle shares no closed form with the simulator.  The free detuning is the full
Zeeman projection (``geometry.zeeman_projection``, the lab-frame NV axis
dotted into the bias field) minus its average over one rotation, not the
AC amplitude and phase of ``effective_field``.  Free precession is a
z-rotation by the ``quad`` integral of that detuning, not ``ac_phase``.  An
ideal target pulse is the matrix exponential of its generator, not a
Rodrigues rotation.  Each finite pulse is integrated by DOP853 ``solve_ivp``
under the detuning as it moves during the pulse, where the simulator holds
it at the pulse centre.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, linalg

from rotornv import geometry
from rotornv.config import FieldConfig, PhysicalConstants, RotorGeometry
from rotornv.seqlang import TimelineBatch
from rotornv.spindyn import COLLAPSE_FLOOR, COLLAPSE_WIDTH_FRAC, c13_revival_time_us

TWO_PI = 2.0 * math.pi
TARGET_ANGLES_RAD = {"pi": math.pi, "pi/2": math.pi / 2.0}


def _rotation(omega_vec) -> np.ndarray:
    """exp of the cross-product generator: the rotation by |w| about w, right-handed."""
    wx, wy, wz = omega_vec
    return linalg.expm(np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]]))


class BlochOracle:
    """dM/dt = 2 pi (Omega cos phi, Omega sin phi, Delta(t)) x M, from M = +z (m_S = 0)."""

    def __init__(self, g: RotorGeometry, f: FieldConfig, c: PhysicalConstants):
        self.g, self.f, self.c = g, f, c
        # the microwave is tuned to the rotation-averaged transition
        self.dc_mhz = self._quad(self._projection_mhz, 0.0, g.t_rot_us) / g.t_rot_us

    def _projection_mhz(self, t_us: float) -> float:
        return geometry.zeeman_projection(self.g, self.f, self.c, t_us * 1e-6)

    def detuning_mhz(self, t_us: float) -> float:
        return self._projection_mhz(t_us) - self.dc_mhz

    @staticmethod
    def _quad(fn, t0: float, t1: float) -> float:
        with warnings.catch_warnings():
            # roundoff chatter at the requested accuracy is expected
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return integrate.quad(fn, t0, t1, epsabs=1e-14, epsrel=1e-13, limit=400)[0]

    def precess(self, bloch: np.ndarray, t0: float, t1: float) -> np.ndarray:
        if t1 == t0:
            return bloch
        return _rotation((0.0, 0.0, TWO_PI * self._quad(self.detuning_mhz, t0, t1))) @ bloch

    def pulse(self, bloch, start_us, duration_us, target, rabi_mhz, phase_rad) -> np.ndarray:
        axis = np.array([math.cos(phase_rad), math.sin(phase_rad), 0.0])
        if duration_us == 0.0:
            # a zero-duration target pulse is its exact rotation; an explicit one does nothing
            angle = TARGET_ANGLES_RAD.get(target)
            return bloch if angle is None else _rotation(angle * axis) @ bloch
        drive = TWO_PI * rabi_mhz * axis

        def rhs(t_us, m):
            return np.cross(drive + (0.0, 0.0, TWO_PI * self.detuning_mhz(t_us)), m)

        sol = integrate.solve_ivp(
            rhs, (start_us, start_us + duration_us), bloch, method="DOP853", rtol=1e-12, atol=1e-13
        )
        return sol.y[:, -1]

    def run(self, batch, i: int = 0) -> np.ndarray:
        """Final Bloch vector of timeline ``i`` of a ``TimelineBatch``, read row by row."""
        bloch, t = np.array([0.0, 0.0, 1.0]), 0.0
        for k, channel in enumerate(batch.channels):
            start, dur = float(batch.start_us[k, i]), float(batch.duration_us[k, i])
            end = start + dur
            bloch = self.precess(bloch, t, start)
            if channel == "mw":
                rabi, phase = float(batch.rabi_mhz[k, i]), float(batch.phase_rad[k, i])
                bloch = self.pulse(bloch, start, dur, batch.targets[k], rabi, phase)
            else:  # the laser window is free precession for the coherent state
                bloch = self.precess(bloch, start, end)
            t = end
        return bloch


def batch_of_one(*events):
    """A ``TimelineBatch`` of one timeline, from (channel, target, start_us, duration_us,
    rabi_mhz, phase_rad) events listed in time order; no calibration angle is kept."""
    channels, targets, *cols = zip(*events)
    start, dur, rabi, phase = (np.array(col, dtype=float)[:, None] for col in cols)
    return TimelineBatch(channels, targets, start, dur, rabi, phase, np.zeros_like(start))


def rabi_population(t_us, omega_mhz: float, delta_mhz: float = 0.0):
    """P(m_S = -1) after driving the bright state for ``t_us``.

    Generalised Rabi formula with linear frequencies:
    (O^2/(O^2+D^2)) sin^2(pi sqrt(O^2+D^2) t).
    """
    t = np.asarray(t_us, dtype=float)
    gen_sq = omega_mhz**2 + delta_mhz**2
    if gen_sq == 0.0:
        out = np.zeros_like(t)
    else:
        out = (omega_mhz**2 / gen_sq) * np.sin(math.pi * math.sqrt(gen_sq) * t) ** 2
    return float(out) if np.isscalar(t_us) else out


def c13_envelope_full_loop(p, c, tau_us):
    """The bath envelope with every odd dip m in [-m_max, m_max] added to every tau, in ascending m."""
    tau = np.asarray(tau_us, dtype=float)
    tau_r = c13_revival_time_us(p.b0_gauss, c)
    width = COLLAPSE_WIDTH_FRAC * tau_r
    half = tau_r / 2.0
    m_max = int(np.ceil(float(np.max(tau, initial=0.0)) / half)) + 3
    dips = np.zeros_like(tau)
    for m in range(-m_max, m_max + 1):
        if m % 2 == 0:
            continue  # dips sit at odd multiples of tau_r/2 only
        dips += np.exp(-((tau - m * half) ** 2) / (2.0 * width**2))
    comb = 1.0 - (1.0 - COLLAPSE_FLOOR) * np.clip(dips, 0.0, 1.0)
    damp = np.exp(-((tau / p.t2_us) ** p.envelope_exponent))
    out = comb * damp
    return float(out) if np.isscalar(tau_us) else out


def rotate_bloch_np_cross(vec, axis, angle_rad):
    """The Rodrigues rotation of ``spindyn.rotate_bloch`` with ``np.cross`` itself."""
    angle = np.asarray(angle_rad, dtype=float)[..., None]
    c, s = np.cos(angle), np.sin(angle)
    # a matmul of single rows rounds like np.dot on two 3-vectors
    dot = (axis[..., None, :] @ vec[..., :, None])[..., 0]
    return c * vec + s * np.cross(axis, vec) + (1.0 - c) * dot * axis


def pulse_rotation_stacked(vec, rabi_freq_mhz, detuning_mhz, duration_us, phase_rad=0.0):
    """``spindyn.pulse_rotation`` with a stacked axis."""
    rabi = np.asarray(rabi_freq_mhz, dtype=float)
    delta = np.asarray(detuning_mhz, dtype=float)
    gen = np.hypot(rabi, delta)
    axis = np.stack(
        np.broadcast_arrays(rabi * np.cos(phase_rad), rabi * np.sin(phase_rad), delta), axis=-1
    ) / gen[..., None]
    return rotate_bloch_np_cross(vec, axis, 2.0 * math.pi * gen * duration_us)
