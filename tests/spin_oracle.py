"""Independent oracle of ``spindyn.simulate_sequence``: the Bloch equation integrated numerically.

It shares no closed form with the simulator.  The free detuning is the full
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

TWO_PI = 2.0 * math.pi
TARGET_ANGLES_RAD = {"pi": math.pi, "pi/2": math.pi / 2.0}


def _rotation(omega_vec) -> np.ndarray:
    """exp of the cross-product generator: the rotation by |w| about w, right-handed."""
    wx, wy, wz = omega_vec
    return linalg.expm(np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]]))


class BlochOracle:
    """dM/dt = 2 pi (Omega cos phi, Omega sin phi, Delta(t)) x M, from M = +z (m_S = 0)."""

    def __init__(self, g: geometry.RotorGeometry, f: geometry.FieldConfig, c: geometry.PhysicalConstants):
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

    def pulse(self, bloch: np.ndarray, event) -> np.ndarray:
        p = event.payload
        axis = np.array([math.cos(p.phase_rad), math.sin(p.phase_rad), 0.0])
        if event.duration_us == 0.0:
            # a zero-duration target pulse is its exact rotation; an explicit one does nothing
            angle = TARGET_ANGLES_RAD.get(p.target)
            return bloch if angle is None else _rotation(angle * axis) @ bloch
        drive = TWO_PI * p.rabi_freq_mhz * axis

        def rhs(t_us, m):
            return np.cross(drive + (0.0, 0.0, TWO_PI * self.detuning_mhz(t_us)), m)

        sol = integrate.solve_ivp(
            rhs, (event.start_us, event.end_us), bloch, method="DOP853", rtol=1e-12, atol=1e-13
        )
        return sol.y[:, -1]

    def run(self, events) -> np.ndarray:
        """Final Bloch vector after ``events`` (TimelineEvent), taken in time order."""
        bloch, t = np.array([0.0, 0.0, 1.0]), 0.0
        for ev in sorted(events, key=lambda e: (e.start_us, e.channel)):
            bloch = self.precess(bloch, t, ev.start_us)
            if ev.channel == "mw":
                bloch = self.pulse(bloch, ev)
            else:  # the laser window is free precession for the coherent state
                bloch = self.precess(bloch, ev.start_us, ev.end_us)
            t = ev.end_us
        return bloch
