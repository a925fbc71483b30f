"""Rigid-rotor kinematics and magnetic-field projections for an off-axis NV centre.

The diamond spins about the lab z axis.  An NV centre sitting ``r_nv`` microns
off-axis executes circular motion while its symmetry axis sweeps a cone of
half-angle ``theta_nv`` about z.  A static bias field tilted by ``theta_b``
from z then projects onto the moving NV axis with a DC part and an AC part
oscillating at the rotation frequency; the AC part is what a spin-echo
measurement in the rotating frame picks up.

Conventions: angles enter in degrees and are converted to radians once at
construction, times are seconds, fields gauss, distances micrometres.  All
operations are pure functions of the frozen sections of :mod:`config` and
are safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:  # config imports this module
    from .config import FieldConfig, PhysicalConstants, RotorGeometry

TWO_PI = 2.0 * math.pi
# How far the norm of a unit vector (FieldConfig.mw_dir) may be from 1.
UNIT_TOLERANCE = 1e-12


def unit(v) -> tuple[float, float, float]:
    """Normalise a 3-vector to unit length, returned as a tuple.

    One already within UNIT_TOLERANCE of it is kept: dividing again could move its last bits.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"expected a 3-vector, got shape {arr.shape}")
    n = float(np.linalg.norm(arr))
    if not math.isfinite(n) or n == 0.0:
        raise ValidationError("cannot normalise a zero or non-finite vector")
    x, y, z = (arr if abs(n - 1.0) <= UNIT_TOLERANCE else arr / n).tolist()
    return (x, y, z)


def nv_position(g: RotorGeometry, t_s) -> np.ndarray:
    """Lab-frame NV position in um at time ``t_s`` (seconds).

    Returns shape (3,) for scalar time or (..., 3) for array input.  The NV
    orbits in the z = 0 plane at radius ``r_nv_um``.
    """
    t = np.asarray(t_s, dtype=float)
    ang = TWO_PI * g.f_rot_hz * t + g.phi_pos0_rad
    return np.stack(
        [g.r_nv_um * np.cos(ang), g.r_nv_um * np.sin(ang), np.zeros_like(ang)],
        axis=-1,
    )


def nv_axis(g: RotorGeometry, t_s) -> np.ndarray:
    """Unit vector along the NV symmetry axis at time ``t_s`` (seconds)."""
    t = np.asarray(t_s, dtype=float)
    ang = TWO_PI * g.f_rot_hz * t + g.phi_nv0_rad
    s, c = math.sin(g.theta_nv_rad), math.cos(g.theta_nv_rad)
    return np.stack(
        [s * np.cos(ang), s * np.sin(ang), c * np.ones_like(ang)],
        axis=-1,
    )


def bias_field_vector(f: FieldConfig) -> np.ndarray:
    """Static bias field as a lab-frame vector in gauss."""
    s, c = math.sin(f.theta_b_rad), math.cos(f.theta_b_rad)
    return f.b0_gauss * np.array(
        [s * math.cos(f.phi_b_rad), s * math.sin(f.phi_b_rad), c]
    )


def fringe_phase_offset(g: RotorGeometry, f: FieldConfig) -> float:
    """Phase of the AC field at the trigger edge, phi_nv0 - phi_b, in radians."""
    return g.phi_nv0_rad - f.phi_b_rad


def eac_amplitude(g: RotorGeometry, f: FieldConfig) -> float:
    """Amplitude of the rotation-induced AC field, B0 sin(theta_nv) sin(theta_b), in gauss."""
    return f.b0_gauss * math.sin(g.theta_nv_rad) * math.sin(f.theta_b_rad)


def effective_field(g: RotorGeometry, f: FieldConfig, t_s):
    """AC part of the bias-field projection onto the NV axis, in gauss.

    Equal to the full projection nv_axis(t) . B minus its DC part
    B0 cos(theta_nv) cos(theta_b); oscillates at the rotation frequency.
    """
    t = np.asarray(t_s, dtype=float)
    phase = TWO_PI * g.f_rot_hz * t + fringe_phase_offset(g, f)
    out = eac_amplitude(g, f) * np.cos(phase)
    return float(out) if np.isscalar(t_s) else out


def zeeman_projection(g: RotorGeometry, f: FieldConfig, c: PhysicalConstants, t_s):
    """Full Zeeman projection gamma_e * (nv_axis(t) . B) in MHz, DC part included."""
    proj = nv_axis(g, t_s) @ bias_field_vector(f)
    out = c.gamma_e_mhz_per_g * proj
    return float(out) if np.isscalar(t_s) else out


def mw_coupling(g: RotorGeometry, f: FieldConfig, t_s):
    """Relative transverse microwave amplitude |nv_axis(t) x mw_dir|, at most 1.

    The cross-product magnitude modulates the achievable Rabi frequency as
    the diamond rotates; pulse calibration tables are built from it.
    """
    n = nv_axis(g, t_s)
    cross = np.cross(n, f.mw_dir_vec)
    out = np.linalg.norm(cross, axis=-1)
    return float(out) if np.isscalar(t_s) else out
