"""Rigid-rotor kinematics and magnetic-field projections for an off-axis NV centre.

The diamond spins about the lab z axis.  An NV centre sitting ``r_nv`` microns
off-axis executes circular motion while its symmetry axis sweeps a cone of
half-angle ``theta_nv`` about z.  A static bias field tilted by ``theta_b``
from z then projects onto the moving NV axis with a DC part and an AC part
oscillating at the rotation frequency; the AC part is what a spin-echo
measurement in the rotating frame picks up.

Conventions: angles enter in degrees and are converted to radians once at
construction, times are seconds, fields gauss, distances micrometres.  All
operations are pure functions of frozen dataclasses and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

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


@dataclass(frozen=True)
class PhysicalConstants:
    """Spin constants: the electron and carbon-13 gyromagnetic ratios."""

    gamma_e_mhz_per_g: float = 2.802
    gamma_c13_khz_per_g: float = 1.075

    def __post_init__(self):
        for name in ("gamma_e_mhz_per_g", "gamma_c13_khz_per_g"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class RotorGeometry:
    """Rotation frequency plus NV orbit radius, axis tilt and trigger-time azimuths.

    ``phi_nv0_deg`` is the azimuth of the NV symmetry axis at the trigger
    edge; ``phi_pos0_deg`` is the azimuth of the NV *position* on its orbit
    at the same instant.  The two are independent so that imaging and
    spin-projection phases can be set separately.
    """

    f_rot_hz: float = 3333.33
    r_nv_um: float = 10.0
    theta_nv_deg: float = 54.7
    phi_nv0_deg: float = 0.0
    phi_pos0_deg: float = 0.0

    def __post_init__(self):
        if not (self.f_rot_hz > 0 and math.isfinite(TWO_PI * self.f_rot_hz)):
            raise ValidationError("f_rot_hz must be positive, with a finite angular frequency 2 pi f_rot_hz")
        if self.r_nv_um < 0:
            raise ValidationError("r_nv_um must be non-negative")
        if not 0.0 <= self.theta_nv_deg <= 180.0:
            raise ValidationError("theta_nv_deg must lie in [0, 180]")

    @property
    def t_rot_s(self) -> float:
        return 1.0 / self.f_rot_hz

    @property
    def t_rot_us(self) -> float:
        return 1e6 / self.f_rot_hz

    @cached_property
    def theta_nv_rad(self) -> float:
        return math.radians(self.theta_nv_deg)

    @cached_property
    def phi_nv0_rad(self) -> float:
        return math.radians(self.phi_nv0_deg)

    @cached_property
    def phi_pos0_rad(self) -> float:
        return math.radians(self.phi_pos0_deg)


@dataclass(frozen=True)
class FieldConfig:
    """Static bias field (magnitude and orientation) and microwave drive direction.

    ``mw_dir`` must be a unit vector (checked to UNIT_TOLERANCE).  The drive
    strength is ``protocol.base_rabi_mhz``: the calibration scales the
    coupling of :func:`mw_coupling` to it.
    """

    b0_gauss: float = 6.2
    theta_b_deg: float = 0.0
    phi_b_deg: float = 0.0
    mw_dir: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if self.b0_gauss < 0:
            raise ValidationError("b0_gauss must be non-negative")
        vec = np.asarray(self.mw_dir, dtype=float)
        if vec.shape != (3,):
            raise ValidationError(f"mw_dir must be a 3-vector, got shape {vec.shape}")
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= UNIT_TOLERANCE:  # a NaN norm fails too
            raise ValidationError(
                f"mw_dir must be a unit vector (|mw_dir| = {norm!r}); use geometry.unit()"
            )

    @cached_property
    def theta_b_rad(self) -> float:
        return math.radians(self.theta_b_deg)

    @cached_property
    def phi_b_rad(self) -> float:
        return math.radians(self.phi_b_deg)

    @cached_property
    def mw_dir_vec(self) -> np.ndarray:
        return np.array(self.mw_dir, dtype=float)


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
