"""Experiment configuration: one JSON document with units spelled out in key names.

Unit bugs are the dominant failure mode in this domain, so every numeric key
carries its unit (``f_rot_hz``, ``b0_gauss``, ``t_pulse_us``).  Missing
sections or keys take the documented defaults; unknown keys are rejected so
typos cannot silently disable themselves.  The default parameter set mirrors
the experimental operating point: 3.33 kHz rotation, 6.2 G bias along z,
NV axis at 54.7 deg and 10 um off-axis, 2 us strobes, 1e5 counts/s peak.

The seven sections are defined here, each a frozen dataclass whose ranges
are checked by one helper; the physics modules take them as arguments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .errors import ValidationError
from .geometry import TWO_PI, UNIT_TOLERANCE, unit


# The Rabi calibration table holds a few arrays of this length.
MAX_CAL_ANGLES = 1_000_000
# Largest strobe.jitter_frac: the render's period draws and strobed arc,
# jitter times the widest orbit it takes (1e150 um), stay within the float range.
MAX_JITTER_FRAC = 1e150
# How the detected rate weights the beam profile (BeamProfile.collection_mode).
COLLECTION_MODES = ("illumination-only", "confocal-squared")


def check_ranges(section, positive=(), non_negative=(), within=None, finite=()) -> None:
    """Refuse the first field outside its range, naming it; ``within`` maps a field to (lo, hi).

    Every test reads ``not (in range)``, so NaN lies outside every range.
    No field may be infinite, or an integer beyond the float range: no
    setting gives infinity a meaning, and the config loader relies on this
    check to refuse both.  A one-sided range refuses +inf after its range
    test; ``finite`` names the fields with no range.
    """
    for name in positive:
        if not getattr(section, name) > 0:
            raise ValidationError(f"{name} must be positive")
    for name in non_negative:
        if not getattr(section, name) >= 0:
            raise ValidationError(f"{name} must be non-negative")
    for name, (lo, hi) in (within or {}).items():
        if not lo <= getattr(section, name) <= hi:
            raise ValidationError(f"{name} must lie in [{lo}, {hi}]")
    for name in (*positive, *non_negative, *finite):
        if not abs(getattr(section, name)) <= sys.float_info.max:  # exact for ints of any size
            raise ValidationError(f"{name} must be finite")


def check_f_rot_hz(f_rot_hz: float) -> None:
    """Refuse a rotation frequency whose period or angular frequency is not a finite normal float.

    The period 1e6 / f_rot_hz us overflows below ~5.6e-303 Hz, the rad/us
    frequency 2 pi f_rot_hz 1e-6 is subnormal below ~3.5e-303 Hz, and the
    deg/s frequency 360 f_rot_hz, which the pulse angles start from,
    overflows above ~5.0e305 Hz; the smaller rad/s frequency 2 pi f_rot_hz
    is finite wherever it is.
    """
    if abs(f_rot_hz) > sys.float_info.max:  # exact for ints of any size
        raise ValidationError("f_rot_hz must be finite")
    if f_rot_hz > 0:
        derived = (1e6 / f_rot_hz, TWO_PI * f_rot_hz * 1e-6, 360.0 * f_rot_hz)
        if all(sys.float_info.min <= x < math.inf for x in derived):
            return
    raise ValidationError(
        "f_rot_hz must be positive, with a period (1e6 / f_rot_hz us) and angular frequencies (2 pi f_rot_hz "
        "per us, 360 f_rot_hz deg per s) that are finite normal floats: set geometry.f_rot_hz within "
        f"[5.6e-303, 4.9e305] Hz, got {f_rot_hz!r}"
    )


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
        check_f_rot_hz(self.f_rot_hz)
        check_ranges(self, non_negative=("r_nv_um",), within={"theta_nv_deg": (0, 180)},
                     finite=("phi_nv0_deg", "phi_pos0_deg"))

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
    coupling of :func:`geometry.mw_coupling` to it.
    """

    b0_gauss: float = 6.2
    theta_b_deg: float = 0.0
    phi_b_deg: float = 0.0
    mw_dir: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        check_ranges(self, non_negative=("b0_gauss",), finite=("theta_b_deg", "phi_b_deg"))
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


@dataclass(frozen=True)
class PhysicalConstants:
    """Spin constants: the electron and carbon-13 gyromagnetic ratios."""

    gamma_e_mhz_per_g: float = 2.802
    gamma_c13_khz_per_g: float = 1.075

    def __post_init__(self):
        check_ranges(self, positive=("gamma_e_mhz_per_g", "gamma_c13_khz_per_g"))


@dataclass(frozen=True)
class BeamProfile:
    """Gaussian focus: 1/e^2 diameter, stationary peak count rate, collection weighting."""

    waist_diameter_1e2_um: float = 0.6
    peak_counts_stationary_cps: float = 1e5
    collection_mode: str = "confocal-squared"
    background_cps: float = 0.0

    def __post_init__(self):
        check_ranges(self, positive=("waist_diameter_1e2_um",),
                     non_negative=("peak_counts_stationary_cps", "background_cps"))
        if self.collection_mode not in COLLECTION_MODES:
            raise ValidationError(
                f"collection_mode must be one of {COLLECTION_MODES}, got {self.collection_mode!r}"
            )

    @property
    def waist_radius_um(self) -> float:
        return self.waist_diameter_1e2_um / 2.0


@dataclass(frozen=True)
class RateModel:
    """Optical rates (1/us) of the five-level scheme and the peak pump rate."""

    pump_rate_peak_per_us: float = 120.0
    radiative_rate_per_us: float = 1000.0 / 12.0
    isc_rate_e1_per_us: float = 80.0
    isc_rate_e0_per_us: float = 8.0
    singlet_decay_per_us: float = 1000.0 / 220.0
    singlet_branching_to_g0: float = 0.8

    def __post_init__(self):
        check_ranges(self, non_negative=(
            "pump_rate_peak_per_us", "radiative_rate_per_us", "isc_rate_e1_per_us",
            "isc_rate_e0_per_us", "singlet_decay_per_us",
        ), within={"singlet_branching_to_g0": (0, 1)})


@dataclass(frozen=True)
class StrobeConfig:
    """Trigger-to-laser delay, strobe length and the two blur magnitudes.

    ``jitter_frac`` is the relative standard deviation of the rotation
    period (i.i.d. per cycle); ``wobble_amp_um`` is the per-cycle standard
    deviation of the rotation-centre displacement, the default calibrated
    to reproduce a 0.9 um rotating spot width on top of a 0.3 um point
    response.
    """

    t_phi_us: float = 150.0
    t_pulse_us: float = 2.0
    jitter_frac: float = 0.004
    wobble_amp_um: float = 0.4243

    def __post_init__(self):
        check_ranges(self, non_negative=("t_pulse_us", "jitter_frac", "wobble_amp_um", "t_phi_us"),
                     within={"jitter_frac": (0, MAX_JITTER_FRAC)})


@dataclass(frozen=True)
class ProtocolConfig:
    """Measurement-protocol knobs shared by the simulation subcommands."""

    base_rabi_mhz: float = 3.6
    n_cal_angles: int = 64
    turn_on_offset_us: float = -0.25
    readout_window_us: float = 1.0
    bin_width_us: float = 0.05
    shots_per_point: int = 187_500
    t2_us: float = 350.0
    envelope_exponent: float = 4.0
    max_image_pixels: int = 250_000

    def __post_init__(self):
        check_ranges(self, positive=(
            "base_rabi_mhz", "shots_per_point", "readout_window_us", "bin_width_us",
            "t2_us", "envelope_exponent", "max_image_pixels",
        ), within={"n_cal_angles": (1, MAX_CAL_ANGLES)}, finite=("turn_on_offset_us",))


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: RotorGeometry = field(default_factory=lambda: RotorGeometry(phi_nv0_deg=90.0))
    field_cfg: FieldConfig = field(default_factory=FieldConfig)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    beam: BeamProfile = field(default_factory=BeamProfile)
    rates: RateModel = field(default_factory=RateModel)
    strobe: StrobeConfig = field(default_factory=StrobeConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    seed: int = 1

    def __post_init__(self):
        if self.protocol.readout_window_us > self.strobe.t_pulse_us:
            raise ValidationError(
                f"protocol.readout_window_us = {self.protocol.readout_window_us} exceeds "
                f"strobe.t_pulse_us = {self.strobe.t_pulse_us}: the readout window must fit "
                "inside the strobe pulse"
            )
        if not self.strobe_angle_rad < math.inf:
            raise ValidationError(
                f"strobe.t_phi_us = {self.strobe.t_phi_us:g} at geometry.f_rot_hz = {self.geometry.f_rot_hz:g} "
                "turns the rotor by an angle (2 pi f_rot_hz t_phi_us) beyond the float range; lower "
                "strobe.t_phi_us or geometry.f_rot_hz"
            )

    @property
    def strobe_angle_rad(self) -> float:
        """Rotor angle swept from the trigger edge to the strobe, 2 pi f_rot_hz t_phi_us."""
        return 2.0 * math.pi * self.geometry.f_rot_hz * self.strobe.t_phi_us * 1e-6

    def to_dict(self) -> dict:
        """A fresh dict per call, each section's fields copied (their values are immutable)."""
        out: dict[str, Any] = {}
        for name, (attr, cls) in _SECTIONS.items():
            section = getattr(self, attr)
            out[name] = {f.name: getattr(section, f.name) for f in dataclasses.fields(cls)}
        out["seed"] = self.seed
        return out

    def dump_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def sha256(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


# JSON section name -> (ExperimentConfig attribute, section class)
_SECTIONS = {
    "geometry": ("geometry", RotorGeometry),
    "field": ("field_cfg", FieldConfig),
    "constants": ("constants", PhysicalConstants),
    "beam": ("beam", BeamProfile),
    "rates": ("rates", RateModel),
    "strobe": ("strobe", StrobeConfig),
    "protocol": ("protocol", ProtocolConfig),
}


def _check_number_type(name: str, val, default) -> None:
    """Refuse a bool, or a non-integer where the default is an int.

    A bool is an int to Python, and a float in an int field would reach
    range() or a shot count as a fraction.  A vector field (a tuple
    default) must be a list whose elements pass the same check.
    """
    if isinstance(default, tuple):
        if not isinstance(val, (list, tuple)):
            raise ValidationError(f"{name}: {val!r} is not a list of numbers")
        for v in val:
            _check_number_type(name, v, default[0])
        return
    kind = type(default)
    if kind not in (int, float):
        return
    if isinstance(val, bool) or not isinstance(val, int if kind is int else (int, float)):
        expected = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name}: {val!r} is not {expected}")


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValidationError(f"{path}: unknown key(s) {sorted(unknown)}; known keys: {sorted(defaults)}")
    for key, val in data.items():
        _check_number_type(f"{path}.{key}", val, defaults[key])
    # tuples arrive as lists from JSON
    kwargs = {key: tuple(val) if isinstance(val, list) else val for key, val in data.items()}
    if cls is FieldConfig and "mw_dir" in kwargs:
        try:
            # exact for ints of any size: unit() cannot convert one beyond the float range
            if not all(abs(v) <= sys.float_info.max for v in kwargs["mw_dir"]):
                raise ValidationError("an element is not a finite number")
            kwargs["mw_dir"] = unit(kwargs["mw_dir"])
        except ValidationError as exc:
            raise ValidationError(f"{path}.mw_dir: {exc}") from exc
    try:
        return cls(**kwargs)
    except ValidationError as exc:  # every section refusal starts with its field's name
        raise ValidationError(f"{path}.{exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValidationError("configuration root must be an object")
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ValidationError(f"unknown configuration section(s): {sorted(unknown)}")
    sections = {
        attr: _build_section(cls, data[name], name)
        for name, (attr, cls) in _SECTIONS.items()
        if name in data
    }
    seed = data.get("seed", ExperimentConfig.seed)
    _check_number_type("seed", seed, ExperimentConfig.seed)
    if seed < 0:  # numpy's generators take any non-negative integer
        raise ValidationError(f"seed (--seed) must be a non-negative integer, got {seed}")
    return ExperimentConfig(**sections, seed=seed)


# The OS errors of a path given wrongly: missing, a directory, a file taken
# for a directory, or no access.  Any other (EIO, a full disk) is a runtime failure.
PATH_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


def read_text(path: str, flag: str, stdin: bool = False) -> str:
    """The UTF-8 text of the user file ``path``; with ``stdin``, '-' is standard input.

    Every user file is read here: the config, a dataset and a sequence
    program.  A path that cannot be read, or bytes that are no UTF-8 text
    (standard input's too), are refused naming ``flag`` and the path.
    """
    try:
        if stdin and path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except PATH_ERRORS as exc:
        raise ValidationError(f"{flag} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise ValidationError(f"{flag} {path}: {reason}") from exc


def load_config(path: str, flag: str = "--config") -> ExperimentConfig:
    """The configuration in the JSON file ``path``, given by ``flag``."""
    try:
        data = json.loads(read_text(path, flag))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``section.key=value`` command-line overrides to a configuration."""
    data = cfg.to_dict()
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} must look like section.key=value")
        key_path, _, raw = item.partition("=")
        parts = key_path.strip().split(".")
        raw = raw.strip()
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings (e.g. collection modes)
        node = data
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ValidationError(f"override {item!r}: unknown section {part!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ValidationError(f"override {item!r}: unknown key {parts[-1]!r}")
        node[parts[-1]] = value
    return config_from_dict(data)
