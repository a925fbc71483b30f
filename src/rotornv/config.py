"""Experiment configuration: one JSON document with units spelled out in key names.

Unit bugs are the dominant failure mode in this domain, so every numeric key
carries its unit (``f_rot_hz``, ``b0_gauss``, ``t_pulse_us``).  Missing
sections or keys take the documented defaults; unknown keys are rejected so
typos cannot silently disable themselves.  The default parameter set mirrors
the experimental operating point: 3.33 kHz rotation, 6.2 G bias along z,
NV axis at 54.7 deg and 10 um off-axis, 2 us strobes, 1e5 counts/s peak.

The seven sections are defined here, each a frozen dataclass; the physics
modules take them as arguments.  Every numeric input has one closed range,
with its reason, in one table: ``DOMAINS``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from .errors import ValidationError
from .geometry import UNIT_TOLERANCE, unit


# How the detected rate weights the beam profile (BeamProfile.collection_mode).
COLLECTION_MODES = ("illumination-only", "confocal-squared")


class Domain(NamedTuple):
    """One input's closed range [lo, hi] in ``unit``, why, and the command-line flag that sets it too."""

    lo: float
    hi: float
    unit: str
    why: str
    flag: str = ""


# Times span at most the rotation period at the slowest rotation (1 mHz), us;
# orbits, emitters and wobbles reach 10 cm, wider than any rotor, um; a raster
# ten times as far, so that the default window around any spot fits.
_LONGEST_US, _LONGEST_UM, _RASTER_UM = 1e9, 1e5, 1e6
_AZIMUTH = Domain(-360.0, 360.0, "deg", "an azimuth, up to a turn either way")
_POLAR = Domain(0.0, 180.0, "deg", "a polar angle")
_RATE = Domain(0.0, 1e9, "1/us", "up to one per femtosecond, beyond any optical rate")
_LIFETIME = Domain(1e-3, 1e9, "1/us", "a lifetime of 1 fs to 1 ms; the counts follow its steady state's emission")
_PERIOD = Domain(0.0, _LONGEST_US, "us", "up to the longest rotation period")
_SPAN = Domain(1e-9, _LONGEST_US, "us", "a femtosecond up to the longest rotation period")
_COUNT_RATE = Domain(0.0, 1e9, "counts/s", "ten times the most an NV emits (83 per us)")
_DAMPING = Domain(1e-300, 1e300, "", "float range: the damping exp(-(tau / T2)^p) is taken overflow-safe")
_RASTER = Domain(-_RASTER_UM, _RASTER_UM, "um", "ten times the farthest emitter, either way")
# Every numeric input's one range: each numeric field of the seven config
# sections, the echo fringe model's own two (spindyn.EchoParams), and the
# command-line quantities that have no config key.  A flag that sets a config
# quantity takes that key's row: --shots, an emitter's brightness and
# compile-seq's --t-phi (the strobe delay).  A refusal names the key
# (and its flag), the value and the range.  Since every bound is finite, no
# input is infinite or NaN, or an integer beyond the float range.
DOMAINS = {
    "geometry.f_rot_hz": Domain(1e-3, 1e6, "Hz", "one turn in 17 min up to 300 times the paper's 3.33 kHz"),
    "geometry.r_nv_um": Domain(0.0, _LONGEST_UM, "um", "from the rotation axis out to 10 cm"),
    "geometry.theta_nv_deg": _POLAR,
    "geometry.phi_nv0_deg": _AZIMUTH,
    "geometry.phi_pos0_deg": _AZIMUTH,
    "field.b0_gauss": Domain(1e-3, 1e5, "G", "a bias splitting m_S = +-1, with a finite 13C revival, up to 10 T"),
    "field.theta_b_deg": _POLAR,
    "field.phi_b_deg": _AZIMUTH,
    "field.mw_dir": Domain(-1e100, 1e100, "", "a direction, normalised on load, whose squares overflow beyond"),
    "constants.gamma_e_mhz_per_g": Domain(1e-3, 1e3, "MHz/G", "three decades either side of the electron's 2.80"),
    "constants.gamma_c13_khz_per_g": Domain(1e-3, 1e3, "kHz/G", "three decades either side of 13C's 1.07"),
    "beam.waist_diameter_1e2_um": Domain(1e-3, 1e3, "um", "a nanometre to a millimetre focus"),
    "beam.peak_counts_stationary_cps": _COUNT_RATE,
    "beam.background_cps": _COUNT_RATE,
    "rates.pump_rate_peak_per_us": _RATE,
    "rates.radiative_rate_per_us": _LIFETIME,
    "rates.isc_rate_e1_per_us": _RATE,
    "rates.isc_rate_e0_per_us": _RATE,
    "rates.singlet_decay_per_us": _LIFETIME,
    "rates.singlet_branching_to_g0": Domain(0.0, 1.0, "", "a branching ratio"),
    "strobe.t_phi_us": _PERIOD,
    "strobe.t_pulse_us": _PERIOD,
    "strobe.jitter_frac": Domain(0.0, 1.0, "", "a relative spread of the period, at most the period itself"),
    "strobe.wobble_amp_um": Domain(0.0, _LONGEST_UM, "um", "up to 10 cm, as the orbit"),
    "protocol.base_rabi_mhz": Domain(1e-6, 1e3, "MHz", "a 1 Hz to 1 GHz drive, below the 2.87 GHz splitting"),
    "protocol.n_cal_angles": Domain(1, 1_000_000, "", "memory: the calibration holds a few arrays this long"),
    "protocol.turn_on_offset_us": Domain(-_LONGEST_US, _LONGEST_US, "us", "up to the longest period either way"),
    "protocol.readout_window_us": _SPAN,
    "protocol.bin_width_us": _SPAN,
    "protocol.shots_per_point": Domain(1, 1e12, "", "up to ten years of shots at 3.33 kHz", "--shots"),
    "protocol.t2_us": _DAMPING._replace(unit="us"),
    "protocol.envelope_exponent": _DAMPING,
    "protocol.max_image_pixels": Domain(1, 100_000_000, "", "memory: a render holds a few arrays this long"),
    # the echo fringe model's own fields
    "echo.b_perp_gauss": Domain(0.0, 1e5, "G", "the AC amplitude, at most field.b0_gauss"),
    "echo.phi0_rad": Domain(-4.0 * math.pi, 4.0 * math.pi, "rad", "phi_nv0 - phi_b, each a turn either way"),
    # command-line quantities with no config key
    "tau_us": _PERIOD._replace(flag="--tau"),
    "durations_us": _PERIOD._replace(flag="--durations"),
    "dwell_ms": Domain(1e-9, 1e9, "ms", "a picosecond (one strobe at least) to 11 days", "--dwell-ms"),
    "step_um": Domain(1e-9, _LONGEST_UM, "um", "a femtometre up to 10 cm", "--step"),
    "x_range_um": _RASTER._replace(flag="--x-min, --x-max"),
    "y_range_um": _RASTER._replace(flag="--y-min, --y-max"),
    "position_um": Domain(-_LONGEST_UM, _LONGEST_UM, "um", "10 cm either way, as the orbit", "--emitters"),
    "b_max": Domain(1e-9, 1e5, "G", "the fringe search's bound: a nanogauss up to echo.b_perp_gauss's top", "--b-max"),
    "max_iter": Domain(1, 10_000, "", "LM steps per start, 50 times the default: an echo fit converges in tens, "
                       "and its 10 starts of 10 000 steps take about 20 s on a 2-core host", "--max-iter"),
    # a fitted dataset's signal and sigma columns (its axis takes tau_us or durations_us)
    "signal": Domain(-1e50, 1e50, "", "a ratio or a count; with sigma's row, |signal| / sigma stays below 1e150 "
                     "and the weight 1/sigma above 1e-50 of it"),
    "sigma": Domain(1e-100, 1e100, "", "an error bar; with signal's row, a fit's chi-square, at most "
                    "2 (signal / sigma)^2, stays below 1e300"),
}


def _shown(value) -> str:
    """``value`` as a refusal prints it: an integer beyond 20 digits by its length."""
    text = str(value) if isinstance(value, int) else repr(float(value))
    return text if len(text) <= 20 else f"{text[:6]}...({len(text)} digits)"


def check_value(key: str, value, label: str | None = None) -> None:
    """Refuse ``value`` unless it lies in the DOMAINS row ``key``, named ``label`` (by default its key and flag)."""
    lo, hi, unit, _, flag = DOMAINS[key]
    if not lo <= value <= hi:  # NaN lies in no range; an int of any size compares exactly
        label = label or (f"{key} ({flag})" if flag else key)
        unit = f" {unit}" if unit else ""
        raise ValidationError(f"{label} must lie in [{lo:g}, {hi:g}]{unit}, got {_shown(value)}")


def check_values(key: str, values) -> np.ndarray:
    """The array of ``values``, refused at the first one outside the DOMAINS row ``key``."""
    values = np.asarray(values, dtype=float)
    outside = ~((values >= DOMAINS[key].lo) & (values <= DOMAINS[key].hi))
    if outside.any():
        check_value(key, values[outside].flat[0])
    return values


def check_ranges(obj, keys) -> None:
    """Refuse the first field of ``obj`` outside its domain; ``keys`` pairs each field with its DOMAINS row."""
    for name, key in keys:
        check_value(key, getattr(obj, name))


# The two rules that tie one key's range to another's, each decided here for
# every module that relies on it.
def check_window_in_pulse(window_us: float, t_pulse_us: float) -> None:
    """Refuse a readout window longer than the strobe pulse it is read from."""
    if window_us > t_pulse_us:
        raise ValidationError(
            f"protocol.readout_window_us = {window_us} exceeds strobe.t_pulse_us = {t_pulse_us}: "
            "the readout window must fit inside the strobe pulse"
        )


def check_pulse_in_rotation(t_pulse_us: float, g: RotorGeometry) -> None:
    """Refuse a strobe pulse longer than one rotation period of ``g``."""
    if t_pulse_us > g.t_rot_us:
        raise ValidationError(
            f"strobe.t_pulse_us = {t_pulse_us:g} exceeds the rotation period {g.t_rot_us:.7g} us "
            "(1e6 / geometry.f_rot_hz)"
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
        check_ranges(self, _RANGED[RotorGeometry])

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

    ``mw_dir`` must be a unit vector (checked to UNIT_TOLERANCE); the loader
    normalises the direction it is given.  The drive
    strength is ``protocol.base_rabi_mhz``: the calibration scales the
    coupling of :func:`geometry.mw_coupling` to it.
    """

    b0_gauss: float = 6.2
    theta_b_deg: float = 0.0
    phi_b_deg: float = 0.0
    mw_dir: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        check_ranges(self, _RANGED[FieldConfig])
        if len(self.mw_dir) != 3:
            raise ValidationError(f"field.mw_dir must be a 3-vector, got {len(self.mw_dir)} elements")
        for v in self.mw_dir:
            check_value("field.mw_dir", v)
        norm = float(np.linalg.norm(np.asarray(self.mw_dir, dtype=float)))
        if not abs(norm - 1.0) <= UNIT_TOLERANCE:
            raise ValidationError(
                f"field.mw_dir must be a unit vector (|mw_dir| = {norm!r}); use geometry.unit()"
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
        check_ranges(self, _RANGED[PhysicalConstants])


@dataclass(frozen=True)
class BeamProfile:
    """Gaussian focus: 1/e^2 diameter, stationary peak count rate, collection weighting."""

    waist_diameter_1e2_um: float = 0.6
    peak_counts_stationary_cps: float = 1e5
    collection_mode: str = "confocal-squared"
    background_cps: float = 0.0

    def __post_init__(self):
        check_ranges(self, _RANGED[BeamProfile])
        if self.collection_mode not in COLLECTION_MODES:
            raise ValidationError(
                f"beam.collection_mode must be one of {COLLECTION_MODES}, got {self.collection_mode!r}"
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
        check_ranges(self, _RANGED[RateModel])


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
        check_ranges(self, _RANGED[StrobeConfig])


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
        check_ranges(self, _RANGED[ProtocolConfig])


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
        check_window_in_pulse(self.protocol.readout_window_us, self.strobe.t_pulse_us)

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
# section class -> (field, DOMAINS row) of each numeric scalar field
_RANGED = {
    cls: tuple((f.name, f"{name}.{f.name}") for f in dataclasses.fields(cls) if type(f.default) in (int, float))
    for name, (_, cls) in _SECTIONS.items()
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
    # tuples arrive as lists from JSON; an int in a float field becomes the
    # float it spells, so 150 and 150.0 give one config (and one hash), while
    # an int beyond the float range stays an int for the range check to refuse
    kwargs = {
        key: tuple(val) if isinstance(val, list)
        else float(val) if type(defaults[key]) is float and abs(val) <= sys.float_info.max
        else val
        for key, val in data.items()
    }
    if cls is FieldConfig and "mw_dir" in kwargs:
        for v in kwargs["mw_dir"]:  # before unit() squares them
            check_value("field.mw_dir", v)
        try:
            kwargs["mw_dir"] = unit(kwargs["mw_dir"])
        except ValidationError as exc:
            raise ValidationError(f"{path}.mw_dir: {exc}") from exc
    return cls(**kwargs)


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
