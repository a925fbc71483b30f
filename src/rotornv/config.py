"""Experiment configuration: one JSON document with units spelled out in key names.

Unit bugs are the dominant failure mode in this domain, so every numeric key
carries its unit (``f_rot_hz``, ``b0_gauss``, ``t_pulse_us``).  Missing
sections or keys take the documented defaults; unknown keys are rejected so
typos cannot silently disable themselves.  The default parameter set mirrors
the experimental operating point: 3.33 kHz rotation, 6.2 G bias along z,
NV axis at 54.7 deg and 10 um off-axis, 2 us strobes, 1e5 counts/s peak.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ValidationError
from .geometry import FieldConfig, PhysicalConstants, RotorGeometry, unit
from .imaging import StrobeConfig
from .photophysics import BeamProfile, RateModel


# The Rabi calibration table holds a few arrays of this length.
MAX_CAL_ANGLES = 1_000_000


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
        if not self.base_rabi_mhz > 0:
            raise ValidationError("base_rabi_mhz must be positive")
        if not 1 <= self.n_cal_angles <= MAX_CAL_ANGLES:
            raise ValidationError(f"n_cal_angles must lie in [1, {MAX_CAL_ANGLES}]")
        if self.shots_per_point < 1:
            raise ValidationError("shots_per_point must be >= 1")
        if not self.readout_window_us > 0:
            raise ValidationError("readout_window_us must be positive")
        if not self.bin_width_us > 0:
            raise ValidationError("bin_width_us must be positive")


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
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(
            f"{path}: unknown key(s) {sorted(unknown)}; known keys: {sorted(known)}"
        )
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, val in data.items():
        _check_number_type(f"{path}.{key}", val, defaults[key])
        items = val if isinstance(val, (list, tuple)) else [val]
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ValidationError(f"{path}.{key}: {val!r} is not a finite number")
    kwargs = dict(data)
    if cls is FieldConfig and "mw_dir" in kwargs:
        try:
            kwargs["mw_dir"] = unit(kwargs["mw_dir"])
        except ValidationError as exc:
            raise ValidationError(f"{path}.mw_dir: {exc}") from exc
    # tuples arrive as lists from JSON
    for key, val in list(kwargs.items()):
        if isinstance(val, list):
            kwargs[key] = tuple(val)
    try:
        return cls(**kwargs)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


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
    return ExperimentConfig(**sections, seed=seed)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
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
