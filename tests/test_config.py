"""Range checks of the seven config sections: NaN lies outside every range."""

import math

import pytest

from rotornv.config import (
    _SECTIONS,
    BeamProfile,
    FieldConfig,
    PhysicalConstants,
    ProtocolConfig,
    RateModel,
    RotorGeometry,
    StrobeConfig,
)
from rotornv.errors import ValidationError

# section -> every field with a range (a NaN there once reached a render's
# node count or the rate-equation SVD)
RANGED = {
    RotorGeometry: ("f_rot_hz", "r_nv_um", "theta_nv_deg"),
    FieldConfig: ("b0_gauss",),
    PhysicalConstants: ("gamma_e_mhz_per_g", "gamma_c13_khz_per_g"),
    BeamProfile: ("waist_diameter_1e2_um", "peak_counts_stationary_cps", "background_cps"),
    RateModel: (
        "pump_rate_peak_per_us",
        "radiative_rate_per_us",
        "isc_rate_e1_per_us",
        "isc_rate_e0_per_us",
        "singlet_decay_per_us",
        "singlet_branching_to_g0",
    ),
    StrobeConfig: ("t_phi_us", "t_pulse_us", "jitter_frac", "wobble_amp_um"),
    ProtocolConfig: (
        "base_rabi_mhz",
        "n_cal_angles",
        "readout_window_us",
        "bin_width_us",
        "shots_per_point",
        "t2_us",
        "envelope_exponent",
        "max_image_pixels",
    ),
}
CASES = [(cls, name) for cls, names in RANGED.items() for name in names]


def test_table_holds_every_section():
    assert set(RANGED) == {cls for _, cls in _SECTIONS.values()}


@pytest.mark.parametrize("cls, name", CASES, ids=[f"{cls.__name__}.{name}" for cls, name in CASES])
def test_nan_in_a_ranged_field_is_refused(cls, name):
    with pytest.raises(ValidationError, match=rf"^{name} must"):
        cls(**{name: math.nan})


@pytest.mark.parametrize(
    "cls, name, value, message",
    [
        (PhysicalConstants, "gamma_e_mhz_per_g", 0.0, "must be positive"),
        (RotorGeometry, "theta_nv_deg", 180.5, r"must lie in \[0, 180\]"),
        (RateModel, "singlet_branching_to_g0", -0.1, r"must lie in \[0, 1\]"),
        (StrobeConfig, "t_phi_us", -1.0, "must be non-negative"),
        (ProtocolConfig, "n_cal_angles", 0, r"must lie in \[1, 1000000\]"),
        (ProtocolConfig, "shots_per_point", 0, "must be positive"),
    ],
)
def test_out_of_range_value_names_field_and_range(cls, name, value, message):
    with pytest.raises(ValidationError, match=rf"^{name} {message}$"):
        cls(**{name: value})


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (RotorGeometry, "theta_nv_deg", 0.0),
        (RotorGeometry, "theta_nv_deg", 180.0),
        (RateModel, "singlet_branching_to_g0", 1.0),
        (ProtocolConfig, "n_cal_angles", 1),
    ],
)
def test_interval_ends_are_accepted(cls, name, value):
    assert getattr(cls(**{name: value}), name) == value


# section -> every numeric field with no range: any finite value is valid
UNRANGED = {
    RotorGeometry: ("phi_nv0_deg", "phi_pos0_deg"),
    FieldConfig: ("theta_b_deg", "phi_b_deg"),
    ProtocolConfig: ("turn_on_offset_us",),
}
UNRANGED_CASES = [(cls, name) for cls, names in UNRANGED.items() for name in names]


# an integer beyond the float range converts to no finite float: it once
# reached the physics as "int too large to convert to float" (exit 3)
BEYOND_FLOATS = 10**400


@pytest.mark.parametrize("value", [math.inf, -math.inf, BEYOND_FLOATS, -BEYOND_FLOATS],
                         ids=["inf", "-inf", "int-beyond-floats", "-int-beyond-floats"])
@pytest.mark.parametrize("cls, name", CASES, ids=[f"{cls.__name__}.{name}" for cls, name in CASES])
def test_infinity_in_a_ranged_field_is_refused(cls, name, value):
    # StrobeConfig(jitter_frac=inf) once reached a render as "cannot convert
    # float NaN to integer", and t_phi_us=inf as an OverflowError
    with pytest.raises(ValidationError, match=rf"^{name} must"):
        cls(**{name: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, BEYOND_FLOATS, -BEYOND_FLOATS],
                         ids=["inf", "-inf", "nan", "int-beyond-floats", "-int-beyond-floats"])
@pytest.mark.parametrize(
    "cls, name", UNRANGED_CASES, ids=[f"{cls.__name__}.{name}" for cls, name in UNRANGED_CASES]
)
def test_non_finite_value_in_an_unranged_field_is_refused(cls, name, value):
    with pytest.raises(ValidationError, match=rf"^{name} must be finite$"):
        cls(**{name: value})

