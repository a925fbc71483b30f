"""Range checks of the seven config sections: every numeric field has one domain, and NaN lies outside it."""

import math

import pytest

from rotornv.config import (
    _RANGED,
    _SECTIONS,
    DOMAINS,
    apply_overrides,
    config_from_dict,
    PhysicalConstants,
    ProtocolConfig,
    RateModel,
    RotorGeometry,
    StrobeConfig,
)
from rotornv.errors import ValidationError

# JSON section name of each section class
SECTION_OF = {cls: name for name, (_, cls) in _SECTIONS.items()}
# every numeric field of every section (a NaN there once reached a render's
# node count or the rate-equation SVD)
CASES = [(cls, name) for cls, fields in _RANGED.items() for name, _ in fields]
IDS = [f"{cls.__name__}.{name}" for cls, name in CASES]


def test_table_holds_every_section():
    assert set(_RANGED) == {cls for _, cls in _SECTIONS.values()}
    assert len(CASES) == 32


def test_every_row_is_a_finite_closed_range_with_a_reason():
    for key, row in DOMAINS.items():
        assert -math.inf < row.lo <= row.hi < math.inf, key
        assert row.why and "\n" not in row.why, key


@pytest.mark.parametrize("cls, name", CASES, ids=IDS)
def test_nan_in_a_ranged_field_is_refused(cls, name):
    with pytest.raises(ValidationError, match=rf"^{SECTION_OF[cls]}\.{name}( \(--\S+\))? must lie in \[.*, got nan$"):
        cls(**{name: math.nan})


@pytest.mark.parametrize(
    "cls, name, value, message",
    [
        (PhysicalConstants, "gamma_e_mhz_per_g", 0.0, r"must lie in \[0\.001, 1000\] MHz/G, got 0\.0"),
        (RotorGeometry, "theta_nv_deg", 180.5, r"must lie in \[0, 180\] deg, got 180\.5"),
        (RateModel, "singlet_branching_to_g0", -0.1, r"must lie in \[0, 1\], got -0\.1"),
        (StrobeConfig, "t_phi_us", -1.0, r"must lie in \[0, 1e\+09\] us, got -1\.0"),
        (ProtocolConfig, "n_cal_angles", 0, r"must lie in \[1, 1e\+06\], got 0"),
        (ProtocolConfig, "shots_per_point", 0, r"\(--shots\) must lie in \[1, 1e\+12\], got 0"),
    ],
)
def test_out_of_range_value_names_field_and_range(cls, name, value, message):
    with pytest.raises(ValidationError, match=rf"^{SECTION_OF[cls]}\.{name} {message}$"):
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


@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("cls, name", CASES, ids=IDS)
def test_every_domain_edge_is_accepted(cls, name, end):
    value = getattr(DOMAINS[f"{SECTION_OF[cls]}.{name}"], end)
    assert getattr(cls(**{name: value}), name) == value


# an integer beyond the float range converts to no finite float: it once
# reached the physics as "int too large to convert to float" (exit 3)
BEYOND_FLOATS = 10**400


@pytest.mark.parametrize("value", [math.inf, -math.inf, BEYOND_FLOATS, -BEYOND_FLOATS],
                         ids=["inf", "-inf", "int-beyond-floats", "-int-beyond-floats"])
@pytest.mark.parametrize("cls, name", CASES, ids=IDS)
def test_infinity_in_a_ranged_field_is_refused(cls, name, value):
    # StrobeConfig(jitter_frac=inf) once reached a render as "cannot convert
    # float NaN to integer", and t_phi_us=inf as an OverflowError; the angles
    # and the turn-on offset once took any finite value
    with pytest.raises(ValidationError, match=rf"^{SECTION_OF[cls]}\.{name}( \(--\S+\))? must lie in \["):
        cls(**{name: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, BEYOND_FLOATS],
                         ids=["inf", "-inf", "nan", "int-beyond-floats"])
@pytest.mark.parametrize("cls, name", CASES, ids=IDS)
def test_loader_refuses_a_non_finite_value_naming_the_dotted_key(cls, name, value):
    # the section's own range check refuses it (an integer field's type check a float)
    section = SECTION_OF[cls]
    with pytest.raises(ValidationError, match=rf"^{section}\.{name}\b"):
        config_from_dict({section: {name: value}})


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("strobe", "jitter_frac", -1, r"must lie in \[0, 1\], got -1"),  # once "strobe: jitter_frac ..."
        ("geometry", "theta_nv_deg", 181, r"must lie in \[0, 180\] deg, got 181"),
        ("geometry", "f_rot_hz", 0, r"must lie in \[0\.001, 1e\+06\] Hz, got 0"),
        ("field", "b0_gauss", -1, r"must lie in \[0\.001, 100000\] G, got -1"),
        ("constants", "gamma_e_mhz_per_g", 0, r"must lie in \[0\.001, 1000\] MHz/G, got 0"),
        ("beam", "collection_mode", "widefield", "must be one of"),
        ("rates", "singlet_branching_to_g0", 2, r"must lie in \[0, 1\], got 2"),
        ("protocol", "t2_us", 0, r"must lie in \[1e-300, 1e\+300\] us, got 0"),
    ],
)
def test_loader_names_the_dotted_key_of_a_section_refusal(section, key, value, message):
    with pytest.raises(ValidationError, match=rf"^{section}\.{key} {message}"):
        config_from_dict({section: {key: value}})


@pytest.mark.parametrize("override", ["strobe.t_phi_us=150", "field.theta_b_deg=3", "geometry.r_nv_um=10"])
def test_an_int_in_a_float_field_is_the_float_it_spells(override):
    # "--set strobe.t_phi_us=150" stored the int 150, whose config hash differed
    # from that of the default 150.0 and of "=150.0"
    key, _, value = override.partition("=")
    as_int = apply_overrides(config_from_dict({}), [override])
    as_float = apply_overrides(config_from_dict({}), [f"{key}={value}.0"])
    section, name = key.split(".")
    assert type(as_int.to_dict()[section][name]) is float
    assert as_int.sha256() == as_float.sha256()
