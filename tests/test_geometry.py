import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotornv.errors import ValidationError
from rotornv.config import FieldConfig, PhysicalConstants, RotorGeometry
from rotornv.geometry import (
    bias_field_vector,
    eac_amplitude,
    effective_field,
    fringe_phase_offset,
    mw_coupling,
    nv_axis,
    nv_position,
    unit,
    zeeman_projection,
)


class TestNvPosition:
    def test_trigger_time(self):
        g = RotorGeometry(r_nv_um=10.0, phi_pos0_deg=0.0)
        assert np.allclose(nv_position(g, 0.0), [10.0, 0.0, 0.0], atol=1e-12)

    def test_half_turn_displacement_is_20um(self):
        g = RotorGeometry(r_nv_um=10.0, phi_pos0_deg=0.0)
        p0 = nv_position(g, 0.0)
        p1 = nv_position(g, g.t_rot_s / 2.0)
        assert np.allclose(p1, [-10.0, 0.0, 0.0], atol=1e-9)
        assert np.linalg.norm(p1 - p0) == pytest.approx(20.0, abs=1e-9)

    def test_on_axis_nv_stays_at_origin(self):
        g = RotorGeometry(r_nv_um=0.0)
        for t in (0.0, 1e-4, 0.37):
            assert np.allclose(nv_position(g, t), [0.0, 0.0, 0.0])

    def test_traces_circle(self):
        g = RotorGeometry(r_nv_um=7.3, phi_pos0_deg=33.0)
        ts = np.linspace(0.0, 3.0 * g.t_rot_s, 101)
        radii = np.linalg.norm(nv_position(g, ts), axis=-1)
        assert np.allclose(radii, 7.3, atol=1e-10)


class TestNvAxis:
    def test_axis_aligned(self):
        g = RotorGeometry(theta_nv_deg=0.0)
        for t in (0.0, 1.7e-4, 0.01):
            assert np.allclose(nv_axis(g, t), [0.0, 0.0, 1.0], atol=1e-12)

    def test_magic_angle_components(self):
        g = RotorGeometry(theta_nv_deg=54.7, phi_nv0_deg=0.0)
        expected = [math.sin(math.radians(54.7)), 0.0, math.cos(math.radians(54.7))]
        assert np.allclose(nv_axis(g, 0.0), expected, atol=1e-12)

    @given(st.floats(min_value=-1e-2, max_value=1e-2))
    def test_unit_norm(self, t):
        g = RotorGeometry(theta_nv_deg=54.7, phi_nv0_deg=12.0)
        assert np.linalg.norm(nv_axis(g, t)) == pytest.approx(1.0, abs=1e-12)


class TestEffectiveField:
    def test_operating_point_amplitude(self, geometry_default, field_tilted):
        # 6.2 G at 1 deg tilt through the 54.7 deg cone
        val = effective_field(geometry_default, field_tilted, 0.0)
        assert 0.0880 <= abs(val) <= 0.0888
        assert eac_amplitude(geometry_default, field_tilted) == pytest.approx(val)

    def test_aligned_field_gives_zero(self, geometry_default):
        f = FieldConfig(theta_b_deg=0.0)
        ts = np.linspace(0, 1e-3, 50)
        assert np.allclose(effective_field(geometry_default, f, ts), 0.0, atol=1e-15)

    def test_quarter_period_zero_crossing(self):
        g = RotorGeometry(phi_nv0_deg=0.0)
        f = FieldConfig(theta_b_deg=1.0, phi_b_deg=0.0)
        t = 1.0 / (4.0 * g.f_rot_hz)
        assert effective_field(g, f, t) == pytest.approx(0.0, abs=1e-12)

    def test_periodicity(self, geometry_default, field_tilted):
        ts = np.linspace(0.0, 1.0 / geometry_default.f_rot_hz, 37)
        a = effective_field(geometry_default, field_tilted, ts)
        b = effective_field(
            geometry_default, field_tilted, ts + 1.0 / geometry_default.f_rot_hz
        )
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_max_over_period_is_amplitude(self, geometry_default, field_tilted):
        ts = np.linspace(0.0, 1.0 / geometry_default.f_rot_hz, 20001)
        peak = np.max(np.abs(effective_field(geometry_default, field_tilted, ts)))
        assert peak == pytest.approx(
            eac_amplitude(geometry_default, field_tilted), abs=1e-9
        )


class TestZeemanProjection:
    def test_aligned_field_constant(self, constants):
        g = RotorGeometry(theta_nv_deg=54.7)
        f = FieldConfig(b0_gauss=6.2, theta_b_deg=0.0)
        expected = constants.gamma_e_mhz_per_g * 6.2 * math.cos(math.radians(54.7))
        for t in (0.0, 1e-4, 7e-4):
            assert zeeman_projection(g, f, constants, t) == pytest.approx(expected, rel=1e-12)

    def test_zero_field(self, geometry_default, constants):
        # no bias splits m_S = +-1: the field's domain refuses it
        with pytest.raises(ValidationError, match=r"^field\.b0_gauss must lie in \[0\.001, "):
            FieldConfig(b0_gauss=0.0, theta_b_deg=20.0)

    def test_ac_part_is_effective_field(self, geometry_default, constants):
        # Zeeman projection minus its one-period mean equals gamma_e * B_eff
        f = FieldConfig(b0_gauss=6.2, theta_b_deg=3.0, phi_b_deg=40.0)
        ts = np.linspace(0.0, 1.0 / geometry_default.f_rot_hz, 4096, endpoint=False)
        zp = zeeman_projection(geometry_default, f, constants, ts)
        ac = zp - zp.mean()
        expected = constants.gamma_e_mhz_per_g * effective_field(geometry_default, f, ts)
        assert np.allclose(ac, expected, atol=1e-9)


class TestMwCoupling:
    def test_parallel_drive_vanishes(self):
        g = RotorGeometry(theta_nv_deg=0.0)
        f = FieldConfig(mw_dir=(0.0, 0.0, 1.0))
        assert mw_coupling(g, f, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_perpendicular_drive_full(self):
        g = RotorGeometry(theta_nv_deg=0.0)
        f = FieldConfig(mw_dir=(1.0, 0.0, 0.0))
        ts = np.linspace(0, 1e-3, 11)
        assert np.allclose(mw_coupling(g, f, ts), 1.0, atol=1e-12)

    def test_axial_drive_constant_sin_theta(self):
        g = RotorGeometry(theta_nv_deg=54.7)
        f = FieldConfig(mw_dir=(0.0, 0.0, 1.0))
        expected = math.sin(math.radians(54.7))
        ts = np.linspace(0, 5e-4, 17)
        assert np.allclose(mw_coupling(g, f, ts), expected, rtol=1e-12)


class TestValidation:
    def test_rotation_frequency_must_be_positive(self):
        with pytest.raises(ValidationError):
            RotorGeometry(f_rot_hz=0.0)

    def test_mw_dir_must_be_unit(self):
        with pytest.raises(ValidationError):
            FieldConfig(mw_dir=(1.0, 1.0, 0.0))

    def test_mw_dir_with_a_nan_is_refused(self):
        # abs(nan - 1) > tolerance is False, so a bare comparison let it through
        with pytest.raises(ValidationError, match="mw_dir"):
            FieldConfig(mw_dir=(math.nan, 0.0, 0.0))

    def test_mw_dir_must_have_three_components(self):
        # (1, 0) has norm 1
        with pytest.raises(ValidationError, match="mw_dir"):
            FieldConfig(mw_dir=(1.0, 0.0))

    def test_unit_helper_normalises(self):
        v = unit((3.0, 4.0, 0.0))
        assert v == pytest.approx((0.6, 0.8, 0.0))
        FieldConfig(mw_dir=v)  # passes the 1e-12 invariant

    def test_unit_keeps_a_vector_already_of_unit_length(self):
        v = unit((1.0, 1.0, 0.0))
        assert unit(v) == v  # dividing by its norm again moved its last bits
        near = (0.6, 0.8, 1e-13)
        assert unit(near) == near
        assert unit((0.6, 0.8, 1e-5)) != (0.6, 0.8, 1e-5)

    def test_constants_positive(self):
        with pytest.raises(ValidationError):
            PhysicalConstants(gamma_e_mhz_per_g=-1.0)

    def test_phi0_definition(self):
        g = RotorGeometry(phi_nv0_deg=50.0)
        f = FieldConfig(phi_b_deg=20.0)
        assert fringe_phase_offset(g, f) == pytest.approx(math.radians(30.0))

    def test_bias_vector_magnitude(self):
        f = FieldConfig(b0_gauss=6.2, theta_b_deg=13.0, phi_b_deg=77.0)
        assert np.linalg.norm(bias_field_vector(f)) == pytest.approx(6.2)
