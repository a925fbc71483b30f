import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from rotornv import pipeline, spindyn
from rotornv.errors import ValidationError
from rotornv.estimation import EchoFitModel
from rotornv.config import DOMAINS, FieldConfig, PhysicalConstants, RotorGeometry, config_from_dict
from rotornv.geometry import TWO_PI
from rotornv import TimelineBatch
from rotornv.seqlang import (
    build_calibration,
    compile_timeline,
    echo_batch,
    ideal_echo_timeline,
    parse_sequence,
)
from rotornv.spindyn import (
    COLLAPSE_FLOOR,
    COLLAPSE_WIDTH_FRAC,
    EchoParams,
    c13_envelope,
    c13_revival_time_us,
    echo_phase,
    pulse_rotation,
    rotate_bloch,
    simulate_sequence,
)
from spin_oracle import (
    BlochOracle,
    batch_of_one,
    c13_envelope_full_loop,
    pulse_rotation_stacked,
    rabi_population,
    rotate_bloch_np_cross,
)


def quadrature_echo_phase(p: EchoParams, c: PhysicalConstants, tau_us: float) -> float:
    """Independent oracle: adaptive quadrature of the sign-flipped AC integral."""
    import warnings

    w = TWO_PI * p.f_rot_hz * 1e-6

    def detuning(t_us):
        return c.gamma_e_mhz_per_g * p.b_perp_gauss * math.cos(w * t_us + p.phi0_rad)

    with warnings.catch_warnings():
        # roundoff chatter at the requested 1e-13 accuracy is expected
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        first, _ = integrate.quad(detuning, 0.0, tau_us / 2.0, epsabs=1e-13, epsrel=1e-12, limit=400)
        second, _ = integrate.quad(detuning, tau_us / 2.0, tau_us, epsabs=1e-13, epsrel=1e-12, limit=400)
    return TWO_PI * (first - second)


class TestRabiPopulation:
    def test_pi_time_full_transfer(self):
        t_pi = 1.0 / (2.0 * 3.6)
        assert rabi_population(t_pi, 3.6, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_no_drive(self):
        ts = np.linspace(0, 5, 20)
        assert np.all(rabi_population(ts, 0.0, 0.0) == 0.0)

    def test_detuned_amplitude(self):
        omega = 1.3
        delta = 10.0 * omega
        ts = np.linspace(0, 10, 30001)
        peak = np.max(rabi_population(ts, omega, delta))
        assert peak == pytest.approx(1.0 / 101.0, rel=1e-4)

    def test_bounded(self):
        ts = np.linspace(0, 7, 500)
        vals = rabi_population(ts, 2.2, 0.7)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# m_S = 0, the bright state every timeline starts from
MS0 = np.array([0.0, 0.0, 1.0])


class TestPulseRotation:
    def test_pi_pulse_inverts(self):
        out = pulse_rotation(MS0, 3.6, 0.0, 1.0 / (2.0 * 3.6))
        assert np.allclose(out, [0.0, 0.0, -1.0], atol=1e-12)

    def test_zero_duration_is_identity(self):
        bloch = np.array([0.3, -0.4, 0.5])
        out = pulse_rotation(bloch, 5.0, 0.0, 0.0)
        assert np.allclose(out, bloch, atol=0.0)

    def test_two_half_pulses_compose_to_pi(self):
        bloch = np.array([0.1, 0.2, math.sqrt(1 - 0.05)])
        half = lambda vec: pulse_rotation(vec, 2.0, 0.0, 1.0 / (4.0 * 2.0), 0.7)
        via_one = pulse_rotation(bloch, 2.0, 0.0, 1.0 / (2.0 * 2.0), 0.7)
        assert np.allclose(half(half(bloch)), via_one, atol=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=200)
    def test_norm_preserved(self, duration, omega, delta, phase):
        assume(omega != 0.0 or delta != 0.0)  # the rotation needs a non-zero generalised Rabi frequency
        out = pulse_rotation(np.array([0.6, 0.0, 0.8]), omega, delta, duration, phase)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_matches_rabi_population(self):
        for t in np.linspace(0.0, 1.0, 23):
            out = pulse_rotation(MS0, 3.6, 1.1, t)
            assert 0.5 * (1.0 - out[2]) == pytest.approx(rabi_population(t, 3.6, 1.1), abs=1e-9)


    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_rotate_bloch_equals_the_np_cross_form_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        vec = rng.normal(size=(n, 3))
        axis = rng.normal(size=(n, 3))
        axis /= np.linalg.norm(axis, axis=1)[:, None]
        angle = rng.uniform(-20.0, 20.0, n)
        # a batch of axes, one (3,) axis broadcast over the batch, and one vector
        for args in ((vec, axis, angle), (vec, axis[0], angle), (vec[0], axis[0], angle[0])):
            assert rotate_bloch(*args).tobytes() == rotate_bloch_np_cross(*args).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_pulse_rotation_equals_the_stacked_axis_form_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        vec = rng.normal(size=(n, 3))
        rabi, delta = rng.uniform(0.5, 20.0, n), rng.normal(0.0, 5.0, n)
        duration, phase = rng.uniform(0.0, 2.0, n), rng.uniform(-math.pi, math.pi, n)
        for args in (
            (vec, rabi, delta, duration, phase),  # a driven scan row
            (vec, 1.0, 0.0, 0.25, phase),  # a target rotation
            (vec[0], rabi[0], delta[0], duration[0]),  # one vector at the default phase
        ):
            assert pulse_rotation(*args).tobytes() == pulse_rotation_stacked(*args).tobytes()


class TestZeroLengthRotations:
    """A rotation by angle 0 returns its input bit for bit: cos 0 = 1 and sin 0 = 0.

    The simulator keeps no copy of a row whose pulse or precession has zero length;
    its rotation is this identity.  Random draws have no zero component, whose sign
    the identity may not keep (-0.0 + 0.0 is +0.0).
    """

    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_a_zero_duration_pulse_returns_its_input(self, n):
        rng = np.random.default_rng(200 + n)
        vec = rng.normal(size=(n, 3))
        rabi, delta = rng.uniform(0.01, 20.0, n), rng.normal(0.0, 5.0, n)
        phase = rng.uniform(-math.pi, math.pi, n)
        assert pulse_rotation(vec, rabi, delta, 0.0, phase).tobytes() == vec.tobytes()
        assert pulse_rotation(vec[0], rabi[0], delta[0], 0.0).tobytes() == vec[0].tobytes()

    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_a_z_rotation_by_zero_returns_its_input(self, n, geometry_default, field_tilted, constants):
        rng = np.random.default_rng(300 + n)
        vec = rng.normal(size=(n, 3))
        t = rng.uniform(0.0, 300.0, n)
        # the free precession of a row that does not move: its phase is zero
        still = spindyn.free_phase(geometry_default, field_tilted, constants, t, t)
        for angle in (np.zeros(n), still):
            assert rotate_bloch(vec, MS0, angle).tobytes() == vec.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_an_untargeted_event_leaves_its_zero_rows_as_they_went_in(
        self, seed, geometry_default, field_tilted, constants, monkeypatch
    ):
        rng = np.random.default_rng(seed)
        n = 64
        first = rng.uniform(0.01, 0.3, n)
        gap = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 20.0, n))
        second = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.01, 0.3, n))
        zero_rows = second == 0.0
        assert zero_rows.any() and not zero_rows.all()
        start = np.array([np.zeros(n), first + gap])
        dur = np.array([first, second])
        rabi = rng.uniform(0.5, 10.0, (2, n))
        phase = rng.uniform(-math.pi, math.pi, (2, n))
        batch = TimelineBatch(("mw", "mw"), (None, None), start, dur, rabi, phase, np.zeros((2, n)))
        calls = []
        real = spindyn.pulse_rotation
        monkeypatch.setattr(spindyn, "pulse_rotation", lambda vec, *a: calls.append(vec) or real(vec, *a))
        final = simulate_sequence(batch, geometry_default, field_tilted, constants)
        went_in = calls[-1]
        assert went_in[zero_rows].tobytes() == final[zero_rows].tobytes()
        assert np.all(went_in[~zero_rows] != final[~zero_rows])


class TestEchoPhase:
    @pytest.mark.parametrize(
        "field, name",
        [
            ({"f_rot_hz": 0.0}, "f_rot_hz"),
            ({"f_rot_hz": math.inf}, "f_rot_hz"),
            ({"f_rot_hz": 1e308}, "f_rot_hz"),
            # the period 1e6 / f_rot_hz us overflows, or the rad/us frequency is subnormal
            ({"f_rot_hz": 3e-303}, "f_rot_hz"),
            ({"f_rot_hz": 1e-320}, "f_rot_hz"),
            ({"b_perp_gauss": math.inf}, "b_perp_gauss"),
            ({"phi0_rad": math.inf}, "phi0_rad"),
            ({"phi0_rad": math.nan}, "phi0_rad"),
            ({"t2_us": math.inf}, "t2_us"),
            ({"envelope_exponent": -4.0}, "envelope_exponent"),
            ({"b0_gauss": math.inf}, "b0_gauss"),
            # 360 f_rot_hz, which the pulse angles start from, overflows
            ({"f_rot_hz": 6e305}, "f_rot_hz"),
        ],
    )
    def test_a_value_the_config_refuses_is_refused(self, constants, field, name):
        # each was once taken; the first six then reached echo_phase as a NaN
        # phase or a numpy RuntimeWarning (an invalid value in a divide or a sine)
        with pytest.raises(ValidationError, match=rf"^[a-z]+\.{name} must lie in \["):
            echo_phase(EchoParams(**field), constants, [1.0, 2.0])

    def test_a_slow_rotation_with_a_normal_period_is_taken(self, constants):
        # the slowest rotation the domain takes; 1e-300 Hz was taken once, and is refused now
        with np.errstate(all="raise"):
            assert not echo_phase(EchoParams(f_rot_hz=1e-3), constants, [1.0, 2.0]).any()
        with pytest.raises(ValidationError, match=r"^geometry\.f_rot_hz must lie in \[0\.001, "):
            EchoParams(f_rot_hz=1e-300)

    def test_zero_amplitude(self, constants):
        p = EchoParams(b_perp_gauss=0.0)
        taus = np.linspace(0, 200, 20)
        assert np.allclose(echo_phase(p, constants, taus), 0.0, atol=1e-15)

    def test_full_period_zero_at_phi0_zero(self, constants):
        p = EchoParams(b_perp_gauss=0.088, phi0_rad=0.0, f_rot_hz=3333.33)
        tau = 1e6 / 3333.33
        assert echo_phase(p, constants, tau) == pytest.approx(0.0, abs=1e-9)

    def test_full_period_minus_4_sin_phi0(self, constants):
        phi0 = 0.9
        p = EchoParams(b_perp_gauss=0.05, phi0_rad=phi0, f_rot_hz=2000.0)
        tau = 1e6 / 2000.0
        w = TWO_PI * 2000.0 * 1e-6
        expected = TWO_PI * constants.gamma_e_mhz_per_g * 0.05 / w * (-4.0 * math.sin(phi0))
        assert echo_phase(p, constants, tau) == pytest.approx(expected, rel=1e-12)

    def test_against_quadrature_oracle_operating_point(self, constants):
        p = EchoParams(b_perp_gauss=0.088, phi0_rad=0.0, f_rot_hz=3333.33)
        cf = echo_phase(p, constants, 60.0)
        oracle = quadrature_echo_phase(p, constants, 60.0)
        assert 1.0 < abs(cf) < 100.0  # order 10^1 rad
        assert cf == pytest.approx(oracle, rel=1e-9)

    def test_against_quadrature_random_draws(self, constants):
        rng = np.random.default_rng(2024)
        for _ in range(250):
            p = EchoParams(
                b_perp_gauss=rng.uniform(0.0, 0.5),
                phi0_rad=rng.uniform(0.0, TWO_PI),
                f_rot_hz=rng.uniform(500.0, 10000.0),
            )
            tau = rng.uniform(0.0, 300.0)
            cf = echo_phase(p, constants, tau)
            oracle = quadrature_echo_phase(p, constants, tau)
            assert abs(cf - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_signal_invariances(self, constants):
        p = EchoParams(b_perp_gauss=0.07, phi0_rad=1.3)
        model = EchoFitModel(constants=constants, envelope=EchoParams())
        taus = np.linspace(0.0, 80.0, 41)
        base = model.predict(taus, 0.07, 1.3, 0.8, 0.5)
        assert np.allclose(model.predict(taus, 0.07, 1.3 + TWO_PI, 0.8, 0.5), base, atol=1e-12)
        # b -> -b with phi0 -> phi0 + pi: realised via the closed form symmetry,
        # cos(-x(tau; phi0+pi)) = cos(x(tau; phi0))
        mirrored = EchoParams(b_perp_gauss=0.07, phi0_rad=1.3 + math.pi)
        phase_base = echo_phase(p, constants, taus)
        phase_mirrored = echo_phase(mirrored, constants, taus)
        assert np.allclose(phase_mirrored, -phase_base, atol=1e-9)
        assert np.allclose(np.cos(phase_mirrored), np.cos(phase_base), atol=1e-12)


class TestC13Envelope:
    def test_revival_time_operating_point(self, constants):
        tau_r = c13_revival_time_us(6.2, constants)
        assert tau_r == pytest.approx(300.1, abs=0.1)
        t_rot = 1e6 / 3333.33
        assert abs(tau_r - t_rot) / t_rot < 0.002

    def test_starts_at_one(self, constants):
        p = EchoParams()
        assert c13_envelope(p, constants, 0.0) == pytest.approx(1.0, abs=1e-4)

    def test_revival_vs_collapse(self, constants):
        p = EchoParams()
        tau_r = c13_revival_time_us(p.b0_gauss, constants)
        revival = c13_envelope(p, constants, tau_r)
        collapse = c13_envelope(p, constants, tau_r / 2.0)
        assert revival / collapse > 10.0

    def test_near_unity_over_fit_window(self, constants):
        p = EchoParams()
        taus = np.linspace(0.0, 22.0, 23)
        assert np.all(c13_envelope(p, constants, taus) > 0.995)

    def test_fringe_range_and_flat_cases(self, constants):
        # the fringe 1/2 + (contrast/2) envelope(tau) cos(phi(tau)) under the bath envelope
        model = EchoFitModel(constants=constants, envelope=EchoParams())
        taus = np.linspace(0.0, 30.0, 31)
        flat = model.predict(taus, 0.0, 0.0, 0.6, 0.5)
        # flat up to the slow envelope droop (envelope ~ 1 over this window)
        assert np.allclose(flat, flat[0], atol=1e-3)
        assert flat[0] == pytest.approx(0.5 + 0.3, abs=1e-3)
        assert np.allclose(model.predict(taus, 0.1, 0.0, 0.0, 0.5), 0.5, atol=1e-15)
        vals = model.predict(np.linspace(0, 60, 200), 0.088, 0.0, 1.0, 0.5)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.max(vals) - np.min(vals) > 0.5  # oscillatory fringes

    @pytest.mark.parametrize("b0_gauss", [6.2, 1.0, 100.0])
    def test_matches_the_full_dip_loop_bit_for_bit(self, constants, b0_gauss):
        # the dips out of reach of a tau add exact zeros in the full loop
        taus = [np.linspace(0.0, 300.0, 601), np.random.default_rng(16).uniform(0.0, 2000.0, 300)]
        for p in (EchoParams(b0_gauss=b0_gauss), EchoParams(b0_gauss=b0_gauss, t2_us=1e6)):
            for tau in (*taus, np.zeros(0), 0.0, 17.0):
                want = c13_envelope_full_loop(p, constants, tau)
                got = c13_envelope(p, constants, tau)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_revivals_at_a_strong_field(self, constants):
        # a million revivals in, at the domain's strongest field (10 T) and a
        # T2 that leaves them undamped: the full loop would visit ~2e6 dips per call
        p = EchoParams(b0_gauss=1e5, t2_us=1e9)
        tau_r = c13_revival_time_us(p.b0_gauss, constants)
        revival, collapse = c13_envelope(p, constants, np.array([1e6, 1e6 + 0.5]) * tau_r)
        assert revival > 0.9999 and collapse == pytest.approx(COLLAPSE_FLOOR, rel=1e-3)

    @pytest.mark.parametrize(
        "field, constants_kw",
        [
            ({"b0_gauss": 1e-320}, {}),  # an infinite revival time
            ({"b0_gauss": 1e-200}, {"gamma_c13_khz_per_g": 1e-200}),  # gamma_13C B0 underflows to 0
            ({}, {"gamma_c13_khz_per_g": 1e-300}),  # a dip width whose square overflows
            ({"b0_gauss": 1e300}, {}),  # a dip width whose square underflows to 0
        ],
    )
    def test_out_of_range_bath_refused(self, field, constants_kw):
        # the domains of B0 and gamma_13C refuse each before the envelope is reached
        with pytest.raises(ValidationError, match=r"^(field\.b0_gauss|constants\.gamma_c13_khz_per_g) must lie in"):
            c13_envelope(EchoParams(**field), PhysicalConstants(**constants_kw), np.array([2.0, 5.0]))

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_the_bath_domains_keep_the_dip_variance_finite_and_positive(self, end):
        # the envelope squares the dip width 0.2e3 / (gamma_13C B0) with no guard:
        # at either end of both domains its square is a positive finite float
        b0, gamma = (getattr(DOMAINS[key], end) for key in ("field.b0_gauss", "constants.gamma_c13_khz_per_g"))
        width = COLLAPSE_WIDTH_FRAC * c13_revival_time_us(b0, PhysicalConstants(gamma_c13_khz_per_g=gamma))
        assert 0.0 < 2.0 * width**2 < 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = c13_envelope(EchoParams(b0_gauss=b0), PhysicalConstants(gamma_c13_khz_per_g=gamma), [2.0, 5.0])
        assert np.all(np.isfinite(env))

    @pytest.mark.parametrize("field", [{"t2_us": 1e-300}, {"t2_us": 1.0, "envelope_exponent": 1e30}])
    def test_damping_beyond_the_float_range_is_exactly_zero(self, constants, field):
        # (tau / T2)^p overflowed to exp(-inf) = 0 with "overflow encountered in power"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not c13_envelope(EchoParams(**field), constants, np.array([2.0, 5.0])).any()

    @pytest.mark.parametrize("tau", [[math.inf], [2.0, math.nan], -1.0])
    @pytest.mark.parametrize("fn", [c13_envelope, echo_phase])
    def test_a_tau_that_is_not_finite_and_non_negative_is_refused(self, constants, fn, tau):
        # an infinite tau once reached int() of the dip count: a raw OverflowError;
        # the tau_us row refuses it, as it refuses --tau
        with pytest.raises(ValidationError, match=r"^tau_us \(--tau\) must lie in \[0, 1e\+09\] us, got "):
            fn(EchoParams(), constants, tau)


class TestSimulateSequence:
    def test_echo_matches_closed_form(self, geometry_default, field_tilted, constants):
        p = EchoParams.from_experiment(geometry_default, field_tilted)
        tau = np.array([5.0, 17.0, 33.0, 55.0])
        batch = ideal_echo_timeline(tau, geometry_default.t_rot_us, 2.0)
        z = simulate_sequence(batch, geometry_default, field_tilted, constants)[:, 2]
        assert np.max(np.abs(z - np.cos(echo_phase(p, constants, tau)))) <= 1e-6

    def test_pi_pulses_flip_and_restore(self, geometry_default, field_tilted, constants):
        pi_at = lambda t_us: ("mw", "pi", t_us, 0.0, 1.0, 0.0)
        one = batch_of_one(pi_at(0.0))
        two = batch_of_one(pi_at(0.0), pi_at(geometry_default.t_rot_us / 2.0))
        for batch, z in ((one, -1.0), (two, 1.0)):
            final = simulate_sequence(batch, geometry_default, field_tilted, constants)
            assert final[0, 2] == pytest.approx(z, abs=1e-9)

    def test_each_microwave_row_takes_one_rotation(self, monkeypatch):
        # a finite-pulse echo used to take both the target and the driven
        # rotation of its three pulses, and a Rabi scan's prepended pi both
        cfg = config_from_dict({})
        calls = []
        real = spindyn.pulse_rotation
        monkeypatch.setattr(spindyn, "pulse_rotation", lambda *a: calls.append(a) or real(*a))
        durations, tau = np.linspace(0.0, 1.1, 400), np.linspace(2.0, 150.0, 400)
        counts = []
        for scan in (
            lambda: pipeline.rabi_populations(cfg, durations, "start"),
            lambda: pipeline.rabi_populations(cfg, durations, "half"),
            lambda: pipeline.echo_populations(cfg, tau, ideal_pulses=False),
            lambda: pipeline.echo_populations(cfg, tau, ideal_pulses=True),
        ):
            calls.clear()
            scan()
            counts.append(len(calls))
        assert counts == [1, 2, 3, 3]

    def test_rows_of_mixed_events_run_as_alone(self, geometry_default, field_tilted, constants):
        # zero-duration and finite rows in one event: each row rotates as in a batch of its own
        dur = np.array([[0.0, 0.04, 0.0, 0.11], [0.0, 0.0, 0.07, 0.09]])
        start = np.array([[0.0] * 4, [30.0] * 4])
        rabi, phase = np.full_like(dur, 3.6), np.array([[0.3] * 4, [1.1] * 4])
        batch = TimelineBatch(("mw", "mw"), ("pi/2", None), start, dur, rabi, phase, np.zeros_like(dur))
        final = simulate_sequence(batch, geometry_default, field_tilted, constants)
        for i in range(4):
            row = slice(i, i + 1)
            alone = TimelineBatch(
                ("mw", "mw"), ("pi/2", None), start[:, row], dur[:, row], rabi[:, row], phase[:, row],
                np.zeros((2, 1)),
            )
            got = simulate_sequence(alone, geometry_default, field_tilted, constants)
            assert got.tobytes() == final[row].tobytes()
        assert final[0, 2] == pytest.approx(0.0, abs=1e-12)  # a pi/2 and no second pulse

    def test_constant_drive_reproduces_rabi_formula(self, constants):
        g = RotorGeometry()
        f = FieldConfig(theta_b_deg=0.0)
        dur = np.linspace(0.01, 1.2, 17)[None, :]
        zero = np.zeros_like(dur)
        batch = TimelineBatch(("mw",), (None,), zero, dur, zero + 3.6, zero, zero)
        p1 = 0.5 * (1.0 - simulate_sequence(batch, g, f, constants)[:, 2])
        assert np.max(np.abs(p1 - rabi_population(dur[0], 3.6, 0.0))) <= 1e-9

    def test_norm_preserved_across_a_batch(self, geometry_default, field_tilted, constants):
        cal = build_calibration(geometry_default, field_tilted, 3.6, 64)
        tau = np.linspace(2.0, 290.0, 50)
        for batch in (
            ideal_echo_timeline(tau, geometry_default.t_rot_us, 2.0),
            echo_batch(tau, geometry_default, cal),
        ):
            final = simulate_sequence(batch, geometry_default, field_tilted, constants)
            assert np.max(np.abs(np.linalg.norm(final, axis=1) - 1.0)) < 1e-12

    def test_fringe_free_pipeline_for_aligned_field(self, geometry_default, constants):
        f = FieldConfig(theta_b_deg=0.0)
        batch = ideal_echo_timeline(np.linspace(0.5, 9.5, 10), geometry_default.t_rot_us, 2.0)
        z = simulate_sequence(batch, geometry_default, f, constants)[:, 2]
        assert np.all(np.abs(z - z[0]) < 1e-6)

    def test_overlapping_events_rejected_naming_both(self, geometry_default, field_tilted, constants):
        ev_a = ("mw", None, 1.0, 2.0, 3.6, 0.0)
        ev_b = ("mw", None, 2.0, 2.0, 3.6, 0.0)
        with pytest.raises(ValidationError) as err:
            simulate_sequence(batch_of_one(ev_a, ev_b), geometry_default, field_tilted, constants)
        msg = str(err.value)
        assert "1.0" in msg and "2.0" in msg and "mw" in msg

    @pytest.mark.parametrize(
        "events, match",
        [
            # a laser across the pulse's end
            ([("mw", None, 1.0, 2.0, 3.6, 0.0), ("laser", None, 2.0, 1.0, 0.0, 0.0)],
             "event laser [2.000000, 3.000000] us starts 1 us before mw [1.000000, 3.000000] us ends"),
            # a pulse inside a laser window
            ([("laser", None, 0.5, 10.0, 0.0, 0.0), ("mw", None, 1.0, 2.0, 3.6, 0.0)],
             "event mw [1.000000, 3.000000] us starts 9.5 us before laser [0.500000, 10.500000] us ends"),
            # a zero-length target pulse inside a laser window
            ([("laser", None, 0.5, 10.0, 0.0, 0.0), ("mw", "pi", 1.0, 0.0, 3.6, 0.0)],
             "event mw (pi) [1.000000, 1.000000] us starts 9.5 us before laser [0.500000, 10.500000] us ends"),
            # a laser 1e-7 us into the pulse: the six-decimal times print
            # equal, and the overlap tells them apart
            ([("mw", None, 0.5, 0.5000002, 3.6, 0.0), ("laser", None, 1.0000001, 2.0, 0.0, 0.0)],
             "event laser [1.000000, 3.000000] us starts 1e-07 us before mw [0.500000, 1.000000] us ends"),
        ],
        ids=["laser-across-pulse-end", "pulse-in-laser", "zero-target-in-laser", "laser-1e-7us-into-pulse"],
    )
    def test_laser_across_a_pulse_rejected(
        self, geometry_default, field_tilted, constants, events, match, monkeypatch
    ):
        # the one order rule refuses before any rotation
        monkeypatch.setattr(spindyn, "_free_evolve", None)
        monkeypatch.setattr(spindyn, "pulse_rotation", None)
        with pytest.raises(ValidationError, match=f"^{re.escape(match)}$"):
            simulate_sequence(batch_of_one(*events), geometry_default, field_tilted, constants)

    def test_a_laser_where_the_pulse_ends_is_taken_at_every_delay(self, cfg_default):
        # the laser starts at the cursor, where the pulse ends; after t_phi
        # the two ends differ by rounding, and 71 of these delays once were
        # refused as "laser boundary ... falls inside mw (pi)"
        g, f, c = cfg_default.geometry, cfg_default.field_cfg, cfg_default.constants
        prog, cal = parse_sequence("mw pi at 0.3us\nlaser 2us"), pipeline.calibration(cfg_default)
        for t_phi in np.round(np.linspace(0.01, 3.0, 300), 6):
            batch = compile_timeline(prog, g, cal, t_phi_us=float(t_phi))
            assert np.all(np.isfinite(simulate_sequence(batch, g, f, c)))

    @pytest.mark.parametrize("theta_b_deg", [0.0, 1.0])
    def test_a_laser_a_rounding_before_the_pulse_end_matches_the_oracle(self, theta_b_deg, cfg_default):
        g, f, c = cfg_default.geometry, FieldConfig(theta_b_deg=theta_b_deg), cfg_default.constants
        batch = compile_timeline(
            parse_sequence("mw pi at 0.3us\nlaser 2us"), g, build_calibration(g, f, 3.6, 64), t_phi_us=0.04
        )
        start, end = batch.start_us[1, 0], batch.start_us[0, 0] + batch.duration_us[0, 0]
        assert start < end  # the laser starts a rounding before the pulse ends
        got = simulate_sequence(batch, g, f, c)[0]
        want = BlochOracle(g, f, c).run(batch)
        # the bounds of test_compiled_program_with_phase: 3.1e-13 and 7.4e-8 seen
        assert np.max(np.abs(got - want)) <= (1e-10 if theta_b_deg == 0.0 else 2e-5)

    @pytest.mark.parametrize("theta_b_deg", [0.0, 1.0])
    def test_compiled_program_with_phase(self, theta_b_deg, constants):
        g, f = RotorGeometry(), FieldConfig(theta_b_deg=theta_b_deg)
        cal = build_calibration(g, f, 3.6, 64)

        def final(text):
            batch = compile_timeline(parse_sequence(text), g, cal)
            return batch, simulate_sequence(batch, g, f, constants)[0]

        batch, bloch = final("mw pi/2 at 0us; mw pi/2 at 10us phase 90deg")
        # the Bloch-equation oracle integrates through both finite pulses
        want = BlochOracle(g, f, constants).run(batch)
        if theta_b_deg == 0.0:
            # no AC field: the first pulse lays the spin along -y, the second
            # turns about y and leaves it there; at phase 0 it would go dark
            assert np.max(np.abs(bloch - (0.0, -1.0, 0.0))) <= 1e-12
            assert final("mw pi/2 at 0us; mw pi/2 at 10us")[1][2] == pytest.approx(-1.0, abs=1e-12)
        # exact without an AC field (oracle roundoff, 1.4e-13 seen); tilted, the
        # simulator's centre-held detuning misses the second-order Magnus term
        # of the moving detuning (7.6e-6 seen)
        assert np.max(np.abs(bloch - want)) <= (1e-10 if theta_b_deg == 0.0 else 2e-5)
