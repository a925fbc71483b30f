import dataclasses
import math
import warnings

import numpy as np
import pytest
import readout_oracle
from scipy import integrate
from scipy.linalg import expm, null_space

from rotornv import photophysics, pipeline
from rotornv.config import BeamProfile, PhysicalConstants, RateModel, RotorGeometry, config_from_dict
from rotornv.errors import ValidationError
from rotornv.imaging import Emitter, angular_smear
from rotornv.photophysics import (
    MAX_READOUT_STEPS,
    LevelPopulations,
    beam_intensity,
    emission_rate_per_us,
    expected_count_rate,
    expected_window_counts,
    fluorescence_rate,
    optimal_turn_on,
    rate_matrix,
    readout_response,
    simulate_readout,
    state_contrast,
    steady_state,
    step_rates,
    transit_offset_um,
)
from rotornv.spindyn import EchoParams, c13_envelope, c13_revival_time_us, echo_phase

ILLUM = BeamProfile(collection_mode="illumination-only")


class TestBeamIntensity:
    def test_center(self):
        assert beam_intensity(ILLUM, 0.0) == 1.0

    def test_waist_radius_gives_e_minus_2(self):
        w = ILLUM.waist_radius_um
        assert beam_intensity(ILLUM, w) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_full_diameter_gives_e_minus_8(self):
        assert beam_intensity(ILLUM, ILLUM.waist_diameter_1e2_um) == pytest.approx(
            math.exp(-8.0), rel=1e-12
        )

    def test_confocal_squares(self):
        b = BeamProfile(collection_mode="confocal-squared")
        off = 0.21
        assert beam_intensity(b, off) == pytest.approx(beam_intensity(ILLUM, off) ** 2)

    def test_vanishing_waist_and_huge_offset_warn_nothing(self):
        # from the diameter, with offsets past ten diameters clipped: neither
        # the quotient by a squared radius nor the squared offset overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate = expected_count_rate(BeamProfile(waist_diameter_1e2_um=1e-300), RotorGeometry(), 2.0)
            tiny = expected_count_rate(BeamProfile(waist_diameter_1e2_um=5e-324), RotorGeometry(), 2.0)
            far = beam_intensity(BeamProfile(), 1e300)
            profile = beam_intensity(ILLUM, np.array([-1e300, -0.3, 0.0, 0.3, 1e300]))
        assert math.isfinite(rate) and math.isfinite(tiny) and far == 0.0
        assert profile.tolist() == [0.0, math.exp(-2.0), 1.0, math.exp(-2.0), 0.0]

    @pytest.mark.parametrize(
        "mode, value",
        # the rates of exp(-2 off^2 / w^2), from the radius, before the change
        [("confocal-squared", 402.70188540804065), ("illumination-only", 501.0925106271171)],
    )
    def test_default_rate_unchanged(self, mode, value):
        cfg = config_from_dict({})
        beam = dataclasses.replace(cfg.beam, collection_mode=mode)
        rate = expected_count_rate(beam, cfg.geometry, cfg.strobe.t_pulse_us)
        assert rate == pytest.approx(value, rel=1e-15, abs=0.0)


class TestExpectedCountRate:
    def test_duty_cycle_bound(self):
        b = BeamProfile()
        g = RotorGeometry(r_nv_um=0.0, f_rot_hz=1e6 / 300.0)  # T_rot exactly 300 us
        rate = expected_count_rate(b, g, 2.0)
        assert rate == pytest.approx(1e5 * 2.0 / 300.0, rel=1e-3)

    def test_transit_reduction_near_350(self):
        b = BeamProfile()
        g = RotorGeometry(r_nv_um=10.0, f_rot_hz=3333.33)
        rate = expected_count_rate(b, g, 2.0)
        assert 250.0 <= rate <= 450.0
        assert rate < b.peak_counts_stationary_cps * 2.0 / g.t_rot_us  # the duty-cycle bound

    def test_full_duty_stationary_gives_peak(self):
        b = BeamProfile()
        g = RotorGeometry(r_nv_um=0.0, f_rot_hz=3333.33)
        assert expected_count_rate(b, g, g.t_rot_us) == pytest.approx(1e5)

    def test_pulse_longer_than_period_rejected(self):
        with pytest.raises(ValidationError):
            expected_count_rate(BeamProfile(), RotorGeometry(), 400.0)

    @pytest.mark.parametrize(
        "beam, geometry, t_pulse",
        [
            (BeamProfile(), RotorGeometry(), 2.0),
            (BeamProfile(collection_mode="illumination-only"), RotorGeometry(), 2.0),
            (BeamProfile(waist_diameter_1e2_um=0.3), RotorGeometry(r_nv_um=2.0), 7.5),
            (BeamProfile(), RotorGeometry(r_nv_um=0.2), 2.0),
            # a narrow transit peak in an interval as long as the rotation period
            (BeamProfile(), RotorGeometry(), RotorGeometry().t_rot_us),
            (BeamProfile(waist_diameter_1e2_um=0.3), RotorGeometry(r_nv_um=100.0), 300.0),
        ],
    )
    def test_matches_quad_oracle(self, beam, geometry, t_pulse):
        # break points every transit time (waist / speed) around the peak
        transit = beam.waist_radius_um * geometry.t_rot_us / (2.0 * math.pi * geometry.r_nv_um)
        val, _ = integrate.quad(
            lambda t: beam_intensity(beam, transit_offset_um(geometry, t)),
            -t_pulse / 2.0,
            t_pulse / 2.0,
            epsabs=1e-14,
            epsrel=1e-12,
            points=[k * transit for k in range(-8, 9) if abs(k * transit) < t_pulse / 2.0],
            limit=200,
        )
        bound = beam.peak_counts_stationary_cps * t_pulse / geometry.t_rot_us
        assert expected_count_rate(beam, geometry, t_pulse) == pytest.approx(
            bound * val / t_pulse, rel=1e-9
        )


class TestRateEquations:
    def test_dark_with_empty_shelf_is_static(self):
        m = RateModel()
        p = LevelPopulations(g0=0.4, g1=0.6)
        out = step_rates(p, m, intensity=0.0, dt_us=5.0)
        assert np.allclose(out.as_array(), p.as_array(), atol=1e-12)

    def test_population_sum_conserved_many_steps(self):
        m = RateModel()
        p = LevelPopulations.ms1()
        for _ in range(200):
            p = step_rates(p, m, intensity=0.73, dt_us=0.01)
        assert abs(p.as_array().sum() - 1.0) < 1e-6

    def test_steady_state_reached_from_both_spins(self):
        # propagation oracle vs the null-space implementation
        m = RateModel()
        long_time = 200.0
        from_bright = step_rates(LevelPopulations.ms0(), m, 1.0, long_time)
        from_dark = step_rates(LevelPopulations.ms1(), m, 1.0, long_time)
        assert np.allclose(from_bright.as_array(), from_dark.as_array(), atol=1e-6)
        ss = steady_state(m, 1.0)
        assert np.allclose(from_bright.as_array(), ss.as_array(), atol=1e-6)

    def test_generator_columns_sum_to_zero(self):
        a = rate_matrix(RateModel(), 0.83)
        assert np.allclose(a.sum(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 0.9, 2.0, 5.0, 40.0])
    def test_expm_matches_scipy(self, scale):
        # with and without squaring, on a stack of matrices
        rng = np.random.default_rng(int(scale * 1000))
        a = rng.normal(size=(6, 7, 7))
        a *= scale / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]
        want = np.array([expm(x) for x in a])
        got = photophysics.expm(a)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("dt", [1e-4, 0.05, 3.0, 30.0])
    def test_expm_of_generator_matches_scipy(self, dt):
        a = np.stack([rate_matrix(RateModel(), i) * dt for i in (0.0, 0.5, 1.0)])
        want = np.array([expm(x) for x in a])
        got = photophysics.expm(a)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("intensity", [1.0, 0.3, 1e-4])
    @pytest.mark.parametrize("rates", [{}, {"pump_rate_peak_per_us": 7.0, "singlet_branching_to_g0": 0.3}])
    def test_steady_state_matches_null_space(self, intensity, rates):
        m = RateModel(**rates)
        ns = null_space(rate_matrix(m, intensity))
        assert ns.shape[1] == 1
        want = ns[:, 0] / ns[:, 0].sum()
        assert np.allclose(steady_state(m, intensity).as_array(), want, rtol=0, atol=1e-12)

    def test_degenerate_steady_state_rejected(self):
        # no pumping: both ground spin states are stationary
        with pytest.raises(ValidationError, match="degenerate"):
            steady_state(RateModel(pump_rate_peak_per_us=0.0))

    def test_step_matches_expm_oracle(self):
        m = RateModel()
        p = LevelPopulations(g0=0.2, g1=0.5, e0=0.1, e1=0.1, s=0.1)
        dt = 0.37
        expected = expm(rate_matrix(m, 0.4) * dt) @ p.as_array()
        out = step_rates(p, m, 0.4, dt)
        assert np.allclose(out.as_array(), expected, atol=1e-12)


class TestFluorescence:
    def test_ground_states_emit_nothing(self):
        m = RateModel()
        assert emission_rate_per_us(LevelPopulations.ms0(), m) == 0.0
        assert fluorescence_rate(LevelPopulations.ms0(), m, BeamProfile()) == 0.0

    def test_linear_in_radiative_rate_at_fixed_populations(self):
        m = RateModel()
        m2 = RateModel(radiative_rate_per_us=2.0 * m.radiative_rate_per_us)
        p = LevelPopulations(g0=0.5, e0=0.2, e1=0.1, s=0.2)
        assert emission_rate_per_us(p, m2) == pytest.approx(
            2.0 * emission_rate_per_us(p, m), rel=1e-12
        )

    def test_calibration_anchors_peak_rate(self):
        m, b = RateModel(), BeamProfile()
        assert fluorescence_rate(steady_state(m, 1.0), m, b) == pytest.approx(
            b.peak_counts_stationary_cps, rel=1e-9
        )

    def test_early_emission_ratio_in_contrast_band(self):
        # quasi-steady excited populations shortly after turn-on, dark vs bright
        m = RateModel()
        bright = step_rates(LevelPopulations.ms0(), m, 1.0, 0.02)
        dark = step_rates(LevelPopulations.ms1(), m, 1.0, 0.02)
        ratio = emission_rate_per_us(dark, m) / emission_rate_per_us(bright, m)
        assert 0.4 < ratio < 0.9


class TestReadout:
    def test_window_ratio_in_band(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        pro = cfg_default.protocol
        dark = expected_window_counts(
            g, b, m, 2.0, pro.turn_on_offset_us, pro.readout_window_us, LevelPopulations.ms1()
        )
        bright = expected_window_counts(
            g, b, m, 2.0, pro.turn_on_offset_us, pro.readout_window_us, LevelPopulations.ms0()
        )
        assert 0.70 <= dark / bright <= 0.80

    def test_poisson_trace_ratio_in_band(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        pro = cfg_default.protocol
        kw = dict(
            t_pulse_us=2.0,
            turn_on_offset_us=pro.turn_on_offset_us,
            shots=250_000,
            bin_width_us=pro.bin_width_us,
        )
        sig = simulate_readout(LevelPopulations.ms1(), g, b, m, seed=11, **kw)
        ref = simulate_readout(LevelPopulations.ms0(), g, b, m, seed=12, **kw)
        ratio, sigma = state_contrast(sig, ref, window_us=pro.readout_window_us)
        assert 0.70 <= ratio <= 0.80
        assert sigma < 0.02

    def test_per_bin_ratio_converges_to_one(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        dark, _ = readout_response(LevelPopulations.ms1(), g, b, m, 2.0, -0.25)
        bright, _ = readout_response(LevelPopulations.ms0(), g, b, m, 2.0, -0.25)
        early = dark[:4].sum() / bright[:4].sum()
        late = dark[-8:].sum() / bright[-8:].sum()
        assert early < 0.80
        assert late > 0.97

    def test_repump_distance_below_2_percent(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        _, f_dark = readout_response(LevelPopulations.ms1(), g, b, m, 2.0, -0.25)
        _, f_bright = readout_response(LevelPopulations.ms0(), g, b, m, 2.0, -0.25)
        assert np.max(np.abs(f_dark.as_array() - f_bright.as_array())) < 0.02
        # both land on a strongly spin-polarised state
        fs = m.singlet_branching_to_g0
        spin0 = f_dark.g0 + f_dark.e0 + fs * f_dark.s
        ss = steady_state(m, 1.0)
        spin0_ss = ss.g0 + ss.e0 + fs * ss.s
        assert abs(spin0 - spin0_ss) < 0.05

    def test_repump_distance_monotone_in_pulse_length(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        dists = []
        for t_pulse in (0.25, 0.5, 1.0, 2.0):
            _, f_dark = readout_response(LevelPopulations.ms1(), g, b, m, t_pulse, -0.25)
            _, f_bright = readout_response(LevelPopulations.ms0(), g, b, m, t_pulse, -0.25)
            dists.append(np.max(np.abs(f_dark.as_array() - f_bright.as_array())))
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))

    def test_trace_follows_transit_profile_in_linear_regime(self):
        # weak pumping: populations equilibrate fast, trace ~ collection x excitation
        g = RotorGeometry()
        b = BeamProfile()
        m = RateModel(pump_rate_peak_per_us=0.5)
        initial = steady_state(m, 1.0)
        expected, _ = readout_response(initial, g, b, m, 2.0, 0.0, bin_width_us=0.1)
        centers = (np.arange(expected.size) + 0.5) * 0.1
        profile = beam_intensity(b, transit_offset_um(g, centers))
        ratio = expected / profile
        assert np.std(ratio) / np.mean(ratio) < 0.05

    def test_monte_carlo_mean_matches_deterministic(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        shots = 400_000
        expected, _ = readout_response(LevelPopulations.ms0(), g, b, m, 2.0, -0.25)
        trace = simulate_readout(
            LevelPopulations.ms0(), g, b, m, 2.0, -0.25, shots=shots, seed=21
        )
        mean = expected * shots
        ok = np.abs(trace.counts - mean) < 3.0 * np.sqrt(np.clip(mean, 1.0, None))
        assert ok.mean() >= 0.99

    def test_linearity_in_peak_counts(self, cfg_default):
        g, m = cfg_default.geometry, cfg_default.rates
        b1 = BeamProfile(peak_counts_stationary_cps=1e5)
        b2 = BeamProfile(peak_counts_stationary_cps=3e5)
        e1, _ = readout_response(LevelPopulations.ms0(), g, b1, m, 2.0, -0.25)
        e2, _ = readout_response(LevelPopulations.ms0(), g, b2, m, 2.0, -0.25)
        assert np.allclose(e2, 3.0 * e1, rtol=1e-6)
        d1, _ = readout_response(LevelPopulations.ms1(), g, b1, m, 2.0, -0.25)
        d2, _ = readout_response(LevelPopulations.ms1(), g, b2, m, 2.0, -0.25)
        assert d2.sum() / e2.sum() == pytest.approx(d1.sum() / e1.sum(), rel=1e-6)

    def test_contrast_sigma_scales_with_shots(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        ratios = {}
        for shots in (50_000, 200_000):
            sig = simulate_readout(LevelPopulations.ms1(), g, b, m, 2.0, -0.25, shots=shots, seed=31)
            ref = simulate_readout(LevelPopulations.ms0(), g, b, m, 2.0, -0.25, shots=shots, seed=32)
            ratios[shots] = state_contrast(sig, ref, 1.0)
        # quadrupling the shots halves the standard error
        assert ratios[50_000][1] / ratios[200_000][1] == pytest.approx(2.0, rel=0.15)

    def test_contrast_errors(self):
        t = simulate_readout(
            LevelPopulations.ms0(), RotorGeometry(), BeamProfile(), RateModel(), shots=1000, seed=1
        )
        with pytest.raises(ValidationError):
            state_contrast(t, t, window_us=0.001)


def _scaled_rates(scale: float) -> dict:
    """Every rate of the default model times ``scale``, as a config section."""
    rates = dataclasses.asdict(RateModel())
    return {k: v * scale for k, v in rates.items() if k != "singlet_branching_to_g0"}


ORACLE_CONFIGS = {
    "default": {},
    "waist-0.3um": {"beam": {"waist_diameter_1e2_um": 0.3}},
    "r-2um": {"geometry": {"r_nv_um": 2.0}},
    "turn-on-1us-early": {"protocol": {"turn_on_offset_us": -1.0}},
    "illumination-only": {"beam": {"collection_mode": "illumination-only"}},
    "background-500cps": {"beam": {"background_cps": 500.0}},
    "rates-x10": {"rates": _scaled_rates(10.0)},
}
# Largest trace difference to the direct oracle, per rate scale, as a
# fraction of the trace peak.  At 1e3x rates the pass itself is only good to
# ~1e-11 of the peak: the oracle moves by up to 1.5e-11 with scipy's expm in
# place of the Pade one.  At 1e6x rates the factors are exponentiated
# directly, as in the oracle.
ORACLE_TOL = {1.0: 1e-12, 10.0: 1e-12, 1e3: 2e-11, 1e6: 1e-12}
# ms0, ms1 and a mixed state, as columns
ORACLE_STATES = np.array(
    [[1.0, 0.0, 0.4], [0.0, 1.0, 0.5], [0.0, 0.0, 0.05], [0.0, 0.0, 0.03], [0.0, 0.0, 0.02]]
)


def _dop853_counts(cfg, edges):
    """Cumulative counts (k, n_edges) and final populations (5, k), rtol 1e-12."""
    g, b, m = cfg.geometry, cfg.beam, cfg.rates
    offset = cfg.protocol.turn_on_offset_us
    cal = photophysics.detection_calibration(m, b)
    k = ORACLE_STATES.shape[1]

    def rhs(t, y):
        y = y.reshape(6, k)
        off = transit_offset_um(g, t + offset)
        inten = math.exp(-2.0 * off**2 / b.waist_radius_um**2)
        weight = inten if b.collection_mode == "confocal-squared" else 1.0
        dn = rate_matrix(m, inten) @ y[:5]
        rate = cal * m.radiative_rate_per_us * (y[2] + y[3]) * weight + b.background_cps
        return np.vstack([dn, rate * 1e-6]).ravel()

    y0 = np.vstack([ORACLE_STATES, np.zeros(k)]).ravel()
    sol = integrate.solve_ivp(
        rhs, (0.0, edges[-1]), y0, method="DOP853", t_eval=edges, rtol=1e-12, atol=1e-15
    )
    assert sol.success
    y = sol.y.reshape(6, k, -1)
    return y[5], y[:5, :, -1]


class TestReadoutOracle:
    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    def test_kernel_matches_dop853(self, name):
        cfg = config_from_dict(ORACLE_CONFIGS[name])
        g, b, m, pro = cfg.geometry, cfg.beam, cfg.rates, cfg.protocol
        t_pulse = cfg.strobe.t_pulse_us
        edges = np.linspace(0.0, t_pulse, 41)
        cumulative, final = _dop853_counts(cfg, edges)
        window_edge = int(round(pro.readout_window_us / 0.05))
        for j in range(ORACLE_STATES.shape[1]):
            initial = LevelPopulations.from_array(ORACLE_STATES[:, j])
            got, pops = readout_response(initial, g, b, m, t_pulse, pro.turn_on_offset_us, 0.05)
            want = np.diff(cumulative[j])
            assert np.abs(got - want).max() <= 1e-6 * want.max()
            assert np.allclose(pops.as_array(), final[:, j] / final[:, j].sum(), atol=1e-6)
            window = expected_window_counts(
                g, b, m, t_pulse, pro.turn_on_offset_us, pro.readout_window_us, initial
            )
            assert window == pytest.approx(cumulative[j, window_edge], rel=1e-6)

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_stiff_rates_stay_finite_and_bounded(self, scale, monkeypatch):
        cfg = config_from_dict({"rates": _scaled_rates(scale)})
        g, b, m = cfg.geometry, cfg.beam, cfg.rates
        calls = []
        real = photophysics.expm
        monkeypatch.setattr(photophysics, "expm", lambda a: calls.append(a.shape) or real(a))
        bright, final = readout_response(LevelPopulations.ms0(), g, b, m, 2.0, -0.25)
        assert calls and all(np.prod(s[:-2]) <= 2 * MAX_READOUT_STEPS for s in calls)
        assert np.all(np.isfinite(bright)) and np.all(bright >= 0.0)
        assert np.isfinite(final.as_array()).all()
        dark, _ = readout_response(LevelPopulations.ms1(), g, b, m, 2.0, -0.25)
        assert 0.0 < dark.sum() < bright.sum()

    def test_rates_that_lose_the_pass_to_rounding_are_refused(self):
        # the pass's rounding bound eps T |A(1)|_1 / theta_13 crosses 1e-3
        # between 3.5e10 and 4e10 times the default rates over a 2 us pulse
        g, b, ms0 = RotorGeometry(), BeamProfile(), LevelPopulations.ms0()
        counts, _ = readout_response(ms0, g, b, RateModel(**_scaled_rates(3.5e10)), 2.0, 0.0)
        assert np.all(np.isfinite(counts)) and counts.sum() > 0.0
        with pytest.raises(ValidationError, match="lower rates.pump_rate_peak_per_us"):
            readout_response(ms0, g, b, RateModel(**_scaled_rates(4e10)), 2.0, 0.0)

    @pytest.mark.parametrize("t_pulse", [0.5, 2.0, 6.0])
    @pytest.mark.parametrize("offset", [-2.0, -0.25, 0.5])
    @pytest.mark.parametrize("scale", [1.0, 10.0, 1e3, 1e6])
    def test_interpolated_factors_match_direct_oracle(self, scale, offset, t_pulse):
        m = config_from_dict({"rates": _scaled_rates(scale)}).rates
        g, b = RotorGeometry(), BeamProfile()
        spins = ORACLE_STATES[:, :2]
        # per-bin traces at readout_response's 0.05 us bins, and the window
        # counts of a 0.5 us early window (its pass's last edge, 8 bins)
        for n_bins, width in ((round(t_pulse / 0.05), 0.05), (8, 0.5 / 8)):
            width = t_pulse / round(t_pulse / width)
            got, got_pops = photophysics._transit_counts(spins, g, b, m, offset, n_bins, width)
            want, want_pops = readout_oracle.transit_counts(spins, g, b, m, offset, n_bins, width)
            peak = np.diff(want, axis=0).max(axis=0)
            assert np.all(np.abs(np.diff(got, axis=0) - np.diff(want, axis=0)) <= ORACLE_TOL[scale] * peak)
            # the interpolation error is smooth in the blend, so it adds up over
            # the factors: 6e-11 over the 16k factors of a stiff 6 us pass
            assert np.allclose(got_pops, want_pops, rtol=0.0, atol=1e-9)
        assert np.all(np.abs(got[-1] - want[-1]) <= ORACLE_TOL[scale] * peak)

    def test_default_pass_exponentiates_a_few_nodes(self, cfg_default, monkeypatch):
        # a silent fallback to direct exponentials would take 608 matrices in
        # the window pass and 1280 in the 40-bin trace
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        calls = []
        real = photophysics.expm
        monkeypatch.setattr(photophysics, "expm", lambda a: calls.append(a.shape) or real(a))
        pipeline.window_response(cfg_default)
        readout_response(LevelPopulations.ms0(), g, b, m, 2.0, -0.25)
        assert len(calls) == 2 and all(np.prod(s[:-2]) <= 32 for s in calls)

    def test_a_node_bound_beyond_the_float_range_warns_nothing(self):
        # at rates.pump_rate_peak_per_us=1e300 the bound of the widest ellipses
        # overflowed to inf with "overflow encountered in multiply"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 1e299 < photophysics._node_count(1e300, 1.0) < math.inf

    def test_too_many_bins_rejected(self):
        with pytest.raises(ValidationError, match="bin_width_us"):
            readout_response(
                LevelPopulations.ms0(), RotorGeometry(), BeamProfile(), RateModel(),
                2.0, 0.0, bin_width_us=2.0 / (MAX_READOUT_STEPS + 1),
            )


class TestOptimalTurnOn:
    def test_stationary_returns_zero(self):
        g = RotorGeometry(r_nv_um=0.0)
        assert optimal_turn_on(g, BeamProfile(), RateModel(), 2.0, window_us=1.0) == 0.0

    def test_rotating_optimum_near_beam_center(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        opt = optimal_turn_on(g, b, m, 2.0, window_us=1.0)
        # |opt| * v << beam radius: NV essentially under the beam centre
        v_um_per_us = 2.0 * math.pi * g.r_nv_um * g.f_rot_hz * 1e-6
        assert abs(opt) * v_um_per_us < 0.5 * b.waist_radius_um

    def test_optimum_is_stationary_point(self, cfg_default):
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        offsets = np.linspace(-3.0, 1.5, 37)  # the default grid at a 2 us pulse
        opt = optimal_turn_on(g, b, m, 2.0, window_us=1.0)
        assert opt in offsets
        step = offsets[1] - offsets[0]

        def snr(off):
            bright = expected_window_counts(g, b, m, 2.0, off, 1.0, LevelPopulations.ms0())
            dark = expected_window_counts(g, b, m, 2.0, off, 1.0, LevelPopulations.ms1())
            return (1.0 - dark / bright) * math.sqrt(bright)

        assert snr(opt) >= snr(opt - step) - 1e-12
        assert snr(opt) >= snr(opt + step) - 1e-12

    def test_default_grid_matches_per_state_search(self, cfg_default):
        # one pass carrying both states picks the offset that separate
        # per-state window counts pick on the default 37-point grid
        g, b, m = cfg_default.geometry, cfg_default.beam, cfg_default.rates
        window = cfg_default.protocol.readout_window_us
        offsets = np.linspace(-3.0, 1.5, 37)
        snrs = []
        for off in offsets:
            bright = expected_window_counts(g, b, m, 2.0, off, window, LevelPopulations.ms0())
            dark = expected_window_counts(g, b, m, 2.0, off, window, LevelPopulations.ms1())
            snrs.append((1.0 - dark / bright) * math.sqrt(bright))
        assert optimal_turn_on(g, b, m, 2.0, window_us=window) == offsets[int(np.argmax(snrs))]


# each check once compared with "<", which NaN passes; the last two then ended
# in "cannot convert float NaN to integer"
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: LevelPopulations(g0=math.nan), "populations"),
        (lambda: EchoParams(b_perp_gauss=math.nan), "b_perp_gauss"),
        (lambda: Emitter((1.0, 0.0), brightness_cps=math.nan), "brightness_cps"),
        (lambda: step_rates(LevelPopulations.ms0(), RateModel(), 1.0, math.nan), "dt_us"),
        (lambda: rate_matrix(RateModel(), math.nan), "intensity"),
        (lambda: steady_state(RateModel(), math.nan), "intensity"),
        (lambda: angular_smear(RotorGeometry(), math.nan), "t_pulse_us"),
        (lambda: c13_revival_time_us(math.nan, PhysicalConstants()), "b0_gauss"),
        (lambda: echo_phase(EchoParams(), PhysicalConstants(), [math.nan]), "tau_us"),
        (lambda: expected_count_rate(BeamProfile(), RotorGeometry(), math.nan), "t_pulse_us"),
        (lambda: c13_envelope(EchoParams(), PhysicalConstants(), [math.nan]), "tau_us"),
    ],
    ids=["LevelPopulations", "EchoParams", "Emitter", "step_rates", "rate_matrix", "steady_state",
         "angular_smear", "c13_revival_time_us", "echo_phase", "expected_count_rate", "c13_envelope"],
)
def test_library_check_refuses_nan(call, name):
    with pytest.raises(ValidationError, match=name):
        call()
