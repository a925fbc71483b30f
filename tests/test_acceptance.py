"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.  All
tolerances are fixed here; nothing is calibrated at test time.
"""

import math
import subprocess
import sys

import numpy as np
from lsq_oracle import grid_oracle, lm_problem, numeric_jacobian
from render_oracle import resolve_two_spots
from scipy import integrate

from rotornv import pipeline
from rotornv.config import (
    BeamProfile,
    FieldConfig,
    PhysicalConstants,
    RateModel,
    RotorGeometry,
    StrobeConfig,
    config_from_dict,
)
from rotornv.estimation import (
    ECHO_PARAM_NAMES,
    EchoDataset,
    EchoFitModel,
    canonical_fringe_params,
    echo_jacobian,
    fit_echo,
    fit_rabi,
)
from rotornv.geometry import TWO_PI, eac_amplitude
from rotornv.imaging import (
    Emitter,
    EmitterSet,
    ScanGrid,
    angular_smear,
    fit_spot_width,
    render_image,
)
from rotornv.photophysics import (
    LevelPopulations,
    expected_count_rate,
    readout_response,
    simulate_readout,
    state_contrast,
    step_rates,
)
from rotornv.seqlang import (
    LaserStmt,
    MwStmt,
    Quantity,
    SequenceProgram,
    WaitStmt,
    format_program,
    parse_sequence,
)
from rotornv.spindyn import EchoParams, c13_revival_time_us, echo_phase, pulse_rotation

CONSTANTS = PhysicalConstants()

# operating point used throughout: 3.33 kHz, 6.2 G, theta_NV = 54.7 deg, r = 10 um.
# theta_B chosen so the AC amplitude is exactly 88 mG; phi0 = 1.2 rad.
THETA_B_88MG = math.degrees(math.asin(0.088 / (6.2 * math.sin(math.radians(54.7)))))
PHI_NV0_DEG = math.degrees(1.2)


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def sensing_config(seed=1):
    return config_from_dict(
        {
            "geometry": {"phi_nv0_deg": PHI_NV0_DEG},
            "field": {"theta_b_deg": THETA_B_88MG},
            "seed": seed,
        }
    )


def test_criterion_1_count_rate_bound():
    b = BeamProfile(peak_counts_stationary_cps=1e5)
    g = RotorGeometry(r_nv_um=0.0, f_rot_hz=1e6 / 300.0)
    rate = expected_count_rate(b, g, 2.0)
    expected = 1e5 * 2.0 / 300.0
    ok = abs(rate - expected) <= 1e-3 * expected
    report(1, ok, f"duty-cycle bound {rate:.4f} counts/s vs {expected:.4f} (0.1%)")


def test_criterion_2_transit_reduced_rate():
    b = BeamProfile(collection_mode="confocal-squared")
    g = RotorGeometry(r_nv_um=10.0, f_rot_hz=3333.33)
    rate = expected_count_rate(b, g, 2.0)
    ok = 250.0 <= rate <= 450.0
    report(2, ok, f"transit-reduced mean rate {rate:.1f} counts/s in [250, 450]")


def test_criterion_3_angular_smear():
    g = RotorGeometry(f_rot_hz=3333.33)
    val = angular_smear(g, 2.0)
    ok = (val == 360.0 * 2e-6 * 3333.33) and round(val, 3) == 2.400
    report(3, ok, f"angular smear {val:.7f} deg == 2.400 deg")


def test_criterion_4_c13_revival():
    tau_r = c13_revival_time_us(6.2, CONSTANTS)
    t_rot = 1e6 / 3333.33
    ok = abs(tau_r - 300.1) <= 0.1 and abs(tau_r - t_rot) / t_rot <= 0.002
    report(4, ok, f"revival {tau_r:.3f} us vs 300.1 +- 0.1; vs T_rot {t_rot:.2f} us within 0.2%")


def test_criterion_5_echo_phase_oracle():
    import warnings

    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        p = EchoParams(
            b_perp_gauss=rng.uniform(0.0, 0.5),
            phi0_rad=rng.uniform(0.0, TWO_PI),
            f_rot_hz=rng.uniform(500.0, 10000.0),
        )
        tau = rng.uniform(0.0, 300.0)
        w = TWO_PI * p.f_rot_hz * 1e-6

        def detuning(t_us):
            return CONSTANTS.gamma_e_mhz_per_g * p.b_perp_gauss * math.cos(w * t_us + p.phi0_rad)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            first, _ = integrate.quad(detuning, 0.0, tau / 2.0, epsabs=1e-13, epsrel=1e-12, limit=400)
            second, _ = integrate.quad(detuning, tau / 2.0, tau, epsabs=1e-13, epsrel=1e-12, limit=400)
        oracle = TWO_PI * (first - second)
        cf = echo_phase(p, CONSTANTS, tau)
        worst = max(worst, abs(cf - oracle) / max(1.0, abs(oracle)))
    aligned = EchoParams.from_experiment(RotorGeometry(), FieldConfig(theta_b_deg=0.0))
    zero = max(abs(echo_phase(aligned, CONSTANTS, t)) for t in (10.0, 60.0, 250.0))
    ok = worst <= 1e-9 and zero < 1e-12
    report(5, ok, f"closed form vs quadrature: worst rel dev {worst:.2e} (1000 draws); aligned-field phase {zero:.1e}")


def test_criterion_6_eac_amplitude():
    g = RotorGeometry(theta_nv_deg=54.7)
    f = FieldConfig(b0_gauss=6.2, theta_b_deg=1.0)
    val = eac_amplitude(g, f)
    ok = 0.0880 <= val <= 0.0888
    report(6, ok, f"6.2 G * sin(54.7) * sin(1.0) = {val:.5f} G in [0.0880, 0.0888]")


def test_criterion_7_closed_loop_sensing():
    # noise derived from the photon statistics of ~1e6 repetitions x 3 runs
    # split over 16 interrogation times; 100 independent noise realisations
    cfg = sensing_config()
    b_true = eac_amplitude(cfg.geometry, cfg.field_cfg)
    assert abs(b_true - 0.088) < 1e-12
    taus = np.linspace(2.0, 21.0, 16)
    shots = int(3e6 / taus.size)
    cfg = cfg.replace(protocol=cfg.protocol.replace(shots_per_point=shots))
    model = EchoFitModel(constants=cfg.constants, f_rot_hz=cfg.geometry.f_rot_hz)
    hits = 0
    sigmas = []
    for trial in range(100):
        trial_cfg = cfg.replace(seed=9000 + trial)
        data, _ = pipeline.simulate_echo_scan(trial_cfg, taus)
        fit = fit_echo(data, model)
        b_hat = fit.params["b_perp_gauss"]
        s_hat = fit.sigmas["b_perp_gauss"]
        sigmas.append(s_hat)
        if abs(b_hat - b_true) <= 3.0 * s_hat:
            hits += 1
    med = float(np.median(sigmas))
    ok = hits >= 95 and 0.029 / 2.0 <= med <= 0.029 * 2.0
    report(
        7,
        ok,
        f"recovered 88 mG within 3 sigma in {hits}/100 trials; median sigma {med * 1e3:.1f} mG "
        f"(reference 29 mG, factor-2 band [14.5, 58])",
    )


def test_criterion_8_readout_contrast_and_repump():
    cfg = config_from_dict({})
    g, b, m, pro = cfg.geometry, cfg.beam, cfg.rates, cfg.protocol
    kw = dict(
        t_pulse_us=cfg.strobe.t_pulse_us,
        turn_on_offset_us=pro.turn_on_offset_us,
        shots=250_000,
        bin_width_us=pro.bin_width_us,
    )
    sig = simulate_readout(LevelPopulations.ms1(), g, b, m, seed=81, **kw)
    ref = simulate_readout(LevelPopulations.ms0(), g, b, m, seed=82, **kw)
    ratio, _ = state_contrast(sig, ref, window_us=pro.readout_window_us)
    _, final_dark = readout_response(
        LevelPopulations.ms1(), g, b, m, cfg.strobe.t_pulse_us, pro.turn_on_offset_us
    )
    _, final_bright = readout_response(
        LevelPopulations.ms0(), g, b, m, cfg.strobe.t_pulse_us, pro.turn_on_offset_us
    )
    dist = float(np.max(np.abs(final_dark.as_array() - final_bright.as_array())))
    ok = 0.70 <= ratio <= 0.80 and dist < 0.02
    report(8, ok, f"early-window ratio {ratio:.3f} in [0.70, 0.80]; repump distance {dist:.2e} < 0.02")


def test_criterion_9_imaging_widths():
    g = RotorGeometry()
    single = EmitterSet.single(10.0, 0.0)
    strobe = StrobeConfig(t_phi_us=150.0)

    grid_s = ScanGrid(x_range_um=(8.0, 12.0), y_range_um=(-2.0, 2.0), step_um=0.1, dwell_ms=200.0)
    img_s = render_image(grid_s, single, g, strobe, seed=91, stationary=True)
    sr_s, sa_s = fit_spot_width(img_s, (10.0, 0.0))

    grid_r = ScanGrid(x_range_um=(-12.5, -7.5), y_range_um=(-2.5, 2.5), step_um=0.125, dwell_ms=200.0)
    img_r = render_image(grid_r, single, g, strobe, seed=92)
    sr_r, sa_r = fit_spot_width(img_r, (-10.0, 0.0))

    dphi = 2.0 * math.asin(3.6 / 20.0)
    pair = EmitterSet(
        (
            Emitter((10.0, 0.0), 1e5),
            Emitter((10.0 * math.cos(dphi), 10.0 * math.sin(dphi)), 1e5),
        )
    )
    grid_2 = ScanGrid(x_range_um=(7.0, 12.5), y_range_um=(-1.8, 5.2), step_um=0.15, dwell_ms=200.0)
    img_2 = render_image(grid_2, pair, g, StrobeConfig(t_phi_us=0.0), seed=93)
    pa, pb, valley = resolve_two_spots(
        img_2, (10.0, 0.0), (10.0 * math.cos(dphi), 10.0 * math.sin(dphi))
    )

    ok_s = abs(sr_s - 0.30) <= 0.03 and abs(sa_s - 0.30) <= 0.03
    ok_r = abs(sr_r - 0.9) <= 0.18
    ok_2 = valley < 0.5 * min(pa, pb)
    ok = ok_s and ok_r and ok_2
    report(
        9,
        ok,
        f"stationary width ({sr_s:.3f}, {sa_s:.3f}) um = 0.30 +- 0.03; rotating radial {sr_r:.3f} um "
        f"= 0.9 +- 0.18 (azimuthal {sa_r:.3f}); two emitters 3.6 um apart: valley {valley:.0f} "
        f"< 50% of peaks ({pa:.0f}, {pb:.0f})",
    )


def test_criterion_10_rabi_recovery():
    cfg = config_from_dict({"seed": 10, "protocol": {"shots_per_point": 100_000}})
    durations = np.linspace(0.0, 1.1, 40)
    data, _ = pipeline.simulate_rabi_scan(cfg, durations)
    fit = fit_rabi(data)
    omega = fit.params["rabi_freq_mhz"]
    sigma = fit.sigmas["rabi_freq_mhz"]
    ok = abs(omega - 3.6) <= 3.0 * sigma and sigma <= 0.2
    report(10, ok, f"Rabi fit {omega:.4f} +- {sigma:.4f} MHz vs 3.6 MHz (|bias| <= 3 sigma, sigma <= 0.2)")


def test_criterion_11a_spin_norm_conservation():
    rng = np.random.default_rng(111)
    bloch = np.array([0.6, 0.0, 0.8])
    worst = 0.0
    for _ in range(300):
        duration, rabi, detuning, phase = (
            rng.uniform(0.0, 3.0),
            rng.uniform(0.0, 8.0),
            rng.uniform(-3.0, 3.0),
            rng.uniform(0.0, TWO_PI),
        )
        bloch = pulse_rotation(bloch, rabi, detuning, duration, phase)
        worst = max(worst, abs(float(np.linalg.norm(bloch)) - 1.0))
    report(11, worst < 1e-12, f"spin norm conservation: worst drift {worst:.2e} < 1e-12 (300 pulses)")


def test_criterion_11b_population_conservation():
    m = RateModel()
    p = LevelPopulations.ms1()
    rng = np.random.default_rng(112)
    for _ in range(500):
        p = step_rates(p, m, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.1)))
    drift = abs(p.as_array().sum() - 1.0)
    report(11, drift < 1e-6, f"population conservation: drift {drift:.2e} < 1e-6 (500 steps)")


def test_criterion_11c_jacobian_agreement():
    model = EchoFitModel()
    tau = np.linspace(2.0, 21.0, 16)
    y = model.predict(tau, 0.088, 1.2, 0.25, 0.877)
    data = EchoDataset(tau, y + 0.005, np.full(tau.size, 0.01))
    x = np.array([0.07, 0.9, 0.22, 0.88])

    def residual(p):
        return (model.predict(tau, *p) - data.signal) / data.sigma

    analytic = echo_jacobian(data, model, dict(zip(ECHO_PARAM_NAMES, x)))
    numeric = numeric_jacobian(residual, x, rel_step=1e-6)
    dev_jac = float(np.max(np.abs(analytic - numeric))) / float(np.max(np.abs(analytic)))
    # the fit's gradient J^T r on the projected cost, (b, phi0) only
    start = dict(b_perp_gauss=0.088, phi0_rad=1.2)
    projected, jacobian, _ = lm_problem(fit_echo, data, model, start)
    grad = jacobian(x[:2]).T @ projected(x[:2])
    cost = lambda z: np.array([0.5 * float(projected(z) @ projected(z))])
    numeric_grad = numeric_jacobian(cost, x[:2], rel_step=1e-6)[0]
    dev_grad = float(np.max(np.abs(grad - numeric_grad))) / float(np.max(np.abs(grad)))
    dev = max(dev_jac, dev_grad)
    report(
        11,
        dev <= 1e-6,
        f"analytic vs finite-difference Jacobian and projected gradient: max rel dev {dev:.2e} <= 1e-6",
    )


def test_criterion_11d_parser_round_trip_1000():
    rng = np.random.default_rng(113)
    count = 0
    for i in range(1000):
        params = tuple(
            (f"p{j}", Quantity(float(np.round(rng.uniform(0, 500), 6)), "us"))
            for j in range(int(rng.integers(0, 3)))
        )
        stmts = []
        t = 0.0
        for _ in range(int(rng.integers(1, 5))):
            choice = int(rng.integers(0, 3))
            at = Quantity(float(np.round(t, 6)), "us")
            if choice == 0:
                stmts.append(WaitStmt(Quantity(float(np.round(rng.uniform(0, 50), 6)), "us")))
            elif choice == 1:
                stmts.append(MwStmt("pi" if rng.random() < 0.5 else "pi/2", None, None, at))
            else:
                stmts.append(LaserStmt(Quantity(2.0, "us"), at))
            t += 60.0
        prog = SequenceProgram(params, tuple(stmts))
        if parse_sequence(format_program(prog)) == prog:
            count += 1
    report(11, count == 1000, f"parser round-trip: {count}/1000 generated programs identical")


def test_criterion_11e_grid_oracle_equivalence():
    model = EchoFitModel()
    rng = np.random.default_rng(777)
    tau = np.linspace(2.0, 58.0, 24)
    half = math.pi / 2.0
    agree = 0
    for k in range(50):
        b = rng.uniform(0.05, 0.15)
        phi0 = rng.uniform(0.4, TWO_PI - 0.4)
        contrast = rng.uniform(0.15, 0.4)
        baseline = rng.uniform(0.8, 0.95)
        y = model.predict(tau, b, phi0, contrast, baseline)
        y = y + 0.0025 * np.random.default_rng(4000 + k).standard_normal(tau.size)
        data = EchoDataset(tau, y, np.full(tau.size, 0.0025))
        fit = fit_echo(data, model)
        oracle = grid_oracle(data, model, b_bounds=(0.0, 0.25), n_b=84, n_phi=480)
        polished = fit_echo(data, model, initial=oracle.params)
        fp = canonical_fringe_params(fit.params)
        pp = canonical_fringe_params(polished.params)
        op = canonical_fringe_params(oracle.params)
        same_optimum = (
            fit.residual_norm**2 <= oracle.sse + 1e-9
            and abs(fp["b_perp_gauss"] - pp["b_perp_gauss"]) <= 1e-4
            and abs((fp["phi0_rad"] - pp["phi0_rad"] + half) % math.pi - half) <= 1e-3
            and abs(fp["b_perp_gauss"] - op["b_perp_gauss"]) <= 0.01
        )
        if same_optimum:
            agree += 1
    report(11, agree == 50, f"grid-oracle equivalence: {agree}/50 synthetic fits")


def test_criterion_11f_deterministic_outputs():
    args = [
        sys.executable,
        "-m",
        "rotornv.cli",
        "simulate-echo",
        "--tau", "2:21:8",
        "--shots", "20000",
        "--set", f"field.theta_b_deg={THETA_B_88MG}",
        "--seed", "5",
    ]
    a = subprocess.run(args, capture_output=True, text=True)
    b = subprocess.run(args, capture_output=True, text=True)
    ok = a.returncode == 0 and a.stdout == b.stdout and len(a.stdout) > 0
    report(11, ok, "deterministic reproduction: identical config+seed give byte-identical output")
