import math

import numpy as np
import pytest

from rotornv import estimation, lsq
from rotornv.errors import IdentifiabilityError, ValidationError
from rotornv.estimation import (
    ECHO_PARAM_NAMES,
    EchoDataset,
    EchoFitModel,
    canonical_fringe_params,
    echo_jacobian,
    fit_echo,
    fit_rabi,
    profile_identifiability,
    _echo_basis,
)
from rotornv.lsq import levenberg_marquardt, solve_linear_pair
from rotornv.cli import main
from rotornv.config import RotorGeometry
from rotornv.geometry import TWO_PI
from rotornv.imaging import StrobedImage, fit_spot_width
from rotornv.pipeline import read_echo_dataset
from lsq_oracle import grid_oracle, lm_problem, numeric_jacobian


MODEL = EchoFitModel()


def echo_problem(data, x):
    """The projected residual and Jacobian that fit_echo hands to LM, from a start at x."""
    residual, jacobian, _ = lm_problem(fit_echo, data, MODEL, dict(b_perp_gauss=x[0], phi0_rad=x[1]))
    return residual, jacobian


def synth_dataset(b=0.088, phi0=1.2, contrast=0.25, baseline=0.877,
                  tau=None, sigma=0.01, noise_seed=None):
    tau = np.linspace(2.0, 21.0, 16) if tau is None else tau
    y = MODEL.predict(tau, b, phi0, contrast, baseline)
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        y = y + sigma * rng.standard_normal(tau.size)
    return EchoDataset(tau, y, np.full(tau.size, sigma))


class TestDataset:
    def test_requires_increasing_tau(self):
        with pytest.raises(ValidationError):
            EchoDataset(np.array([1.0, 1.0, 2.0]), np.zeros(3), np.ones(3))

    def test_requires_positive_sigma(self):
        with pytest.raises(ValidationError):
            EchoDataset(np.array([1.0, 2.0, 3.0]), np.zeros(3), np.array([1.0, 0.0, 1.0]))


class TestLevenbergMarquardt:
    def test_monotone_cost_decrease(self):
        data = synth_dataset(noise_seed=5)
        residual, jacobian = echo_problem(data, [0.2, 0.5])
        costs = []
        orig = residual

        def tracking_residual(x):
            r = orig(x)
            costs.append(0.5 * float(r @ r))
            return r

        levenberg_marquardt(tracking_residual, jacobian, np.array([0.2, 0.5]))
        # accepted costs never increase; probes may be worse but are rejected
        accepted = [costs[0]]
        for c in costs[1:]:
            if c <= accepted[-1]:
                accepted.append(c)
        assert accepted[-1] <= accepted[0]

    def test_stops_at_the_cost_rounding_floor(self):
        # the gradient stalls at 1e-7, ten times _GRAD_TOL of the unit cost,
        # but the Gauss-Newton step would lower the cost by ~2.5e-17, which
        # the residual loses against its 1e8 offset: every trial would come
        # back at the same cost.  LM stops at once, without a trial step.
        jac = np.array([[10.0], [-(10.0 - 1e-7)]])
        calls = {"residual": 0, "jacobian": 0}

        def residual(x):
            calls["residual"] += 1
            return (1e8 + jac @ x) - 1e8 + 1.0

        def jacobian(x):
            calls["jacobian"] += 1
            return jac

        lm = levenberg_marquardt(residual, jacobian, np.zeros(1))
        assert lm.converged
        assert lm.grad_norm > 5.0 * lsq._GRAD_TOL * lm.cost
        assert lm.x.tolist() == [0.0] and lm.cost == 1.0 and lm.iterations == 1
        assert calls == {"residual": 1, "jacobian": 1}


@pytest.mark.parametrize("f_rot_hz", [0.0, -3333.33, math.inf, math.nan, 1e308, 3e-303, 1e-320, 6e305])
def test_fit_model_refuses_the_rotation_rates_the_geometry_refuses(f_rot_hz):
    # each once reached phase_factor as a NaN or a numpy RuntimeWarning
    with pytest.raises(ValidationError) as want:
        RotorGeometry(f_rot_hz=f_rot_hz)
    with pytest.raises(ValidationError) as got:
        EchoFitModel(f_rot_hz=f_rot_hz).phase_factor([1.0, 2.0], 0.0)
    assert str(got.value) == str(want.value)


class TestFitEcho:
    def test_noiseless_exact_recovery(self):
        data = synth_dataset()
        fit = fit_echo(data, MODEL)
        assert fit.params["b_perp_gauss"] == pytest.approx(0.088, abs=1e-6)
        assert fit.params["phi0_rad"] == pytest.approx(1.2, abs=1e-5)
        assert fit.params["contrast"] == pytest.approx(0.25, abs=1e-6)
        assert fit.params["baseline"] == pytest.approx(0.877, abs=1e-7)
        assert fit.residual_norm < 1e-6
        assert fit.converged

    def test_zero_field_data_consistent_with_zero(self):
        data = synth_dataset(b=0.0, noise_seed=3)
        fit = fit_echo(data, MODEL)
        assert abs(fit.params["b_perp_gauss"]) < 2.0 * fit.sigmas["b_perp_gauss"]

    def test_needs_eight_points(self):
        tau = np.linspace(1.0, 10.0, 7)
        with pytest.raises(ValidationError):
            fit_echo(EchoDataset(tau, np.ones(7) * 0.8, np.ones(7) * 0.01), MODEL)

    def test_covariance_matrix_properties(self):
        fit = fit_echo(synth_dataset(noise_seed=11), MODEL)
        cov = fit.covariance
        assert np.allclose(cov, cov.T, atol=1e-8)
        eigvals = np.linalg.eigvalsh(cov)
        assert np.all(eigvals > -1e-8 * max(eigvals.max(), 1e-30))

    def test_reorder_invariance(self):
        data = synth_dataset(noise_seed=21)
        fit_a = fit_echo(data, MODEL)
        # same records, different assembly path (reversed then re-sorted by ctor contract)
        order = np.argsort(data.tau_us[::-1])
        tau = data.tau_us[::-1][order]
        sig = data.signal[::-1][order]
        err = data.sigma[::-1][order]
        fit_b = fit_echo(EchoDataset(tau, sig, err), MODEL)
        assert fit_a.params["b_perp_gauss"] == pytest.approx(
            fit_b.params["b_perp_gauss"], rel=1e-9
        )

    def test_covariance_tracks_monte_carlo_scatter(self):
        # reported sigma within a factor 2 of the true parameter scatter
        sigma_pt = 0.011
        b_hats, b_sigmas = [], []
        for seed in range(200):
            data = synth_dataset(sigma=sigma_pt, noise_seed=seed)
            fit = fit_echo(data, MODEL)
            b_hats.append(fit.params["b_perp_gauss"])
            b_sigmas.append(fit.sigmas["b_perp_gauss"])
        scatter = np.std(b_hats)
        median_reported = np.median(b_sigmas)
        assert 0.5 < median_reported / scatter < 2.0

    def test_weak_fringe_converges_with_bounded_contrast(self):
        # unbounded, this dataset ends in a valley at contrast ~20, baseline ~-9
        fit = fit_echo(synth_dataset(sigma=0.011, noise_seed=49), MODEL)
        assert fit.converged
        assert 0.0 <= fit.params["contrast"] <= 1.0

    def test_flat_data_raise_identifiability(self):
        tau = np.linspace(2.0, 21.0, 16)
        with pytest.raises(IdentifiabilityError):
            fit_echo(EchoDataset(tau, np.full(tau.size, 0.85), np.full(tau.size, 0.01)), MODEL)

    def test_projected_gradient_exact_at_contrast_bound(self):
        data = synth_dataset(noise_seed=8)
        x = np.array([0.01, 0.9])
        residual, jacobian = echo_problem(data, x)
        u, _ = _echo_basis(MODEL, data.tau_us, *x)
        assert solve_linear_pair(u, data.signal, data.sigma**-2)[0] > 1.0  # the bound is active here
        grad = jacobian(x).T @ residual(x)
        cost = lambda z: np.array([0.5 * float(residual(z) @ residual(z))])
        numeric = numeric_jacobian(cost, x, rel_step=1e-6)[0]
        assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-6 * np.max(np.abs(grad)))

    def test_initial_needs_b_and_phi0(self):
        with pytest.raises(ValidationError):
            fit_echo(synth_dataset(), MODEL, initial=dict(b_perp_gauss=0.09))

    def test_explicit_initial_guess_honoured(self):
        data = synth_dataset()
        fit = fit_echo(
            data,
            MODEL,
            initial=dict(b_perp_gauss=0.09, phi0_rad=1.1, contrast=0.2, baseline=0.9),
        )
        assert fit.params["b_perp_gauss"] == pytest.approx(0.088, abs=1e-6)

    def test_phi0_reported_in_half_turn(self):
        # (b, phi0) and (b, phi0 + pi) give the same fringe; the fit reports phi0 in [0, pi)
        rng = np.random.default_rng(2718)
        for k in range(20):
            phi0 = rng.uniform(0.0, TWO_PI)
            data = synth_dataset(phi0=phi0, noise_seed=3000 + k)
            fit = fit_echo(data, MODEL)
            assert 0.0 <= fit.params["phi0_rad"] < math.pi, (k, phi0, fit.params)


class TestGridOracle:
    def test_refinement_never_increases_sse(self):
        data = synth_dataset(noise_seed=31)
        coarse = grid_oracle(data, MODEL, n_b=31, n_phi=24)
        fine = grid_oracle(data, MODEL, n_b=61, n_phi=48)
        assert fine.sse <= coarse.sse + 1e-12

    def test_fit_dominates_grid(self):
        data = synth_dataset(noise_seed=41)
        fit = fit_echo(data, MODEL)
        oracle = grid_oracle(data, MODEL, b_bounds=(0.0, 0.3), n_b=121, n_phi=96)
        assert fit.residual_norm**2 <= oracle.sse + 1e-9

    def test_equivalence_on_fifty_synthetic_fits(self):
        """fit_echo and the exhaustive grid land on the same optimum, 50/50.

        The covariant fringe landscape has a flat valley (phi only pinned to
        ~0.05-0.2 rad by 24-point data at this noise), so the grid argmin
        wanders along the valley floor at scales below that.  The equivalence
        is therefore asserted in three parts: (1) optimizer dominance in SSE,
        (2) LM-polishing the oracle's argmin reproduces fit_echo's optimum to
        numerical precision (same basin, same point), (3) raw argmin proximity
        at the landscape's intrinsic resolution (one 10 mG amplitude band,
        0.2 rad of phase).
        """
        rng = np.random.default_rng(777)
        tau = np.linspace(2.0, 58.0, 24)
        half = math.pi / 2.0
        for k in range(50):
            b = rng.uniform(0.05, 0.15)
            phi0 = rng.uniform(0.4, TWO_PI - 0.4)
            contrast = rng.uniform(0.15, 0.4)
            baseline = rng.uniform(0.8, 0.95)
            data = synth_dataset(
                b, phi0, contrast, baseline, tau=tau, sigma=0.0025, noise_seed=1000 + k
            )
            fit = fit_echo(data, MODEL)
            oracle = grid_oracle(data, MODEL, b_bounds=(0.0, 0.25), n_b=84, n_phi=480)
            assert fit.residual_norm**2 <= oracle.sse + 1e-9  # dominance

            polished = fit_echo(data, MODEL, initial=oracle.params)
            fp = canonical_fringe_params(fit.params)
            pp = canonical_fringe_params(polished.params)
            assert abs(fp["b_perp_gauss"] - pp["b_perp_gauss"]) <= 1e-4
            assert abs((fp["phi0_rad"] - pp["phi0_rad"] + half) % math.pi - half) <= 1e-3
            assert polished.residual_norm**2 == pytest.approx(
                fit.residual_norm**2, rel=1e-6, abs=1e-6
            )

            op = canonical_fringe_params(oracle.params)
            assert abs(fp["b_perp_gauss"] - op["b_perp_gauss"]) <= 0.01
            assert abs((fp["phi0_rad"] - op["phi0_rad"] + half) % math.pi - half) <= 0.2


class TestFitRabi:
    def test_noiseless_recovery(self):
        t = np.linspace(0.0, 1.1, 40)
        y = 0.877 - 0.25 * np.sin(math.pi * 3.6 * t) ** 2
        data = EchoDataset(t, y, np.full(t.size, 0.01))
        fit = fit_rabi(data)
        assert fit.params["rabi_freq_mhz"] == pytest.approx(3.6, abs=1e-6)
        assert fit.converged

    def test_noisy_recovery_within_3_sigma(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 1.1, 40)
        y = 0.877 - 0.25 * np.sin(math.pi * 3.6 * t) ** 2 + 0.02 * rng.standard_normal(t.size)
        fit = fit_rabi(EchoDataset(t, y, np.full(t.size, 0.02)))
        assert abs(fit.params["rabi_freq_mhz"] - 3.6) < 3.0 * fit.sigmas["rabi_freq_mhz"]

    def test_zero_contrast_raises_identifiability(self):
        t = np.linspace(0.0, 1.1, 30)
        y = np.full(t.size, 0.85)
        with pytest.raises(IdentifiabilityError):
            fit_rabi(EchoDataset(t, y, np.full(t.size, 0.01)))

    def test_needs_six_points(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValidationError):
            fit_rabi(EchoDataset(t, np.zeros(5), np.ones(5)))


# The chirp-z start scan against the sine grid it stands in for.  Both take
# the SSE as a difference of sums up to ~1e6 times larger on the quietest
# data here, so rounding alone reaches ~1e-9 of it; a relative error above
# this bound is no rounding.
SCAN_RTOL = 1e-7


def _rabi_scan(rng, t, omega, contrast, sigma):
    y = 0.9 + contrast * np.sin(math.pi * omega * t) ** 2 + sigma * rng.standard_normal(t.size)
    return EchoDataset(t, y, np.full(t.size, sigma))


def _assert_same_start(data):
    """The chirp-z SSE matches the sine grid and picks its start, or LM ends as from the grid's."""
    t, n = data.tau_us, len(data)
    span = t[-1] - t[0]
    grid = np.linspace(0.25 / span, 0.5 * n / span, 256)
    w = 1.0 / data.sigma**2
    fast = estimation._chirp_z_sse(t[0], span / (n - 1), data.signal, w, grid)
    oracle = estimation._sine_grid_sse(t, data.signal, w, grid)
    assert np.max(np.abs(fast - oracle) / oracle) <= SCAN_RTOL
    i, j = int(np.argmin(fast)), int(np.argmin(oracle))
    if i != j:  # a near-tie flipped the cell: both starts must reach one optimum
        a, b = (fit_rabi(data, {"rabi_freq_mhz": grid[k]}) for k in (i, j))
        assert a.params["rabi_freq_mhz"] == pytest.approx(b.params["rabi_freq_mhz"], abs=1e-6)


def _spy_start_scans(monkeypatch):
    """Record (scan, number of candidates) for each start scan fit_rabi runs."""
    calls = []
    for name in ("_chirp_z_sse", "_sine_grid_sse"):
        real = getattr(estimation, name)

        def spy(*args, real=real, name=name):
            calls.append((name, args[-1].size))
            return real(*args)

        monkeypatch.setattr(estimation, name, spy)
    return calls


class TestRabiStartScan:
    def test_chirp_z_scan_matches_the_sine_grid(self):
        rng = np.random.default_rng(18)
        for case in range(60):
            n = (6, 800)[case] if case < 2 else int(rng.integers(6, 801))
            span = rng.uniform(0.2, 5.0)
            t0 = rng.uniform(0.05, 3.0) if case % 3 else 0.0
            top = 0.5 * n / span  # the top of the scan grid
            # every other case near the top, where the grid's cells alias
            omega = rng.uniform(0.97, 1.0) * top if case % 2 else rng.uniform(0.5, 0.9 * top)
            contrast = rng.choice([-1.0, 1.0]) * rng.choice([0.02, 0.1, 0.3])
            sigma = rng.choice([1e-3, 1e-2, 5e-2])
            t = np.linspace(t0, t0 + span, n)
            _assert_same_start(_rabi_scan(rng, t, omega, contrast, sigma))

    @pytest.mark.parametrize("durations", ["0:1.1:400", "0.3:1.4:400", "0:2.2:800"])
    @pytest.mark.parametrize("pulse_at", ["start", "half"])
    def test_written_scan_read_back_takes_the_same_start(self, tmp_path, durations, pulse_at):
        # the %.9g dataset text moves each duration off the uniform grid
        path = str(tmp_path / "rabi.dat")
        argv = ["simulate-rabi", "--durations", durations, "--pulse-at", pulse_at, "--seed", "18"]
        assert main([*argv, "-o", path]) == 0
        data, _ = read_echo_dataset(path)
        t = data.tau_us
        steps = (t - t[0]) / ((t[-1] - t[0]) / (t.size - 1))
        assert np.max(np.abs(steps - np.arange(t.size))) <= estimation._UNIFORM_STEP_TOLERANCE
        _assert_same_start(data)

    def test_uniform_durations_take_the_chirp_z_scan_and_fit_as_the_sine_grid(self, monkeypatch):
        data = _rabi_scan(np.random.default_rng(3), np.linspace(0.2, 1.3, 400), 3.6, -0.25, 0.01)
        calls = _spy_start_scans(monkeypatch)
        fit = fit_rabi(data)
        assert calls == [("_chirp_z_sse", 256)]
        monkeypatch.setattr(estimation, "_UNIFORM_STEP_TOLERANCE", -1.0)  # no grid is uniform
        assert fit_rabi(data).as_text() == fit.as_text()
        assert calls[1:] == [("_sine_grid_sse", 256)]

    def test_comma_list_durations_take_the_sine_grid(self, tmp_path, monkeypatch):
        durations = "0,0.03,0.07,0.12,0.18,0.25,0.33,0.42,0.52,0.63,0.75,0.88,1.02"
        path = str(tmp_path / "rabi.dat")
        assert main(["simulate-rabi", "--durations", durations, "--seed", "5", "-o", path]) == 0
        data, _ = read_echo_dataset(path)
        calls = _spy_start_scans(monkeypatch)
        fit = fit_rabi(data)
        assert calls == [("_sine_grid_sse", 256)]
        t = data.tau_us
        grid = np.linspace(0.25 / (t[-1] - t[0]), 0.5 * t.size / (t[-1] - t[0]), 256)
        u = np.sin(math.pi * grid[:, None] * t) ** 2
        sse = solve_linear_pair(u, data.signal, 1.0 / data.sigma**2)[2]
        start = {"rabi_freq_mhz": float(grid[np.argmin(sse)])}
        assert fit.as_text() == fit_rabi(data, start).as_text()

    def test_initial_start_takes_the_sine_grid(self, monkeypatch):
        data = _rabi_scan(np.random.default_rng(4), np.linspace(0.0, 1.1, 40), 3.6, -0.25, 0.02)
        calls = _spy_start_scans(monkeypatch)
        fit = fit_rabi(data, {"rabi_freq_mhz": 3.5})
        assert calls == [("_sine_grid_sse", 1)]
        assert abs(fit.params["rabi_freq_mhz"] - 3.6) < 3.0 * fit.sigmas["rabi_freq_mhz"]


class TestProfiles:
    def test_profile_minimum_at_fit_optimum(self):
        data = synth_dataset(noise_seed=51)
        fit = fit_echo(data, MODEL)
        b_hat = fit.params["b_perp_gauss"]
        values = np.linspace(max(b_hat - 0.02, 1e-4), b_hat + 0.02, 21)
        profile = profile_identifiability(data, MODEL, "b_perp_gauss", values)
        i_min = int(np.argmin(profile.sse))
        assert abs(values[i_min] - b_hat) <= (values[1] - values[0]) + 1e-12

    def test_short_tau_valley_is_flat(self):
        # same point count and noise, but a range with little accumulated phase
        tau_full = np.linspace(2.0, 21.0, 16)
        tau_short = np.linspace(0.5, 6.0, 16)
        values = np.linspace(0.05, 0.13, 17)

        def curvature(tau):
            data = synth_dataset(tau=tau, sigma=0.01)
            profile = profile_identifiability(data, MODEL, "b_perp_gauss", values)
            coeffs = np.polyfit(values - 0.088, profile.sse, 2)
            return coeffs[0]

        assert curvature(tau_short) / curvature(tau_full) < 0.5

    def test_profile_periodic_in_phi0(self):
        data = synth_dataset(noise_seed=61)
        values = np.linspace(0.5, 1.9, 8)
        p1 = profile_identifiability(data, MODEL, "phi0_rad", values)
        p2 = profile_identifiability(data, MODEL, "phi0_rad", values + TWO_PI)
        assert np.allclose(p1.sse, p2.sse, rtol=1e-6, atol=1e-9)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            profile_identifiability(synth_dataset(), MODEL, "bogus", np.array([1.0]))

    @pytest.mark.parametrize("name", ["contrast", "baseline"])
    def test_linear_parameter_rejected(self, name):
        # contrast and baseline are solved at every point, never profiled
        with pytest.raises(ValidationError):
            profile_identifiability(synth_dataset(), MODEL, name, np.array([1.0]))


class TestExternalJacobian:
    def test_matches_finite_differences(self):
        data = synth_dataset(noise_seed=71)
        params = dict(b_perp_gauss=0.09, phi0_rad=1.3, contrast=0.24, baseline=0.88)
        jac = echo_jacobian(data, MODEL, params)

        def residual_ext(x):
            pred = MODEL.predict(data.tau_us, x[0], x[1], x[2], x[3])
            return (pred - data.signal) / data.sigma

        x0 = np.array([params[n] for n in ECHO_PARAM_NAMES])
        numeric = numeric_jacobian(residual_ext, x0, rel_step=1e-7)
        scale = np.max(np.abs(jac))
        assert np.allclose(jac, numeric, atol=1e-6 * scale, rtol=1e-6)


def _echo_problem(noise_seed):
    x = np.array([0.088, 1.2])
    return (*echo_problem(synth_dataset(noise_seed=noise_seed), x), x)


def _rabi_problem(noise_seed):
    t = np.linspace(0.0, 1.1, 40)
    y = 0.877 - 0.25 * np.sin(math.pi * 3.6 * t) ** 2  # the contrast is negative
    if noise_seed is not None:
        y = y + 0.02 * np.random.default_rng(noise_seed).standard_normal(t.size)
    return lm_problem(fit_rabi, EchoDataset(t, y, np.full(t.size, 0.02)))


def _spot_image(noise_seed):
    xs, ys = np.arange(37) * 0.15 + 7.0, np.arange(49) * 0.15 - 2.0
    gx, gy = np.meshgrid(xs, ys)
    lam = 4.0 + 300.0 * np.exp(-2.0 * ((gx - 10.05) ** 2 / 0.9**2 + (gy - 0.1) ** 2 / 0.45**2))
    counts = lam if noise_seed is None else np.random.default_rng(noise_seed).poisson(lam)
    return StrobedImage(counts, xs, ys, 0.0067)


def _spot_problem(noise_seed):
    return lm_problem(fit_spot_width, _spot_image(noise_seed), (10.0, 0.0))


class TestSeparable:
    """Kaufman's Jacobian of each fit against finite differences of its projected residual.

    At a zero residual the Golub-Pereyra term that Kaufman drops vanishes,
    so the Jacobian is the exact one.  Elsewhere that term lies in the span
    of the linear columns, orthogonal to the residual, so J^T r is still
    the exact gradient of the projected cost.
    """

    @pytest.mark.parametrize("problem", [_echo_problem, _rabi_problem, _spot_problem])
    def test_exact_at_zero_residual(self, problem):
        residual, jacobian, x = problem(None)
        assert np.max(np.abs(residual(x))) < 1e-8
        jac = jacobian(x)
        numeric = numeric_jacobian(residual, x, rel_step=1e-7)
        assert np.allclose(jac, numeric, rtol=1e-6, atol=1e-6 * np.max(np.abs(jac)))

    @pytest.mark.parametrize("problem", [_echo_problem, _rabi_problem, _spot_problem])
    def test_gradient_exact_away_from_the_optimum(self, problem):
        residual, jacobian, x = problem(3)
        x = x * 1.02
        r = residual(x)
        grad = jacobian(x).T @ r
        numeric = numeric_jacobian(residual, x, rel_step=1e-7).T @ r
        assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-6 * np.max(np.abs(grad)))


def _basis_passes(monkeypatch, fit, *args):
    """(basis calls, LM residual evaluations) of each separable fit that ``fit(*args)`` runs."""
    counts = []
    real_fit, real_lm = lsq.fit_separable, lsq.levenberg_marquardt

    def counting_fit(basis, *a, **kw):
        counts.append([0, 0])

        def counted_basis(*b):
            counts[-1][0] += 1
            return basis(*b)

        return real_fit(counted_basis, *a, **kw)

    def counting_lm(residual, jacobian, x0, **kw):
        def counted_residual(x):
            counts[-1][1] += 1
            return residual(x)

        return real_lm(counted_residual, jacobian, x0, **kw)

    monkeypatch.setattr(lsq, "fit_separable", counting_fit)
    monkeypatch.setattr(lsq, "levenberg_marquardt", counting_lm)
    fit(*args)
    return counts


@pytest.mark.parametrize(
    "fit, args",
    [
        (fit_spot_width, (_spot_image(3), (10.0, 0.0))),
        (fit_rabi, (_rabi_scan(np.random.default_rng(3), np.linspace(0.0, 1.1, 40), 3.6, -0.25, 0.02),)),
        (fit_echo, (synth_dataset(noise_seed=3), MODEL)),
    ],
    ids=["spot", "rabi", "echo"],
)
def test_one_basis_pass_per_residual_evaluation(monkeypatch, fit, args):
    # the Jacobian reuses the basis of the residual at its x; one more pass
    # may follow LM, when its last trial was rejected
    counts = _basis_passes(monkeypatch, fit, *args)
    assert counts and all(residuals > 1 for _, residuals in counts)
    for basis_calls, residuals in counts:
        assert basis_calls <= residuals + 1
