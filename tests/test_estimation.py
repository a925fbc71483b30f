import math
import warnings

import numpy as np
import pytest

from rotornv import estimation, lsq, pipeline
from rotornv.errors import IdentifiabilityError, ValidationError
from rotornv.estimation import (
    ECHO_PARAM_NAMES,
    EchoDataset,
    EchoFitModel,
    canonical_fringe_params,
    echo_jacobian,
    fit_echo,
    fit_rabi,
)
from rotornv.lsq import levenberg_marquardt
from rotornv.cli import main
from rotornv.config import RotorGeometry, config_from_dict
from rotornv.geometry import TWO_PI
from rotornv.imaging import StrobedImage, fit_spot_width
from rotornv.pipeline import read_echo_dataset
from lsq_oracle import exact_covariance, grid_oracle, lm_problem, numeric_jacobian


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


class TestCheckIdentified:
    COLUMN = np.linspace(1.0, 2.0, 30)

    @pytest.mark.parametrize(
        "jac",
        [np.column_stack([COLUMN, COLUMN, COLUMN**2]), np.zeros((30, 3))],
        ids=["duplicated-column", "zero"],
    )
    def test_rank_deficient_text_quotes_no_rounding_noise(self, jac):
        # the condition of a duplicated column is the ratio of sv_max to a
        # rounding-level sv_min (3.47e+21 or 1e+21 after a last-bit change),
        # and a zero Jacobian printed "condition 0"
        with pytest.raises(IdentifiabilityError) as info:
            lsq.check_identified(jac)
        assert "(numerically rank-deficient)" in str(info.value)
        assert "condition" not in str(info.value)

    def test_resolved_condition_is_quoted(self):
        jac = np.column_stack([self.COLUMN, 1e-13 * self.COLUMN**2])
        with pytest.raises(IdentifiabilityError, match=r"singular Jacobian at the optimum \(condition [0-9.]+e\+1[3-5]\)"):
            lsq.check_identified(jac)

    def test_identified_jacobian_passes(self):
        lsq.check_identified(np.column_stack([self.COLUMN, self.COLUMN**2]))

    @pytest.mark.parametrize("condition", [1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11])
    def test_covariance_is_the_exact_inverse_up_to_the_refused_condition(self, condition):
        # pinv(J^T J) missed sigma by 1.2e-5 at condition 1e6 and dropped the
        # weakest direction from 1e8 on, since J^T J squares the condition
        rng = np.random.default_rng(round(math.log10(condition)))
        u, _ = np.linalg.qr(rng.standard_normal((16, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        jac = (u * np.geomspace(1.0, 1.0 / condition, 4)) @ v.T
        names = ECHO_PARAM_NAMES
        lm = lsq.LMResult(x=np.zeros(2), cost=6.0, grad_norm=0.0, iterations=1, converged=True)  # chi2_red 1
        fit = estimation._finalize_fit(dict.fromkeys(names, 0.0), jac, 0, lm, names)
        exact = exact_covariance(jac)
        sigma = np.sqrt(exact.diagonal())
        assert np.allclose([fit.sigmas[name] for name in names], sigma, rtol=1e-5, atol=0.0)
        assert np.all(np.abs(fit.covariance - exact) <= 1e-5 * np.outer(sigma, sigma))
        assert np.array_equal(fit.covariance, fit.covariance.T)


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
        with pytest.raises(ValidationError, match="^fit_echo needs at least 8 data points$"):
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
        u = MODEL.predict(data.tau_us, *x, 1.0, 0.0)  # the fringe basis
        rows, _ = lsq.data_rows(0, data.signal, data.sigma)
        assert _pair(u, rows[1:])[0] > 1.0  # the bound is active here
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
        with pytest.raises(ValidationError, match="^fit_rabi needs at least 6 data points$"):
            fit_rabi(EchoDataset(t, np.zeros(5), np.ones(5)))


# The chirp-z start scan against the sine grid it stands in for.  Both take
# the SSE as a difference of sums up to ~1e6 times larger on the quietest
# data here, so rounding alone reaches ~1e-9 of it; a relative error above
# this bound is no rounding.
SCAN_RTOL = 1e-7


def _pair(u, data):
    """(a, c, SSE) of y ~ a u + c along u's last axis over data_rows' last two rows, all cells at once."""
    inv, wy = data
    uw = u * inv
    return lsq.pair_from_sums((uw * uw).sum(-1), uw @ inv, inv @ inv, uw @ wy, inv @ wy, wy @ wy)


def _rabi_scan(rng, t, omega, contrast, sigma):
    y = 0.9 + contrast * np.sin(math.pi * omega * t) ** 2 + sigma * rng.standard_normal(t.size)
    return EchoDataset(t, y, np.full(t.size, sigma))


def _assert_same_start(data):
    """The chirp-z SSE matches the sine grid and picks its start, or LM ends as from the grid's."""
    t, n = data.tau_us, len(data)
    span = t[-1] - t[0]
    grid = np.linspace(0.25 / span, 0.5 * n / span, 256)
    rows, _ = lsq.data_rows(1, data.signal, data.sigma)
    fast = estimation._chirp_z_sse(t[0], span / (n - 1), rows[2:], grid)
    oracle = estimation._sine_grid_sse(t, rows[2:], grid)
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
        rows, _ = lsq.data_rows(1, data.signal, data.sigma)
        sse = _pair(u, rows[2:])[2]
        start = {"rabi_freq_mhz": float(grid[np.argmin(sse)])}
        assert fit.as_text() == fit_rabi(data, start).as_text()

    def test_initial_start_takes_no_start_scan(self, monkeypatch):
        # a scan of its one cell once refused a flat (NaN) start; a flat pair
        # now takes a = 0, and LM starts from the caller's frequency as is
        data = _rabi_scan(np.random.default_rng(4), np.linspace(0.0, 1.1, 40), 3.6, -0.25, 0.02)
        calls = _spy_start_scans(monkeypatch)
        fit = fit_rabi(data, {"rabi_freq_mhz": 3.5})
        assert calls == []
        assert abs(fit.params["rabi_freq_mhz"] - 3.6) < 3.0 * fit.sigmas["rabi_freq_mhz"]

    def test_sine_grid_evaluates_bounded_blocks(self, monkeypatch):
        # a 20 000-point scan off the uniform grid takes the sine grid, whose
        # 256 cells were once one array of 5.1e6 floats
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 1.1, 20000) + rng.uniform(0.0, 1e-5, 20000)  # 0.2 steps off
        data = _rabi_scan(rng, t, 3.6, -0.25, 0.02)
        calls, blocks = _spy_start_scans(monkeypatch), []
        real = lsq.pair_from_sums
        monkeypatch.setattr(lsq, "pair_from_sums", lambda *sums: blocks.append(np.size(sums[0])) or real(*sums))
        fit_rabi(data)
        assert calls == [("_sine_grid_sse", 256)]
        assert sum(blocks) == 256 and max(blocks) * t.size <= lsq._SCAN_FLOATS
        assert len(blocks) == 3  # 100 cells a block

    def test_start_scans_keep_their_bits_in_small_blocks(self, monkeypatch):
        # each scan below is one block at the default budget.  Blocks of one
        # and of three Rabi cells, and of one echo amplitude (its 64 phi0
        # cells): the scans once took a block's u @ w from BLAS, whose rounding
        # of a row followed its place among the block's rows and the thread
        # count; blocks of 1 and 3 cells moved 160 and 149 of these 256 cells
        rng = np.random.default_rng(6)
        t = np.sort(rng.uniform(0.0, 1.1, 400))
        rabi, echo = _rabi_scan(rng, t, 3.6, -0.25, 0.02), synth_dataset(noise_seed=6)
        rows, _ = lsq.data_rows(1, rabi.signal, rabi.sigma)
        grid = np.linspace(0.25 / (t[-1] - t[0]), 200.0 / (t[-1] - t[0]), 256)
        k = MODEL.phase_factor(echo.tau_us, estimation._PHI_GRID[:, None])
        echo_rows = lsq.data_rows(2, echo.signal, echo.sigma)[0]

        def scans():
            starts = estimation._landscape_starts(echo, MODEL, echo_rows, 0.5, k, float(np.max(np.abs(k))))
            sse = estimation._sine_grid_sse(t, rows[2:], grid)
            return sse, starts, fit_rabi(rabi).as_text(), fit_echo(echo, MODEL).as_text()

        sse, starts, rabi_text, echo_text = scans()
        for cells in (1, 3):
            monkeypatch.setattr(lsq, "_SCAN_FLOATS", cells * t.size)  # and 1200 // k.size = 1 amplitude
            blocked = scans()
            assert np.array_equal(blocked[0], sse) and blocked[2:] == (rabi_text, echo_text), cells
            assert all(np.array_equal(a, b) for a, b in zip(blocked[1], starts, strict=True)), cells


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

    def test_short_tau_valley_is_flat(self):
        # same point count and noise, but a range with little accumulated
        # phase: the Fisher matrix J^T J at the truth gives the curvature of
        # the SSE in b_perp, the other three refitted, as 1 / cov_bb
        truth = dict(b_perp_gauss=0.088, phi0_rad=1.2, contrast=0.25, baseline=0.877)

        def curvature(tau):
            jac = echo_jacobian(synth_dataset(tau=tau, sigma=0.01), MODEL, truth)
            return 1.0 / np.linalg.inv(jac.T @ jac)[0, 0]

        assert curvature(np.linspace(0.5, 6.0, 16)) / curvature(np.linspace(2.0, 21.0, 16)) < 0.5


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


_EVERY_FIT = pytest.mark.parametrize(
    "fit, args",
    [
        (fit_rabi, (_rabi_scan(np.random.default_rng(3), np.linspace(0.0, 1.1, 40), 3.6, -0.25, 0.02),)),
        (fit_echo, (synth_dataset(noise_seed=3), MODEL)),
        (fit_spot_width, (_spot_image(3), (10.0, 0.0))),
    ],
    ids=["rabi", "echo", "spot"],
)


@_EVERY_FIT
def test_every_fill_writes_exact_derivative_rows(monkeypatch, fit, args):
    # lsq maps a fill's q leading rows to the Jacobian by the amplitude
    # alone, so each must be du/dx_i w itself: a central difference of the
    # basis row u w.  The spot fill once wrote rows that a second callback
    # mapped to its lab (x, y) centre
    seen = []
    real = lsq.fit_separable

    def spy(rows, fill, x0, *a, **kw):
        seen.append((rows.copy(), fill, np.array(x0, dtype=float)))
        return real(rows, fill, x0, *a, **kw)

    monkeypatch.setattr(lsq, "fit_separable", spy)
    fit(*args)
    rows, fill, x0 = seen[0]
    q = rows.shape[0] - 3

    def basis(x):
        fill(rows, x)
        return rows[q].copy()

    for x in (x0, 1.03 * x0 + 0.01, 0.95 * x0 - 0.02):
        numeric = numeric_jacobian(basis, x, rel_step=1e-6)
        fill(rows, x)
        for i in range(q):
            np.testing.assert_allclose(rows[i], numeric[:, i], rtol=1e-6, atol=1e-6 * np.max(np.abs(rows[i])))


@_EVERY_FIT
def test_one_fill_per_residual_evaluation(monkeypatch, fit, args):
    # every fit runs through lsq.fit_separable, whose Jacobian reuses the
    # rows and sums of the residual at its x: a Jacobian that filled them
    # again would add one fill per Jacobian.  One more fill may follow LM,
    # when its last trial was rejected
    counts = []  # [fills, residual evaluations, Jacobians] of each separable fit
    real_fit, real_lm = lsq.fit_separable, lsq.levenberg_marquardt

    def counting_fit(rows, fill, *a, **kw):
        counts.append([0, 0, 0])

        def counted_fill(*b):
            counts[-1][0] += 1
            fill(*b)

        return real_fit(rows, counted_fill, *a, **kw)

    def counting_lm(residual, jacobian, x0, **kw):
        def counted_residual(x):
            counts[-1][1] += 1
            return residual(x)

        def counted_jacobian(x):
            counts[-1][2] += 1
            return jacobian(x)

        return real_lm(counted_residual, counted_jacobian, x0, **kw)

    monkeypatch.setattr(lsq, "fit_separable", counting_fit)
    monkeypatch.setattr(lsq, "levenberg_marquardt", counting_lm)
    fit(*args)
    assert counts and all(jacobians > 1 for _, _, jacobians in counts)
    for fills, residuals, _ in counts:
        assert fills <= residuals + 1


@pytest.mark.parametrize("seed", [1, 7])
def test_tied_starts_keep_the_earliest(monkeypatch, tmp_path, seed):
    # the theta_B = 3 deg echo's 10 starts all end at one b, their costs
    # apart by rounding alone (about 3e-13 of the cost): the fit reports the
    # earliest start in landscape order, not the one rounding made cheapest
    path = str(tmp_path / "echo.dat")
    assert main(["simulate-echo", "--set", "field.theta_b_deg=3", "--seed", str(seed), "-o", path]) == 0
    data, _ = read_echo_dataset(path)
    ends = []
    real = lsq.levenberg_marquardt

    def spy(residual, jacobian, x0, **kwargs):
        ends.append(real(residual, jacobian, x0, **kwargs))
        return ends[-1]

    monkeypatch.setattr(lsq, "levenberg_marquardt", spy)
    fit = fit_echo(data)
    low = min(lm.cost for lm in ends)
    tied = [lm for lm in ends if lm.cost <= low * (1.0 + 1e-10)]
    assert len(tied) == len(ends) == 10 and all(lm.converged for lm in tied)
    assert len({lm.iterations for lm in tied}) > 1  # the choice shows in the fit text
    assert fit.iterations == tied[0].iterations


# ---------------------------------------------------------------------------
# the unit of sigma


@pytest.fixture(scope="module")
def default_scans():
    """(config, dataset) of the default 400-point Rabi scan and of the theta_B = 3 deg echo."""
    rabi_cfg, echo_cfg = config_from_dict({}), config_from_dict({"field": {"theta_b_deg": 3.0}})
    rabi, _ = pipeline.simulate_rabi_scan(rabi_cfg, np.linspace(0.0, 1.1, 400))
    echo, _ = pipeline.simulate_echo_scan(echo_cfg, np.linspace(2.0, 21.0, 16))
    return {"rabi": (rabi_cfg, rabi), "echo": (echo_cfg, echo)}


def _fit_in_unit(scans, model, factor):
    """The fit of ``model``'s default scan with its sigma column times ``factor``, RuntimeWarnings raised."""
    cfg, data = scans[model]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return pipeline.fit_dataset(cfg, EchoDataset(data.tau_us, data.signal, data.sigma * factor), model)


@pytest.mark.parametrize("model", ["rabi", "echo"])
def test_a_power_of_two_unit_of_sigma_moves_only_chi2_and_the_residual_norm(default_scans, model):
    # the fit's rows are the same bits in every such unit; LM's absolute
    # floors once stopped the Rabi fit after 1 iteration from sigma x 2^27 on
    base = _fit_in_unit(default_scans, model, 1.0)
    for k in range(-200, 201):
        fit = _fit_in_unit(default_scans, model, math.ldexp(1.0, k))
        assert fit.converged and fit.iterations == base.iterations, k
        assert fit.params == base.params and fit.sigmas == base.sigmas, k
        assert np.array_equal(fit.covariance, base.covariance), k
        assert fit.chi2_reduced == math.ldexp(base.chi2_reduced, -2 * k), k
        assert fit.residual_norm == math.ldexp(base.residual_norm, -k), k


def _outweighed_scan():
    """A 6-row Rabi scan whose one point outweighs the rest by 1e200."""
    t = np.array([0.1, 1.0, 3.1622776601683795, 10.0, 100.0, 1000.0])
    return EchoDataset(t, np.array([1.0, 1e-50, 1e-50, 1e-50, 10.0, 1.0]), np.array([1, 1, 1, 1, 1e-100, 1]))


def test_a_pair_flat_to_rounding_leaves_the_rabi_jacobian_finite():
    # the pair's determinant rounds to 0 at some frequency, where the
    # Jacobian of the free pair divided by it (a RuntimeWarning and a NaN
    # Jacobian; before the rows were scaled, the weights 1 / sigma^2
    # overflowed first)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IdentifiabilityError):
            fit_rabi(_outweighed_scan())


def test_a_pair_flat_to_rounding_takes_a_zero():
    # the sums are the one point's alone, so the determinant is rounding
    # noise: at 0.00258 MHz -6.7e7 against s_uu s_1 = 5.7e23, where the free
    # pair took a = 32 (in the start scan and in LM) and LM stepped on it
    data = _outweighed_scan()
    rows, _ = lsq.data_rows(1, data.signal, data.sigma)
    x0 = [0.0025796697316790504]

    def fill(rows, x):
        s = np.sin(math.pi * x[0] * data.tau_us)
        rows[0], rows[1] = math.pi * data.tau_us * np.sin(2.0 * math.pi * x[0] * data.tau_us) * rows[2], s * s * rows[2]

    fill(rows, x0)
    uw, (inv, wy) = rows[1], rows[2:]
    sums = uw @ uw, uw @ inv, inv @ inv, uw @ wy, inv @ wy, wy @ wy
    det = sums[0] * sums[2] - sums[1] ** 2
    assert abs(det) <= lsq._FLAT_RTOL * sums[0] * sums[2] and not lsq.free_pair(det, sums[0], sums[2])
    a, c, sse = lsq.pair_from_sums(*sums)
    assert a == 0.0 and c == sums[4] / sums[2] and np.isfinite(sse)
    lm, a, c = lsq.fit_separable(rows, fill, x0, max_iter=1)
    assert a == 0.0 and lm.x.tolist() == x0  # a flat pair has no gradient


def test_a_subnormal_determinant_is_flat():
    # det = s_uu s_1 = 1e-320 is subnormal, where the relative test passes
    # by underflow alone (4 eps s_uu s_1 rounds to 0); the 1e-300 floor holds
    s_uu = s_1 = 1e-160
    assert not lsq.free_pair(s_uu * s_1, s_uu, s_1)
    a, c, sse = lsq.pair_from_sums(s_uu, 0.0, s_1, 1e-160, 2.0 * s_1, 5e-160)
    assert a == 0.0 and c == 2.0 and np.isfinite(sse)


@pytest.mark.parametrize("factor", [1e8, 1e-8])
@pytest.mark.parametrize("model", ["rabi", "echo"])
def test_a_decimal_unit_of_sigma_moves_the_fit_by_rounding_alone(default_scans, model, factor):
    # sigma x 1e8 printed a Rabi frequency of 3.78787879 MHz, 16 sigma off.
    # The rows now differ from the unscaled ones in their last bits only, but
    # LM's gradient test may then stop one step apart: the echo at 1e-8 stops
    # at step 5 of 6, its b 5e-9 off (2e-7 sigma), along the weak b-phi0
    # direction (correlation 0.993) where the 1e-8 gradient tolerance leaves
    # that much; the Rabi fit, with no such direction, keeps 1e-9
    base, fit = _fit_in_unit(default_scans, model, 1.0), _fit_in_unit(default_scans, model, factor)
    assert fit.converged
    for name in base.param_names:
        assert abs(fit.params[name] - base.params[name]) <= 1e-6 * base.sigmas[name], name
        assert fit.sigmas[name] == pytest.approx(base.sigmas[name], rel=1e-6, abs=0.0), name
        if model == "rabi":
            assert fit.params[name] == pytest.approx(base.params[name], rel=1e-9, abs=0.0), name
            assert fit.sigmas[name] == pytest.approx(base.sigmas[name], rel=1e-9, abs=0.0), name
    assert fit.chi2_reduced == pytest.approx(base.chi2_reduced / factor**2, rel=1e-9, abs=0.0)
