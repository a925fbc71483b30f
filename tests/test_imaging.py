import hashlib
import math
import re

import numpy as np
import pytest

import render_oracle
from lsq_oracle import spot_width_oracle

from rotornv import imaging, lsq, pipeline
from rotornv.config import RotorGeometry, StrobeConfig, apply_overrides, config_from_dict
from rotornv.errors import FitError, IdentifiabilityError, ValidationError
from rotornv.geometry import TWO_PI
from rotornv.imaging import (
    Emitter,
    EmitterSet,
    ScanGrid,
    StrobedImage,
    angular_smear,
    fit_spot_width,
    _pixel_moments,
    render_image,
)

G_DEFAULT = RotorGeometry()
SINGLE = EmitterSet.single(10.0, 0.0)


def small_grid(cx, cy, half=2.0, step=0.125, dwell_ms=200.0):
    return ScanGrid(
        x_range_um=(cx - half, cx + half),
        y_range_um=(cy - half, cy + half),
        step_um=step,
        dwell_ms=dwell_ms,
    )


def demo_image(seed, stationary):
    """The demo pair's image, strobed at the trigger edge, and its spot centres."""
    cfg = config_from_dict({"strobe": {"t_phi_us": 0.0}})
    grid = ScanGrid(x_range_um=(7.0, 12.5), y_range_um=(-2.0, 5.2), step_um=0.15)
    emitters = pipeline.default_emitters(cfg)
    img = render_image(grid, emitters, cfg.geometry, cfg.strobe, seed=seed, stationary=stationary)
    return img, pipeline.spot_centers_um(cfg, emitters, stationary)


class TestAngularSmear:
    def test_operating_point(self):
        g = RotorGeometry(f_rot_hz=3333.33)
        assert angular_smear(g, 2.0) == 360.0 * 2e-6 * 3333.33
        assert angular_smear(g, 2.0) == pytest.approx(2.400, abs=5e-4)

    def test_zero_pulse(self):
        assert angular_smear(G_DEFAULT, 0.0) == 0.0

    def test_full_period(self):
        g = RotorGeometry(f_rot_hz=4000.0)
        assert angular_smear(g, g.t_rot_us) == pytest.approx(360.0, rel=1e-12)


class TestRenderImage:
    def test_stationary_width_matches_psf(self):
        img = render_image(
            small_grid(10.0, 0.0, step=0.1), SINGLE, G_DEFAULT, StrobeConfig(), seed=5,
            stationary=True,
        )
        sr, sa = fit_spot_width(img, (10.0, 0.0))
        assert sr == pytest.approx(0.30, abs=0.03)
        assert sa == pytest.approx(0.30, abs=0.03)

    def test_rotating_width_near_0p9_radial(self):
        strobe = StrobeConfig(t_phi_us=150.0)
        img = render_image(small_grid(-10.0, 0.0, half=2.5), SINGLE, G_DEFAULT, strobe, seed=6)
        sr, sa = fit_spot_width(img, (-10.0, 0.0))
        assert sr == pytest.approx(0.9, abs=0.18)
        assert sa < sr  # wobble-dominated default blurs radially

    def test_jitter_only_blur_is_azimuthal(self):
        strobe = StrobeConfig(t_phi_us=270.0, jitter_frac=0.004, wobble_amp_um=0.0)
        ang = 2.0 * math.pi * G_DEFAULT.f_rot_hz * 270e-6
        cx, cy = 10.0 * math.cos(ang), 10.0 * math.sin(ang)
        img = render_image(small_grid(cx, cy, step=0.1), SINGLE, G_DEFAULT, strobe, seed=12)
        sr, sa = fit_spot_width(img, (cx, cy))
        assert sa > sr

    def test_wobble_only_blur_is_radial(self):
        strobe = StrobeConfig(t_phi_us=150.0, jitter_frac=0.0, wobble_amp_um=0.4243)
        img = render_image(small_grid(-10.0, 0.0, half=2.5), SINGLE, G_DEFAULT, strobe, seed=11)
        sr, sa = fit_spot_width(img, (-10.0, 0.0))
        assert sr > sa

    def test_counts_scale_with_dwell_and_duty(self):
        strobe1 = StrobeConfig(t_phi_us=0.0, t_pulse_us=1.0, jitter_frac=0.0, wobble_amp_um=0.0)
        strobe2 = StrobeConfig(t_phi_us=0.0, t_pulse_us=2.0, jitter_frac=0.0, wobble_amp_um=0.0)
        lam, cycles = {}, {}
        for key, strobe, dwell in (
            ("base", strobe1, 100.0),
            ("double_dwell", strobe1, 200.0),
            ("double_duty", strobe2, 100.0),
        ):
            grid = small_grid(10.0, 0.0, half=1.5, step=0.15, dwell_ms=dwell)
            img = render_image(grid, SINGLE, G_DEFAULT, strobe, seed=31, stationary=True)
            lam[key], _ = _pixel_moments(grid, SINGLE, G_DEFAULT, strobe, stationary=True)
            cycles[key] = img.meta["n_cycles"]
            # ~200 counts: a Poisson total within 4 sigma of its expectation
            assert abs(img.counts.sum() - lam[key].sum()) <= 4.0 * math.sqrt(lam[key].sum())
        # the dwell doubles the cycle count up to rounding (333 -> 667 cycles)
        np.testing.assert_allclose(
            lam["double_dwell"], lam["base"] * cycles["double_dwell"] / cycles["base"], rtol=1e-12
        )
        np.testing.assert_allclose(lam["double_duty"], 2.0 * lam["base"], rtol=1e-12)

    def test_invariant_under_full_period_delay_shift(self):
        base = StrobeConfig(t_phi_us=40.0)
        shifted = StrobeConfig(t_phi_us=40.0 + G_DEFAULT.t_rot_us)
        ang = 2.0 * math.pi * G_DEFAULT.f_rot_hz * 40e-6
        cx, cy = 10.0 * math.cos(ang), 10.0 * math.sin(ang)
        img_a = render_image(small_grid(cx, cy), SINGLE, G_DEFAULT, base, seed=41)
        img_b = render_image(small_grid(cx, cy), SINGLE, G_DEFAULT, shifted, seed=41)
        ca, cb = img_a.counts.sum(), img_b.counts.sum()
        assert abs(ca - cb) < 4.0 * math.sqrt(ca + cb)
        wa = fit_spot_width(img_a, (cx, cy))
        wb = fit_spot_width(img_b, (cx, cy))
        assert wa[0] == pytest.approx(wb[0], abs=0.06)
        assert wa[1] == pytest.approx(wb[1], abs=0.06)

    def test_azimuthal_width_grows_with_pulse_length(self):
        widths = []
        for t_pulse in (1.0, 4.0, 8.0):
            strobe = StrobeConfig(
                t_phi_us=150.0, t_pulse_us=t_pulse, jitter_frac=0.0, wobble_amp_um=0.0
            )
            img = render_image(
                small_grid(-10.0, 0.0, step=0.1), SINGLE, G_DEFAULT, strobe, seed=51
            )
            widths.append(fit_spot_width(img, (-10.0, 0.0)))
        azim = [w[1] for w in widths]
        rad = [w[0] for w in widths]
        assert azim[0] < azim[1] < azim[2]
        assert max(rad) - min(rad) < 0.08  # radial width stays put

    def test_short_pulse_no_noise_recovers_stationary_width(self):
        strobe = StrobeConfig(t_phi_us=150.0, t_pulse_us=0.05, jitter_frac=0.0, wobble_amp_um=0.0)
        img = render_image(
            small_grid(-10.0, 0.0, step=0.1, dwell_ms=3000.0), SINGLE, G_DEFAULT, strobe, seed=61
        )
        sr, sa = fit_spot_width(img, (-10.0, 0.0))
        assert sr == pytest.approx(0.30, abs=0.04)
        assert sa == pytest.approx(0.30, abs=0.04)

    def test_two_emitters_resolved(self):
        r = 10.0
        dphi = 2.0 * math.asin(3.6 / (2.0 * r))
        pair = EmitterSet(
            (
                Emitter((r, 0.0), 1e5),
                Emitter((r * math.cos(dphi), r * math.sin(dphi)), 1e5),
            )
        )
        strobe = StrobeConfig(t_phi_us=0.0)
        grid = ScanGrid(x_range_um=(7.0, 12.5), y_range_um=(-1.8, 5.0), step_um=0.15, dwell_ms=200.0)
        img = render_image(grid, pair, G_DEFAULT, strobe, seed=71)
        pa, pb, valley = render_oracle.resolve_two_spots(
            img, (r, 0.0), (r * math.cos(dphi), r * math.sin(dphi))
        )
        assert valley < 0.5 * min(pa, pb)

    def test_pixel_budget_refusal(self):
        grid = ScanGrid(x_range_um=(0.0, 50.0), y_range_um=(0.0, 50.0), step_um=0.05, dwell_ms=1.0)
        with pytest.raises(ValidationError) as err:
            render_image(grid, SINGLE, G_DEFAULT, StrobeConfig(), max_pixels=10_000)
        assert "10000" in str(err.value).replace(",", "")

    def test_reproducible_from_seed(self):
        strobe = StrobeConfig(t_phi_us=150.0)
        a = render_image(small_grid(-10.0, 0.0, half=1.0), SINGLE, G_DEFAULT, strobe, seed=3)
        b = render_image(small_grid(-10.0, 0.0, half=1.0), SINGLE, G_DEFAULT, strobe, seed=3)
        assert np.array_equal(a.counts, b.counts)
        c = render_image(small_grid(-10.0, 0.0, half=1.0), SINGLE, G_DEFAULT, strobe, seed=4)
        assert not np.array_equal(a.counts, c.counts)

    def test_duty_cycle_metadata(self):
        img = render_image(small_grid(10.0, 0.0, half=1.0), SINGLE, G_DEFAULT, StrobeConfig(), seed=1, stationary=True)
        assert img.duty_cycle == pytest.approx(2.0 / G_DEFAULT.t_rot_us, rel=1e-9)

    def test_depth_scan_axially_elongated(self):
        # qualitative: the x-z slice peaks at z = 0 and is ~3x wider axially
        grid = ScanGrid(
            x_range_um=(8.0, 12.0),
            y_range_um=(-3.0, 3.0),  # z extent for the xz plane
            step_um=0.15,
            dwell_ms=400.0,
            plane="xz",
        )
        img = render_image(grid, SINGLE, G_DEFAULT, StrobeConfig(), seed=19, stationary=True)
        iy, ix = np.unravel_index(np.argmax(img.counts), img.counts.shape)
        assert abs(img.y_um[iy]) < 0.3 and abs(img.x_um[ix] - 10.0) < 0.3
        x_profile = img.counts[iy, :].astype(float)
        z_profile = img.counts[:, ix].astype(float)

        def moment_width(coords, prof):
            mu = np.sum(coords * prof) / prof.sum()
            return math.sqrt(np.sum(prof * (coords - mu) ** 2) / prof.sum())

        ratio = moment_width(img.y_um, z_profile) / moment_width(img.x_um, x_profile)
        assert 2.0 < ratio < 4.5


def _reference_render(grid, emitters, g, strobe, seed, stationary, psf_width_um=0.3, substeps=7):
    """Per-emitter Monte Carlo of every pixel's expected count lambda: each of
    the pixel's cycles draws its two periods and its wobble, and cos/sin are
    evaluated for every rotated orbit sample.  Returns lambda, before any
    count is drawn, as one realisation per ``seed``."""
    xs, ys = grid.x_coords_um, grid.y_coords_um
    depth_scan = grid.plane == "xz"
    psf_axial_um = 3.0 * psf_width_um
    n_cycles = max(1, int(round(grid.dwell_ms * 1e-3 * g.f_rot_hz)))
    window_s = strobe.t_pulse_us * 1e-6
    pos0 = np.array([e.position_um for e in emitters.emitters])
    bright = np.array([e.brightness_cps for e in emitters.emitters])
    radii = np.linalg.norm(pos0, axis=1)
    phases0 = np.arctan2(pos0[:, 1], pos0[:, 0])

    def strobe_angles(rng):
        t_rot = g.t_rot_us
        full_turns = math.floor(strobe.t_phi_us / t_rot)
        resid = strobe.t_phi_us - full_turns * t_rot
        t_in = resid + (np.arange(substeps) + 0.5) * (strobe.t_pulse_us / substeps)
        periods = t_rot * (1.0 + strobe.jitter_frac * rng.standard_normal((n_cycles, 2)))
        periods = np.clip(periods, 0.1 * t_rot, None)
        p1, p2 = periods[:, 0:1], periods[:, 1:2]
        frac = np.where(t_in < p1, t_in / p1, 1.0 + (t_in - p1) / p2)
        return TWO_PI * (full_turns + frac)

    def psf_weight(ex, ey, x, y):
        if depth_scan:
            d2_lat = (ex - x) ** 2 + ey**2
            return np.exp(-2.0 * d2_lat / psf_width_um**2 - 2.0 * y**2 / psf_axial_um**2)
        return np.exp(-2.0 * ((ex - x) ** 2 + (ey - y) ** 2) / psf_width_um**2)

    lam = np.empty((ys.size, xs.size))
    rng = np.random.default_rng(seed)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            if stationary:
                weights = psf_weight(pos0[:, 0], pos0[:, 1], x, y)
                lam[iy, ix] = float(np.sum(bright * window_s * weights)) * n_cycles
                continue
            angles = strobe_angles(rng)
            wobble = strobe.wobble_amp_um * rng.standard_normal((n_cycles, 1))
            total = 0.0
            for e in range(pos0.shape[0]):
                ang = angles + phases0[e]
                radius = radii[e] + wobble
                weights = psf_weight(radius * np.cos(ang), radius * np.sin(ang), x, y)
                total += bright[e] * window_s * float(weights.mean(axis=1).sum())
            lam[iy, ix] = total
    return lam


_PAIR = EmitterSet((Emitter((10.0, 0.0), 1e5), Emitter((9.35, 3.55), 1e5)))
# distinct brightnesses and orbit phases, one negative, all inside one small grid
_TRIO = EmitterSet(
    (
        Emitter((10.0, 0.0), 1e5),
        Emitter((9.9, -1.2), 3e4),
        Emitter((9.6, 1.5), 2e5),
    )
)
_ORACLE_SEEDS = range(12)


@pytest.mark.parametrize("plane", ["xy", "xz"])
@pytest.mark.parametrize("stationary", [False, True])
@pytest.mark.parametrize(
    "strobe, emitters, x_range, y_range",
    [
        (StrobeConfig(t_phi_us=0.0), _PAIR, (8.5, 11.0), (-1.0, 4.5)),
        # windows spill past the next trigger edge
        (StrobeConfig(t_phi_us=299.0, jitter_frac=0.02), _PAIR, (8.5, 11.0), (-1.0, 4.5)),
        # t_phi >= T_rot: the spots sit 24 degrees before the trigger positions
        (StrobeConfig(t_phi_us=1180.0), _PAIR, (8.5, 11.0), (-1.0, 4.5)),
        (StrobeConfig(t_phi_us=0.0, t_pulse_us=8.0), _TRIO, (8.5, 11.0), (-2.5, 2.5)),
    ],
)
def test_moments_match_per_emitter_oracle(plane, stationary, strobe, emitters, x_range, y_range):
    grid = ScanGrid(x_range_um=x_range, y_range_um=y_range, step_um=0.25, plane=plane)
    mean, var = _pixel_moments(grid, emitters, G_DEFAULT, strobe, stationary=stationary)
    assert mean.max() > 3  # the grid holds spots, not only background
    if stationary:
        expected = _reference_render(grid, emitters, G_DEFAULT, strobe, 0, True)
        np.testing.assert_allclose(mean, expected, rtol=1e-12, atol=0.0)
        assert not var.any()
        return
    lam = np.array([_reference_render(grid, emitters, G_DEFAULT, strobe, s, False) for s in _ORACLE_SEEDS])
    n = len(_ORACLE_SEEDS)
    bright = mean > 0.01 * mean.max()
    # lambda sums 667 i.i.d. cycle terms, so its mean over the seeds is near
    # normal: a per-pixel z-score, and their average over the bright pixels
    z = (lam.mean(axis=0) - mean)[bright] / np.sqrt(var[bright] / n)
    assert np.abs(z).max() < 5.0
    assert abs(z.mean()) < 4.0 / math.sqrt(z.size)
    # pooled sample variance over the exact one: chi^2 with n - 1 = 11
    # degrees of freedom per pixel, ~0.1 spread over the bright pixels
    ratio = lam.var(axis=0, ddof=1)[bright].sum() / var[bright].sum()
    assert 0.6 < ratio < 1.5


@pytest.mark.parametrize("plane", ["xy", "xz"])
@pytest.mark.parametrize(
    "strobe, emitters, x_range, y_range",
    [
        (StrobeConfig(t_phi_us=0.0), _PAIR, (8.5, 11.0), (-1.0, 4.5)),
        (StrobeConfig(t_phi_us=299.0, jitter_frac=0.02), _PAIR, (8.5, 11.0), (-1.0, 4.5)),
        (StrobeConfig(t_phi_us=1180.0), _PAIR, (8.5, 11.0), (-1.0, 4.5)),
        (StrobeConfig(t_phi_us=0.0, t_pulse_us=8.0), _TRIO, (8.5, 11.0), (-2.5, 2.5)),
        # half a turn on, the trio 1.2 and 1.5 um apart: pixels between
        # them reach several emitters and take the whole sample triangle,
        # its samples added in order like every other block's
        (StrobeConfig(t_phi_us=150.0), _TRIO, (-11.0, -8.5), (-2.5, 2.5)),
    ],
)
def test_moments_match_the_whole_triangle_bit_for_bit(plane, strobe, emitters, x_range, y_range):
    grid = ScanGrid(x_range_um=x_range, y_range_um=y_range, step_um=0.25, plane=plane)
    mean, var = _pixel_moments(grid, emitters, G_DEFAULT, strobe)
    ref_mean, ref_var = render_oracle.pixel_moments(grid, emitters, G_DEFAULT, strobe)
    assert mean.max() > 3
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(var, ref_var)


def test_one_candidate_chunks_keep_the_triangle_order(monkeypatch):
    # one candidate per chunk: every pair sum runs over a lone column,
    # which numpy would otherwise add pairwise instead of in order
    monkeypatch.setattr(imaging, "_BLOCK_ELEMENTS", 50)
    strobe = StrobeConfig(t_phi_us=150.0)
    grid = ScanGrid(x_range_um=(-11.0, -8.5), y_range_um=(-2.5, 2.5), step_um=0.25)
    mean, var = _pixel_moments(grid, _TRIO, G_DEFAULT, strobe)
    ref_mean, ref_var = render_oracle.pixel_moments(grid, _TRIO, G_DEFAULT, strobe)
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(var, ref_var)


def test_an_emitter_that_reaches_no_candidate_moves_no_bit():
    # B shares A's orbit radius, so both renders take the same period nodes.
    # It sits 0.45 rad round the orbit, 2.8-4.3 um from every pixel of a
    # window above A's spot: its samples there lie below e^-40 of their peak
    # but do not underflow, and the mean sums only the block of the emitter
    # that reaches the candidate, as the variance's pairs do
    strobe = StrobeConfig(t_phi_us=0.0)
    a = Emitter((10.0, 0.0))
    b = Emitter((10.0 * math.cos(0.45), 10.0 * math.sin(0.45)))
    grid = ScanGrid(x_range_um=(9.0, 11.0), y_range_um=(0.5, 1.5), step_um=0.1)
    gy, gx = np.meshgrid(grid.y_coords_um, grid.x_coords_um, indexing="ij")
    d2 = (gx - b.position_um[0]) ** 2 + (gy - b.position_um[1]) ** 2
    assert np.all(2.0 * d2 / imaging.PSF_WIDTH_UM**2 < 745.0)  # exp(-745) underflows
    mean_b, _ = _pixel_moments(grid, EmitterSet((b,)), G_DEFAULT, strobe)
    assert not mean_b.any()  # B reaches no candidate
    mean_a, var_a = _pixel_moments(grid, EmitterSet((a,)), G_DEFAULT, strobe)
    mean, var = _pixel_moments(grid, EmitterSet((a, b)), G_DEFAULT, strobe)
    assert mean_a.max() > 3
    assert np.array_equal(mean, mean_a)
    assert np.array_equal(var, var_a)


@pytest.mark.parametrize(
    "seed, stationary, digest",
    [
        (1, False, "d6872a397a7b0e494373d245a3da1899baf4db5fe6dca3e764fb92130cd402d0"),
        (1, True, "dc8e1f8336faa3520d21269d12dff0c377a91a6172797af54c290121253dd3d5"),
        (401, False, "2a125f942d5a051d7a445945e9851a0335e8616c2429fbbd739544f77e9d2cea"),
        (401, True, "119f4c7178772ccf70c687b7d8aeb88c3f57c5c7ef978bbb9f3f57832c229810"),
    ],
)
def test_demo_image_pair_counts_are_pinned(seed, stationary, digest):
    # the digests were taken from the whole-triangle renderer, so no Gamma
    # or Poisson draw moves
    img, _ = demo_image(seed, stationary)
    assert hashlib.sha256(img.counts.astype("<i8").tobytes()).hexdigest() == digest


def test_clipped_periods_match_oracle():
    # jitter_frac 0.5: periods below 0.1 T (3.6 % of draws) are clipped,
    # a kink the quadrature puts on a panel edge
    strobe = StrobeConfig(t_phi_us=0.0, jitter_frac=0.5, wobble_amp_um=0.1)
    grid = ScanGrid(x_range_um=(9.4, 10.6), y_range_um=(-0.4, 1.2), step_um=0.2)
    mean, var = _pixel_moments(grid, SINGLE, G_DEFAULT, strobe)
    lam = np.array([_reference_render(grid, SINGLE, G_DEFAULT, strobe, s, False) for s in _ORACLE_SEEDS])
    bright = mean > 0.01 * mean.max()
    z = (lam.mean(axis=0) - mean)[bright] / np.sqrt(var[bright] / len(_ORACLE_SEEDS))
    assert np.abs(z).max() < 5.0
    assert abs(z.mean()) < 4.0 / math.sqrt(z.size)
    assert 0.6 < lam.var(axis=0, ddof=1)[bright].sum() / var[bright].sum() < 1.5


@pytest.mark.parametrize(
    "t_phi_us, jitter_frac, wobble_amp_um",
    [
        (0.0, 0.004, 0.4243),  # the trigger edge: the fewest Gauss-Hermite nodes
        (150.0, 0.004, 0.4243),  # the default strobe: Gauss-Hermite
        (270.0, 0.004, 0.0),  # no wobble: the sharpest azimuthal profile
        (250.0, 0.02, 0.4243),  # a long jitter arc: composite Gauss-Legendre
        (1180.0, 0.004, 0.4243),
        (299.0, 0.004, 0.4243),  # the window spills: a second period node set
        (150.0, 0.1, 0.4243),  # panels follow the local slope of T / period
    ],
)
def test_period_node_rule_matches_four_times_the_nodes(monkeypatch, t_phi_us, jitter_frac, wobble_amp_um):
    strobe = StrobeConfig(t_phi_us=t_phi_us, jitter_frac=jitter_frac, wobble_amp_um=wobble_amp_um)
    ang = TWO_PI * G_DEFAULT.f_rot_hz * t_phi_us * 1e-6
    grid = small_grid(10.0 * math.cos(ang), 10.0 * math.sin(ang), half=1.5, step=0.15)
    mean, var = _pixel_moments(grid, SINGLE, G_DEFAULT, strobe)
    # the reference: composite Gauss-Legendre everywhere, panels 4x narrower
    monkeypatch.setattr(imaging, "_GH_MAX_NODES", 0)
    monkeypatch.setattr(imaging, "_GL_PANEL", imaging._GL_PANEL / 4.0)
    monkeypatch.setattr(imaging, "_GL_PANEL_MAX", imaging._GL_PANEL_MAX / 4.0)
    monkeypatch.setattr(imaging, "MAX_PERIOD_NODES", 100_000)
    mean4, var4 = _pixel_moments(grid, SINGLE, G_DEFAULT, strobe)
    assert np.abs(mean - mean4).max() <= 1e-6 * mean4.max()
    assert np.abs(var - var4).max() <= 1e-6 * var4.max()


def test_trigger_edge_moments_match_24_hermite_nodes(monkeypatch):
    # the demo window on a 0.02 um grid: the fewest nodes keep both moments
    # within the rule's own 1e-8 of their peaks
    cfg = config_from_dict({"strobe": {"t_phi_us": 0.0}})
    grid = ScanGrid(x_range_um=(7.0, 12.5), y_range_um=(-2.0, 5.2), step_um=0.02)
    emitters = pipeline.default_emitters(cfg)
    mean, var = _pixel_moments(grid, emitters, cfg.geometry, cfg.strobe)
    monkeypatch.setattr(imaging, "_hermite_count", lambda *args: 24)
    mean24, var24 = _pixel_moments(grid, emitters, cfg.geometry, cfg.strobe)
    assert np.abs(mean - mean24).max() <= 1e-8 * mean24.max()
    assert np.abs(var - var24).max() <= 1e-8 * var24.max()


@pytest.mark.parametrize(
    "t_phi_us, wobble_amp_um, nodes",
    [
        (0.0, 0.4243, 2),  # the trigger edge
        (0.0, 0.1, 3),  # less wobble: 2 nodes would leave the variance 1.2e-8 of its peak off
        (0.0, 0.0, 4),  # no wobble: the jitter alone spreads each pixel, so no node is dropped
        (150.0, 0.4243, 19),  # the default strobe: the arc formula's count
    ],
)
def test_period_node_counts_are_the_ones_max_period_nodes_quotes(monkeypatch, t_phi_us, wobble_amp_um, nodes):
    sizes = []
    real = imaging._period_nodes

    def recorded(*args):
        z1, z2, w = real(*args)
        sizes.append(w.size)
        return z1, z2, w

    monkeypatch.setattr(imaging, "_period_nodes", recorded)
    cfg = config_from_dict({"strobe": {"t_phi_us": t_phi_us, "wobble_amp_um": wobble_amp_um}})
    _pixel_moments(small_grid(10.0, 0.0, half=0.5), pipeline.default_emitters(cfg), cfg.geometry, cfg.strobe)
    assert sizes == [nodes]


@pytest.mark.parametrize("plane", ["xy", "xz"])
@pytest.mark.parametrize("stationary", [False, True])
@pytest.mark.parametrize(
    "strobe",
    [StrobeConfig(t_phi_us=0.0), StrobeConfig(t_phi_us=299.0, jitter_frac=0.02)],
)
def test_pixels_far_off_the_orbit_raise_nothing(plane, stationary, strobe):
    # 5 um outside and inside the orbit, and across the axis: every PSF
    # term underflows to zero
    with np.errstate(all="raise"):
        for cx in (15.0, 5.0, -10.0):
            grid = small_grid(cx, 0.0, half=0.5, step=0.25)
            grid = ScanGrid(grid.x_range_um, grid.y_range_um, grid.step_um, grid.dwell_ms, plane)
            img = render_image(grid, SINGLE, G_DEFAULT, strobe, seed=7, stationary=stationary)
            assert not img.counts.any()


def test_a_far_off_orbit_under_a_tiny_jitter_renders():
    # the farthest orbit the domain takes (10 cm) under a 1e-200 jitter takes
    # the Gauss-Hermite rule: its sizing lattice follows each sample's short
    # path, wherever it sits; the 1e140 um orbit once rendered lies beyond it
    strobe = StrobeConfig(t_phi_us=0.0, jitter_frac=1e-200)
    with np.errstate(all="raise"):
        img = render_image(small_grid(0.0, 0.0, half=0.5, step=0.25), EmitterSet.single(1e5, 0.0), G_DEFAULT, strobe)
    assert not img.counts.any()
    with pytest.raises(ValidationError, match=r"^position_um \(--emitters\) must lie in \[-100000, 100000\] um"):
        EmitterSet.single(1e140, 0.0)


def test_counts_do_not_depend_on_block_size(monkeypatch):
    strobe = StrobeConfig(t_phi_us=150.0)
    grid = small_grid(-10.0, 0.0, half=1.0)
    a = render_image(grid, SINGLE, G_DEFAULT, strobe, seed=8)
    monkeypatch.setattr(imaging, "_BLOCK_ELEMENTS", 1000)
    b = render_image(grid, SINGLE, G_DEFAULT, strobe, seed=8)
    assert np.array_equal(a.counts, b.counts)


def test_rotating_counts_are_over_dispersed():
    # lambda varies with each pixel's cycles, so counts are negative
    # binomial: Var[N] = E[lambda] + Var[lambda].  A bright emitter makes
    # the excess over Poisson large (Fano ~1.4 at the peak).
    emitters = EmitterSet.single(10.0, 0.0, brightness_cps=1e6)
    strobe = StrobeConfig(t_phi_us=0.0)
    grid = small_grid(10.0, 0.0, half=0.6, step=0.2)
    mean, var = _pixel_moments(grid, emitters, G_DEFAULT, strobe)
    counts = np.array([render_image(grid, emitters, G_DEFAULT, strobe, seed=s).counts for s in range(200)])
    bright = mean > 0.1 * mean.max()
    np.testing.assert_allclose(counts.mean(axis=0)[bright], mean[bright], rtol=0.05)
    pooled = counts.var(axis=0, ddof=1)[bright].sum()
    assert pooled / (mean + var)[bright].sum() == pytest.approx(1.0, abs=0.1)
    assert pooled / mean[bright].sum() > 1.2


@pytest.mark.parametrize("jitter_frac", [0.1, 0.11])
def test_wide_jitter_renders(jitter_frac):
    # at the default delay the shortest periods sweep the strobe ~8x (0.1)
    # and ~12x (0.11) faster per unit z than the mean one; panels sized by
    # that steepest slope alone would need more than MAX_PERIOD_NODES at 0.11
    strobe = StrobeConfig(t_phi_us=150.0, jitter_frac=jitter_frac)
    img = render_image(small_grid(-10.0, 0.0, half=1.0), SINGLE, G_DEFAULT, strobe, seed=9)
    assert img.counts.sum() > 0


@pytest.mark.parametrize(
    "strobe, emitters, arc",
    [
        (StrobeConfig(t_phi_us=150.0, jitter_frac=0.5), SINGLE, "radius 10 um"),
        (StrobeConfig(t_phi_us=150.0), EmitterSet.single(20_000.0, 0.0), "radius 20000 um"),
        # a wobble wider than the orbit sets the arc, and the refusal names it
        (StrobeConfig(jitter_frac=0.1, wobble_amp_um=1000), SINGLE, "strobe.wobble_amp_um = 1000"),
    ],
    ids=["jitter", "radius", "wobble"],
)
def test_period_quadrature_refuses_an_unbounded_arc(strobe, emitters, arc):
    x, y = emitters.emitters[0].position_um
    with pytest.raises(ValidationError) as err:
        render_image(small_grid(x, y, half=0.5), emitters, G_DEFAULT, strobe)
    assert "strobe.jitter_frac" in str(err.value)
    assert arc in str(err.value), str(err.value)


@pytest.mark.parametrize("position", [(10.0, 0.0, 0.0), (10.0,)])
def test_emitter_position_is_an_xy_pair(position):
    with pytest.raises(ValidationError, match="position_um"):
        Emitter(position)


def test_pixel_count_needs_no_coordinates():
    grid = ScanGrid(x_range_um=(0.0, 8.0), y_range_um=(0.0, 7.0), step_um=1e-9)
    assert grid.n_pixels > 10**19
    small = ScanGrid(x_range_um=(0.0, 1.0), y_range_um=(0.0, 0.5), step_um=0.1)
    assert small.n_pixels == small.x_coords_um.size * small.y_coords_um.size == 66


class TestFitSpotWidth:
    def test_recovers_known_isotropic_sigma(self):
        # synthetic noise-free Gaussian spot, 1/e^2 width 0.6
        xs = np.arange(-2.0, 2.01, 0.1)
        ys = np.arange(-2.0, 2.01, 0.1)
        gx, gy = np.meshgrid(xs + 10.0, ys)
        spot = 500.0 * np.exp(-2.0 * ((gx - 10.0) ** 2 + gy**2) / 0.6**2)
        from rotornv.imaging import StrobedImage

        img = StrobedImage(
            counts=np.round(spot).astype(int), x_um=xs + 10.0, y_um=ys, duty_cycle=0.0067
        )
        sr, sa = fit_spot_width(img, (10.0, 0.0))
        assert sr == pytest.approx(0.6, rel=0.05)
        assert sa == pytest.approx(0.6, rel=0.05)

    def test_error_on_empty_window(self):
        from rotornv.imaging import StrobedImage

        img = StrobedImage(
            counts=np.zeros((30, 30), dtype=int),
            x_um=np.linspace(8, 12, 30),
            y_um=np.linspace(-2, 2, 30),
            duty_cycle=0.0067,
        )
        with pytest.raises(ValidationError):
            fit_spot_width(img, (10.0, 0.0))

    # the demo window of the image pair: 37 x 49 pixels at a 0.15 um step
    DEMO_X = np.arange(37) * 0.15 + 7.0
    DEMO_Y = np.arange(49) * 0.15 - 2.0

    def test_flat_window_is_refused(self):
        # a separable fit with no spot to fit used to return its start widths
        flat = np.full((self.DEMO_Y.size, self.DEMO_X.size), 5)
        with pytest.raises(FitError, match="no spot"):
            fit_spot_width(StrobedImage(flat, self.DEMO_X, self.DEMO_Y, 0.0067), (10.0, 0.0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_poisson_background_is_refused(self, seed):
        # pure background converges to a made-up spot 2-5 standard errors high
        counts = np.random.default_rng(seed).poisson(5.0, (self.DEMO_Y.size, self.DEMO_X.size))
        with pytest.raises(FitError, match="no spot"):
            fit_spot_width(StrobedImage(counts, self.DEMO_X, self.DEMO_Y, 0.0067), (10.0, 0.0))

    def test_no_spot_refusal_reports_the_fit_but_no_gradient(self):
        # the gradient of a converged fit sits at the cost's rounding floor, so
        # its last bits moved from run to run ("grad=2.709e-07", then "3.031e-07")
        counts = np.random.default_rng(1).poisson(5.0, (self.DEMO_Y.size, self.DEMO_X.size))
        with pytest.raises(FitError) as err:
            fit_spot_width(StrobedImage(counts, self.DEMO_X, self.DEMO_Y, 0.0067), (10.0, 0.0))
        msg = str(err.value)
        assert re.fullmatch(
            r"spot fit found no spot: amplitude \S+ \+- \S+ counts, cost=\S+, params=\[[^]]+\]", msg
        ), msg
        assert "grad" not in msg
        # off the axes, LM searches the centre on the spot's radial and
        # azimuthal axes; the refusal quotes it in x, y: a bump of 4 counts
        # on 5 at (7, 7), too faint to pass, at (9.90, 0) on those axes
        xs, ys = self.DEMO_X - 2.7, self.DEMO_Y + 5.4
        gx, gy = np.meshgrid(xs, ys)
        counts = np.round(5.0 + 4.0 * np.exp(-2.0 * ((gx - 7.0) ** 2 + (gy - 7.0) ** 2) / 0.5**2))
        with pytest.raises(FitError, match="no spot") as err:
            fit_spot_width(StrobedImage(counts, xs, ys, 0.0067), (7.0, 7.0))
        params = [float(v) for v in re.search(r"params=\[([^]]+)\]", str(err.value))[1].split(",")]
        assert math.dist(params[:2], (7.0, 7.0)) < 0.15, params

    def test_few_counts_are_refused(self):
        # three counts in the window fitted a spot far narrower than a pixel
        # (singular Jacobian); the amplitude guard passed, residual and
        # background both ~0
        counts = np.zeros((self.DEMO_Y.size, self.DEMO_X.size), dtype=int)
        counts[13, 20], counts[14, 20] = 2, 1
        with pytest.raises(IdentifiabilityError, match="singular Jacobian"):
            fit_spot_width(StrobedImage(counts, self.DEMO_X, self.DEMO_Y, 0.0067), (10.0, 0.0))

    def test_demo_spot_stops_at_the_cost_rounding_floor(self, monkeypatch):
        # stationary spot 1 of the demo pair at seed 3 used to end in a run
        # of rejected trial steps: 37 residual evaluations for 11 Jacobians
        calls = {"residual": 0, "jacobian": 0}
        real = lsq.levenberg_marquardt

        def counting(residual, jacobian, x0, **kwargs):
            def counted_residual(x):
                calls["residual"] += 1
                return residual(x)

            def counted_jacobian(x):
                calls["jacobian"] += 1
                return jacobian(x)

            return real(counted_residual, counted_jacobian, x0, **kwargs)

        img, centers = demo_image(3, True)
        monkeypatch.setattr(lsq, "levenberg_marquardt", counting)
        widths = fit_spot_width(img, centers[1])
        assert calls["residual"] <= calls["jacobian"] + 3
        # the widths of the fit that waited out the rejected steps
        np.testing.assert_allclose(widths, (0.2691223361812633, 0.2880290088969206), rtol=0, atol=1e-8)

    # the demo pair's widths (rotating spots 0 and 1, then stationary) as the
    # fit through lsq.fit_separable gave them, to full precision
    DEMO_WIDTHS = {
        1: [
            (0.8985553191117347, 0.4124841194242473),
            (0.8754777763091335, 0.38180345924190845),
            (0.2981322723388782, 0.30050649695762066),
            (0.2700222739121237, 0.3406667438837047),
        ],
        401: [
            (0.8755858480073968, 0.38306302369870204),
            (0.8100855796950261, 0.39809759786543186),
            (0.29826187197715076, 0.3073440725615662),
            (0.29898028587437364, 0.29293855852763395),
        ],
    }

    @pytest.mark.parametrize("seed", sorted(DEMO_WIDTHS))
    def test_demo_pair_widths_are_pinned(self, seed):
        widths = []
        for stationary in (False, True):
            img, centers = demo_image(seed, stationary)
            widths += [fit_spot_width(img, center) for center in centers]
        np.testing.assert_allclose(widths, self.DEMO_WIDTHS[seed], rtol=0, atol=1e-8)

    def test_widths_match_the_six_parameter_oracle(self):
        # the demo pair (rotating and stationary, strobed at the trigger
        # edge) over 20 seeds: 80 spots, none refused by either fit
        cfg = apply_overrides(config_from_dict({}), ["strobe.t_phi_us=0"])
        grid = ScanGrid(x_range_um=(7.0, 12.5), y_range_um=(-2.0, 5.2), step_um=0.15)
        emitters = pipeline.default_emitters(cfg)
        worst = 0.0
        for seed in range(20):
            for stationary in (False, True):
                img = render_image(
                    grid, emitters, cfg.geometry, cfg.strobe, seed=seed, stationary=stationary
                )
                for center in pipeline.spot_centers_um(cfg, emitters, stationary):
                    fast, slow = fit_spot_width(img, center), spot_width_oracle(img, center)
                    worst = max(worst, *np.abs(np.subtract(fast, slow)))
        assert worst <= 1e-6
