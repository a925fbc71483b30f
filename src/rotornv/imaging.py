"""Strobed scanning-confocal image simulation with rotation-blur mechanisms.

A stationary focus is raster-scanned while the illumination is strobed once
per revolution at a delay ``t_phi`` after the trigger edge, freezing each
emitter at a fixed rotation phase.  Two noise mechanisms blur the strobed
spot: cycle-to-cycle jitter of the rotation period displaces the frozen
phase along the trajectory (azimuthal blur), and wobble of the rotation
axis displaces the whole orbit (mostly radial blur).  The finite strobe
length additionally smears the spot along an arc.

The per-cycle Monte Carlo is driven by per-pixel child random streams
spawned from the image seed, so images are reproducible regardless of
evaluation order.  Each strobe sample's rotor angle gets one sin/cos pair,
shared by all emitters: since |R(p) a - b| = |a - R(-p) b|, the pixel is
rotated into each emitter's frame (by minus its orbit phase p) instead of
rotating every orbit sample.  Widths are quoted in the 1/e^2 convention: a
profile exp(-2 d^2 / sigma^2) has width sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ValidationError
from .estimation import levenberg_marquardt
from .geometry import TWO_PI, RotorGeometry

# Strobe samples (cycles x substeps) one pixel may integrate: ~200x the
# default 200 ms dwell at 3.33 kHz; a pixel at the limit makes tens of MB
# of temporaries.
MAX_STROBE_SAMPLES = 1_000_000


@dataclass(frozen=True)
class ScanGrid:
    """Raster extents (um), pixel step and per-pixel dwell time.

    ``plane`` selects a lateral x-y scan or an x-z depth slice at y = 0;
    the second range is the y extent for "xy" and the z extent for "xz".
    Depth scans use an axially elongated response and are qualitative only.
    """

    x_range_um: tuple[float, float] = (6.0, 14.0)
    y_range_um: tuple[float, float] = (-4.0, 4.0)
    step_um: float = 0.2
    dwell_ms: float = 200.0
    plane: str = "xy"

    def __post_init__(self):
        for name, value in (
            ("x_range_um", self.x_range_um),
            ("y_range_um", self.y_range_um),
            ("step_um", self.step_um),
            ("dwell_ms", self.dwell_ms),
        ):
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not self.step_um > 0:
            raise ValidationError("step_um must be positive")
        if not self.dwell_ms > 0:
            raise ValidationError("dwell_ms must be positive")
        if self.x_range_um[1] <= self.x_range_um[0] or self.y_range_um[1] <= self.y_range_um[0]:
            raise ValidationError("scan ranges must be increasing (min, max) pairs")
        for lo, hi in (self.x_range_um, self.y_range_um):
            if not math.isfinite((hi - lo) / self.step_um):
                raise ValidationError(
                    f"scan range ({lo}, {hi}) over step_um {self.step_um} "
                    "gives no finite pixel count"
                )
        if self.plane not in ("xy", "xz"):
            raise ValidationError("plane must be 'xy' or 'xz'")

    def _axis_size(self, range_um: tuple[float, float]) -> int:
        lo, hi = range_um
        return int(math.floor((hi - lo) / self.step_um + 1e-9)) + 1

    def _axis_um(self, range_um: tuple[float, float]) -> np.ndarray:
        return range_um[0] + self.step_um * np.arange(self._axis_size(range_um))

    @property
    def x_coords_um(self) -> np.ndarray:
        return self._axis_um(self.x_range_um)

    @property
    def y_coords_um(self) -> np.ndarray:
        return self._axis_um(self.y_range_um)

    @property
    def n_pixels(self) -> int:
        """Pixel count from the axis sizes alone, so a budget check allocates nothing."""
        return self._axis_size(self.x_range_um) * self._axis_size(self.y_range_um)


@dataclass(frozen=True)
class StrobeConfig:
    """Trigger-to-laser delay, strobe length and the two blur magnitudes.

    ``jitter_frac`` is the relative standard deviation of the rotation
    period (i.i.d. per cycle); ``wobble_amp_um`` is the per-cycle standard
    deviation of the rotation-centre displacement, the default calibrated
    to reproduce a 0.9 um rotating spot width on top of a 0.3 um point
    response.
    """

    t_phi_us: float = 150.0
    t_pulse_us: float = 2.0
    jitter_frac: float = 0.004
    wobble_amp_um: float = 0.4243

    def __post_init__(self):
        if self.t_pulse_us < 0:
            raise ValidationError("t_pulse_us must be non-negative")
        if self.jitter_frac < 0:
            raise ValidationError("jitter_frac must be non-negative")
        if self.wobble_amp_um < 0:
            raise ValidationError("wobble_amp_um must be non-negative")
        if self.t_phi_us < 0:
            raise ValidationError("t_phi_us must be non-negative")


@dataclass(frozen=True)
class Emitter:
    """Point emitter: position at the trigger edge and stationary peak brightness."""

    position_um: tuple[float, float, float]
    brightness_cps: float = 1e5

    def __post_init__(self):
        if self.brightness_cps < 0:
            raise ValidationError("brightness_cps must be non-negative")


@dataclass(frozen=True)
class EmitterSet:
    emitters: tuple[Emitter, ...]

    def __post_init__(self):
        if not self.emitters:
            raise ValidationError("EmitterSet needs at least one emitter")

    @classmethod
    def single(cls, x_um: float, y_um: float, brightness_cps: float = 1e5) -> "EmitterSet":
        return cls((Emitter((x_um, y_um, 0.0), brightness_cps),))


@dataclass(frozen=True, eq=False)
class StrobedImage:
    """Rendered count map with its pixel coordinates and render metadata."""

    counts: np.ndarray  # shape (ny, nx), row-major in y
    x_um: np.ndarray
    y_um: np.ndarray
    duty_cycle: float
    meta: dict = field(default_factory=dict)


def angular_smear(g: RotorGeometry, t_pulse_us: float) -> float:
    """Angle in degrees swept by the rotor during one strobe window."""
    if t_pulse_us < 0:
        raise ValidationError("t_pulse_us must be non-negative")
    return 360.0 * t_pulse_us * 1e-6 * g.f_rot_hz


def _strobe_angles_rad(
    rng: np.random.Generator,
    g: RotorGeometry,
    strobe: StrobeConfig,
    n_cycles: int,
    substeps: int,
) -> np.ndarray:
    """Rotor angle at each strobe sub-sample for every cycle, shape (substeps, n_cycles).

    The pulse generator re-arms on every trigger edge, so the strobe delay
    is referenced to the most recent edge: t_phi enters modulo the rotation
    period and images are invariant under t_phi -> t_phi + T_rot.  Each
    cycle's period is drawn i.i.d.; a strobe window spilling past the next
    edge continues into a second drawn period.
    """
    t_rot = g.t_rot_us
    full_turns = math.floor(strobe.t_phi_us / t_rot)
    resid = strobe.t_phi_us - full_turns * t_rot
    u = (np.arange(substeps) + 0.5) * (strobe.t_pulse_us / substeps)
    t_in = (resid + u)[:, None]  # (substeps, 1), time since the arming edge
    periods = t_rot * (1.0 + strobe.jitter_frac * rng.standard_normal((n_cycles, 2)))
    periods = np.clip(periods, 0.1 * t_rot, None)
    p1 = periods[:, 0]
    frac = t_in / p1
    if t_in.max() >= p1.min():  # rare: some window spills past the next edge
        frac = np.where(t_in < p1, frac, 1.0 + (t_in - p1) / periods[:, 1])
    return TWO_PI * (full_turns + frac)


def render_image(
    grid: ScanGrid,
    emitters: EmitterSet,
    g: RotorGeometry,
    strobe: StrobeConfig,
    psf_width_um: float = 0.3,
    seed: int = 0,
    stationary: bool = False,
    substeps: int = 7,
    max_pixels: int = 250_000,
    axial_psf_factor: float = 3.0,
) -> StrobedImage:
    """Monte-Carlo render of a strobed confocal raster scan.

    Every pixel integrates ``dwell_ms`` of strobes (one per revolution);
    each cycle draws its own period jitter and wobble displacement and the
    emitter is propagated along its strobed arc, sampled at ``substeps``
    points.  Counts are Poisson with the accumulated expectation.  With
    ``stationary=True`` the diamond does not rotate (strobing continues at
    the same duty cycle): emitters stay at their trigger positions and
    jitter/wobble/smear do not apply.

    For an "xz" grid the scan slices the depth at y = 0 with an axial
    response ``axial_psf_factor`` times wider than the lateral one.
    """
    if not psf_width_um > 0:
        raise ValidationError("psf_width_um must be positive")
    if grid.n_pixels > max_pixels:
        raise ValidationError(
            f"scan grid has {grid.n_pixels} pixels, exceeding the configured budget of "
            f"{max_pixels}; shrink the range or increase step_um"
        )
    if strobe.t_pulse_us > g.t_rot_us:
        raise ValidationError("strobe t_pulse_us exceeds the rotation period")
    n_cycles = max(1, int(round(grid.dwell_ms * 1e-3 * g.f_rot_hz)))
    if n_cycles * substeps > MAX_STROBE_SAMPLES:
        raise ValidationError(
            f"dwell_ms = {grid.dwell_ms:g} gives {n_cycles} strobe cycles x {substeps} samples "
            f"per pixel, more than {MAX_STROBE_SAMPLES}; shorten the dwell (--dwell-ms)"
        )

    xs = grid.x_coords_um
    ys = grid.y_coords_um
    depth_scan = grid.plane == "xz"
    psf_axial_um = axial_psf_factor * psf_width_um
    duty = strobe.t_pulse_us / g.t_rot_us
    window_s = strobe.t_pulse_us * 1e-6

    pos0 = np.array([e.position_um[:2] for e in emitters.emitters])  # (n_e, 2)
    bright = np.array([e.brightness_cps for e in emitters.emitters])
    radii = np.linalg.norm(pos0, axis=1)
    phases0 = np.arctan2(pos0[:, 1], pos0[:, 0])
    cos_p, sin_p = np.cos(phases0), np.sin(phases0)

    def psf_weight(d2_lat, y):
        """Gaussian response at squared lateral distance d2_lat; for an "xz"
        slice (in the plane y = 0) the pixel y is the focus depth."""
        arg = -2.0 * d2_lat / psf_width_um**2
        if depth_scan:
            arg = arg - 2.0 * y**2 / psf_axial_um**2
        return np.exp(arg)

    counts = np.empty((ys.size, xs.size), dtype=np.int64)
    seeds = np.random.SeedSequence(seed).spawn(ys.size * xs.size)
    for iy, y in enumerate(ys):
        row_seeds = seeds[iy * xs.size : (iy + 1) * xs.size]
        lat_y = 0.0 if depth_scan else y
        if stationary:
            # emitters stay at their trigger positions: lambda for the whole
            # row at once, then one Poisson draw from each pixel's own stream
            d2 = (pos0[:, 0] - xs[:, None]) ** 2 + (pos0[:, 1] - lat_y) ** 2  # (nx, n_e)
            lam_row = np.sum(bright * window_s * psf_weight(d2, y), axis=1) * n_cycles
            for ix in range(xs.size):
                counts[iy, ix] = np.random.default_rng(row_seeds[ix]).poisson(lam_row[ix])
            continue
        # |R(p) a - b| = |a - R(-p) b|: rather than rotate every orbit sample
        # by the emitter's phase p, rotate the pixel by -p
        px = xs[:, None] * cos_p + lat_y * sin_p  # (nx, n_e)
        py = lat_y * cos_p - xs[:, None] * sin_p
        for ix in range(xs.size):
            rng = np.random.default_rng(row_seeds[ix])
            angles = _strobe_angles_rad(rng, g, strobe, n_cycles, substeps)
            # wobble displaces the axis along the line of sight to the orbit:
            # a per-cycle radius modulation, shared by all emitters
            wobble = strobe.wobble_amp_um * rng.standard_normal(n_cycles)
            cos_a, sin_a = np.cos(angles), np.sin(angles)  # one pair for all emitters
            lam = 0.0
            for e in range(pos0.shape[0]):
                radius = radii[e] + wobble
                d2 = (radius * cos_a - px[ix, e]) ** 2 + (radius * sin_a - py[ix, e]) ** 2
                lam += bright[e] * window_s * float(psf_weight(d2, y).sum() / substeps)
            counts[iy, ix] = rng.poisson(lam)
    return StrobedImage(
        counts=counts,
        x_um=xs,
        y_um=ys,
        duty_cycle=duty,
        meta={
            "n_cycles": n_cycles,
            "seed": seed,
            "stationary": stationary,
            "psf_width_um": psf_width_um,
            "t_phi_us": strobe.t_phi_us,
            "t_pulse_us": strobe.t_pulse_us,
            "plane": grid.plane,
        },
    )


def fit_spot_width(
    image: StrobedImage,
    initial_center_um: tuple[float, float],
    fit_radius_um: float = 2.5,
) -> tuple[float, float]:
    """1/e^2 widths (radial, azimuthal) of a spot from a 2-D Gaussian fit.

    The principal axes are taken from the trajectory geometry: radial is
    the direction from the rotation axis (origin) to the spot, azimuthal is
    perpendicular to it.  Raises FitError with residual diagnostics if the
    fit does not converge.
    """
    cx, cy = initial_center_um
    xs, ys = image.x_um, image.y_um
    sel_x = np.abs(xs - cx) <= fit_radius_um
    sel_y = np.abs(ys - cy) <= fit_radius_um
    if sel_x.sum() < 4 or sel_y.sum() < 4:
        raise ValidationError("fit window contains too few pixels")
    sub = image.counts[np.ix_(sel_y, sel_x)].astype(float)
    gx, gy = np.meshgrid(xs[sel_x], ys[sel_y])

    peak_idx = np.unravel_index(np.argmax(sub), sub.shape)
    if sub[peak_idx] <= 0:
        raise ValidationError("no counts near the requested centre")

    r_norm = math.hypot(cx, cy)
    if r_norm > 1e-9:
        u_r = np.array([cx, cy]) / r_norm
    else:
        u_r = np.array([1.0, 0.0])
    u_a = np.array([-u_r[1], u_r[0]])

    amp0 = float(sub[peak_idx] - np.median(sub))
    x0 = np.array(
        [
            max(amp0, 1.0),
            gx[peak_idx],
            gy[peak_idx],
            0.5,
            0.5,
            float(np.median(sub)),
        ]
    )
    flat = sub.ravel()
    px, py = gx.ravel(), gy.ravel()

    # unweighted: sqrt-count weights bias the widths low at the count levels
    # strobed images reach, because empty wing pixels dominate
    def residual(p):
        amp, mx, my, sr, sa, bg = p
        dr = (px - mx) * u_r[0] + (py - my) * u_r[1]
        da = (px - mx) * u_a[0] + (py - my) * u_a[1]
        model = amp * np.exp(-2.0 * (dr**2 / sr**2 + da**2 / sa**2)) + bg
        return model - flat

    lm = levenberg_marquardt(residual, None, x0, max_iter=300)
    amp, mx, my, sr, sa, bg = lm.x
    if not lm.converged or amp <= 0:
        raise FitError(
            f"spot fit did not converge: cost={lm.cost:.4g}, grad={lm.grad_norm:.4g}, "
            f"params={np.round(lm.x, 4).tolist()}"
        )
    return abs(float(sr)), abs(float(sa))


def resolve_two_spots(
    image: StrobedImage,
    center_a_um: tuple[float, float],
    center_b_um: tuple[float, float],
    probe_radius_um: float = 0.8,
) -> tuple[float, float, float]:
    """Peak heights near two expected centres and the valley between them.

    Returns (peak_a, peak_b, valley_min) where valley_min is the minimum of
    the profile sampled along the straight line between the two peaks.
    Two emitters count as resolved when the valley drops below half the
    smaller peak.
    """

    def local_peak(cx, cy):
        sel_x = np.abs(image.x_um - cx) <= probe_radius_um
        sel_y = np.abs(image.y_um - cy) <= probe_radius_um
        sub = image.counts[np.ix_(sel_y, sel_x)]
        if sub.size == 0:
            raise ValidationError("probe window is empty")
        idx = np.unravel_index(np.argmax(sub), sub.shape)
        return (
            float(sub[idx]),
            float(image.x_um[sel_x][idx[1]]),
            float(image.y_um[sel_y][idx[0]]),
        )

    pa, ax, ay = local_peak(*center_a_um)
    pb, bx, by = local_peak(*center_b_um)
    ts = np.linspace(0.0, 1.0, 41)
    line_x = ax + (bx - ax) * ts
    line_y = ay + (by - ay) * ts
    profile = []
    for lx, ly in zip(line_x, line_y):
        ixn = int(np.argmin(np.abs(image.x_um - lx)))
        iyn = int(np.argmin(np.abs(image.y_um - ly)))
        profile.append(float(image.counts[iyn, ixn]))
    interior = profile[5:-5]
    return pa, pb, min(interior) if interior else min(profile)
