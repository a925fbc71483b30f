"""End-to-end measurement pipelines: sequence -> spin -> readout -> contrast.

A scan is evaluated in one batch: the calibration is built once, the
timelines of all points are compiled as one :class:`seqlang.TimelineBatch`
(arrays, no program text, the compiler that programs use), and one call of
:func:`spindyn.simulate_sequence`, the one simulator, gives every
P(m_S = -1).  The tests check the scans against an independent oracle that
integrates the Bloch equation through each point's compiled program.

Each scan point's final spin state is converted into expected
early-window photon counts through the transit readout model,
Poisson-sampled in signal and reference windows, and recorded as the
normalised ratio with its shot-noise standard error.  The reference
window is collected one revolution later with the NV repumped to the
bright state, matching the experimental normalisation, so signal and
reference are statistically independent.  A scan draws from one RNG
stream, ``default_rng([cfg.seed, stream])``: all signal counts in one Poisson
call, then all reference counts in another.  So a point's draw depends on
the scan's length and on the point's position in it.

Expected window counts are linear in the initial populations (the rate
equations are linear), so the bright/dark responses are integrated once
per configuration, in one transit pass that carries both spin states, and
mixed per point.

Echo scans apply the nuclear-bath collapse-revival envelope to the
coherent fringe; by default pulses are the zero-duration calibrated
rotations (per-angle pulse calibration is assumed to achieve its target),
with ``ideal_pulses=False`` switching to finite calibrated rectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import photophysics, seqlang, spindyn
from .config import ExperimentConfig
from .errors import FitError, ValidationError, check_expected_counts
from .estimation import EchoDataset
from .imaging import Emitter, EmitterSet, ScanGrid, StrobedImage, check_arc_lengths
from .imaging import fit_spot_width, render_image

# Most points in one Rabi or echo scan; bounds the batched arrays (a scan
# of this size peaks at about 0.3 GB for Rabi, 0.45 GB for a finite-pulse echo).
MAX_SCAN_POINTS = 1_000_000
# Chord between the two default emitters, um: a pair the strobed image resolves.
EMITTER_SEPARATION_UM = 3.6


@dataclass(frozen=True)
class WindowResponse:
    """Expected early-window counts per shot for bright/dark initial spin."""

    n_bright: float
    n_dark: float

    @property
    def contrast(self) -> float:
        return 1.0 - self.n_dark / self.n_bright

    def expected(self, p_ms1) -> np.ndarray:
        p = np.asarray(p_ms1, dtype=float)
        return (1.0 - p) * self.n_bright + p * self.n_dark


def window_response(cfg: ExperimentConfig) -> WindowResponse:
    """Integrate the transit readout once, for both spin basis states together."""
    pro = cfg.protocol
    bright, dark = photophysics.spin_window_counts(
        cfg.geometry,
        cfg.beam,
        cfg.rates,
        cfg.strobe.t_pulse_us,
        pro.turn_on_offset_us,
        pro.readout_window_us,
    )
    if bright <= 0:
        raise ValidationError(
            "readout window collects no light; check the beam (beam.waist_diameter_1e2_um, "
            "beam.peak_counts_stationary_cps), the orbit (geometry.r_nv_um, geometry.f_rot_hz), "
            "protocol.turn_on_offset_us and rates.pump_rate_peak_per_us"
        )
    return WindowResponse(n_bright=bright, n_dark=dark)


# ---------------------------------------------------------------------------
# echo scan


def _check_readout_timing(g, ends_us, late, scan: str) -> None:
    """Refuse a scan whose sequence has not ended when the readout starts, one turn in.

    ``late`` marks the points whose sequence end ``ends_us`` reaches the
    readout; ``scan`` names the values that set that end.
    """
    if np.any(late):
        bad = float(np.atleast_1d(ends_us)[np.atleast_1d(late)][0])
        raise ValidationError(
            f"a scan point's sequence ends at {bad} us, not before the readout at the rotation "
            f"period {g.t_rot_us:.7g} us; check {scan} and geometry.f_rot_hz"
        )


def calibration(cfg: ExperimentConfig) -> seqlang.CalibrationTable:
    """The configured per-angle Rabi calibration, as scans and ``compile-seq`` use it."""
    return seqlang.build_calibration(
        cfg.geometry, cfg.field_cfg, cfg.protocol.base_rabi_mhz, cfg.protocol.n_cal_angles
    )


def echo_populations(cfg: ExperimentConfig, tau_us, ideal_pulses: bool = True) -> np.ndarray:
    """P(m_S = -1) at readout after a tau echo, bath envelope applied, for every tau of a scan."""
    g, f, c = cfg.geometry, cfg.field_cfg, cfg.constants
    tau = np.asarray(tau_us, dtype=float)
    _check_readout_timing(g, tau, tau >= g.t_rot_us, "tau_us (--tau)")
    if ideal_pulses:
        batch = seqlang.ideal_echo_timeline(tau, g.t_rot_us, cfg.strobe.t_pulse_us)
    else:
        batch = seqlang.echo_batch(tau, g, calibration(cfg), cfg.strobe.t_pulse_us)
    z = spindyn.simulate_sequence(batch, g, f, c)[:, 2]
    env = spindyn.c13_envelope(echo_params_from_config(cfg), c, tau)
    return 0.5 * (1.0 - z * env)


def echo_params_from_config(cfg: ExperimentConfig) -> spindyn.EchoParams:
    return spindyn.EchoParams.from_experiment(
        cfg.geometry,
        cfg.field_cfg,
        t2_us=cfg.protocol.t2_us,
        envelope_exponent=cfg.protocol.envelope_exponent,
    )


def _sample_scan(
    cfg: ExperimentConfig, values, name: str, populations, stream: int
) -> tuple[EchoDataset, WindowResponse]:
    """Sort and check the scan axis ``values`` (``name``), then Poisson-sample its windows.

    ``populations`` maps the sorted axis to P(m_S = -1) at readout.  Each
    point takes ``protocol.shots_per_point`` repetitions.  Both draws come
    from one stream, ``default_rng([cfg.seed, stream])``.  The
    dataset holds the per-point ratio signal/reference, each count clamped
    at 1, and its shot-noise standard error.
    """
    if len(values) > MAX_SCAN_POINTS:
        raise ValidationError(f"{name} has {len(values)} points, more than {MAX_SCAN_POINTS}")
    axis = np.asarray(sorted(float(v) for v in values), dtype=float)
    if axis.size == 0:
        raise ValidationError(f"{name} is empty")
    shots = cfg.protocol.shots_per_point
    p_ms1 = populations(axis)
    resp = window_response(cfg)
    check_expected_counts(
        max(resp.n_bright, resp.n_dark) * shots,
        "beam.peak_counts_stationary_cps or the shots per point (protocol.shots_per_point, --shots)",
    )
    rng = np.random.default_rng([cfg.seed, stream])
    s = np.maximum(rng.poisson(resp.expected(p_ms1) * shots), 1)
    r = np.maximum(rng.poisson(resp.n_bright * shots, size=p_ms1.size), 1)
    ratio = s / r
    return EchoDataset(axis, ratio, ratio * np.sqrt(1.0 / s + 1.0 / r)), resp


def simulate_echo_scan(
    cfg: ExperimentConfig, tau_list, ideal_pulses: bool = True
) -> tuple[EchoDataset, dict]:
    """Echo fringe dataset (tau_us, signal, sigma) with Poisson error bars."""
    data, resp = _sample_scan(
        cfg, tau_list, "tau_list", lambda tau: echo_populations(cfg, tau, ideal_pulses), 17
    )
    meta = {
        "kind": "echo-scan",
        "shots_per_point": cfg.protocol.shots_per_point,
        "ideal_pulses": ideal_pulses,
        "window_contrast": resp.contrast,
        "n_bright_per_shot": resp.n_bright,
    }
    return data, meta


# ---------------------------------------------------------------------------
# Rabi scan


def _rabi_pulse_at(cfg: ExperimentConfig, pulse_at: str) -> dict:
    """Where the variable pulse sits: at the trigger, or half a turn later after a pi."""
    if pulse_at == "start":
        return {"pulse_at_us": 0.0}
    if pulse_at == "half":
        return {"pulse_at_us": cfg.geometry.t_rot_us / 2.0, "prepend_pi": True}
    raise ValidationError("pulse_at must be 'start' or 'half'")


def rabi_populations(cfg: ExperimentConfig, durations_us, pulse_at: str = "start") -> np.ndarray:
    """P(m_S = -1) after a single variable pulse at t = 0 or t = T_rot/2, for every duration."""
    g, f, c = cfg.geometry, cfg.field_cfg, cfg.constants
    where = _rabi_pulse_at(cfg, pulse_at)
    # the simulator's test of a laser boundary inside the pulse, as the scan gives it
    ends = where["pulse_at_us"] + np.asarray(durations_us, dtype=float)
    _check_readout_timing(
        g, ends, ends > g.t_rot_us, "durations_us (--durations), pulse_at (--pulse-at)"
    )
    batch = seqlang.rabi_batch(durations_us, g, calibration(cfg), cfg.strobe.t_pulse_us, **where)
    return 0.5 * (1.0 - spindyn.simulate_sequence(batch, g, f, c)[:, 2])


def simulate_rabi_scan(
    cfg: ExperimentConfig, durations_us, pulse_at: str = "start"
) -> tuple[EchoDataset, dict]:
    """Rabi dataset (duration_us, signal, sigma) through the full pipeline."""
    data, resp = _sample_scan(
        cfg, durations_us, "durations_us", lambda d: rabi_populations(cfg, d, pulse_at), 29
    )
    meta = {
        "kind": "rabi-scan",
        "pulse_at": pulse_at,
        "shots_per_point": cfg.protocol.shots_per_point,
        "window_contrast": resp.contrast,
    }
    return data, meta


# ---------------------------------------------------------------------------
# imaging


def default_emitters(cfg: ExperimentConfig) -> EmitterSet:
    """Two emitters on the configured orbit, a chord ``EMITTER_SEPARATION_UM`` apart.

    They sit at azimuths phi_pos0 and phi_pos0 + dphi at the trigger edge.
    """
    g, b = cfg.geometry, cfg.beam.peak_counts_stationary_cps
    r = g.r_nv_um
    if r <= 0:
        return EmitterSet.single(0.0, 0.0, b)
    dphi = 2.0 * math.asin(min(EMITTER_SEPARATION_UM / (2.0 * r), 1.0))
    phis = (g.phi_pos0_rad, g.phi_pos0_rad + dphi)
    return EmitterSet(tuple(Emitter((r * math.cos(phi), r * math.sin(phi)), b) for phi in phis))


def strobed_center_um(cfg: ExperimentConfig, emitter_position_um) -> tuple[float, float]:
    """Where an emitter appears in a strobed image (trigger position rotated by t_phi)."""
    ang = cfg.strobe_angle_rad
    x, y = emitter_position_um
    return (
        x * math.cos(ang) - y * math.sin(ang),
        x * math.sin(ang) + y * math.cos(ang),
    )


def spot_centers_um(
    cfg: ExperimentConfig, emitters: EmitterSet, stationary: bool = False
) -> list[tuple[float, float]]:
    """Where each emitter's spot appears: its trigger position, or strobed by t_phi.

    An emitter radius or wobble the render refuses is refused here already,
    before a window is built around the spots.
    """
    check_arc_lengths(emitters, cfg.strobe, stationary)
    return [
        e.position_um if stationary else strobed_center_um(cfg, e.position_um)
        for e in emitters.emitters
    ]


def simulate_image(
    cfg: ExperimentConfig, grid: ScanGrid, emitters: EmitterSet | None = None, stationary: bool = False
) -> tuple[StrobedImage, list[dict]]:
    """Render a strobed image and fit the width of every emitter's spot."""
    emitters = emitters if emitters is not None else default_emitters(cfg)
    image = render_image(
        grid,
        emitters,
        cfg.geometry,
        cfg.strobe,
        seed=cfg.seed,
        stationary=stationary,
        max_pixels=cfg.protocol.max_image_pixels,
    )
    summaries = []
    for center in spot_centers_um(cfg, emitters, stationary):
        entry = {"center_x_um": center[0], "center_y_um": center[1]}
        try:
            sr, sa = fit_spot_width(image, center)
            entry.update(sigma_radial_um=sr, sigma_azimuthal_um=sa)
        except (FitError, ValidationError) as exc:  # keep the image even if one spot fit fails
            entry.update(error=str(exc))
        summaries.append(entry)
    return image, summaries


# ---------------------------------------------------------------------------
# dataset / image file formats


def format_dataset(names: tuple[str, ...], columns, meta: dict, cfg: ExperimentConfig) -> str:
    lines = ["# rotornv-dataset v1"]
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    lines.append(f"# config_sha256: {cfg.sha256()}")
    lines.append(f"# seed: {cfg.seed}")
    lines.append("# columns: " + " ".join(names))
    # one %-format of the whole table: the same text as f"{v:.9g}" per value
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = " ".join(["%.9g"] * table.shape[1]) + "\n"
    return "\n".join(lines) + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist())


def parse_dataset(text: str) -> tuple[list[str], np.ndarray, dict]:
    """Parse a columnar dataset; malformed rows are reported with line numbers.

    Header lines are split from data lines first, and the data lines are
    converted in one ``np.loadtxt`` call, whose numbers are those of
    ``float``.  Only when that conversion or the column check fails are the
    rows gone through one by one, to name the failing line.  Every row is
    checked against the ``# columns:`` header.
    """
    names: list[str] = []
    meta: dict = {}
    linenos: list[int] = []
    lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("columns:"):
                names = body.split(":", 1)[1].split()
            elif ":" in body:
                key, _, val = body.partition(":")
                meta[key.strip()] = val.strip()
        else:
            linenos.append(lineno)
            lines.append(line)
    if not lines:
        raise ValidationError("dataset contains no data rows")
    try:
        rows = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
        if not names or rows.shape[1] == len(names):
            return names, rows, meta
    except ValueError:  # a token float() may still take, or rows of unequal length
        pass
    values = []
    for lineno, line in zip(linenos, lines):
        parts = line.split()
        try:
            values.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: malformed data row {line!r}") from exc
        if names and len(parts) != len(names):
            raise ValidationError(
                f"line {lineno}: expected {len(names)} columns, got {len(parts)}"
            )
    return names, np.asarray(values, dtype=float), meta


def read_echo_dataset(path: str) -> tuple[EchoDataset, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        names, rows, meta = parse_dataset(fh.read())
    if rows.shape[1] < 3:
        raise ValidationError(f"{path}: expected 3 columns (tau/duration, signal, sigma)")
    order = np.argsort(rows[:, 0])
    rows = rows[order]
    return EchoDataset(rows[:, 0], rows[:, 1], rows[:, 2]), meta


def format_image(image: StrobedImage, cfg: ExperimentConfig, csv: bool = False) -> str:
    sep = "," if csv else " "
    lines = ["# rotornv-image v1"]
    lines.append(f"# x_min_um: {image.x_um[0]:.9g}")
    lines.append(f"# x_max_um: {image.x_um[-1]:.9g}")
    lines.append(f"# y_min_um: {image.y_um[0]:.9g}")
    lines.append(f"# y_max_um: {image.y_um[-1]:.9g}")
    lines.append(f"# step_um: {image.x_um[1] - image.x_um[0]:.9g}" if image.x_um.size > 1 else "# step_um: 0")
    lines.append(f"# plane: {image.meta.get('plane', 'xy')}")
    lines.append(f"# t_phi_us: {image.meta.get('t_phi_us', 0.0):.9g}")
    lines.append(f"# t_pulse_us: {image.meta.get('t_pulse_us', 0.0):.9g}")
    lines.append(f"# duty_cycle: {image.duty_cycle:.9g}")
    lines.append(f"# stationary: {image.meta.get('stationary', False)}")
    lines.append(f"# config_sha256: {cfg.sha256()}")
    lines.append(f"# seed: {cfg.seed}")
    lines.append("# rows: y ascending; columns: x ascending; integer counts")
    lines.extend(sep.join(map(str, row)) for row in image.counts.tolist())
    return "\n".join(lines) + "\n"
