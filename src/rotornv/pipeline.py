"""End-to-end measurement pipelines: sequence -> spin -> readout -> contrast.

A scan is evaluated in one batch: the calibration is built once, the
timelines of all points are compiled as one :class:`seqlang.TimelineBatch`
(arrays, no program text, the compiler that programs use), and one call of
:func:`spindyn.simulate_sequence`, the one simulator, gives every
P(m_S = -1).  The tests check the scans against an independent oracle that
integrates the Bloch equation through each point's compiled program.

Each point is read out through the early-window model of :mod:`photophysics`.
A scan samples it from one RNG stream, ``default_rng([cfg.seed, stream])``,
so a point's draw depends on the scan's length and its position in it.

Echo scans apply the nuclear-bath collapse-revival envelope to the
coherent fringe; by default pulses are the zero-duration calibrated
rotations (per-angle pulse calibration is assumed to achieve its target),
with ``ideal_pulses=False`` switching to finite calibrated rectangles.

Each command-line subcommand, and each demo script, is one run here (a
scan, a readout trace, an image, a compiled program or a fit) written in
one of the formats below (:func:`format_scan`, :func:`format_image`,
:func:`format_spots`).

A cold call loads only the layers it runs.  :mod:`photophysics` and
:mod:`seqlang` are imported by the entry points that use them
(:func:`window_response`, :func:`_sample_scan` and
:func:`simulate_readout_trace`; :func:`calibration`, :func:`compile_program`,
:func:`echo_populations` and :func:`rabi_populations`), so ``dump-config``,
``fit`` and ``simulate-image`` load neither.  :mod:`estimation`,
:mod:`imaging` and :mod:`spindyn` stay module-level imports: every scan
returns an :class:`estimation.EchoDataset`, and the benchmark's tracer
(``perfbench/spantrace.py``) looks up every layer it wraps in ``sys.modules``,
where its readout workload reaches them only through ``cli``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import spindyn
from .config import ExperimentConfig, check_value, check_values, read_text
from .errors import FitError, ValidationError
from .estimation import EchoDataset, EchoFitModel, FitResult, fit_echo, fit_rabi
from .imaging import Emitter, EmitterSet, ScanGrid, StrobedImage
from .imaging import fit_spot_width, render_image

if TYPE_CHECKING:
    from . import photophysics, seqlang

# Most points in one Rabi or echo scan; bounds the batched arrays (a scan
# of this size peaks at about 0.3 GB for Rabi, 0.45 GB for a finite-pulse echo).
MAX_SCAN_POINTS = 1_000_000
# Chord between the two default emitters, um: a pair the strobed image resolves.
EMITTER_SEPARATION_UM = 3.6
# Half the side of the default image window, um.
IMAGE_HALF_WIDTH_UM = 4.0


def window_response(cfg: ExperimentConfig) -> photophysics.WindowResponse:
    """The configured early-window response of both spin states, one transit pass; refused if dark."""
    from . import photophysics

    g, pro = cfg.geometry, cfg.protocol
    return photophysics.spin_window_counts(
        g, cfg.beam, cfg.rates, cfg.strobe.t_pulse_us, pro.turn_on_offset_us, pro.readout_window_us
    ).lit()


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
    from . import seqlang

    return seqlang.build_calibration(
        cfg.geometry, cfg.field_cfg, cfg.protocol.base_rabi_mhz, cfg.protocol.n_cal_angles
    )


def compile_program(
    cfg: ExperimentConfig, text: str, t_phi_us: float = 0.0, allow_multi_period: bool = False
) -> seqlang.TimelineBatch:
    """The sequence program ``text``, parsed and compiled against the configured calibration."""
    from . import seqlang

    return seqlang.compile_timeline(
        seqlang.parse_sequence(text),
        cfg.geometry,
        calibration(cfg),
        t_phi_us=t_phi_us,
        allow_multi_period=allow_multi_period,
    )


def echo_populations(cfg: ExperimentConfig, tau_us, ideal_pulses: bool = True) -> np.ndarray:
    """P(m_S = -1) at readout after a tau echo, bath envelope applied, for every tau of a scan."""
    from . import seqlang

    g, f, c = cfg.geometry, cfg.field_cfg, cfg.constants
    tau = check_values("tau_us", tau_us)
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


def _refuse_repeats(axis: np.ndarray, name: str) -> None:
    """Refuse the sorted scan axis ``axis``, named ``name``, if it repeats a value, naming the value."""
    repeated = axis[1:][axis[1:] == axis[:-1]]
    if repeated.size:
        raise ValidationError(f"{name} repeats the value {repeated[0]:g}")


def _sample_scan(
    cfg: ExperimentConfig, values, name: str, populations, stream: int
) -> tuple[EchoDataset, photophysics.WindowResponse]:
    """Sort and check the scan axis ``values`` (``name``), then sample its windows from ``stream``.

    ``populations`` maps the sorted axis to P(m_S = -1) at readout.
    """
    from . import photophysics

    if len(values) > MAX_SCAN_POINTS:
        raise ValidationError(f"{name} has {len(values)} points, more than {MAX_SCAN_POINTS}")
    axis = np.asarray(sorted(float(v) for v in values), dtype=float)
    if axis.size == 0:
        raise ValidationError(f"{name} is empty")
    _refuse_repeats(axis, name)
    p_ms1 = populations(axis)
    resp = window_response(cfg)
    rng = np.random.default_rng([cfg.seed, stream])
    ratio, sigma = photophysics.sample_window_ratios(resp, p_ms1, cfg.protocol.shots_per_point, rng)
    return EchoDataset(axis, ratio, sigma), resp


def simulate_echo_scan(
    cfg: ExperimentConfig, tau_list, ideal_pulses: bool = True
) -> tuple[EchoDataset, dict]:
    """Echo fringe dataset (tau_us, signal, sigma) with Poisson error bars."""
    data, resp = _sample_scan(
        cfg, tau_list, "tau_us (--tau)", lambda tau: echo_populations(cfg, tau, ideal_pulses), 17
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
    from . import seqlang

    g, f, c = cfg.geometry, cfg.field_cfg, cfg.constants
    where = _rabi_pulse_at(cfg, pulse_at)
    durations = check_values("durations_us", durations_us)
    # the simulator's order rule (the pulse ends before the readout laser starts), naming the scan's flags
    ends = where["pulse_at_us"] + durations
    _check_readout_timing(
        g, ends, ends > g.t_rot_us, "durations_us (--durations), pulse_at (--pulse-at)"
    )
    batch = seqlang.rabi_batch(durations, g, calibration(cfg), cfg.strobe.t_pulse_us, **where)
    return 0.5 * (1.0 - spindyn.simulate_sequence(batch, g, f, c)[:, 2])


def simulate_rabi_scan(
    cfg: ExperimentConfig, durations_us, pulse_at: str = "start"
) -> tuple[EchoDataset, dict]:
    """Rabi dataset (duration_us, signal, sigma) through the full pipeline."""
    data, resp = _sample_scan(
        cfg, durations_us, "durations_us (--durations)", lambda d: rabi_populations(cfg, d, pulse_at), 29
    )
    meta = {
        "kind": "rabi-scan",
        "pulse_at": pulse_at,
        "shots_per_point": cfg.protocol.shots_per_point,
        "window_contrast": resp.contrast,
    }
    return data, meta


# ---------------------------------------------------------------------------
# readout trace


def simulate_readout_trace(cfg: ExperimentConfig, initial: str) -> tuple[photophysics.PhotonTrace, dict]:
    """One transit's binned counts from the spin state ``initial`` ('ms0' or 'ms1'), and its header.

    It sums ``protocol.shots_per_point`` transits from ``cfg.seed``: the config, which the header hashes, sets it.
    """
    from . import photophysics

    if initial not in ("ms0", "ms1"):
        raise ValidationError("initial must be 'ms0' or 'ms1'")
    pro = cfg.protocol
    trace = photophysics.simulate_readout(
        getattr(photophysics.LevelPopulations, initial)(), cfg.geometry, cfg.beam, cfg.rates,
        t_pulse_us=cfg.strobe.t_pulse_us,
        turn_on_offset_us=pro.turn_on_offset_us,
        shots=pro.shots_per_point,
        seed=cfg.seed,
        bin_width_us=pro.bin_width_us,
    )
    return trace, {"kind": "readout-trace", "initial": initial, "shots": trace.shots}


# ---------------------------------------------------------------------------
# fits


def fit_dataset(
    cfg: ExperimentConfig,
    data: EchoDataset,
    model: str = "echo",
    b_max: float = 0.5,
    max_iter: int = 200,
) -> FitResult:
    """Fit an echo scan's fringe (with the configured constants and rotation) or a Rabi scan."""
    if model == "echo":
        fringe = EchoFitModel(constants=cfg.constants, f_rot_hz=cfg.geometry.f_rot_hz)
        return fit_echo(data, fringe, b_max=b_max, max_iter=max_iter)
    if model == "rabi":
        return fit_rabi(data, max_iter=max_iter)
    raise ValidationError("model must be 'echo' or 'rabi'")


def check_fit_axis(cfg: ExperimentConfig, data: EchoDataset, model: str) -> None:
    """Refuse a dataset to fit as ``model`` whose axis the simulators would refuse.

    The axis must lie in its scan's row, tau_us (echo) or durations_us
    (Rabi), and an echo's tau before the rotation period.
    """
    axis = "tau_us" if model == "echo" else "durations_us"
    for end in data.tau_us[:: max(len(data) - 1, 1)]:  # the sorted axis's ends
        check_value(axis, end, axis)
    if model == "echo":
        g = cfg.geometry
        _check_readout_timing(g, data.tau_us, data.tau_us >= g.t_rot_us, axis)


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


def spot_centers_um(
    cfg: ExperimentConfig, emitters: EmitterSet, stationary: bool = False
) -> list[tuple[float, float]]:
    """Where each emitter's spot appears: its trigger position, or that rotated by the strobe angle."""
    positions = [e.position_um for e in emitters.emitters]
    if stationary:
        return positions
    cos_a, sin_a = math.cos(cfg.strobe_angle_rad), math.sin(cfg.strobe_angle_rad)
    return [(x * cos_a - y * sin_a, x * sin_a + y * cos_a) for x, y in positions]


def _window(bounds, center: float) -> tuple[float, float]:
    """The (min, max) ``bounds``, a None bound taken IMAGE_HALF_WIDTH_UM below or above ``center``."""
    lo, hi = bounds
    half = IMAGE_HALF_WIDTH_UM
    return (center - half if lo is None else lo, center + half if hi is None else hi)


def simulate_image(
    cfg: ExperimentConfig, x_range_um=(None, None), y_range_um=(None, None),
    step_um: float = 0.15, dwell_ms: float = 200.0, plane: str = "xy",
    emitters: EmitterSet | None = None, stationary: bool = False,
) -> tuple[StrobedImage, list[dict]]:
    """Render a strobed raster and fit the width of every emitter's spot.

    The emitters default to :func:`default_emitters`.  A bound of the
    (min, max) ranges left None comes from a window 2 IMAGE_HALF_WIDTH_UM
    wide centred on the spots; each spot's fit starts at its centre.
    """
    emitters = emitters if emitters is not None else default_emitters(cfg)
    centers = spot_centers_um(cfg, emitters, stationary)
    cx, cy = np.mean(centers, axis=0).tolist()
    grid = ScanGrid(_window(x_range_um, cx), _window(y_range_um, cy), step_um, dwell_ms, plane)
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
    for center in centers:
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


def format_scan(data, meta: dict, cfg: ExperimentConfig) -> str:
    """The dataset text of a run: a Rabi or echo scan, or a readout trace.

    ``meta["kind"]`` names the axis column.  A scan's columns are (axis,
    signal, sigma); a trace's are its bin starts and counts.
    """
    if meta["kind"] == "readout-trace":
        names, columns = ("bin_start_us", "counts"), (data.bin_starts_us, data.counts)
    else:
        axis = {"rabi-scan": "duration_us", "echo-scan": "tau_us"}[meta["kind"]]
        names, columns = (axis, "signal", "sigma"), (data.tau_us, data.signal, data.sigma)
    return format_dataset(names, columns, meta, cfg)


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
    """The (axis, signal, sigma) dataset in the file ``path``, rows sorted by the axis."""
    names, rows, meta = parse_dataset(read_text(path, "dataset"))
    if rows.shape[1] < 3:
        raise ValidationError(f"{path}: expected 3 columns (tau/duration, signal, sigma)")
    rows = rows[np.argsort(rows[:, 0])]
    _refuse_repeats(rows[:, 0], f"{path}: {names[0] if names else 'the first column'}")
    try:
        return EchoDataset(rows[:, 0], rows[:, 1], rows[:, 2]), meta
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def format_image(image: StrobedImage, cfg: ExperimentConfig, csv: bool = False) -> str:
    sep = "," if csv else " "
    lines = ["# rotornv-image v1"]
    lines.append(f"# x_min_um: {image.x_um[0]:.9g}")
    lines.append(f"# x_max_um: {image.x_um[-1]:.9g}")
    lines.append(f"# y_min_um: {image.y_um[0]:.9g}")
    lines.append(f"# y_max_um: {image.y_um[-1]:.9g}")
    lines.append(f"# step_um: {image.meta['step_um']:.9g}")
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


def format_spots(summaries: list[dict]) -> str:
    """The ``# spot`` lines of an image's spot fits: each centre with its widths or its failure."""
    lines = []
    for i, s in enumerate(summaries):
        line = f"# spot {i}: centre ({s['center_x_um']:.3f}, {s['center_y_um']:.3f}) um, "
        if "error" in s:
            line += f"fit failed: {s['error']}"
        else:
            line += (f"sigma_radial {s['sigma_radial_um']:.4f} um, "
                     f"sigma_azimuthal {s['sigma_azimuthal_um']:.4f} um")
        lines.append(line + "\n")
    return "".join(lines)
