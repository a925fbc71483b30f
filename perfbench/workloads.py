"""The four closed-loop workloads: inputs from a seed, one operation, output checks.

Each workload makes the inputs of operation ``i`` from ``(seed, i)`` alone,
and a timed run does a fixed number of operations (`Workload.timed_ops`),
so a run's inputs, outputs and failures repeat exactly for a given seed.  Inputs drawn from a range follow a seed-shifted Halton sequence,
so any prefix of a run covers the range evenly and the mix of cheap and
costly operations stays steady from run to run.

`prepare` makes the inputs and reference values, `run` is the timed user
action and `check` verifies the program's outputs; only `run` is timed.
An operation fails on a non-zero exit code, a raised exception or a failed
output check.  Failures that are known defects of the program (see
`KNOWN_DEFECTS`) count as failed operations but do not make the run
incorrect; any other failure does.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re

import numpy as np

from rotornv import cli, photophysics, seqlang
from rotornv.config import apply_overrides, config_from_dict
from rotornv.geometry import eac_amplitude

# failure classes a workload is known to produce at the seed state
KNOWN_DEFECTS = {
    # weak identifiability of the short-scan fringe fit
    "echo-sensing": {"fit_exit_3", "fit_exit_4", "out_of_domain", "beyond_5_sigma"},
}


class Outcome:
    """Result of checking one operation."""

    def __init__(self, failure: str | None = None, detail: str = "", outputs: bytes = b"", **stats):
        self.failure = failure
        self.detail = detail
        self.outputs = outputs
        self.stats = stats


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process, as `rotornv ARGV`; return (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue()


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _remove(*paths: str) -> None:
    for p in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(p)


def _radical_inverse(k: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * f
        f /= base
    return inv


def _draw(seed: int, tag: int, i: int, dims: int) -> tuple[np.ndarray, int]:
    """Unit-cube point of operation ``i`` and a per-operation program seed.

    The points are a Halton sequence shifted by a seed-drawn offset (modulo
    1), so every prefix of a run covers the cube evenly and the seed moves
    where the points fall.
    """
    shift = np.random.default_rng([seed, tag]).random(dims)
    point = np.array([_radical_inverse(i + 1, b) for b in (2, 3)[:dims]])
    op_seed = int(np.random.default_rng([seed, tag, i]).integers(1, 2**31 - 1))
    return (point + shift) % 1.0, op_seed


def _fit_param(text: str, name: str) -> tuple[float, float] | None:
    m = re.search(rf"^{name}: (\S+) \+- (\S+)$", text, re.MULTILINE)
    return (float(m.group(1)), float(m.group(2))) if m else None


def _sets(overrides: list[str]) -> list[str]:
    return [arg for o in overrides for arg in ("--set", o)]


class Workload:
    name = ""
    warmup = 1  # untimed operations before timing; they also feed the output digest
    trace_ops = 1  # operations in each pass of the traced run
    op_s = 1.0  # one operation and its reference job on the reference machine, seconds
    min_ops = 16  # timed operations per run at least

    def timed_ops(self, seconds: float) -> int:
        """Timed operations per run: what fills ``seconds`` on the reference machine."""
        return max(self.min_ops, math.ceil(seconds / self.op_s))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self, i: int) -> dict:
        raise NotImplementedError

    def run(self, x: dict):
        raise NotImplementedError

    def check(self, x: dict, raw) -> Outcome:
        raise NotImplementedError


class EchoSensing(Workload):
    """simulate-echo then fit, at a drawn field tilt and NV azimuth."""

    name = "echo-sensing"
    warmup = 4
    trace_ops = 8
    op_s = 0.76
    b_max = 0.5  # the fit subcommand's default amplitude bound, gauss

    def prepare(self, i):
        (u_theta, u_phi), op_seed = _draw(self.seed, 1, i, 2)
        overrides = [
            f"field.theta_b_deg={0.5 + u_theta:.6f}",
            f"geometry.phi_nv0_deg={360.0 * u_phi:.6f}",
        ]
        cfg = apply_overrides(config_from_dict({}), overrides)
        _remove(self.path("echo.dat"), self.path("echo_fit.txt"))
        return {
            "overrides": overrides,
            "seed": op_seed,
            "b_true": eac_amplitude(cfg.geometry, cfg.field_cfg),
        }

    def run(self, x):
        sets = _sets(x["overrides"])
        data, fit = self.path("echo.dat"), self.path("echo_fit.txt")
        rc_sim, err = cli_call(["simulate-echo", *sets, "--seed", str(x["seed"]), "-o", data])
        if rc_sim != 0:
            return rc_sim, None, err
        rc_fit, err = cli_call(["fit", data, *sets, "--b-max", repr(self.b_max), "-o", fit])
        return rc_sim, rc_fit, err

    def check(self, x, raw):
        rc_sim, rc_fit, err = raw
        data, fit = _read(self.path("echo.dat")), _read(self.path("echo_fit.txt"))
        outputs = data + fit + f"{rc_sim} {rc_fit}".encode()
        if rc_sim != 0:
            return Outcome("simulate_exit", f"simulate-echo exit {rc_sim}: {err.strip()}", outputs)
        if rc_fit == 3 and err.startswith("fit error:"):
            return Outcome("fit_exit_3", err.strip(), outputs)
        if rc_fit == 4:
            return Outcome("fit_exit_4", "fit did not converge", outputs)
        if rc_fit != 0:
            return Outcome("fit_exit", f"fit exit {rc_fit}: {err.strip()}", outputs)
        est = _fit_param(fit.decode(), "b_perp_gauss")
        if est is None:
            return Outcome("fit_output", "no b_perp_gauss line in the fit output", outputs)
        b, s = est
        within_3 = abs(b - x["b_true"]) <= 3.0 * s
        if not 0.0 <= b <= self.b_max:
            return Outcome("out_of_domain", f"b = {b:.4g} G outside [0, {self.b_max}]", outputs, within_3=within_3)
        if abs(b - x["b_true"]) > 5.0 * s:
            return Outcome(
                "beyond_5_sigma",
                f"b = {b:.4g} +- {s:.3g} G against {x['b_true']:.4g} G",
                outputs,
                within_3=within_3,
            )
        return Outcome(outputs=outputs, within_3=within_3)


class DenseScan(Workload):
    """Long Rabi scans at both pulse positions with fits, and a long finite-pulse echo."""

    name = "dense-scan"
    warmup = 1
    trace_ops = 3
    op_s = 1.4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        cfg = config_from_dict({})
        cal = seqlang.build_calibration(
            cfg.geometry, cfg.field_cfg, cfg.protocol.base_rabi_mhz, cfg.protocol.n_cal_angles
        )
        # rotation angle at the pulse: the trigger edge, or half a turn later
        self.rabi_ref = {"start": cal.rabi_at(0.0), "half": cal.rabi_at(180.0)}
        self.files = [self.path(f) for f in ("rabi_start.dat", "rabi_start_fit.txt",
                                              "rabi_half.dat", "rabi_half_fit.txt", "echo_long.dat")]

    def prepare(self, i):
        _, op_seed = _draw(self.seed, 2, i, 0)
        _remove(*self.files)
        return {"seed": op_seed}

    def run(self, x):
        codes, errs = [], []
        for at in ("start", "half"):
            data, fit = self.path(f"rabi_{at}.dat"), self.path(f"rabi_{at}_fit.txt")
            for argv in (
                ["simulate-rabi", "--durations", "0:1.1:400", "--pulse-at", at,
                 "--seed", str(x["seed"]), "-o", data],
                ["fit", data, "--model", "rabi", "-o", fit],
            ):
                rc, err = cli_call(argv)
                codes.append(rc)
                errs.append(err)
        rc, err = cli_call(["simulate-echo", "--finite-pulses", "--tau", "2:150:400",
                            "--seed", str(x["seed"]), "-o", self.path("echo_long.dat")])
        codes.append(rc)
        errs.append(err)
        return codes, errs

    def check(self, x, raw):
        codes, errs = raw
        texts = [_read(p) for p in self.files]
        outputs = b"".join(texts) + repr(codes).encode()
        if any(codes):
            bad = next(i for i, c in enumerate(codes) if c)
            return Outcome("exit", f"command {bad} exit {codes[bad]}: {errs[bad].strip()}", outputs)
        for at, fit in (("start", texts[1]), ("half", texts[3])):
            est = _fit_param(fit.decode(), "rabi_freq_mhz")
            if est is None:
                return Outcome("fit_output", f"no rabi_freq_mhz in the {at} fit", outputs)
            omega, s = est
            if abs(omega - self.rabi_ref[at]) > 5.0 * s:
                return Outcome(
                    "rabi_frequency",
                    f"{at}: {omega:.5g} +- {s:.3g} MHz against {self.rabi_ref[at]:.5g} MHz",
                    outputs,
                )
        rows = [ln.split() for ln in texts[4].decode().splitlines() if ln and not ln.startswith("#")]
        signal = np.array([float(r[1]) for r in rows])
        if signal.size != 400 or not np.all(np.isfinite(signal) & (signal > 0)):
            return Outcome("echo_signal", "finite-pulse echo signal not finite and positive", outputs)
        return Outcome(outputs=outputs)


class ReadoutStudy(Workload):
    """Turn-on search, both readout traces and their contrast, on a drawn beam and orbit."""

    name = "readout-study"
    warmup = 1
    trace_ops = 2
    op_s = 2.75
    min_ops = 8
    shots = 300_000

    def prepare(self, i):
        (u_waist, u_radius), op_seed = _draw(self.seed, 3, i, 2)
        cfg = config_from_dict(
            {
                "geometry": {"r_nv_um": 9.0 + 2.0 * u_radius},
                "beam": {"waist_diameter_1e2_um": 0.54 + 0.12 * u_waist},
            }
        )
        return {"cfg": cfg, "seed": op_seed}

    def run(self, x):
        cfg = x["cfg"]
        g, b, m, pro = cfg.geometry, cfg.beam, cfg.rates, cfg.protocol
        t_pulse = cfg.strobe.t_pulse_us
        offset = photophysics.optimal_turn_on(g, b, m, t_pulse, window_us=pro.readout_window_us)
        traces = [
            photophysics.simulate_readout(
                initial, g, b, m, t_pulse_us=t_pulse, turn_on_offset_us=offset,
                shots=self.shots, seed=x["seed"] + k, bin_width_us=pro.bin_width_us,
            )
            for k, initial in enumerate(
                (photophysics.LevelPopulations.ms0(), photophysics.LevelPopulations.ms1())
            )
        ]
        ratio, sigma = photophysics.state_contrast(traces[1], traces[0], pro.readout_window_us)
        return offset, traces, ratio, sigma

    def check(self, x, raw):
        offset, traces, ratio, sigma = raw
        cfg = x["cfg"]
        outputs = repr((offset, ratio, sigma)).encode() + b"".join(t.counts.tobytes() for t in traces)
        window = [
            photophysics.expected_window_counts(
                cfg.geometry, cfg.beam, cfg.rates, cfg.strobe.t_pulse_us, offset,
                cfg.protocol.readout_window_us, initial,
            )
            for initial in (photophysics.LevelPopulations.ms0(), photophysics.LevelPopulations.ms1())
        ]
        expected = window[1] / window[0]
        if not abs(ratio - expected) <= 5.0 * sigma:
            return Outcome(
                "contrast", f"ratio {ratio:.5g} +- {sigma:.2g} against {expected:.5g}", outputs
            )
        return Outcome(outputs=outputs)


class StrobedImage(Workload):
    """The demo image pair: rotating and stationary rasters with spot-width fits."""

    name = "strobed-image"
    warmup = 1
    trace_ops = 4
    op_s = 1.4
    window = ["--set", "strobe.t_phi_us=0", "--x-min", "7", "--x-max", "12.5",
              "--y-min", "-2", "--y-max", "5.2"]
    # criterion-9 bands (um: centre, half width) for the mean width of an
    # image: the radial widths of the rotating spots, and both axes of the
    # round stationary spots.  One stationary width scatters by ~0.012 um at
    # the demo's 0.15 um step, so a per-spot band would fail a few per cent
    # of correct images; the mean of four lies inside it by ~5 sigma.
    bands = {"rotating": (0.9, 0.18), "stationary": (0.30, 0.03)}
    spot = re.compile(r"^# spot (\d+): .*?(?:sigma_radial (\S+) um, sigma_azimuthal (\S+) um|fit failed: (.*))$")

    def prepare(self, i):
        _, op_seed = _draw(self.seed, 4, i, 0)
        _remove(*(self.path(f"image_{kind}.dat") for kind in self.bands))
        return {"seed": op_seed}

    def run(self, x):
        out = {}
        for kind in self.bands:
            extra = ["--stationary"] if kind == "stationary" else []
            out[kind] = cli_call(["simulate-image", *self.window, *extra, "--seed", str(x["seed"]),
                                  "-o", self.path(f"image_{kind}.dat")])
        return out

    def check(self, x, raw):
        outputs = b"".join(_read(self.path(f"image_{k}.dat")) + err.encode() for k, (_, err) in raw.items())
        for kind, (rc, err) in raw.items():
            if rc != 0:
                return Outcome("exit", f"{kind} exit {rc}: {err.strip()}", outputs)
            spots = [self.spot.match(ln) for ln in err.splitlines() if ln.startswith("# spot")]
            if len(spots) != 2 or not all(spots):
                return Outcome("spot_output", f"{kind}: expected two spot lines", outputs)
            for m in spots:
                if m.group(4) is not None:
                    return Outcome("spot_fit", f"{kind} spot {m.group(1)}: {m.group(4)}", outputs)
            widths = [float(m.group(2)) for m in spots]
            if kind == "stationary":
                widths += [float(m.group(3)) for m in spots]
            centre, half = self.bands[kind]
            mean = sum(widths) / len(widths)
            if abs(mean - centre) > half:
                return Outcome("spot_width", f"{kind} mean width {mean:.4f} um, not {centre} +- {half}", outputs)
        return Outcome(outputs=outputs)


WORKLOADS = {w.name: w for w in (EchoSensing, DenseScan, ReadoutStudy, StrobedImage)}
