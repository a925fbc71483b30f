"""The exit-code contract over the whole input space, and the domain table that keeps it.

Every subcommand, given any value of one config key or of one command-line
flag that mirrors a config quantity, exits 0 or 2 and warns nothing; an
exit 2 names the key or flag that was drawn.  ``fit`` may also report a fit
it could not make (exit 4, or a ``fit error:`` exit 3).  No command exits
with a ``runtime error:``.  The values are drawn log-uniformly over the float
range with both signs, and from each domain's edges, the floats just beyond
them, 0, +-inf and NaN.  A second draw sets two config keys per run, each
anywhere in its domain, to meet the rules that tie one key to another.  A
third draws the dataset ``fit`` reads, every column over the float range.

Tier-1 runs a small derandomized budget; ``--hypothesis-profile contract``
(tests/conftest.py) runs the same tests with a larger one.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotornv import cli, estimation, imaging, photophysics, seqlang, spindyn
from rotornv.config import _SECTIONS, DOMAINS, BeamProfile, FieldConfig, PhysicalConstants, RateModel
from rotornv.config import RotorGeometry, StrobeConfig, config_from_dict
from rotornv.errors import ValidationError
from rotornv.geometry import TWO_PI

# examples per subcommand: tier-1's, or the contract profile's larger budget
_BUDGET = settings.default.max_examples if settings.get_current_profile_name() == "contract" else 40
_CONTRACT = settings(max_examples=_BUDGET, deadline=None, derandomize=True, database=None)

# every config key; an integer key takes the integer part of a finite value
_KEYS = [key for key in DOMAINS if key.partition(".")[0] in _SECTIONS]
_INT_KEYS = {f"{name}.{f.name}" for name, (_, cls) in _SECTIONS.items()
             for f in dataclasses.fields(cls) if type(f.default) is int}


def _set_value(key: str, v: float) -> list[str]:
    if key == "field.mw_dir":
        text = json.dumps([v, 0.0, 0.0])
    elif key in _INT_KEYS and math.isfinite(v):
        text = str(int(v))
    else:
        text = json.dumps(v)  # NaN and Infinity as JSON spells them
    return ["--set", f"{key}={text}"]


def _shots(v: float) -> str:
    return str(int(v)) if math.isfinite(v) else repr(v)


# flag -> (the DOMAINS row its values are drawn from, the ways to pass a value v)
_FLAGS = {
    "--shots": ("protocol.shots_per_point", [lambda v: ["--shots", _shots(v)]]),
    "--dwell-ms": ("dwell_ms", [lambda v: ["--dwell-ms", repr(v)]]),
    "--step": ("step_um", [lambda v: ["--step", repr(v)]]),
    "--x-min": ("x_range_um", [lambda v: ["--x-min", repr(v)]]),
    "--x-max": ("x_range_um", [lambda v: ["--x-max", repr(v)]]),
    "--y-min": ("y_range_um", [lambda v: ["--y-min", repr(v)]]),
    "--y-max": ("y_range_um", [lambda v: ["--y-max", repr(v)]]),
    "--tau": ("tau_us", [lambda v: ["--tau", f"2,{v!r}"], lambda v: ["--tau", f"2:{v!r}:4"]]),
    "--durations": ("durations_us", [lambda v: ["--durations", f"0,{v!r}"], lambda v: ["--durations", f"0:{v!r}:4"]]),
    "--emitters": ("position_um", [lambda v: ["--emitters", f"{v!r},0"], lambda v: ["--emitters", f"10,{v!r}"],
                                   lambda v: ["--emitters", f"10,0,{v!r}"]]),
    "--b-max": ("b_max", [lambda v: ["--b-max", repr(v)]]),
    "--max-iter": ("max_iter", [lambda v: ["--max-iter", _shots(v)]]),
    "--t-phi": ("strobe.t_phi_us", [lambda v: ["--t-phi", repr(v)]]),
}

_SHOTS = ["--shots", "100"]
# subcommand -> (its argv, the flags drawn for it)
COMMANDS = {
    "rabi": (["simulate-rabi", "--durations", "0,0.3,0.6", *_SHOTS], ("--shots", "--durations")),
    "echo": (["simulate-echo", "--tau", "2,5", *_SHOTS], ("--shots", "--tau")),
    "echo-finite-pulses": (["simulate-echo", "--finite-pulses", "--tau", "2,5", *_SHOTS], ("--shots", "--tau")),
    "readout": (["simulate-readout", *_SHOTS], ("--shots",)),
    "image": (["simulate-image", "--dwell-ms", "1", "--step", "0.5"],
              ("--dwell-ms", "--step", "--x-min", "--x-max", "--y-min", "--y-max", "--emitters")),
    "fit": (["fit", "{dataset}"], ("--b-max", "--max-iter")),
    "compile-seq": (["compile-seq", "{program}"], ("--t-phi",)),
    "dump-config": (["dump-config"], ()),
}
PROGRAM = "mw pi at 0us\nwait 150us\nmw pi at 150us\nlaser 2us at 300us\n"


def _values(key: str):
    """Values for the DOMAINS row ``key``: its edges and the floats beyond them, 0, +-inf, NaN,
    log-uniform over the float range, or any float in the domain."""
    row = DOMAINS[key]
    edges = [float(row.lo), float(row.hi), float(np.nextafter(row.lo, -math.inf)),
             float(np.nextafter(row.hi, math.inf)), 0.0, math.inf, -math.inf, math.nan]
    log_uniform = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-323.0, 308.25))
    return st.one_of(st.sampled_from(edges), log_uniform, st.floats(float(row.lo), float(row.hi)))


def _draws(flags):
    """(the key or flag drawn, its argv) for one run: any config key, or one of ``flags``."""
    def argv(name):
        if name in _FLAGS:
            row, forms = _FLAGS[name]
            return st.tuples(st.just(name), st.sampled_from(forms), _values(row)).map(lambda t: (t[0], t[1](t[2])))
        return _values(name).map(lambda v: (name, _set_value(name, v)))
    return st.sampled_from([*_KEYS, *flags]).flatmap(argv)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The fit's dataset (an echo at theta_B = 1 deg) and compile-seq's program."""
    root = tmp_path_factory.mktemp("contract")
    dataset, program = root / "echo.dat", root / "program.seq"
    assert cli.main(["simulate-echo", "--set", "field.theta_b_deg=1", "-o", str(dataset)]) == 0
    program.write_text(PROGRAM)
    return {"dataset": str(dataset), "program": str(program)}


def run(argv) -> tuple[int, str]:
    """``rotornv ARGV`` in-process with RuntimeWarnings as errors: (exit code, standard error)."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


def check_contract(command: str, names, code: int, err: str) -> None:
    """The exit code and message a run that drew ``names`` may give: an exit 2 names one of them."""
    if command == "fit" and (code == 4 or (code == 3 and err.startswith("fit error:"))):
        return
    assert code in (0, 2), err
    assert code == 0 or any(name in err for name in names), (names, err)


@pytest.mark.parametrize("command", COMMANDS)
@_CONTRACT
@given(drawn=st.data())
def test_every_input_exits_0_or_2_naming_what_was_drawn(command, drawn, inputs):
    base, flags = COMMANDS[command]
    name, extra = drawn.draw(_draws(flags))
    code, err = run([*(a.format(**inputs) for a in base), *extra, "-o", os.devnull])
    check_contract(command, (name,), code, err)


def _pairs():
    """(two distinct config keys, their argv) for one run, each value anywhere in its key's domain."""
    def argv(keys):
        values = st.tuples(*(st.floats(float(DOMAINS[k].lo), float(DOMAINS[k].hi)) for k in keys))
        return values.map(lambda vs: (keys, [a for k, v in zip(keys, vs) for a in _set_value(k, v)]))
    return st.lists(st.sampled_from(_KEYS), min_size=2, max_size=2, unique=True).flatmap(argv)


@pytest.mark.parametrize("command", COMMANDS)
@_CONTRACT
@given(drawn=st.data())
def test_every_pair_of_in_domain_values_exits_0_or_2_naming_one(command, drawn, inputs):
    # two values, each in its row, meet the rules that tie one key to another
    # (a window longer than the pulse, a pulse longer than a turn): those
    # refusals name their keys, so an exit 2 names one of the two drawn
    base, _ = COMMANDS[command]
    keys, extra = drawn.draw(_pairs())
    code, err = run([*(a.format(**inputs) for a in base), *extra, "-o", os.devnull])
    check_contract(command, keys, code, err)


# A dataset for ``fit``: the first n rows of a smooth scan, each column kept,
# scaled by one value or replaced value by value, every value drawn as the
# config values are (edges, beyond them, 0, +-inf, NaN, over the float
# range) or anywhere in its row, its rows shuffled or one repeated, under
# drawn header lines
_HEADERS = ["# columns: tau_us signal sigma", "# columns: duration_us signal sigma", "# columns: tau_us signal",
            "# kind: rabi-scan", "# rotornv-dataset v1", "#", "# seed:"]


def _in_row(key):
    """Any value of the DOMAINS row ``key``, log-uniform in magnitude down to 1e-300."""
    lo, hi = DOMAINS[key].lo, DOMAINS[key].hi
    e = st.floats(math.log10(lo) if lo > 0 else -300.0, math.log10(max(-lo, hi)))
    return st.builds(lambda sign, e: min(max(sign * 10.0**e, lo), hi), st.sampled_from([1.0, -1.0]), e)


def _column(key, base):
    n = len(base)
    return st.one_of(st.just(base), _values(key).map(lambda v: [b * v for b in base]),
                     st.lists(_values(key), min_size=n, max_size=n), st.lists(_in_row(key), min_size=n, max_size=n))


@st.composite
def _dataset(draw):
    n = draw(st.integers(0, 24))
    tau = np.linspace(2.0, 21.0, n).tolist()
    base = (tau, [1.0 - 0.1 * math.sin(t) for t in tau], [0.01] * n)
    columns = [draw(_column(key, c)) for key, c in zip(("tau_us", "signal", "sigma"), base)]
    rows = [" ".join(repr(float(v)) for v in row) for row in zip(*columns)]
    rows = draw(st.one_of(st.just(rows), st.permutations(rows),
                          st.sampled_from(rows or [""]).map(lambda row: rows + [row])))
    return "\n".join(draw(st.lists(st.sampled_from(_HEADERS), max_size=3)) + rows) + "\n"


@pytest.mark.parametrize("model", ["echo", "rabi"])
@_CONTRACT
@given(drawn=st.data())
def test_every_dataset_fits_or_exits_2(model, drawn, tmp_path_factory):
    # sigma 1e300 or 1e-300, an axis of two infinities and a Rabi scan whose
    # one point outweighs the rest by 1e200 exited 3 with RuntimeWarnings
    path = tmp_path_factory.getbasetemp() / f"drawn_{model}.dat"
    path.write_text(drawn.draw(_dataset()))
    code, err = run(["fit", str(path), "--model", model, "-o", os.devnull])
    assert code in (0, 2, 4) or (code == 3 and err.startswith("fit error:")), err


# Two in-domain pairs that uniform draws almost never reach: a coupling so
# weak that the calibrated pulses outgrow the echo's tau, or overlap in the
# program; both refusals once named only protocol.base_rabi_mhz
@pytest.mark.parametrize(
    "command, keys",
    [
        ("echo-finite-pulses", {"geometry.theta_nv_deg": 89.99, "geometry.phi_nv0_deg": 0.0}),
        ("compile-seq", {"geometry.theta_nv_deg": 90.0, "geometry.phi_nv0_deg": 0.0}),
    ],
)
def test_a_weak_coupling_pair_exits_2_naming_its_keys(command, keys, inputs):
    base, _ = COMMANDS[command]
    extra = [a for k, v in keys.items() for a in _set_value(k, v)]
    code, err = run([*(a.format(**inputs) for a in base), *extra, "-o", os.devnull])
    assert code == 2, err
    check_contract(command, tuple(keys), code, err)


# A scratch fuzz of every numeric config key at 1e-300, 1e-30, 1e30, 1e300,
# -1e300 and 1.7e308 found these inputs exiting 3 (an overflow in numpy, or
# "lam value too large"), or exiting 2 only after a NaN, under a message that
# named the wrong thing ("populations must lie in [0, 1]")
_FUZZ_COMMANDS = ["readout", "echo", "echo-finite-pulses", "rabi", "image", "fit"]
_FUZZ_INPUTS = [
    *(("field.mw_dir", v) for v in (1e300, -1e300, 1.7e308)),
    *((key, 1.7e308) for key in ("protocol.base_rabi_mhz", "protocol.turn_on_offset_us",
                                 "beam.peak_counts_stationary_cps", "constants.gamma_e_mhz_per_g")),
]


@pytest.mark.parametrize("key, value", _FUZZ_INPUTS, ids=[f"{k}={v:g}" for k, v in _FUZZ_INPUTS])
@pytest.mark.parametrize("command", _FUZZ_COMMANDS)
def test_re_anchor_fuzz_inputs_exit_2_naming_their_key(command, key, value, inputs):
    base, _ = COMMANDS[command]
    code, err = run([*(a.format(**inputs) for a in base), *_set_value(key, value), "-o", os.devnull])
    assert code == 2 and err.startswith(f"error: {key} must lie in ["), err


# Each guard the domains replaced: the inputs that reached it are refused by
# their domain first, and at the domain's edges the quantity it guarded is a
# finite float.
@pytest.mark.parametrize(
    "argv, key",
    [
        # config.check_f_rot_hz: a period or angular frequency beyond the float range
        (["simulate-echo", "--tau", "2,5", "--set", "geometry.f_rot_hz=3e-303"], "geometry.f_rot_hz"),
        (["simulate-rabi", "--durations", "0.1,0.2", "--set", "geometry.f_rot_hz=6e305"], "geometry.f_rot_hz"),
        # config.MAX_JITTER_FRAC
        (["simulate-image", "--dwell-ms", "1", "--set", "strobe.jitter_frac=1e175"], "strobe.jitter_frac"),
        # ExperimentConfig's strobe angle 2 pi f_rot_hz t_phi_us beyond the float range
        (["simulate-image", "--dwell-ms", "1", "--set", "strobe.t_phi_us=1e304"], "strobe.t_phi_us"),
        # imaging.MAX_LENGTH_UM: a raster, an orbit, an emitter or a wobble beyond 1e150 um
        (["simulate-image", "--x-min", "0", "--x-max", "1e300", "--step", "1e299"], "x_range_um (--x-min, --x-max)"),
        (["simulate-image", "--dwell-ms", "1", "--set", "geometry.r_nv_um=1e155"], "geometry.r_nv_um"),
        (["simulate-image", "--dwell-ms", "1", "--emitters", "1e155,0"], "position_um (--emitters)"),
        (["simulate-image", "--dwell-ms", "1", "--set", "strobe.wobble_amp_um=1e160"], "strobe.wobble_amp_um"),
        # ScanGrid's "no finite pixel count" of a raster over a subnormal step
        (["simulate-image", "--step", "5e-324"], "step_um (--step)"),
        # photophysics.detection_calibration's "steady-state emission vanishes"
        (["simulate-readout", "--set", "rates.radiative_rate_per_us=0"], "rates.radiative_rate_per_us"),
        # imaging._cycles' overflow to an infinite strobe-cycle count
        (["simulate-image", "--dwell-ms", "1e308"], "dwell_ms (--dwell-ms)"),
        # spindyn's square of the collapse dip width
        (["simulate-echo", "--tau", "2,5", "--set", "constants.gamma_c13_khz_per_g=1e-300"],
         "constants.gamma_c13_khz_per_g"),
        # the --shots of a scan and of a readout trace: one config key
        (["simulate-echo", "--tau", "2,5", "--shots", "0"], "protocol.shots_per_point (--shots)"),
        (["simulate-readout", "--shots", "0"], "protocol.shots_per_point (--shots)"),
    ],
)
def test_the_domain_refuses_what_reached_a_deleted_guard(argv, key):
    code, err = run([*argv, "-o", os.devnull])
    assert code == 2 and err.startswith(f"error: {key} must lie in ["), err


def test_the_shots_flags_share_one_range():
    scan, readout = (run([*argv, "--shots", "0", "-o", os.devnull])[1] for argv in
                     (["simulate-echo", "--tau", "2,5"], ["simulate-readout"]))
    assert scan.partition(" must lie in ")[2] == readout.partition(" must lie in ")[2] == "[1, 1e+12], got 0\n"


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_at_the_domain_edges_the_guarded_quantities_are_finite(end):
    edge = {key: getattr(row, end) for key, row in DOMAINS.items()}
    f_rot, t_phi = edge["geometry.f_rot_hz"], edge["strobe.t_phi_us"]
    # the period and the two angular frequencies check_f_rot_hz required normal
    for x in (1e6 / f_rot, TWO_PI * f_rot * 1e-6, 360.0 * f_rot):
        assert sys.float_info.min <= x < math.inf
    cfg = config_from_dict({"geometry": {"f_rot_hz": f_rot}, "strobe": {"t_phi_us": t_phi}})
    assert math.isfinite(math.cos(cfg.strobe_angle_rad))
    # the render squares the farthest coordinates, orbit and wobble
    far = max(abs(edge[k]) for k in ("x_range_um", "position_um", "geometry.r_nv_um", "strobe.wobble_amp_um"))
    assert (2.0 * far) ** 2 < 1e300
    # the strobe-cycle count of the longest dwell at the fastest rotation
    grid = imaging.ScanGrid((0.0, 1.0), (0.0, 1.0), dwell_ms=DOMAINS["dwell_ms"].hi)
    with pytest.raises(imaging.ValidationError, match="strobe cycles"):
        imaging._cycles(grid, config_from_dict({"geometry": {"f_rot_hz": DOMAINS["geometry.f_rot_hz"].hi}}).geometry)


# Each library check of an argument that is a config quantity itself, which
# its row replaced: the inputs that reached it are refused by the row, under
# the quantity's key (the rows keep 2 / (gamma_13C B0) finite, so the revival
# time's own "not finite" refusal could no longer fire).
_G, _F, _B, _M = RotorGeometry(), FieldConfig(), BeamProfile(), RateModel()
_SCAN = estimation.EchoDataset(np.arange(1.0, 17.0), np.ones(16), np.full(16, 0.01))


def _ms0_trace(**kw):
    return photophysics.readout_response(photophysics.LevelPopulations.ms0(), _G, _B, _M, **kw)


@pytest.mark.parametrize(
    "call, label",
    [
        # spindyn.c13_revival_time_us: "not finite" at a subnormal B0, "must be positive" at 0
        (lambda: spindyn.c13_revival_time_us(1e-320, PhysicalConstants()), "field.b0_gauss"),
        (lambda: spindyn.c13_revival_time_us(0.0, PhysicalConstants()), "field.b0_gauss"),
        # spindyn._checked_tau
        (lambda: spindyn.echo_phase(spindyn.EchoParams(), PhysicalConstants(), [math.inf]), "tau_us (--tau)"),
        # imaging.angular_smear and photophysics.expected_count_rate: "t_pulse_us must be non-negative"
        (lambda: imaging.angular_smear(_G, -1.0), "strobe.t_pulse_us"),
        (lambda: photophysics.expected_count_rate(_B, _G, math.nan), "strobe.t_pulse_us"),
        # seqlang.build_calibration: "n_angles must be >= 1", and a drive it did not check
        (lambda: seqlang.build_calibration(_G, _F, 3.6, 0), "protocol.n_cal_angles"),
        (lambda: seqlang.build_calibration(_G, _F, 1e308, 8), "protocol.base_rabi_mhz"),
        # the readout pass: a bin width or window that is not positive, a turn-on that is not finite
        (lambda: _ms0_trace(bin_width_us=0.0), "protocol.bin_width_us"),
        (lambda: photophysics.spin_window_counts(_G, _B, _M, 2.0, 0.0, -1.0), "protocol.readout_window_us"),
        (lambda: _ms0_trace(turn_on_offset_us=math.inf), "protocol.turn_on_offset_us"),
        # PhotonTrace: "shots must be >= 1"
        (lambda: photophysics.PhotonTrace(0.05, np.zeros(3), 0), "shots (--shots)"),
        # estimation: "--b-max (b_max) must be finite and positive" and _check_max_iter
        (lambda: estimation.fit_echo(_SCAN, b_max=math.nan), "b_max (--b-max)"),
        (lambda: estimation.fit_echo(_SCAN, max_iter=0), "max_iter (--max-iter)"),
        (lambda: estimation.fit_rabi(_SCAN, max_iter=0), "max_iter (--max-iter)"),
        # seqlang._compile_batch: "--t-phi must be finite, non-negative and ..."
        (lambda: seqlang.compile_timeline(seqlang.parse_sequence(PROGRAM), _G,
                                          seqlang.build_calibration(_G, _F, 3.6, 8), t_phi_us=-5.0),
         "--t-phi (t_phi_us)"),
    ],
)
def test_a_row_refuses_what_reached_a_deleted_library_check(call, label):
    with pytest.raises(ValidationError, match=f"^{re.escape(label)} must lie in \\["):
        call()


def test_each_cross_key_rule_is_decided_once():
    # a readout window longer than the pulse: the config and the readout pass
    with pytest.raises(ValidationError) as by_config:
        config_from_dict({"protocol": {"readout_window_us": 2.5}})
    with pytest.raises(ValidationError) as by_pass:
        photophysics.spin_window_counts(_G, _B, _M, 2.0, 0.0, 2.5)
    assert str(by_config.value) == str(by_pass.value) == (
        "protocol.readout_window_us = 2.5 exceeds strobe.t_pulse_us = 2.0: "
        "the readout window must fit inside the strobe pulse"
    )
    # a pulse longer than a turn: the render and the strobed count rate
    fast = RotorGeometry(f_rot_hz=1e6)
    grid = imaging.ScanGrid((0.0, 1.0), (0.0, 1.0), dwell_ms=1.0)
    with pytest.raises(ValidationError) as by_render:
        imaging.render_image(grid, imaging.EmitterSet.single(0.5, 0.5), fast, StrobeConfig(t_phi_us=0.0))
    with pytest.raises(ValidationError) as by_rate:
        photophysics.expected_count_rate(_B, fast, 2.0)
    assert str(by_render.value) == str(by_rate.value) == (
        "strobe.t_pulse_us = 2 exceeds the rotation period 1 us (1e6 / geometry.f_rot_hz)"
    )
