import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotornv import geometry
from rotornv.errors import CompileError, ParseError, ValidationError
from rotornv.config import FieldConfig, RotorGeometry
from rotornv.seqlang import (
    CalibrationTable,
    TARGET_FRACTIONS,
    LaserStmt,
    MwStmt,
    Quantity,
    SequenceProgram,
    TriggerStmt,
    WaitStmt,
    build_calibration,
    compile_timeline,
    echo_batch,
    echo_program,
    echo_pulse_starts,
    format_program,
    ideal_echo_timeline,
    parse_sequence,
    rabi_batch,
    rabi_program,
)
from spin_oracle import batch_of_one


def default_calibration(base_rabi=3.6, n=64):
    return build_calibration(RotorGeometry(phi_nv0_deg=90.0), FieldConfig(), base_rabi, n)


class TestParser:
    def test_basic_statement_mapping(self):
        prog = parse_sequence("mw pi at 0us; wait 150us; mw pi at 150us")
        assert len(prog.statements) == 3
        first, wait, second = prog.statements
        assert isinstance(first, MwStmt) and first.target == "pi"
        assert first.at == Quantity(0.0, "us")
        assert isinstance(wait, WaitStmt) and wait.duration == Quantity(150.0, "us")
        assert isinstance(second, MwStmt) and second.at == Quantity(150.0, "us")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("")
        assert "empty program" in str(err.value)

    def test_comments_and_params(self):
        prog = parse_sequence(
            "# an echo\nparam tau = 60 us\nmw pi/2 at 0us\nmw pi at tau\nlaser 2us at 300us"
        )
        assert prog.param_map["tau"] == Quantity(60.0, "us")
        assert prog.statements[1].at == "tau"

    def test_unknown_keyword_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("mw pi at 0us\nfrobnicate 2us")
        diag = err.value.diagnostics[0]
        assert "frobnicate" in diag.message
        assert diag.line == 2

    def test_missing_unit(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("wait 150")
        assert "missing unit" in str(err.value)

    def test_negative_duration(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("wait -3us")
        assert "negative duration" in str(err.value)

    @pytest.mark.parametrize(
        "text, col",
        [("mw 1e400us at 0us", 4), ("param d = 1e999 ns", 11), ("mw pi phase 1e400deg at 0us", 13)],
    )
    def test_overflowing_number_rejected_with_position(self, text, col):
        # float() turns these into inf; the parser, not the compiler, must refuse them
        with pytest.raises(ParseError) as err:
            parse_sequence(text)
        diag = err.value.diagnostics[0]
        assert "out of range" in diag.message
        assert (diag.line, diag.col) == (1, col)

    def test_duplicate_parameter(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("param a = 1 us\nparam a = 2 us\nwait a")
        assert "duplicate parameter" in str(err.value)

    def test_duplicate_trigger(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("trigger\ntrigger\nwait 1us")
        assert "trigger" in str(err.value)

    def test_unknown_parameter_reference(self):
        with pytest.raises(ParseError):
            parse_sequence("wait tau")

    def test_phase_requires_degrees(self):
        with pytest.raises(ParseError):
            parse_sequence("mw pi phase 90us at 0us")
        prog = parse_sequence("mw pi phase 90deg at 0us")
        assert prog.statements[0].phase == Quantity(90.0, "deg")

    def test_multiple_diagnostics_collected(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("frobnicate\nwait -1us\nwait 150")
        assert len(err.value.diagnostics) >= 3

    def test_never_partial_programs(self):
        # one bad statement poisons the whole parse
        with pytest.raises(ParseError):
            parse_sequence("mw pi at 0us\nbogus 1us\nlaser 2us at 10us")


_UNITS = "(expected one of ns, us, MHz, deg)"
_EMPTY = ("empty program", 0, 0)

# one malformed program per diagnostic the parser gives, each with its full
# (message, line, col) list; the last two share lines across ';' segments
DIAGNOSTICS = [
    (b"wait 1us", [("input must be UTF-8 text", 0, 0)]),
    ("", [_EMPTY]),
    ("wait @5us", [("expected a number in wait, got '@5us'", 1, 6), _EMPTY]),
    ("wait 150", [(f"missing unit on '150' in wait {_UNITS}", 1, 6), _EMPTY]),
    ("wait 5s", [("unknown unit 's' in wait", 1, 6), _EMPTY]),
    ("wait 1e400us", [("number '1e400' in wait is out of range", 1, 6), _EMPTY]),
    ("wait -3us", [("negative duration -3.0us in wait", 1, 6), _EMPTY]),
    ("wait tau", [("unknown parameter 'tau' in wait", 1, 6), _EMPTY]),
    ("param f = 2 MHz\nwait f", [("parameter 'f' has unit MHz, expected a time, in wait", 2, 6)]),
    ("param p = 90deg\nmw pi at p", [("parameter 'p' has unit deg, expected a time, in 'at' of mw", 2, 10)]),
    ("wait 5deg", [("expected a time in wait, got unit 'deg'", 1, 6), _EMPTY]),
    ("wait 5 deg", [("expected a time in wait, got unit 'deg'", 1, 8), _EMPTY]),
    ("mw pi at", [("'at' requires a time", 1, 7)]),
    ("mw pi phase", [("'phase' requires an angle", 1, 7)]),
    ("mw pi phase 90MHz at 0us", [("phase must be in deg, got 'MHz'", 1, 7)]),
    ("param t = 3us\nmw pi phase t", [("phase parameter 't' must be in deg", 2, 7)]),
    ("laser 2us 5us", [("unexpected token '5us' after laser", 1, 11)]),
    ("param x 5us", [("param syntax is: param <name> = <value><unit>", 1, 1), _EMPTY]),
    ("param 2x = 5us", [("invalid parameter name '2x'", 1, 7), _EMPTY]),
    ("param x = 5us 7us", [("unexpected token '7us' after param", 1, 15)]),
    ("param x = 5 7us", [(f"missing unit on '5' in param 'x' {_UNITS}", 1, 11),
                         ("unexpected token '7us' after param", 1, 13), _EMPTY]),
    ("param x = 1us\nparam x = 2us", [("duplicate parameter 'x'", 2, 7)]),
    ("trigger now", [("trigger takes no arguments", 1, 9)]),
    ("trigger\ntrigger", [("duplicate trigger anchor (exactly one allowed)", 2, 1)]),
    ("trigger now\ntrigger", [("trigger takes no arguments", 1, 9),
                              ("duplicate trigger anchor (exactly one allowed)", 2, 1)]),
    ("wait", [("wait requires a duration", 1, 1), _EMPTY]),
    ("wait 1us 2us", [("unexpected token '2us' after wait", 1, 10)]),
    ("laser", [("laser requires a duration", 1, 1), _EMPTY]),
    ("laser 2us phase 90deg", [("laser does not take a phase", 1, 1)]),
    ("laser 2us phase 9us", [("phase must be in deg, got 'us'", 1, 11)]),
    ("mw", [("mw requires a target angle (pi, pi/2) or a duration", 1, 1), _EMPTY]),
    ("mw 5 at zz", [(f"missing unit on '5' in mw {_UNITS}", 1, 4), _EMPTY]),
    ("frobnicate 2us", [("unknown keyword 'frobnicate'", 1, 1), _EMPTY]),
    (
        "param a = 60 us ; mw pi at a phase 90 deg; wait 5 MHz ; laser 2us at b ; bogus\n"
        "  trigger ;wait -1 ns;   mw 0.5us phase 10us at 3 ;laser 2us phase 3deg at # tail",
        [
            ("expected a time in wait, got unit 'MHz'", 1, 51),
            ("unknown parameter 'b' in 'at' of laser", 1, 70),
            ("unknown keyword 'bogus'", 1, 74),
            ("negative duration -1.0ns in wait", 2, 17),
            ("phase must be in deg, got 'us'", 2, 35),
            (f"missing unit on '3' in 'at' of mw {_UNITS}", 2, 49),
            ("'at' requires a time", 2, 73),
            ("laser does not take a phase", 2, 52),
        ],
    ),
]


@pytest.mark.parametrize("text, expected", DIAGNOSTICS, ids=[repr(t)[:40] for t, _ in DIAGNOSTICS])
def test_every_parser_diagnostic_is_pinned(text, expected):
    with pytest.raises(ParseError) as err:
        parse_sequence(text)
    assert [(d.message, d.line, d.col) for d in err.value.diagnostics] == expected


# random program generation for round-trip checks

_name = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_time_value = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)
_unit = st.sampled_from(["ns", "us"])


@st.composite
def programs(draw):
    params = {}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(_name)
        if name in params or name in ("mw", "pi", "at", "us", "ns", "deg", "wait", "laser", "param", "phase", "trigger"):
            continue
        params[name] = Quantity(draw(_time_value), draw(_unit))
    stmts = []
    if draw(st.booleans()):
        stmts.append(TriggerStmt())
    names = sorted(params)

    def operand():
        if names and draw(st.booleans()):
            return draw(st.sampled_from(names))
        return Quantity(draw(_time_value), draw(_unit))

    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["wait", "laser", "mw_target", "mw_duration"]))
        at = operand() if draw(st.booleans()) else None
        if kind == "wait":
            stmts.append(WaitStmt(operand()))
        elif kind == "laser":
            stmts.append(LaserStmt(operand(), at))
        elif kind == "mw_target":
            phase = Quantity(draw(st.floats(-360.0, 360.0, allow_nan=False)), "deg") if draw(st.booleans()) else None
            stmts.append(MwStmt(draw(st.sampled_from(["pi", "pi/2"])), None, phase, at))
        else:
            stmts.append(MwStmt(None, operand(), None, at))
    return SequenceProgram(tuple(params.items()), tuple(stmts))


class TestRoundTrip:
    @given(programs())
    @settings(max_examples=150, deadline=None)
    def test_format_parse_identity(self, prog):
        assert parse_sequence(format_program(prog)) == prog

    def test_thousand_generated_programs(self):
        # seeded bulk round-trip, independent of hypothesis shrinking
        rng = np.random.default_rng(99)
        count = 0
        for i in range(1000):
            n_params = int(rng.integers(0, 3))
            params = tuple(
                (f"p{j}", Quantity(float(np.round(rng.uniform(0, 500), 6)), "us"))
                for j in range(n_params)
            )
            stmts = []
            t = 0.0
            for k in range(int(rng.integers(1, 5))):
                choice = rng.integers(0, 3)
                at = Quantity(float(np.round(t, 6)), "us")
                if choice == 0:
                    stmts.append(WaitStmt(Quantity(float(np.round(rng.uniform(0, 50), 6)), "us")))
                elif choice == 1:
                    stmts.append(MwStmt("pi" if rng.random() < 0.5 else "pi/2", None, None, at))
                else:
                    stmts.append(LaserStmt(Quantity(2.0, "us"), at))
                t += 60.0
            prog = SequenceProgram(params, tuple(stmts))
            assert parse_sequence(format_program(prog)) == prog
            count += 1
        assert count == 1000


CORRUPTIONS = [
    lambda text: text.replace("mw", "mx", 1),  # unknown keyword
    lambda text: text.replace("150us", "150", 1),  # unit stripped
    lambda text: text.replace("wait 150us", "wait -150us", 1),  # negative duration
    lambda text: "param a = 1 us\nparam a = 1 us\n" + text,  # duplicate param
    lambda text: text.replace("pi", "pj", 1),  # broken target token
    lambda text: text + "\nwait zzz",  # unknown parameter reference
    lambda text: "trigger\ntrigger\n" + text,  # duplicate anchor
]


class TestCorruptionRejection:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_single_token_corruptions_rejected(self, corrupt):
        valid = "mw pi at 0us\nwait 150us\nmw pi at 150us\nlaser 2us at 300us"
        parse_sequence(valid)  # sanity: the base program is valid
        bad = corrupt(valid)
        with pytest.raises(ParseError) as err:
            parse_sequence(bad)
        assert err.value.diagnostics  # every rejection carries a report


class TestCalibration:
    def test_axis_aligned_nv_transverse_drive_constant(self):
        g = RotorGeometry(theta_nv_deg=0.0)
        f = FieldConfig(mw_dir=(1.0, 0.0, 0.0))
        cal = build_calibration(g, f, 3.6, 32)
        assert np.allclose(cal.rabi_mhz, 3.6, rtol=1e-12)

    def test_axial_drive_constant_table(self):
        g = RotorGeometry(theta_nv_deg=54.7)
        f = FieldConfig(mw_dir=(0.0, 0.0, 1.0))
        cal = build_calibration(g, f, 3.6, 32)
        assert np.allclose(cal.rabi_mhz, 3.6, rtol=1e-12)

    def test_in_plane_drive_modulation_ratio(self):
        g = RotorGeometry(theta_nv_deg=54.7, phi_nv0_deg=90.0)
        f = FieldConfig(mw_dir=(1.0, 0.0, 0.0))
        cal = build_calibration(g, f, 3.6, 720)
        # dense-evaluation oracle: coupling ranges between cos(theta) and 1
        expected_ratio = 1.0 / math.cos(math.radians(54.7))
        assert max(cal.rabi_mhz) / min(cal.rabi_mhz) == pytest.approx(
            expected_ratio, rel=1e-3
        )

    def test_zero_coupling_names_angle(self):
        g = RotorGeometry(theta_nv_deg=0.0)
        f = FieldConfig(mw_dir=(0.0, 0.0, 1.0))
        with pytest.raises(ValidationError) as err:
            build_calibration(g, f, 3.6, 8)
        text = str(err.value)
        assert "angle 0.000 deg (8 of 8 sampled angles)" in text, text
        assert "field.mw_dir" in text and "geometry.theta_nv_deg" in text, text

    def test_zero_coupling_at_one_angle_names_it_and_the_keys(self, monkeypatch):
        # the coupling of a real config rounds to a tiny positive value where the
        # NV axis passes the drive; an exact zero at one sampled angle is put in here
        coupling = np.linspace(1.0, 0.5, 8)
        coupling[3] = 0.0
        monkeypatch.setattr(geometry, "mw_coupling", lambda g, f, t_s: coupling)
        with pytest.raises(ValidationError) as err:
            build_calibration(RotorGeometry(), FieldConfig(), 3.6, 8)
        text = str(err.value)
        assert "angle 135.000 deg (1 of 8 sampled angles)" in text, text
        assert "field.mw_dir" in text and "geometry.theta_nv_deg" in text, text

    def test_rounding_level_coupling_counts_as_zero(self):
        # an NV axis swept through an in-plane drive: |n x m| rounds to 6.1e-17
        # at 0 deg and 1.0e-15 at 180 deg, which once scaled to Rabi
        # frequencies 1e16 times below the others and a flat scan
        g = RotorGeometry(theta_nv_deg=90.0, phi_nv0_deg=0.0)
        f = FieldConfig(mw_dir=(1.0, 0.0, 0.0))
        coupling = geometry.mw_coupling(g, f, np.arange(64) / (64 * g.f_rot_hz))
        assert 0.0 < coupling.min() <= 1e-15 and np.sort(coupling)[2] > 0.09
        with pytest.raises(ValidationError) as err:
            build_calibration(g, f, 3.6, 64)
        text = str(err.value)
        assert "angle 0.000 deg (2 of 64 sampled angles)" in text, text
        assert "field.mw_dir" in text and "geometry.theta_nv_deg" in text, text

    def test_interpolation_wraparound(self):
        cal = CalibrationTable((0.0, 90.0, 180.0, 270.0), (1.0, 2.0, 1.0, 2.0))
        assert cal.rabi_at(315.0) == pytest.approx(1.5)
        assert cal.rabi_at(-45.0) == pytest.approx(1.5)


class TestCompile:
    def test_pi_duration_from_rabi_frequency(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        batch = compile_timeline(parse_sequence("mw pi at 0us"), g, cal)
        assert batch.duration_us[0, 0] == pytest.approx(1.0 / (2.0 * 3.6), rel=1e-9)
        assert batch.rabi_mhz[0, 0] == pytest.approx(3.6)

    def test_duration_times_rabi_equals_target_fraction(self):
        g = RotorGeometry(phi_nv0_deg=35.0)
        cal = default_calibration(n=256)
        text = "mw pi at 0us\nmw pi/2 at 40us\nmw pi at 80us\nmw pi/2 at 120us"
        batch = compile_timeline(parse_sequence(text), g, cal)
        assert batch.channels == ("mw",) * 4
        for k, target in enumerate(batch.targets):
            assert batch.duration_us[k, 0] * batch.rabi_mhz[k, 0] == pytest.approx(
                TARGET_FRACTIONS[target], abs=1e-9
            )

    def test_t_phi_is_pure_translation(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        text = "mw pi at 0us\nwait 10us\nmw pi/2 at 50us\nlaser 2us at 290us"
        t0 = compile_timeline(parse_sequence(text), g, cal, t_phi_us=0.0)
        t10 = compile_timeline(parse_sequence(text), g, cal, t_phi_us=10.0)
        assert (t10.channels, t10.targets) == (t0.channels, t0.targets)
        assert np.max(np.abs(t10.start_us - (t0.start_us + 10.0))) <= 1e-12
        for row in ("duration_us", "rabi_mhz", "phase_rad", "angle_deg"):
            assert np.array_equal(getattr(t10, row), getattr(t0, row))

    def test_compilation_deterministic_byte_identical(self):
        g = RotorGeometry(phi_nv0_deg=77.0)
        cal = default_calibration(n=128)
        text = "param tau = 60 us\nmw pi/2 at 0us\nmw pi at 30us\nmw pi/2 at tau\nlaser 2us at 300us"
        a = compile_timeline(parse_sequence(text), g, cal, t_phi_us=3.5)
        b = compile_timeline(parse_sequence(text), g, cal, t_phi_us=3.5)
        assert a.format_records() == b.format_records()
        assert (a.channels, a.targets) == (b.channels, b.targets)
        for row in ("start_us", "duration_us", "rabi_mhz", "phase_rad", "angle_deg"):
            assert getattr(a, row).tobytes() == getattr(b, row).tobytes()

    def test_overlap_rejected_with_both_events(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        with pytest.raises(CompileError) as err:
            compile_timeline(parse_sequence("mw 5us at 0us\nmw 5us at 2us"), g, cal)
        msg = str(err.value)
        assert msg.count("mw") >= 2

    @pytest.mark.parametrize(
        "text, calibrated",
        [("mw 5us at 0us; mw 1us at 2us", False), ("mw 5us at 0us; mw pi at 2us", True),
         ("mw pi at 0us; mw 1us at 0.1us", True)],
    )
    def test_overlap_names_the_pulse_length_keys_for_a_calibrated_pulse(self, text, calibrated):
        with pytest.raises(CompileError) as err:
            compile_timeline(parse_sequence(text), RotorGeometry(phi_nv0_deg=90.0), default_calibration())
        keys = ("protocol.base_rabi_mhz", "geometry.theta_nv_deg", "geometry.phi_nv0_deg", "field.mw_dir")
        assert [key in str(err.value) for key in keys] == [calibrated] * 4, err.value

    def test_batch_of_one_carries_the_compiled_program(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        text = "laser 2us at 300us\nmw pi at 150us phase 90deg\nmw pi at 0us"
        batch = compile_timeline(parse_sequence(text), g, cal)
        assert batch.start_us.shape == (3, 1)
        # events listed out of order compile in time order
        assert batch.channels == ("mw", "mw", "laser")
        assert batch.targets == ("pi", "pi", None)
        assert batch.start_us[:, 0].tolist() == [0.0, 150.0, 300.0]
        assert batch.phase_rad[:, 0].tolist() == [0.0, math.pi / 2.0, 0.0]
        # each pulse keeps the rotation angle it was calibrated at
        assert batch.angle_deg[:, 0] == pytest.approx([0.0, 180.0, 0.0], abs=1e-3)

    @pytest.mark.parametrize(
        "event, match",
        [
            (("mw", None, 1.0, 0.1, math.inf, 0.0), "finite positive Rabi"),
            (("mw", None, 1.0, 0.1, 0.0, 0.0), "finite positive Rabi"),
            (("mw", None, 1.0, 0.1, 3.6, math.nan), "finite phase"),
            (("laser", None, -1.0, 2.0, 0.0, 0.0), "negative or non-finite time"),
            (("laser", None, 1.0, math.inf, 0.0, 0.0), "negative or non-finite time"),
        ],
    )
    def test_batch_of_one_refuses_bad_events(self, event, match):
        with pytest.raises(ValidationError, match=match):
            batch_of_one(event)

    def test_overlap_shorter_than_the_shown_digits_is_stated(self):
        # the six-decimal times of a 1e-7 us overlap print equal
        with pytest.raises(ValidationError) as err:
            batch_of_one(("mw", None, 0.5, 0.5000002, 3.6, 0.0), ("mw", None, 1.0000001, 1.0, 3.6, 0.0))
        assert str(err.value) == (
            "overlapping mw events: mw [1.000000, 2.000000] us starts 1e-07 us before mw [0.500000, 1.000000] us ends"
        )

    def test_multi_period_guard(self):
        g = RotorGeometry()
        cal = default_calibration()
        with pytest.raises(CompileError):
            compile_timeline(parse_sequence("laser 2us at 800us"), g, cal)
        batch = compile_timeline(
            parse_sequence("laser 2us at 800us"), g, cal, allow_multi_period=True
        )
        assert batch.start_us[0, 0] == 800.0

    def test_cursor_flow_without_at(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        batch = compile_timeline(
            parse_sequence("mw 1us\nwait 5us\nmw 1us\nlaser 2us"), g, cal
        )
        assert batch.start_us[:, 0] == pytest.approx([0.0, 6.0, 7.0])


class TestCannedSequences:
    def test_echo_program_pulse_placement(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        tau = 60.0
        batch = compile_timeline(parse_sequence(echo_program(tau, g, cal)), g, cal)
        assert batch.channels == ("mw", "mw", "mw", "laser")
        start, end = batch.start_us[:, 0], (batch.start_us + batch.duration_us)[:, 0]
        assert start[0] == 0.0
        # refocusing pulse centred at tau/2
        assert (start[1] + end[1]) / 2.0 == pytest.approx(tau / 2.0, abs=1e-6)
        # final projection ends by tau
        assert end[2] == pytest.approx(tau, abs=1e-6)
        assert end[2] <= tau + 1e-9
        assert start[3] == pytest.approx(g.t_rot_us)

    def test_ideal_echo_timeline_broadcasts_over_tau(self):
        batch = ideal_echo_timeline([40.0, 60.0], 300.0, 2.0)
        assert batch.channels == ("mw", "mw", "mw", "laser")
        assert batch.targets == ("pi/2", "pi", "pi/2", None)
        assert batch.start_us.tolist() == [[0.0, 0.0], [20.0, 30.0], [40.0, 60.0], [300.0, 300.0]]
        assert not batch.duration_us[:3].any() and not batch.phase_rad.any()
        with pytest.raises(ValidationError, match="negative"):
            ideal_echo_timeline(-1.0, 300.0, 2.0)

    def test_rabi_program_variants(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        t = compile_timeline(parse_sequence(rabi_program(0.3, g)), g, cal)
        assert t.channels == ("mw", "laser")
        t2 = compile_timeline(
            parse_sequence(rabi_program(0.3, g, pulse_at_us=150.0, prepend_pi=True)), g, cal
        )
        assert t2.channels == ("mw", "mw", "laser")
        assert t2.start_us[1, 0] == 150.0


class TestBatchedSequences:
    def test_rabi_at_array_matches_scalar(self):
        cal = default_calibration()
        angles = np.linspace(-400.0, 720.0, 97)
        assert cal.rabi_at(angles).tolist() == [cal.rabi_at(a) for a in angles]

    def test_echo_pulse_starts_broadcast(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        tau = np.linspace(1.0, 250.0, 17)
        start_pi, start_last = echo_pulse_starts(tau, g, cal)
        for i, t in enumerate(tau):
            one = echo_pulse_starts(t, g, cal)
            assert (start_pi[i], start_last[i]) == (float(one[0]), float(one[1]))

    def test_batch_events_equal_compiled_timelines(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        tau = np.array([3.0, 60.0, 200.0])
        batches = [
            (echo_batch(tau, g, cal), [echo_program(t, g, cal) for t in tau]),
            (
                rabi_batch(tau / 200.0, g, cal, pulse_at_us=150.0, prepend_pi=True),
                [rabi_program(d, g, pulse_at_us=150.0, prepend_pi=True) for d in tau / 200.0],
            ),
        ]
        for batch, texts in batches:
            for i, text in enumerate(texts):
                one = compile_timeline(parse_sequence(text), g, cal)
                assert (one.channels, one.targets) == (batch.channels, batch.targets)
                for row in ("start_us", "duration_us", "rabi_mhz", "phase_rad", "angle_deg"):
                    assert getattr(batch, row)[:, i].tolist() == getattr(one, row)[:, 0].tolist()

    def test_batch_rejects_event_beyond_one_period_like_compiler(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        with pytest.raises(CompileError, match="one rotation period"):
            compile_timeline(parse_sequence(rabi_program(0.3, g, pulse_at_us=400.0)), g, cal)
        with pytest.raises(CompileError, match="one rotation period"):
            rabi_batch([0.3], g, cal, pulse_at_us=400.0)

    def test_batch_rejects_zero_rabi_like_compiler(self):
        class DeadCalibration:
            def rabi_at(self, angle_deg):
                return np.zeros_like(np.asarray(angle_deg, dtype=float))

        g = RotorGeometry(phi_nv0_deg=90.0)
        with pytest.raises(CompileError, match="needs a finite positive Rabi frequency"):
            compile_timeline(parse_sequence(rabi_program(0.3, g)), g, DeadCalibration())
        with pytest.raises(CompileError, match="needs a finite positive Rabi frequency"):
            rabi_batch([0.3], g, DeadCalibration())
