import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotornv.errors import CompileError, ParseError, ValidationError
from rotornv.geometry import FieldConfig, RotorGeometry
from rotornv.seqlang import (
    CalibrationTable,
    LaserStmt,
    MwPayload,
    MwStmt,
    PulseTimeline,
    Quantity,
    SequenceProgram,
    TimelineEvent,
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
        assert "angle" in str(err.value)

    def test_interpolation_wraparound(self):
        cal = CalibrationTable((0.0, 90.0, 180.0, 270.0), (1.0, 2.0, 1.0, 2.0))
        assert cal.rabi_at(315.0) == pytest.approx(1.5)
        assert cal.rabi_at(-45.0) == pytest.approx(1.5)


class TestCompile:
    def test_pi_duration_from_rabi_frequency(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        timeline = compile_timeline(parse_sequence("mw pi at 0us"), g, cal)
        ev = timeline.events[0]
        assert ev.duration_us == pytest.approx(1.0 / (2.0 * 3.6), rel=1e-9)
        assert ev.payload.rabi_freq_mhz == pytest.approx(3.6)

    def test_duration_times_rabi_equals_target_fraction(self):
        g = RotorGeometry(phi_nv0_deg=35.0)
        cal = default_calibration(n=256)
        text = "mw pi at 0us\nmw pi/2 at 40us\nmw pi at 80us\nmw pi/2 at 120us"
        timeline = compile_timeline(parse_sequence(text), g, cal)
        for ev in timeline.channel_events("mw"):
            frac = ev.payload.rotation_fraction
            assert ev.duration_us * ev.payload.rabi_freq_mhz == pytest.approx(
                frac, abs=1e-9
            )

    def test_t_phi_is_pure_translation(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        text = "mw pi at 0us\nwait 10us\nmw pi/2 at 50us\nlaser 2us at 290us"
        t0 = compile_timeline(parse_sequence(text), g, cal, t_phi_us=0.0)
        t10 = compile_timeline(parse_sequence(text), g, cal, t_phi_us=10.0)
        for a, b in zip(t0.events, t10.events):
            assert b.start_us == pytest.approx(a.start_us + 10.0, abs=1e-12)
            assert b.duration_us == a.duration_us
            assert b.payload == a.payload

    def test_compilation_deterministic_byte_identical(self):
        g = RotorGeometry(phi_nv0_deg=77.0)
        cal = default_calibration(n=128)
        text = "param tau = 60 us\nmw pi/2 at 0us\nmw pi at 30us\nmw pi/2 at tau\nlaser 2us at 300us"
        a = compile_timeline(parse_sequence(text), g, cal, t_phi_us=3.5)
        b = compile_timeline(parse_sequence(text), g, cal, t_phi_us=3.5)
        assert a.format_records() == b.format_records()
        assert a == b

    def test_overlap_rejected_with_both_events(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        with pytest.raises(CompileError) as err:
            compile_timeline(parse_sequence("mw 5us at 0us\nmw 5us at 2us"), g, cal)
        msg = str(err.value)
        assert msg.count("mw") >= 2

    def test_batch_of_one_carries_the_compiled_program(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        text = "laser 2us at 300us\nmw pi at 150us phase 90deg\nmw pi at 0us"
        timeline = compile_timeline(parse_sequence(text), g, cal)
        batch = timeline.batch()  # the check of the timeline: must not raise
        assert batch.start_us.shape == (3, 1)
        # the batch keeps no calibration angle
        for k, ev in enumerate(timeline.events):
            payload = ev.payload and replace(ev.payload, angle_deg=0.0)
            assert batch.event(k, 0) == replace(ev, payload=payload)
        assert batch.phase_rad[:, 0].tolist() == [0.0, math.pi / 2.0, 0.0]

    @pytest.mark.parametrize(
        "event, match",
        [
            (TimelineEvent("mw", 1.0, 0.1), "finite positive Rabi"),
            (TimelineEvent("mw", 1.0, 0.1, MwPayload(0.0)), "finite positive Rabi"),
            (TimelineEvent("mw", 1.0, 0.1, MwPayload(3.6, math.nan)), "finite phase"),
            (TimelineEvent("laser", -1.0, 2.0), "negative or non-finite time"),
            (TimelineEvent("laser", 1.0, math.inf), "negative or non-finite time"),
        ],
    )
    def test_batch_of_one_refuses_bad_events(self, event, match):
        with pytest.raises(ValidationError, match=match):
            PulseTimeline((event,)).batch()

    def test_multi_period_guard(self):
        g = RotorGeometry()
        cal = default_calibration()
        with pytest.raises(CompileError):
            compile_timeline(parse_sequence("laser 2us at 800us"), g, cal)
        timeline = compile_timeline(
            parse_sequence("laser 2us at 800us"), g, cal, allow_multi_period=True
        )
        assert timeline.events[0].start_us == 800.0

    def test_cursor_flow_without_at(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        timeline = compile_timeline(
            parse_sequence("mw 1us\nwait 5us\nmw 1us\nlaser 2us"), g, cal
        )
        starts = [e.start_us for e in timeline.events]
        assert starts == pytest.approx([0.0, 6.0, 7.0])


class TestCannedSequences:
    def test_echo_program_pulse_placement(self):
        g = RotorGeometry(phi_nv0_deg=90.0)
        cal = default_calibration()
        tau = 60.0
        timeline = compile_timeline(parse_sequence(echo_program(tau, g, cal)), g, cal)
        mw = timeline.channel_events("mw")
        assert len(mw) == 3
        assert mw[0].start_us == 0.0
        # refocusing pulse centred at tau/2
        assert mw[1].start_us + mw[1].duration_us / 2.0 == pytest.approx(tau / 2.0, abs=1e-6)
        # final projection ends by tau
        assert mw[2].end_us == pytest.approx(tau, abs=1e-6)
        assert mw[2].end_us <= tau + 1e-9
        laser = timeline.channel_events("laser")
        assert laser[0].start_us == pytest.approx(g.t_rot_us)

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
        assert [e.channel for e in t.events] == ["mw", "laser"]
        t2 = compile_timeline(
            parse_sequence(rabi_program(0.3, g, pulse_at_us=150.0, prepend_pi=True)), g, cal
        )
        assert [e.channel for e in t2.events] == ["mw", "mw", "laser"]
        assert t2.events[1].start_us == 150.0


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
                events = compile_timeline(parse_sequence(text), g, cal).events
                assert len(events) == len(batch.channels)
                for k, ev in enumerate(events):
                    got = batch.event(k, i)
                    assert (got.channel, got.start_us, got.duration_us) == (
                        ev.channel, ev.start_us, ev.duration_us
                    )
                    if ev.payload is not None:
                        assert got.payload.rabi_freq_mhz == ev.payload.rabi_freq_mhz
                        assert got.payload.target == ev.payload.target

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
        with pytest.raises(CompileError, match="zero Rabi frequency"):
            compile_timeline(parse_sequence(rabi_program(0.3, g)), g, DeadCalibration())
        with pytest.raises(CompileError, match="zero Rabi frequency"):
            rabi_batch([0.3], g, DeadCalibration())
