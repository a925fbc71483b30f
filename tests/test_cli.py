import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import dataset_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotornv import cli, pipeline, seqlang
from rotornv.cli import main
from rotornv.config import apply_overrides, config_from_dict
from rotornv.errors import ValidationError
from rotornv.estimation import EchoDataset, fit_rabi
from rotornv.photophysics import LevelPopulations, expected_window_counts
from rotornv.spindyn import c13_envelope
from spin_oracle import BlochOracle, batch_of_one


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "rotornv.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def _with_shots(cfg, shots):
    """``cfg`` with ``protocol.shots_per_point`` set to ``shots``."""
    return cfg.replace(protocol=cfg.protocol.replace(shots_per_point=shots))


def _ideal_echo_batch(tau_us, t_rot_us, t_pulse_us):
    """The ideal echo as a batch of one, built apart from ``seqlang.ideal_echo_timeline``."""
    mw = lambda t, target: ("mw", target, t, 0.0, 1.0, 0.0)
    laser = ("laser", None, t_rot_us, t_pulse_us, 0.0, 0.0)
    return batch_of_one(mw(0.0, "pi/2"), mw(tau_us / 2.0, "pi"), mw(tau_us, "pi/2"), laser)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = config_from_dict({})
        again = config_from_dict(json.loads(cfg.dump_json()))
        assert again == cfg
        assert again.sha256() == cfg.sha256()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"geometry": {"f_rot_khz": 3.3}})
        assert "f_rot_khz" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({"geom": {}})

    def test_overrides(self):
        cfg = config_from_dict({})
        out = apply_overrides(cfg, ["field.theta_b_deg=1.0", "seed=9"])
        assert out.field_cfg.theta_b_deg == 1.0
        assert out.seed == 9

    def test_override_unknown_key(self):
        with pytest.raises(ValidationError):
            apply_overrides(config_from_dict({}), ["field.nope=1"])

    def test_mw_dir_normalised_on_load(self):
        cfg = config_from_dict({"field": {"mw_dir": [2.0, 0.0, 0.0]}})
        assert cfg.field_cfg.mw_dir == pytest.approx((1.0, 0.0, 0.0))

    @pytest.mark.parametrize("mw_dir", ["[1,1,0]", "[1,2,2.5]", "[0.6,0.8,0]"])
    def test_dumped_mw_dir_reparses_to_the_same_dump(self, tmp_path, mw_dir):
        # [1,1,0] normalised to 0.7071067811865475, which normalised again
        # to 0.7071067811865476: the reparsed config had another hash
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        assert main(["dump-config", "--set", f"field.mw_dir={mw_dir}", "--seed", "7", "-o", str(first)]) == 0
        assert main(["dump-config", "--config", str(first), "-o", str(again)]) == 0
        assert again.read_text() == first.read_text()

    def test_to_dict_returns_a_fresh_copy(self):
        cfg = config_from_dict({"field": {"theta_b_deg": 1.0}})
        before = cfg.to_dict()
        mutated = cfg.to_dict()
        mutated["field"]["theta_b_deg"] = 5.0
        mutated["geometry"].clear()
        mutated["seed"] = 99
        assert cfg.field_cfg.theta_b_deg == 1.0 and cfg.geometry.r_nv_um == 10.0 and cfg.seed == 1
        assert cfg.to_dict() == before


class TestPipeline:
    def test_echo_population_matches_model(self, cfg_tilted):
        from rotornv.spindyn import echo_phase

        p = pipeline.echo_params_from_config(cfg_tilted)
        tau = np.array([5.0, 13.0, 21.0])
        got = pipeline.echo_populations(cfg_tilted, tau)
        z = np.cos(echo_phase(p, cfg_tilted.constants, tau))
        z *= c13_envelope(p, cfg_tilted.constants, tau)
        assert np.max(np.abs(got - 0.5 * (1.0 - z))) <= 1e-6

    def test_echo_tau_exceeding_period_rejected(self, cfg_tilted):
        with pytest.raises(ValidationError) as err:
            pipeline.echo_populations(cfg_tilted, [305.0])
        assert "readout" in str(err.value)

    def test_rabi_pipeline_oscillates_at_base_rabi(self, cfg_default):
        durations = np.linspace(0.0, 1.1, 32)
        pops = pipeline.rabi_populations(cfg_default, durations)
        data = EchoDataset(durations + 0.0, pops, np.full(durations.size, 1e-3))
        fit = fit_rabi(data)
        assert fit.params["rabi_freq_mhz"] == pytest.approx(3.6, abs=0.01)

    def test_rabi_half_turn_starts_dark(self, cfg_default):
        p0 = pipeline.rabi_populations(cfg_default, [0.0], pulse_at="half")[0]
        assert p0 == pytest.approx(1.0, abs=1e-3)  # prepended pi pulse

    def test_echo_scan_flat_when_aligned(self, cfg_default):
        taus = np.linspace(2.0, 21.0, 8)
        data, meta = pipeline.simulate_echo_scan(_with_shots(cfg_default, 200_000), taus)
        spread = np.max(data.signal) - np.min(data.signal)
        assert spread < 6.0 * np.median(data.sigma)

    def test_echo_scan_fringes_when_tilted(self, cfg_tilted):
        taus = np.linspace(2.0, 21.0, 16)
        data, _ = pipeline.simulate_echo_scan(_with_shots(cfg_tilted, 200_000), taus)
        spread = np.max(data.signal) - np.min(data.signal)
        assert spread > 10.0 * np.median(data.sigma)

    def test_shot_scaling_halves_error_bars(self, cfg_tilted):
        taus = np.linspace(2.0, 21.0, 8)
        d1, _ = pipeline.simulate_echo_scan(_with_shots(cfg_tilted, 100_000), taus)
        d4, _ = pipeline.simulate_echo_scan(_with_shots(cfg_tilted, 400_000), taus)
        ratio = np.median(d1.sigma) / np.median(d4.sigma)
        assert ratio == pytest.approx(2.0, rel=0.10)

    def test_dataset_round_trip(self, tmp_path, cfg_tilted):
        taus = np.linspace(2.0, 21.0, 8)
        cfg = _with_shots(cfg_tilted, 50_000)
        data, meta = pipeline.simulate_echo_scan(cfg, taus)
        text = pipeline.format_dataset(
            ("tau_us", "signal", "sigma"), (data.tau_us, data.signal, data.sigma), meta, cfg
        )
        path = tmp_path / "echo.dat"
        path.write_text(text)
        loaded, meta2 = pipeline.read_echo_dataset(str(path))
        assert np.allclose(loaded.tau_us, data.tau_us)
        assert np.allclose(loaded.signal, data.signal)
        assert meta2["kind"] == "echo-scan"

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("# columns: tau_us signal sigma\n1.0 0.5 0.01\n2.0 oops 0.01\n")
        with pytest.raises(ValidationError) as err:
            pipeline.read_echo_dataset(str(path))
        assert "line 3" in str(err.value)


    @pytest.mark.parametrize(
        "overrides", [[], ["field.theta_b_deg=1"], ["geometry.phi_nv0_deg=37"]]
    )
    @pytest.mark.parametrize("scan", ["rabi-start", "rabi-half", "echo-ideal", "echo-finite"])
    def test_batched_scan_matches_ode_oracle(self, overrides, scan):
        cfg = apply_overrides(config_from_dict({}), overrides)
        g, c, t_pulse = cfg.geometry, cfg.constants, cfg.strobe.t_pulse_us
        cal = pipeline.calibration(cfg)
        kind, variant = scan.split("-")

        def compiled(text):
            return seqlang.compile_timeline(seqlang.parse_sequence(text), g, cal)

        if kind == "rabi":
            axis = np.linspace(0.0, 1.1, 23)  # includes duration 0
            batched = pipeline.rabi_populations(cfg, axis, pulse_at=variant)
            where = pipeline._rabi_pulse_at(cfg, variant)
            timelines = [compiled(seqlang.rabi_program(d, g, t_pulse, **where)) for d in axis]
            envelope = 1.0
        else:
            ideal = variant == "ideal"
            axis = np.linspace(0.0 if ideal else 2.0, 290.0, 23)
            batched = pipeline.echo_populations(cfg, axis, ideal_pulses=ideal)
            timelines = [
                _ideal_echo_batch(t, g.t_rot_us, t_pulse)
                if ideal
                else compiled(seqlang.echo_program(t, g, cal, t_pulse))
                for t in axis
            ]
            envelope = c13_envelope(pipeline.echo_params_from_config(cfg), c, axis)
        oracle = BlochOracle(g, cfg.field_cfg, c)
        z = np.array([oracle.run(timeline)[2] for timeline in timelines])
        # Without an AC field (theta_b = 0) the detuning is zero, and with
        # zero-duration pulses only free precession moves the spin, whose
        # closed form is exact: the bound is the oracle's roundoff (<= 1.2e-12 seen).
        bound = 1e-10
        if cfg.field_cfg.theta_b_deg != 0.0 and scan != "echo-ideal":
            # The simulator holds the detuning at the pulse centre, so it
            # misses the second-order Magnus term of a detuning that moves
            # during a pulse: <= 9.5e-7 seen over pulses of up to 1.1 us, and
            # <= 5.8e-5 in the echo, whose 0.07-0.14 us pulses sit where the
            # AC field sweeps fastest.
            bound = 2e-6 if kind == "rabi" else 1e-4
        assert np.max(np.abs(batched - 0.5 * (1.0 - z * envelope))) <= bound

    @pytest.mark.parametrize("draw", range(4))
    def test_window_response_matches_separate_passes(self, draw):
        # draw 0 is the default config; the others draw waist, orbit radius and turn-on
        overrides = []
        if draw:
            rng = np.random.default_rng(draw)
            overrides = [
                f"beam.waist_diameter_1e2_um={rng.uniform(0.4, 1.2)}",
                f"geometry.r_nv_um={rng.uniform(1.0, 20.0)}",
                f"protocol.turn_on_offset_us={rng.uniform(-1.5, 0.5)}",
            ]
        cfg = apply_overrides(config_from_dict({}), overrides)
        resp = pipeline.window_response(cfg)
        for got, initial in ((resp.n_bright, LevelPopulations.ms0()),
                             (resp.n_dark, LevelPopulations.ms1())):
            want = expected_window_counts(
                cfg.geometry, cfg.beam, cfg.rates, cfg.strobe.t_pulse_us,
                cfg.protocol.turn_on_offset_us, cfg.protocol.readout_window_us, initial,
            )
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_sample_scan_repeats_per_stream(self, cfg_default):
        cfg = _with_shots(cfg_default, 1000).replace(seed=7)
        p1 = np.linspace(0.0, 1.0, 50)

        def sample(stream):
            data, _ = pipeline._sample_scan(cfg, range(50), "axis", lambda axis: p1, stream)
            return data.signal, data.sigma

        a, b, c = sample(17), sample(17), sample(29)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_sample_scan_statistics(self, cfg_default):
        # ~1e6 counts per window, so E[s/r] and E[s]/E[r] differ by ~1e-6,
        # far below the standard error of the mean over 20 000 points
        cfg = cfg_default.replace(seed=3)
        resp = pipeline.window_response(cfg)
        p, shots, n = 0.3, round(1e6 / resp.n_bright), 20_000
        data, resp = pipeline._sample_scan(
            _with_shots(cfg, shots), range(n), "axis", lambda axis: np.full(n, p), 17
        )
        signal, sigma = data.signal, data.sigma
        expected = float(resp.expected(p)) / resp.n_bright
        assert abs(signal.mean() - expected) <= 4.0 * signal.std(ddof=1) / math.sqrt(n)
        # the std of the sample std is ~0.5 % at n = 20 000; allow 5 %
        assert signal.std(ddof=1) == pytest.approx(sigma.mean(), rel=0.05)

    @pytest.mark.parametrize("scan, name", [("rabi", "durations_us"), ("echo", "tau_us")])
    def test_oversized_scan_refused_before_any_array(self, cfg_default, scan, name):
        axis = range(pipeline.MAX_SCAN_POINTS + 1)
        run = pipeline.simulate_rabi_scan if scan == "rabi" else pipeline.simulate_echo_scan
        with pytest.raises(ValidationError, match=name):
            run(cfg_default, axis)

    def test_rabi_scan_rejects_overlapping_pulses(self):
        # a 500 us pi pulse at the trigger overruns the variable pulse at T_rot/2
        cfg = apply_overrides(config_from_dict({}), ["protocol.base_rabi_mhz=0.001"])
        with pytest.raises(ValidationError, match="overlapping mw"):
            pipeline.rabi_populations(cfg, [0.0, 0.1], pulse_at="half")


class TestCliSubcommands:
    def test_dump_config_round_trip(self, tmp_path):
        res = run_cli(["dump-config"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert config_from_dict(data) == config_from_dict({})

    def test_simulate_echo_reproducible_byte_identical(self, tmp_path):
        args = [
            "simulate-echo",
            "--tau", "2:21:6",
            "--shots", "20000",
            "--set", "field.theta_b_deg=1.0",
            "--seed", "7",
        ]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        c = run_cli(args[:-1] + ["8"])
        assert c.stdout != a.stdout

    def test_simulate_echo_rejects_tau_beyond_period(self):
        res = run_cli(["simulate-echo", "--tau", "2,400", "--shots", "1000"])
        assert res.returncode == 2
        assert "readout" in res.stderr

    def test_simulate_rabi_and_fit(self, tmp_path):
        scan = tmp_path / "rabi.dat"
        res = run_cli(
            [
                "simulate-rabi",
                "--durations", "0.0:1.1:24",
                "--shots", "150000",
                "-o", str(scan),
            ]
        )
        assert res.returncode == 0, res.stderr
        fit = run_cli(["fit", str(scan), "--model", "rabi"])
        assert fit.returncode == 0, fit.stderr
        line = [l for l in fit.stdout.splitlines() if l.startswith("rabi_freq_mhz")][0]
        value = float(line.split(":")[1].split("+-")[0])
        assert value == pytest.approx(3.6, abs=0.1)

    def test_fit_missing_file_is_validation_error(self):
        res = run_cli(["fit", "/nonexistent/file.dat"])
        assert res.returncode == 2

    def test_fit_empty_file_usage_error(self, tmp_path):
        p = tmp_path / "empty.dat"
        p.write_text("")
        res = run_cli(["fit", str(p)])
        assert res.returncode == 2
        assert "no data rows" in res.stderr

    def test_compile_seq_stdin(self):
        res = run_cli(["compile-seq", "-"], input="mw pi at 0us\nlaser 2us at 300us\n")
        assert res.returncode == 0
        assert "target=pi" in res.stdout
        assert res.stdout.splitlines()[1].startswith("mw 0 138.8")

    @pytest.mark.parametrize(
        "t_phi, starts",
        [("0", ("0", "150000", "300000")), ("3.5", ("3500", "153500", "303500"))],
    )
    def test_compile_seq_readme_example_golden(self, t_phi, starts):
        # the README example, pinned as literal text at two trigger-to-strobe delays
        res = run_cli(
            ["compile-seq", "--t-phi", t_phi, "-"],
            input="mw pi at 0us\nwait 150us\nmw pi at 150us\nlaser 2us at 300us\n",
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == (
            "# channel start_ns duration_ns payload\n"
            f"mw {starts[0]} 138.888889 rabi_mhz=3.6 phase_rad=0 target=pi angle_deg=0\n"
            f"mw {starts[1]} 138.888903 rabi_mhz=3.59999963 phase_rad=0 target=pi"
            " angle_deg=179.99982\n"
            f"laser {starts[2]} 2000\n"
        )

    @pytest.mark.parametrize(
        "t_phi, code",
        [("1e20", 2), ("1e308", 2), ("nan", 2), ("-5", 2), ("3.5", 0), ("150", 0), ("1e6", 0)],
    )
    def test_compile_seq_t_phi_checked(self, t_phi, code):
        # 1e20 + 0.139 == 1e20: at such a delay the pulses would collapse onto one start
        res = run_cli(
            ["compile-seq", "--t-phi", t_phi, "-"],
            input="mw pi at 0us\nwait 150us\nmw pi/2 at 150us\nlaser 2us at 300us\n",
        )
        assert res.returncode == code, res.stderr
        if code:
            assert "--t-phi (t_phi_us)" in res.stderr
        else:
            assert len(res.stdout.splitlines()) == 4 and "inf" not in res.stdout

    def test_compile_seq_t_phi_that_moves_a_pulse_off_its_duration(self):
        # past one rotation, 1e9 us + 0.138888889 us keeps the pi pulse's length only to ~1e-7 us
        res = run_cli(
            ["compile-seq", "--t-phi", "1e9", "--allow-multi-period", "-"],
            input="mw pi at 0us; laser 2us at 300us\n",
        )
        assert res.returncode == 2, res.stdout
        assert "--t-phi (t_phi_us) = 1e+09 us is too large for every event to keep its duration" in res.stderr

    def test_compile_seq_trigger_anchor_changes_no_record(self):
        program = "mw pi at 0us\nwait 150us\nmw pi at 150us\nlaser 2us at 300us\n"
        plain, anchored = (run_cli(["compile-seq", "-"], input=text) for text in (program, "trigger\n" + program))
        assert plain.returncode == anchored.returncode == 0, anchored.stderr
        assert anchored.stdout == plain.stdout and plain.stdout.count("\n") == 4

    def test_compile_seq_parse_error_exit_code(self):
        res = run_cli(["compile-seq", "-"], input="bogus 2us\n")
        assert res.returncode == 2
        assert "bogus" in res.stderr

    @pytest.mark.parametrize(
        "program, line",
        [("mw 1us at 1e20us\nmw 1us at 1e20us\n", "'mw 1.0us at 1e+20us'"),
         ("wait 1e20us\nwait 1us\nlaser 1us\n", "'wait 1.0us'")],
    )
    def test_compile_seq_refuses_unresolvable_program_time(self, program, line):
        # 1e20 + 1 == 1e20: the two pulses would share one start, the wait would vanish
        res = run_cli(["compile-seq", "--allow-multi-period", "-"], input=program)
        assert res.returncode == 2, res.stdout
        assert line in res.stderr and "too large to keep its duration" in res.stderr

    def test_simulate_readout_trace(self, tmp_path):
        out = tmp_path / "trace.dat"
        res = run_cli(["simulate-readout", "--initial", "ms1", "--shots", "20000", "-o", str(out)])
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        cols = [l for l in lines if l.startswith("# columns")][0]
        assert "bin_start_us" in cols and "counts" in cols
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 40  # 2 us at 0.05 us bins

    def test_simulate_image_header_and_summary(self, tmp_path):
        out = tmp_path / "img.dat"
        res = run_cli(
            [
                "simulate-image",
                "--stationary",
                "--x-min", "8.5", "--x-max", "11.5",
                "--y-min", "-1.5", "--y-max", "1.5",
                "--step", "0.15",
                "--dwell-ms", "120",
                "--emitters", "10,0",
                "-o", str(out),
            ]
        )
        assert res.returncode == 0, res.stderr
        text = out.read_text()
        duty = [l for l in text.splitlines() if "duty_cycle" in l][0]
        assert float(duty.split(":")[1]) == pytest.approx(0.0067, abs=1e-4)
        assert "sigma_radial" in res.stderr

    def test_fit_nonconvergence_exit_code(self, tmp_path):
        # starve the optimizer of iterations on fringed data: exit code 4
        cfg = config_from_dict({"field": {"theta_b_deg": 1.0}, "protocol": {"shots_per_point": 50_000}})
        taus = np.linspace(2.0, 21.0, 12)
        data, meta = pipeline.simulate_echo_scan(cfg, taus)
        path = tmp_path / "echo.dat"
        path.write_text(
            pipeline.format_dataset(
                ("tau_us", "signal", "sigma"),
                (data.tau_us, data.signal, data.sigma),
                meta, cfg,
            )
        )
        res = run_cli(["fit", str(path), "--model", "echo", "--max-iter", "1"])
        assert res.returncode == 4
        assert "converged: no" in res.stdout

    def test_simulate_image_csv_and_depth(self, tmp_path):
        out = tmp_path / "img.csv"
        res = run_cli(
            [
                "simulate-image",
                "--stationary",
                "--plane", "xz",
                "--format", "csv",
                "--x-min", "9", "--x-max", "11",
                "--y-min", "-2", "--y-max", "2",
                "--step", "0.2",
                "--dwell-ms", "50",
                "--emitters", "10,0",
                "-o", str(out),
            ]
        )
        assert res.returncode == 0, res.stderr
        text = out.read_text()
        assert "# plane: xz" in text
        data_rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert "," in data_rows[0]

    def test_env_var_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 42}))
        env = dict(os.environ, ROTORNV_CONFIG=str(cfg_path))
        res = run_cli(["dump-config"], env=env)
        assert res.returncode == 0
        assert json.loads(res.stdout)["seed"] == 42

    def test_main_function_inprocess(self, capsys):
        code = main(["dump-config"])
        assert code == 0
        assert '"seed"' in capsys.readouterr().out


# an integer beyond the float range, 1 followed by 400 zeros
_BEYOND_FLOATS = "1" + "0" * 400


def _main_exit(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("column, value", [(0, "nan"), (1, "inf"), (2, "inf")])
def test_fit_non_finite_dataset_exit_2(column, value, tmp_path, capsys):
    rows = np.column_stack([np.linspace(0.1, 1.1, 12), np.full(12, 0.85), np.full(12, 0.01)])
    lines = [" ".join(f"{v:.9g}" for v in row) for row in rows]
    lines[5] = " ".join(value if i == column else f"{v:.9g}" for i, v in enumerate(rows[5]))
    path = tmp_path / "bad.dat"
    path.write_text("# columns: tau_us signal sigma\n" + "\n".join(lines) + "\n")
    name = ("tau_us", "signal", "sigma")[column]
    for model in ("echo", "rabi"):
        code, err = _main_exit(["fit", str(path), "--model", model], capsys)
        assert code == 2, (model, err)
        assert name in err


@pytest.fixture(scope="module")
def default_scan_files(tmp_path_factory):
    """The files of the default 400-point Rabi scan and of the theta_B = 3 deg echo."""
    root = tmp_path_factory.mktemp("scans")
    paths = {"rabi": str(root / "rabi.dat"), "echo": str(root / "echo.dat")}
    assert main(["simulate-rabi", "--durations", "0:1.1:400", "-o", paths["rabi"]]) == 0
    assert main(["simulate-echo", "--set", "field.theta_b_deg=3", "-o", paths["echo"]]) == 0
    return paths


def _rewrite_column(src: str, dst, column: int, change) -> str:
    """The dataset ``src`` written to ``dst`` with each value v of ``column`` (0 axis, 1 signal, 2 sigma) as change(v)."""
    lines = []
    for line in open(src).read().splitlines():
        if line and not line.startswith("#"):
            parts = line.split()
            parts[column] = repr(change(float(parts[column])))
            line = " ".join(parts)
        lines.append(line)
    with open(dst, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(dst)


@pytest.mark.parametrize(
    "model, column, change, refusal",
    [
        # fitted b = 0.0761 G, "converged: yes"
        ("echo", 0, lambda v: v * 1e200, "{path}: tau_us must lie in [0, 1e+09] us, got 2e+200"),
        # a singular Jacobian, exit 3: every tau lies beyond the 300 us rotation period
        ("echo", 0, lambda v: v * 1e5, "{path}: a scan point's sequence ends at 200000.0 us, not before the readout "
         "at the rotation period 300.0003 us; check tau_us and geometry.f_rot_hz"),
        # a singular Jacobian, exit 3
        ("rabi", 0, lambda v: v * 1e12, "{path}: durations_us must lie in [0, 1e+09] us, got"),
        # exit 3, after RuntimeWarnings from 1 / sigma^2
        ("rabi", 2, lambda v: 1e300, "{path}: sigma must lie in [1e-100, 1e+100], got 1e+300"),
        ("rabi", 2, lambda v: 1e-300, "{path}: sigma must lie in [1e-100, 1e+100], got 1e-300"),
        ("echo", 2, lambda v: 1e300, "{path}: sigma must lie in [1e-100, 1e+100], got 1e+300"),
        ("echo", 2, lambda v: 1e-300, "{path}: sigma must lie in [1e-100, 1e+100], got 1e-300"),
        ("rabi", 1, lambda v: v * 1e60, "{path}: signal must lie in [-1e+50, 1e+50], got"),
    ],
    ids=["tau-x1e200", "tau-x1e5", "durations-x1e12", "rabi-sigma-1e300", "rabi-sigma-1e-300",
         "echo-sigma-1e300", "echo-sigma-1e-300", "signal-x1e60"],
)
def test_fit_refuses_a_column_beyond_its_row_naming_the_file_and_column(
    default_scan_files, tmp_path, capsys, model, column, change, refusal
):
    path = _rewrite_column(default_scan_files[model], tmp_path / "scan.dat", column, change)
    code, err = _main_exit(["fit", path, "--model", model], capsys)
    assert code == 2 and err.startswith("error: ") and refusal.format(path=path) in err, err


@pytest.mark.parametrize("factor", [1e8, 2.0**60, 2.0**-60, 1e-8])
def test_rabi_fit_text_is_the_same_in_another_unit_of_sigma(default_scan_files, tmp_path, factor):
    # sigma x 1e8 or x 2^60 stopped after 1 iteration at 3.78787879 MHz, "converged: yes"
    fits = []
    for f in (1.0, factor):
        path = _rewrite_column(default_scan_files["rabi"], tmp_path / "rabi.dat", 2, lambda v: v * f)
        assert main(["fit", path, "--model", "rabi", "-o", str(tmp_path / "fit.txt")]) == 0
        text = (tmp_path / "fit.txt").read_text().splitlines()
        fits.append([line for line in text if not line.startswith(("chi2_reduced:", "residual_norm:"))])
    assert fits[1] == fits[0]
    assert "rabi_freq_mhz: 3.60110757 +- 0.00134149658" in fits[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-rabi", "--durations=-0.5,0.2"],
        ["simulate-rabi", "--durations=-0.5,0.2", "--pulse-at", "half"],
        ["simulate-rabi", "--durations", "0.1,400", "--pulse-at", "half"],
        ["simulate-echo", "--tau", "2,400"],
        ["simulate-echo", "--finite-pulses", "--tau", "0.1,5"],
        ["simulate-echo", "--tau", "nan,5"],
        ["simulate-rabi", "--durations", "inf,0.5"],
        ["simulate-echo", "--tau", "2:inf:4"],
        ["simulate-echo", "--tau", "2,five"],
    ],
)
def test_bad_scan_values_exit_2(argv, capsys):
    code, err = _main_exit([*argv, "--shots", "100"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "key", ["field.b0_gauss", "geometry.r_nv_um", "beam.peak_counts_stationary_cps"]
)
def test_non_finite_config_value_exit_2(key, value, capsys):
    code, err = _main_exit(["simulate-echo", "--tau", "2,5", "--set", f"{key}={value}"], capsys)
    assert code == 2
    assert key in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("protocol.shots_per_point", "1.5"),  # wrote every signal as 1 +- 1.414
        ("protocol.n_cal_angles", "2.5"),  # built a 2-angle table
        ("protocol.n_cal_angles", "true"),
        ("geometry.f_rot_hz", "true"),  # ran a 1 Hz rotor
        ("seed", "true"),  # wrote "# seed: True"
        ("field.mw_dir", '["a",0,0]'),  # exit 3: could not convert string to float
        ("field.mw_dir", "[true,0,0]"),  # ran with the bool as 1.0
    ],
)
def test_wrong_type_config_value_exit_2(key, value, capsys):
    code, err = _main_exit(["simulate-echo", "--tau", "2,5", "--set", f"{key}={value}"], capsys)
    assert code == 2
    assert key in err


def test_zero_bin_width_exit_2(capsys):
    code, err = _main_exit(
        ["simulate-readout", "--shots", "100", "--set", "protocol.bin_width_us=0"], capsys
    )
    assert code == 2
    assert "bin_width_us" in err


@pytest.mark.parametrize(
    "argv, key",
    [
        # a 64e6-angle calibration table ran out of memory (exit 3)
        (["simulate-rabi", "--durations", "0:0.2:3", "--set", "protocol.n_cal_angles=64000000"],
         "n_cal_angles"),
        # 4e7 readout bins
        (["simulate-readout", "--set", "protocol.bin_width_us=5e-08"], "bin_width_us"),
        # the bin count printed as a 300-digit integer
        (["simulate-readout", "--set", "protocol.bin_width_us=1e-300"], "bin_width_us"),
        # an infinite bin count: exit 3, "cannot convert float infinity to integer"
        (["simulate-readout", "--shots", "10", "--set", "protocol.bin_width_us=1e-320"],
         "bin_width_us"),
        (["simulate-rabi", "--set", "protocol.readout_window_us=1e-320"], "readout_window_us"),
        (["simulate-echo", "--set", "protocol.readout_window_us=1e-320"], "readout_window_us"),
        # an integer beyond the float range: written by dump-config, or exit 3
        # with "int too large to convert to float"
        (["dump-config", "--set", f"geometry.r_nv_um={_BEYOND_FLOATS}"], "geometry.r_nv_um"),
        (["dump-config", "--set", f"geometry.f_rot_hz={_BEYOND_FLOATS}"], "geometry.f_rot_hz"),
        (["simulate-echo", "--tau", "2,5", "--shots", "10", "--set", f"field.b0_gauss={_BEYOND_FLOATS}"],
         "field.b0_gauss"),
        (["simulate-echo", "--tau", "2,5", "--set", f"field.mw_dir=[{_BEYOND_FLOATS},0,0]"], "field.mw_dir"),
        (["simulate-echo", "--tau", "2,5", "--set", f"protocol.shots_per_point={_BEYOND_FLOATS}"],
         "protocol.shots_per_point"),
        (["simulate-echo", "--tau", "2,5", "--shots", _BEYOND_FLOATS], "protocol.shots_per_point"),
    ],
)
def test_oversized_config_value_exit_2(argv, key, capsys):
    code, err = _main_exit(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and key in err
    assert len(err) < 160


@pytest.mark.parametrize(
    "key, value",
    [
        # w^2 underflows: "divide by zero encountered in divide"
        ("beam.waist_diameter_1e2_um", "1e-300"),
        # "overflow encountered in square"
        ("geometry.r_nv_um", "1e300"),
    ],
)
def test_dark_readout_window(key, value, tmp_path, capsys):
    # the scans refused such a window as collecting no light, and a readout
    # trace of it was all zeros (exit 0); each value lies beyond its domain now
    for argv in (["simulate-rabi", "--durations", "0.1,0.2"], ["simulate-echo", "--tau", "2,5"],
                 ["simulate-readout", "--shots", "10"]):
        code, err = _main_exit([*argv, "--set", f"{key}={value}", "-o", str(tmp_path / "out.dat")], capsys)
        assert code == 2
        assert err.startswith(f"error: {key} must lie in ["), err


# a window lit by the background alone, the NV giving it no light: the scans
# once exited 0 with "window_contrast: 0.0" and a flat signal
@pytest.mark.parametrize(
    "argv", [["simulate-rabi", "--durations", "0.1,0.2"], ["simulate-echo", "--tau", "2,5"]],
    ids=["rabi", "echo"],
)
@pytest.mark.parametrize(
    "key, value, why",
    [
        ("beam.peak_counts_stationary_cps", "0", "no light from the NV"),
        ("protocol.turn_on_offset_us", "-40", "no light from the NV"),
        # the NV's counts were lost to rounding in the background's; the domain refuses it first
        ("beam.background_cps", "1e300", "must lie in [0, 1e+09]"),
    ],
    ids=["no-peak", "on-before-the-transit", "background-beyond-the-nv"],
)
def test_background_only_window_exit_2(argv, key, value, why, capsys):
    code, err = _main_exit(
        [*argv, "--shots", "10", "--set", "beam.background_cps=1000", "--set", f"{key}={value}",
         "-o", os.devnull],
        capsys,
    )
    assert code == 2
    assert why in err and key in err, err


def test_lit_window_over_a_background_is_sampled(tmp_path, capsys):
    # the background lowers the contrast but leaves the window lit
    out = tmp_path / "echo.dat"
    argv = ["simulate-echo", "--tau", "2,5", "--shots", "10", "--set", "beam.background_cps=1000"]
    assert main([*argv, "-o", str(out)]) == 0
    contrast = float(out.read_text().split("# window_contrast: ")[1].split()[0])
    assert 0.0 < contrast < pipeline.window_response(config_from_dict({})).contrast


# a negative scan value once reached the sequence checks, whose message
# ("event mw (pi) [-0.500000, -0.500000] us has a negative or non-finite
# time") named no flag
@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate-echo", "--tau=-1,5"], "tau_us (--tau)"),
        (["simulate-echo", "--finite-pulses", "--tau=-1,5"], "tau_us (--tau)"),
        (["simulate-rabi", "--durations=-0.1,0.5"], "durations_us (--durations)"),
        (["simulate-rabi", "--pulse-at", "half", "--durations=-0.1,0.5"], "durations_us (--durations)"),
    ],
    ids=["echo", "echo-finite-pulses", "rabi-start", "rabi-half"],
)
def test_negative_scan_value_exit_2(argv, key, capsys):
    code, err = _main_exit([*argv, "--shots", "10", "-o", os.devnull], capsys)
    assert code == 2
    assert err.startswith(f"error: {key} must lie in [0, 1e+09] us, got -"), err


@pytest.mark.parametrize(
    "populations, name",
    [(pipeline.echo_populations, "tau_us"), (pipeline.rabi_populations, "durations_us")],
)
def test_negative_scan_value_is_refused_before_any_batch(populations, name, cfg_default, monkeypatch):
    monkeypatch.setattr(seqlang, "rabi_batch", None)  # a batch built would raise a TypeError
    monkeypatch.setattr(seqlang, "ideal_echo_timeline", None)
    with pytest.raises(ValidationError, match=rf"^{name} \(--"):
        populations(cfg_default, [0.5, -1e-9])


# a repeated scan value was refused only after the whole scan was simulated,
# by the dataset's "tau values must be strictly increasing", which named no flag
@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate-rabi", "--durations", "1,1"], "durations_us (--durations)"),
        (["simulate-rabi", "--durations", "0.5,0.2,0.5"], "durations_us (--durations)"),
        (["simulate-echo", "--tau", "5,5"], "tau_us (--tau)"),
        (["simulate-echo", "--finite-pulses", "--tau", "5,2,5"], "tau_us (--tau)"),
    ],
)
def test_repeated_scan_value_exit_2(argv, key, capsys):
    code, err = _main_exit([*argv, "--shots", "10", "-o", os.devnull], capsys)
    assert code == 2
    assert err.startswith(f"error: {key} repeats the value"), err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate-echo", "--tau", ","], "tau_us (--tau)"),
        (["simulate-rabi", "--durations", ","], "durations_us (--durations)"),
    ],
)
def test_empty_scan_list_exit_2(argv, key, capsys):
    code, err = _main_exit([*argv, "--shots", "10", "-o", os.devnull], capsys)
    assert code == 2
    assert err == f"error: {key} is empty\n"


@pytest.mark.parametrize("model", ["rabi", "echo"])
def test_fit_of_a_readout_trace_names_the_columns_it_needs(model, tmp_path, capsys):
    # a simulate-readout file holds (t_us, counts): no scan for any fit model
    path = tmp_path / "trace.dat"
    assert main(["simulate-readout", "--shots", "10", "-o", str(path)]) == 0
    code, err = _main_exit(["fit", str(path), "--model", model], capsys)
    assert code == 2
    assert err == f"error: {path}: expected 3 columns (tau/duration, signal, sigma)\n"


@pytest.fixture(scope="module")
def kind_scans(tmp_path_factory):
    """The seed-1 default echo and 40-point Rabi scan files, by fit model, and the Rabi rows with no kind line."""
    root = tmp_path_factory.mktemp("kinds")
    paths = {"echo": str(root / "echo.dat"), "rabi": str(root / "rabi.dat"), "no-kind": str(root / "no-kind.dat")}
    assert main(["simulate-echo", "-o", paths["echo"]]) == 0
    assert main(["simulate-rabi", "-o", paths["rabi"]]) == 0
    with open(paths["rabi"]) as src, open(paths["no-kind"], "w") as dst:
        dst.write("".join(line for line in src if not line.startswith("# kind:")))
    return paths


@pytest.mark.parametrize("kind, model", [("echo", "rabi"), ("rabi", "echo")])
def test_fit_refuses_a_model_that_disagrees_with_the_dataset_kind(kind_scans, capsys, kind, model):
    # the seed-1 echo fitted as a Rabi scan printed 0.0969 +- 0.0050 MHz, "converged: yes", exit 0
    path = kind_scans[kind]
    code, err = _main_exit(["fit", path, "--model", model, "-o", os.devnull], capsys)
    assert code == 2
    assert err == f"error: {path}: --model {model} disagrees with the dataset's kind: {kind}-scan\n"


@pytest.mark.parametrize("scan, model", [("rabi", "rabi"), ("no-kind", "echo")])
def test_fit_takes_its_model_from_the_dataset_kind(kind_scans, scan, model):
    # the 40-point Rabi scan fitted without --model ran the echo model and
    # exited 3 ("singular Jacobian at the optimum"); a file with no kind line
    # keeps the echo default, though its rows are the same Rabi scan
    path = kind_scans[scan]
    assert _run_outcome(["fit", path]) == _run_outcome(["fit", path, "--model", model])


def test_fit_of_a_repeated_row_names_the_file_axis_and_value(tmp_path, capsys):
    # once "tau values must be strictly increasing", naming neither the file nor the value
    path = tmp_path / "rabi.dat"
    assert main(["simulate-rabi", "--durations", "0:1.1:12", "--shots", "100", "-o", str(path)]) == 0
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines, lines[-3]]) + "\n")
    code, err = _main_exit(["fit", str(path), "--model", "rabi"], capsys)
    assert code == 2
    assert err == f"error: {path}: duration_us repeats the value 0.9\n"


@pytest.mark.parametrize("scan", ["rabi", "echo"])
def test_repeated_scan_value_is_refused_before_any_population(scan, cfg_default, monkeypatch):
    monkeypatch.setattr(pipeline, "rabi_populations", None)  # a population computed would raise a TypeError
    monkeypatch.setattr(pipeline, "echo_populations", None)
    run = pipeline.simulate_rabi_scan if scan == "rabi" else pipeline.simulate_echo_scan
    with pytest.raises(ValidationError, match="repeats the value 1$"):
        run(cfg_default, [1.0, 2.0, 1.0])


@pytest.mark.parametrize("tau", ["0,5", "0.05,5"])
def test_finite_pulse_refusals_name_the_tau_flag(tau, capsys):
    code, err = _main_exit(["simulate-echo", "--finite-pulses", "--tau", tau, "--shots", "10"], capsys)
    assert code == 2
    assert err.startswith("error: tau_us (--tau) "), err


# a path that cannot be read or written (a directory, bytes that are no UTF-8
# text) once exited 3 with "runtime error: [Errno 21] Is a directory" or a
# codec message that named no file
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fit", "{dir}"], "dataset"),
        (["fit", "{binary}"], "dataset"),
        (["fit", "{missing}"], "dataset"),
        (["compile-seq", "{dir}"], "seq"),
        (["compile-seq", "{binary}"], "seq"),
        (["dump-config", "--config", "{dir}"], "--config"),
        (["dump-config", "--config", "{binary}"], "--config"),
        (["dump-config", "-o", "{dir}"], "--output"),
        (["dump-config", "-o", "{missing}/out.json"], "--output"),
    ],
)
def test_unreadable_or_unwritable_path_exit_2(argv, flag, tmp_path, capsys):
    binary = tmp_path / "binary.dat"
    binary.write_bytes(bytes(range(256)))
    paths = {"dir": tmp_path, "binary": binary, "missing": tmp_path / "missing"}
    argv = [a.format(**paths) for a in argv]
    code, err = _main_exit(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {flag} {argv[-1]}: "), err


def test_config_from_the_environment_names_its_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ROTORNV_CONFIG", str(tmp_path))
    code, err = _main_exit(["dump-config"], capsys)
    assert code == 2
    assert err == f"error: ROTORNV_CONFIG {tmp_path}: Is a directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_a_failing_write_stays_a_runtime_error(capsys):
    code, err = _main_exit(["dump-config", "-o", "/dev/full"], capsys)
    assert code == 3
    assert err.startswith("runtime error: [Errno 28]"), err


# a huge --b-max once reached the fit: 1e12 to 1e150 exited 3 with "singular
# Jacobian", 1e155 with "overflow encountered in matmul" under -W error; its
# row tops it at echo.b_perp_gauss's 1e5 G
@pytest.mark.parametrize("b_max", ["1e10", "1e12", "1.1e14", "1.2e14", "1e30", "1e155", "1e308"])
def test_b_max_beyond_its_row_exit_2(b_max, tmp_path, capsys):
    data = tmp_path / "echo.dat"
    assert _main_exit(["simulate-echo", "--set", "field.theta_b_deg=3", "-o", str(data)], capsys)[0] == 0
    code, err = _main_exit(["fit", str(data), "--b-max", b_max], capsys)
    assert code == 2
    assert err.startswith("error: b_max (--b-max) must lie in [1e-09, 100000] G, got "), err


# a slow rotor with a large gamma_e over taus near half a turn: the largest
# phase factor is 2e12 rad/G, so an in-row --b-max passes 2**52 rad
_SLOW_ROTOR = ["--set", "geometry.f_rot_hz=0.001", "--set", "constants.gamma_e_mhz_per_g=1000"]


@pytest.mark.parametrize("b_max", ["1e4", "1e5"])
def test_b_max_beyond_the_float_phase_exit_2(b_max, tmp_path, capsys):
    data = tmp_path / "echo.dat"
    argv = ["simulate-echo", "--tau", "2e8:5e8:8", "--shots", "10", *_SLOW_ROTOR, "-o", str(data)]
    assert _main_exit(argv, capsys)[0] == 0
    code, err = _main_exit(["fit", str(data), "--b-max", b_max, *_SLOW_ROTOR], capsys)
    assert code == 2
    assert err.startswith("error: --b-max (b_max) ") and "2**52 rad" in err, err


@pytest.mark.parametrize("b_max", ["1", "15", "1e3", "1e5"])
def test_b_max_within_the_float_phase_warns_nothing(b_max, tmp_path, capsys):
    # below the bound a fit converges or is refused as unidentified, never by a warning
    data = tmp_path / "echo.dat"
    assert _main_exit(["simulate-echo", "--set", "field.theta_b_deg=3", "-o", str(data)], capsys)[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = _main_exit(["fit", str(data), "--b-max", b_max, "-o", os.devnull], capsys)
    assert (code, err) == (0, "") or (code == 3 and err.startswith("fit error: singular Jacobian")), err


def test_readout_window_longer_than_strobe_exit_2(capsys):
    code, err = _main_exit(
        ["simulate-echo", "--tau", "2,5", "--set", "protocol.readout_window_us=2.5"], capsys
    )
    assert code == 2
    assert "protocol.readout_window_us" in err and "strobe.t_pulse_us" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate-echo", "--tau", "2,5", "--shots", "0"], "--shots"),
        (["simulate-echo", "--tau", "2,5", "--shots", "-5"], "--shots"),
        (["simulate-rabi", "--durations", "0.1,0.2", "--shots", "0"], "--shots"),
        (["simulate-rabi", "--durations", "0.1,0.2", "--shots", "-5"], "--shots"),
        (["simulate-image", "--emitters", "10,a"], "--emitters"),
        (["simulate-image", "--emitters", "10"], "--emitters"),
        (["simulate-image", "--emitters", "1,2,3,4"], "--emitters"),
        (["simulate-image", "--emitters", "nan,0"], "--emitters"),
        # a 1e8-point scan was killed for memory (exit 137)
        (["simulate-rabi", "--durations", "0:1:100000000"], "--durations"),
        (["simulate-echo", "--tau", "2:5:1000001"], "--tau"),
        # every other scan refusal names its flag too
        (["simulate-rabi", "--durations", "0:1:0"], "--durations"),
        (["simulate-echo", "--tau", "2:5:-3"], "--tau"),
        (["simulate-echo", "--tau", "0:1:x"], "--tau"),
        (["simulate-rabi", "--durations", "0.1,y"], "--durations"),
        (["simulate-rabi", "--durations", "0:1"], "--durations"),
        (["simulate-echo", "--tau", "1:2:3:4"], "--tau"),
        (["simulate-echo", "--tau", "2:nan:5"], "--tau"),
        (["simulate-rabi", "--durations", "0.1,inf"], "--durations"),
        (["fit", "DATASET", "--b-max", "nan"], "--b-max"),
        (["fit", "DATASET", "--b-max", "-1"], "--b-max"),
        (["fit", "DATASET", "--b-max", "0"], "--b-max"),
        (["fit", "DATASET", "--max-iter", "0"], "--max-iter"),
        (["fit", "DATASET", "--max-iter", "-3"], "--max-iter"),
        (["fit", "DATASET", "--model", "rabi", "--max-iter", "0"], "--max-iter"),
        (["fit", "DATASET", "--model", "rabi", "--max-iter", "-3"], "--max-iter"),
        # numpy refused these: "expected non-negative integer" (exit 3); dump-config wrote them
        (["simulate-echo", "--tau", "2,5", "--shots", "10", "--seed", "-1"], "--seed"),
        (["simulate-image", "--dwell-ms", "1", "--seed", "-1"], "--seed"),
        (["simulate-readout", "--shots", "10", "--seed", "-1"], "--seed"),
        (["dump-config", "--seed", "-1"], "--seed"),
        # "int too large to convert to float" (exit 3)
        (["simulate-readout", "--shots", _BEYOND_FLOATS], "--shots"),
    ],
)
def test_bad_cli_flag_exit_2(argv, flag, tmp_path, capsys):
    # DATASET stands for a well-formed 16-point dataset
    dataset = tmp_path / "scan.dat"
    tau = np.linspace(0.0, 1.1, 16)
    dataset.write_text("".join(f"{t} {0.8 + 0.1 * math.cos(9.0 * t)} 0.01\n" for t in tau))
    argv = [str(dataset) if a == "DATASET" else a for a in argv]
    code, err = _main_exit(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and flag in err


_RASTER_1E300 = ["--x-min", "0", "--x-max", "1e300", "--step", "1e299"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--x-min", "nan"], "x_range_um"),
        (["--x-max", "inf"], "x_range_um"),
        (["--dwell-ms", "inf"], "dwell_ms"),
        (["--step", "inf"], "step_um"),
        (["--y-max", "inf"], "y_range_um"),
        (["--step", "1e-9"], "step_um"),  # refused by the pixel budget before any array exists
        (["--step", "5e-324"], "step_um"),  # the pixel count itself overflows
        # these named the field but not its flag
        (["--step", "0"], "step_um (--step)"),
        (["--dwell-ms", "0"], "dwell_ms (--dwell-ms)"),
        (["--emitters", "10,0,-5"], "brightness_cps (--emitters)"),
        # the x max came from the default window: "scan ranges must be increasing (min, max) pairs"
        (["--x-min", "20"], "x_range_um (--x-min, --x-max) = (20, -5.67601)"),
        # "overflow encountered in square" in the render (exit 3)
        (_RASTER_1E300, "x_range_um (--x-min, --x-max)"),
        (_RASTER_1E300 + ["--stationary"], "x_range_um (--x-min, --x-max)"),
        # these printed a 300-digit integer
        (["--dwell-ms", "1e300"], "dwell_ms (--dwell-ms) must lie in [1e-09, 1e+09] ms, got 1e+300"),
        (["--step", "1e-300", "--x-min", "0", "--x-max", "1"], "step_um (--step) must lie in [1e-09, 100000] um"),
        # these exited 3: "cannot convert float infinity to integer"
        (["--dwell-ms", "1e308"], "dwell_ms (--dwell-ms) must lie in [1e-09, 1e+09] ms, got 1e+308"),
        (["--dwell-ms", "1e308", "--set", "geometry.f_rot_hz=1e10", "--set", "strobe.t_pulse_us=1e-5",
          "--set", "protocol.readout_window_us=1e-6", "--set", "strobe.t_phi_us=0"],
         "geometry.f_rot_hz must lie in [0.001, 1e+06] Hz, got 10000000000.0"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_scan_grid_exit_2(argv, field, capsys):
    code, err = _main_exit(["simulate-image", *argv], capsys)
    assert code == 2
    assert err.startswith("error:") and field in err


def test_python_m_rotornv_help():
    res = subprocess.run(
        [sys.executable, "-m", "rotornv", "--help"], capture_output=True, text=True
    )
    assert res.returncode == 0
    assert "simulate-image" in res.stdout


@pytest.mark.parametrize("extra", [[], ["--stationary"]])
def test_dwell_beyond_strobe_sample_limit_exit_2(extra, capsys):
    # 1e12 ms at 3.33 kHz is 3.3e12 strobe cycles per pixel: refused before any array exists
    code, err = _main_exit(["simulate-image", "--dwell-ms", "1e12", *extra], capsys)
    assert code == 2
    assert err.startswith("error:") and "dwell_ms" in err and "--dwell-ms" in err


_IMAGE_1E300 = ["simulate-image", "--set", "strobe.t_phi_us=0", "--set",
                "beam.peak_counts_stationary_cps=1e300", "--x-min", "9", "--x-max", "11",
                "--y-min", "-1", "--y-max", "1"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate-readout", "--set", "beam.peak_counts_stationary_cps=1e300"],
         "beam.peak_counts_stationary_cps"),
        (["simulate-readout", "--set", "geometry.f_rot_hz=1.7e308"], "f_rot_hz"),
        (["simulate-echo", "--tau", "2,5", "--shots", "10", "--set",
          "beam.peak_counts_stationary_cps=1e300"], "beam.peak_counts_stationary_cps"),
        (_IMAGE_1E300, "beam.peak_counts_stationary_cps"),
        (_IMAGE_1E300 + ["--stationary"], "beam.peak_counts_stationary_cps"),
        # the scans' refusal once named the peak rate and the shots alone
        (["simulate-echo", "--tau", "2,5", "--set", "beam.background_cps=1e20"], "beam.background_cps"),
        # every value in its domain, the count bound itself: 1e9 cps over a
        # 0.1 s window for 1e12 shots
        (["simulate-echo", "--tau", "2,5", "--shots", "1000000000000", "--set", "beam.background_cps=1e9",
          "--set", "geometry.f_rot_hz=1", "--set", "strobe.t_pulse_us=100000",
          "--set", "protocol.readout_window_us=100000"],
         "more than 1e+18; lower beam.peak_counts_stationary_cps, beam.background_cps or "
         "protocol.shots_per_point (--shots)"),
    ],
    ids=["readout-cps", "readout-f-rot", "echo-cps", "image-cps", "image-stationary-cps", "echo-background",
         "echo-count-bound"],
)
def test_expected_counts_beyond_poisson_range_exit_2(argv, key, capsys):
    # numpy's Poisson draw refuses such means ("lam value too large", exit 3)
    code, err = _main_exit([*argv, "-o", os.devnull], capsys)
    assert code == 2
    assert err.startswith("error:") and key in err


_ECHO_2_5 = ["simulate-echo", "--tau", "2,5", "--shots", "10"]
_IMAGE_1MS = ["simulate-image", "--dwell-ms", "1"]
_FAR_EMITTER = ["--emitters", "1e155,0", "--x-min", "-1", "--x-max", "1", "--y-min", "-1", "--y-max", "1"]


@pytest.mark.parametrize(
    "argv, names",
    [
        # squaring the dip width overflowed: "(34, 'Numerical result out of range')"
        (_ECHO_2_5 + ["--set", "constants.gamma_c13_khz_per_g=1e-300"], ("constants.gamma_c13_khz_per_g",)),
        # an infinite revival time sent NaN populations into the Poisson draw
        (_ECHO_2_5 + ["--set", "field.b0_gauss=1e-320"], ("field.b0_gauss",)),
        # the orbit radius overflowed to a NaN node count: "cannot convert float NaN to integer"
        (_IMAGE_1MS + _FAR_EMITTER, ("--emitters",)),
        # "overflow encountered in square" in the distance to each pixel
        (_IMAGE_1MS + _FAR_EMITTER + ["--stationary"], ("--emitters",)),
        # the default window around a spot that far out rounded to one float:
        # "scan ranges must be increasing (min, max) pairs"
        (_IMAGE_1MS + ["--set", "geometry.r_nv_um=1e155"], ("geometry.r_nv_um",)),
        (_IMAGE_1MS + ["--set", "geometry.r_nv_um=1e155", "--stationary"], ("geometry.r_nv_um",)),
        (_IMAGE_1MS + ["--emitters", "1e155,0"], ("--emitters",)),
        # squaring the wobble overflowed
        (_IMAGE_1MS + ["--set", "strobe.wobble_amp_um=1e160"], ("strobe.wobble_amp_um",)),
        # the wobble, not the 10 um orbit, widens the arc past the node budget
        (_IMAGE_1MS + ["--set", "strobe.wobble_amp_um=1e10"], ("strobe.wobble_amp_um",)),
        # a negative exponent zeroed the fringe with exp(-(T2 / tau)^4), and
        # divided by zero at tau = 0
        (_ECHO_2_5 + ["--set", "protocol.envelope_exponent=-4"], ("protocol", "envelope_exponent")),
        # dump-config accepted these; every echo command then refused t2_us without naming the section
        (["dump-config", "--set", "protocol.t2_us=-1"], ("protocol", "t2_us")),
        (["dump-config", "--set", "protocol.max_image_pixels=0"], ("protocol", "max_image_pixels")),
        # the strobe angle 2 pi f_rot_hz t_phi_us overflowed: "math domain error" (exit 3)
        (_IMAGE_1MS + ["--set", "strobe.t_phi_us=1e304"], ("strobe.t_phi_us",)),
        (_IMAGE_1MS + ["--set", "geometry.f_rot_hz=2e305"], ("geometry.f_rot_hz",)),
        # the bath envelope refused it as "b0_gauss must be positive", naming no key
        (_ECHO_2_5 + ["--set", "field.b0_gauss=0"], ("field.b0_gauss",)),
        # "overflow encountered in scalar power" in the period quadrature (exit 3)
        (_IMAGE_1MS + ["--set", "strobe.jitter_frac=1e175"], ("strobe.jitter_frac",)),
        # "overflow encountered in scalar multiply" there (exit 3), then the node-count refusal
        (_IMAGE_1MS + ["--set", "strobe.jitter_frac=1e150"], ("strobe.jitter_frac",)),
    ],
    ids=["gamma-c13", "b0", "far-emitter", "far-emitter-stationary", "far-orbit-default-window",
         "far-orbit-default-window-stationary", "far-emitter-default-window", "huge-wobble", "wide-wobble",
         "envelope-exponent", "t2", "max-image-pixels", "strobe-angle-t-phi", "strobe-angle-f-rot",
         "b0-zero", "jitter-1e175", "jitter-1e150"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_range_bath_or_blur_exit_2(argv, names, capsys):
    code, err = _main_exit([*argv, "-o", os.devnull], capsys)
    assert code == 2
    assert err.startswith("error:") and all(name in err for name in names), err
    assert "radius" not in err or "--emitters" in names


def test_vanishing_microwave_coupling_names_its_keys(capsys):
    # an NV axis on the rotation axis, driven along it: "microwave coupling
    # vanishes at every sampled angle", naming no key
    sets = ["--set", "field.mw_dir=[0,0,1]", "--set", "geometry.theta_nv_deg=0"]
    code, err = _main_exit(["simulate-rabi", "--durations", "0:1:10", "--shots", "10", *sets], capsys)
    assert code == 2
    assert err.startswith("error:") and "field.mw_dir" in err and "geometry.theta_nv_deg" in err, err


def test_rounding_level_coupling_is_refused_as_zero(capsys):
    # couplings of 6.1e-17 at 0 deg and 1.0e-15 at 180 deg once gave a flat
    # scan, which `fit --model rabi` fitted as converged with exit 0
    sets = ["--set", "geometry.theta_nv_deg=90", "--set", "geometry.phi_nv0_deg=0", "--set", "field.mw_dir=[1,0,0]"]
    code, err = _main_exit(["simulate-rabi", "--durations", "0:1:30", "--shots", "100000", *sets], capsys)
    assert code == 2
    assert "field.mw_dir" in err and "geometry.theta_nv_deg" in err and "2 of 64 sampled angles" in err, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_jitter_renders_where_no_window_spills(capsys):
    # a strobe at the trigger edge never spills past the next one: the period
    # quadrature stays short at any jitter the config takes, up to its domain's
    # top; the 1e150 once rendered lies beyond it
    argv = [*_IMAGE_1MS, "--set", "strobe.t_phi_us=0", "--set", "strobe.jitter_frac=1"]
    code, err = _main_exit([*argv, "-o", os.devnull], capsys)
    assert code == 0, err
    code, err = _main_exit([*argv, "--set", "strobe.jitter_frac=1e150", "-o", os.devnull], capsys)
    assert (code, err) == (2, "error: strobe.jitter_frac must lie in [0, 1], got 1e+150\n")


def test_non_utf8_standard_input_is_refused_like_a_file(monkeypatch, tmp_path, capsys):
    # a C-locale stdin decodes with surrogateescape: the parser saw '\udcff\udcfe'
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, err = _main_exit(["compile-seq", "-"], capsys)
    program = tmp_path / "program.seq"
    program.write_bytes(b"\xff\xfe")
    assert (code, err) == (2, "error: seq -: not UTF-8 text (invalid start byte at byte 0)\n")
    assert _main_exit(["compile-seq", str(program)], capsys) == (2, err.replace("seq -", f"seq {program}"))


def test_image_run_loads_config_once_and_places_its_spots_once(monkeypatch, capsys):
    calls = {"config": 0, "centres": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_load_effective_config", counted("config", cli._load_effective_config))
    monkeypatch.setattr(pipeline, "spot_centers_um", counted("centres", pipeline.spot_centers_um))
    code, err = _main_exit([*_IMAGE, "-o", os.devnull], capsys)
    assert code == 0, err
    # the window and the spot fits share the centres
    assert calls == {"config": 1, "centres": 1}


@pytest.mark.parametrize("value", ["3e-303", "1e-320", "6e305"])
@pytest.mark.parametrize(
    "argv", [_ECHO_2_5, ["simulate-rabi", "--durations", "0.1,0.2"], _IMAGE_1MS], ids=["echo", "rabi", "image"]
)
def test_rotation_rate_without_a_normal_period_exit_2(argv, value, capsys):
    # the period 1e6 / f_rot_hz us overflowed (3e-303) or the rad/us frequency
    # was subnormal (1e-320): the scans exited 2 with "event laser [inf, inf]
    # us has a negative or non-finite time", the image 3 with "cannot convert
    # float NaN to integer"; 360 f_rot_hz overflowed (6e305) to a NaN pulse
    # angle at t = 0, and the image's strobe angle to "math domain error"
    code, err = _main_exit([*argv, "--set", f"geometry.f_rot_hz={value}", "-o", os.devnull], capsys)
    assert code == 2
    assert err.startswith("error:") and "geometry.f_rot_hz" in err, err


def test_slow_rotation_with_a_normal_period_is_taken(capsys):
    # the slowest rotation the domain takes; 1e-300 Hz was taken once
    code, err = _main_exit([*_ECHO_2_5, "--set", "geometry.f_rot_hz=1e-3", "-o", os.devnull], capsys)
    assert code == 0, err
    code, err = _main_exit([*_ECHO_2_5, "--set", "geometry.f_rot_hz=1e-300", "-o", os.devnull], capsys)
    assert (code, err) == (2, "error: geometry.f_rot_hz must lie in [0.001, 1e+06] Hz, got 1e-300\n")


_RATE_KEYS = ("rates.pump_rate_peak_per_us", "rates.radiative_rate_per_us", "rates.isc_rate_e1_per_us",
              "rates.isc_rate_e0_per_us", "rates.singlet_decay_per_us")


def _every_rate(value: str) -> list[str]:
    return [arg for key in _RATE_KEYS for arg in ("--set", f"{key}={value}")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["simulate-readout", "--shots", "10"], _ECHO_2_5], ids=["readout", "echo"])
@pytest.mark.parametrize(
    "rates",
    [
        # "overflow encountered in reduce" in the transit pass's rate bound
        *([f"{key}=1e308"] for key in _RATE_KEYS),
        # "rate matrix has a degenerate steady state", naming no key
        ["rates.pump_rate_peak_per_us=1e16"],
        ["rates.isc_rate_e0_per_us=1e300"],
        # every rate at one scale: "overflow encountered in matmul" in the
        # step factors, or "invalid value encountered in subtract" at 1e308
        *(_every_rate(value)[1::2] for value in ("1e18", "1e22", "1e150", "1e300", "1e308")),
    ],
    ids=[*(f"{key[6:]}-1e308" for key in _RATE_KEYS), "pump-1e16", "isc-e0-1e300",
         "all-1e18", "all-1e22", "all-1e150", "all-1e300", "all-1e308"],
)
def test_rates_beyond_the_readout_pass_exit_2(argv, rates, capsys):
    # the pass's checks once refused each naming every rate; the rates'
    # domain refuses the first one given now
    sets = [arg for item in rates for arg in ("--set", item)]
    code, err = _main_exit([*argv, *sets, "-o", os.devnull], capsys)
    assert code == 2
    assert err.startswith(f"error: {rates[0].partition('=')[0]} must lie in [") and "1e+09] 1/us, got " in err, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, flags",
    [
        # "laser boundary of laser [300.000300, 302.000300] us falls inside mw [...]"
        (["simulate-rabi", "--durations", "0:400:5"], ("--durations", "--pulse-at")),
        (["simulate-rabi", "--pulse-at", "half", "--durations", "0:200:5"], ("--durations", "--pulse-at")),
        # once refused naming --durations; the rotation's domain refuses it first
        (["simulate-rabi", "--durations", "0:1:10", "--set", "geometry.f_rot_hz=1e305",
          "--set", "strobe.t_phi_us=0"], ()),
        # named neither --tau nor geometry.f_rot_hz
        (["simulate-echo", "--tau", "2,400"], ("--tau",)),
    ],
    ids=["rabi-start", "rabi-half", "rabi-fast-rotor", "echo"],
)
def test_sequence_into_the_readout_exit_2(argv, flags, capsys):
    code, err = _main_exit([*argv, "--shots", "10", "-o", os.devnull], capsys)
    assert code == 2
    assert err.startswith("error:") and all(name in err for name in (*flags, "geometry.f_rot_hz")), err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-rabi", "--durations", "0:300:5"],
        ["simulate-rabi", "--pulse-at", "half", "--durations", "0:150:5"],
        ["simulate-echo", "--tau", "2,300"],
    ],
    ids=["rabi-start", "rabi-half", "echo"],
)
def test_sequence_ending_before_the_readout_is_taken(argv, capsys):
    # the default rotation period is 300.0003 us
    code, err = _main_exit([*argv, "--shots", "10", "-o", os.devnull], capsys)
    assert code == 0, err


def test_a_seed_beyond_the_float_range_is_taken(capsys):
    # numpy's generators take any non-negative integer
    code, err = _main_exit(["simulate-readout", "--shots", "10", "--seed", _BEYOND_FLOATS, "-o", os.devnull], capsys)
    assert code == 0, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "damping", [["protocol.t2_us=1e-300"], ["protocol.t2_us=1", "protocol.envelope_exponent=1e30"]]
)
def test_damping_beyond_the_float_range_warns_nothing(damping, capsys):
    # (tau / T2)^p overflowed to an envelope of exactly 0 with "overflow
    # encountered in power", which exits 3 under warnings as errors
    sets = [arg for item in damping for arg in ("--set", item)]
    code, err = _main_exit([*_ECHO_2_5, *sets, "-o", os.devnull], capsys)
    assert code == 0, err


def test_a_short_window_of_a_long_strobe_is_read(capsys):
    # the window pass once cut the whole 300 us pulse into 8 T / W = 9600
    # bins and exited 2 for more than 8192
    sets = ["--set", "strobe.t_pulse_us=300", "--set", "protocol.readout_window_us=0.25"]
    code, err = _main_exit([*_ECHO_2_5, *sets, "-o", os.devnull], capsys)
    assert code == 0, err


@pytest.mark.parametrize("extra", [[], ["--stationary"]])
def test_default_image_window_holds_both_spots(extra, tmp_path, capsys):
    code, err = _main_exit(["simulate-image", *extra, "-o", str(tmp_path / "image.dat")], capsys)
    assert code == 0
    spots = [line for line in err.splitlines() if line.startswith("# spot")]
    assert len(spots) == 2 and all("sigma_radial" in line for line in spots), err


def test_one_column_image_writes_its_step(tmp_path, capsys):
    # the step was read off the first two columns, and one column wrote 0
    out = tmp_path / "image.dat"
    argv = ["simulate-image", "--x-min", "10", "--x-max", "10.1", "--step", "0.15", "--y-min", "-1", "--y-max", "1"]
    code, err = _main_exit([*argv, "-o", str(out)], capsys)
    assert code == 0, err
    header = out.read_text().splitlines()
    assert header[1:6] == ["# x_min_um: 10", "# x_max_um: 10", "# y_min_um: -1", "# y_max_um: 0.95", "# step_um: 0.15"]
    rows = [line.split() for line in header if not line.startswith("#")]
    assert len(rows) == 14 and all(len(row) == 1 for row in rows)


@pytest.mark.parametrize(
    "extra",
    [
        # ~300 counts fitted a 0.0008 x 0.0072 um spot, far below the 0.15 um pixel
        ["--emitters", "10,0,300", "--seed", "2"],
        # three counts in the whole image fitted a 0.005 um spot
        ["--dwell-ms", "1e-9"],
    ],
)
def test_sub_pixel_spot_fit_is_refused(extra, tmp_path, capsys):
    code, err = _main_exit(["simulate-image", *extra, "-o", str(tmp_path / "image.dat")], capsys)
    assert code == 0
    spots = [line for line in err.splitlines() if line.startswith("# spot")]
    assert spots and all("fit failed" in line for line in spots), err


def test_imaging_demo_exits_1_when_a_fit_fails(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "run_imaging_demo", os.path.join(os.path.dirname(__file__), "..", "scripts", "run_imaging_demo.py")
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "OUT_DIR", str(tmp_path))
    real = pipeline.simulate_image

    def one_failed_fit(*args, **kwargs):
        image, summaries = real(*args, **kwargs)
        summaries[0] = {"center_x_um": 0.0, "center_y_um": 0.0, "error": "fit window contains too few pixels"}
        return image, summaries

    monkeypatch.setattr(demo.pipeline, "simulate_image", one_failed_fit)
    assert demo.main() == 1
    monkeypatch.setattr(demo.pipeline, "simulate_image", real)
    assert demo.main() == 0


def _raise_runtime_error(args):
    raise RuntimeError("boom")


def test_runtime_error_message_without_debug(monkeypatch, capsys):
    monkeypatch.delenv("ROTORNV_DEBUG", raising=False)
    monkeypatch.setattr(cli, "cmd_dump_config", _raise_runtime_error)
    code, err = _main_exit(["dump-config"], capsys)
    assert code == 3
    assert err == "runtime error: boom\n"


def test_debug_env_prints_traceback(monkeypatch, capsys):
    monkeypatch.setenv("ROTORNV_DEBUG", "1")
    monkeypatch.setattr(cli, "cmd_dump_config", _raise_runtime_error)
    code, err = _main_exit(["dump-config"], capsys)
    assert code == 3
    assert err.startswith("Traceback (most recent call last):")
    assert "_raise_runtime_error" in err and err.endswith("runtime error: boom\n")


def test_runtime_needs_no_scipy(tmp_path):
    # every subcommand, in one interpreter, on small inputs
    seq = tmp_path / "echo.seq"
    seq.write_text("mw pi at 0us\nlaser 2us at 300us\n")
    data = tmp_path / "echo.dat"
    script = f"""
import sys
import rotornv
from rotornv.cli import main
runs = [
    ["dump-config", "-o", {str(tmp_path / "cfg.json")!r}],
    ["simulate-readout", "--shots", "100", "-o", {str(tmp_path / "trace.dat")!r}],
    ["simulate-echo", "--tau", "2:21:16", "--set", "field.theta_b_deg=1", "-o", {str(data)!r}],
    ["fit", {str(data)!r}, "-o", {str(tmp_path / "fit.txt")!r}],
    ["simulate-rabi", "--durations", "0:0.2:3", "--shots", "10", "-o", {str(tmp_path / "rabi.dat")!r}],
    ["simulate-image", "--x-min", "9", "--x-max", "10", "--y-min", "-0.5", "--y-max", "0.5",
     "--step", "0.25", "--dwell-ms", "5", "-o", {str(tmp_path / "image.dat")!r}],
    ["compile-seq", {str(seq)!r}, "-o", {str(tmp_path / "timeline.txt")!r}],
]
codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] []"


def _cold_main(argv) -> tuple[int, set[str]]:
    """``main(argv)``'s exit code in a fresh interpreter, and which of the lazily loaded modules it loaded."""
    script = f"""
import json, sys
from rotornv.cli import main
code = main({argv!r})
lazy = ("rotornv.photophysics", "rotornv.seqlang", "numpy.polynomial")
print(code, json.dumps([m for m in lazy if m in sys.modules]))
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    code, loaded = res.stdout.strip().splitlines()[-1].split(" ", 1)
    return int(code), set(json.loads(loaded))


def test_cold_calls_load_only_the_layers_they_run(tmp_path):
    # dump-config and a Rabi fit run without the readout and sequence layers
    # and without numpy.polynomial; a Rabi scan loads both layers on first use
    # and writes the file an in-process call writes
    rabi = str(tmp_path / "rabi.dat")
    assert main(["simulate-rabi", "--durations", "0:1.1:40", "-o", rabi]) == 0
    assert _cold_main(["dump-config", "-o", str(tmp_path / "cfg.json")]) == (0, set())
    assert _cold_main(["fit", rabi, "--model", "rabi", "-o", str(tmp_path / "fit.txt")]) == (0, set())
    cold = str(tmp_path / "rabi_cold.dat")
    layers = {"rotornv.photophysics", "rotornv.seqlang"}
    assert _cold_main(["simulate-rabi", "--durations", "0:1.1:40", "-o", cold]) == (0, layers)
    with open(rabi, "rb") as warm, open(cold, "rb") as fresh:
        assert fresh.read() == warm.read()


def _fuzz_values(default):
    """0, -1 and the default times 10^k for k in -6..6 (element-wise for a vector)."""
    if isinstance(default, str):
        return [0, -1]
    factors = [10**k if k >= 0 else 10.0**k for k in range(-6, 7)]
    if isinstance(default, (list, tuple)):
        return [0, -1] + [[v * f for v in default] for f in factors]
    return [0, -1] + [default * f for f in factors]


SET_OVERRIDES = [
    f"{section}.{key}={json.dumps(value)}"
    for section, fields in config_from_dict({}).to_dict().items()
    if section != "seed"
    for key, default in fields.items()
    for value in _fuzz_values(default)
]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-readout"],
        ["simulate-echo", "--tau", "2,5", "--shots", "10"],
        ["simulate-rabi", "--durations", "0:0.2:3"],
    ],
    ids=["readout", "echo", "rabi"],
)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(overrides=st.lists(st.sampled_from(SET_OVERRIDES), min_size=1, max_size=3))
def test_set_overrides_exit_0_or_2(argv, overrides):
    # a bad value must be refused at the config boundary (exit 2), never crash (exit 3)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, *(a for o in overrides for a in ("--set", o))])
    assert code in (0, 2), f"{overrides}: {err.getvalue()}"


def test_spot_fit_programming_error_exits_3(tmp_path, monkeypatch, capsys):
    # only FitError and ValidationError become an error= spot line; anything
    # else is a defect and must fail the command
    def broken(image, center):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(pipeline, "fit_spot_width", broken)
    code, err = _main_exit(
        ["simulate-image", "--stationary", "--x-min", "8.5", "--x-max", "11.5", "--y-min", "-1.5",
         "--y-max", "1.5", "--emitters", "10,0", "-o", str(tmp_path / "img.dat")],
        capsys,
    )
    assert code == 3
    assert "runtime error: unsupported operand" in err


# ---------------------------------------------------------------------------
# one-command parser, one override pass


# one argv per subcommand, with every argument it takes
SUBCOMMAND_ARGVS = [
    ["simulate-rabi", "--durations", "0:1:5", "--pulse-at", "half", "--shots", "7",
     "--set", "seed=2", "--set", "field.theta_b_deg=1", "--seed", "4", "-o", "r.dat"],
    ["simulate-echo", "--tau", "2,5", "--finite-pulses", "--shots", "9", "--config", "c.json"],
    ["simulate-image", "--x-min", "-1", "--x-max", "1", "--y-min", "0", "--y-max", "2",
     "--step", "0.2", "--dwell-ms", "5", "--stationary", "--plane", "xz", "--format", "csv",
     "--emitters", "1,2;3,4,5"],
    ["simulate-readout", "--initial", "ms1", "--shots", "10", "--output", "t.dat"],
    ["compile-seq", "-", "--t-phi", "1.5", "--allow-multi-period"],
    ["fit", "d.dat", "--model", "rabi", "--b-max", "0.3", "--max-iter", "50"],
    ["dump-config"],
]


def _parse_outcome(parser, argv) -> tuple[object, str, str]:
    """(exit code or None, stdout, stderr) of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS, ids=lambda argv: argv[0])
def test_one_command_parser_parses_as_the_full_one(argv):
    one = cli.build_parser(argv)
    sub = next(a for a in one._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [argv[0]]
    assert one.parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "d.dat", "--bogus"],  # an unknown option: the top-level usage line
        ["simulate-rabi", "--pulse-at", "mid"],  # a bad choices value
        ["simulate-image", "--plane", "yz"],
        ["fit"],  # a missing positional
        ["compile-seq", "--t-phi", "1"],
        ["simulate-echo", "--shots", "x"],  # a bad type
        *([name, "--help"] for name in cli.SUBCOMMANDS),
    ],
    ids=" ".join,
)
def test_one_command_parser_prints_as_the_full_one(argv):
    one = _parse_outcome(cli.build_parser(argv), argv)
    assert one[0] is not None
    assert one == _parse_outcome(cli.build_parser(), argv)


def test_top_level_usage_lists_every_subcommand():
    code, _, err = _parse_outcome(cli.build_parser(["fit"]), ["fit", "d.dat", "--bogus"])
    usage, _, message = err.partition("rotornv: error: ")
    assert code == 2 and message == "unrecognized arguments: --bogus\n"
    assert usage.startswith("usage: rotornv [-h]")
    assert "{" + ",".join(cli.SUBCOMMANDS) + "}" in usage


_HELP_DIGESTS = {
    "rotornv": "5a8d91f9c822ce2041b23873a3e24781f62f9acac804402c4286bc7260d8d382",
    "simulate-rabi": "7d23bee448367816772a1363dbe746ace7ce1149e3b205e6bd937b872b6541b8",
    "simulate-echo": "6ac704a2474e185552de49caf6f86b642b539c6a7198b6f31374c3e11a3e45b2",
    "simulate-image": "f72f539639e6d78594043e03b670c4efa7208939c8c7f9e360710a7aeaa018b8",
    "simulate-readout": "01c5b6f99f1172281f3493409e9c81704fd34e1eaea1658a73fcf82977e540dd",
    "compile-seq": "a5e2fe90e7fce6104c0fea2ea56c059d53d337dbf6bc442fbe9d467dcd7af1bf",
    "fit": "8a523be5ce732bc1fec6c8f7908c2bceed30891b2ec5e7251507ca2b37d27755",  # --model names its default
    "dump-config": "70bd1742beff45ebd36be6a3c4215d523a801c5d8edcc28bd7e5498b43971a5a",
}


@pytest.mark.parametrize("command", list(_HELP_DIGESTS))
def test_help_texts_are_pinned(monkeypatch, command):
    # argparse wraps the help at the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "rotornv" else [command, "--help"]
    code, out, err = _parse_outcome(cli.build_parser(argv), argv)
    assert (code, err) == (0, "")
    assert _sha256(out) == _HELP_DIGESTS[command]


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rotornv", "dump-config", "--seed", "5"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


@pytest.mark.parametrize(
    "overrides, seed",
    [
        (["--set", "seed=3", "--seed", "5"], 5),  # --seed comes last and wins
        (["--seed", "5", "--set", "seed=3"], 5),
        (["--set", "seed=3"], 3),
        (["--seed", "5"], 5),
        ([], 1),
    ],
)
def test_seed_flag_wins_over_set(overrides, seed, capsys):
    assert main(["dump-config", *overrides]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == seed


def test_set_takes_a_value_that_is_no_json_as_a_string(capsys):
    assert main(["dump-config", "--set", "beam.collection_mode=illumination-only"]) == 0
    assert json.loads(capsys.readouterr().out)["beam"]["collection_mode"] == "illumination-only"


def test_set_and_seed_apply_together(capsys):
    argv = ["simulate-echo", "--tau", "2,5", "--shots", "100"]
    texts = []
    for overrides in (
        ["--set", "field.theta_b_deg=1.0", "--set", "seed=3", "--seed", "5"],
        ["--set", "field.theta_b_deg=1.0", "--seed", "5"],
        ["--set", "field.theta_b_deg=1.0", "--set", "seed=5"],
    ):
        assert main([*argv, *overrides]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2]
    assert "# seed: 5\n" in texts[0]
    # --shots is part of the config, so of its hash
    expected = config_from_dict(
        {"field": {"theta_b_deg": 1.0}, "protocol": {"shots_per_point": 100}, "seed": 5}
    ).sha256()
    assert f"# config_sha256: {expected}\n" in texts[0]


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["--set", "field.nope=1", "--seed", "5"], "nope"),
        (["--set", "protocol.shots_per_point=0", "--seed", "5"], "shots_per_point"),
        (["--set", "seed=1.5"], "seed"),
        (["--set", "foo"], "override 'foo' must look like section.key=value"),
        (["--set", "nosection.key=1"], "unknown section 'nosection'"),
    ],
)
def test_set_still_refused_beside_seed(overrides, key, capsys):
    code, err = _main_exit(["dump-config", *overrides], capsys)
    assert code == 2
    assert err.startswith("error:") and key in err


# ---------------------------------------------------------------------------
# every config key acts, and a scan's --shots is protocol.shots_per_point


def _run_outcome(argv) -> tuple[int, str, str]:
    """(exit code, stdout without its config hash line, stderr) of an in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = "".join(ln for ln in out.getvalue().splitlines(True) if not ln.startswith("# config_sha256:"))
    return code, text, err.getvalue()


# tau 100 us lies on the flank of the bath envelope's first dip (at 150 us)
_ECHO = ("simulate-echo", "--tau", "2,100")
_TILTED_ECHO = (*_ECHO, "--set", "field.theta_b_deg=1")  # an AC field, so a fringe phase
_RABI = ("simulate-rabi", "--durations", "0:0.2:3")
_READOUT = ("simulate-readout", "--shots", "10")
_IMAGE = ("simulate-image", "--step", "0.5", "--dwell-ms", "5")

# one row per dump-config key: a perturbed value and a cheap run whose output
# (config hash aside) or refusal it must change
KEY_EFFECTS = {
    "geometry.f_rot_hz": (1666.665, _ECHO),
    "geometry.r_nv_um": (5.0, _READOUT),
    "geometry.theta_nv_deg": (27.35, _TILTED_ECHO),
    "geometry.phi_nv0_deg": (45.0, _RABI),
    "geometry.phi_pos0_deg": (40.0, _IMAGE),
    "field.b0_gauss": (3.1, _ECHO),
    "field.theta_b_deg": (1.0, _ECHO),
    "field.phi_b_deg": (40.0, _TILTED_ECHO),
    "field.mw_dir": ([0.0, 1.0, 0.0], _RABI),
    "constants.gamma_e_mhz_per_g": (1.401, _TILTED_ECHO),
    "constants.gamma_c13_khz_per_g": (0.5375, _ECHO),
    "beam.waist_diameter_1e2_um": (0.3, _READOUT),
    "beam.peak_counts_stationary_cps": (5e4, _READOUT),
    "beam.collection_mode": ("illumination-only", _READOUT),
    "beam.background_cps": (1e4, _ECHO),
    "rates.pump_rate_peak_per_us": (60.0, _READOUT),
    "rates.radiative_rate_per_us": (41.7, _ECHO),
    "rates.isc_rate_e1_per_us": (40.0, _ECHO),
    "rates.isc_rate_e0_per_us": (4.0, _ECHO),
    "rates.singlet_decay_per_us": (2.27, _ECHO),
    "rates.singlet_branching_to_g0": (0.4, _ECHO),
    "strobe.t_phi_us": (75.0, _IMAGE),
    "strobe.t_pulse_us": (1.0, _READOUT),
    "strobe.jitter_frac": (0.002, _IMAGE),
    "strobe.wobble_amp_um": (0.2, _IMAGE),
    "protocol.base_rabi_mhz": (1.8, _RABI),
    "protocol.n_cal_angles": (5, (*_RABI, "--pulse-at", "half")),  # 180 deg no longer sampled
    "protocol.turn_on_offset_us": (-0.125, _READOUT),
    "protocol.readout_window_us": (0.5, _ECHO),
    "protocol.bin_width_us": (0.025, _READOUT),
    "protocol.shots_per_point": (1000, _ECHO),
    "protocol.t2_us": (175.0, _ECHO),
    "protocol.envelope_exponent": (2.0, _ECHO),
    "protocol.max_image_pixels": (10, _IMAGE),
    "seed": (2, _ECHO),
}


def test_key_effects_cover_every_dumped_key():
    dumped = config_from_dict({}).to_dict()
    keys = {f"{section}.{key}" for section, fields in dumped.items() if section != "seed" for key in fields}
    assert set(KEY_EFFECTS) == keys | {"seed"}


@pytest.mark.parametrize("key", list(KEY_EFFECTS))
def test_every_config_key_changes_an_output(key):
    value, argv = KEY_EFFECTS[key]
    default = _run_outcome(list(argv))
    assert default[0] == 0
    assert _run_outcome([*argv, "--set", f"{key}={json.dumps(value)}"]) != default


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-echo", "--tau", "2,5"],
        ["simulate-rabi", "--durations", "0:0.2:3", "--pulse-at", "half"],
        ["simulate-readout", "--initial", "ms1"],
    ],
)
def test_shots_flag_is_the_config_key(argv, tmp_path):
    flag, key = tmp_path / "flag.dat", tmp_path / "key.dat"
    assert main([*argv, "--shots", "10", "-o", str(flag)]) == 0
    assert main([*argv, "--set", "protocol.shots_per_point=10", "-o", str(key)]) == 0
    assert flag.read_bytes() == key.read_bytes()
    expected = config_from_dict({"protocol": {"shots_per_point": 10}}).sha256()
    assert f"# config_sha256: {expected}\n" in flag.read_text()


@pytest.mark.parametrize(
    "overrides",
    [
        ["--set", "protocol.shots_per_point=7", "--shots", "10"],
        ["--shots", "10", "--set", "protocol.shots_per_point=7"],
    ],
)
def test_shots_flag_wins_over_set(overrides, capsys):
    argv = ["simulate-echo", "--tau", "2,5"]
    assert main([*argv, *overrides]) == 0
    got = capsys.readouterr().out
    assert "# shots_per_point: 10\n" in got
    assert main([*argv, "--set", "protocol.shots_per_point=10"]) == 0
    assert got == capsys.readouterr().out


def test_phi_pos0_rotates_the_default_spots():
    cfg = config_from_dict({})
    turned = apply_overrides(cfg, ["geometry.phi_pos0_deg=40"])
    a = math.radians(40.0)
    for stationary in (False, True):
        base = pipeline.spot_centers_um(cfg, pipeline.default_emitters(cfg), stationary)
        got = pipeline.spot_centers_um(turned, pipeline.default_emitters(turned), stationary)
        want = [(x * math.cos(a) - y * math.sin(a), x * math.sin(a) + y * math.cos(a)) for x, y in base]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("key", ["constants.d_zfs_ghz", "field.mw_amp_gauss"])
def test_removed_keys_exit_2(key, tmp_path, capsys):
    section, name = key.split(".")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {name: 3.0}}))
    for argv in (["dump-config", "--set", f"{key}=3"], ["simulate-echo", "--config", str(path)]):
        code, err = _main_exit(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and name in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"geometry": 3}', "error: geometry: expected an object"),
        ("[1,2]", "error: configuration root must be an object"),
        ("{bad json", "cfg.json: invalid JSON (Expecting property name"),
    ],
    ids=["section-not-object", "root-not-object", "bad-json"],
)
def test_malformed_config_file_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, err = _main_exit(["dump-config", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and message in err, err


# ---------------------------------------------------------------------------
# dataset text


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1e-7, 123456789.0, 1234567890123.0]
_FINITE = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.integers(-(10**17), 10**17).map(float),  # integer-valued floats
)


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(_FINITE, min_size=n_rows, max_size=n_rows))))
        else:  # an integer column, as a readout trace's counts would be
            ints = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
            columns.append(np.array(draw(st.lists(ints, min_size=n_rows, max_size=n_rows)),
                                    dtype=np.int64))
    return columns


@settings(max_examples=300, deadline=None, derandomize=True)
@given(columns=_tables())
def test_dataset_text_matches_the_per_value_oracle(columns):
    names = tuple(f"c{i}" for i in range(len(columns)))
    text = pipeline.format_dataset(names, columns, {"kind": "x"}, config_from_dict({}))
    header, _, rows = text.partition("# columns: " + " ".join(names) + "\n")
    assert header.startswith("# rotornv-dataset v1\n")
    assert rows == dataset_oracle.format_rows(columns)
    if len(columns[0]) == 0:
        with pytest.raises(ValidationError, match="no data rows"):
            pipeline.parse_dataset(text)
        return
    parsed, want = pipeline.parse_dataset(text)[1], dataset_oracle.parse_rows(text)
    assert parsed.dtype == want.dtype and parsed.shape == want.shape
    assert parsed.tobytes() == want.tobytes()  # bit for bit, -0.0 and subnormals too


@pytest.mark.parametrize(
    "text",
    [
        "# columns: a b\n1 2\n\n  3\t4  \n# a comment: between rows\n5 6\n",
        "1 2 3\n4 5 6\n",  # no columns header
        "# columns: a\n7\n8\n",
        # tokens float() takes that no bulk parser does
        "# columns: a b\n1_000 2\n٣ 4\n",
        "# columns: a b\ninf -nan\n+1E5 -0\n",
    ],
)
def test_parse_dataset_matches_the_row_oracle(text):
    parsed, want = pipeline.parse_dataset(text)[1], dataset_oracle.parse_rows(text)
    assert parsed.shape == want.shape and parsed.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("# columns: a b c\n1 2 3\n2 oops 3\n", "line 3: malformed data row '2 oops 3'"),
        ("# columns: a b c\n1 2 3\n\n4 5\n6 x 7\n", "line 4: expected 3 columns, got 2"),
        ("# columns: a b c\n1 2 3 4\n5 6 7 8\n", "line 2: expected 3 columns, got 4"),
        ("# columns: a b\n1 2\n3 # 4\n", "line 3: malformed data row '3 # 4'"),
        ("# rotornv-dataset v1\n# columns: a b\n\n", "dataset contains no data rows"),
        ("", "dataset contains no data rows"),
    ],
)
def test_parse_dataset_refusals_keep_their_text(text, message):
    with pytest.raises(ValidationError) as got:
        pipeline.parse_dataset(text)
    with pytest.raises(ValidationError) as want:
        dataset_oracle.parse_rows(text)
    assert str(got.value) == str(want.value) == message


def test_ragged_rows_without_header_fail_as_before():
    with pytest.raises(ValueError) as got:
        pipeline.parse_dataset("1 2\n3\n")
    with pytest.raises(ValueError) as want:
        dataset_oracle.parse_rows("1 2\n3\n")
    assert not isinstance(got.value, ValidationError)
    assert type(got.value) is type(want.value)


# ---------------------------------------------------------------------------
# the separable fits' printed results, pinned byte for byte: a faster fit
# loop must move none of their bits

_DEMO_WINDOW = (
    "--set", "strobe.t_phi_us=0", "--x-min", "7", "--x-max", "12.5", "--y-min", "-2", "--y-max", "5.2"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "ce635d89255016b7b2ad150dbd43f9642be5024ff0d8aa83a10fa179a4d5c7d7"),
        (401, "5344bf879aa9f002b103b72e9ddb8770bac689801487083423b743d55276a28a"),
    ],
)
def test_demo_pair_spot_lines_are_pinned(tmp_path, seed, digest):
    lines = ""
    for stationary in ((), ("--stationary",)):
        argv = ["simulate-image", *_DEMO_WINDOW, *stationary, "--seed", str(seed)]
        code, _, err = _run_outcome([*argv, "-o", str(tmp_path / "img.dat")])
        assert code == 0
        lines += "".join(ln for ln in err.splitlines(True) if ln.startswith("# spot"))
    assert lines.count("\n") == 4 and _sha256(lines) == digest


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "6eb73e80b8474f2018b3d6a6be20de5753cbad003f149c9e2616b122b736e1b6"),
        (7, "a4c042f6aec4a4dc7cb1868f2caa71b54e3eb4151a70ef793f424c2cec93329d"),
    ],
)
def test_readout_trace_is_pinned(seed, digest):
    # the default trace sums protocol.shots_per_point's 187 500 transits
    code, text, _ = _run_outcome(["simulate-readout", "--seed", str(seed)])
    assert code == 0 and text.count("\n") > 40
    assert _sha256(text) == digest


@pytest.mark.parametrize(
    "scan, model, seed, digest",
    [
        ("rabi", ("--model", "rabi"), 1, "d48440ab7278ec9f48f36d1fd2aefbb1d7300443236e4c511b0c4a5e2c68ab92"),
        ("rabi", ("--model", "rabi"), 7, "65faecc104ad19c2719b1dfb151e2c2bf94c478f21057f07472c937d60afec5f"),
        ("echo", (), 1, "2fc760403ae4ef41ed5168c84b640d9fff784fd918467f89633be5b7f1e098ce"),
        ("echo", (), 7, "7cb9014c6f4522989d6ee7449cc6ff0049adcd49cb72575d9349137616736415"),
    ],
)
def test_fit_text_is_pinned(tmp_path, scan, model, seed, digest):
    simulate = {
        "rabi": ("simulate-rabi", "--durations", "0:1.1:400"),
        "echo": ("simulate-echo", "--set", "field.theta_b_deg=3"),
    }[scan]
    data = tmp_path / "scan.dat"
    assert _run_outcome([*simulate, "--seed", str(seed), "-o", str(data)])[0] == 0
    code, text, _ = _run_outcome(["fit", str(data), *model])
    assert code == 0 and text.startswith("# fit result\n")
    assert _sha256(text) == digest


# every other subcommand's outputs, pinned byte for byte: the exit code, and
# one digest of stdout, stderr and the -o file (config hash lines aside)

_README_PROGRAM = "mw pi at 0us\nwait 150us\nmw pi at 150us\nlaser 2us at 300us\n"

_PINNED_RUNS = {
    "rabi-start": ("simulate-rabi", "--pulse-at", "start"),
    "rabi-half": ("simulate-rabi", "--pulse-at", "half"),
    "echo-ideal": ("simulate-echo",),
    "echo-finite": ("simulate-echo", "--finite-pulses"),
    "image": ("simulate-image",),
    "image-stationary": ("simulate-image", "--stationary"),
    "image-csv": ("simulate-image", "--format", "csv"),
    # one bound given, the other three from the window centred on the spots;
    # at seed 7 the fit of spot 0 is refused as numerically rank-deficient
    "image-x-min": ("simulate-image", "--x-min", "-9"),
    # its spot fit is refused: the Jacobian is numerically rank-deficient
    "image-emitter-cps": ("simulate-image", "--emitters", "10,0,300"),
    # the three-emitter render smoke run's 8 us strobe and window
    "image-three-emitters": ("simulate-image", "--emitters", "10,0;9.9,1.2;9.7,2.7",
                             "--set", "strobe.t_phi_us=0", "--set", "strobe.t_pulse_us=8",
                             "--x-min", "8.5", "--x-max", "11", "--y-min", "-2.5", "--y-max", "2.5",
                             "--step", "0.1"),
    "image-depth-stationary": ("simulate-image", "--plane", "xz", "--stationary"),
    "compile-seq": ("compile-seq",),
    # an int given for a float field is written as a float: theta_b_deg 3.0
    "dump-config": ("dump-config", "--set", "field.theta_b_deg=3", "--set", "strobe.t_phi_us=2.5"),
    # the three 400-point scans of the dense-scan benchmark workload
    "dense-rabi-start": ("simulate-rabi", "--durations", "0:1.1:400", "--pulse-at", "start"),
    "dense-rabi-half": ("simulate-rabi", "--durations", "0:1.1:400", "--pulse-at", "half"),
    "dense-echo-finite": ("simulate-echo", "--finite-pulses", "--tau", "2:150:400"),
}


def _pinned_outcome(tmp_path, run: str, seed: int) -> tuple[int, str]:
    argv = list(_PINNED_RUNS[run])
    if run == "compile-seq":
        program = tmp_path / "readme.seq"
        program.write_text(_README_PROGRAM)
        argv.append(str(program))
    out = tmp_path / "out.txt"
    code, stdout, stderr = _run_outcome([*argv, "--seed", str(seed), "-o", str(out)])
    written = "".join(
        ln for ln in out.read_text().splitlines(True) if not ln.startswith("# config_sha256:")
    )
    return code, _sha256("\0".join((stdout, stderr, written)))


@pytest.mark.parametrize(
    "run, seed, code, digest",
    [
        ("rabi-start", 1, 0, "7e5b4c247cecbc10ab2d126182a95f4ff474126856382f327fea15ddeff676f3"),
        ("rabi-start", 7, 0, "8c40ba9a9697bf9a6ad8caab11c815e7cc72d1fd0229dc22c17d8fa538c90679"),
        ("rabi-half", 1, 0, "0f40b335e81ac3ec9b2f7de22652f37b1139cff20f7fa90cf2e8ae10a9966963"),
        ("rabi-half", 7, 0, "753a055ff91f325ed7ba5ed8c9ec41aa6ebe7a33202d25de44b5d4cc29cfe27f"),
        ("echo-ideal", 1, 0, "950886792eb5b914f6ab08771bd1853e1aeecb5cde48bdd2282b91a23733828e"),
        ("echo-ideal", 7, 0, "8667f4e9d52b2f0d3fd3392a6702b4f61936d1c49e0827fbd9d23098d54eed37"),
        ("echo-finite", 1, 0, "07776405c014a5bdd0ee57d5fee3b53ad784d6d55e0928b4cc2fd176cca5f6af"),
        ("echo-finite", 7, 0, "e221ac6242332ce2b916b40e63b0d585c32cd895869f528ebb7bb0af13007208"),
        ("image", 1, 0, "fb2872af32bb9e7c4c9f2f474c9c73ba41233a78dc1a99f28dc9af67e358c960"),
        ("image", 7, 0, "12c0f09cf3611089247b7c636980aba4bdea33cf389d841b2ac03788d12cd913"),
        ("image-stationary", 1, 0, "059823b4e06cbb040edad25de87c0ba2d224efba3ac7b242a6959fe392e30013"),
        ("image-stationary", 7, 0, "41c82770ee47cef8cc85cd002b9d2b898524281aa1fa0eacb121316c53e72bfc"),
        ("image-csv", 1, 0, "4947d13dfe579fa2afae2c8284aec528fb6680ec0a53aba2395e3493afbe7157"),
        ("image-csv", 7, 0, "eabf55e0f6b1c14ca62afe178490e46572fdc75b5add0f87068c440123cd2ce7"),
        ("image-x-min", 1, 0, "732885ea03cafd95accaff955173c4811d1a6c9be987340397dc7ddc59bd353c"),
        ("image-x-min", 7, 0, "bbb6ef98f8c6cc12303b9f131e688e055e687b5cc1fd1d5d376e219a1c37eb12"),
        ("image-emitter-cps", 1, 0, "58909d34b20723e544816db667dc9c199a4db7be753a13363d8cf93391eca16f"),
        ("image-emitter-cps", 7, 0, "439f88b01e528e9021ee9d4872dfe90a14bda5fadc9df41ec4bf3d7bea39075e"),
        ("image-three-emitters", 1, 0, "3dd525867459a51c36a14c1d0bb9ed9851dfc7e28fea979744870b253bf981ef"),
        ("image-three-emitters", 7, 0, "1039a2628548d441a4f41f10032edc49211bbeefb82ac7772249e937b8f98999"),
        ("image-depth-stationary", 1, 0, "319e40fa1114bd68494f128daeb086b67d14b3ff2244bcfc51ef20d1f56b1a91"),
        ("image-depth-stationary", 7, 0, "f4e99e7e0e49ea6693615793bd39635fd7b404a5bb29ab682fd04d7ad229ad19"),
        ("compile-seq", 1, 0, "b5f8f8e287869cc3b5965e4d50081eff012cf0d323eacb228bf5134bf450f1fe"),
        ("compile-seq", 7, 0, "b5f8f8e287869cc3b5965e4d50081eff012cf0d323eacb228bf5134bf450f1fe"),
        ("dump-config", 1, 0, "1c710525720bffe20447c1dbd17e4f8a4dd9d547fa12d8d84194abb87ac5b5e0"),
        ("dump-config", 7, 0, "cf9d13e44f1b774498c28d2a0be3fc8b1fa0881d559bb36cc6cebd2cd50eead4"),
        ("dense-rabi-start", 1, 0, "7fef3d7692281afb33b5f575c24a086076bb6b6f0c8e32c3702ebcea3722c3cb"),
        ("dense-rabi-start", 7, 0, "f6ec1d9eafce2d48270606ba2d31c797e15f91f4e5097b522e2543833551b50a"),
        ("dense-rabi-half", 1, 0, "4314bc3f89ad8a34a27b233977faa2a1607dee3409567438a9dde38a5e4595b9"),
        ("dense-rabi-half", 7, 0, "7270b75426e742eca40ef7d473bf541bfc673e51aaa3f3aa9771f0abe1a5a7f5"),
        ("dense-echo-finite", 1, 0, "e8fd5ce6e2ab52990cbec318be188dfc41eadae0d931b6b99d973d04e43cb4e4"),
        ("dense-echo-finite", 7, 0, "125061d77689aa1320bd33c601ddde5db8d8d0f5ce8d6de2e339b068fc3ef0ed"),
    ],
)
def test_subcommand_outputs_are_pinned(tmp_path, run, seed, code, digest):
    assert _pinned_outcome(tmp_path, run, seed) == (code, digest)


# each demo script and the files it writes into out/ beside scripts/
DEMO_FILES = {
    "run_rabi_experiment.py": {"rabi_start.dat", "rabi_half.dat"},
    "run_readout_scan.py": {"readout_ms0.dat", "readout_ms1.dat"},
    "run_echo_experiment.py": {"echo_scan.dat", "echo_fit.txt"},
    "run_imaging_demo.py": {"image_rotating.dat", "image_stationary.dat"},
}


@pytest.mark.parametrize("script", sorted(DEMO_FILES))
def test_demo_script_runs_and_writes_its_files(script, tmp_path):
    # a copy of scripts/ beside a link to src/, so the script writes the
    # temporary out/ and never the repository's
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert sorted(os.listdir(os.path.join(root, "scripts"))) == sorted(DEMO_FILES)
    shutil.copytree(os.path.join(root, "scripts"), tmp_path / "scripts")
    os.symlink(os.path.join(root, "src"), tmp_path / "src")
    env = {k: v for k, v in os.environ.items() if k != "ROTORNV_CONFIG"}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(tmp_path / "scripts" / script)],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert run.returncode == 0, run.stderr
    assert set(os.listdir(tmp_path / "out")) == DEMO_FILES[script]
