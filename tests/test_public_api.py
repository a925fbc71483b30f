"""The names ``rotornv`` exports: each resolves, no other is listed, and retired ones stay gone."""

import inspect
import subprocess
import sys

import pytest

import rotornv

EXPORTS = (
    # errors
    "CompileError",
    "Diagnostic",
    "FitError",
    "IdentifiabilityError",
    "ParseError",
    "SequenceError",
    "ValidationError",
    # geometry
    "FieldConfig",
    "PhysicalConstants",
    "RotorGeometry",
    "eac_amplitude",
    "effective_field",
    "fringe_phase_offset",
    "mw_coupling",
    "nv_axis",
    "nv_position",
    "zeeman_projection",
    # photophysics
    "BeamProfile",
    "LevelPopulations",
    "PhotonTrace",
    "RateModel",
    "beam_intensity",
    "expected_count_rate",
    "fluorescence_rate",
    "optimal_turn_on",
    "readout_response",
    "simulate_readout",
    "state_contrast",
    "steady_state",
    "step_rates",
    # seqlang
    "CalibrationTable",
    "SequenceProgram",
    "TimelineBatch",
    "build_calibration",
    "compile_timeline",
    "format_program",
    "parse_sequence",
    # spindyn
    "EchoParams",
    "c13_envelope",
    "c13_revival_time_us",
    "echo_phase",
    "simulate_sequence",
    # estimation
    "EchoDataset",
    "EchoFitModel",
    "FitResult",
    "fit_echo",
    "fit_rabi",
    "profile_identifiability",
    # imaging
    "Emitter",
    "EmitterSet",
    "ScanGrid",
    "StrobeConfig",
    "StrobedImage",
    "angular_smear",
    "fit_spot_width",
    "render_image",
    # config
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
)

# the scalar spin API, a second fringe formula and test oracles
RETIRED = ("SpinState", "PulseSpec", "apply_pulse", "echo_signal", "rabi_population", "grid_oracle")


def test_export_count():
    assert len(set(EXPORTS)) == len(EXPORTS) == 59


def test_no_unlisted_export():
    public = {
        name
        for name in dir(rotornv)
        if not name.startswith("_") and not inspect.ismodule(getattr(rotornv, name))
    }
    assert public == set(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_export_resolves(name):
    assert getattr(rotornv, name) is not None


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_gone(name):
    assert not hasattr(rotornv, name)


def test_import_leaves_numpy_fft_unloaded():
    # numpy 2 loads numpy.fft on first use, and only the Rabi fit's start scan
    # uses it: importing the package adds no numpy.fft module to a bare numpy's
    script = (
        "import sys, numpy\n"
        "fft = lambda: {m for m in sys.modules if m.startswith('numpy.fft')}\n"
        "before = fft()\n"
        "import rotornv\n"
        "print(sorted(fft() - before))"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
