"""The names ``rotornv`` exports: each resolves, no other is listed, and retired ones stay gone."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import rotornv
from rotornv import config

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
    "eac_amplitude",
    "effective_field",
    "fringe_phase_offset",
    "mw_coupling",
    "nv_axis",
    "nv_position",
    "zeeman_projection",
    # photophysics
    "LevelPopulations",
    "PhotonTrace",
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
    "StrobedImage",
    "angular_smear",
    "fit_spot_width",
    "render_image",
    # config
    "BeamProfile",
    "ExperimentConfig",
    "FieldConfig",
    "PhysicalConstants",
    "RateModel",
    "RotorGeometry",
    "StrobeConfig",
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


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module's import statements name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from . import x / from .x import y
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rotornv"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("rotornv"))
    return found


def test_config_owns_its_sections_and_imports_no_physics_module():
    package = Path(rotornv.__file__).parent
    assert _package_imports(ast.parse((package / "config.py").read_text())) == {"errors", "geometry"}
    sections = {cls.__name__ for _, cls in config._SECTIONS.values()} | {"ExperimentConfig"}
    assert len(sections) == 8
    for path in package.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text())
            defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
            assert not defined & sections, path.name
