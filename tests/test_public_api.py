"""The names ``rotornv`` exports and its import graph: each name resolves, no other is listed, retired ones stay gone."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import rotornv
from rotornv import config, estimation, imaging, lsq

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
RETIRED = (
    "SpinState", "PulseSpec", "apply_pulse", "echo_signal", "rabi_population", "grid_oracle",
    "profile_identifiability",
)


def test_export_count():
    assert len(set(EXPORTS)) == len(EXPORTS) == 58


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


def _runtime_nodes(tree: ast.Module):
    """Every node of a module's tree outside its ``if TYPE_CHECKING:`` blocks."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _package_imports(tree: ast.Module) -> dict[str, set[str]]:
    """The package modules a module imports at run time, each with the names taken from it."""
    found: dict[str, set[str]] = {}
    for node in _runtime_nodes(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:  # absolute: only the package's own modules count
                if module != "rotornv" and not module.startswith("rotornv."):
                    continue
                module = module.removeprefix("rotornv").removeprefix(".")
            if module:  # from .x import y / from rotornv.x import y
                found.setdefault(module, set()).update(a.name for a in node.names)
            else:  # from . import x / from rotornv import x
                for alias in node.names:
                    found.setdefault(alias.name, set())
        elif isinstance(node, ast.Import):
            for alias in node.names:
                # a bare `import rotornv` is kept as "rotornv", which no table allows
                if alias.name == "rotornv" or alias.name.startswith("rotornv."):
                    found.setdefault(alias.name.removeprefix("rotornv."), set())
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from . import lsq", {"lsq": set()}),
        ("from .lsq import fit_separable", {"lsq": {"fit_separable"}}),
        ("from rotornv import lsq, errors", {"lsq": set(), "errors": set()}),
        ("from rotornv.lsq import _GRAD_TOL", {"lsq": {"_GRAD_TOL"}}),
        ("import rotornv", {"rotornv": set()}),
        ("import rotornv.lsq as core", {"lsq": set()}),
        ("import numpy\nfrom rotornvx import y\nfrom .rotornvx import z", {"rotornvx": {"z"}}),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .seqlang import T", {}),
    ],
)
def test_package_imports_reads_every_import_form(source, expected):
    assert _package_imports(ast.parse(source)) == expected


PACKAGE = Path(rotornv.__file__).parent
# module -> the package modules it imports at run time: config and the fit
# core load no physics, and the fringe model and the raster load no compiler
IMPORT_GRAPH = {
    "config": {"errors", "geometry"},
    "lsq": {"errors"},
    "imaging": {"config", "errors", "geometry", "lsq"},
    "spindyn": {"config", "errors", "geometry"},
    "estimation": {"config", "errors", "lsq", "spindyn"},
    "cli": {"config", "errors", "imaging", "pipeline"},
}


def _module_tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def test_config_owns_its_sections_and_imports_no_physics_module():
    for name, imported in IMPORT_GRAPH.items():
        assert set(_package_imports(_module_tree(name))) == imported, name
    sections = {cls.__name__ for _, cls in config._SECTIONS.values()} | {"ExperimentConfig"}
    assert len(sections) == 8
    for path in PACKAGE.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text())
            defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
            assert not defined & sections, path.name


def test_no_module_imports_another_modules_private_name():
    for path in PACKAGE.glob("*.py"):
        for module, names in _package_imports(ast.parse(path.read_text())).items():
            assert not [n for n in names if n.startswith("_")], (path.name, module)


# the least-squares core the fringe, Rabi and spot fits share
LSQ_NAMES = (
    "LMResult",
    "levenberg_marquardt",
    "fit_separable",
    "data_rows",
    "free_pair",
    "pair_from_sums",
    "scan_sse",
    "full_jacobian",
    "check_identified",
    "_GRAD_TOL",
    "_STEP_TOL",
    "_COST_RESOLUTION",
    "_MAX_CONDITION",
    "_DATA_EXPONENT",
    "_FLAT_RTOL",
    "_SCAN_FLOATS",
)


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_lsq_alone_defines_the_fit_core():
    assert set(LSQ_NAMES) <= _top_level_names(_module_tree("lsq"))
    old_private = {"_" + name for name in LSQ_NAMES if not name.startswith("_")}
    for name in ("estimation", "imaging"):
        assert not _top_level_names(_module_tree(name)) & (set(LSQ_NAMES) | old_private), name


def test_estimation_keeps_the_one_lm_binding_the_tracer_looks_up():
    # perfbench's tracer finds levenberg_marquardt on rotornv.estimation and
    # rebinds that object in every module, lsq included
    assert estimation.levenberg_marquardt is lsq.levenberg_marquardt
    moved = [getattr(lsq, name) for name in LSQ_NAMES if callable(getattr(lsq, name))]
    for module in (rotornv, estimation, imaging):
        bound = {n for n, v in vars(module).items() if any(v is obj for obj in moved)}
        assert bound == ({"levenberg_marquardt"} if module is estimation else set()), module.__name__
