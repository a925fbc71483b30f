"""rotornv: simulation and estimation toolkit for an NV spin qubit in a rotating diamond.

A cold call loads only the layers it runs.  ``import rotornv`` loads no
module that some subcommand skips: ``config``, ``errors`` and ``geometry``,
and the layers that ``cli`` reaches through ``pipeline`` in every call
(``estimation``, ``imaging``, ``lsq`` and ``spindyn``).  The readout layer
(``photophysics``) and the sequence layer (``seqlang``) load on first use:
the scans, the readout trace and ``compile-seq`` need them, while
``dump-config``, ``fit`` and ``simulate-image`` run without.  Their exports,
and the two submodule names, resolve on first access (PEP 562 ``__getattr__``).
"""

from .errors import (
    CompileError,
    Diagnostic,
    FitError,
    IdentifiabilityError,
    ParseError,
    SequenceError,
    ValidationError,
)
from .geometry import (
    eac_amplitude,
    effective_field,
    fringe_phase_offset,
    mw_coupling,
    nv_axis,
    nv_position,
    zeeman_projection,
)
from .spindyn import (
    EchoParams,
    c13_envelope,
    c13_revival_time_us,
    echo_phase,
    simulate_sequence,
)
from .estimation import (
    EchoDataset,
    EchoFitModel,
    FitResult,
    fit_echo,
    fit_rabi,
)
from .imaging import (
    Emitter,
    EmitterSet,
    ScanGrid,
    StrobedImage,
    angular_smear,
    fit_spot_width,
    render_image,
)
from .config import (
    BeamProfile,
    ExperimentConfig,
    FieldConfig,
    PhysicalConstants,
    RateModel,
    RotorGeometry,
    StrobeConfig,
    config_from_dict,
    load_config,
)

__version__ = "0.1.0"

# name -> the layer that defines it, for the exports of the layers that load on first use
_LAZY = {
    **dict.fromkeys(
        (
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
        ),
        "photophysics",
    ),
    **dict.fromkeys(
        (
            "CalibrationTable",
            "SequenceProgram",
            "TimelineBatch",
            "build_calibration",
            "compile_timeline",
            "format_program",
            "parse_sequence",
        ),
        "seqlang",
    ),
}


def __getattr__(name: str):
    """A lazy layer, or one of its exports, imported on first access and then kept as a global."""
    layer = name if name in _LAZY.values() else _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows the load under -X importtime;
    # it binds the submodule here
    __import__(f"{__name__}.{layer}")
    value = globals()[layer] if layer == name else getattr(globals()[layer], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
