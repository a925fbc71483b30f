"""rotornv: simulation and estimation toolkit for an NV spin qubit in a rotating diamond."""

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
from .photophysics import (
    LevelPopulations,
    PhotonTrace,
    beam_intensity,
    expected_count_rate,
    fluorescence_rate,
    optimal_turn_on,
    readout_response,
    simulate_readout,
    state_contrast,
    steady_state,
    step_rates,
)
from .seqlang import (
    CalibrationTable,
    SequenceProgram,
    TimelineBatch,
    build_calibration,
    compile_timeline,
    format_program,
    parse_sequence,
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
