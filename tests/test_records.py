"""The package's records (errors.record): frozen ones refuse writes, replace() checks again, equal ones hash equal."""

import ast
from pathlib import Path

import numpy as np
import pytest

import rotornv
from rotornv import config, errors, estimation, imaging, lsq, photophysics, seqlang, spindyn
from rotornv.config import ExperimentConfig, RateModel, config_from_dict
from rotornv.errors import ValidationError

_US = seqlang.Quantity(1.0, "us")
_ROW = np.zeros((1, 1))
# one instance of each frozen record type
FROZEN = [
    config.RotorGeometry(),
    config.FieldConfig(),
    config.PhysicalConstants(),
    config.BeamProfile(),
    config.RateModel(),
    config.StrobeConfig(),
    config.ProtocolConfig(),
    config.ExperimentConfig(),
    spindyn.EchoParams(),
    estimation.EchoDataset(np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([0.1, 0.1])),
    estimation.EchoFitModel(),
    estimation.FitResult({}, {}, np.zeros((0, 0)), 0.0, 1.0, True, 1, 2),
    imaging.ScanGrid((0.0, 1.0), (0.0, 1.0)),
    imaging.Emitter((0.0, 0.0)),
    imaging.EmitterSet((imaging.Emitter((0.0, 0.0)),)),
    imaging.StrobedImage(_ROW, np.zeros(1), np.zeros(1), 0.5),
    _US,
    seqlang.TriggerStmt(),
    seqlang.WaitStmt(_US),
    seqlang.LaserStmt(_US),
    seqlang.MwStmt("pi"),
    seqlang.SequenceProgram((("t", _US),), (seqlang.WaitStmt("t"),)),
    seqlang.CalibrationTable((0.0,), (1.0,)),
    seqlang.TimelineBatch(("laser",), (None,), _ROW, _ROW + 1.0, _ROW, _ROW, _ROW),
    photophysics.LevelPopulations(),
    photophysics.PhotonTrace(0.05, np.zeros(3), 10),
    photophysics.WindowResponse(1.0, 0.5, 0.0),
]
IDS = [type(record).__name__ for record in FROZEN]
PACKAGE = Path(rotornv.__file__).parent


def _record_types() -> set[type]:
    """Every class the package's modules define with errors.record."""
    modules = (config, errors, estimation, imaging, lsq, photophysics, seqlang, spindyn)
    return {v for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__ == m.__name__ and "replace" in vars(v)}


def test_every_record_type_is_listed():
    assert _record_types() == {type(record) for record in FROZEN} | {lsq.LMResult, errors.Diagnostic}


def test_no_module_uses_dataclasses():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


@pytest.mark.parametrize("record", FROZEN, ids=IDS)
def test_a_frozen_record_refuses_assignment_and_deletion(record):
    name = record.fields[0] if record.fields else "extra"
    before = repr(record)
    with pytest.raises(AttributeError, match="is frozen"):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError, match="is frozen"):
        delattr(record, name)
    assert repr(record) == before


def test_lm_result_stays_mutable_and_unhashable():
    result = lsq.LMResult(x=np.zeros(2), cost=1.0, grad_norm=0.0, iterations=1, converged=True)
    result.cost = 2.0
    assert result.cost == 2.0
    with pytest.raises(TypeError):
        hash(result)


def test_a_diagnostic_stays_mutable_and_equal_only_to_itself():
    diagnostic = errors.Diagnostic("message", 1, 2)
    diagnostic.line = 3
    assert str(diagnostic) == "line 3, col 2: message"
    assert diagnostic != errors.Diagnostic("message", 3, 2) and diagnostic == diagnostic


IDENTITY_EQUAL = [record for record in FROZEN if type(record).__eq__ is object.__eq__]


@pytest.mark.parametrize("record", IDENTITY_EQUAL, ids=lambda record: type(record).__name__)
def test_a_record_without_field_equality_equals_only_itself(record):
    twin = record.replace()
    assert twin is not record and twin != record and record == record


def test_replace_builds_a_new_record_and_keeps_the_other_fields():
    cfg = config_from_dict({"strobe": {"t_phi_us": 20.0}})
    seeded = cfg.replace(seed=9)
    assert seeded.seed == 9 and cfg.seed == 1
    assert seeded.to_dict() == {**cfg.to_dict(), "seed": 9}
    slower = cfg.geometry.replace(f_rot_hz=1000.0)
    assert (slower.f_rot_hz, slower.phi_nv0_deg) == (1000.0, 90.0)
    with pytest.raises(TypeError):
        cfg.replace(bogus=1)


def test_replace_reruns_the_range_checks():
    cfg = config_from_dict({})
    with pytest.raises(ValidationError, match=r"^geometry\.f_rot_hz must lie in \[0\.001, 1e\+06\] Hz, got 0\.0$"):
        cfg.geometry.replace(f_rot_hz=0.0)
    with pytest.raises(ValidationError, match=r"^protocol\.shots_per_point \(--shots\) must lie in"):
        cfg.protocol.replace(shots_per_point=0)


@pytest.mark.parametrize("section, changes", [("protocol", {"readout_window_us": 3.0}),
                                              ("strobe", {"t_pulse_us": 0.5})])
def test_replace_reruns_the_cross_key_check(section, changes):
    cfg = config_from_dict({})
    part = getattr(cfg, section).replace(**changes)
    with pytest.raises(ValidationError, match="the readout window must fit inside the strobe pulse"):
        cfg.replace(**{section: part})


def test_equal_sections_are_equal_hash_equal_and_share_a_cache_entry():
    a, b = RateModel(), config_from_dict({}).rates
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != RateModel(pump_rate_peak_per_us=100.0)
    assert ExperimentConfig() == ExperimentConfig() and ExperimentConfig().geometry is not ExperimentConfig().geometry
    rate = photophysics._bright_emission_rate
    rate(a)
    info = rate.cache_info()
    assert rate(b) == rate(a)
    assert (rate.cache_info().hits, rate.cache_info().misses) == (info.hits + 2, info.misses)
