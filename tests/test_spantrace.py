"""The benchmark's span tracer still finds and wraps the functions it names.

The tracer looks each traced function up by name on its layer's module and
rebinds it wherever the package holds it, so a renamed or moved function
breaks the benchmark's per-layer split without failing any other test.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from rotornv import estimation, imaging, pipeline
from rotornv.config import config_from_dict
from rotornv.estimation import EchoDataset
from rotornv.imaging import ScanGrid, render_image

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


@functools.cache
def _load_spantrace():
    """The tracer module, loaded by path; its dataclasses need it in sys.modules.

    `Tracer.install` finds each traced layer in sys.modules, and no module
    imported above loads `rotornv.cli`, so every layer is imported here.
    """
    spec = importlib.util.spec_from_file_location("spantrace", SPANTRACE)
    module = sys.modules["spantrace"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for layer in module.TRACED:
        importlib.import_module(f"rotornv.{layer}")
    return module


def test_every_traced_name_resolves():
    for layer, names in _load_spantrace().TRACED.items():
        module = importlib.import_module(f"rotornv.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_lm_spans_nest_under_the_spot_and_rabi_fits():
    # the demo image, strobed at the trigger edge, and a clean Rabi scan
    cfg = config_from_dict({"strobe": {"t_phi_us": 0.0}})
    grid = ScanGrid(x_range_um=(7.0, 12.5), y_range_um=(-2.0, 5.2), step_um=0.15)
    emitters = pipeline.default_emitters(cfg)
    image = render_image(grid, emitters, cfg.geometry, cfg.strobe, seed=1)
    center = pipeline.spot_centers_um(cfg, emitters, False)[0]
    t = np.linspace(0.0, 1.1, 40)
    rabi = EchoDataset(t, 0.9 - 0.25 * np.sin(np.pi * 3.6 * t) ** 2, np.full(t.size, 0.02))

    tracer = _load_spantrace().Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            imaging.fit_spot_width(image, center)
            estimation.fit_rabi(rabi)
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    for fit in ("fit_spot_width", "fit_rabi"):
        assert fit in names
        fit_span = names.index(fit)
        assert any(
            span.name == "levenberg_marquardt" and span.parent == fit_span for span in tracer.spans
        ), fit
