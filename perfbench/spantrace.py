"""Span tracer that instruments rotornv from outside the package.

`Tracer.install` rebinds each function named in `TRACED` in every rotornv
module namespace that holds it, so a call is recorded whichever binding it
goes through (`cli.fit_echo`, `imaging.levenberg_marquardt`, ...).  Spans
(name, layer, start, end, parent, operation id) are kept in memory; self
time is a span's duration minus the duration of its direct children, so a
nested call such as `window_response` -> `readout_response` is never counted
twice.  `geometry` is not wrapped: it is too cheap to time on its own and its
time stays with its callers.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

# layer -> public functions wrapped in the traced run
TRACED = {
    "cli": ("main",),
    "config": ("config_from_dict", "load_config", "apply_overrides"),
    "pipeline": (
        "simulate_echo_scan",
        "simulate_rabi_scan",
        "simulate_image",
        "window_response",
        "read_echo_dataset",
        "format_dataset",
        "format_image",
    ),
    "seqlang": (
        "parse_sequence",
        "compile_timeline",
        "build_calibration",
        "ideal_echo_timeline",
        "echo_program",
        "rabi_program",
    ),
    "spindyn": ("simulate_sequence", "c13_envelope"),
    "photophysics": (
        "readout_response",
        "expected_window_counts",
        "simulate_readout",
        "state_contrast",
        "optimal_turn_on",
    ),
    "estimation": ("fit_echo", "fit_rabi", "levenberg_marquardt"),
    "imaging": ("render_image", "fit_spot_width"),
}

ROOT = "bench.op"


@dataclass
class Span:
    name: str
    layer: str
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


def _summarise(name: str, result) -> dict:
    """Counters taken from a traced call's return value."""
    if name == "levenberg_marquardt":
        return {"iterations": result.iterations, "cost": result.cost, "converged": result.converged}
    if name in ("fit_echo", "fit_rabi"):
        return {"converged": result.converged}
    if name == "render_image":
        return {"pixels": int(result.counts.size)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _enter(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, parent, self._op, time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """The root span of one benchmark operation."""
        self._op = op_id
        idx = self._enter(ROOT, "bench")
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:  # outside an operation: reference values, checks
                return fn(*args, **kwargs)
            idx = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[idx].info["error"] = type(exc).__name__
                raise
            finally:
                tracer._exit(idx)
            tracer.spans[idx].info.update(_summarise(name, result))
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function at each rotornv module binding."""
        modules = [m for n, m in sys.modules.items() if n == "rotornv" or n.startswith("rotornv.")]
        for layer, names in TRACED.items():
            owner = sys.modules[f"rotornv.{layer}"]
            for name in names:
                original = getattr(owner, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own
