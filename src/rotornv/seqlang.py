"""Textual pulse-sequence language and its compiler to rotation-locked timelines.

The language is deliberately small and line-based: sequences in this
experiment are short and fixed-shape, and good diagnostics beat
expressiveness.  One statement per line (or several separated by ``;``),
``#`` starts a comment.  Times are anchored to the rotation trigger edge,
which is the implicit t = 0 of every program; an explicit ``trigger``
statement may appear at most once.

Statements::

    param tau = 60 us          # named quantity (units: ns, us, MHz, deg)
    trigger                    # optional, marks the single anchor
    mw pi at 0us               # target-angle pulse, duration from calibration
    mw pi/2 at tau phase 90deg
    mw 0.25us at 5us           # explicit-duration pulse
    wait 150us                 # advance the cursor
    laser 2us at 300us

A statement without ``at`` is placed at the running cursor; ``at`` times and
durations may reference a previously defined ``param``.  Parsing either
returns a complete program or raises with the full diagnostic list (line and
column positions); partial programs are never produced.

:class:`TimelineBatch` is the one compiled form.  One compiler builds it
for a program (a batch of one) and for a Rabi or finite-pulse echo scan (N
timelines of one shape); the ideal echo (:func:`ideal_echo_timeline`),
whose rotations take no time, builds its batch directly.  The compiler
resolves ``pi``/``pi/2`` targets to durations 1/(2 Omega) and 1/(4 Omega)
using a per-angle Rabi calibration table, shifts every event by the
trigger-to-strobe delay ``t_phi`` and validates channel-wise non-overlap.
Event times are plain floats in microseconds; compilation is a fixed
arithmetic path, so identical inputs produce identical timelines.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from . import geometry
from .config import FieldConfig, RotorGeometry, check_value
from .errors import CompileError, Diagnostic, ParseError, ValidationError
from .spindyn import ORDER_TOL_US, TARGET_FRACTIONS

# the keys that set a calibrated pulse's length, for the refusals a weak coupling meets
PULSE_LENGTH_KEYS = ("calibrated pulse lengths follow protocol.base_rabi_mhz and the coupling that "
                     "geometry.theta_nv_deg, geometry.phi_nv0_deg and field.mw_dir set")

# A coupling |n x m| at or below this counts as zero.  n and m are unit
# vectors, so where the NV axis passes the drive direction |n x m| rounds to
# ~1e-16 to 1e-15 instead of 0, and the table would scale that rounding up to
# a Rabi frequency.  1e-12 lies far above the rounding, and it is about the
# weakest coupling that turns a pi pulse within the longest rotation: at the
# bounds of protocol.base_rabi_mhz and geometry.f_rot_hz (1e3 MHz, 1e-3 Hz),
# 1 / (2 * 1e3 MHz * 5e-13) = 1e9 us is one turn.
MIN_COUPLING = 1e-12
TIME_UNITS = {"ns": 1e-3, "us": 1.0}  # to microseconds
ALL_UNITS = ("ns", "us", "MHz", "deg")

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


# ---------------------------------------------------------------------------
# program representation


@dataclass(frozen=True)
class Quantity:
    value: float
    unit: str

    def __str__(self) -> str:
        return f"{self.value!r}{self.unit}"

    @property
    def is_time(self) -> bool:
        return self.unit in TIME_UNITS

    def to_us(self) -> float:
        if not self.is_time:
            raise ValidationError(f"quantity {self} is not a time")
        return self.value * TIME_UNITS[self.unit]

    def to_rad(self) -> float:
        if self.unit != "deg":
            raise ValidationError(f"quantity {self} is not an angle")
        return math.radians(self.value)


# A duration/time slot holds either a literal Quantity or a param name.
Operand = Union[Quantity, str]


@dataclass(frozen=True)
class TriggerStmt:
    def __str__(self) -> str:
        return "trigger"


@dataclass(frozen=True)
class WaitStmt:
    duration: Operand

    def __str__(self) -> str:
        return f"wait {self.duration}"


@dataclass(frozen=True)
class LaserStmt:
    duration: Operand
    at: Optional[Operand] = None

    def __str__(self) -> str:
        s = f"laser {self.duration}"
        if self.at is not None:
            s += f" at {self.at}"
        return s


@dataclass(frozen=True)
class MwStmt:
    target: Optional[str] = None  # "pi" | "pi/2"
    duration: Optional[Operand] = None
    phase: Optional[Operand] = None
    at: Optional[Operand] = None

    def __str__(self) -> str:
        s = f"mw {self.target if self.target else self.duration}"
        if self.phase is not None:
            s += f" phase {self.phase}"
        if self.at is not None:
            s += f" at {self.at}"
        return s


Statement = Union[TriggerStmt, WaitStmt, LaserStmt, MwStmt]


@dataclass(frozen=True)
class SequenceProgram:
    params: tuple[tuple[str, Quantity], ...]
    statements: tuple[Statement, ...]

    @property
    def param_map(self) -> dict[str, Quantity]:
        return dict(self.params)

    def __str__(self) -> str:
        lines = [f"param {name} = {q.value!r} {q.unit}" for name, q in self.params]
        lines += [str(s) for s in self.statements]
        return "\n".join(lines)


def format_program(prog: SequenceProgram) -> str:
    """Canonical text form; ``parse_sequence(format_program(p)) == p``."""
    return str(prog)


# ---------------------------------------------------------------------------
# parser


_Token = namedtuple("_Token", "text line col")
_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")
# what a bare 'wait', 'laser' or 'mw' lacks; the operand clauses and what each requires
_OPERAND_OF = {"wait": "a duration", "laser": "a duration",
               "mw": "a target angle (pi, pi/2) or a duration"}
_CLAUSES = {"at": "a time", "phase": "an angle"}


class _Parser:
    """The params, statements and diagnostics of one program, read statement by statement."""

    def __init__(self):
        self.diags: list[Diagnostic] = []
        self.params: dict[str, Quantity] = {}
        self.statements: list[Statement] = []

    def error(self, msg: str, tok: _Token) -> None:
        self.diags.append(Diagnostic(msg, tok.line, tok.col))

    def _quantity(self, toks: list[_Token], i: int, ctx: str):
        """Parse a literal quantity starting at toks[i]; returns (Quantity|None, next_i)."""
        tok = toks[i]
        m = _NUMBER_RE.match(tok.text)
        if not m:
            self.error(f"expected a number in {ctx}, got {tok.text!r}", tok)
            return None, i + 1
        num_text = m.group(0)
        unit = tok.text[len(num_text):]
        if unit == "" and i + 1 < len(toks) and toks[i + 1].text in ALL_UNITS:
            i += 1  # the unit is the following token
            unit = toks[i].text
        q = Quantity(float(num_text), unit) if unit in ALL_UNITS else None
        if unit == "":
            why = f"missing unit on {num_text!r} in {ctx} (expected one of {', '.join(ALL_UNITS)})"
        elif q is None:
            why = f"unknown unit {unit!r} in {ctx}"
        elif not math.isfinite(q.value):
            why = f"number {num_text!r} in {ctx} is out of range"
        elif q.is_time and q.value < 0:
            why = f"negative duration {q} in {ctx}"
        else:
            return q, i + 1
        self.error(why, tok)
        return None, i + 1

    def _operand(self, toks: list[_Token], i: int, ctx: str, kw: _Token):
        """Literal or param name at toks[i] for keyword ``kw``; returns (operand|None, next_i).

        The operand of a 'phase' keyword must be an angle, a wrong unit being
        reported at the keyword; any other must be a time, a wrong unit being
        reported at the operand's last token.
        """
        tok = toks[i]
        named = _NAME_RE.match(tok.text) and tok.text not in ALL_UNITS
        if named and tok.text not in self.params:
            self.error(f"unknown parameter {tok.text!r} in {ctx}", tok)
            return None, i + 1
        q, i = (self.params[tok.text], i + 1) if named else self._quantity(toks, i, ctx)
        if q is None:
            return None, i
        if kw.text == "phase" and q.unit != "deg":
            if named:
                self.error(f"phase parameter {tok.text!r} must be in deg", kw)
            else:
                self.error(f"phase must be in deg, got {q.unit!r}", kw)
        elif kw.text != "phase" and not q.is_time:
            if named:
                self.error(f"parameter {tok.text!r} has unit {q.unit}, expected a time, in {ctx}", tok)
            else:
                self.error(f"expected a time in {ctx}, got unit {q.unit!r}", toks[i - 1])
        else:
            return (tok.text if named else q), i
        return None, i

    def _clauses(self, toks: list[_Token], i: int, ctx: str):
        """Trailing 'at <time>' and 'phase <angle>' clauses from toks[i]; returns (at, phase)."""
        read = dict.fromkeys(_CLAUSES)
        while i < len(toks):
            tok = toks[i]
            if tok.text not in _CLAUSES:
                self.error(f"unexpected token {tok.text!r} after {ctx}", tok)
                i += 1
            elif i + 1 == len(toks):
                self.error(f"{tok.text!r} requires {_CLAUSES[tok.text]}", tok)
                break
            else:
                read[tok.text], i = self._operand(toks, i + 1, f"{tok.text!r} of {ctx}", tok)
        return read["at"], read["phase"]

    def statement(self, toks: list[_Token]) -> None:
        head = toks[0]
        kw = head.text
        if kw == "param":
            if len(toks) < 4 or toks[2].text != "=":
                self.error("param syntax is: param <name> = <value><unit>", head)
                return
            name = toks[1].text
            if not _NAME_RE.match(name):
                self.error(f"invalid parameter name {name!r}", toks[1])
                return
            q, i = self._quantity(toks, 3, f"param {name!r}")
            if i < len(toks):
                self.error(f"unexpected token {toks[i].text!r} after param", toks[i])
            if q is not None and name in self.params:
                self.error(f"duplicate parameter {name!r}", toks[1])
            elif q is not None:
                self.params[name] = q
        elif kw == "trigger":
            if len(toks) > 1:
                self.error("trigger takes no arguments", toks[1])
            if TriggerStmt() in self.statements:
                self.error("duplicate trigger anchor (exactly one allowed)", head)
            else:
                self.statements.append(TriggerStmt())
        elif kw not in _OPERAND_OF:
            self.error(f"unknown keyword {kw!r}", head)
        elif len(toks) < 2:
            self.error(f"{kw} requires {_OPERAND_OF[kw]}", head)
        elif kw == "wait":
            dur, i = self._operand(toks, 1, kw, head)
            if i < len(toks):
                self.error(f"unexpected token {toks[i].text!r} after wait", toks[i])
            if dur is not None:
                self.statements.append(WaitStmt(dur))
        elif kw == "laser":
            dur, i = self._operand(toks, 1, kw, head)
            at, phase = self._clauses(toks, i, kw)
            if phase is not None:
                self.error("laser does not take a phase", head)
            if dur is not None:
                self.statements.append(LaserStmt(dur, at))
        else:  # mw: a target angle, or a duration; a failed duration reads no clauses
            target = toks[1].text if toks[1].text in TARGET_FRACTIONS else None
            dur, i = (None, 2) if target else self._operand(toks, 1, kw, head)
            if target or dur is not None:
                at, phase = self._clauses(toks, i, kw)
                self.statements.append(MwStmt(target, dur, phase, at))


def parse_sequence(text: str) -> SequenceProgram:
    """Parse program text; raises :class:`ParseError` with all diagnostics on failure."""
    if not isinstance(text, str):
        raise ParseError([Diagnostic("input must be UTF-8 text")])
    parser = _Parser()
    for line_no, line in enumerate(text.splitlines(), start=1):
        col = 0
        for seg in line.split("#", 1)[0].split(";"):
            toks = [_Token(m.group(0), line_no, col + m.start() + 1) for m in re.finditer(r"\S+", seg)]
            col += len(seg) + 1
            if toks:
                parser.statement(toks)
    if not parser.statements and not parser.params:
        parser.diags.append(Diagnostic("empty program"))
    if parser.diags:
        raise ParseError(parser.diags)
    return SequenceProgram(tuple(parser.params.items()), tuple(parser.statements))


# ---------------------------------------------------------------------------
# calibration


@dataclass(frozen=True)
class CalibrationTable:
    """Effective Rabi frequency (MHz) vs rotation angle (deg, in [0, 360)).

    Lookup interpolates linearly in Omega with periodic wraparound; the
    sampled coupling is smooth, so dense tables converge quickly.
    """

    angles_deg: tuple[float, ...]
    rabi_mhz: tuple[float, ...]

    def __post_init__(self):
        if len(self.angles_deg) != len(self.rabi_mhz) or not self.angles_deg:
            raise ValidationError("calibration table must pair angles with frequencies")
        if any(not (0.0 <= a < 360.0) for a in self.angles_deg):
            raise ValidationError("calibration angles must lie in [0, 360)")
        if any(not r > 0 for r in self.rabi_mhz):
            raise ValidationError("calibrated Rabi frequencies must be positive")

    @cached_property
    def _periodic(self) -> tuple[np.ndarray, np.ndarray]:
        """The table sorted by angle and closed by its first entry at +360 deg."""
        xs = np.asarray(self.angles_deg)
        ys = np.asarray(self.rabi_mhz)
        order = np.argsort(xs)
        xs, ys = xs[order], ys[order]
        return np.concatenate([xs, [xs[0] + 360.0]]), np.concatenate([ys, [ys[0]]])

    def rabi_at(self, angle_deg):
        """Rabi frequency at ``angle_deg``, a scalar or an array of angles."""
        a = np.mod(np.asarray(angle_deg, dtype=float), 360.0)
        out = np.interp(a, *self._periodic)
        return float(out) if np.ndim(out) == 0 else out


def pulse_angle_deg(g: RotorGeometry, start_us):
    """Rotation angle in [0, 360) deg at program time ``start_us``; broadcasts."""
    out = np.mod(360.0 * g.f_rot_hz * np.asarray(start_us, dtype=float) * 1e-6, 360.0)
    return float(out) if np.ndim(out) == 0 else out


def build_calibration(
    g: RotorGeometry,
    f: FieldConfig,
    base_rabi_mhz: float,
    n_angles: int,
) -> CalibrationTable:
    """Per-angle Rabi table: base_rabi * coupling(angle) / max coupling.

    The best-coupled sampled angle gets exactly ``base_rabi_mhz``.  A pulse
    is untunable at a coupling at or below ``MIN_COUPLING``: the first such
    angle is refused, counting those angles and naming the keys that set them.
    """
    check_value("protocol.n_cal_angles", n_angles)
    check_value("protocol.base_rabi_mhz", base_rabi_mhz)
    angles = np.arange(n_angles) * (360.0 / n_angles)
    times_s = angles / (360.0 * g.f_rot_hz)
    coupling = np.atleast_1d(geometry.mw_coupling(g, f, times_s))
    dead = coupling <= MIN_COUPLING
    if dead.any():
        raise ValidationError(
            f"zero microwave coupling at rotation angle {angles[np.argmax(dead)]:.3f} deg ({int(dead.sum())} of "
            f"{n_angles} sampled angles): untunable pulse; tilt field.mw_dir or geometry.theta_nv_deg"
        )
    rabi = base_rabi_mhz * coupling / np.max(coupling)
    return CalibrationTable(tuple(angles.tolist()), tuple(rabi.tolist()))


# ---------------------------------------------------------------------------
# timeline


@dataclass(frozen=True, eq=False)
class TimelineBatch:
    """N compiled timelines of one shape, one per scan point, held as (K, N) arrays.

    Row k of ``start_us``, ``duration_us``, ``rabi_mhz``, ``phase_rad`` and
    ``angle_deg`` (the rotation angle a pulse was calibrated at) is event k
    of every timeline; ``channels`` and ``targets`` label the K events, which
    are listed in time order.  Construction refuses a negative or
    non-finite time, a microwave event without a finite positive Rabi
    frequency and finite phase, and an overlap on a channel, naming the
    events and the overlap.  Events on different channels may overlap
    here: a program with a laser across a pulse still compiles, and
    :func:`spindyn.simulate_sequence` refuses it.
    """

    channels: tuple[str, ...]
    targets: tuple[Optional[str], ...]
    start_us: np.ndarray
    duration_us: np.ndarray
    rabi_mhz: np.ndarray
    phase_rad: np.ndarray
    angle_deg: np.ndarray

    def __post_init__(self):
        start, dur = self.start_us, self.duration_us
        self._refuse(
            ~(np.isfinite(start) & np.isfinite(dur) & (start >= 0) & (dur >= 0)),
            "has a negative or non-finite time",
        )
        mw = np.array([ch == "mw" for ch in self.channels], dtype=bool).reshape(-1, 1)
        driven = (self.rabi_mhz > 0) & np.isfinite(self.rabi_mhz) & np.isfinite(self.phase_rad)
        self._refuse(mw & ~driven, "needs a finite positive Rabi frequency and a finite phase")
        for channel in dict.fromkeys(self.channels):
            rows = [k for k, ch in enumerate(self.channels) if ch == channel]
            for a, b in zip(rows, rows[1:]):
                hit = start[b] < start[a] + dur[a] - ORDER_TOL_US
                if hit.any():
                    i = int(np.argmax(hit))
                    calibrated = self.targets[a] or self.targets[b]
                    lengths = f"; {PULSE_LENGTH_KEYS}" if calibrated else ""
                    raise ValidationError(
                        f"overlapping {channel} events: {self.describe_overlap(a, b, i)}{lengths}"
                    )

    def _refuse(self, bad: np.ndarray, why: str) -> None:
        """Raise naming the first event (k, i) where the (K, N) mask ``bad`` is set."""
        if bad.any():
            k, i = np.argwhere(bad)[0]
            raise ValidationError(f"event {self.describe(k, i)} {why}")

    def describe(self, k: int, i: int) -> str:
        """Event ``k`` of timeline ``i`` as ``channel (target) [start, end] us``."""
        target = f" ({self.targets[k]})" if self.targets[k] else ""
        start = float(self.start_us[k, i])
        end = start + float(self.duration_us[k, i])
        return f"{self.channels[k]}{target} [{start:.6f}, {end:.6f}] us"

    def describe_overlap(self, a: int, b: int, i: int) -> str:
        """Event ``b`` of timeline ``i`` starting before ``a`` ends, by how much: their times can print equal."""
        overlap = float(self.start_us[a, i] + self.duration_us[a, i] - self.start_us[b, i])
        return f"{self.describe(b, i)} starts {overlap:.3g} us before {self.describe(a, i)} ends"

    def format_records(self) -> str:
        """The first timeline, a compiled program's only one, as text: one line per event."""
        lines = ["# channel start_ns duration_ns payload"]
        for k, channel in enumerate(self.channels):
            line = f"{channel} {self.start_us[k, 0] * 1e3:.9g} {self.duration_us[k, 0] * 1e3:.9g}"
            if channel == "mw":
                line += (
                    f" rabi_mhz={self.rabi_mhz[k, 0]:.9g}"
                    f" phase_rad={self.phase_rad[k, 0]:.9g}"
                    f" target={self.targets[k] or '-'}"
                    f" angle_deg={self.angle_deg[k, 0]:.9g}"
                )
            lines.append(line)
        return "\n".join(lines)


def _resolve_us(operand: Operand, params: dict[str, Quantity]) -> float:
    q = params[operand] if isinstance(operand, str) else operand
    return q.to_us()


def _resolve_rad(operand: Optional[Operand], params: dict[str, Quantity]) -> float:
    if operand is None:
        return 0.0
    q = params[operand] if isinstance(operand, str) else operand
    return q.to_rad()


def _calibrate(g: RotorGeometry, cal: CalibrationTable, start_us, target, duration_us):
    """Rotation angle and Rabi frequency at a pulse start, and the pulse duration.

    A target pulse lasts its turn fraction over Omega; an explicit pulse keeps
    ``duration_us``.  Broadcasts over ``start_us``.  A :class:`CalibrationTable`'s
    Omega is positive; :class:`TimelineBatch` refuses any other calibration's zero.
    """
    angle = pulse_angle_deg(g, start_us)
    omega = cal.rabi_at(angle)
    if target is not None:
        duration_us = TARGET_FRACTIONS[target] / omega
    return angle, omega, duration_us


def _loses_duration(start, duration) -> bool:
    """At a large enough time, start + duration - start loses the duration to rounding."""
    return bool(np.any(np.abs(start + duration - start - duration) > 1e-9))


def _check_time(stmt, start: float, duration: float) -> None:
    """Refuse a statement at a program time too large to keep its duration to 1e-9 us."""
    if _loses_duration(start, duration):
        raise CompileError(
            [Diagnostic(f"'{stmt}' at {start:g} us: the time is too large to keep its duration to 1e-9 us")]
        )


def _compile_batch(
    g: RotorGeometry, cal: CalibrationTable, n: int, rows, t_phi_us=0.0, period_hint=""
) -> TimelineBatch:
    """Compile N programs of one shape into a batch: the one timeline compiler.

    ``rows`` lists the events as (channel, target, start_us, duration_us,
    phase_rad) in time order, each value a scalar or an (N,) array and a
    target pulse's duration None.  Pulses are calibrated at program time,
    then ``t_phi_us`` translates every event.  An event that starts more
    than one rotation period after t_phi is refused, the message ending in
    ``period_hint``; None permits it.
    """
    start, dur, rabi, phase, angle = np.zeros((5, len(rows), n))
    for k, (channel, target, at, duration, phi) in enumerate(rows):
        start[k], phase[k] = at, phi
        if channel == "mw":
            angle[k], rabi[k], duration = _calibrate(g, cal, at, target, duration)
        dur[k] = duration
    check_value("strobe.t_phi_us", t_phi_us, "--t-phi (t_phi_us)")
    moved = start + t_phi_us
    if t_phi_us > 0.0 and _loses_duration(moved, dur):
        why = "is too large for every event to keep its duration"
        raise CompileError([Diagnostic(f"--t-phi (t_phi_us) = {t_phi_us:g} us {why} to 1e-9 us")])
    try:
        batch = TimelineBatch(
            tuple(r[0] for r in rows), tuple(r[1] for r in rows), moved, dur, rabi, phase, angle
        )
        if period_hint is not None:
            batch._refuse(
                moved > g.t_rot_us + t_phi_us + 1e-9,
                f"starts after one rotation period ({g.t_rot_us:.3f} us at geometry.f_rot_hz){period_hint}",
            )
    except ValidationError as exc:
        raise CompileError([Diagnostic(str(exc))]) from exc
    return batch


def compile_timeline(
    prog: SequenceProgram,
    g: RotorGeometry,
    cal: CalibrationTable,
    t_phi_us: float = 0.0,
    allow_multi_period: bool = False,
) -> TimelineBatch:
    """Compile a program against a Rabi calibration into a batch of one timeline.

    The statements resolve to events at program time (cursor, params and
    phases); :func:`_compile_batch` then calibrates them, translates them by
    ``t_phi_us`` and checks them.  Overlap on a channel is a compile error
    that names both events.
    """
    params = prog.param_map
    cursor = 0.0
    rows = []
    for stmt in prog.statements:
        if isinstance(stmt, TriggerStmt):
            continue
        if isinstance(stmt, WaitStmt):
            wait = _resolve_us(stmt.duration, params)
            _check_time(stmt, cursor, wait)
            cursor += wait
            continue
        start = cursor if stmt.at is None else _resolve_us(stmt.at, params)
        if isinstance(stmt, LaserStmt):
            duration = _resolve_us(stmt.duration, params)
            rows.append(("laser", None, start, duration, 0.0))
        else:  # MwStmt; the cursor needs a target pulse's calibrated duration
            explicit = None if stmt.target else _resolve_us(stmt.duration, params)
            duration = _calibrate(g, cal, start, stmt.target, explicit)[2]
            rows.append(("mw", stmt.target, start, explicit, _resolve_rad(stmt.phase, params)))
        _check_time(stmt, start, duration)
        cursor = start + duration
    rows.sort(key=lambda row: (row[2], row[0]))
    hint = None if allow_multi_period else "; pass allow_multi_period to permit this"
    return _compile_batch(g, cal, 1, rows, t_phi_us, hint)


# ---------------------------------------------------------------------------
# canned sequences


def ideal_echo_timeline(tau_us, t_rot_us: float, t_pulse_us: float = 2.0) -> TimelineBatch:
    """pi/2 - tau/2 - pi - tau/2 - pi/2 with instantaneous calibrated rotations, one per tau.

    Zero-duration target events: the simulator applies the exact target
    rotation, which is the calibrated-pulse model with pulse-length effects
    switched off.  The readout laser fires when the NV completes the turn.
    """
    tau = np.atleast_1d(np.asarray(tau_us, dtype=float))
    zero = np.zeros_like(tau)
    return TimelineBatch(
        ("mw", "mw", "mw", "laser"),
        ("pi/2", "pi", "pi/2", None),
        np.array([zero, tau / 2.0, tau, zero + t_rot_us]),
        np.array([zero, zero, zero, zero + t_pulse_us]),
        np.array([zero + 1.0, zero + 1.0, zero + 1.0, zero]),
        np.zeros((4, tau.size)),
        np.zeros((4, tau.size)),
    )


def echo_pulse_starts(tau_us, g: RotorGeometry, cal: CalibrationTable):
    """Starts of a finite-pulse echo's pi pulse and last pi/2 pulse; broadcasts over tau.

    The pi pulse is centred at tau/2 and the last pi/2 pulse ends at tau;
    each duration comes from the calibration at its start angle.  A tau too
    short for the pulses (tau <= 0 among them) is refused.
    """
    tau = np.asarray(tau_us, dtype=float)

    def dur_at(start_us, target):
        return _calibrate(g, cal, start_us, target, None)[2]

    # durations depend weakly on the start angle; a few passes settle them
    start_pi, start_last = tau / 2.0, tau
    for _ in range(3):
        d_pi = dur_at(start_pi, "pi")
        d_last = dur_at(start_last, "pi/2")
        start_pi = tau / 2.0 - d_pi / 2.0
        start_last = tau - d_last
    short = start_pi < dur_at(0.0, "pi/2")
    if np.any(short):
        bad = float(np.atleast_1d(tau)[np.atleast_1d(short)][0])
        raise ValidationError(f"tau_us (--tau) {bad:g} us is too short for its echo pulses; {PULSE_LENGTH_KEYS}")
    return start_pi, start_last


def echo_program(
    tau_us: float,
    g: RotorGeometry,
    cal: CalibrationTable,
    t_pulse_us: float = 2.0,
) -> str:
    """Program text for a finite-pulse echo: pi centred at tau/2, last pi/2 ending at tau."""
    start_pi, start_last = echo_pulse_starts(tau_us, g, cal)
    return "\n".join(
        [
            "mw pi/2 at 0us",
            f"mw pi at {float(start_pi)!r}us",
            f"mw pi/2 at {float(start_last)!r}us",
            f"laser {float(t_pulse_us)!r}us at {float(g.t_rot_us)!r}us",
        ]
    )


def rabi_program(
    duration_us: float,
    g: RotorGeometry,
    t_pulse_us: float = 2.0,
    pulse_at_us: float = 0.0,
    prepend_pi: bool = False,
) -> str:
    """Program text for a Rabi scan point: one variable pulse, then strobed readout."""
    lines = []
    if prepend_pi:
        lines.append("mw pi at 0us")
    lines.append(f"mw {float(duration_us)!r}us at {float(pulse_at_us)!r}us")
    lines.append(f"laser {float(t_pulse_us)!r}us at {float(g.t_rot_us)!r}us")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# batched canned sequences: whole scans without program text


def rabi_batch(
    durations_us,
    g: RotorGeometry,
    cal: CalibrationTable,
    t_pulse_us: float = 2.0,
    pulse_at_us: float = 0.0,
    prepend_pi: bool = False,
) -> TimelineBatch:
    """The compiled timelines of :func:`rabi_program`, one per duration."""
    d = np.atleast_1d(np.asarray(durations_us, dtype=float))
    rows = [("mw", "pi", 0.0, None, 0.0)] if prepend_pi else []
    rows += [("mw", None, pulse_at_us, d, 0.0), ("laser", None, g.t_rot_us, t_pulse_us, 0.0)]
    return _compile_batch(g, cal, d.size, rows)


def echo_batch(
    tau_us, g: RotorGeometry, cal: CalibrationTable, t_pulse_us: float = 2.0
) -> TimelineBatch:
    """The compiled timelines of :func:`echo_program`, one per tau."""
    tau = np.atleast_1d(np.asarray(tau_us, dtype=float))
    start_pi, start_last = echo_pulse_starts(tau, g, cal)
    rows = [
        ("mw", "pi/2", 0.0, None, 0.0),
        ("mw", "pi", start_pi, None, 0.0),
        ("mw", "pi/2", start_last, None, 0.0),
        ("laser", None, g.t_rot_us, t_pulse_us, 0.0),
    ]
    return _compile_batch(g, cal, tau.size, rows)
