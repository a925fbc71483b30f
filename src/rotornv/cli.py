"""Command-line front end.

Subcommands: simulate-rabi, simulate-echo, simulate-image, simulate-readout,
compile-seq, fit, dump-config.  The experiment configuration comes from
``--config`` (or the ROTORNV_CONFIG environment variable) with
``--set section.key=value`` overrides (the ``--shots`` of a scan or a
readout trace sets ``protocol.shots_per_point``).  A ``simulate-*`` file's
header carries the config hash and seed (``fit`` and ``compile-seq`` output
carry neither; ``dump-config`` prints the config), and identical config +
seed reproduce files byte for byte.

Exit codes: 0 success, 2 validation/usage error, 3 runtime failure,
4 fit did not converge.  With ROTORNV_DEBUG=1 in the environment a runtime
failure (exit 3) also prints its traceback.  :func:`main` loads the
effective config once, as ``args.cfg``, and a handler returns its
:class:`Output`, which :func:`main` writes once; a file that cannot be read
or written exits 2, naming its flag.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
import traceback
from typing import NamedTuple

import numpy as np

from . import pipeline
from .config import DOMAINS, PATH_ERRORS, ExperimentConfig, apply_overrides, check_value, config_from_dict
from .config import load_config, read_text
from .errors import FitError, SequenceError, ValidationError
from .imaging import Emitter, EmitterSet

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_NOT_CONVERGED = 4

CONFIG_ENV_VAR = "ROTORNV_CONFIG"
DEBUG_ENV_VAR = "ROTORNV_DEBUG"


class Output(NamedTuple):
    """What a subcommand made: the text for ``-o``, its exit code and a report for stderr."""

    text: str
    code: int = EXIT_OK
    report: str = ""


def _load_effective_config(args) -> ExperimentConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    flag = "--config" if args.config else CONFIG_ENV_VAR
    cfg = load_config(path, flag) if path else config_from_dict({})
    # one pass; --seed and then --shots come last, so they win over --set
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    shots = getattr(args, "shots_per_point", None)
    if shots is not None:
        overrides.append(f"protocol.shots_per_point={shots}")
    return apply_overrides(cfg, overrides) if overrides else cfg


def _write(path: str, text: str) -> None:
    """Write ``text`` to the file ``path`` ('-' = stdout), refusing a path it cannot write."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except PATH_ERRORS as exc:
        raise ValidationError(f"--output {path}: {exc.strerror}") from exc


def _parse_scan(text: str, key: str) -> np.ndarray:
    """Scan values of the DOMAINS row ``key``: either 'start:stop:n' (inclusive linspace) or a comma list.

    Every refusal names the row's flag; each value given must lie in its domain.
    """
    where = f"{DOMAINS[key].flag} {text!r}"
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValidationError(f"{where} must be start:stop:n or a comma list")
    try:
        if len(parts) == 3:
            values = [float(parts[0]), float(parts[1])]
            n = int(parts[2])
        else:
            values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    for v in values:
        check_value(key, v)
    if len(parts) == 1:
        return np.array(values)
    if n < 1:
        raise ValidationError(f"{where}: point count must be >= 1")
    if n > pipeline.MAX_SCAN_POINTS:
        raise ValidationError(f"{where}: {n} points, more than {pipeline.MAX_SCAN_POINTS}")
    return np.linspace(values[0], values[1], n)


def _parse_emitters(text: str, default_cps: float) -> EmitterSet:
    """--emitters 'x,y[,cps];x,y[,cps]'; cps defaults to ``default_cps``."""
    ems = []
    for part in text.split(";"):
        try:
            vals = [float(v) for v in part.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--emitters {part!r}: {exc}") from exc
        if len(vals) not in (2, 3):
            raise ValidationError(f"--emitters {part!r} must be x,y or x,y,cps")
        cps = vals[2] if len(vals) == 3 else default_cps
        ems.append(Emitter((vals[0], vals[1]), cps))
    return EmitterSet(tuple(ems))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate_rabi(args) -> Output:
    durations = _parse_scan(args.durations, "durations_us")
    data, meta = pipeline.simulate_rabi_scan(args.cfg, durations, pulse_at=args.pulse_at)
    return Output(pipeline.format_scan(data, meta, args.cfg))


def cmd_simulate_echo(args) -> Output:
    taus = _parse_scan(args.tau, "tau_us")
    data, meta = pipeline.simulate_echo_scan(args.cfg, taus, ideal_pulses=not args.finite_pulses)
    return Output(pipeline.format_scan(data, meta, args.cfg))


def cmd_simulate_readout(args) -> Output:
    trace, meta = pipeline.simulate_readout_trace(args.cfg, args.initial)
    return Output(pipeline.format_scan(trace, meta, args.cfg))


def cmd_simulate_image(args) -> Output:
    cps = args.cfg.beam.peak_counts_stationary_cps
    image, summaries = pipeline.simulate_image(
        args.cfg, (args.x_min, args.x_max), (args.y_min, args.y_max), args.step, args.dwell_ms, args.plane,
        emitters=_parse_emitters(args.emitters, cps) if args.emitters else None, stationary=args.stationary,
    )
    text = pipeline.format_image(image, args.cfg, csv=args.format == "csv")
    return Output(text, report=pipeline.format_spots(summaries))


def cmd_compile_seq(args) -> Output:
    text = read_text(args.seq, "seq", stdin=True)
    timeline = pipeline.compile_program(
        args.cfg, text, t_phi_us=args.t_phi, allow_multi_period=args.allow_multi_period
    )
    return Output(timeline.format_records() + "\n")


def cmd_fit(args) -> Output:
    data, _meta = pipeline.read_echo_dataset(args.dataset)
    try:
        pipeline.check_fit_axis(args.cfg, data, args.model)
    except ValidationError as exc:
        raise ValidationError(f"{args.dataset}: {exc}") from None
    result = pipeline.fit_dataset(args.cfg, data, args.model, b_max=args.b_max, max_iter=args.max_iter)
    return Output(result.as_text() + "\n", EXIT_OK if result.converged else EXIT_NOT_CONVERGED)


def cmd_dump_config(args) -> Output:
    return Output(args.cfg.dump_json() + "\n")


# ---------------------------------------------------------------------------
# parser wiring


def _common_arguments(p) -> None:
    p.add_argument("--config", help=f"config JSON path (or ${CONFIG_ENV_VAR})")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")


def _shots_argument(p) -> None:
    p.add_argument("--shots", type=int, default=None, dest="shots_per_point",
                   help="repetitions per point (sets protocol.shots_per_point)")


def _simulate_rabi_arguments(p) -> None:
    p.add_argument("--durations", default="0.0:1.1:40", help="us scan: start:stop:n or list")
    p.add_argument("--pulse-at", choices=("start", "half"), default="start")
    _shots_argument(p)
    p.set_defaults(func=cmd_simulate_rabi)


def _simulate_echo_arguments(p) -> None:
    p.add_argument("--tau", default="2.0:21.0:16", help="us scan: start:stop:n or list")
    p.add_argument("--finite-pulses", action="store_true", help="use finite calibrated pulses")
    _shots_argument(p)
    p.set_defaults(func=cmd_simulate_echo)


def _simulate_image_arguments(p) -> None:
    window = f"um (default: a {2 * pipeline.IMAGE_HALF_WIDTH_UM:g} um window centred on the spots)"
    p.add_argument("--x-min", type=float, default=None, help=window)
    p.add_argument("--x-max", type=float, default=None, help=window)
    p.add_argument("--y-min", type=float, default=None, help=window)
    p.add_argument("--y-max", type=float, default=None, help=window)
    p.add_argument("--step", type=float, default=0.15)
    p.add_argument("--dwell-ms", type=float, default=200.0)
    p.add_argument("--stationary", action="store_true")
    p.add_argument("--plane", choices=("xy", "xz"), default="xy",
                   help="lateral scan or qualitative depth slice")
    p.add_argument("--format", choices=("grid", "csv"), default="grid")
    p.add_argument("--emitters", help="x,y[,cps];x,y[,cps] (default: configured pair)")
    p.set_defaults(func=cmd_simulate_image)


def _simulate_readout_arguments(p) -> None:
    p.add_argument("--initial", choices=("ms0", "ms1"), default="ms0")
    _shots_argument(p)
    p.set_defaults(func=cmd_simulate_readout)


def _compile_seq_arguments(p) -> None:
    p.add_argument("seq", help="sequence file path ('-' = stdin)")
    p.add_argument("--t-phi", type=float, default=0.0, help="trigger-to-strobe delay, us")
    p.add_argument("--allow-multi-period", action="store_true")
    p.set_defaults(func=cmd_compile_seq)


def _fit_arguments(p) -> None:
    p.add_argument("dataset", help="columnar dataset path")
    p.add_argument("--model", choices=("echo", "rabi"), default="echo")
    p.add_argument("--b-max", type=float, default=0.5, help="fringe amplitude search bound, G")
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_fit)


def _dump_config_arguments(p) -> None:
    p.set_defaults(func=cmd_dump_config)


# name -> (help, adds the subcommand's own arguments and its handler), in usage order
SUBCOMMANDS = {
    "simulate-rabi": ("Rabi duration scan", _simulate_rabi_arguments),
    "simulate-echo": ("spin-echo fringe scan", _simulate_echo_arguments),
    "simulate-image": ("strobed confocal raster", _simulate_image_arguments),
    "simulate-readout": ("single transit trace", _simulate_readout_arguments),
    "compile-seq": ("compile a sequence file", _compile_seq_arguments),
    "fit": ("fit a dataset file", _fit_arguments),
    "dump-config": ("print the effective config", _dump_config_arguments),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command-line parser, with only the subcommand that ``argv[0]`` names.

    Building a subcommand's arguments is most of the parser's cost, and a
    call runs one subcommand.  With no ``argv``, an empty one, or a first
    word that is no subcommand (an option, ``--help``, a typo), all of them
    are built, so the help and the errors list every choice.  The terminal
    width is looked up once, not by argparse for every argument it adds.
    """
    # argparse's own default: the terminal width less 2
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="rotornv",
        description="Simulate and fit quantum measurements of an NV qubit in a rotating diamond.",
        formatter_class=formatter,
    )
    names, metavar = list(SUBCOMMANDS), None
    if argv and argv[0] in SUBCOMMANDS:
        # the usage line of a top-level error still lists every subcommand
        names, metavar = [argv[0]], "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        _common_arguments(p)
        add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    try:
        args.cfg = _load_effective_config(args)
        out = args.func(args)
        _write(args.output, out.text)
        sys.stderr.write(out.report)
        return out.code
    except (ValidationError, SequenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        if os.environ.get(DEBUG_ENV_VAR) == "1":
            traceback.print_exc()
        kind = "fit error" if isinstance(exc, FitError) else "runtime error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
