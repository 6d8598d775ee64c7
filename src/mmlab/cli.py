"""Command-line front end.

Subcommands build a system, evaluate the condition or correspondence reports
and write a deterministic JSON or CSV artifact:

    mmlab oscillator --m 1 --omega 1 --hbar 1 --size 64 --out report.json
    mmlab potential --coeffs "0,0,0.5,0,0.05" --size 40 --basis-size 160
    mmlab classical --coeffs "0,0,0.5" --size 8 --j0 0
    mmlab correspondence --coeffs "0,0,0.5,0,0.05" --size 40 --alpha-max 2
    mmlab verify

Each mode takes only the values its pipeline reads (``MODES``); every value's
default and check are in ``OPTIONS``.  An artifact mode's values may also come
from a plain-text config file of ``key = value`` lines ('#' starts a comment);
explicit flags override file values.  From Python, ``run(mode, options)``
runs a mode on a dict of values by config-file key.  Exit codes:
0 success, 2 invalid arguments or unreadable config, 3 numerical or I/O
failure, 4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import numbers
import sys
from typing import Callable, NamedTuple

from .classical import orbit_fourier, quantize, correspondence_report
from .conditions import full_report
from .errors import NumericalError
from .report_io import (
    serialize_classical,
    serialize_correspondence,
    serialize_report,
    write_atomic,
)
from .spectral import (
    PhysicalConstants,
    PolynomialPotential,
    build_from_potential,
    build_oscillator,
)
from .verify import format_results, run_all


def _parse_coeffs(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse coefficient list {text!r}") from exc


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


class Option(NamedTuple):
    """One run value: its text converter, allowed values, default, check and help."""

    convert: Callable
    choices: tuple | None
    default: object
    valid: Callable | None  # None: any value
    message: str  # when the type or ``valid`` fails; formatted with the value and the mode
    help: str


#: The type a value set from Python must have, by converter: any real number for a
#: float option, any integer for an int option (bool is neither), text for a str one.
_TYPES = {float: numbers.Real, int: numbers.Integral, str: str}


#: Every run value once, by config-file key, in the order ``resolve`` checks them.
OPTIONS = {
    "perturb": Option(
        float, None, 0.0, math.isfinite, "perturb must be finite, got {value}",
        "inject a hermiticity-breaking bump of this size (self-test of the verifier)",
    ),
    "m": Option(float, None, 1.0, _finite_positive,
                "m must be finite and positive, got {value}", "particle mass"),
    "omega": Option(float, None, 1.0, _finite_positive,
                    "omega must be finite and positive, got {value}", "oscillator frequency"),
    "hbar": Option(float, None, 1.0, _finite_positive,
                   "hbar must be finite and positive, got {value}", "action quantum"),
    "size": Option(int, None, 64, lambda v: v >= 1,
                   "size must be at least 1, got {value}", "retained states / levels"),
    "basis_size": Option(int, None, None, lambda v: v is None or v >= 2,
                         "basis-size must be at least 2", "auxiliary basis size"),
    "alpha_max": Option(int, None, None, lambda v: v is None or v >= 1,
                        "alpha-max must be at least 1", "largest jump in the sums"),
    "j0": Option(float, None, 0.0, lambda v: math.isfinite(v) and v >= 0.0,
                 "j0 must be finite and nonnegative, got {value}", "action-rule offset"),
    "energy_rule": Option(str, ("state", "mean"), "mean", lambda v: v in ("state", "mean"),
                          "energy-rule must be 'state' or 'mean'",
                          "classical energy choice for correspondence rows"),
    "format": Option(str, ("json", "csv"), "json", lambda v: v in ("json", "csv"),
                     "format must be 'json' or 'csv'", "artifact format"),
    "coeffs": Option(_parse_coeffs, None, None, bool,
                     "mode '{mode}' requires --coeffs", 'potential "c0,c1,..."'),
    "out": Option(str, None, None, None, "out must be a path, got {value}",
                  "output path (default stdout)"),
}

#: Each mode's help line and the values its pipeline reads.
MODES = {
    "oscillator": ("closed-form oscillator condition report",
                   ("m", "omega", "hbar", "size", "alpha_max", "out", "format")),
    "potential": ("basis-set polynomial-potential condition report",
                  ("m", "hbar", "size", "basis_size", "coeffs", "alpha_max", "out", "format")),
    "classical": ("quantized classical levels with orbit data",
                  ("m", "hbar", "size", "coeffs", "alpha_max", "j0", "out", "format")),
    "correspondence": ("quantum vs classical amplitude comparison",
                       ("m", "hbar", "size", "basis_size", "coeffs", "alpha_max", "energy_rule",
                        "out", "format")),
    "verify": ("run the acceptance verification suite", ("perturb",)),
}


def load_config_file(path: str, mode: str) -> dict:
    """Read ``key = value`` lines into a dict of the values ``mode`` reads."""
    keys = MODES[mode][1]
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r} for mode {mode!r}")
            try:
                values[key] = OPTIONS[key].convert(value.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmlab",
        description="Quantum-condition laboratory for 1-D bound systems",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (blurb, keys) in MODES.items():
        mode_parser = sub.add_parser(mode, help=blurb)
        for key in keys:
            option = OPTIONS[key]
            mode_parser.add_argument(
                "--" + key.replace("_", "-"), type=option.convert, choices=option.choices,
                help=option.help,
            )
        if "out" in keys:  # a mode that writes an artifact may read its values from a file
            mode_parser.add_argument("--config", help="key = value options file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def parse_argv(argv=None) -> tuple[str, dict]:
    """The mode an argument list names and the options it sets, flags over the config file."""
    args = vars(_parser().parse_args(argv))
    mode, path = args.pop("mode"), args.pop("config", None)
    options = {} if path is None else load_config_file(path, mode)
    options.update((key, value) for key, value in args.items() if value is not None)
    return mode, options


def resolve(mode: str, options: dict) -> dict:
    """Every value ``mode`` reads: ``options`` over the defaults, each checked.

    Raises ValueError for an unknown mode, an option the mode does not read,
    or the first value, in ``OPTIONS`` order, that has the wrong type or fails
    its check.  A number set from Python is converted to its option's type, so
    ``{"m": 1}`` runs as ``--m 1`` does.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    keys = MODES[mode][1]
    for key in options:
        if key not in keys:
            raise ValueError(f"unknown option {key!r} for mode {mode!r}")
    values = {key: options.get(key, OPTIONS[key].default) for key in keys}
    for key, option in OPTIONS.items():
        if key not in values:
            continue
        value = values[key]
        kind = _TYPES.get(option.convert)
        if kind is not None and not (value is None and option.default is None):
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(option.message.format(value=repr(value), mode=mode))
            values[key] = value = option.convert(value)
        if option.valid is not None and not option.valid(value):
            raise ValueError(option.message.format(value=value, mode=mode))
    return values


def _emit(values: dict, data: bytes) -> None:
    if values["out"] is None:
        sys.stdout.write(data.decode("ascii"))
    else:
        write_atomic(values["out"], data)


def _run_oscillator(values: dict) -> None:
    constants = PhysicalConstants(mass=values["m"], hbar=values["hbar"], omega=values["omega"])
    system, pair = build_oscillator(constants, values["size"])
    report = full_report(system, pair, values["alpha_max"])
    _emit(values, serialize_report(report, values["format"]))


def _potential_system(values: dict):
    """The configured potential with its retained system and matrix pair."""
    potential = PolynomialPotential(values["coeffs"])
    constants = PhysicalConstants(mass=values["m"], hbar=values["hbar"])
    basis = values["basis_size"] if values["basis_size"] is not None else 4 * values["size"]
    return (potential, *build_from_potential(potential, constants, basis, values["size"]))


def _run_potential(values: dict) -> None:
    _, system, pair = _potential_system(values)
    report = full_report(system, pair, values["alpha_max"])
    _emit(values, serialize_report(report, values["format"]))


def _run_classical(values: dict) -> None:
    potential = PolynomialPotential(values["coeffs"])
    alpha_max = values["alpha_max"] if values["alpha_max"] is not None else 8
    _, v_min = potential.minimum()
    results = []
    for n in range(values["size"]):
        result = quantize(potential, values["m"], values["hbar"], values["j0"], n)
        if not result.converged:
            target = n * 2.0 * math.pi * values["hbar"] + values["j0"]
            raise NumericalError(
                f"quantization of level n = {n} did not converge: "
                f"|J - target| = {abs(result.action - target):.3e}"
            )
        results.append(result)
    # one call for every level that moves; a level at the minimum has no orbit
    moving = [result.energy for result in results if result.energy > v_min]
    orbits = iter(orbit_fourier(potential, moving, values["m"], alpha_max) if moving else ())
    levels = [(result, next(orbits) if result.energy > v_min else None) for result in results]
    _emit(values, serialize_classical(levels, alpha_max, values["format"]))


def _run_correspondence(values: dict) -> None:
    potential, system, pair = _potential_system(values)
    alpha_max = values["alpha_max"] if values["alpha_max"] is not None else 4
    reports = []
    for n in range(alpha_max, system.size - alpha_max):
        reports.append(
            correspondence_report(pair, system, potential, n, alpha_max, values["energy_rule"])
        )
    _emit(values, serialize_correspondence(reports, values["format"]))


def _run_verify(values: dict) -> int:
    results = run_all(perturb=values["perturb"])
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 4


#: Each mode's pipeline; ``verify`` returns its exit code, the artifact pipelines None.
_PIPELINES = {
    "oscillator": _run_oscillator,
    "potential": _run_potential,
    "classical": _run_classical,
    "correspondence": _run_correspondence,
    "verify": _run_verify,
}


def run(mode: str, options: dict) -> int:
    """Run ``mode`` on ``options``, a dict by config-file key; returns the exit code."""
    try:
        values = resolve(mode, options)
        return _PIPELINES[mode](values) or 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    try:
        mode, options = parse_argv(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(mode, options)


def entry() -> None:
    raise SystemExit(main())
