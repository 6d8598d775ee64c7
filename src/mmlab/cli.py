"""Command-line front end.

Subcommands build a system, evaluate the condition or correspondence reports
and write a deterministic JSON or CSV artifact:

    mmlab oscillator --m 1 --omega 1 --hbar 1 --size 64 --out report.json
    mmlab potential --coeffs "0,0,0.5,0,0.05" --size 40 --basis-size 160
    mmlab classical --coeffs "0,0,0.5" --size 8 --j0 0
    mmlab correspondence --coeffs "0,0,0.5,0,0.05" --size 40 --alpha-max 2
    mmlab verify

Each mode takes only the options its pipeline reads (``MODES``).  They may
also come from a plain-text config file of ``key = value`` lines ('#' starts a
comment); explicit flags override file values.  Exit codes:
0 success, 2 invalid arguments or unreadable config, 3 numerical or I/O
failure, 4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

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


@dataclass
class RunConfig:
    """One resolved invocation; an option the mode does not read keeps its default."""

    mode: str
    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    size: int = 64
    basis_size: int | None = None
    coeffs: tuple | None = None
    alpha_max: int | None = None
    j0: float = 0.0
    energy_rule: str = "mean"
    out: str | None = None
    format: str = "json"
    perturb: float = 0.0

    def validate(self) -> None:
        if not math.isfinite(self.perturb):
            raise ValueError(f"perturb must be finite, got {self.perturb}")
        for name in ("m", "omega", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.size < 1:
            raise ValueError(f"size must be at least 1, got {self.size}")
        if self.basis_size is not None and self.basis_size < 2:
            raise ValueError("basis-size must be at least 2")
        if self.alpha_max is not None and self.alpha_max < 1:
            raise ValueError("alpha-max must be at least 1")
        if not (math.isfinite(self.j0) and self.j0 >= 0.0):
            raise ValueError(f"j0 must be finite and nonnegative, got {self.j0}")
        if self.energy_rule not in ("state", "mean"):
            raise ValueError("energy-rule must be 'state' or 'mean'")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be 'json' or 'csv'")
        if self.mode in ("potential", "classical", "correspondence") and not self.coeffs:
            raise ValueError(f"mode '{self.mode}' requires --coeffs")


def _parse_coeffs(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse coefficient list {text!r}") from exc


#: Every pipeline option once, by config-file key: (converter, allowed values, help).
OPTIONS = {
    "m": (float, None, "particle mass"),
    "omega": (float, None, "oscillator frequency"),
    "hbar": (float, None, "action quantum"),
    "size": (int, None, "retained states / levels"),
    "basis_size": (int, None, "auxiliary basis size"),
    "coeffs": (_parse_coeffs, None, 'potential "c0,c1,..."'),
    "alpha_max": (int, None, "largest jump in the sums"),
    "j0": (float, None, "action-rule offset"),
    "energy_rule": (str, ("state", "mean"), "classical energy choice for correspondence rows"),
    "out": (str, None, "output path (default stdout)"),
    "format": (str, ("json", "csv"), "artifact format"),
}

#: Each pipeline mode's help line and the options its pipeline reads.
MODES = {
    "oscillator": ("closed-form oscillator condition report",
                   ("m", "omega", "hbar", "size", "alpha_max")),
    "potential": ("basis-set polynomial-potential condition report",
                  ("m", "hbar", "size", "basis_size", "coeffs", "alpha_max")),
    "classical": ("quantized classical levels with orbit data",
                  ("m", "hbar", "size", "coeffs", "alpha_max", "j0")),
    "correspondence": ("quantum vs classical amplitude comparison",
                       ("m", "hbar", "size", "basis_size", "coeffs", "alpha_max", "energy_rule")),
}


def _keys(mode: str) -> tuple:
    # every mode also writes an artifact
    return (*MODES[mode][1], "out", "format")


def load_config_file(path: str, mode: str) -> dict:
    """Read ``key = value`` lines into a dict of the options ``mode`` reads."""
    keys = _keys(mode)
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
                values[key] = OPTIONS[key][0](value.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmlab",
        description="Quantum-condition laboratory for 1-D bound systems",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (blurb, _) in MODES.items():
        mode_parser = sub.add_parser(mode, help=blurb)
        for key in _keys(mode):
            convert, choices, text = OPTIONS[key]
            mode_parser.add_argument(
                "--" + key.replace("_", "-"), type=convert, choices=choices, help=text
            )
        mode_parser.add_argument("--config", help="key = value options file")

    verify = sub.add_parser("verify", help="run the acceptance verification suite")
    verify.add_argument(
        "--perturb", type=float, default=0.0,
        help="inject a hermiticity-breaking bump of this size (self-test of the verifier)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.mode == "verify":
        return RunConfig(mode="verify", perturb=args.perturb)
    options = {} if args.config is None else load_config_file(args.config, args.mode)
    for key in _keys(args.mode):
        if getattr(args, key) is not None:
            options[key] = getattr(args, key)
    return RunConfig(mode=args.mode, **options)


def _emit(config: RunConfig, data: bytes) -> None:
    if config.out is None:
        sys.stdout.write(data.decode("ascii"))
    else:
        write_atomic(config.out, data)


def _run_oscillator(config: RunConfig) -> None:
    constants = PhysicalConstants(mass=config.m, hbar=config.hbar, omega=config.omega)
    system, pair = build_oscillator(constants, config.size)
    report = full_report(system, pair, config.alpha_max)
    _emit(config, serialize_report(report, config.format))


def _potential_system(config: RunConfig):
    """The configured potential with its retained system and matrix pair."""
    potential = PolynomialPotential(config.coeffs)
    constants = PhysicalConstants(mass=config.m, hbar=config.hbar)
    basis = config.basis_size if config.basis_size is not None else 4 * config.size
    return (potential, *build_from_potential(potential, constants, basis, config.size))


def _run_potential(config: RunConfig) -> None:
    _, system, pair = _potential_system(config)
    report = full_report(system, pair, config.alpha_max)
    _emit(config, serialize_report(report, config.format))


def _run_classical(config: RunConfig) -> None:
    potential = PolynomialPotential(config.coeffs)
    alpha_max = config.alpha_max if config.alpha_max is not None else 8
    _, v_min = potential.minimum()
    levels = []
    for n in range(config.size):
        result = quantize(potential, config.m, config.hbar, config.j0, n)
        if not result.converged:
            target = n * 2.0 * math.pi * config.hbar + config.j0
            raise NumericalError(
                f"quantization of level n = {n} did not converge: "
                f"|J - target| = {abs(result.action - target):.3e}"
            )
        if result.energy > v_min:
            orbit = orbit_fourier(potential, result.energy, config.m, alpha_max)
        else:
            orbit = None
        levels.append((result, orbit))
    _emit(config, serialize_classical(levels, alpha_max, config.format))


def _run_correspondence(config: RunConfig) -> None:
    potential, system, pair = _potential_system(config)
    alpha_max = config.alpha_max if config.alpha_max is not None else 4
    reports = []
    for n in range(alpha_max, system.size - alpha_max):
        reports.append(
            correspondence_report(pair, system, potential, n, alpha_max, config.energy_rule)
        )
    _emit(config, serialize_correspondence(reports, config.format))


_PIPELINES = {
    "oscillator": _run_oscillator,
    "potential": _run_potential,
    "classical": _run_classical,
    "correspondence": _run_correspondence,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved config; returns the process exit code."""
    try:
        config.validate()
        if config.mode == "verify":
            results = run_all(perturb=config.perturb)
            print(format_results(results))
            return 0 if all(r.passed for r in results) else 4
        pipeline = _PIPELINES[config.mode]
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        pipeline(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


def entry() -> None:
    raise SystemExit(main())
