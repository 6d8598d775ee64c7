"""Runs one benchmark job through mmlab's public pipelines.

Oscillator, potential and classical jobs go through ``mmlab.cli.main(argv)``
in-process, exactly as a user's command would.  Correspondence jobs have no
CLI mode on an oscillator, so they call the library the way the CLI would:
build, one report per feasible state, serialize, write.

``LOOKUP_SITES`` names every place a traced run wraps, as the module whose
attribute the caller reads and the layer name of the span.
"""

from __future__ import annotations

import sys

from mmlab import classical, cli, conditions, spectral
from mmlab.classical import correspondence_report
from mmlab.report_io import serialize_correspondence, write_atomic
from mmlab.spectral import PhysicalConstants, PolynomialPotential, build_oscillator


class JobFailed(RuntimeError):
    """A CLI job returned a nonzero exit code."""


def run_job(job, out: str) -> None:
    """Run ``job`` and write its artifact to ``out``."""
    if job.kind == "correspondence":
        constants = PhysicalConstants(mass=job.m, hbar=job.hbar, omega=job.omega)
        system, pair = build_oscillator(constants, job.size)
        potential = PolynomialPotential((0.0, 0.0, 0.5 * job.m * job.omega**2))
        reports = [
            correspondence_report(pair, system, potential, n, job.alpha_max, "mean")
            for n in range(job.alpha_max, job.size - job.alpha_max)
        ]
        write_atomic(out, serialize_correspondence(reports, job.fmt))
        return
    code = cli.main(job.argv(out))
    if code != 0:
        raise JobFailed(f"mmlab {job.kind} exited with code {code}")


def _quantize_attrs(args, result) -> dict:
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _bytes_attrs(args, result) -> dict:
    return {"bytes": len(args[1])}


_here = sys.modules[__name__]

LOOKUP_SITES = (
    (cli, "main", "cli", None),
    (cli, "build_oscillator", "spectral.build_oscillator", None),
    (_here, "build_oscillator", "spectral.build_oscillator", None),
    (cli, "build_from_potential", "spectral.build_from_potential", None),
    (spectral, "jacobi_eigh", "jacobi.jacobi_eigh", None),
    (cli, "full_report", "conditions.full_report", None),
    (conditions, "matrix_bandwidth", "spectral.matrix_bandwidth", None),
    (conditions, "commutator", "conditions.commutator", None),
    (conditions, "to_amplitude_table", "conditions.to_amplitude_table", None),
    (conditions, "impose_heisenberg_reality", "conditions.impose_heisenberg_reality", None),
    (cli, "quantize", "classical.quantize", _quantize_attrs),
    (classical, "action_direct", "classical.action_direct", None),
    (cli, "orbit_fourier", "classical.orbit_fourier", None),
    (classical, "orbit_fourier", "classical.orbit_fourier", None),
    (classical, "turning_points", "classical.turning_points", None),
    (classical, "orbit_period", "classical.orbit_period", None),
    (_here, "correspondence_report", "classical.correspondence_report", None),
    (cli, "serialize_report", "report_io.serialize", None),
    (cli, "serialize_classical", "report_io.serialize", None),
    (_here, "serialize_correspondence", "report_io.serialize", None),
    (cli, "write_atomic", "report_io.write_atomic", _bytes_attrs),
    (_here, "write_atomic", "report_io.write_atomic", _bytes_attrs),
)
