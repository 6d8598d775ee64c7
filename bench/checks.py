"""Output checks on each job's artifact, run outside the timed interval.

Every check is an invariant that holds for any seed, at the tolerance the
package publishes for it (scaled by hbar where the quantity carries units of
action).  ``check`` returns a list of problems; an empty list means the
artifact is correct.
"""

from __future__ import annotations

import json
import math

from mmlab.classical import action_direct
from mmlab.spectral import PolynomialPotential

EQUAL_TOL = 1e-12  # eq14 = eq25 = eq4_hermitian, times hbar
TRACE_TOL = 1e-9  # |trace [X, P]|, times N hbar
VALUE_TOL = 1e-10  # oscillator eq25 = hbar, times hbar
ZERO_TOL = 1e-12  # oscillator constrained sum = 0, times hbar N / 16 (see _conditions)
REWRITE_TOL = 1e-8  # nearest-neighbor rewrite at n = 0, 1, times hbar
EDGE_TOL = 1e-8  # edge diagonal -(N - 1) hbar, relative
ACTION_TOL = 1e-10  # J(E_n) - (n h + J0), times h
SHO_TOL = 1e-9  # E_n - (n hbar omega + J0 omega / 2 pi), times hbar omega
AMPLITUDE_TOL = 1e-8  # |q - c| on alpha = 1 correspondence rows

#: Highest state label the ``mmlab verify`` oscillator checks look at.
VERIFY_ROWS = 62


def _number(value) -> float:
    return math.nan if value is None else float(value)


def parse(data: bytes, fmt: str) -> tuple[dict, list[dict]]:
    """Artifact as (top-level fields, rows of floats); CSV has no top-level fields."""
    if fmt == "json":
        payload = json.loads(data)
        rows = [{k: _number(v) for k, v in row.items()} for row in payload.pop("rows")]
        return payload, rows
    lines = data.decode("ascii").splitlines()
    keys = lines[0].split(",")
    return {}, [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]


def _conditions(job, meta: dict, rows: list[dict]) -> list[str]:
    hbar = job.hbar
    alpha = job.alpha_max if job.alpha_max is not None else 1
    problems = []
    if [int(r["n"]) for r in rows] != list(range(job.size - alpha)):
        problems.append(f"expected rows n = 0..{job.size - alpha - 1}")
    for r in rows:
        eq25 = r["eq25"]
        if not (
            abs(r["eq14"] - eq25) <= EQUAL_TOL * hbar
            and abs(r["eq4_hermitian"] - eq25) <= EQUAL_TOL * hbar
        ):
            values = (r["eq14"], eq25, r["eq4_hermitian"])
            problems.append(f"n={int(r['n'])}: eq14, eq25, eq4_hermitian disagree: {values}")
    if meta:
        trace = math.hypot(meta["trace_re"], meta["trace_im"])
        if not trace <= TRACE_TOL * job.size * hbar:
            problems.append(f"|trace [X, P]| = {trace:.3e}")
    if job.kind != "oscillator":
        return problems
    # The constrained sum is a cancellation of terms of size ~ N hbar / 4, so its
    # rounding floor grows with N: ``mmlab verify`` pins 1e-12 hbar at N = 64.
    # Scaling by N / 64 with a 4x margin keeps the check at the rounding level
    # (8.6e-12 hbar seen at N = 512 over random m, omega, hbar) while any wrong
    # amplitude still misses by order hbar.
    zero_tol = ZERO_TOL * hbar * job.size / 16.0
    for r in rows[: VERIFY_ROWS + 1]:
        n = int(r["n"])
        if not abs(r["eq25"] - hbar) <= VALUE_TOL * hbar:
            problems.append(f"n={n}: eq25 = {r['eq25']!r}, expected hbar = {hbar!r}")
        if n >= 1 and not abs(r["eq4_constrained"]) <= zero_tol:
            problems.append(f"n={n}: constrained sum = {r['eq4_constrained']!r}, expected 0")
    for n, expected in ((0, hbar / math.sqrt(2.0)), (1, hbar * math.sqrt(6.0) / 2.0)):
        if not abs(rows[n]["bj_alternative"] - expected) <= REWRITE_TOL * hbar:
            problems.append(f"n={n}: rewrite = {rows[n]['bj_alternative']!r}, expected {expected!r}")
    if meta:
        edge = -(job.size - 1) * hbar
        if not abs(meta["edge_diag_im"] - edge) <= EDGE_TOL * abs(edge):
            problems.append(f"edge diagonal = {meta['edge_diag_im']!r}, expected {edge!r}")
    return problems


def _classical(job, rows: list[dict]) -> list[str]:
    potential = PolynomialPotential(job.coeffs)
    h = 2.0 * math.pi * job.hbar
    _, v_min = potential.minimum()
    problems = []
    if [int(r["n"]) for r in rows] != list(range(job.size)):
        problems.append(f"expected levels n = 0..{job.size - 1}")
    energies = [r["energy"] for r in rows]
    if any(b <= a for a, b in zip(energies, energies[1:])):
        problems.append(f"energies not increasing: {energies}")
    for r in rows:
        n, energy = int(r["n"]), r["energy"]
        target = n * h + job.j0
        if target == 0.0:
            if not abs(energy - v_min) <= 1e-12 * (1.0 + abs(v_min)):
                problems.append(f"n=0, J0=0: energy {energy!r} is not the minimum {v_min!r}")
            continue
        miss = action_direct(potential, energy, job.m) - target
        if not abs(miss) <= ACTION_TOL * h:
            problems.append(f"n={n}: J(E) - (n h + J0) = {miss:.3e}")
        if potential.degree == 2:
            hw = job.hbar * job.omega
            expected = n * hw + job.j0 * job.omega / (2.0 * math.pi)
            if not abs(energy - expected) <= SHO_TOL * hw:
                problems.append(f"n={n}: SHO energy {energy!r}, expected {expected!r}")
    return problems


def _correspondence(job, rows: list[dict]) -> list[str]:
    a_max = job.alpha_max
    problems = []
    if len(rows) != (job.size - 2 * a_max) * a_max:
        problems.append(f"expected {(job.size - 2 * a_max) * a_max} rows, got {len(rows)}")
    for r in rows:
        if r["alpha"] == 1 and not abs(r["quantum_amp"] - r["classical_amp"]) <= AMPLITUDE_TOL:
            problems.append(
                f"n={int(r['n'])}: |q - c| = {abs(r['quantum_amp'] - r['classical_amp']):.3e}"
            )
    return problems


def check(job, data: bytes) -> list[str]:
    """Problems found in the artifact ``data`` that ``job`` wrote."""
    try:
        meta, rows = parse(data, job.fmt)
        if job.kind in ("oscillator", "potential"):
            return _conditions(job, meta, rows)
        if job.kind == "classical":
            return _classical(job, rows)
        return _correspondence(job, rows)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifact: {exc!r}"]
