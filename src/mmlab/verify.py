"""Acceptance verification suite.

Each check pins one quantitative claim of the package at its published
tolerance and can be run from the command line (``mmlab verify``) or from the
test suite.  ``perturb`` injects an asymmetric bump into every built position
matrix, breaking hermiticity on purpose; it exists so the verifier itself can
be shown to fail loudly instead of passing vacuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    action_direct,
    action_from_fourier,
    correspondence_report,
    orbit_fourier,
    orbit_period,
    quantize,
)
from .conditions import (
    _frequency_sum,
    born_jordan_sum,
    commutator,
    full_report,
    heisenberg_sum,
    impose_heisenberg_reality,
    loop_integral_state_difference,
    modified_sum,
    nearest_neighbor_rewrite,
)
from .spectral import (
    MatrixPair,
    PhysicalConstants,
    PolynomialPotential,
    _trimmed,
    build_from_potential,
    build_oscillator,
    momentum_from_position,
    to_amplitude_table,
    transition_frequencies,
)

QUARTIC_BASIS = 160
QUARTIC_KEEP = 40
QUARTIC_ALPHA = 9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _worst(*values) -> float:
    """Largest of the figures, NaN if any is NaN, so that a NaN figure fails its check."""
    return float(np.max(values))


class _Lab:
    """Shared systems for the checks, built once per verification run."""

    def __init__(self, perturb: float = 0.0):
        self.perturb = perturb
        constants = PhysicalConstants()
        self.constants = constants
        # built here, not at import: a potential solves its critical points when built
        self.sho = PolynomialPotential((0.0, 0.0, 0.5))
        self.pure_quartic = PolynomialPotential((0.0, 0.0, 0.0, 0.0, 0.25))
        self.perturbed_quartic = PolynomialPotential((0.0, 0.0, 0.5, 0.0, 0.05))

        self.osc_system, osc_pair = build_oscillator(constants, 64)
        self.osc_x, self.osc_freq, self.osc_p = self.perturbed(self.osc_system, osc_pair)
        self.quartic_system, quartic_pair = build_from_potential(
            self.perturbed_quartic, constants, QUARTIC_BASIS, QUARTIC_KEEP
        )
        self.quartic_x, self.quartic_freq, self.quartic_p = self.perturbed(
            self.quartic_system, quartic_pair
        )

    def perturbed(self, system, pair):
        """Dense (X, w, P) of a built pair: X with the bump (if any), P rebuilt as i m w o X."""
        x = np.array(pair.x, dtype=complex)
        if self.perturb:
            x[0, 1] += self.perturb
        freq = transition_frequencies(system)
        return x, freq, momentum_from_position(x, freq, system.constants.mass).dense()

    def quartic_matrix_pair(self) -> MatrixPair:
        return MatrixPair(x=self.quartic_x, p=self.quartic_p)


def check_truncated_commutator(lab: _Lab) -> CheckResult:
    """Oscillator N=64: diagonal i*hbar away from the edge, trace zero, corrupted corner."""
    comm = commutator(lab.osc_x, lab.osc_p)
    diag = np.diag(comm)
    interior = np.max(np.abs(diag[:62] - 1j))
    off = comm - np.diag(diag)
    offmax = float(np.max(np.abs(off)))
    trace = abs(np.trace(comm))
    corner = abs(comm[63, 63] - (-63j)) / 63.0
    passed = interior <= 1e-10 and offmax <= 1e-10 and trace <= 1e-9 and corner <= 1e-8
    return _result(
        "truncated-commutator",
        passed,
        f"max|diag-i|={interior:.2e} offdiag={offmax:.2e} |trace|={trace:.2e} corner={corner:.2e}",
    )


def check_sum_rule_values(lab: _Lab) -> CheckResult:
    """Modified and plain-product sums equal hbar and each other on the oscillator."""
    worst_value = 0.0
    worst_pairing = 0.0
    for n in range(63):
        m25 = modified_sum(lab.osc_x, lab.osc_freq, 1.0, n, 1)
        m14 = born_jordan_sum(lab.osc_x, lab.osc_freq, 1.0, n, 1)
        worst_value = _worst(worst_value, abs(m25 - 1.0), abs(m14 - 1.0))
        worst_pairing = _worst(worst_pairing, abs(m14 - m25))
    passed = worst_value <= 1e-10 and worst_pairing <= 1e-12
    return _result(
        "sum-rule-values",
        passed,
        f"max|value-hbar|={worst_value:.2e} max|eq14-eq25|={worst_pairing:.2e}",
    )


def check_constrained_zero(lab: _Lab) -> CheckResult:
    """Reality-constrained tables collapse the frequency-weighted sum to zero."""
    table = to_amplitude_table(lab.osc_x, (0, 63), 1)
    constrained = impose_heisenberg_reality(table)
    worst = 0.0
    for n in range(1, 63):
        worst = _worst(worst, abs(heisenberg_sum(constrained, lab.osc_freq, 1.0, n, 1)))
    passed = worst <= 1e-12
    return _result("constrained-zero", passed, f"max|value|={worst:.2e}")


def check_nearest_neighbor_rewrite(lab: _Lab) -> CheckResult:
    """The oscillator-only rewrite misses hbar by >= 22% at the lowest states."""
    v0 = nearest_neighbor_rewrite(lab.osc_x, 1.0, 1.0, 0)
    v1 = nearest_neighbor_rewrite(lab.osc_x, 1.0, 1.0, 1)
    dev0 = abs(v0 - 1.0 / math.sqrt(2.0))
    dev1 = abs(v1 - math.sqrt(6.0) / 2.0)
    passed = (
        dev0 <= 1e-8
        and dev1 <= 1e-8
        and abs(v0 - 1.0) >= 0.22
        and abs(v1 - 1.0) >= 0.22
    )
    return _result(
        "nearest-neighbor-rewrite",
        passed,
        f"n0={v0:.10f} n1={v1:.10f} dev0={dev0:.2e} dev1={dev1:.2e}",
    )


def check_quartic_system(lab: _Lab) -> CheckResult:
    """Basis-set quartic system reproduces the canonical diagonal and sum rule."""
    comm = commutator(lab.quartic_x, lab.quartic_p)
    diag = np.diag(comm)
    worst_comm = float(np.max(np.abs(diag[:31] - 1j)))
    worst_sum = 0.0
    for n in range(31):
        value = modified_sum(lab.quartic_x, lab.quartic_freq, 1.0, n, QUARTIC_ALPHA)
        worst_sum = _worst(worst_sum, abs(value - 1.0))
    passed = worst_comm <= 1e-8 and worst_sum <= 1e-8
    return _result(
        "quartic-system",
        passed,
        f"max|comm-i| (n<=30)={worst_comm:.2e} max|eq25-hbar|={worst_sum:.2e}",
    )


def check_classical_identities(lab: _Lab) -> CheckResult:
    """dJ/dE = T, action forms agree, oscillator quantization is exact."""
    worst_djde = 0.0
    for potential in (lab.sho, lab.pure_quartic):
        for energy in (0.5, 1.0, 2.0, 4.0, 8.0):
            step = 1e-4 * energy
            slope = (
                action_direct(potential, energy + step, 1.0)
                - action_direct(potential, energy - step, 1.0)
            ) / (2.0 * step)
            period = orbit_period(potential, energy, 1.0)
            worst_djde = _worst(worst_djde, abs(slope - period) / period)
    worst_parseval = 0.0
    for potential, amax in ((lab.sho, 11), (lab.pure_quartic, 13)):
        orbit = orbit_fourier(potential, 1.0, 1.0, alpha_max=amax)
        direct = action_direct(potential, 1.0, 1.0)
        worst_parseval = _worst(
            worst_parseval, abs(action_from_fourier(orbit) - direct) / direct
        )
    worst_quant = 0.0
    for n in range(21):
        level = quantize(lab.sho, 1.0, 1.0, 0.0, n)
        worst_quant = _worst(worst_quant, abs(level.energy - float(n)))
    passed = worst_djde <= 1e-6 and worst_parseval <= 1e-6 and worst_quant <= 1e-9
    return _result(
        "classical-identities",
        passed,
        f"dJ/dE={worst_djde:.2e} parseval={worst_parseval:.2e} quantize={worst_quant:.2e}",
    )


def check_correspondence(lab: _Lab) -> CheckResult:
    """Amplitudes approach the classical Fourier coefficients state by state."""
    system, built = build_oscillator(lab.constants, 24)
    x, _, p = lab.perturbed(system, built)
    pair = MatrixPair(x=x, p=p)
    worst_sho = 0.0
    for n in (1, 5, 20):
        report = correspondence_report(pair, system, lab.sho, n, 1, "mean")
        row = report.rows[0]
        worst_sho = _worst(worst_sho, abs(row.quantum_amp - row.classical_amp))
    quartic_report = correspondence_report(
        lab.quartic_matrix_pair(),
        lab.quartic_system,
        lab.perturbed_quartic,
        20,
        1,
        "mean",
    )
    quartic_dev = quartic_report.rows[0].amp_rel_dev
    passed = worst_sho <= 1e-8 and quartic_dev <= 0.02
    return _result(
        "correspondence",
        passed,
        f"sho max|q-c|={worst_sho:.2e} quartic rel dev={quartic_dev:.2e}",
    )


def check_rephasing_invariance(lab: _Lab) -> CheckResult:
    """Diagonal-unitary rephasings leave the condition sums untouched."""
    x, freq, p = lab.perturbed(*build_oscillator(lab.constants, 16))

    def sums(xb):  # eq14 and eq25 for n = 0..14, each lane bitwise its per-state call
        eq14 = _frequency_sum(xb, xb, freq, 1.0, 0, 14, 1)
        eq25 = _frequency_sum(None, xb, freq, 1.0, 0, 14, 1)
        return eq14.real, eq25.real

    base14, base25 = sums(_trimmed(x))
    base_comm = np.diag(commutator(x, p))
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for _ in range(100):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=16))
        xr = phases[:, None] * x * phases.conj()[None, :]
        pr = phases[:, None] * p * phases.conj()[None, :]
        comm_r = np.diag(commutator(xr, pr))
        sums14, sums25 = sums(_trimmed(xr))
        worst = _worst(worst, *np.abs(comm_r - base_comm))
        worst = _worst(worst, *np.abs(sums14 - base14), *np.abs(sums25 - base25))
    passed = worst <= 1e-12
    return _result("rephasing-invariance", passed, f"max change={worst:.2e}")


def check_state_difference_realness(lab: _Lab) -> CheckResult:
    """The discrete state derivative of the loop integral is real and equals 2 pi hbar."""
    h = 2.0 * math.pi * lab.constants.hbar
    worst = 0.0
    worst_value = 0.0
    for x, p, hi in (
        (lab.osc_x, lab.osc_p, 62),
        (lab.quartic_x, lab.quartic_p, QUARTIC_KEEP - 1 - QUARTIC_ALPHA),
    ):
        for n in range(hi + 1):
            value = loop_integral_state_difference(x, p, n)
            worst = _worst(worst, abs(value.imag) / abs(value))
            worst_value = _worst(worst_value, abs(value - h) / h)
    passed = worst <= 1e-10 and worst_value <= 1e-8
    detail = f"max |Im|/|value|={worst:.2e} max|value-h|/h={worst_value:.2e}"
    return _result("state-difference-realness", passed, detail)


CHECKS = (
    check_truncated_commutator,
    check_sum_rule_values,
    check_constrained_zero,
    check_nearest_neighbor_rewrite,
    check_quartic_system,
    check_classical_identities,
    check_correspondence,
    check_rephasing_invariance,
    check_state_difference_realness,
)


def run_all(perturb: float = 0.0) -> list[CheckResult]:
    """Run every acceptance check, converting exceptions into failed results."""
    try:
        lab = _Lab(perturb=perturb)
    except Exception as exc:  # a broken build fails every check
        return [
            _result(check.__name__.replace("check_", "").replace("_", "-"), False, f"error: {exc}")
            for check in CHECKS
        ]
    results = []
    for check in CHECKS:
        name = check.__name__.replace("check_", "").replace("_", "-")
        try:
            results.append(check(lab))
        except Exception as exc:
            results.append(_result(name, False, f"error: {exc}"))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{status}  {result.name:<28} {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
