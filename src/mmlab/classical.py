"""Classical periodic orbits in confining 1-D polynomial potentials.

Turning points, the period, the action integral and the orbit's Fourier
coefficients are all computed with fixed deterministic resolutions, the
module constants ``GAUSS_NODES`` and ``RK4_STEPS``.  The square-root endpoint
singularity of the period and action integrands is removed with the
substitution x = mid + half * sin(theta), after which Gauss-Legendre
quadrature converges spectrally.  Orbits start at the right
turning point with zero velocity, which makes every Fourier coefficient real.

The potential owns V (see :class:`mmlab.spectral.PolynomialPotential`): its
Horner terms of V and V' and its critical points are computed once, at
construction.  The scalar hot loops (turning-point bracketing and bisection,
the RK4 force evaluations) read those terms once per call and run in Python
floats.  The turning-point count of the topology check is read exactly off
the critical values, with no root solve per call, and ``orbit_fourier``
solves its turning points once, sharing them with the period quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, UnsupportedTopologyError
from .spectral import (
    MatrixPair,
    PolynomialPotential,
    SpectralSystem,
    _horner,
    transition_frequencies,
)

GAUSS_NODES = 200
RK4_STEPS = 4096
BISECTION_ITERATIONS = 80
ENERGY_DRIFT_TOL = 1e-8
#: Amplitudes below this fraction of the alpha = 1 amplitude are rounding noise:
#: parity-forbidden jumps measured <= 3.3e-12 of it, allowed ones >= 1.5e-4.
AMP_NOISE_FLOOR = 1e-10


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@lru_cache(maxsize=8)
def _gauss_rule(nodes: int):
    """Gauss-Legendre nodes mapped to theta in [-pi/2, pi/2]: (sin, cos, weights)."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * t
    return np.sin(theta), np.cos(theta), w


def turning_points(potential: PolynomialPotential, energy: float) -> tuple[float, float]:
    """Classical turning points x- < x+ with V(x) = E.

    The energy must exceed the potential minimum.  At most two distinct real
    solutions (counted from the critical values) are allowed: an above-barrier
    double well is fine, a below-barrier one (four turning points) is rejected.
    """
    x_min, v_min = potential.minimum()
    if not energy > v_min:
        raise ValueError(f"energy {energy} does not exceed the potential minimum {v_min}")
    signs = [1, *((v > energy) - (v < energy) for _, v in potential.critical_points), 1]
    count = sum(a * b < 0 for a, b in zip(signs, signs[1:])) + signs.count(0)
    if count > 2:
        raise UnsupportedTopologyError(
            f"{count} turning points at energy {energy}; "
            "below-barrier multi-well orbits are not supported"
        )
    top, rest = potential.v_terms

    def crossing(direction: float) -> float:
        step = max(1.0, abs(x_min))
        inner = x_min
        outer = x_min + direction * step
        expansions = 0
        while _horner(top, rest, outer) < energy:
            inner = outer
            step *= 2.0
            outer = x_min + direction * step
            expansions += 1
            if expansions > 200:
                raise NumericalError("turning-point bracket expansion failed")
        lo, hi = (inner, outer) if direction > 0 else (outer, inner)
        f_hi = _horner(top, rest, hi) - energy
        for _ in range(BISECTION_ITERATIONS):
            mid = 0.5 * (lo + hi)
            f_mid = _horner(top, rest, mid) - energy
            if f_mid * f_hi <= 0.0:
                if mid == lo:
                    break  # (lo, hi) is a fixed point: every later step repeats this one
                lo = mid
            else:
                if mid == hi:
                    break
                hi, f_hi = mid, f_mid
        return 0.5 * (lo + hi)

    return crossing(-1.0), crossing(+1.0)


def _well_samples(potential, energy, x_lo, x_hi):
    mid = 0.5 * (x_lo + x_hi)
    half = 0.5 * (x_hi - x_lo)
    sin_theta, cos_theta, w = _gauss_rule(GAUSS_NODES)
    x = mid + half * sin_theta
    gap = energy - potential(x)
    if np.any(gap <= 0.0):
        raise NumericalError("potential exceeds the energy inside the well")
    return half * cos_theta, w, gap


def _period(potential, energy, mass, x_lo, x_hi) -> float:
    jacobian, w, gap = _well_samples(potential, energy, x_lo, x_hi)
    integrand = jacobian * np.sqrt(mass / (2.0 * gap))
    return float(2.0 * 0.5 * math.pi * np.dot(w, integrand))


def orbit_period(potential: PolynomialPotential, energy: float, mass: float) -> float:
    """Period T = 2 integral dx sqrt(m / (2 (E - V(x)))) over one libration."""
    _check_positive("mass", mass)
    return _period(potential, energy, mass, *turning_points(potential, energy))


def action_direct(potential: PolynomialPotential, energy: float, mass: float) -> float:
    """Action J = 2 integral dx sqrt(2 m (E - V(x))), the loop integral of p dx."""
    _check_positive("mass", mass)
    jacobian, w, gap = _well_samples(potential, energy, *turning_points(potential, energy))
    integrand = jacobian * np.sqrt(2.0 * mass * gap)
    return float(2.0 * 0.5 * math.pi * np.dot(w, integrand))


@dataclass(frozen=True)
class ClassicalOrbit:
    """One periodic orbit with its Fourier data x(t) = sum_a X_a exp(i a w t)."""

    potential: PolynomialPotential
    energy: float
    mass: float
    x_minus: float
    x_plus: float
    period: float
    alpha_max: int
    fourier: dict

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        scale = max(abs(self.energy), 1.0)
        for xt in (self.x_minus, self.x_plus):
            if abs(float(self.potential(xt)) - self.energy) > 1e-10 * scale:
                raise ValueError("turning points do not match the orbit energy")
        amp = max(abs(v) for v in self.fourier.values())
        for a in range(self.alpha_max + 1):
            if abs(self.fourier[a] - self.fourier[-a].conjugate()) > 1e-10 * max(amp, 1.0):
                raise ValueError("Fourier coefficients violate conjugate symmetry")
            if abs(self.fourier[a].imag) > 1e-8 * max(amp, 1.0):
                raise ValueError("Fourier coefficients are not real in this phase convention")

    @property
    def omega(self) -> float:
        """Fundamental angular frequency 2 pi / T."""
        return 2.0 * math.pi / self.period

    def momentum_fourier(self, alpha: int) -> complex:
        """Momentum coefficient P_a = i m a w X_a of p(t) = m dx/dt."""
        return 1j * self.mass * alpha * self.omega * self.fourier[alpha]


def orbit_fourier(
    potential: PolynomialPotential,
    energy: float,
    mass: float,
    alpha_max: int,
) -> ClassicalOrbit:
    """Integrate one period from the right turning point and Fourier-analyze it.

    Fixed-step fourth-order Runge-Kutta over [0, T] followed by a discrete
    Fourier sum on the equispaced samples.  Starting at x+ with zero velocity
    makes x(t) even in time, so all coefficients come out real.  Raises
    :class:`NumericalError` when the energy drifts by more than 1e-8 relative
    over the period.
    """
    if alpha_max < 1:
        raise ValueError("alpha_max must be at least 1")
    _check_positive("mass", mass)
    x_lo, x_hi = turning_points(potential, energy)
    period = _period(potential, energy, mass, x_lo, x_hi)
    top, rest = potential.dv_terms
    dt = period / RK4_STEPS
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    samples = []
    x, v = x_hi, 0.0
    for _ in range(RK4_STEPS):
        samples.append(x)
        k1x = v
        k1v = -_horner(top, rest, x) / mass
        k2x = v + half_dt * k1v
        k2v = -_horner(top, rest, x + half_dt * k1x) / mass
        k3x = v + half_dt * k2v
        k3v = -_horner(top, rest, x + half_dt * k2x) / mass
        k4x = v + dt * k3v
        k4v = -_horner(top, rest, x + dt * k3x) / mass
        x += sixth_dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v += sixth_dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    samples = np.array(samples)
    drift = abs(0.5 * mass * v * v + float(potential(x)) - energy)
    if drift > ENERGY_DRIFT_TOL * max(abs(energy), 1e-30):
        raise NumericalError(
            f"energy drifted by {drift:.3e} over one period; refine RK4_STEPS"
        )
    base = 2.0 * math.pi / period
    times = np.arange(RK4_STEPS) * dt
    fourier = {}
    for a in range(-alpha_max, alpha_max + 1):
        fourier[a] = complex(np.dot(samples, np.exp(-1j * a * base * times)) / RK4_STEPS)
    return ClassicalOrbit(
        potential=potential,
        energy=energy,
        mass=mass,
        x_minus=x_lo,
        x_plus=x_hi,
        period=period,
        alpha_max=alpha_max,
        fourier=fourier,
    )


def action_from_fourier(orbit: ClassicalOrbit) -> float:
    """Action from the harmonic content, J = 2 pi m w sum_a a^2 |X_a|^2.

    Requires the retained harmonics to have converged: |X_(alpha_max)| must be
    below 1e-8 |X_1|.  An orbit with no harmonic content at all (no motion)
    has zero action.
    """
    moving = max(abs(orbit.fourier[a]) for a in orbit.fourier if a != 0)
    if moving == 0.0:
        return 0.0
    lead = abs(orbit.fourier[1])
    if abs(orbit.fourier[orbit.alpha_max]) >= 1e-8 * lead:
        raise ValueError(
            "harmonic truncation test failed: increase alpha_max until the "
            "last retained coefficient is below 1e-8 of the fundamental"
        )
    total = 0.0
    for a in range(-orbit.alpha_max, orbit.alpha_max + 1):
        coeff = orbit.fourier[a]
        total += a * a * (coeff.real * coeff.real + coeff.imag * coeff.imag)
    return float(2.0 * math.pi * orbit.mass * orbit.omega * total)


@dataclass(frozen=True)
class QuantizationResult:
    """Energy selected by the action rule J(E) = n h + J0."""

    n: int
    energy: float
    action: float
    offset: float
    converged: bool
    iterations: int


def quantize(
    potential: PolynomialPotential,
    mass: float,
    hbar: float,
    offset: float,
    n: int,
) -> QuantizationResult:
    """Solve J(E) = n h + J0 for the energy by bisection on the monotone action.

    ``offset`` is the undetermined additive constant J0 of the action rule,
    passed explicitly (0 for the bare rule, h/2 for the half-quantum shift).
    A zero target returns the potential minimum by convention.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_positive("mass", mass)
    _check_positive("hbar", hbar)
    if not (math.isfinite(offset) and offset >= 0.0):
        raise ValueError(f"offset must be finite and nonnegative, got {offset}")
    h = 2.0 * math.pi * hbar
    target = n * h + offset
    _, v_min = potential.minimum()
    if target == 0.0:
        return QuantizationResult(
            n=n, energy=v_min, action=0.0, offset=offset, converged=True, iterations=0
        )
    step = max(hbar, 1e-3)
    e_hi = v_min + step
    expansions = 0
    while action_direct(potential, e_hi, mass) < target:
        step *= 2.0
        e_hi = v_min + step
        expansions += 1
        if expansions > 200:
            raise NumericalError("action bracketing failed; J(E) did not reach the target")
    e_lo = v_min
    tolerance = 1e-10 * h
    iterations = 0
    converged = False
    while iterations < 200:
        energy = 0.5 * (e_lo + e_hi)
        action = action_direct(potential, energy, mass)
        iterations += 1
        if abs(action - target) <= tolerance:
            converged = True
            break
        if action < target:
            e_lo = energy
        else:
            e_hi = energy
    return QuantizationResult(
        n=n,
        energy=energy,
        action=action,
        offset=offset,
        converged=converged,
        iterations=iterations,
    )


@dataclass(frozen=True)
class CorrespondenceRow:
    """Quantum amplitude and frequency of one jump against their classical values."""

    n: int
    alpha: int
    energy: float
    quantum_amp: float
    classical_amp: float
    amp_rel_dev: float
    quantum_freq: float
    classical_freq: float
    freq_rel_dev: float


@dataclass(frozen=True)
class CorrespondenceReport:
    n: int
    energy_rule: str
    rows: tuple


def _rel_dev(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def correspondence_report(
    pair: MatrixPair,
    system: SpectralSystem,
    potential: PolynomialPotential,
    n: int,
    alpha_max: int,
    energy_rule: str = "mean",
) -> CorrespondenceReport:
    """Compare transition amplitudes |X(n, n-a)| with orbit coefficients |X_a(E*)|.

    The classical orbit is evaluated at E* = E_n (rule ``state``) or at the
    two-state mean (E_n + E_(n-a)) / 2 (rule ``mean``, the default); the jump
    frequency w(n, n-a) is likewise compared against a * w_classical(E*).
    Where both amplitudes lie below ``AMP_NOISE_FLOOR`` times the alpha = 1
    amplitude of their side, the jump is forbidden on both and deviates by 0.
    """
    if energy_rule not in ("state", "mean"):
        raise ValueError("energy_rule must be 'state' or 'mean'")
    if alpha_max < 1:
        raise ValueError("alpha_max must be at least 1")
    size = system.size
    if n < alpha_max or n > size - 1 - alpha_max:
        raise ValueError(
            f"state {n} outside the correspondence window "
            f"[{alpha_max}, {size - 1 - alpha_max}]"
        )
    freq = transition_frequencies(system)
    e_n, mass = float(system.energies[n]), system.constants.mass
    q_ref = float(abs(pair.x[n, n - 1]))
    orbit = None
    rows = []
    for a in range(1, alpha_max + 1):
        if energy_rule == "mean":
            e_mean = 0.5 * (e_n + float(system.energies[n - a]))
            orbit = orbit_fourier(potential, e_mean, mass, alpha_max=a)
        elif orbit is None:  # E* = E_n for every jump and X_a does not depend on alpha_max
            orbit = orbit_fourier(potential, e_n, mass, alpha_max=alpha_max)
        q_amp = float(abs(pair.x[n, n - a]))
        c_amp = float(abs(orbit.fourier[a]))
        q_freq = float(freq.omega[n, n - a])
        c_freq = a * orbit.omega
        noise = q_amp < AMP_NOISE_FLOOR * q_ref and c_amp < AMP_NOISE_FLOOR * abs(orbit.fourier[1])
        rows.append(
            CorrespondenceRow(
                n=n,
                alpha=a,
                energy=orbit.energy,
                quantum_amp=q_amp,
                classical_amp=c_amp,
                amp_rel_dev=0.0 if noise else _rel_dev(q_amp, c_amp),
                quantum_freq=q_freq,
                classical_freq=c_freq,
                freq_rel_dev=_rel_dev(q_freq, c_freq),
            )
        )
    return CorrespondenceReport(n=n, energy_rule=energy_rule, rows=tuple(rows))
