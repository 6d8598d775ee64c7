"""Classical periodic orbits in confining 1-D polynomial potentials.

Every integral over an orbit comes from one quadrature rule per energy.
Deflating the turning points out of the energy gap,
E - V(x) = (x+ - x)(x - x-) Q(x), leaves dt/dphi = sqrt(m / (2 Q(x))) on the
half orbit x = mid + half * cos(phi), 0 <= phi <= pi, smooth up to both
turning points.  Sampled at the Chebyshev-Lobatto points, phi_j = pi j / n,
its cosine series gives the half period and, integrated term by term, the
time map t(phi); the point count doubles until that series has converged
(``ORBIT_START_NODES``, ``ORBIT_MAX_NODES``, ``ORBIT_TAIL_TOL``).  The same
samples give the action: E - V = half^2 sin^2(phi) Q, so
J = 2 m half^2 integral_0^pi sin^2(phi) / (dt/dphi) dphi, a trapezoidal sum
on a smooth periodic integrand and so spectrally accurate.  ``orbit_period``,
``action_direct``, ``orbit_fourier`` and ``quantize`` all read that rule;
``quantize`` solves J(E) = n h + J0 by safeguarded Newton steps with
dJ/dE = T(E).  Orbits start at the right turning point with zero velocity,
which makes every Fourier coefficient real.

The potential owns V (see :class:`mmlab.spectral.PolynomialPotential`): its
Horner terms of V and V' and its critical points are computed once, at
construction.  The scalar hot loop (turning-point bracketing and Newton
steps) reads those terms once per call and runs in Python floats.  The
turning-point count of the topology check is read exactly off the critical
values, with no root solve per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, UnsupportedTopologyError
from .spectral import (
    MatrixPair,
    PolynomialPotential,
    SpectralSystem,
    _horner,
    transition_frequencies,
)

#: Intervals of the first Chebyshev-Lobatto orbit rule, and the most a doubling may reach.
ORBIT_START_NODES = 64
ORBIT_MAX_NODES = 2**16
#: The orbit rule has converged when the upper half of the cosine series of
#: dt/dphi lies below this fraction of its largest sample.
ORBIT_TAIL_TOL = 1e-14
#: Amplitudes below this fraction of the alpha = 1 amplitude are rounding noise:
#: parity-forbidden jumps measured <= 3.3e-12 of it, allowed ones >= 1.5e-4.
AMP_NOISE_FLOOR = 1e-10


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


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
    d_top, d_rest = potential.dv_terms

    def crossing(direction: float) -> float:
        # expand (inner, outer] outward from the minimum until V(outer) >= E
        step = max(1.0, abs(x_min))
        inner, x = x_min, x_min + direction * step
        f = _horner(top, rest, x) - energy
        expansions = 0
        while f < 0.0:
            inner = x
            step *= 2.0
            x = x_min + direction * step
            f = _horner(top, rest, x) - energy
            expansions += 1
            if expansions > 200:
                raise NumericalError("turning-point bracket expansion failed")
        outer = x
        # Newton from the outer end; V(inner) < E <= V(outer) holds throughout, and
        # a step that leaves the bracket (or meets V' = 0) is replaced by its midpoint
        while f != 0.0:
            slope = _horner(d_top, d_rest, x)
            new = x - f / slope if slope else math.nan
            if new == x:
                break  # the step is below half an ulp of x
            if not (new - inner) * (new - outer) < 0.0:
                new = 0.5 * (inner + outer)
                if new == inner or new == outer:
                    break  # the bracket is two adjacent floats
            x, f = new, _horner(top, rest, new) - energy
            if f < 0.0:
                inner = x
            else:
                outer = x
        return x

    return crossing(-1.0), crossing(+1.0)


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


def _gap_quotient(potential, energy, x_lo, x_hi) -> tuple[float, tuple[float, ...]]:
    """Horner terms of Q with V(x) - E = (x - x+)(x - x-) Q(x), by synthetic division.

    Each division drops its remainder, V - E at a turning point, which Newton's
    method has left at rounding level.  Q is then a divided difference of V - E:
    smooth, and positive on the closed well, so E - V = (x+ - x)(x - x-) Q(x) has
    its two zeros factored out exactly.
    """
    top, rest = potential.v_terms
    terms = [top, *rest[:-1], rest[-1] - energy]
    for root in (x_hi, x_lo):
        quotient = [terms[0]]
        for c in terms[1:-1]:
            quotient.append(c + root * quotient[-1])
        terms = quotient
    return terms[0], tuple(terms[1:])


def _orbit_samples(q_terms, x_lo, x_hi, mass, n, coarse=None):
    """Points x_j = mid + half cos(pi j / n) and dt/dphi = sqrt(m / (2 Q(x_j))), j = 0..n,
    with mid and half the midpoint and half width of [x-, x+].

    ``coarse`` is dt/dphi on the rule with n / 2 intervals, whose points are
    the even ones here, so only the odd points are evaluated.
    """
    x = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * np.cos(np.arange(n + 1) * (math.pi / n))
    rate = np.empty(n + 1)
    fresh = slice(None)
    if coarse is not None:
        rate[::2] = coarse
        fresh = slice(1, None, 2)
    q = _horner(*q_terms, x[fresh])
    if np.any(q <= 0.0):
        raise NumericalError("potential exceeds the energy inside the well")
    rate[fresh] = np.sqrt(mass / (2.0 * q))
    return x, rate


def _cosine_series(rate) -> np.ndarray:
    """Coefficients a_0..a_n of rate(phi) = sum_k a_k cos(k phi) from its n + 1 Lobatto
    samples (a DCT-I through one real FFT of the even extension)."""
    n = rate.size - 1
    series = np.fft.rfft(np.concatenate((rate, rate[-2:0:-1]))).real / n
    series[0] *= 0.5
    series[n] *= 0.5
    return series


class _OrbitRule(NamedTuple):
    """One energy's converged half orbit: the turning points, the Horner terms of
    Q, and the Lobatto points x_j, samples rate_j of dt/dphi and their cosine series."""

    x_lo: float
    x_hi: float
    q_terms: tuple
    mass: float
    x: np.ndarray
    rate: np.ndarray
    series: np.ndarray

    @property
    def period(self) -> float:
        """T = 2 pi a_0, twice the half period."""
        return 2.0 * (math.pi * float(self.series[0]))

    @property
    def action(self) -> float:
        """J = 2 m half^2 (pi / n) sum_j sin^2(phi_j) / rate_j, the trapezoidal rule
        (its end terms are zero)."""
        n = self.rate.size - 1
        half = 0.5 * (self.x_hi - self.x_lo)
        sin2 = np.sin(np.arange(n + 1) * (math.pi / n)) ** 2
        return float(2.0 * self.mass * half * half * (math.pi / n) * np.sum(sin2 / self.rate))


def _orbit_rule(potential, energy, mass) -> _OrbitRule:
    """The Chebyshev-Lobatto rule at ``energy``: it starts at ``ORBIT_START_NODES``
    intervals and doubles until the upper half of the cosine series of dt/dphi is
    below ``ORBIT_TAIL_TOL`` of its largest sample.  Raises :class:`NumericalError`
    when it has not converged at ``ORBIT_MAX_NODES`` intervals."""
    x_lo, x_hi = turning_points(potential, energy)
    q_terms = _gap_quotient(potential, energy, x_lo, x_hi)
    n, rate = ORBIT_START_NODES, None
    while True:
        x, rate = _orbit_samples(q_terms, x_lo, x_hi, mass, n, rate)
        series = _cosine_series(rate)
        if np.max(np.abs(series[n // 2 :])) <= ORBIT_TAIL_TOL * np.max(rate):
            return _OrbitRule(x_lo, x_hi, q_terms, mass, x, rate, series)
        if n >= ORBIT_MAX_NODES:
            raise NumericalError(
                f"orbit rule at energy {energy} did not converge with {n} intervals"
            )
        n *= 2


def orbit_period(potential: PolynomialPotential, energy: float, mass: float) -> float:
    """Period T = 2 integral dx sqrt(m / (2 (E - V(x)))) over one libration.

    Raises :class:`NumericalError` where the orbit rule does not converge.
    """
    _check_positive("mass", mass)
    return _orbit_rule(potential, energy, mass).period


def action_direct(potential: PolynomialPotential, energy: float, mass: float) -> float:
    """Action J = 2 integral dx sqrt(2 m (E - V(x))), the loop integral of p dx.

    Raises :class:`NumericalError` where the orbit rule does not converge.
    """
    _check_positive("mass", mass)
    return _orbit_rule(potential, energy, mass).action


def _harmonic_rule(x, rate, series):
    """Phase psi_j = w t(phi_j) and weights with X_a = sum_j weight_j cos(a psi_j).

    With T = 2 pi a_0, psi(phi) = phi + sum_k a_k sin(k phi) / (k a_0): the
    cosine series integrated term by term, summed at the nodes by one real FFT
    of the odd extension (a DST-I).  It is 0 at x+ and pi at x- exactly.  The
    weights are the trapezoidal rule in phi, spectrally accurate on this
    smooth periodic integrand, of X_a = (1/pi) integral_0^pi x cos(a psi) dpsi
    with dpsi/dphi = rate / a_0.
    """
    n = rate.size - 1
    odd = np.zeros(2 * n)
    odd[1:n] = series[1:n] / (np.arange(1, n) * series[0])
    odd[n + 1 :] = -odd[n - 1 : 0 : -1]
    phase = np.arange(n + 1) * (math.pi / n) - 0.5 * np.fft.rfft(odd).imag
    weights = x * rate / (n * series[0])
    weights[0] *= 0.5
    weights[n] *= 0.5
    return phase, weights


def orbit_fourier(
    potential: PolynomialPotential,
    energy: float,
    mass: float,
    alpha_max: int,
) -> ClassicalOrbit:
    """Fourier coefficients X_a = (2/T) integral x(t) cos(a w t) dt over the half orbit.

    The orbit starts at the right turning point with zero velocity, so x(t) is
    even in time and every coefficient is real, X_-a = X_a.  The half orbit
    x+ -> x- is the Chebyshev-Lobatto rule of the module docstring, and the
    period is :func:`orbit_period`'s.  A harmonic a > n / 2 is summed on the
    rule doubled until n >= 2 a, so X_a depends on a and the orbit only, never
    on ``alpha_max``.  Raises :class:`NumericalError` where the rule does not
    converge (on (x^2 - 1)^2, at 1e-6 above the barrier; 1e-5 still converges),
    and ``ValueError`` for an ``alpha_max`` above ``ORBIT_MAX_NODES / 2``.
    """
    if alpha_max < 1:
        raise ValueError("alpha_max must be at least 1")
    if alpha_max > ORBIT_MAX_NODES // 2:
        raise ValueError(f"alpha_max must be at most {ORBIT_MAX_NODES // 2}")
    _check_positive("mass", mass)
    rule = _orbit_rule(potential, energy, mass)
    x, rate = rule.x, rule.rate
    n = rate.size - 1
    phase, weights = _harmonic_rule(x, rate, rule.series)
    coefficients = []
    for a in range(alpha_max + 1):
        if n < 2 * a:  # n >= 2 (a - 1) held, so one doubling resolves harmonic a
            n *= 2
            x, rate = _orbit_samples(rule.q_terms, rule.x_lo, rule.x_hi, mass, n, rate)
            phase, weights = _harmonic_rule(x, rate, _cosine_series(rate))
        coefficients.append(complex(float(np.dot(weights, np.cos(a * phase)))))
    fourier = {a: coefficients[abs(a)] for a in range(-alpha_max, alpha_max + 1)}
    return ClassicalOrbit(
        potential=potential,
        energy=energy,
        mass=mass,
        x_minus=rule.x_lo,
        x_plus=rule.x_hi,
        period=rule.period,
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
    """Solve J(E) = n h + J0 for the energy by safeguarded Newton steps.

    Each iterate reads one orbit rule for both J(E), the value of
    :func:`action_direct`, and its slope dJ/dE = T(E).  The first iterate is
    V_min + max(hbar, 1e-3); each one narrows the bracket (V_min, inf) to the
    side of the root it lies on, and a Newton step that leaves the bracket is
    replaced by its midpoint.  ``iterations`` counts the J(E) evaluations.
    Converged means |J - (n h + J0)| <= 1e-10 h within 200 evaluations.

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
    tolerance = 1e-10 * h
    energy, e_lo, e_hi = v_min + max(hbar, 1e-3), v_min, math.inf
    for iterations in range(1, 201):
        rule = _orbit_rule(potential, energy, mass)
        action = rule.action
        converged = abs(action - target) <= tolerance
        if converged or iterations == 200:
            break
        if action < target:
            e_lo = energy
        else:
            e_hi = energy
        energy -= (action - target) / rule.period
        if not e_lo < energy < e_hi:
            energy = 0.5 * (e_lo + e_hi)
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
    if pair.size != system.size:
        raise ValueError("matrix pair and system sizes disagree")
    size = system.size
    if n < alpha_max or n > size - 1 - alpha_max:
        raise ValueError(
            f"state {n} outside the correspondence window "
            f"[{alpha_max}, {size - 1 - alpha_max}]"
        )
    freq = transition_frequencies(system)
    e_n, mass = float(system.energies[n]), system.constants.mass
    q_ref = float(abs(pair.xb[n, n - 1]))
    orbit = None
    rows = []
    for a in range(1, alpha_max + 1):
        if energy_rule == "mean":
            e_mean = 0.5 * (e_n + float(system.energies[n - a]))
            orbit = orbit_fourier(potential, e_mean, mass, alpha_max=a)
        elif orbit is None:  # E* = E_n for every jump and X_a does not depend on alpha_max
            orbit = orbit_fourier(potential, e_n, mass, alpha_max=alpha_max)
        q_amp = float(abs(pair.xb[n, n - a]))
        c_amp = float(abs(orbit.fourier[a]))
        q_freq = float(freq[n, n - a])
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
