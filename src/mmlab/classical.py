"""Classical periodic orbits in confining 1-D polynomial potentials.

Every integral over an orbit comes from one quadrature rule per energy.
Deflating the turning points out of the energy gap,
E - V(x) = (x+ - x)(x - x-) Q(x), leaves dt/dphi = sqrt(m / (2 Q(x))) on the
half orbit x = mid + half * cos(phi), 0 <= phi <= pi, smooth up to both
turning points.  Sampled at the Chebyshev-Lobatto points, phi_j = pi j / n,
its cosine series gives the half period and, integrated term by term, the
time map t(phi); the point count doubles until that series has converged
(``ORBIT_START_NODES``, ``ORBIT_MAX_NODES``, ``ORBIT_TAIL_TOL``).  Rules for
several energies are built as one array, a row per energy: each row is
frozen at the node count where its own series converged, so it is the rule
its energy alone gets, and a harmonic doubling is one real FFT for the rows
that share a node count.  ``orbit_fourier`` takes such a sequence of
energies; one energy is the one-row case of the same builder.  The same
samples give the action: E - V = half^2 sin^2(phi) Q, so
J = 2 m half^2 integral_0^pi sin^2(phi) / (dt/dphi) dphi, a trapezoidal sum
on a smooth periodic integrand and so spectrally accurate.  A block of rules
gives T and J for every row at once, ``periods()`` and ``actions()``;
``orbit_period``, ``action_direct``, ``orbit_fourier`` and ``quantize`` all
read them, and ``quantize`` solves J(E) = n h + J0 by safeguarded Newton
steps with dJ/dE = T(E).  Orbits start at the right turning point with zero
velocity, which makes every Fourier coefficient real and X_-a = X_a, so a
:class:`ClassicalOrbit` holds X_0..X_alpha_max as one tuple of floats.

The potential owns V (see :class:`mmlab.spectral.PolynomialPotential`): its
Horner terms of V and V' and its critical points are computed once, at
construction.  The scalar hot loop (turning-point bracketing and Newton
steps) reads those terms once per call and runs in Python floats.  The
turning-point count of the topology check is read exactly off the critical
values, with no root solve per call.
"""

from __future__ import annotations

import functools
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
    _label,
    transition_frequencies,
)

#: Intervals of the first Chebyshev-Lobatto orbit rule, and the most a doubling may reach.
ORBIT_START_NODES = 64
ORBIT_MAX_NODES = 2**16
#: The orbit rule has converged when the upper half of the cosine series of
#: dt/dphi lies below this fraction of its largest sample.
ORBIT_TAIL_TOL = 1e-14
#: ``quantize`` also accepts an action this many ulps from its target: J(E) met it within 4
#: ulps at best on 984 levels (four potentials, n = 100..1e5, hbar = 0.37, 1, 1.9).
QUANTIZE_ULPS = 16
#: Amplitudes below this fraction of the alpha = 1 amplitude are rounding noise:
#: parity-forbidden jumps measured <= 3.3e-12 of it, allowed ones >= 1.5e-4.
AMP_NOISE_FLOOR = 1e-10


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def turning_points(potential: PolynomialPotential, energy: float) -> tuple[float, float]:
    """Classical turning points x- < x+ with V(x) = E.

    The energy must be finite and exceed the potential minimum.  At most two distinct real
    solutions (counted from the critical values) are allowed: an above-barrier
    double well is fine, a below-barrier one (four turning points) is rejected.
    """
    energy = float(energy)  # a numpy scalar would make the sign tests numpy bools
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
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
    """One periodic orbit x(t) = sum_a X_a exp(i a w t); ``harmonics`` holds its real
    coefficients X_0..X_alpha_max, which stand for X_-a = X_a as well."""

    potential: PolynomialPotential
    energy: float
    mass: float
    x_minus: float
    x_plus: float
    period: float
    harmonics: tuple[float, ...]

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        scale = max(abs(self.energy), 1.0)
        for xt in (self.x_minus, self.x_plus):
            if abs(float(self.potential(xt)) - self.energy) > 1e-10 * scale:
                raise ValueError("turning points do not match the orbit energy")
        if len(self.harmonics) < 2:
            raise ValueError("an orbit holds at least the harmonics X_0 and X_1")

    @property
    def alpha_max(self) -> int:
        """Highest harmonic held."""
        return len(self.harmonics) - 1

    @property
    def omega(self) -> float:
        """Fundamental angular frequency 2 pi / T."""
        return 2.0 * math.pi / self.period

    def momentum_fourier(self, alpha: int) -> complex:
        """Momentum coefficient P_a = i m a w X_a of p(t) = m dx/dt."""
        return 1j * self.mass * alpha * self.omega * self.harmonics[abs(alpha)]


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


@functools.lru_cache(maxsize=None)
def _lobatto(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos(phi_j) and sin(phi_j)^2 at the Lobatto angles phi_j = pi j / n, j = 0..n,
    and the trapezoidal end factors (1/2, 1, ..., 1, 1/2), read-only; one entry per
    node count a rule reaches (at most 11)."""
    phi = np.arange(n + 1) * (math.pi / n)
    ends = np.ones(n + 1)
    ends[::n] = 0.5
    arrays = (np.cos(phi), np.sin(phi) ** 2, ends)
    for array in arrays:
        array.setflags(write=False)
    return arrays


class _RuleBlock(NamedTuple):
    """Half orbits that share one node count n, a row each: the row's position in
    the energies asked for; the midpoint and half width of [x-, x+] as (k, 1)
    columns; the Horner terms of Q below the leading one as a (degree, k, 1)
    array; and the Lobatto points x_j, samples rate_j of dt/dphi and their
    cosine series as (k, n + 1) arrays (None before the first sampling)."""

    rows: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    q_rest: np.ndarray
    x: np.ndarray | None = None
    rate: np.ndarray | None = None
    series: np.ndarray | None = None

    def take(self, keep) -> _RuleBlock:
        """The rows selected by the boolean mask ``keep``."""
        rows, mid, half, q_rest, *samples = self
        return _RuleBlock(
            rows[keep], mid[keep], half[keep], q_rest[:, keep],
            *(None if a is None else a[keep] for a in samples),
        )

    def periods(self) -> np.ndarray:
        """T = 2 pi a_0 of each row, twice the half period."""
        return 2.0 * (math.pi * self.series[:, 0])

    def actions(self, mass: float) -> np.ndarray:
        """J = 2 m half^2 (pi / n) sum_j sin^2(phi_j) / rate_j of each row, the
        trapezoidal rule (its end terms are zero)."""
        n = self.rate.shape[1] - 1
        half = self.half[:, 0]
        sin2 = _lobatto(n)[1]
        return 2.0 * mass * half * half * (math.pi / n) * (sin2 / self.rate).sum(axis=1)


def _sample(top, block, mass, n, failures) -> _RuleBlock:
    """``block`` on the rule with n intervals: the points x_j = mid + half cos(pi j / n),
    the samples rate_j = sqrt(m / (2 Q(x_j))) of dt/dphi, j = 0..n, and their cosine
    series a_0..a_n (a DCT-I through one real FFT of the even extension).  A row
    with Q <= 0 at a point is recorded in the ``{row: exception}`` dict ``failures``
    and dropped.

    The block's ``rate``, when set, is dt/dphi on the rule with n / 2
    intervals, whose points are the even ones here, so only the odd points are
    evaluated.  ``top`` is the leading Horner term of Q, V's own.
    """
    x = block.mid + block.half * _lobatto(n)[0]
    rate = np.empty_like(x)
    fresh = slice(None)
    if block.rate is not None:
        rate[:, ::2] = block.rate
        fresh = slice(1, None, 2)
    q = _horner(top, block.q_rest, x[:, fresh])
    if isinstance(q, float):  # a quadratic V: Q is its leading coefficient
        q = np.full(rate[:, fresh].shape, q)
    bad = q <= 0.0
    if bad.any():
        bad = bad.any(axis=1)
        for row in block.rows[bad].tolist():
            failures[row] = NumericalError("potential exceeds the energy inside the well")
        block, x, rate, q = block.take(~bad), x[~bad], rate[~bad], q[~bad]
    rate[:, fresh] = np.sqrt(mass / (2.0 * q))
    series = np.fft.rfft(np.concatenate((rate, rate[:, -2:0:-1]), axis=1)).real / n
    series *= _lobatto(n)[2]  # halves a_0 and a_n
    return _RuleBlock(*block[:4], x, rate, series)


def _orbit_rules(potential, energies, mass) -> tuple[list, list, dict]:
    """Chebyshev-Lobatto rules at ``energies``: the turning points (x-, x+) of each
    energy up to the first whose solve failed, the rules as blocks of rows that
    converged at the same node count, and the failed rows as a
    ``{row: exception}`` dict.

    Each row starts at ``ORBIT_START_NODES`` intervals and doubles until the
    upper half of the cosine series of dt/dphi is below ``ORBIT_TAIL_TOL`` of
    its largest sample; a converged row is frozen there, so every row is the
    rule its energy alone would build.  Turning points and Q come energy by
    energy.  An energy that fails (below the minimum, four turning points, Q <= 0
    at a sample, or no convergence at ``ORBIT_MAX_NODES`` intervals) has an
    exception and no row; no energy after a failed turning-point solve is
    started.  The first failure in input order, ``min(failures)``, is what the
    one-energy calls, made in that order, would raise first.
    """
    ends, columns, failures = [], [], {}
    for row, energy in enumerate(energies):
        try:
            x_lo, x_hi = turning_points(potential, energy)
        except (ValueError, NumericalError) as exc:
            failures[row] = exc
            break
        ends.append((x_lo, x_hi))
        q_rest = _gap_quotient(potential, energy, x_lo, x_hi)[1]
        columns.append((0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo), *q_rest))
    if not ends:
        return ends, [], failures
    columns = np.array(columns).T[:, :, None]
    live = _RuleBlock(np.arange(len(ends)), columns[0], columns[1], columns[2:])
    top, blocks, n = potential.v_terms[0], [], ORBIT_START_NODES
    while True:
        live = _sample(top, live, mass, n, failures)
        if not live.rows.size:
            break
        tail = np.abs(live.series[:, n // 2 :]).max(axis=1)
        done = tail <= ORBIT_TAIL_TOL * live.rate.max(axis=1)
        if done.all():
            blocks.append(live)
            break
        if done.any():
            blocks.append(live.take(done))
            live = live.take(~done)
        if n >= ORBIT_MAX_NODES:
            for row in live.rows.tolist():
                failures[row] = NumericalError(
                    f"orbit rule at energy {energies[row]} did not converge with {n} intervals"
                )
            break
        n *= 2
    return ends, blocks, failures


def _orbit_rule(potential, energy, mass) -> tuple[float, float]:
    """The period and action at one energy, the one-row case of :func:`_orbit_rules`;
    raises what that energy failed with."""
    _, blocks, failures = _orbit_rules(potential, (energy,), mass)
    if failures:
        raise failures[0]
    (block,) = blocks
    return block.periods().item(), block.actions(mass).item()


def orbit_period(potential: PolynomialPotential, energy: float, mass: float) -> float:
    """Period T = 2 integral dx sqrt(m / (2 (E - V(x)))) over one libration.

    Raises :class:`NumericalError` where the orbit rule does not converge.
    """
    _check_positive("mass", mass)
    return _orbit_rule(potential, float(energy), mass)[0]


def action_direct(potential: PolynomialPotential, energy: float, mass: float) -> float:
    """Action J = 2 integral dx sqrt(2 m (E - V(x))), the loop integral of p dx.

    Raises :class:`NumericalError` where the orbit rule does not converge.
    """
    _check_positive("mass", mass)
    return _orbit_rule(potential, float(energy), mass)[1]


def _harmonic_rule(block):
    """Phase psi_j = w t(phi_j) and weights with X_a = sum_j weight_j cos(a psi_j),
    a row per half orbit of ``block``.

    With T = 2 pi a_0, psi(phi) = phi + sum_k a_k sin(k phi) / (k a_0): the
    cosine series integrated term by term, summed at the nodes by one real FFT
    of the odd extension (a DST-I).  It is 0 at x+ and pi at x- exactly.  The
    weights are the trapezoidal rule in phi, spectrally accurate on this
    smooth periodic integrand, of X_a = (1/pi) integral_0^pi x cos(a psi) dpsi
    with dpsi/dphi = rate / a_0.
    """
    x, rate, series = block.x, block.rate, block.series
    n = rate.shape[1] - 1
    odd = np.zeros((rate.shape[0], 2 * n))
    odd[:, 1:n] = series[:, 1:n] / (np.arange(1, n) * series[:, :1])
    odd[:, n + 1 :] = -odd[:, n - 1 : 0 : -1]
    phase = np.arange(n + 1) * (math.pi / n) - 0.5 * np.fft.rfft(odd).imag
    weights = x * rate / (n * series[:, :1])
    weights *= _lobatto(n)[2]
    return phase, weights


def _harmonics(top, block, mass, failures, harmonics) -> None:
    """X_0..X_alpha_max of each row of ``block``, written to row ``block.rows`` of the
    (energies, alpha_max + 1) array ``harmonics``.  A harmonic a > n / 2 is summed
    on the rules doubled until n >= 2 a, one real FFT for the block per doubling;
    a row whose doubled rule meets Q <= 0 is recorded in ``failures`` and dropped."""
    n = block.rate.shape[1] - 1
    phase, weights = _harmonic_rule(block)
    for a in range(harmonics.shape[1]):
        if n < 2 * a:  # n >= 2 (a - 1) held, so one doubling resolves harmonic a
            n *= 2
            block = _sample(top, block, mass, n, failures)
            if not block.rows.size:
                return
            phase, weights = _harmonic_rule(block)
        cosines = np.cos(a * phase)
        for row, w, c in zip(block.rows.tolist(), weights, cosines):
            harmonics[row, a] = np.dot(w, c)  # one dot per row: a batched sum rounds differently


def orbit_fourier(
    potential: PolynomialPotential,
    energy,
    mass: float,
    alpha_max: int,
):
    """Fourier coefficients X_a = (2/T) integral x(t) cos(a w t) dt over the half orbit.

    The orbit starts at the right turning point with zero velocity, so x(t) is
    even in time and every coefficient is real, X_-a = X_a.  The half orbit
    x+ -> x- is the Chebyshev-Lobatto rule of the module docstring, and the
    period is :func:`orbit_period`'s.  A harmonic a > n / 2 is summed on the
    rule doubled until n >= 2 a, so X_a depends on a and the orbit only, never
    on ``alpha_max``.  Raises :class:`NumericalError` where the rule does not
    converge (on (x^2 - 1)^2, at 1e-6 above the barrier; 1e-5 still converges),
    and ``ValueError`` for an ``alpha_max`` that is not an integer or lies above
    ``ORBIT_MAX_NODES / 2``.

    ``energy`` is a float, or a nonempty 1-D sequence of them for a tuple of
    orbits, each bit-identical to the call at its energy alone: the rules are
    built together, a row per energy, and each row keeps its own node count.
    A failing energy raises what the calls in input order would raise first.
    """
    alpha_max = _label("alpha_max", alpha_max)
    if alpha_max < 1:
        raise ValueError("alpha_max must be at least 1")
    if alpha_max > ORBIT_MAX_NODES // 2:
        raise ValueError(f"alpha_max must be at most {ORBIT_MAX_NODES // 2}")
    _check_positive("mass", mass)
    single = np.ndim(energy) == 0
    if not single and (np.ndim(energy) != 1 or len(energy) == 0):
        raise ValueError("energy must be a float or a nonempty 1-D sequence of floats")
    energies = (float(energy),) if single else tuple(map(float, energy))
    ends, blocks, failures = _orbit_rules(potential, energies, mass)
    periods = np.empty(len(ends))
    harmonics = np.empty((len(ends), alpha_max + 1))
    for block in blocks:
        periods[block.rows] = block.periods()
        _harmonics(potential.v_terms[0], block, mass, failures, harmonics)
    periods, harmonics = periods.tolist(), harmonics.tolist()
    first_failure = min(failures, default=None)
    orbits = []
    for row, energy in enumerate(energies):
        if row == first_failure:
            raise failures[row]
        x_lo, x_hi = ends[row]
        orbits.append(ClassicalOrbit(
            potential=potential,
            energy=energy,
            mass=mass,
            x_minus=x_lo,
            x_plus=x_hi,
            period=periods[row],
            harmonics=tuple(harmonics[row]),
        ))
    return orbits[0] if single else tuple(orbits)


def action_from_fourier(orbit: ClassicalOrbit) -> float:
    """Action from the harmonic content, J = 2 pi m w sum_a a^2 |X_a|^2.

    Requires the retained harmonics to have converged: |X_(alpha_max)| must be
    below 1e-8 |X_1|.  An orbit with no harmonic content at all (no motion)
    has zero action.
    """
    moving = max(abs(coeff) for coeff in orbit.harmonics[1:])
    if moving == 0.0:
        return 0.0
    if abs(orbit.harmonics[-1]) >= 1e-8 * abs(orbit.harmonics[1]):
        raise ValueError(
            "harmonic truncation test failed: increase alpha_max until the "
            "last retained coefficient is below 1e-8 of the fundamental"
        )
    total = 0.0
    for a in range(-orbit.alpha_max, orbit.alpha_max + 1):
        coeff = orbit.harmonics[abs(a)]
        total += a * a * (coeff * coeff)
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
    Converged means |J - (n h + J0)| <= max(1e-12 h, 16 ulp(n h + J0)) within
    200 evaluations.  1e-12 h, a hundredth of the 1e-10 h that the energy written
    with 15 significant digits is checked against, governs while the target is
    at most 281 h (ulp(x) <= 2^-52 x; n <= 325 at hbar = 1), so rounding cannot
    carry such a level past that check.  Above, it lies below the rounding of
    J(E) and ``QUANTIZE_ULPS`` ulps take over.  Past 28147 h those may exceed
    1e-10 h (at hbar = 1 from n = 41722 on); there converged means within 16 ulps.

    ``offset`` is the undetermined additive constant J0 of the action rule,
    passed explicitly (0 for the bare rule, h/2 for the half-quantum shift).
    A zero target returns the potential minimum by convention.
    """
    n = _label("n", n)
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
    tolerance = max(1e-12 * h, QUANTIZE_ULPS * math.ulp(target))
    energy, e_lo, e_hi = v_min + max(hbar, 1e-3), v_min, math.inf
    for iterations in range(1, 201):
        period, action = _orbit_rule(potential, energy, mass)
        converged = abs(action - target) <= tolerance
        if converged or iterations == 200:
            break
        if action < target:
            e_lo = energy
        else:
            e_hi = energy
        energy -= (action - target) / period
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
    n, alpha_max = _label("state label", n), _label("alpha_max", alpha_max)
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
    # X_a does not depend on alpha_max, so one call serves every jump
    if energy_rule == "mean":
        means = [0.5 * (e_n + float(system.energies[n - a])) for a in range(1, alpha_max + 1)]
        orbits = orbit_fourier(potential, means, mass, alpha_max=alpha_max)
    else:
        orbits = (orbit_fourier(potential, e_n, mass, alpha_max=alpha_max),) * alpha_max
    rows = []
    for a, orbit in enumerate(orbits, start=1):
        q_amp = float(abs(pair.xb[n, n - a]))
        c_amp = float(abs(orbit.harmonics[a]))
        q_freq = float(freq[n, n - a])
        c_freq = a * orbit.omega
        lead = abs(orbit.harmonics[1])
        noise = q_amp < AMP_NOISE_FLOOR * q_ref and c_amp < AMP_NOISE_FLOOR * lead
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
