import math

import numpy as np
import pytest

import mmlab as M
from mmlab import classical
from mmlab.classical import _rel_dev

QUARTIC_COEFFS = (0.0, 0.0, 0.5, 0.0, 0.05)

SHO = M.PolynomialPotential((0.0, 0.0, 0.5))
PURE_QUARTIC = M.PolynomialPotential((0.0, 0.0, 0.0, 0.0, 0.25))
PERTURBED = M.PolynomialPotential(QUARTIC_COEFFS)
DOUBLE_WELL = M.PolynomialPotential((1.0, 0.0, -2.0, 0.0, 1.0))  # (x^2 - 1)^2


class TestTurningPoints:
    def test_oscillator_amplitude(self):
        lo, hi = M.turning_points(SHO, 2.0)
        assert lo == pytest.approx(-2.0, abs=1e-12)
        assert hi == pytest.approx(+2.0, abs=1e-12)

    def test_pure_quartic(self):
        lo, hi = M.turning_points(PURE_QUARTIC, 1.0)
        assert hi == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert lo == pytest.approx(-math.sqrt(2.0), abs=1e-9)

    def test_energy_below_minimum(self):
        with pytest.raises(ValueError):
            M.turning_points(SHO, -1.0)

    def test_below_barrier_double_well_rejected(self):
        with pytest.raises(M.UnsupportedTopologyError):
            M.turning_points(DOUBLE_WELL, 0.5)

    def test_energy_at_a_repeated_critical_point_counts_it_once(self):
        # V' = 12 x^2 (x - 1): the inflection at 0 is a double root of V', solved twice
        inflected = M.PolynomialPotential((0.0, 0.0, 0.0, -4.0, 3.0))
        assert [x for x, _ in inflected.critical_points] == [0.0, 1.0]
        lo, hi = M.turning_points(inflected, 0.0)
        assert abs(lo) <= 1e-12
        assert hi == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_above_barrier_double_well_accepted(self):
        lo, hi = M.turning_points(DOUBLE_WELL, 2.0)
        expected = math.sqrt(1.0 + math.sqrt(2.0))
        assert hi == pytest.approx(expected, abs=1e-9)
        assert lo == pytest.approx(-expected, abs=1e-9)


class TestOrbitPeriod:
    def test_oscillator_is_isochronous(self):
        for energy in (0.5, 1.0, 4.0, 9.0):
            assert M.orbit_period(SHO, energy, 1.0) == pytest.approx(
                2.0 * math.pi, abs=1e-10
            )

    def test_stiffer_potential_shortens_period(self, monkeypatch):
        period = M.orbit_period(PERTURBED, 0.5, 1.0)
        assert period < 2.0 * math.pi
        # oracle: the same quadrature at doubled resolution
        monkeypatch.setattr(classical, "GAUSS_NODES", 400)
        assert period == pytest.approx(M.orbit_period(PERTURBED, 0.5, 1.0), rel=1e-9)

    def test_action_slope_matches_period(self):
        for potential in (SHO, PURE_QUARTIC, PERTURBED):
            for energy in (0.5, 1.0, 2.0, 4.0, 8.0):
                step = 1e-4 * energy
                slope = (
                    M.action_direct(potential, energy + step, 1.0)
                    - M.action_direct(potential, energy - step, 1.0)
                ) / (2.0 * step)
                period = M.orbit_period(potential, energy, 1.0)
                assert abs(slope - period) <= 1e-6 * period


class TestOrbitFourier:
    def test_oscillator_is_a_pure_cosine(self):
        orbit = M.orbit_fourier(SHO, 2.0, 1.0, alpha_max=3)
        assert orbit.fourier[1].real == pytest.approx(1.0, abs=1e-8)
        assert orbit.fourier[-1].real == pytest.approx(1.0, abs=1e-8)
        for a in (0, 2, -2, 3, -3):
            assert abs(orbit.fourier[a]) <= 1e-8

    def test_symmetric_potential_kills_even_harmonics(self):
        orbit = M.orbit_fourier(PERTURBED, 2.0, 1.0, alpha_max=4)
        assert abs(orbit.fourier[0]) <= 1e-8
        assert abs(orbit.fourier[2]) <= 1e-8
        assert abs(orbit.fourier[4]) <= 1e-8
        assert abs(orbit.fourier[3]) > 1e-4

    def test_conjugate_symmetry_asymmetric_well(self):
        lopsided = M.PolynomialPotential((0.0, 0.3, 0.5, 0.1, 0.05))
        orbit = M.orbit_fourier(lopsided, 1.5, 1.0, alpha_max=5)
        for a in range(6):
            assert abs(orbit.fourier[a] - orbit.fourier[-a].conjugate()) <= 1e-10

    def test_momentum_coefficients(self):
        orbit = M.orbit_fourier(SHO, 2.0, 1.0, alpha_max=2)
        expected = 1j * 1.0 * orbit.omega * orbit.fourier[1]
        assert orbit.momentum_fourier(1) == pytest.approx(expected, abs=1e-12)

    def test_energy_drift_detected(self, monkeypatch):
        monkeypatch.setattr(classical, "RK4_STEPS", 8)
        with pytest.raises(M.NumericalError):
            M.orbit_fourier(PERTURBED, 2.0, 1.0, alpha_max=2)

    def test_turning_point_consistency(self):
        orbit = M.orbit_fourier(PERTURBED, 2.0, 1.0, alpha_max=3)
        assert orbit.potential(orbit.x_plus) == pytest.approx(2.0, rel=1e-10)
        assert orbit.omega == pytest.approx(2.0 * math.pi / orbit.period, rel=1e-15)


class TestActions:
    def test_oscillator_closed_form(self):
        for energy in (0.5, 2.0, 7.0):
            assert M.action_direct(SHO, energy, 1.0) == pytest.approx(
                2.0 * math.pi * energy, rel=1e-9
            )

    def test_harmonic_well_limit(self):
        # J(eps)/eps approaches 2 pi / omega_well near the bottom
        eps = 1e-4
        ratio = M.action_direct(PERTURBED, eps, 1.0) / eps
        assert abs(ratio - 2.0 * math.pi) <= 0.01 * 2.0 * math.pi

    def test_fourier_form_agrees(self):
        orbit = M.orbit_fourier(PURE_QUARTIC, 1.0, 1.0, alpha_max=13)
        direct = M.action_direct(PURE_QUARTIC, 1.0, 1.0)
        assert abs(M.action_from_fourier(orbit) - direct) <= 1e-6 * direct

    def test_oscillator_fourier_action(self):
        orbit = M.orbit_fourier(SHO, 2.0, 1.0, alpha_max=3)
        assert M.action_from_fourier(orbit) == pytest.approx(4.0 * math.pi, rel=1e-8)

    def test_truncation_guard(self):
        orbit = M.orbit_fourier(PURE_QUARTIC, 1.0, 1.0, alpha_max=3)
        with pytest.raises(ValueError):
            M.action_from_fourier(orbit)

    def test_motionless_orbit_has_zero_action(self):
        still = M.ClassicalOrbit(
            potential=SHO,
            energy=0.0,
            mass=1.0,
            x_minus=0.0,
            x_plus=0.0,
            period=2.0 * math.pi,
            alpha_max=2,
            fourier={a: 0j for a in range(-2, 3)},
        )
        assert M.action_from_fourier(still) == 0.0


class TestQuantize:
    def test_oscillator_levels(self):
        result = M.quantize(SHO, 1.0, 1.0, 0.0, 3)
        assert result.converged
        assert result.energy == pytest.approx(3.0, abs=1e-9)
        assert abs(result.action - 3.0 * 2.0 * math.pi) <= 1e-10 * 2.0 * math.pi

    def test_half_quantum_offset(self):
        h = 2.0 * math.pi
        result = M.quantize(SHO, 1.0, 1.0, h / 2.0, 0)
        assert result.energy == pytest.approx(0.5, abs=1e-9)

    def test_zero_target_returns_minimum(self):
        result = M.quantize(SHO, 1.0, 1.0, 0.0, 0)
        assert result.converged and result.iterations == 0
        assert result.energy == 0.0 and result.action == 0.0

    def test_gaps_are_uniform(self):
        energies = [M.quantize(SHO, 1.0, 1.0, 0.0, n).energy for n in range(6)]
        gaps = np.diff(energies)
        assert np.max(np.abs(gaps - 1.0)) <= 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            M.quantize(SHO, 1.0, 1.0, 0.0, -1)
        with pytest.raises(ValueError):
            M.quantize(SHO, 1.0, 1.0, -0.5, 1)

    @pytest.mark.parametrize(
        "mass, hbar, offset, name",
        [
            (-1.0, 1.0, 0.0, "mass"), (0.0, 1.0, 0.0, "mass"), (math.nan, 1.0, 0.0, "mass"),
            (math.inf, 1.0, 0.0, "mass"), (1.0, 0.0, 0.0, "hbar"), (1.0, -1.0, 0.0, "hbar"),
            (1.0, math.nan, 0.0, "hbar"), (1.0, math.inf, 0.0, "hbar"),
            (1.0, 1.0, math.nan, "offset"), (1.0, 1.0, math.inf, "offset"),
        ],
    )
    def test_rejects_non_physical_constants(self, mass, hbar, offset, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            M.quantize(SHO, mass, hbar, offset, 1)


@pytest.mark.parametrize("mass", [-1.0, 0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda mass: M.orbit_period(SHO, 1.0, mass),
        lambda mass: M.action_direct(SHO, 1.0, mass),
        lambda mass: M.orbit_fourier(SHO, 1.0, mass, 2),
    ],
    ids=["orbit_period", "action_direct", "orbit_fourier"],
)
def test_orbit_integrals_reject_non_physical_mass(evaluate, mass):
    with pytest.raises(ValueError, match=f"^mass must be finite and positive, got {mass}$"):
        evaluate(mass)


def _ref_state_rows(pair, system, potential, n, alpha_max):
    # the energy_rule="state" loop that integrated one orbit per jump, all at E_n
    freq = M.transition_frequencies(system)
    rows = []
    for a in range(1, alpha_max + 1):
        e_star = float(system.energies[n])
        orbit = M.orbit_fourier(potential, e_star, system.constants.mass, alpha_max=a)
        q_amp = float(abs(pair.x[n, n - a]))
        c_amp = float(abs(orbit.fourier[a]))
        q_freq = float(freq.omega[n, n - a])
        c_freq = a * orbit.omega
        floor = classical.AMP_NOISE_FLOOR
        noise = q_amp < floor * abs(pair.x[n, n - 1]) and c_amp < floor * abs(orbit.fourier[1])
        rows.append(
            M.CorrespondenceRow(
                n=n,
                alpha=a,
                energy=e_star,
                quantum_amp=q_amp,
                classical_amp=c_amp,
                amp_rel_dev=0.0 if noise else _rel_dev(q_amp, c_amp),
                quantum_freq=q_freq,
                classical_freq=c_freq,
                freq_rel_dev=_rel_dev(q_freq, c_freq),
            )
        )
    return tuple(rows)


class TestCorrespondence:
    def test_oscillator_exact_match(self, constants):
        system, pair = M.build_oscillator(constants, 8)
        report = M.correspondence_report(pair, system, SHO, 5, 1, "mean")
        row = report.rows[0]
        # mean rule puts the classical energy exactly at n hbar omega
        assert row.energy == pytest.approx(5.0, abs=1e-12)
        assert row.quantum_amp == pytest.approx(math.sqrt(2.5), abs=1e-10)
        assert abs(row.quantum_amp - row.classical_amp) <= 1e-8
        assert abs(row.quantum_freq - row.classical_freq) <= 1e-8

    def test_oscillator_has_no_second_harmonic(self, constants):
        system, pair = M.build_oscillator(constants, 10)
        report = M.correspondence_report(pair, system, SHO, 5, 2, "mean")
        row = report.rows[1]
        assert row.alpha == 2
        assert row.quantum_amp <= 1e-8
        assert row.classical_amp <= 1e-8

    def test_state_rule_uses_state_energy(self, constants):
        system, pair = M.build_oscillator(constants, 8)
        report = M.correspondence_report(pair, system, SHO, 5, 1, "state")
        assert report.rows[0].energy == pytest.approx(5.5, abs=1e-12)

    def test_quartic_correspondence(self, quartic40):
        system, pair = quartic40
        report = M.correspondence_report(pair, system, PERTURBED, 20, 1, "mean")
        assert report.rows[0].amp_rel_dev <= 0.02

    @pytest.mark.parametrize("case", ["sho", "quartic"])
    def test_jumps_forbidden_on_both_sides_agree(self, request, constants, case):
        # parity forbids every jump beyond 1 of the SHO and the even jumps of the
        # symmetric quartic: both amplitudes are rounding noise, not a 100 % deviation
        if case == "sho":
            (system, pair), potential, alpha_max = M.build_oscillator(constants, 16), SHO, 3
            forbidden = {2, 3}
        else:
            system, pair = request.getfixturevalue("quartic40")
            potential, alpha_max, forbidden = PERTURBED, 2, {2}
        noisy = 0
        for n in range(alpha_max, system.size - alpha_max, 3):
            for rule in ("mean", "state"):
                report = M.correspondence_report(pair, system, potential, n, alpha_max, rule)
                for row in report.rows:
                    if row.alpha in forbidden:
                        assert row.quantum_amp <= 1e-11 and row.classical_amp <= 1e-11
                        noisy += row.classical_amp > 0.0
                        assert row.amp_rel_dev == 0.0
                    else:
                        assert row.amp_rel_dev == _rel_dev(row.quantum_amp, row.classical_amp)
        assert noisy  # nonzero classical noise, which the plain ratio read as 1

    @pytest.mark.parametrize("case", ["sho", "quartic", "lopsided"])
    def test_state_rule_rows_equal_per_jump_orbits_bitwise(self, request, constants, case):
        if case == "sho":
            (system, pair), potential = M.build_oscillator(constants, 12), SHO
        elif case == "quartic":
            (system, pair), potential = request.getfixturevalue("quartic40"), PERTURBED
        else:
            potential = LOPSIDED
            system, pair = M.build_from_potential(potential, constants, 48, 12)
        alpha_max = 4
        for n in range(alpha_max, system.size - alpha_max, 3):
            report = M.correspondence_report(pair, system, potential, n, alpha_max, "state")
            expected = _ref_state_rows(pair, system, potential, n, alpha_max)
            assert repr(report.rows) == repr(expected)

    def test_state_rule_integrates_one_orbit_per_report(self, constants, monkeypatch):
        system, pair = M.build_oscillator(constants, 12)
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["alpha_max"])
            return M.orbit_fourier(*args, **kwargs)

        monkeypatch.setattr(classical, "orbit_fourier", counting)
        M.correspondence_report(pair, system, SHO, 5, 4, "state")
        assert calls == [4]
        calls.clear()
        M.correspondence_report(pair, system, SHO, 5, 4, "mean")
        assert calls == [1, 2, 3, 4]

    def test_window_violation(self, constants):
        system, pair = M.build_oscillator(constants, 8)
        with pytest.raises(ValueError):
            M.correspondence_report(pair, system, SHO, 0, 1)
        with pytest.raises(ValueError):
            M.correspondence_report(pair, system, SHO, 7, 1)
        with pytest.raises(ValueError):
            M.correspondence_report(pair, system, SHO, 5, 1, "median")


# Reference copy of the classical layer as it was before its scalar loops moved
# to Python floats: every V evaluation through polyval, the minimum solved on
# each call, the turning points solved again for the period, and the closure
# acceleration.  The shipped functions must reproduce it bit for bit.


def _ref_minimum(potential):
    dcoef = np.polynomial.polynomial.polyder(potential.coefficients)
    roots = np.polynomial.polynomial.polyroots(dcoef)
    candidates = [r.real for r in np.atleast_1d(roots) if abs(r.imag) <= 1e-9 * (1.0 + abs(r))]
    if not candidates:
        candidates = [0.0]
    values = [float(potential(x)) for x in candidates]
    best = int(np.argmin(values))
    return float(candidates[best]), values[best]


def _ref_turning_points(potential, energy):
    x_min, v_min = _ref_minimum(potential)
    if not energy > v_min:
        raise ValueError(f"energy {energy} does not exceed the potential minimum {v_min}")
    shifted = potential.coefficients.copy()
    shifted[0] -= energy
    roots = np.polynomial.polynomial.polyroots(shifted)
    real = sorted(
        r.real for r in np.atleast_1d(roots) if abs(r.imag) <= 1e-8 * (1.0 + abs(r))
    )
    distinct = []
    for r in real:
        if not distinct or abs(r - distinct[-1]) > 1e-8 * (1.0 + abs(r)):
            distinct.append(r)
    if len(distinct) > 2:
        raise M.UnsupportedTopologyError(
            f"{len(distinct)} turning points at energy {energy}; "
            "below-barrier multi-well orbits are not supported"
        )

    def crossing(direction):
        step = max(1.0, abs(x_min))
        inner = x_min
        outer = x_min + direction * step
        expansions = 0
        while potential(outer) < energy:
            inner = outer
            step *= 2.0
            outer = x_min + direction * step
            expansions += 1
            if expansions > 200:
                raise M.NumericalError("turning-point bracket expansion failed")
        lo, hi = (inner, outer) if direction > 0 else (outer, inner)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (potential(mid) - energy) * (potential(hi) - energy) <= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return crossing(-1.0), crossing(+1.0)


def _ref_well_samples(potential, energy, nodes):
    x_lo, x_hi = _ref_turning_points(potential, energy)
    mid = 0.5 * (x_lo + x_hi)
    half = 0.5 * (x_hi - x_lo)
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * t
    x = mid + half * np.sin(theta)
    gap = energy - potential(x)
    if np.any(gap <= 0.0):
        raise M.NumericalError("potential exceeds the energy inside the well")
    return half, theta, w, gap


def _ref_orbit_period(potential, energy, mass, nodes=200):
    half, theta, w, gap = _ref_well_samples(potential, energy, nodes)
    integrand = half * np.cos(theta) * np.sqrt(mass / (2.0 * gap))
    return float(2.0 * 0.5 * math.pi * np.dot(w, integrand))


def _ref_action_direct(potential, energy, mass, nodes=200):
    half, theta, w, gap = _ref_well_samples(potential, energy, nodes)
    integrand = half * np.cos(theta) * np.sqrt(2.0 * mass * gap)
    return float(2.0 * 0.5 * math.pi * np.dot(w, integrand))


def _ref_orbit_fourier(potential, energy, mass, alpha_max, rk_steps=4096, nodes=200):
    """(x-, x+, period, Fourier coefficients) of the reference orbit."""
    x_lo, x_hi = _ref_turning_points(potential, energy)
    period = _ref_orbit_period(potential, energy, mass, nodes)
    dcoef = np.polynomial.polynomial.polyder(potential.coefficients)
    desc = tuple(float(c) for c in dcoef[::-1])

    def acceleration(pos):
        slope = 0.0
        for c in desc:
            slope = slope * pos + c
        return -slope / mass

    dt = period / rk_steps
    samples = np.empty(rk_steps)
    x, v = x_hi, 0.0
    for j in range(rk_steps):
        samples[j] = x
        k1x = v
        k1v = acceleration(x)
        k2x = v + 0.5 * dt * k1v
        k2v = acceleration(x + 0.5 * dt * k1x)
        k3x = v + 0.5 * dt * k2v
        k3v = acceleration(x + 0.5 * dt * k2x)
        k4x = v + dt * k3v
        k4v = acceleration(x + dt * k3x)
        x += dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    base = 2.0 * math.pi / period
    times = np.arange(rk_steps) * dt
    fourier = {}
    for a in range(-alpha_max, alpha_max + 1):
        fourier[a] = complex(np.dot(samples, np.exp(-1j * a * base * times)) / rk_steps)
    return x_lo, x_hi, period, fourier


def _ref_quantize(potential, mass, hbar, offset, n):
    """(energy, action, converged, iterations) of the reference action rule."""
    h = 2.0 * math.pi * hbar
    target = n * h + offset
    _, v_min = _ref_minimum(potential)
    step = max(hbar, 1e-3)
    e_hi = v_min + step
    expansions = 0
    while _ref_action_direct(potential, e_hi, mass) < target:
        step *= 2.0
        e_hi = v_min + step
        expansions += 1
        if expansions > 200:
            raise M.NumericalError("action bracketing failed; J(E) did not reach the target")
    e_lo = v_min
    tolerance = 1e-10 * h
    iterations = 0
    converged = False
    energy = e_hi
    action = _ref_action_direct(potential, energy, mass)
    while iterations < 200:
        energy = 0.5 * (e_lo + e_hi)
        action = _ref_action_direct(potential, energy, mass)
        iterations += 1
        if abs(action - target) <= tolerance:
            converged = True
            break
        if action < target:
            e_lo = energy
        else:
            e_hi = energy
    return energy, action, converged, iterations


LOPSIDED = M.PolynomialPotential((0.0, 0.3, 0.5, 0.1, 0.05))
SEXTIC = M.PolynomialPotential((0.0, 0.1, 0.5, -0.05, 0.1, 0.01, 0.005))
CONVEX = {
    "sho": SHO,
    "pure_quartic": PURE_QUARTIC,
    "perturbed": PERTURBED,
    "lopsided": LOPSIDED,
    "sextic": SEXTIC,
}
MASSES = (0.5, 1.0, 2.0)


def _energies(name):
    """Energies above the minimum; the double well's lie above its barrier V(0) = 1."""
    if name == "double_well":
        return (1.2, 2.0, 6.0)
    v_min = CONVEX[name].minimum()[1]
    return tuple(v_min + d for d in (0.05, 1.3, 6.0))


ALL = dict(CONVEX, double_well=DOUBLE_WELL)


class TestBitIdenticalToPolyvalReference:
    @pytest.mark.parametrize("name", sorted(ALL))
    def test_turning_points(self, name):
        for energy in _energies(name):
            new = M.turning_points(ALL[name], energy)
            ref = _ref_turning_points(ALL[name], energy)
            assert new == ref
            assert repr(new) == repr(ref)  # repr round-trips, so the signs of zeros agree too

    @pytest.mark.parametrize("name", sorted(ALL))
    @pytest.mark.parametrize("mass", MASSES)
    def test_period_and_action(self, name, mass):
        for energy in _energies(name):
            period = M.orbit_period(ALL[name], energy, mass)
            action = M.action_direct(ALL[name], energy, mass)
            assert period == _ref_orbit_period(ALL[name], energy, mass)
            assert action == _ref_action_direct(ALL[name], energy, mass)

    @pytest.mark.parametrize("name", sorted(ALL))
    @pytest.mark.parametrize("mass", MASSES)
    def test_orbit_fourier(self, name, mass):
        energy = _energies(name)[1]
        orbit = M.orbit_fourier(ALL[name], energy, mass, alpha_max=4)
        new = (orbit.x_minus, orbit.x_plus, orbit.period, orbit.fourier)
        ref = _ref_orbit_fourier(ALL[name], energy, mass, alpha_max=4)
        assert new == ref
        assert repr(new) == repr(ref)
        assert orbit.period == M.orbit_period(ALL[name], energy, mass)

    @pytest.mark.parametrize(
        "name, mass, n, offset",  # J0 = 0 or h/2 at hbar = 1; every mass, every convex well
        [
            ("sho", 0.5, 1, 0.0),
            ("pure_quartic", 1.0, 2, math.pi),
            ("perturbed", 2.0, 1, math.pi),
            ("lopsided", 0.5, 2, 0.0),
            ("sextic", 1.0, 1, 0.0),
            ("sextic", 2.0, 2, math.pi),
        ],
    )
    def test_quantize(self, name, mass, n, offset):
        result = M.quantize(CONVEX[name], mass, 1.0, offset, n)
        new = (result.energy, result.action, result.converged, result.iterations)
        assert new == _ref_quantize(CONVEX[name], mass, 1.0, offset, n)

    def test_below_barrier_quantize_fails_alike(self):
        with pytest.raises(M.UnsupportedTopologyError) as new:
            M.quantize(DOUBLE_WELL, 1.0, 0.5, 0.0, 1)
        with pytest.raises(M.UnsupportedTopologyError) as ref:
            _ref_quantize(DOUBLE_WELL, 1.0, 0.5, 0.0, 1)
        assert str(new.value) == str(ref.value)


def _classical_results():
    """repr of every classical entry point on the module's potentials, built at import."""
    out = []
    for name in sorted(ALL):
        energy = _energies(name)[1]
        out.append(M.turning_points(ALL[name], energy))
        out.append(M.action_direct(ALL[name], energy, 1.0))
        out.append(M.orbit_period(ALL[name], energy, 2.0))
        orbit = M.orbit_fourier(ALL[name], energy, 0.5, alpha_max=4)
        out.append((orbit.x_minus, orbit.x_plus, orbit.period, orbit.fourier))
    for name in sorted(CONVEX):
        result = M.quantize(CONVEX[name], 1.0, 1.0, math.pi, 1)
        out.append((result.energy, result.action, result.converged, result.iterations))
    with pytest.raises(M.UnsupportedTopologyError) as below:
        M.quantize(DOUBLE_WELL, 1.0, 0.5, 0.0, 1)
    out.append(str(below.value))
    return repr(out)


def test_no_polynomial_solve_or_polyval_after_construction(monkeypatch):
    expected = _classical_results()

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy polynomial routine called after construction")

    for name in ("polyroots", "polyval", "polyder"):
        monkeypatch.setattr(np.polynomial.polynomial, name, forbidden)
    assert _classical_results() == expected
