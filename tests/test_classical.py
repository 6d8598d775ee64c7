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

# (potential, E, T, J) at m = 1, to 30 digits.  Two 40-digit mpmath quadratures, by
# x = mid + half cos(phi) with Gauss-Legendre and directly in x with tanh-sinh, agree
# to 1e-22 in T and to all 40 digits in J; the double well's T also equals its
# elliptic closed form 4 K(-(1 + s) / (s - 1)) / sqrt(2 (s - 1)), s = sqrt(E).  The
# last row is V = x + x^2 + x^4 / 2 at 1e-3 above its minimum -0.22806432780939334.
NEAR_SINGULAR = [
    (DOUBLE_WELL, 1.001, 11.0651891220202628533064197181, 5.34539920008621574009319557924),
    (DOUBLE_WELL, 1.01, 8.7539222028585791788727169109, 5.43091844894023719876677534371),
    (DOUBLE_WELL, 1.05, 7.11964708989796807086067105528, 5.74006708342184535040014341616),
    (DOUBLE_WELL, 1.2, 5.68452602890162237073386783965, 6.67659171634123324003127311569),
    (
        M.PolynomialPotential((0.0, 1.0, 1.0, 0.0, 0.5)),
        -0.22706432780939334,
        3.58148564354516320444234439061,
        0.00358143843597945878531441645715,
    ),
]


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

    def test_stiffer_potential_shortens_period(self):
        period = M.orbit_period(PERTURBED, 0.5, 1.0)
        assert period < 2.0 * math.pi
        # oracle: 400 Gauss-Legendre nodes on the undeflated E - V
        assert period == pytest.approx(_ref_orbit_period(PERTURBED, 0.5, 1.0, 400), rel=1e-9)

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
        assert orbit.harmonics[1] == pytest.approx(1.0, abs=1e-8)
        for a in (0, 2, 3):
            assert abs(orbit.harmonics[a]) <= 1e-8

    def test_symmetric_potential_kills_even_harmonics(self):
        orbit = M.orbit_fourier(PERTURBED, 2.0, 1.0, alpha_max=4)
        assert abs(orbit.harmonics[0]) <= 1e-8
        assert abs(orbit.harmonics[2]) <= 1e-8
        assert abs(orbit.harmonics[4]) <= 1e-8
        assert abs(orbit.harmonics[3]) > 1e-4

    def test_conjugate_symmetry_asymmetric_well(self):
        lopsided = M.PolynomialPotential((0.0, 0.3, 0.5, 0.1, 0.05))
        orbit = M.orbit_fourier(lopsided, 1.5, 1.0, alpha_max=5)
        # one real X_a stands for X_a and X_-a, so the symmetry holds by format
        assert len(orbit.harmonics) == 6
        assert all(type(coeff) is float for coeff in orbit.harmonics)
        for a in range(6):
            assert orbit.momentum_fourier(-a) == orbit.momentum_fourier(a).conjugate()

    def test_momentum_coefficients(self):
        orbit = M.orbit_fourier(SHO, 2.0, 1.0, alpha_max=2)
        expected = 1j * 1.0 * orbit.omega * orbit.harmonics[1]
        assert orbit.momentum_fourier(1) == pytest.approx(expected, abs=1e-12)

    def test_unconverged_rule_raises(self, monkeypatch):
        # the quartic's rule converges at 64 intervals; started and capped at 16 it
        # must fail loudly
        monkeypatch.setattr(classical, "ORBIT_START_NODES", 16)
        monkeypatch.setattr(classical, "ORBIT_MAX_NODES", 16)
        with pytest.raises(M.NumericalError, match="did not converge with 16 intervals"):
            M.orbit_fourier(PERTURBED, 2.0, 1.0, alpha_max=2)

    def test_alpha_max_beyond_the_finest_rule_rejected(self, monkeypatch):
        monkeypatch.setattr(classical, "ORBIT_MAX_NODES", 64)
        limit = 32
        M.orbit_fourier(SHO, 1.0, 1.0, alpha_max=limit)
        with pytest.raises(ValueError, match=f"^alpha_max must be at most {limit}$"):
            M.orbit_fourier(SHO, 1.0, 1.0, alpha_max=limit + 1)

    @pytest.mark.parametrize("energy", [1.001, 1.01])
    def test_near_barrier_orbit_is_returned(self, energy):
        # just above the barrier V(0) = 1 dt/dx peaks sharply at x = 0; the rule refines
        # until it resolves the peak, and the orbit's harmonics are real
        orbit = M.orbit_fourier(DOUBLE_WELL, energy, 1.0, alpha_max=4)
        assert all(type(coeff) is float for coeff in orbit.harmonics)
        for a in (0, 2, 4):  # V is even
            assert abs(orbit.harmonics[a]) <= 1e-14
        assert orbit.harmonics[1] > orbit.harmonics[3] > 0.0

    @pytest.mark.parametrize("potential, energy, period, action", NEAR_SINGULAR)
    def test_near_singular_orbits_match_30_digit_quadratures(
        self, potential, energy, period, action
    ):
        # E - V nearly vanishes away from the turning points (near a barrier top) or
        # everywhere (near the bottom of a well); the deflated rule resolves both
        assert abs(M.orbit_period(potential, energy, 1.0) - period) <= 1e-12 * period
        orbit = M.orbit_fourier(potential, energy, 1.0, alpha_max=1)
        assert abs(orbit.period - period) <= 1e-12 * period
        assert abs(M.action_direct(potential, energy, 1.0) - action) <= 1e-12 * action

    @pytest.mark.parametrize("integral", [M.orbit_period, M.action_direct])
    def test_unresolved_near_barrier_orbit_raises(self, integral):
        # at 1e-6 above the barrier 65536 intervals do not resolve dt/dx at x = 0
        with pytest.raises(M.NumericalError, match="did not converge with 65536 intervals"):
            integral(DOUBLE_WELL, 1.0 + 1e-6, 1.0)

    def test_turning_point_consistency(self):
        orbit = M.orbit_fourier(PERTURBED, 2.0, 1.0, alpha_max=3)
        assert orbit.potential(orbit.x_plus) == pytest.approx(2.0, rel=1e-10)
        assert orbit.omega == pytest.approx(2.0 * math.pi / orbit.period, rel=1e-15)


class TestExactReferences:
    @pytest.mark.parametrize("c2", [0.05, 0.5, 3.0])
    @pytest.mark.parametrize("mass", [0.5, 2.0])
    @pytest.mark.parametrize("energy", [1e-3, 1.0, 50.0])
    def test_oscillator(self, c2, mass, energy):
        # x(t) = A cos(w t): X_(+-1) = A / 2 and no other harmonic, even above the
        # 64-interval rule's own resolution (alpha = 40)
        amplitude = math.sqrt(energy / c2)
        potential = M.PolynomialPotential((0.0, 0.0, c2))
        orbit = M.orbit_fourier(potential, energy, mass, 40)
        tol = 1e-14 * max(1.0, amplitude)
        for a, coeff in enumerate(orbit.harmonics):
            assert abs(coeff - (0.5 * amplitude if a == 1 else 0.0)) <= tol
        period = 2.0 * math.pi / math.sqrt(2.0 * c2 / mass)
        assert abs(orbit.period - period) <= 1e-14 * period
        assert abs(M.orbit_period(potential, energy, mass) - period) <= 1e-14 * period
        action = energy * period  # J = E T
        assert abs(M.action_direct(potential, energy, mass) - action) <= 1e-14 * action

    @pytest.mark.parametrize("energy", [1e-3, 0.1, 1.0, 7.5, 1e4])
    def test_pure_quartic(self, energy):
        # V = x^4 / 4, m = 1: x = A cn(A t, 1/sqrt 2), A = (4 E)^(1/4), whose Fourier
        # series has X_(2n+1) = sqrt 2 A pi / K q^(n + 1/2) / (1 + q^(2n+1)), q = e^(-pi)
        amplitude = (4.0 * energy) ** 0.25
        k = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
        q = math.exp(-math.pi)
        orbit = M.orbit_fourier(PURE_QUARTIC, energy, 1.0, 15)
        tol = 1e-14 * max(1.0, amplitude)
        for a, coeff in enumerate(orbit.harmonics):
            n, odd = divmod(a, 2)
            expected = math.sqrt(2.0) * amplitude * math.pi / k * q ** (n + 0.5) / (
                1.0 + q ** (2 * n + 1)
            ) if odd else 0.0
            assert abs(coeff - expected) <= tol
        period = 4.0 * k / amplitude
        assert abs(orbit.period - period) <= 1e-14 * period
        assert abs(M.orbit_period(PURE_QUARTIC, energy, 1.0) - period) <= 1e-14 * period
        action = 4.0 / 3.0 * energy * period  # the virial theorem, <x V'> = 4 <V>
        assert abs(M.action_direct(PURE_QUARTIC, energy, 1.0) - action) <= 1e-14 * action


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
            harmonics=(0.0, 0.0, 0.0),
        )
        assert M.action_from_fourier(still) == 0.0

    @pytest.mark.parametrize("harmonics", [(), (1.0,)])
    def test_orbit_holds_at_least_two_harmonics(self, harmonics):
        with pytest.raises(ValueError, match="at least the harmonics X_0 and X_1"):
            M.ClassicalOrbit(
                potential=SHO,
                energy=0.5,
                mass=1.0,
                x_minus=-1.0,
                x_plus=1.0,
                period=2.0 * math.pi,
                harmonics=harmonics,
            )


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

    @pytest.mark.parametrize("offset", [1e-3, 0.1])
    def test_newton_step_past_the_minimum_bisects(self, offset):
        # from the bracket top E = 1 the tangent of the concave J(E) ~ E^(3/4) meets a
        # small target below the potential minimum, where J is undefined: bisect there
        result = M.quantize(PURE_QUARTIC, 1.0, 1.0, offset, 0)
        assert result.converged
        assert abs(result.action - offset) <= 1e-10 * 2.0 * math.pi

    def test_evaluation_cap_returns_unconverged(self, monkeypatch):
        # an action that never meets the target: 200 evaluations, then the last one
        # the rule's (period, action)
        monkeypatch.setattr(classical, "_orbit_rule", lambda potential, energy, mass: (1.0, 7.0))
        result = M.quantize(SHO, 1.0, 1.0, 0.0, 1)
        assert not result.converged
        assert (result.iterations, result.action) == (200, 7.0)

    def test_fifteen_digit_energies_stay_within_the_artifact_bound(self):
        # a classical-orbits benchmark job (seed 28) whose level n = 8 used to stop at
        # J - target = -1.000e-10 h, the bound its 15-digit energy is checked against
        potential = M.PolynomialPotential((
            0.0679624958924924, 0.3980004897400393, 0.5912711913257778,
            0.08592017396653118, 0.17854065678125008,
        ))
        h = 2.0 * math.pi
        for n in range(10):
            result = M.quantize(potential, 1.0, 1.0, h / 2.0, n)
            assert result.converged
            assert abs(result.action - (n * h + h / 2.0)) <= 1e-12 * h
            written = float(f"{result.energy:.15g}")
            assert abs(M.action_direct(potential, written, 1.0) - (n * h + h / 2.0)) <= 1e-10 * h

    @pytest.mark.parametrize(
        "coeffs, n",
        [
            ((0.0, 0.0, 0.5), 4096), ((0.0, 0.0, 0.5), 6000), ((0.0, 0.0, 0.5), 42170),
            (QUARTIC_COEFFS, 5623), (QUARTIC_COEFFS, 7499), (QUARTIC_COEFFS, 13335),
            (QUARTIC_COEFFS, 23714), ((0.0, 0.1, 0.5, -0.05, 0.1, 0.01, 0.005), 4217),
            ((0.0, 0.1, 0.5, -0.05, 0.1, 0.01, 0.005), 5623),
            ((0.0, 0.1, 0.5, -0.05, 0.1, 0.01, 0.005), 10000),
            ((0.0, 0.1, 0.5, -0.05, 0.1, 0.01, 0.005), 13335),
        ],
    )
    def test_large_levels_converge_within_the_rounding_of_the_action(self, coeffs, n):
        # 1e-12 h lies below the rounding of J(E) at these levels: held to it alone,
        # each ran 200 evaluations and came back unconverged
        result = M.quantize(M.PolynomialPotential(coeffs), 1.0, 1.0, 0.0, n)
        target = n * 2.0 * math.pi
        assert result.converged and result.iterations < 200
        assert abs(result.action - target) <= classical.QUANTIZE_ULPS * math.ulp(target)
        if len(coeffs) == 3:
            assert result.energy == pytest.approx(n, rel=1e-15)

    @pytest.mark.parametrize("hbar", [0.37, 1.0, 1.9])
    def test_stopping_bound_is_1e_12_h_up_to_281_h_then_16_ulps(self, monkeypatch, hbar):
        h = 2.0 * math.pi * hbar

        def converges(n, miss):
            # an action that misses the level's target by ``miss`` at every energy
            rule = lambda potential, energy, mass: (1.0, n * h + miss)
            monkeypatch.setattr(classical, "_orbit_rule", rule)
            return M.quantize(SHO, 1.0, hbar, 0.0, n).converged

        assert converges(281, 0.9e-12 * h) and not converges(281, 1.1e-12 * h)
        ulp = math.ulp(100000 * h)
        assert converges(100000, 15 * ulp) and not converges(100000, 17 * ulp)

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


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda energy: M.turning_points(SHO, energy),
        lambda energy: M.orbit_period(SHO, energy, 1.0),
        lambda energy: M.action_direct(SHO, energy, 1.0),
        lambda energy: M.orbit_fourier(SHO, energy, 1.0, 3),
    ],
    ids=["turning_points", "orbit_period", "action_direct", "orbit_fourier"],
)
def test_numpy_float_energy_equals_the_python_float(evaluate):
    # the turning-point sign test once subtracted two numpy bools for a numpy energy
    assert evaluate(np.float64(2.0)) == evaluate(2.0)


@pytest.mark.parametrize("energy", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda energy: M.turning_points(SHO, energy),
        lambda energy: M.orbit_period(SHO, energy, 1.0),
        lambda energy: M.action_direct(SHO, energy, 1.0),
        lambda energy: M.orbit_fourier(SHO, energy, 1.0, 3),
        lambda energy: M.orbit_fourier(SHO, [2.0, energy, -1.0], 1.0, 3),
    ],
    ids=["turning_points", "orbit_period", "action_direct", "orbit_fourier", "orbit_fourier-seq"],
)
def test_non_finite_energy_rejected(evaluate, energy):
    with pytest.raises(ValueError, match=f"^energy must be finite, got {energy}$"):
        evaluate(energy)


def test_first_failing_energy_of_a_sequence_raises_first():
    with pytest.raises(ValueError, match="^energy -1.0 does not exceed"):
        M.orbit_fourier(SHO, [2.0, -1.0, math.inf], 1.0, 3)
    with pytest.raises(ValueError, match="^energy must be finite, got nan$"):
        M.orbit_fourier(SHO, [math.nan, -1.0], 1.0, 3)


OSC8_SYSTEM, OSC8_PAIR = M.build_oscillator(M.PhysicalConstants(), 8)


@pytest.mark.parametrize(
    "convert",
    [float, np.float64, lambda k: k + 0.5, np.uint8, np.int64],
    ids=["float", "float64", "fraction", "uint8", "int64"],
)
@pytest.mark.parametrize(
    "evaluate, label, name",
    [
        (lambda k: M.orbit_fourier(SHO, 1.0, 1.0, k), 2, "alpha_max"),
        (lambda k: M.quantize(SHO, 1.0, 1.0, 0.0, k), 2, "n"),
        (lambda k: M.correspondence_report(OSC8_PAIR, OSC8_SYSTEM, SHO, 3, k), 2, "alpha_max"),
        (lambda k: M.correspondence_report(OSC8_PAIR, OSC8_SYSTEM, SHO, k, 2), 3, "state label"),
    ],
    ids=["orbit_fourier", "quantize", "correspondence-alpha_max", "correspondence-n"],
)
def test_labels_are_integers_read_as_python_ints(evaluate, label, name, convert):
    # a float label is the caller's error; a numpy integer one gives the int's result
    value = convert(label)
    if isinstance(value, np.integer):
        assert repr(evaluate(value)) == repr(evaluate(label))
    else:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            evaluate(value)


def test_each_call_builds_its_orbit_rules_in_one_pass(monkeypatch):
    # every rule of a call comes from one _orbit_rules call, and a quantize iterate
    # reads both its action and its period off one rule
    assert not hasattr(classical, "_OrbitRule") and not hasattr(classical, "_Failure")
    true_rules, calls = classical._orbit_rules, []

    def counting(potential, energies, mass):
        calls.append(len(energies))
        return true_rules(potential, energies, mass)

    monkeypatch.setattr(classical, "_orbit_rules", counting)
    for evaluate, expected in [
        (lambda: M.orbit_period(PERTURBED, 1.0, 1.0), [1]),
        (lambda: M.action_direct(PERTURBED, 1.0, 1.0), [1]),
        (lambda: M.orbit_fourier(PERTURBED, 1.0, 1.0, 3), [1]),
        (lambda: M.orbit_fourier(PERTURBED, [1.0, 2.0, 3.0], 1.0, 12), [3]),
    ]:
        calls.clear()
        evaluate()
        assert calls == expected
    calls.clear()
    result = M.quantize(PERTURBED, 1.0, 1.0, 0.0, 2)
    assert result.iterations > 1 and calls == [1] * result.iterations


def _ref_rows(pair, system, potential, n, alpha_max, energy_rule):
    # the loop that integrated one orbit per jump a, with alpha_max = a, at E_n for the
    # state rule and at (E_n + E_(n-a)) / 2 for the mean rule
    levels = M.transition_frequencies(system).levels
    w = levels[:, None] - levels[None, :]
    rows = []
    for a in range(1, alpha_max + 1):
        e_star = float(system.energies[n])
        if energy_rule == "mean":
            e_star = 0.5 * (e_star + float(system.energies[n - a]))
        orbit = M.orbit_fourier(potential, e_star, system.constants.mass, alpha_max=a)
        q_amp = float(abs(pair.x[n, n - a]))
        c_amp = float(abs(orbit.harmonics[a]))
        q_freq = float(w[n, n - a])
        c_freq = a * orbit.omega
        floor = classical.AMP_NOISE_FLOOR
        noise = q_amp < floor * abs(pair.x[n, n - 1]) and c_amp < floor * abs(orbit.harmonics[1])
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

    @pytest.mark.parametrize("rule", ["state", "mean"])
    @pytest.mark.parametrize("case", ["sho", "osc32", "quartic", "lopsided"])
    def test_rows_equal_per_jump_orbits_bitwise(self, request, constants, case, rule):
        # one orbit_fourier call per report, for every jump's energy at the report's
        # alpha_max, against one call per jump at alpha_max = a
        step = 3
        if case == "sho":
            (system, pair), potential = M.build_oscillator(constants, 12), SHO
        elif case == "osc32":
            odd = M.PhysicalConstants(mass=1.3, hbar=0.7, omega=1.7)
            system, pair = M.build_oscillator(odd, 32)
            potential, step = M.PolynomialPotential((0.0, 0.0, 0.5 * 1.3 * 1.7**2)), 1
        elif case == "quartic":
            (system, pair), potential = request.getfixturevalue("quartic40"), PERTURBED
        else:
            potential = LOPSIDED
            system, pair = M.build_from_potential(potential, constants, 48, 12)
        alpha_max = 4
        for n in range(alpha_max, system.size - alpha_max, step):
            report = M.correspondence_report(pair, system, potential, n, alpha_max, rule)
            expected = _ref_rows(pair, system, potential, n, alpha_max, rule)
            assert repr(report.rows) == repr(expected)

    def test_one_orbit_call_per_report(self, constants, monkeypatch):
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
        assert calls == [4]  # one call for the four two-state mean energies

    def test_window_violation(self, constants):
        system, pair = M.build_oscillator(constants, 8)
        with pytest.raises(ValueError):
            M.correspondence_report(pair, system, SHO, 0, 1)
        with pytest.raises(ValueError):
            M.correspondence_report(pair, system, SHO, 7, 1)
        with pytest.raises(ValueError):
            M.correspondence_report(pair, system, SHO, 5, 1, "median")

    @pytest.mark.parametrize("pair_size, system_size", [(8, 12), (12, 8)])
    def test_pair_and_system_sizes_must_agree(self, constants, pair_size, system_size):
        _, pair = M.build_oscillator(constants, pair_size)
        system, _ = M.build_oscillator(constants, system_size)
        with pytest.raises(ValueError, match="^matrix pair and system sizes disagree$"):
            M.correspondence_report(pair, system, SHO, 6, 1)


# Reference copy of the classical layer as it was before its scalar loops moved
# to Python floats: every V evaluation through polyval, the minimum solved on
# each call, the turning points solved again for the period, and the closure
# acceleration.  Its bisection and 200-node Gauss-Legendre rule on the undeflated
# E - V are the independent oracles the shipped Newton steps and orbit rule are
# held to.


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
QUANTIZE_CASES = [  # J0 = 0 or h/2 at hbar = 1; every mass, every convex well
    ("sho", 0.5, 1, 0.0),
    ("pure_quartic", 1.0, 2, math.pi),
    ("perturbed", 2.0, 1, math.pi),
    ("lopsided", 0.5, 2, 0.0),
    ("sextic", 1.0, 1, 0.0),
    ("sextic", 2.0, 2, math.pi),
]


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
        # Newton's steps and the reference bisection stop within one ulp of each other
        for energy in _energies(name):
            new = M.turning_points(ALL[name], energy)
            ref = _ref_turning_points(ALL[name], energy)
            for x, x_ref in zip(new, ref):
                assert abs(x - x_ref) <= math.ulp(x_ref)
                assert abs(float(ALL[name](x)) - energy) <= 4.0 * math.ulp(max(energy, 1.0))

    @pytest.mark.parametrize("name", sorted(ALL))
    @pytest.mark.parametrize("mass", MASSES)
    def test_period_and_action(self, name, mass):
        # the Gauss rule's own period error reaches 2.4e-12 (on the oscillator)
        for energy in _energies(name):
            period = _ref_orbit_period(ALL[name], energy, mass)
            action = _ref_action_direct(ALL[name], energy, mass)
            assert abs(M.orbit_period(ALL[name], energy, mass) - period) <= 5e-12 * period
            assert abs(M.action_direct(ALL[name], energy, mass) - action) <= 1e-14 * action

    @pytest.mark.parametrize("name", sorted(ALL))
    @pytest.mark.parametrize("mass", MASSES)
    def test_orbit_fourier(self, name, mass):
        # the coefficients come from a quadrature rule, not from a time integration:
        # within 1e-11 of RK4 at four times the step count the replaced loop used
        energy = _energies(name)[1]
        orbit = M.orbit_fourier(ALL[name], energy, mass, alpha_max=4)
        _, _, period, ref = _ref_orbit_fourier(ALL[name], energy, mass, 4, rk_steps=16384)
        for a in range(-4, 5):
            assert abs(orbit.harmonics[abs(a)] - ref[a]) <= 1e-11
        assert abs(orbit.period - period) <= 1e-10 * period

    @pytest.mark.parametrize("name, mass, n, offset", QUANTIZE_CASES)
    def test_quantize(self, name, mass, n, offset):
        # Newton and the reference bisection both stop within 1e-10 h of the target
        # action, so their energies differ by at most 2e-10 h / (dJ/dE = T)
        potential, h = CONVEX[name], 2.0 * math.pi
        result = M.quantize(potential, mass, 1.0, offset, n)
        energy, _, converged, _ = _ref_quantize(potential, mass, 1.0, offset, n)
        assert result.converged and converged
        assert result.action == M.action_direct(potential, result.energy, mass)
        assert abs(result.action - (n * h + offset)) <= 1e-10 * h
        period = M.orbit_period(potential, result.energy, mass)
        assert abs(result.energy - energy) <= 2e-10 * h / period

    @pytest.mark.parametrize("name, mass, n, offset", QUANTIZE_CASES)
    def test_quantized_level_meets_the_gauss_oracle(self, name, mass, n, offset):
        # quantize solves with the orbit rule's J; the Gauss rule, accurate to 6e-15
        # here, measures the level's action independently
        result = M.quantize(CONVEX[name], mass, 1.0, offset, n)
        h = 2.0 * math.pi
        action = _ref_action_direct(CONVEX[name], result.energy, mass)
        assert abs(action - (n * h + offset)) <= 1e-10 * h

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
        out.append((orbit.x_minus, orbit.x_plus, orbit.period, orbit.harmonics))
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
