"""Property tests of the classical layer's scalar paths over generated potentials."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

import mmlab as M
from mmlab import classical
from mmlab.spectral import _descending, _horner

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficient = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(
    lower=st.lists(coefficient, min_size=0, max_size=8),
    top=st.floats(1e-6, 1e3),
    x=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e8, 1e8), st.sampled_from([0.0, -0.0])),
    xs=st.lists(
        st.one_of(st.floats(-10.0, 10.0), st.floats(-1e8, 1e8), st.sampled_from([0.0, -0.0])),
        min_size=1,
        max_size=6,
    ),
)
def test_horner_equals_polyval_bitwise(lower, top, x, xs):
    coeffs = np.array(lower + [top])
    new = _horner(*_descending(coeffs), x)
    ref = np.polynomial.polynomial.polyval(x, coeffs)
    assert repr(new) == repr(float(ref))
    # the array argument of PolynomialPotential.__call__ and the quadrature samples; a
    # constant, which polyval broadcasts over the array, is no potential (degree >= 2)
    assume(lower)
    new_array = _horner(*_descending(coeffs), np.array(xs))
    ref_array = np.polynomial.polynomial.polyval(np.array(xs), coeffs)
    assert new_array.dtype == ref_array.dtype
    assert new_array.tobytes() == ref_array.tobytes()


@st.composite
def convex_potentials(draw):
    """V = sum_k c_k x^k with c_2 > 0 and nonnegative even higher terms, plus a
    small odd part: V'' > 0 everywhere, so the well has one minimum."""
    degree = draw(st.sampled_from([4, 6]))
    c = [0.0] * (degree + 1)
    c[0] = draw(st.floats(-2.0, 2.0))
    c[1] = draw(st.floats(-1.0, 1.0))
    c[2] = draw(st.floats(0.1, 2.0))
    for k in range(4, degree + 1, 2):
        c[k] = draw(st.floats(0.0, 0.5))
    c[degree] = draw(st.floats(0.01, 0.5))
    # an odd cubic term small enough that 2 c_2 + 6 c_3 x + 12 c_4 x^2 stays positive
    c[3] = draw(st.floats(-1.0, 1.0)) * math.sqrt(2.0 * c[2] * 12.0 * c[4]) / 6.0 * 0.9
    return M.PolynomialPotential(tuple(c))


@SETTINGS
@given(potential=convex_potentials(), depth=st.floats(1e-3, 50.0))
def test_turning_points_bracket_the_minimum_and_solve_v_equals_e(potential, depth):
    x_min, v_min = potential.minimum()
    energy = v_min + depth
    x_lo, x_hi = M.turning_points(potential, energy)
    assert x_lo < x_min < x_hi
    scale = 1e-10 * max(abs(energy), 1.0)
    assert abs(float(potential(x_lo)) - energy) <= scale
    assert abs(float(potential(x_hi)) - energy) <= scale


@SETTINGS
@given(
    barrier=st.floats(0.1, 4.0),
    width=st.floats(0.3, 3.0),
    fraction=st.floats(0.05, 0.95),
)
def test_below_barrier_double_well_rejected(barrier, width, fraction):
    # V = barrier * ((x / width)^2 - 1)^2: minima 0 at x = +-width, barrier at x = 0
    a = barrier / width**4
    potential = M.PolynomialPotential((barrier, 0.0, -2.0 * barrier / width**2, 0.0, a))
    with pytest.raises(M.UnsupportedTopologyError):
        M.turning_points(potential, fraction * barrier)


@st.composite
def double_wells(draw):
    """Tilted quartic double wells and sextics whose c_2 and c_4 may be negative, so
    the well can have one, two or three minima."""
    if draw(st.booleans()):
        barrier, width = draw(st.floats(0.1, 4.0)), draw(st.floats(0.3, 3.0))
        tilt = draw(st.floats(-0.5, 0.5)) * barrier / width
        c = (barrier, tilt, -2.0 * barrier / width**2, 0.0, barrier / width**4)
    else:
        c = (
            draw(st.floats(-1.0, 1.0)),
            draw(st.floats(-0.3, 0.3)),
            draw(st.floats(-2.0, 2.0)),
            draw(st.floats(-0.3, 0.3)),
            draw(st.floats(-1.0, 1.0)),
            draw(st.floats(-0.1, 0.1)),
            draw(st.floats(0.01, 0.5)),
        )
    return M.PolynomialPotential(c)


def _polyroots_count(potential, energy):
    """Distinct real solutions of V(x) = E as the root solve of the topology check counted them."""
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
    return len(distinct)


def _check_topology(potential, energy, expected):
    if expected > 2:
        with pytest.raises(M.UnsupportedTopologyError) as info:
            M.turning_points(potential, energy)
        assert str(info.value).startswith(f"{expected} turning points at energy {energy};")
    else:
        x_lo, x_hi = M.turning_points(potential, energy)
        assert x_lo < x_hi


@SETTINGS
@given(
    potential=st.one_of(convex_potentials(), double_wells()),
    pick=st.integers(0, 4),
    offset=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12, -1e-3, -1e-6, -1e-9, -1e-12, None]),
    depth=st.floats(1e-3, 20.0),
)
def test_topology_check_agrees_with_the_root_solve_away_from_critical_values(
    potential, pick, offset, depth
):
    values = [v for _, v in potential.critical_points]
    v_min = potential.minimum()[1]
    if offset is None:
        energy = v_min + depth
    else:
        v = values[pick % len(values)]
        energy = v + offset * max(abs(v), 1.0)
    # the offsets are 1e-12 relative and more, up to the rounding of E
    assume(energy > v_min)
    assume(all(abs(energy - v) >= 0.99e-12 * max(abs(v), 1.0) for v in values))
    _check_topology(potential, energy, _polyroots_count(potential, energy))


@SETTINGS
@given(potential=double_wells(), pick=st.integers(0, 4))
def test_topology_check_at_a_critical_value_counts_exactly(potential, pick):
    values = [v for _, v in potential.critical_points]
    v_min = potential.minimum()[1]
    above = [v for v in values if v > v_min]
    assume(above)
    energy = above[pick % len(above)]
    # V is monotone between critical points: one solution on each stretch whose end
    # values lie strictly on both sides of E, one at each critical point at E
    ends = [math.inf, *values, math.inf]
    expected = values.count(energy) + sum(
        min(a, b) < energy < max(a, b) for a, b in zip(ends, ends[1:])
    )
    _check_topology(potential, energy, expected)


@SETTINGS
@given(
    potential=convex_potentials(),
    depth=st.floats(1e-3, 50.0),
    mass=st.floats(0.2, 5.0),
    alpha_max=st.integers(1, 12),
)
def test_orbit_harmonics_do_not_depend_on_alpha_max(potential, depth, mass, alpha_max):
    # correspondence_report's state rule reads X_a off one orbit for every jump
    energy = potential.minimum()[1] + depth
    full = M.orbit_fourier(potential, energy, mass, 12)
    orbit = M.orbit_fourier(potential, energy, mass, alpha_max)
    for a in range(-alpha_max, alpha_max + 1):
        assert repr(orbit.fourier[a]) == repr(full.fourier[a])
        assert repr(orbit.fourier[-a]) == repr(orbit.fourier[a])
    assert orbit.period == full.period
    reference = _deflated_period(potential, energy, mass)
    assert abs(orbit.period - reference) <= 1e-13 * reference


def _deflated_period(potential, energy, mass, nodes=200):
    """T = 2 integral dtheta sqrt(m / (2 Q)), x = mid + half sin(theta), by Gauss-Legendre,
    with V - E = (x - x-)(x - x+) Q(x) divided out by polydiv: an oracle that
    shares only the turning points with the orbit rule."""
    x_lo, x_hi = M.turning_points(potential, energy)
    shifted = potential.coefficients.copy()
    shifted[0] -= energy
    q, _ = np.polynomial.polynomial.polydiv(shifted, [x_lo * x_hi, -(x_lo + x_hi), 1.0])
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * np.sin(0.5 * math.pi * t)
    gap = np.polynomial.polynomial.polyval(x, q)
    return float(math.pi * np.dot(w, np.sqrt(mass / (2.0 * gap))))


@SETTINGS
@given(
    potential=convex_potentials(),
    depth=st.floats(1e-3, 50.0),
    mass=st.floats(0.2, 5.0),
    hbar=st.floats(0.1, 3.0),
    n=st.integers(0, 5),
)
def test_period_and_action_read_one_orbit_rule(potential, depth, mass, hbar, n):
    energy = potential.minimum()[1] + depth
    period = M.orbit_period(potential, energy, mass)
    assert period == M.orbit_fourier(potential, energy, mass, 1).period
    result = M.quantize(potential, mass, hbar, math.pi * hbar, n)
    assert result.action == M.action_direct(potential, result.energy, mass)


@SETTINGS
@given(
    potential=convex_potentials(),
    mass=st.floats(0.2, 5.0),
    hbar=st.floats(0.1, 3.0),
    half_quantum=st.booleans(),
)
def test_newton_quantize_converges_in_few_iterations(potential, mass, hbar, half_quantum):
    h = 2.0 * math.pi * hbar
    offset = 0.5 * h if half_quantum else 0.0
    energies = []
    for n in range(6):
        result = M.quantize(potential, mass, hbar, offset, n)
        assert result.converged
        energies.append(result.energy)
        if n == 0 and not half_quantum:
            continue  # zero target: the potential minimum, no iteration
        assert abs(result.action - (n * h + offset)) <= 1e-10 * h
        assert 1 <= result.iterations <= 8
    assert all(b > a for a, b in zip(energies, energies[1:]))


@SETTINGS
@given(
    potential=convex_potentials(),
    depths=st.lists(st.floats(1e-3, 50.0), min_size=2, max_size=6),
    mass=st.floats(0.2, 5.0),
)
def test_block_periods_and_actions_are_the_one_energy_integrals(potential, depths, mass):
    energies = [potential.minimum()[1] + d for d in depths]
    _, blocks, failures = classical._orbit_rules(potential, energies, mass)
    assert not failures
    rows = {}
    for block in blocks:
        values = zip(block.rows.tolist(), block.periods().tolist(), block.actions(mass).tolist())
        rows.update((row, (period, action)) for row, period, action in values)
    assert sorted(rows) == list(range(len(energies)))
    for row, energy in enumerate(energies):
        alone = M.orbit_period(potential, energy, mass), M.action_direct(potential, energy, mass)
        assert repr(rows[row]) == repr(alone)
    orbits = M.orbit_fourier(potential, energies, mass, 2)
    for orbit, energy in zip(orbits, energies):
        assert repr(orbit.period) == repr(M.orbit_period(potential, energy, mass))


def _orbit_key(orbit):
    """Every number of an orbit, as its repr: equal keys are bitwise-equal orbits."""
    fourier = tuple(repr(orbit.fourier[a]) for a in range(-orbit.alpha_max, orbit.alpha_max + 1))
    return repr((orbit.energy, orbit.x_minus, orbit.x_plus, orbit.period, orbit.alpha_max)), fourier


def _outcome(call):
    """What ``call`` returns, as orbit keys, or the class and message of what it raises."""
    try:
        result = call()
    except (ValueError, M.NumericalError) as exc:
        return type(exc), str(exc)
    return [_orbit_key(orbit) for orbit in result]


def _assert_batch_is_scalar_loop(potential, energies, mass, alpha_max):
    batch = _outcome(lambda: M.orbit_fourier(potential, energies, mass, alpha_max))
    loop = _outcome(lambda: [M.orbit_fourier(potential, e, mass, alpha_max) for e in energies])
    assert batch == loop
    return batch


@SETTINGS
@given(
    potential=st.one_of(convex_potentials(), double_wells()),
    depths=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=5),
    mass=st.floats(0.2, 5.0),
    alpha_max=st.sampled_from([1, 3, 12, 40]),
)
def test_orbit_fourier_on_energies_equals_the_scalar_calls(potential, depths, mass, alpha_max):
    # above every critical value: one minimum's well, or a double well above its barrier
    top = max(v for _, v in potential.critical_points)
    _assert_batch_is_scalar_loop(potential, [top + d for d in depths], mass, alpha_max)


DOUBLE_WELL = M.PolynomialPotential((1.0, 0.0, -2.0, 0.0, 1.0))  # (x^2 - 1)^2, barrier V(0) = 1


@pytest.mark.parametrize("alpha_max", [4, 40])
def test_rows_keep_their_own_node_count(alpha_max):
    # 1e-3 above the barrier the rule needs 4096 intervals, at E = 3 it needs 128; 40
    # harmonics double every row's rule past its converged count
    energies = [1.001, 3.0, 1.5, 1.001]
    orbits = _assert_batch_is_scalar_loop(DOUBLE_WELL, energies, 1.3, alpha_max)
    assert len(orbits) == 4 and orbits[0] == orbits[3]


@pytest.mark.parametrize(
    "energies, error, message",
    [
        ([1.5, 0.0], ValueError, "energy 0.0 does not exceed the potential minimum 0.0"),
        ([1.5, 0.5, 3.0], M.UnsupportedTopologyError, "4 turning points at energy 0.5;"),
        ([1.5, 1.000001], M.NumericalError, "orbit rule at energy 1.000001 did not converge"),
        # the first failing energy in input order wins, whichever stage fails it
        ([1.000001, -1.0], M.NumericalError, "orbit rule at energy 1.000001 did not converge"),
        ([2.0, -1.0, 1.000001], ValueError, "energy -1.0 does not exceed"),
    ],
)
def test_failing_energies_raise_what_the_scalar_loop_raises(energies, error, message):
    kind, text = _assert_batch_is_scalar_loop(DOUBLE_WELL, energies, 1.0, 3)
    assert kind is error and text.startswith(message)


def test_a_row_with_a_negative_gap_quotient_fails_in_input_order(monkeypatch):
    # Q <= 0 at a sample fails one row of the batch while the others go on
    true_quotient = classical._gap_quotient

    def dented(potential, energy, x_lo, x_hi):
        top, rest = true_quotient(potential, energy, x_lo, x_hi)
        return top, rest[:-1] + (-1.0,) if energy == 2.0 else rest

    monkeypatch.setattr(classical, "_gap_quotient", dented)
    for energies, error in [
        ([3.0, 2.0, 1.001], M.NumericalError),
        ([2.0, -1.0], M.NumericalError),
        ([-1.0, 2.0], ValueError),
    ]:
        kind, text = _assert_batch_is_scalar_loop(DOUBLE_WELL, energies, 1.0, 3)
        assert kind is error
    assert text.startswith("energy -1.0 does not exceed")
    assert _outcome(lambda: M.orbit_fourier(DOUBLE_WELL, [3.0, 2.0], 1.0, 3)) == (
        M.NumericalError, "potential exceeds the energy inside the well"
    )


@pytest.mark.parametrize("energies", [[], [[1.5, 2.0]], np.ones((2, 2))])
def test_energies_must_be_a_nonempty_1d_sequence(energies):
    with pytest.raises(ValueError, match="nonempty 1-D sequence"):
        M.orbit_fourier(DOUBLE_WELL, energies, 1.0, 3)


def test_a_float_gives_an_orbit_and_a_sequence_a_tuple():
    orbit = M.orbit_fourier(DOUBLE_WELL, 2.0, 1.0, 3)
    assert isinstance(orbit, M.ClassicalOrbit)
    (same,) = M.orbit_fourier(DOUBLE_WELL, np.array([2.0]), 1.0, 3)
    assert _orbit_key(same) == _orbit_key(orbit)
