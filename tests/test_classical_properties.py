"""Property tests of the classical layer's scalar paths over generated potentials."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import mmlab as M
from mmlab.classical import _descending, _horner

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficient = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(
    lower=st.lists(coefficient, min_size=0, max_size=8),
    top=st.floats(1e-6, 1e3),
    x=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e8, 1e8), st.sampled_from([0.0, -0.0])),
)
def test_horner_equals_polyval_bitwise(lower, top, x):
    coeffs = np.array(lower + [top])
    new = _horner(*_descending(coeffs), x)
    ref = np.polynomial.polynomial.polyval(x, coeffs)
    assert repr(new) == repr(float(ref))


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
