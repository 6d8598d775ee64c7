"""Property tests of the condition sums and the commutator over generated matrices."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import mmlab as M

unit = st.floats(-1.0, 1.0)
scale = st.floats(0.5, 2.0)


@st.composite
def tables(draw):
    size = draw(st.integers(1, 24))
    re = draw(arrays(float, (size, size), elements=unit))
    im = draw(arrays(float, (size, size), elements=unit))
    x = 0.5 * ((re + 1j * im) + (re + 1j * im).conj().T)
    lo = draw(st.integers(0, size - 1))
    hi = draw(st.integers(lo, size - 1))
    return M.to_amplitude_table(x, (lo, hi), draw(st.integers(0, 4)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(tables(), scale, scale, scale)
def test_projection_is_constrained_state_independent_idempotent_and_sums_to_zero(
    table, mass, hbar, omega
):
    constrained = M.impose_heisenberg_reality(table)
    assert constrained.hermitian_consistent and constrained.heisenberg_real

    amax, present = constrained.alpha_max, constrained.present()
    for k in range(2 * amax + 1):
        column = constrained.amplitudes[present[:, k], k]
        assert np.all(column == column[:1])

    twice = M.impose_heisenberg_reality(constrained)
    assert np.max(np.abs(twice.amplitudes - constrained.amplitudes)) <= 1e-14

    # oscillator spectrum: w(n + a, n) = w(n, n - a) = a * omega for every state
    constants = M.PhysicalConstants(mass=mass, hbar=hbar, omega=omega)
    energies = (np.arange(table.size) + 0.5) * hbar * omega
    freq = M.transition_frequencies(M.SpectralSystem(constants, energies))
    lo, hi = constrained.window
    for n in range(lo + amax, hi - amax + 1):  # states whose reads are all recorded
        assert abs(M.heisenberg_sum(constrained, freq, mass, n, amax)) <= 1e-12 * hbar


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
level = st.floats(-50.0, 50.0)


@st.composite
def systems(draw, min_size=1):
    """Sorted levels, a frequency table and a general complex pair X, P of that size."""
    size = draw(st.integers(min_size, 20))
    energies = np.sort(draw(arrays(float, size, elements=level)))
    constants = M.PhysicalConstants(hbar=draw(scale))
    freq = M.transition_frequencies(M.SpectralSystem(constants, energies))
    x, p = (
        draw(arrays(float, (size, size), elements=unit))
        + 1j * draw(arrays(float, (size, size), elements=unit))
        for _ in range(2)
    )
    return freq, x, p


@SETTINGS
@given(systems(), scale, st.integers(0, 4))
def test_eq14_equals_eq25_bitwise_on_exactly_hermitian_x(system, mass, alpha):
    freq, x, _ = system
    x = 0.5 * (x + x.conj().T)  # rounds the same on both triangles: exactly hermitian
    assert np.array_equal(x, x.conj().T)
    for n in range(x.shape[0] - alpha):
        eq14 = M.born_jordan_sum(x, freq, mass, n, alpha)
        eq25 = M.modified_sum(x, freq, mass, n, alpha)
        assert repr(eq14) == repr(eq25)


@SETTINGS
@given(systems(), scale, st.integers(0, 4), arrays(float, 20, elements=st.floats(0.0, 6.3)))
def test_rephasing_leaves_eq14_eq25_and_the_commutator_diagonal_unchanged(
    system, mass, alpha, angles
):
    freq, x, p = system
    size = x.shape[0]
    phases = np.exp(1j * angles[:size])
    xr = phases[:, None] * x * phases.conj()[None, :]
    pr = phases[:, None] * p * phases.conj()[None, :]
    sum_scale = mass * (1.0 + np.max(np.abs(freq.omega))) * np.sum(np.abs(x) ** 2)
    comm_scale = 2.0 * np.sum(np.abs(x) * np.abs(p.T))
    for n in range(size - alpha):
        for formula in (M.born_jordan_sum, M.modified_sum):
            moved = formula(xr, freq, mass, n, alpha) - formula(x, freq, mass, n, alpha)
            assert abs(moved) <= 1e-13 * sum_scale
        moved = M.commutator_diagonal_sum(xr, pr, n, alpha) - M.commutator_diagonal_sum(
            x, p, n, alpha
        )
        assert abs(moved) <= 1e-13 * comm_scale
    moved = np.diag(M.commutator(xr, pr)) - np.diag(M.commutator(x, p))
    assert np.max(np.abs(moved)) <= 1e-13 * comm_scale


@SETTINGS
@given(systems())
def test_commutator_trace_vanishes(system):
    _, x, p = system
    size = x.shape[0]
    bound = 1e-13 * size * np.sum(np.abs(x) * np.abs(p.T))
    assert abs(np.trace(M.commutator(x, p))) <= bound
    # the per-state evaluator, edge states included, sums to the same zero
    total = sum(M.loop_integral_state_difference(x, p, n) for n in range(size))
    assert abs(total) <= 2 * math.pi * bound


@SETTINGS
@given(st.lists(level, min_size=1, max_size=30), scale)
def test_frequency_table_is_exactly_antisymmetric(levels, hbar):
    system = M.SpectralSystem(M.PhysicalConstants(hbar=hbar), np.sort(levels))
    w = M.transition_frequencies(system).omega
    assert np.array_equal(w, -w.T)
    assert np.all(np.diag(w) == 0.0)
