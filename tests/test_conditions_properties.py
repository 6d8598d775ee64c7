"""Property tests of the Heisenberg reality projection over generated hermitian X."""

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
