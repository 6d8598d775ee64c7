"""Property tests of the condition sums and [X, P] over generated matrices and potentials."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import mmlab as M
from mmlab import conditions
from test_classical_properties import convex_potentials

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
    w = freq.levels[:, None] - freq.levels[None, :]
    sum_scale = mass * (1.0 + np.max(np.abs(w))) * np.sum(np.abs(x) ** 2)
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
    levels = M.transition_frequencies(system).levels
    w = levels[:, None] - levels[None, :]
    assert np.array_equal(w, -w.T)
    assert np.all(np.diag(w) == 0.0)


@st.composite
def spectra_and_positions(draw):
    """A system of sorted levels, hbar and m, and a general complex X of its size."""
    size = draw(st.integers(1, 20))
    energies = np.sort(draw(arrays(float, size, elements=level)))
    constants = M.PhysicalConstants(mass=draw(scale), hbar=draw(scale))
    x = draw(arrays(float, (size, size), elements=unit)) + 1j * draw(
        arrays(float, (size, size), elements=unit)
    )
    return M.SpectralSystem(constants, energies), x


@SETTINGS
@given(spectra_and_positions(), st.integers(0, 4), st.floats(0.1, 10.0))
def test_levels_read_bitwise_as_the_dense_frequency_table(case, alpha, period):
    system, x = case
    size, mass = system.size, system.constants.mass
    # the N x N table the package used to store
    e = system.energies / system.constants.hbar
    w = e[:, None] - e[None, :]
    freq = M.transition_frequencies(system)

    assert np.array_equal(freq[:, :], w)
    for i in range(size):
        assert np.array_equal(freq[i, :], w[i])
        for j in range(size):
            assert repr(freq[i, j]) == repr(w[i, j])
    p = M.momentum_from_position(x, freq, mass)
    assert np.array_equal(p, 1j * mass * w * x)

    class DenseFrequencies:  # reads w(n + row, n + col) from w's diagonal col - row
        size = w.shape[0]

        def diagonal(self, lo, hi, row, col):
            out = np.zeros(hi - lo + 1)
            diagonal = np.diagonal(w, col - row)
            start = lo + min(row, col)
            first, stop = max(0, -start), min(out.size, diagonal.size - start)
            if stop > first:
                out[first:stop] = diagonal[start + first : start + stop]
            return out

    table = M.to_amplitude_table(x, (0, size - 1), alpha)
    calls = [(M.heisenberg_sum, x), (M.heisenberg_sum, table), (M.born_jordan_sum, x),
             (M.modified_sum, x)]

    def sums(frequencies):
        return [repr(f(source, frequencies, mass, n, alpha)) for f, source in calls
                for n in range(size - alpha)]

    assert sums(freq) == sums(DenseFrequencies())
    for row in range(-alpha - 1, alpha + 2):
        for col in range(-alpha - 1, alpha + 2):
            expected = DenseFrequencies().diagonal(0, size - 1, row, col)
            assert freq.diagonal(0, size - 1, row, col).tobytes() == expected.tobytes()
    product, ordered_sum = conditions._product, conditions._ordered_sum
    for n in range(size):
        terms = product(product(product(1j, w[n]), p[n, :]), x[:, n])[::-1]
        expected = -period * complex(ordered_sum(terms))
        assert repr(M.loop_integral_diagonal(x, p, freq, n, period)) == repr(expected)


@st.composite
def banded_pairs(draw):
    """A system with a hermitian pair: X of structural band 0-3 or dense, P = i m w o X,
    and sometimes a hermitian bump that takes P's band one or two past X's."""
    size = draw(st.integers(1, 48))
    band = draw(st.sampled_from([0, 1, 2, 3, "dense"]))
    band = size - 1 if band == "dense" else min(band, size - 1)
    extra = draw(st.integers(0, 2))
    mass, hbar = draw(scale), draw(scale)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    energies = np.sort(rng.uniform(-50.0, 50.0, size))
    system = M.SpectralSystem(M.PhysicalConstants(mass=mass, hbar=hbar), energies)
    offsets = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))

    def hermitian(mask):
        raw = rng.uniform(-1.0, 1.0, (size, size)) + 1j * rng.uniform(-1.0, 1.0, (size, size))
        raw[mask & (rng.random((size, size)) < 0.2)] = 0.0  # structural zeros inside the band
        raw = np.where(mask, raw, 0.0)
        return 0.5 * (raw + raw.conj().T)

    x = hermitian(offsets <= band)
    if M.matrix_bandwidth(x) <= 1:
        x = x.real.astype(complex)  # the nearest-neighbor rewrite is real only on a real X
    p = M.momentum_from_position(x, M.transition_frequencies(system), mass)
    if extra:
        p = p + hermitian((offsets > band) & (offsets <= band + extra))
    alpha_max = draw(st.one_of(st.none(), st.integers(1, max(1, size - 1))))
    return system, M.MatrixPair(x=x, p=p), alpha_max


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=banded_pairs())
def test_report_commutator_fields_match_dense_and_per_state_evaluator(
    case, matches_dense_commutator
):
    system, pair, alpha_max = case
    if system.size == 1:  # no window state: a report needs alpha_max >= 1
        with pytest.raises(ValueError):
            M.full_report(system, pair, alpha_max)
        return
    report = M.full_report(system, pair, alpha_max)
    matches_dense_commutator(report, pair)
    x, p = pair.x.tolist(), pair.p.tolist()
    for row in report.rows:
        expected = M.commutator_diagonal_sum(pair.x, pair.p, row.n, None)
        assert repr(row.commutator_diag) == repr(expected)
        # the scalar loop over k = 0 .. N - 1 that the band kernel stands for
        n, total = row.n, 0j
        for k in range(system.size):
            total += x[n][k] * p[k][n] - p[n][k] * x[k][n]
        assert repr(expected) == repr(total)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=banded_pairs(), period=st.floats(0.1, 10.0))
def test_every_evaluator_reads_the_pairs_own_storage_as_the_dense_matrices(case, period):
    system, pair, alpha_max = case
    size, mass = system.size, system.constants.mass
    freq = M.transition_frequencies(system)
    alpha = min(alpha_max or 1, size - 1)

    def values(x, p):
        out = []
        for n in range(size - alpha):
            out += [f(x, freq, mass, n, alpha)
                    for f in (M.heisenberg_sum, M.born_jordan_sum, M.modified_sum)]
            out.append(M.commutator_diagonal_sum(x, p, n, alpha))
        for n in range(size):
            out += [M.commutator_diagonal_sum(x, p, n), M.loop_integral_state_difference(x, p, n),
                    M.loop_integral_diagonal(x, p, freq, n, period)]
            if M.matrix_bandwidth(x) <= 1:
                out.append(M.nearest_neighbor_rewrite(x, mass, 1.0, n))
        table = M.to_amplitude_table(x, (0, size - 1), alpha)
        out.append((table.window, table.alpha_max, table.size, table.amplitudes.tolist(),
                    table.hermitian_consistent, table.heisenberg_real))
        return repr(out)

    assert values(pair.xb, pair.pb) == values(pair.x, pair.p)


#: |trace [X, P]| of a potential report in units of N eps hbar: at most 1.33 was seen
#: over 300 generated potentials at keep 8-12.
TRACE_ULPS = 4


@SETTINGS
@given(potential=convex_potentials(), keep=st.integers(8, 12), mass=scale, hbar=scale)
def test_potential_report_eq14_is_eq25_and_its_trace_vanishes(potential, keep, mass, hbar):
    constants = M.PhysicalConstants(mass=mass, hbar=hbar)
    report = M.full_report(*M.build_from_potential(potential, constants, 4 * keep, keep))
    for row in report.rows:
        assert repr(row.eq14) == repr(row.eq25)
    assert abs(report.trace_commutator) <= TRACE_ULPS * keep * np.finfo(float).eps * hbar
