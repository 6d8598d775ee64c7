import math

import numpy as np
import pytest

import mmlab as M
from mmlab.spectral import BAND_CUTOFF

QUARTIC_COEFFS = (0.0, 0.0, 0.5, 0.0, 0.05)


def ladder_amplitudes(size, mass=1.0, omega=1.0, hbar=1.0):
    """Oracle: solve hbar = 2 m w (x_n^2 - x_{n-1}^2) upward from x_{-1} = 0."""
    amps = []
    prev_sq = 0.0
    for _ in range(size - 1):
        sq = prev_sq + hbar / (2.0 * mass * omega)
        amps.append(math.sqrt(sq))
        prev_sq = sq
    return amps


class TestBuildOscillator:
    def test_single_state_has_no_transitions(self, constants):
        system, pair = M.build_oscillator(constants, 1)
        assert system.energies[0] == 0.5
        assert pair.x[0, 0] == 0 and pair.p[0, 0] == 0

    def test_matrix_elements_match_recursion_oracle(self, constants):
        _, pair = M.build_oscillator(constants, 4)
        expected = ladder_amplitudes(4)
        for n, amp in enumerate(expected):
            assert pair.x[n, n + 1].real == pytest.approx(amp, abs=1e-15)
            assert pair.x[n + 1, n].real == pytest.approx(amp, abs=1e-15)
        assert pair.x[0, 1] == pytest.approx(0.7071067811865476, abs=1e-10)
        assert pair.x[1, 2] == pytest.approx(1.0, abs=1e-10)
        assert pair.x[2, 3] == pytest.approx(1.2247448713915890, abs=1e-10)

    def test_momentum_entries(self, constants):
        _, pair = M.build_oscillator(constants, 4)
        assert pair.p[0, 1] == pytest.approx(-0.7071067811865476j, abs=1e-10)
        assert pair.p[1, 0] == pytest.approx(+0.7071067811865476j, abs=1e-10)

    def test_energies(self, constants):
        system, _ = M.build_oscillator(constants, 6)
        assert np.allclose(system.energies, np.arange(6) + 0.5, rtol=0, atol=0)

    def test_hamiltonian_reconstruction(self, constants):
        system, pair = M.build_oscillator(constants, 16)
        h = pair.p @ pair.p / 2.0 + 0.5 * pair.x @ pair.x
        diag = np.diag(h).real
        for n in range(15):
            assert abs(diag[n] - system.energies[n]) <= 1e-10 * system.energies[n]
        block = h[:14, :14]
        off = block - np.diag(np.diag(block))
        assert np.linalg.norm(off) <= 1e-10 * np.linalg.norm(block)

    def test_invalid_arguments(self, constants):
        with pytest.raises(ValueError):
            M.build_oscillator(constants, 0)
        with pytest.raises(ValueError):
            M.PhysicalConstants(mass=-1.0)
        with pytest.raises(ValueError):
            M.PhysicalConstants(omega=0.0)

    def test_pair_is_hermitian(self, osc64):
        _, pair = osc64
        assert M.hermiticity_defect(pair.x) <= 1e-12
        assert M.hermiticity_defect(pair.p) <= 1e-12


class TestFrequencies:
    def test_direct_differences(self):
        system = M.SpectralSystem(M.PhysicalConstants(), np.array([0.5, 1.5, 2.5]))
        freq = M.transition_frequencies(system)
        assert freq[0, 1] == -1.0
        assert freq[2, 0] == 2.0
        w = freq.levels[:, None] - freq.levels[None, :]
        assert np.all(np.diag(w) == 0.0)

    def test_hbar_scaling(self):
        system = M.SpectralSystem(M.PhysicalConstants(hbar=2.0), np.array([0.5, 1.5]))
        freq = M.transition_frequencies(system)
        assert freq[1, 0] == 0.5

    def test_antisymmetry_and_combination_rule(self):
        rng = np.random.default_rng(11)
        energies = np.sort(rng.uniform(0.0, 50.0, size=30))
        system = M.SpectralSystem(M.PhysicalConstants(), energies)
        levels = M.transition_frequencies(system).levels
        w = levels[:, None] - levels[None, :]
        assert np.array_equal(w, -w.T)
        # Ritz combination: w(n,k) + w(k,n') == w(n,n') up to rounding
        scale = np.max(np.abs(w))
        for n, k, m_ in ((0, 7, 29), (3, 15, 20), (29, 1, 14)):
            assert abs(w[n, k] + w[k, m_] - w[n, m_]) <= 1e-15 * scale

    def test_rejects_empty_table(self):
        # numpy's own "zero-size array" ValueError would also satisfy a bare raises
        with pytest.raises(ValueError, match="levels must be a nonempty 1-D sequence"):
            M.FrequencyTable(np.zeros(0))

    def test_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="levels must be a nonempty 1-D sequence"):
            M.FrequencyTable(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, -1])
    def test_rejects_non_finite_entries(self, bad, where):
        levels = np.array([0.0, 1.0, 2.0])
        levels[where] = bad
        with pytest.raises(ValueError, match="transition frequencies must be finite"):
            M.FrequencyTable(levels)

    def test_rejects_finite_levels_whose_spread_overflows(self):
        with pytest.raises(ValueError, match="transition frequencies must be finite"):
            M.FrequencyTable(np.array([-1e308, 1e308]))


class TestMomentumFromPosition:
    def test_oscillator_entry(self, osc8):
        system, pair = osc8
        freq = M.transition_frequencies(system)
        p = M.momentum_from_position(pair.x, freq, 1.0)
        assert p[1, 0] == pytest.approx(0.7071067811865476j, abs=1e-10)

    def test_identity_position_keeps_zero_diagonal(self):
        system = M.SpectralSystem(M.PhysicalConstants(), np.array([0.1, 0.9, 3.0]))
        freq = M.transition_frequencies(system)
        p = M.momentum_from_position(np.eye(3), freq, 2.0)
        assert np.all(np.diag(p) == 0.0)

    def test_hermitian_input_gives_hermitian_output(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        x = 0.5 * (x + x.conj().T)
        system = M.SpectralSystem(
            M.PhysicalConstants(), np.sort(rng.uniform(0, 10, size=12))
        )
        freq = M.transition_frequencies(system)
        p = M.momentum_from_position(x, freq, 1.3)
        assert M.hermiticity_defect(p) <= 1e-15

    def test_shape_mismatch(self):
        system = M.SpectralSystem(M.PhysicalConstants(), np.array([0.5, 1.5]))
        freq = M.transition_frequencies(system)
        with pytest.raises(ValueError):
            M.momentum_from_position(np.eye(3), freq, 1.0)


class TestHermiticityDefect:
    def test_symmetric_real_is_zero(self):
        assert M.hermiticity_defect(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0

    def test_one_sided_entry(self):
        value = M.hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_imaginary_identity(self):
        # ||M - M^dag||_F = ||2i I||_F = 2 sqrt(2), ||M||_F = sqrt(2)
        value = M.hermiticity_defect(1j * np.eye(2))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            M.hermiticity_defect(np.zeros((2, 3)))


class TestAmplitudeTable:
    def test_oscillator_window(self, osc8):
        _, pair = osc8
        table = M.to_amplitude_table(pair.x, (1, 2), 1)
        # row n - lo, column alpha + alpha_max
        assert table.amplitudes[0, 2] == pytest.approx(0.7071067811865476, abs=1e-10)
        assert table.amplitudes[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_flags_on_hermitian_oscillator(self, osc8):
        _, pair = osc8
        table = M.to_amplitude_table(pair.x, (1, 2), 1)
        assert table.hermitian_consistent
        # A(1, 1) = 0.707... != A(1, -1) = 1.0, so the reality constraint fails
        assert not table.heisenberg_real

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitude_reads_inconsistent(self, osc8, bad):
        _, pair = osc8
        table = M.to_amplitude_table(pair.x, (0, 7), 1)
        amplitudes = table.amplitudes.copy()
        amplitudes[3, 2] = bad  # A(3, 1) = X(3, 2), a present pair
        table = M.AmplitudeTable(window=(0, 7), alpha_max=1, size=8, amplitudes=amplitudes)
        assert not table.hermitian_consistent
        assert not table.heisenberg_real
        with pytest.raises(ValueError, match="hermiticity-derived constraint"):
            M.impose_heisenberg_reality(table)

    def test_out_of_range_window(self, osc8):
        _, pair = osc8
        with pytest.raises(ValueError):
            M.to_amplitude_table(pair.x, (5, 9), 1)
        with pytest.raises(ValueError):
            M.to_amplitude_table(pair.x, (-1, 3), 1)

    def test_constructor_checks_shape_and_zeroes_absent_slots(self):
        with pytest.raises(ValueError, match="shape"):
            M.AmplitudeTable(window=(0, 2), alpha_max=1, size=4, amplitudes=np.ones((2, 3)))
        table = M.AmplitudeTable(window=(0, 2), alpha_max=1, size=3, amplitudes=np.ones((3, 3)))
        # A(0, 1) = X(0, -1) and A(2, -1) = X(2, 3) fall outside the 3 x 3 matrix
        assert table.amplitudes.tolist() == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]

    def test_pair_lookup_semantics(self, osc8):
        _, pair = osc8
        table = M.to_amplitude_table(pair.x, (1, 2), 1)
        assert table.amplitude_for_pair(1, 0) == table.amplitudes[0, 2]  # n = 1, alpha = 1
        assert table.amplitude_for_pair(0, -1) == 0j  # outside the matrix
        with pytest.raises(ValueError):
            table.amplitude_for_pair(5, 4)  # inside the matrix, outside the window


class TestMatrixBandwidth:
    def test_lower_triangle_only(self):
        x = np.zeros((6, 6))
        x[4, 1] = 1.0
        assert M.matrix_bandwidth(x) == 3

    def test_upper_triangle_only(self):
        x = np.zeros((6, 6))
        x[1, 4] = 1.0
        assert M.matrix_bandwidth(x) == 3

    def test_diagonal_only(self):
        assert M.matrix_bandwidth(np.diag([1.0, -2.0, 3.0j])) == 0

    def test_entry_exactly_at_cutoff_counts(self):
        x = np.eye(5, dtype=complex)
        x[0, 2] = BAND_CUTOFF
        assert M.matrix_bandwidth(x) == 2
        x[0, 2] = np.nextafter(BAND_CUTOFF, 0.0)
        assert M.matrix_bandwidth(x) == 0


class TestPolynomialPotential:
    def test_rejects_non_confining(self):
        with pytest.raises(ValueError):
            M.PolynomialPotential((0.0, 1.0))  # V = x
        with pytest.raises(ValueError):
            M.PolynomialPotential((0.0, 0.0, 0.0, 1.0))  # odd leading degree
        with pytest.raises(ValueError):
            M.PolynomialPotential((0.0, 0.0, -1.0))  # opens downward

    def test_trailing_zeros_dropped(self):
        pot = M.PolynomialPotential((0.0, 0.0, 0.5, 0.0, 0.0))
        assert pot.degree == 2
        assert pot.coefficient(2) == 0.5
        assert pot.coefficient(9) == 0.0

    def test_minimum_of_double_well(self):
        pot = M.PolynomialPotential((1.0, 0.0, -2.0, 0.0, 1.0))  # (x^2 - 1)^2
        x_min, v_min = pot.minimum()
        assert abs(abs(x_min) - 1.0) <= 1e-9
        assert abs(v_min) <= 1e-12

    def test_minimum_solved_once_per_instance(self, monkeypatch):
        pot = M.PolynomialPotential(QUARTIC_COEFFS)
        first = pot.minimum()
        monkeypatch.setattr(np.polynomial.polynomial, "polyroots", None)
        assert pot.minimum() is first

    def test_evaluation_and_slope(self):
        pot = M.PolynomialPotential(QUARTIC_COEFFS)
        assert pot(2.0) == pytest.approx(0.5 * 4 + 0.05 * 16)
        assert pot.slope(2.0) == pytest.approx(2.0 + 0.05 * 4 * 8)


class TestBuildFromPotential:
    def test_reproduces_oscillator(self, constants):
        potential = M.PolynomialPotential((0.0, 0.0, 0.5))
        system, pair = M.build_from_potential(potential, constants, 64, 16)
        ref_system, ref_pair = M.build_oscillator(constants, 16)
        assert np.max(np.abs(system.energies - ref_system.energies)) <= 1e-10
        assert np.max(np.abs(pair.x - ref_pair.x)) <= 1e-9
        assert np.max(np.abs(pair.p - ref_pair.p)) <= 1e-9

    def test_quartic_ground_state_perturbative(self, quartic40):
        # first-order shift <0| 0.05 x^4 |0> = 0.05 * 3/4; tolerance covers higher orders
        system, _ = quartic40
        assert abs(system.energies[0] - 0.5375) <= 0.01 * 0.5375

    def test_hermitian_within_tolerance(self, quartic40):
        _, pair = quartic40
        assert M.hermiticity_defect(pair.x) <= 1e-12
        assert M.hermiticity_defect(pair.p) <= 1e-12

    def test_momentum_tied_to_position_entrywise(self, quartic40):
        system, pair = quartic40
        levels = M.transition_frequencies(system).levels
        w = levels[:, None] - levels[None, :]
        expected = 1j * system.constants.mass * w * np.asarray(pair.x)
        assert np.array_equal(np.asarray(pair.p), expected)

    def test_non_confining_rejected(self, constants):
        with pytest.raises(ValueError):
            M.PolynomialPotential((0.0, 1.0))

    def test_keep_limit(self, constants):
        potential = M.PolynomialPotential((0.0, 0.0, 0.5))
        with pytest.raises(ValueError):
            M.build_from_potential(potential, constants, 32, 20)

    def test_basis_doubling_convergence(self, constants, quartic40):
        # retained levels must be converged: doubling the basis moves them
        # by less than 1e-10 relative
        system, _ = quartic40
        potential = M.PolynomialPotential(QUARTIC_COEFFS)
        bigger, _ = M.build_from_potential(potential, constants, 320, 40)
        shift = np.abs(system.energies - bigger.energies) / np.abs(bigger.energies)
        assert np.max(shift) <= 1e-10


class TestMatrixPair:
    def test_rejects_non_hermitian(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            M.MatrixPair(x=x, p=np.zeros((2, 2), dtype=complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            M.MatrixPair(x=np.zeros((2, 2)), p=np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
    @pytest.mark.parametrize("which", ["x", "p"])
    def test_rejects_non_finite_entries(self, bad, which):
        m = np.array([[1.0, bad], [np.conj(bad), 2.0]], dtype=complex)
        good = np.eye(2, dtype=complex)
        pair = {"x": m, "p": good} if which == "x" else {"x": good, "p": m}
        with pytest.raises(ValueError, match="not hermitian"):
            M.MatrixPair(**pair)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entries_raise_no_warning(self, bad):
        m = np.array([[1.0, bad], [np.conj(bad), 2.0]], dtype=complex)
        with pytest.raises(ValueError, match="not hermitian"):
            M.MatrixPair(x=m, p=np.eye(2, dtype=complex))


class TestSpectralSystem:
    def test_rejects_decreasing_energies(self):
        with pytest.raises(ValueError):
            M.SpectralSystem(M.PhysicalConstants(), np.array([1.0, 0.5]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            M.SpectralSystem(M.PhysicalConstants(), np.array([0.0, np.inf]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            M.SpectralSystem(M.PhysicalConstants(), np.array([]))


class TestArrayDataclassEquality:
    """Array-holding dataclasses compare by identity: == never reads the arrays."""

    @pytest.fixture(params=["system", "frequencies", "pair", "table", "potential"])
    def instances(self, request, osc8):
        system, pair = osc8
        make = {
            "system": lambda: M.SpectralSystem(system.constants, system.energies),
            "frequencies": lambda: M.transition_frequencies(system),
            "pair": lambda: M.MatrixPair(x=pair.x, p=pair.p),
            "table": lambda: M.to_amplitude_table(pair.x, (1, 5), 2),
            "potential": lambda: M.PolynomialPotential(QUARTIC_COEFFS),
        }[request.param]
        return make(), make()

    def test_distinct_instances_unequal_without_raising(self, instances):
        a, b = instances
        assert not a == b
        assert a != b

    def test_instance_equals_itself_and_hashes(self, instances):
        a, _ = instances
        assert a == a
        assert {a: 1}[a] == 1
