import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import mmlab as M
from mmlab import conditions


def reference_sum(name, x, p, w, n, jumps):
    """Direct loop of a docstring formula over the jumps: its sum and its term magnitudes."""

    def at(m, r, c):  # pairs off the matrix read as zero
        return m[r, c] if 0 <= r < len(m) and 0 <= c < len(m) else 0j

    total, scale = 0j, 0.0
    for a in jumps:
        up, down = {  # (added, subtracted) term at jump a
            "heisenberg": (abs(at(x, n + a, n)) ** 2 * at(w, n + a, n),
                           abs(at(x, n - a, n)) ** 2 * at(w, n, n - a)),
            "born_jordan": (at(x, n, n + a) * at(x, n + a, n) * at(w, n + a, n),
                            at(x, n, n - a) * at(x, n - a, n) * at(w, n, n - a)),
            "commutator": (at(p, n + a, n) * at(x, n, n + a), at(p, n, n + a) * at(x, n + a, n)),
            "loop": (-1j * at(w, n, n - a) * at(p, n, n - a) * at(x, n - a, n), 0.0),
            "state_difference": (-2j * math.pi * at(p, n + a, n) * at(x, n, n + a),
                                 -2j * math.pi * at(p, n, n - a) * at(x, n - a, n)),
        }[name]
        total += up - down
        scale += abs(up) + abs(down)
    return total, scale


@pytest.fixture(scope="module")
def osc8_parts(osc8):
    system, pair = osc8
    freq = M.transition_frequencies(system)
    return system, pair, freq


class TestReferenceDoubleLoop:
    @pytest.mark.parametrize("size", [5, 12, 33])
    def test_public_sums_match_the_docstring_formulas(self, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        p = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        energies = np.sort(rng.uniform(0.0, 5.0, size))
        freq = M.transition_frequencies(M.SpectralSystem(M.PhysicalConstants(), energies))
        w = freq.levels[:, None] - freq.levels[None, :]
        mass, period = 1.7, 2.5

        def check(value, name, n, jumps, factor=1.0):
            expected, scale = reference_sum(name, x, p, w, n, jumps)
            expected = factor * (expected.real if isinstance(value, float) else expected)
            assert abs(value - expected) <= 1e-13 * abs(factor) * scale

        for alpha in range(5):
            jumps = range(-alpha, alpha + 1)
            for n in range(size - alpha):  # n = 0 .. window_hi
                check(M.heisenberg_sum(x, freq, mass, n, alpha), "heisenberg", n, jumps, mass)
                check(M.modified_sum(x, freq, mass, n, alpha), "heisenberg", n, jumps, mass)
                check(M.born_jordan_sum(x, freq, mass, n, alpha), "born_jordan", n, jumps, mass)
                check(M.commutator_diagonal_sum(x, p, n, alpha), "commutator", n, jumps)
        every_jump = range(-size, size + 1)
        for n in range(size):
            value = M.loop_integral_diagonal(x, p, freq, n, period)
            check(value, "loop", n, every_jump, period)
            value = M.loop_integral_state_difference(x, p, n)
            check(value, "state_difference", n, every_jump)


class TestCommutator:
    def test_truncated_oscillator_diagonal(self, osc8_parts):
        _, pair, _ = osc8_parts
        comm = M.commutator(pair.x, pair.p)
        diag = np.diag(comm)
        # trace-zero identity forces the corner entry to -(N-1) i hbar
        assert np.max(np.abs(diag[:7] - 1j)) <= 1e-12
        assert abs(diag[7] - (-7j)) <= 1e-12
        assert abs(np.trace(comm)) <= 1e-9 * 8

    def test_equal_arguments_commute(self, osc8_parts):
        _, pair, _ = osc8_parts
        assert np.all(M.commutator(pair.x, pair.x) == 0)

    def test_trace_identity_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
            b = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
            assert abs(np.trace(M.commutator(a, b))) <= 1e-9 * 20

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            M.commutator(np.eye(2), np.eye(3))


_WIDE = np.ones((3, 4))
_FREQ3 = M.FrequencyTable(np.zeros(3))
_NON_SQUARE_CALLS = [
    (M.commutator, (_WIDE, _WIDE)),
    (M.heisenberg_sum, (_WIDE, _FREQ3, 1.0, 1, 1)),
    (M.modified_sum, (_WIDE, _FREQ3, 1.0, 1, 1)),
    (M.born_jordan_sum, (_WIDE, _FREQ3, 1.0, 1, 1)),
    (M.nearest_neighbor_rewrite, (_WIDE, 1.0, 1.0, 1)),
    (M.commutator_diagonal_sum, (_WIDE, _WIDE, 1, 1)),
    (M.loop_integral_diagonal, (_WIDE, _WIDE, _FREQ3, 1, 1.0)),
    (M.loop_integral_state_difference, (_WIDE, _WIDE, 1)),
]


@pytest.mark.parametrize(
    "function, args", _NON_SQUARE_CALLS, ids=[f.__name__ for f, _ in _NON_SQUARE_CALLS]
)
def test_non_square_matrix_rejected(function, args):
    with pytest.raises(ValueError, match="square"):
        function(*args)


_SIZE_MISMATCH_CALLS = {
    "heisenberg_sum": lambda x, freq: M.heisenberg_sum(x, freq, 1.0, 5, 1),
    "heisenberg_sum-table": lambda x, freq: M.heisenberg_sum(
        M.to_amplitude_table(x, (0, 7), 1), freq, 1.0, 5, 1
    ),
    "born_jordan_sum": lambda x, freq: M.born_jordan_sum(x, freq, 1.0, 5, 1),
    "modified_sum": lambda x, freq: M.modified_sum(x, freq, 1.0, 5, 1),
    "loop_integral_diagonal": lambda x, freq: M.loop_integral_diagonal(x, x, freq, 2, 1.0),
}


@pytest.mark.parametrize("freq_size", [4, 12])
@pytest.mark.parametrize("call", _SIZE_MISMATCH_CALLS.values(), ids=list(_SIZE_MISMATCH_CALLS))
def test_frequency_table_of_another_size_rejected(osc8, constants, call, freq_size):
    # a smaller table used to read its missing frequencies as zero
    _, pair = osc8
    system, _ = M.build_oscillator(constants, freq_size)
    freq = M.transition_frequencies(system)
    with pytest.raises(ValueError, match="^position matrix and frequency table sizes disagree$"):
        call(pair.x, freq)


class TestHeisenbergSum:
    def test_oscillator_interior(self, osc8_parts):
        _, pair, freq = osc8_parts
        assert M.heisenberg_sum(pair.x, freq, 1.0, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_negative_indices_vanish(self, osc8_parts):
        _, pair, freq = osc8_parts
        assert M.heisenberg_sum(pair.x, freq, 1.0, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_window_violation(self, osc8_parts):
        _, pair, freq = osc8_parts
        with pytest.raises(ValueError):
            M.heisenberg_sum(pair.x, freq, 1.0, 7, 1)
        with pytest.raises(ValueError):
            M.heisenberg_sum(pair.x, freq, 1.0, -1, 1)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda x, p, freq, table: M.commutator_diagonal_sum(x, p, 2, -3),
        lambda x, p, freq, table: M.heisenberg_sum(x, freq, 1.0, 2, -1),
        lambda x, p, freq, table: M.heisenberg_sum(table, freq, 1.0, 2, -1),
        lambda x, p, freq, table: M.modified_sum(x, freq, 1.0, 2, -1),
        lambda x, p, freq, table: M.born_jordan_sum(x, freq, 1.0, 2, -2),
    ],
    ids=["commutator_diagonal", "heisenberg_matrix", "heisenberg_table", "modified", "born_jordan"],
)
def test_negative_alpha_max_rejected(osc8_parts, evaluate):
    _, pair, freq = osc8_parts
    table = M.to_amplitude_table(pair.x, (0, 7), 1)
    with pytest.raises(ValueError, match="alpha_max must be nonnegative"):
        evaluate(pair.x, pair.p, freq, table)


#: Every per-state evaluator, called on the 8-state oscillator at state n and jump alpha
#: (evaluators without a jump ignore it).
_PER_STATE_CALLS = {
    "heisenberg_sum": lambda pair, freq, table, n, a: M.heisenberg_sum(pair.x, freq, 1.0, n, a),
    "heisenberg_sum-table": lambda pair, freq, table, n, a: M.heisenberg_sum(
        table, freq, 1.0, n, a
    ),
    "born_jordan_sum": lambda pair, freq, table, n, a: M.born_jordan_sum(pair.x, freq, 1.0, n, a),
    "modified_sum": lambda pair, freq, table, n, a: M.modified_sum(pair.x, freq, 1.0, n, a),
    "commutator_diagonal_sum": lambda pair, freq, table, n, a: M.commutator_diagonal_sum(
        pair.x, pair.p, n, a
    ),
    "nearest_neighbor_rewrite": lambda pair, freq, table, n, a: M.nearest_neighbor_rewrite(
        pair.x, 1.0, 1.0, n
    ),
    "loop_integral_diagonal": lambda pair, freq, table, n, a: M.loop_integral_diagonal(
        pair.x, pair.p, freq, n, 1.0
    ),
    "loop_integral_state_difference": lambda pair, freq, table, n, a: (
        M.loop_integral_state_difference(pair.x, pair.p, n)
    ),
}
_JUMP_CALLS = ("heisenberg_sum", "heisenberg_sum-table", "born_jordan_sum", "modified_sum",
               "commutator_diagonal_sum")


@pytest.mark.parametrize(
    "name, n, alpha",
    [(name, n, 1) for name in _PER_STATE_CALLS for n in (2.0, 2.5, np.float64(2.0))]
    + [(name, 2, alpha) for name in _JUMP_CALLS for alpha in (1.0, 1.5, np.float64(1.0))],
)
def test_non_integer_label_rejected(osc8_parts, name, n, alpha):
    # a float label is the caller's error: ValueError, not a TypeError or IndexError from a read
    _, pair, freq = osc8_parts
    table = M.to_amplitude_table(pair.x, (0, 7), 1)
    label = "state label" if isinstance(alpha, int) else "alpha_max"
    with pytest.raises(ValueError, match=f"^{label} must be an integer, got"):
        _PER_STATE_CALLS[name](pair, freq, table, n, alpha)


@pytest.mark.parametrize("name", list(_PER_STATE_CALLS))
def test_numpy_integer_labels_are_the_python_ints(osc8_parts, name):
    _, pair, freq = osc8_parts
    table = M.to_amplitude_table(pair.x, (0, 7), 1)
    call = _PER_STATE_CALLS[name]
    expected = repr(call(pair, freq, table, 2, 1))
    assert repr(call(pair, freq, table, np.int64(2), np.int64(1))) == expected
    assert repr(call(pair, freq, table, np.int32(2), np.int32(1))) == expected


@pytest.mark.parametrize(
    "call",
    [lambda x, p, freq: M.commutator_diagonal_sum(x, p, 1),
     lambda x, p, freq: M.loop_integral_state_difference(x, p, 1),
     lambda x, p, freq: M.loop_integral_diagonal(x, p, freq, 1, 1.0)],
    ids=["commutator_diagonal_sum", "loop_integral_state_difference", "loop_integral_diagonal"],
)
def test_position_and_momentum_of_another_size_rejected(osc8_parts, call):
    _, pair, freq = osc8_parts
    with pytest.raises(ValueError, match="^position and momentum sizes disagree: 8 and 4$"):
        call(pair.x, np.eye(4), freq)


class TestImposeHeisenbergReality:
    def test_amplitudes_lose_state_dependence(self, osc8_parts):
        _, pair, _ = osc8_parts
        table = M.to_amplitude_table(pair.x, (1, 5), 1)
        constrained = M.impose_heisenberg_reality(table)
        values = [constrained.amplitude_for_pair(n, n - 1) for n in range(1, 6)]
        assert max(abs(v - values[0]) for v in values) <= 1e-12
        # oracle: the projection averages the +1 diagonal together with the
        # conjugated -1 diagonal over the recorded window
        pool = [math.sqrt(n / 2.0) for n in range(1, 6)]
        pool += [math.sqrt((n + 1) / 2.0) for n in range(1, 6)]
        expected = sum(pool) / len(pool)
        assert constrained.amplitude_for_pair(3, 2).real == pytest.approx(expected, abs=1e-12)
        assert constrained.amplitude_for_pair(3, 4).real == pytest.approx(expected, abs=1e-12)

    def test_result_satisfies_both_constraints(self, osc8_parts):
        _, pair, _ = osc8_parts
        table = M.to_amplitude_table(pair.x, (0, 7), 1)
        constrained = M.impose_heisenberg_reality(table)
        assert constrained.hermitian_consistent
        assert constrained.heisenberg_real

    def test_state_independence_along_each_diagonal(self, osc8_parts):
        _, pair, _ = osc8_parts
        table = M.to_amplitude_table(pair.x, (0, 7), 1)
        constrained = M.impose_heisenberg_reality(table)
        present = constrained.present()
        for band in (1, -1):
            values = constrained.amplitudes[present[:, 1 + band], 1 + band]
            assert max(abs(v - values[0]) for v in values) <= 1e-12

    def test_fixed_point(self, osc8_parts):
        _, pair, _ = osc8_parts
        table = M.to_amplitude_table(pair.x, (1, 5), 1)
        once = M.impose_heisenberg_reality(table)
        twice = M.impose_heisenberg_reality(once)
        assert np.max(np.abs(twice.amplitudes - once.amplitudes)) <= 1e-14

    def test_rejects_inconsistent_table(self, osc8_parts):
        _, pair, _ = osc8_parts
        x = np.array(pair.x)
        x[0, 1] += 1e-3  # break hermiticity
        table = M.to_amplitude_table(x, (0, 7), 1)
        assert not table.hermitian_consistent
        with pytest.raises(ValueError):
            M.impose_heisenberg_reality(table)

    def test_constrained_sum_collapses_to_zero(self, osc8_parts):
        _, pair, freq = osc8_parts
        table = M.to_amplitude_table(pair.x, (0, 7), 1)
        constrained = M.impose_heisenberg_reality(table)
        for n in range(1, 7):
            assert abs(M.heisenberg_sum(constrained, freq, 1.0, n, 1)) <= 1e-12


class TestBornJordanAndModifiedSums:
    def test_oscillator_values(self, osc8_parts):
        _, pair, freq = osc8_parts
        for n in range(7):
            assert M.born_jordan_sum(pair.x, freq, 1.0, n, 1) == pytest.approx(1.0, abs=1e-12)
            assert M.modified_sum(pair.x, freq, 1.0, n, 1) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_matrix_gives_zero(self):
        system = M.SpectralSystem(M.PhysicalConstants(), np.array([0.0, 1.0, 3.0]))
        freq = M.transition_frequencies(system)
        x = np.diag([0.3, -0.2, 1.0]).astype(complex)
        assert M.born_jordan_sum(x, freq, 1.0, 1, 1) == 0.0

    def test_hermitian_equivalence_random(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        x = 0.5 * (x + x.conj().T)
        system = M.SpectralSystem(
            M.PhysicalConstants(), np.sort(rng.uniform(0.0, 5.0, size=10))
        )
        freq = M.transition_frequencies(system)
        for n in range(7):
            a = M.born_jordan_sum(x, freq, 1.0, n, 3)
            b = M.modified_sum(x, freq, 1.0, n, 3)
            assert abs(a - b) <= 1e-12

    def test_rephasing_invariance(self, osc8_parts):
        _, pair, freq = osc8_parts
        rng = np.random.default_rng(31)
        base = [M.born_jordan_sum(pair.x, freq, 1.0, n, 1) for n in range(7)]
        for _ in range(25):
            d = np.exp(1j * rng.uniform(0, 2 * math.pi, size=8))
            xr = d[:, None] * np.asarray(pair.x) * d.conj()[None, :]
            for n in range(7):
                assert abs(M.born_jordan_sum(xr, freq, 1.0, n, 1) - base[n]) <= 1e-12


class TestNearestNeighborRewrite:
    def test_lowest_states(self, osc8_parts):
        _, pair, _ = osc8_parts
        assert M.nearest_neighbor_rewrite(pair.x, 1.0, 1.0, 0) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-10
        )
        assert M.nearest_neighbor_rewrite(pair.x, 1.0, 1.0, 1) == pytest.approx(
            math.sqrt(6.0) / 2.0, abs=1e-10
        )

    def test_approaches_hbar_only_slowly(self, osc64):
        _, pair = osc64
        value = M.nearest_neighbor_rewrite(pair.x, 1.0, 1.0, 20)
        expected = 0.5 * (math.sqrt(21.0 * 22.0) - math.sqrt(20.0 * 19.0))
        assert value == pytest.approx(expected, abs=1e-10)
        assert abs(value - 1.0) > 1e-4  # still off hbar at n = 20

    def test_rejects_wide_band_matrices(self, quartic40):
        _, pair = quartic40
        with pytest.raises(ValueError):
            M.nearest_neighbor_rewrite(pair.x, 1.0, 1.0, 0)

    def test_rejects_band_below_the_diagonal(self):
        x = np.zeros((6, 6), dtype=complex)
        x[4, 1] = 1.0
        with pytest.raises(ValueError):
            M.nearest_neighbor_rewrite(x, 1.0, 1.0, 0)


class TestCommutatorDiagonalSum:
    def test_matches_commutator(self, osc8_parts):
        _, pair, _ = osc8_parts
        comm = M.commutator(pair.x, pair.p)
        for n in range(7):
            value = M.commutator_diagonal_sum(pair.x, pair.p, n, 1)
            assert abs(value - comm[n, n]) <= 1e-12

    def test_equal_arguments(self, osc8_parts):
        _, pair, _ = osc8_parts
        assert M.commutator_diagonal_sum(pair.x, pair.x, 2, 1) == 0j

    def test_zero_band_limit(self, osc8_parts):
        _, pair, _ = osc8_parts
        assert M.commutator_diagonal_sum(pair.x, pair.p, 2, 0) == 0j


class TestLoopIntegral:
    def test_ground_state_value(self, osc8_parts):
        _, pair, freq = osc8_parts
        value = M.loop_integral_diagonal(pair.x, pair.p, freq, 0, 2 * math.pi)
        assert value == pytest.approx(math.pi, abs=1e-12)

    def test_first_excited_value(self, osc8_parts):
        # direct-sum oracle: T m sum_a w(n, n-a)^2 |X(n, n-a)|^2
        system, pair, freq = osc8_parts
        n = 1
        oracle = 0.0
        for k in range(8):
            oracle += freq[n, k] ** 2 * abs(pair.x[n, k]) ** 2
        oracle *= 2 * math.pi
        value = M.loop_integral_diagonal(pair.x, pair.p, freq, n, 2 * math.pi)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(3 * math.pi, abs=1e-12)

    def test_matches_classical_action_scale(self, osc8_parts):
        # over one period the loop integral reproduces 2 pi E_n / omega
        system, pair, freq = osc8_parts
        for n in range(7):
            value = M.loop_integral_diagonal(pair.x, pair.p, freq, n, 2 * math.pi)
            assert value.real == pytest.approx(2 * math.pi * system.energies[n], rel=1e-12)

    def test_invalid_arguments(self, osc8_parts):
        _, pair, freq = osc8_parts
        with pytest.raises(ValueError):
            M.loop_integral_diagonal(pair.x, pair.p, freq, 9, 2 * math.pi)
        with pytest.raises(ValueError):
            M.loop_integral_diagonal(pair.x, pair.p, freq, 0, -1.0)

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_a_period_that_is_not_finite_and_positive(self, osc8_parts, period):
        _, pair, freq = osc8_parts
        with pytest.raises(ValueError, match="period must be finite and positive"):
            M.loop_integral_diagonal(pair.x, pair.p, freq, 0, period)


class TestStateDifference:
    def test_interior_states_give_two_pi_hbar(self, osc8_parts):
        _, pair, _ = osc8_parts
        for n in range(7):
            value = M.loop_integral_state_difference(pair.x, pair.p, n)
            assert value == pytest.approx(2 * math.pi, abs=1e-12)

    def test_real_for_hermitian_input_even_at_the_edge(self, osc8_parts):
        _, pair, _ = osc8_parts
        for n in range(8):
            value = M.loop_integral_state_difference(pair.x, pair.p, n)
            assert abs(value.imag) <= 1e-10 * abs(value)

    @pytest.mark.parametrize("size", [5, 12, 33])
    def test_is_minus_two_pi_i_times_the_commutator_diagonal_bitwise(self, size):
        rng = np.random.default_rng(1000 + size)
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        p = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        expected = -2j * math.pi * M.commutator_diagonal_sum(x, p, 0, size - 1)
        assert repr(M.loop_integral_state_difference(x, p, 0)) == repr(expected)

    @pytest.mark.parametrize("fixture, alpha_max", [("osc64", None), ("quartic40", 9)])
    def test_is_minus_two_pi_i_times_the_report_diagonal(self, request, fixture, alpha_max):
        system, pair = request.getfixturevalue(fixture)
        report = M.full_report(system, pair, alpha_max)
        h = 2 * math.pi * system.constants.hbar
        for row in report.rows:
            value = M.loop_integral_state_difference(pair.x, pair.p, row.n)
            assert abs(-2j * math.pi * row.commutator_diag - value) <= 1e-13 * h


class TestFullReport:
    @pytest.mark.parametrize("fixture", ["osc64", "quartic40"])
    def test_reads_no_dense_matrix_and_no_entry_by_index(self, request, monkeypatch, fixture):
        # the report reads X and P as stored diagonals only
        system, pair = request.getfixturevalue(fixture)
        expected = repr(M.full_report(system, pair))

        def refuse(*args):
            raise AssertionError("the report read a BandedMatrix entry by index or densely")

        monkeypatch.setattr(M.BandedMatrix, "__getitem__", refuse)
        monkeypatch.setattr(M.BandedMatrix, "dense", refuse)
        assert repr(M.full_report(system, pair)) == expected

    def test_oscillator_report_values(self, osc64):
        system, pair = osc64
        report = M.full_report(system, pair)
        assert report.window == (0, 62)
        assert report.alpha_max == 1
        for row in report.rows:
            assert abs(row.residual_eq25) <= 1e-10
            assert abs(row.residual_eq14) <= 1e-10
        assert report.rows[0].residual_bj_alternative == pytest.approx(
            1.0 / math.sqrt(2.0) - 1.0, abs=1e-10
        )
        assert report.offdiag_max <= 1e-10
        assert abs(report.trace_commutator) <= 1e-9 * 64
        assert report.edge_diag == pytest.approx(-63j, abs=1e-8)

    def test_single_state_system_rejected(self, constants):
        system, pair = M.build_oscillator(constants, 1)
        with pytest.raises(ValueError):
            M.full_report(system, pair)

    def test_deterministic(self, osc8):
        system, pair = osc8
        first = M.full_report(system, pair)
        second = M.full_report(system, pair)
        assert first == second

    def test_quartic_rows_mark_rewrite_undefined(self, quartic40):
        system, pair = quartic40
        report = M.full_report(system, pair, alpha_max=9)
        assert report.window == (0, 30)
        assert all(math.isnan(row.bj_alternative) for row in report.rows)
        for row in report.rows:
            assert abs(row.residual_eq25) <= 1e-8
            assert abs(row.residual_commutator) <= 1e-8

    @pytest.mark.parametrize("fixture, alpha_max", [("osc64", None), ("quartic40", 9)])
    def test_rows_equal_public_functions_bitwise(self, request, fixture, alpha_max):
        system, pair = request.getfixturevalue(fixture)
        report = M.full_report(system, pair, alpha_max)
        freq = M.transition_frequencies(system)
        mass, omega = system.constants.mass, system.constants.omega
        table = M.to_amplitude_table(pair.x, (0, system.size - 1), report.alpha_max)
        constrained = M.impose_heisenberg_reality(table)
        for row in report.rows:
            n, amax = row.n, report.alpha_max
            try:
                bj = M.nearest_neighbor_rewrite(pair.x, mass, omega, n)
            except ValueError:
                bj = math.nan
            expected = (
                M.heisenberg_sum(pair.x, freq, mass, n, amax),
                M.heisenberg_sum(constrained, freq, mass, n, amax),
                M.born_jordan_sum(pair.x, freq, mass, n, amax),
                M.modified_sum(pair.x, freq, mass, n, amax),
                bj,
                M.commutator_diagonal_sum(pair.x, pair.p, n, None),
            )
            actual = (
                row.eq4_hermitian,
                row.eq4_constrained,
                row.eq14,
                row.eq25,
                row.bj_alternative,
                row.commutator_diag,
            )
            assert repr(actual) == repr(expected)

    @pytest.mark.parametrize("fixture, alpha_max", [("osc64", None), ("quartic40", 9)])
    def test_commutator_fields_match_the_dense_commutator(
        self, request, fixture, alpha_max, matches_dense_commutator
    ):
        system, pair = request.getfixturevalue(fixture)
        matches_dense_commutator(M.full_report(system, pair, alpha_max), pair)

    def test_probes_bandwidth_once(self, osc64, monkeypatch):
        calls = []

        def counting(x, *args):
            calls.append(1)
            return M.matrix_bandwidth(x, *args)

        monkeypatch.setattr(conditions, "matrix_bandwidth", counting)
        M.full_report(*osc64)
        assert len(calls) == 1

    def test_rephasing_leaves_commutator_rows(self, osc8):
        system, pair = osc8
        rng = np.random.default_rng(41)
        base = np.diag(M.commutator(pair.x, pair.p))
        base_banded = [M.commutator_diagonal_sum(pair.x, pair.p, n, 1) for n in range(7)]
        for _ in range(10):
            d = np.exp(1j * rng.uniform(0, 2 * math.pi, size=8))
            xr = d[:, None] * np.asarray(pair.x) * d.conj()[None, :]
            pr = d[:, None] * np.asarray(pair.p) * d.conj()[None, :]
            assert np.max(np.abs(np.diag(M.commutator(xr, pr)) - base)) <= 1e-12
            for n in range(7):
                banded = M.commutator_diagonal_sum(xr, pr, n, 1)
                assert abs(banded - base_banded[n]) <= 1e-12


# Reference copy of the amplitude-table path as it was when the table was a dict
# keyed by (n, alpha) tuples: the table with its per-pair flag loop, the
# per-pair recording, the sorted per-band projection and the per-state band
# read.  Only the class name differs.  The dense (state, jump) array must
# reproduce it bit for bit.


@dataclass(frozen=True)
class _DictAmplitudeTable:
    window: tuple[int, int]
    alpha_max: int
    size: int
    entries: dict
    hermitian_consistent: bool = field(init=False)
    heisenberg_real: bool = field(init=False)

    def __post_init__(self):
        lo, hi = self.window
        if not (0 <= lo <= hi <= self.size - 1):
            raise ValueError(f"window {self.window} out of range for size {self.size}")
        if self.alpha_max < 0:
            raise ValueError("alpha_max must be nonnegative")
        herm = True
        real = True
        for (n, a), value in self.entries.items():
            partner = self.entries.get((n - a, -a))
            if partner is not None and abs(value - partner.conjugate()) > 1e-12:
                herm = False
            partner = self.entries.get((n, -a))
            if partner is not None and abs(value - partner.conjugate()) > 1e-12:
                real = False
        object.__setattr__(self, "hermitian_consistent", herm)
        object.__setattr__(self, "heisenberg_real", real)

    def amplitude_for_pair(self, row: int, col: int) -> complex:
        if not (0 <= row < self.size and 0 <= col < self.size):
            return 0j
        key = (row, row - col)
        try:
            return self.entries[key]
        except KeyError:
            raise ValueError(
                f"amplitude for pair ({row},{col}) is outside the recorded window"
            ) from None

    def diagonal(self, lo, hi, row, col):
        # the band kernel's read, one dict lookup per state
        values = [self.amplitude_for_pair(n + row, n + col) for n in range(lo, hi + 1)]
        return np.array(values, dtype=complex)


def _dict_to_amplitude_table(x, window, alpha_max):
    xm = np.asarray(x, dtype=complex)
    if xm.ndim != 2 or xm.shape[0] != xm.shape[1]:
        raise ValueError("position matrix must be square")
    size = xm.shape[0]
    lo, hi = window
    if not (0 <= lo <= hi <= size - 1):
        raise ValueError(f"window {window} out of range for matrix size {size}")
    entries = {}
    for n in range(lo, hi + 1):
        for a in range(-alpha_max, alpha_max + 1):
            if 0 <= n - a < size:
                entries[(n, a)] = complex(xm[n, n - a])
    return _DictAmplitudeTable(window=(lo, hi), alpha_max=alpha_max, size=size, entries=entries)


def _dict_impose_heisenberg_reality(table):
    if not table.hermitian_consistent:
        raise ValueError("table must satisfy the hermiticity-derived constraint")
    new_entries = dict(table.entries)
    for band in range(table.alpha_max + 1):
        plus_keys = sorted(k for k in table.entries if k[1] == band)
        minus_keys = sorted(k for k in table.entries if k[1] == -band)
        pool = [table.entries[k] for k in plus_keys]
        pool += [table.entries[k].conjugate() for k in minus_keys if band != 0]
        if not pool:
            continue
        mean = sum(pool) / len(pool)
        if band == 0:
            mean = complex(mean.real, 0.0)
        for k in plus_keys:
            new_entries[k] = mean
        for k in minus_keys:
            new_entries[k] = mean.conjugate()
    return _DictAmplitudeTable(
        window=table.window,
        alpha_max=table.alpha_max,
        size=table.size,
        entries=new_entries,
    )


def _window_sum(table, freq, mass, n, alpha):
    # the band kernel behind heisenberg_sum, on state n alone
    return conditions._frequency_sum(None, table, freq, mass, n, n, alpha)


def _outcome(call):
    """repr of a call's value, or its ValueError message."""
    try:
        return repr(call())
    except ValueError as exc:
        return f"ValueError: {exc}"


def _table_matrix(size, kind):
    rng = np.random.default_rng(1000 + size)
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if kind == "general":
        return raw
    zeros = rng.random((size, size)) < 0.1
    hermitian = raw + raw.conj().T
    hermitian[zeros | zeros.T] = 0.0  # structural zeros, kept hermitian
    return hermitian


def _table_cases():
    for size in (1, 2, 5, 12, 33):
        rng = np.random.default_rng(size)
        lo = int(rng.integers(0, size))
        hi = int(rng.integers(lo, size))
        for kind in ("hermitian", "general"):
            for window in sorted({(0, size - 1), (lo, hi), (size // 2, size // 2)}):
                for alpha in range(5):
                    yield size, kind, window, alpha


class TestTableBitIdenticalToDictReference:
    @staticmethod
    def assert_same_table(new, old):
        lo, hi = new.window
        amax = new.alpha_max
        present = new.present()
        assert {
            (lo + i, k - amax) for i, k in zip(*np.nonzero(present))
        } == set(old.entries)
        for (n, a), value in old.entries.items():
            assert repr(complex(new.amplitudes[n - lo, a + amax])) == repr(value)
            assert repr(new.amplitude_for_pair(n, n - a)) == repr(value)
        assert not np.any(new.amplitudes[~present])
        assert new.hermitian_consistent is old.hermitian_consistent
        assert new.heisenberg_real is old.heisenberg_real

    @pytest.mark.parametrize(
        "size, kind, window, alpha",
        [pytest.param(*case, id="{}-{}-w{}:{}-a{}".format(case[0], case[1], *case[2], case[3]))
         for case in _table_cases()],
    )
    def test_table_projection_and_sum(self, size, kind, window, alpha):
        x = _table_matrix(size, kind)
        rng = np.random.default_rng(size)
        energies = np.sort(rng.uniform(0.0, 5.0, size))
        freq = M.transition_frequencies(M.SpectralSystem(M.PhysicalConstants(), energies))
        mass = 1.3

        new = M.to_amplitude_table(x, window, alpha)
        old = _dict_to_amplitude_table(x, window, alpha)
        self.assert_same_table(new, old)
        tables = [(new, old)]
        outcome = _outcome(lambda: M.impose_heisenberg_reality(new))
        assert outcome.startswith("ValueError") == (not old.hermitian_consistent)
        if outcome.startswith("ValueError"):
            assert outcome == _outcome(lambda: _dict_impose_heisenberg_reality(old))
        else:
            constrained = M.impose_heisenberg_reality(new), _dict_impose_heisenberg_reality(old)
            self.assert_same_table(*constrained)
            tables.append(constrained)

        for row in range(-1, size + 1):
            for col in range(-1, size + 1):
                assert _outcome(lambda: new.amplitude_for_pair(row, col)) == _outcome(
                    lambda: old.amplitude_for_pair(row, col)
                )
        for table, reference in tables:
            actual = [
                _outcome(lambda: M.heisenberg_sum(table, freq, mass, n, alpha))
                for n in range(size - alpha)
            ]
            expected = [
                _outcome(lambda: float(_window_sum(reference, freq, mass, n, alpha)[0].real))
                for n in range(size - alpha)
            ]
            assert actual == expected

    def test_cases_cover_rejections_and_missing_pairs(self):
        # the parametrized cases exercise both error paths, not only values
        messages = set()
        for size, kind, window, alpha in _table_cases():
            table = _dict_to_amplitude_table(_table_matrix(size, kind), window, alpha)
            if not table.hermitian_consistent:
                messages.add("inconsistent")
            elif kind == "hermitian":
                messages.add("consistent")
            for n in range(size - alpha):
                for a in range(-alpha, alpha + 1):
                    if "outside the recorded window" in _outcome(
                        lambda: table.amplitude_for_pair(n + a, n)
                    ):
                        messages.add("missing")
        assert messages == {"consistent", "inconsistent", "missing"}
