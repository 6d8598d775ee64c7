"""Matrix pairs stored as diagonals: the same reports as dense storage, in O(N) for the oscillator."""

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import mmlab as M
from mmlab.report_io import serialize_report

CONSTANTS = {
    "unit": M.PhysicalConstants(),
    "non-unit": M.PhysicalConstants(mass=1.37, omega=0.61, hbar=1.93),
}


def _report_bytes(system, pair, alpha_max, fmt):
    """The serialized report, or the ValueError message when no window exists."""
    try:
        return serialize_report(M.full_report(system, pair, alpha_max), fmt)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("size", [1, 2, 3, 130])
@pytest.mark.parametrize("constants", sorted(CONSTANTS))
@pytest.mark.parametrize("alpha_max", [None, 2])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_banded_and_dense_pairs_serialize_the_same_bytes(size, constants, alpha_max, fmt):
    system, banded = M.build_oscillator(CONSTANTS[constants], size)
    freq = M.transition_frequencies(system)
    # dense X and P as the pair used to hold them: P formed on the full N x N grid
    x = np.array(banded.x)
    p = 1j * system.constants.mass * freq[:, :] * x
    expected = _report_bytes(system, banded, alpha_max, fmt)
    assert _report_bytes(system, M.MatrixPair(x=banded.x, p=banded.p), alpha_max, fmt) == expected
    assert _report_bytes(system, M.MatrixPair(x=x, p=p), alpha_max, fmt) == expected
    if size == 130:
        assert isinstance(expected, bytes)


def test_oscillator_momentum_is_the_dense_product_on_the_band():
    system, pair = M.build_oscillator(CONSTANTS["non-unit"], 40)
    dense = 1j * 1.37 * M.transition_frequencies(system)[:, :] * pair.x
    # the same expression per entry: equal bit for bit, signed zeros included
    on_band = np.abs(np.subtract.outer(np.arange(40), np.arange(40))) <= 1
    assert pair.p[on_band].tobytes() == dense[on_band].tobytes()
    assert np.array_equal(pair.p, dense)


@st.composite
def hermitian_banded(draw):
    size = draw(st.integers(1, 12))
    band = draw(st.integers(0, size + 1))
    unit = st.floats(-1e3, 1e3, allow_subnormal=False)
    re = draw(arrays(float, (size, size), elements=unit))
    im = draw(arrays(float, (size, size), elements=unit))
    upper = np.triu(re + 1j * im, 1)
    dense = upper + upper.conj().T + np.diag(np.diag(re))
    offsets = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    dense[offsets > band] = 0.0
    full = M.BandedMatrix.from_dense(dense).diagonals  # band size - 1
    pad = band - (size - 1)
    diagonals = np.pad(full, ((pad, pad), (0, 0))) if pad >= 0 else full[-pad:pad]
    levels = np.sort(np.array(draw(arrays(float, size, elements=st.floats(-50.0, 50.0)))))
    mass = draw(st.floats(0.5, 2.0))
    return M.BandedMatrix(diagonals), levels, mass


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hermitian_banded())
def test_dense_views_round_trip_bitwise(case):
    x, levels, mass = case
    system = M.SpectralSystem(M.PhysicalConstants(mass=mass), levels)
    freq = M.transition_frequencies(system)
    pair = M.MatrixPair(x=x, p=M.momentum_from_position(x, freq, mass))
    assert pair.xb.diagonals.shape == pair.pb.diagonals.shape == x.diagonals.shape
    again = M.MatrixPair(x=pair.x, p=pair.p)
    assert again.x.tobytes() == pair.x.tobytes()
    assert again.p.tobytes() == pair.p.tobytes()
    # the dense pair stores each matrix out to its farthest entry that is not +0: the
    # middle rows of the banded pair's diagonals
    for trimmed, banded in ((again.xb, pair.xb), (again.pb, pair.pb)):
        b, stored = trimmed.band, banded.band
        assert b <= min(stored, pair.size - 1)
        assert trimmed.diagonals.tobytes() == banded.diagonals[stored - b : stored + b + 1].tobytes()
    assert np.array_equal(pair.p, M.momentum_from_position(pair.x, freq, mass).dense())


def test_dense_oscillator_pair_is_stored_as_three_diagonals():
    system, banded = M.build_oscillator(CONSTANTS["non-unit"], 4096)
    dense = M.MatrixPair(x=banded.x, p=banded.p)
    assert dense.xb.diagonals.shape == dense.pb.diagonals.shape == (3, 4096)
    assert dense.xb.diagonals.tobytes() == banded.xb.diagonals.tobytes()
    assert dense.pb.diagonals.tobytes() == banded.pb.diagonals.tobytes()
    for fmt in ("json", "csv"):
        assert _report_bytes(system, dense, None, fmt) == _report_bytes(system, banded, None, fmt)


def test_oscillator_4096_is_stored_in_linear_memory():
    tracemalloc.start()
    try:
        system, pair = M.build_oscillator(M.PhysicalConstants(), 4096)
        report = M.full_report(system, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.xb.diagonals.shape == pair.pb.diagonals.shape == (3, 4096)
    assert report.window == (0, 4094)
    # dense complex X and P alone would take 2 * 16 * 4096^2 bytes = 537 MB
    assert peak < 100e6


class TestBandedMatrix:
    def test_slots_past_the_edge_are_zeroed(self):
        m = M.BandedMatrix(np.ones((3, 4)))
        assert m.diagonals[0, 0] == 0 and m.diagonals[2, 3] == 0
        assert np.array_equal(m.dense(), np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1))

    def test_dense_round_trip_and_entries(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = M.BandedMatrix.from_dense(dense)
        assert m.band == 4 and m.size == 5
        assert np.array_equal(m.dense(), dense)
        rows, cols = np.indices((5, 5))
        assert m.shape == (5, 5) and np.array_equal(m[rows, cols], dense)
        assert m[1, 3] == dense[1, 3] and m[0, 7] == 0 and m[4, -1] == 0
        assert M.BandedMatrix(m.diagonals[3:6])[0, 2] == 0  # beyond the band b = 1
        assert np.array_equal(m.diagonal(0, 4, 0, 2), np.append(np.diagonal(dense, 2), [0, 0]))

    def test_dense_view_is_read_only(self):
        _, pair = M.build_oscillator(M.PhysicalConstants(), 4)
        with pytest.raises(ValueError):
            pair.x[0, 1] = 1.0

    def test_band_wider_than_the_matrix(self):
        system, pair = M.build_oscillator(M.PhysicalConstants(), 1)
        assert pair.xb.band == 1 and pair.size == 1
        assert pair.xb.structural_band() == 0

    @pytest.mark.parametrize("shape", [(2, 4), (3,), (1, 0), (3, 4, 1)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="diagonals"):
            M.BandedMatrix(np.zeros(shape))

    def test_bandwidth_reads_the_diagonals(self):
        dense = np.zeros((6, 6), dtype=complex)
        dense[4, 1] = 1.0
        dense[0, 2] = 1e-13
        assert M.matrix_bandwidth(M.BandedMatrix.from_dense(dense)) == 3
        assert M.matrix_bandwidth(dense) == 3
        assert M.BandedMatrix.from_dense(dense).structural_band() == 3


def test_pair_sizes_must_agree():
    with pytest.raises(ValueError, match="sizes disagree"):
        M.MatrixPair(x=M.BandedMatrix(np.zeros((3, 4))), p=M.BandedMatrix(np.zeros((3, 5))))


def test_hermiticity_defect_is_the_dense_frobenius_ratio():
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    expected = np.linalg.norm(dense - dense.conj().T) / np.linalg.norm(dense)
    for m in (dense, M.BandedMatrix.from_dense(dense)):
        assert M.hermiticity_defect(m) == pytest.approx(expected, rel=1e-14)
