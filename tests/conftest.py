import numpy as np
import pytest

import mmlab as M

QUARTIC_COEFFS = (0.0, 0.0, 0.5, 0.0, 0.05)


@pytest.fixture(scope="session")
def constants():
    return M.PhysicalConstants()


@pytest.fixture(scope="session")
def osc8(constants):
    return M.build_oscillator(constants, 8)


@pytest.fixture(scope="session")
def osc64(constants):
    return M.build_oscillator(constants, 64)


@pytest.fixture(scope="session")
def quartic40(constants):
    potential = M.PolynomialPotential(QUARTIC_COEFFS)
    return M.build_from_potential(potential, constants, 160, 40)


#: Tolerance of a commutator entry against BLAS, in units of eps * sum_k |terms|: the
#: report sums the terms left to right, while BLAS may reorder them and fuse a
#: multiply-add, so the two may differ by a few roundings of the terms' magnitude (at most
#: 3.5 seen over 1500 generated pairs of size <= 48, dense ones included).
COMMUTATOR_ULPS = 8


def _matches_dense_commutator(report, pair):
    """The report's [X, P] fields against ``commutator``, within COMMUTATOR_ULPS."""
    x, p = np.asarray(pair.x), np.asarray(pair.p)
    dense = M.commutator(x, p)
    # sum_k |X(i,k) P(k,j)| + |P(i,k) X(k,j)|, entry by entry
    tol = COMMUTATOR_ULPS * np.finfo(float).eps * (np.abs(x) @ np.abs(p) + np.abs(p) @ np.abs(x))
    for row in report.rows:
        assert abs(row.commutator_diag - dense[row.n, row.n]) <= tol[row.n, row.n]
    assert abs(report.edge_diag - dense[-1, -1]) <= tol[-1, -1]
    # the trace adds a rounding of each partial sum of the diagonal
    trace_tol = np.trace(tol) + len(dense) * np.finfo(float).eps * np.sum(np.abs(np.diag(dense)))
    assert abs(report.trace_commutator - np.trace(dense)) <= trace_tol
    end = report.window[1] + 1
    block = dense[:end, :end] - np.diag(np.diag(dense[:end, :end]))
    off_tol = np.max(tol[:end, :end] - np.diag(np.diag(tol[:end, :end])), initial=0.0)
    assert abs(report.offdiag_max - np.max(np.abs(block), initial=0.0)) <= off_tol


@pytest.fixture(scope="session")
def matches_dense_commutator():
    """Asserts that a report's [X, P] fields agree with ``commutator`` within COMMUTATOR_ULPS."""
    return _matches_dense_commutator
