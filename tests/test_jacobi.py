import warnings

import numpy as np
import pytest

import mmlab as M
from mmlab import NumericalError, jacobi, jacobi_eigh, spectral

QUARTIC_COEFFS = (0.0, 0.0, 0.5, 0.0, 0.05)
SEXTIC_COEFFS = (0.0, 0.1, 0.5, -0.05, 0.1, 0.01, 0.005)


def assert_matches_lapack(s, w, v):
    # LAPACK as the oracle: eigenvalues to 1e-13 ||S||_F, vectors to 1e-11 up to sign
    w_ref, v_ref = np.linalg.eigh(s)
    assert np.max(np.abs(w - w_ref)) <= 1e-13 * np.linalg.norm(s)
    signs = np.sign(np.sum(v * v_ref, axis=0))
    assert np.max(np.abs(v - v_ref * signs)) <= 1e-11


def test_diagonal_matrix_sorted():
    w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0], rtol=0, atol=0)
    # eigenvectors are the permuted identity columns
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], rtol=0, atol=0)


def test_two_by_two_exchange():
    w, v = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-15)
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("n", [5, 50, 200])
def test_random_symmetric_properties(n):
    rng = np.random.default_rng(n)
    s = rng.standard_normal((n, n))
    s = s + s.T
    w, v = jacobi_eigh(s)
    fro = np.linalg.norm(s)
    # residual oracle: each pair must satisfy S v = lambda v
    residual = np.linalg.norm(s @ v - v * w[None, :], axis=0)
    assert np.max(residual) <= 1e-11 * fro
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-11
    assert np.all(np.diff(w) >= 0.0)


def test_deterministic_output():
    rng = np.random.default_rng(7)
    s = rng.standard_normal((40, 40))
    s = s + s.T
    w1, v1 = jacobi_eigh(s)
    w2, v2 = jacobi_eigh(s)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_potential_build_repeats_bitwise(constants):
    potential = M.PolynomialPotential(SEXTIC_COEFFS)
    first = M.build_from_potential(potential, constants, 48, 12)
    second = M.build_from_potential(potential, constants, 48, 12)
    assert first[0].energies.tobytes() == second[0].energies.tobytes()
    assert first[1].x.tobytes() == second[1].x.tobytes()
    assert first[1].p.tobytes() == second[1].p.tobytes()


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_huge_antisymmetric_entries_without_warning():
    # the norms are taken on S / max|S|, so an entry near the largest double cannot
    # overflow them into inf > 1e-12 * inf, which passed the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not symmetric"):
            jacobi_eigh(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_accepts_huge_symmetric_entries_in_the_symmetry_test():
    assert jacobi.relative_defect(np.full((2, 2), 1e308), np.full((2, 2), 1e308)) == 0.0
    assert np.isnan(jacobi.relative_defect(np.array([[1.0, np.nan]]), np.zeros((1, 2))))


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        jacobi_eigh(np.zeros((2, 3)))


@pytest.mark.parametrize("entry, value", [((0, 1), np.inf), ((2, 2), np.nan)])
def test_rejects_non_finite_entry_without_warning(entry, value):
    # inf - inf is NaN, so the symmetry test alone cannot catch an infinite pair
    s = np.eye(4)
    s[entry] = s[entry[::-1]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigh(s)


@pytest.mark.parametrize(
    "s",
    [
        # a gap of 4.2e-15 under the refined delta: without the sqrt(eps) floor the step
        # divided by it and left ||V^T V - I|| at 6.2e-6 with OpenBLAS
        [[0.125730221, -2.11e-15], [-2.11e-15, 0.125730221]],
        # a gap of 7.7e-7 over the floor: an unsymmetrized S left ||V^T V - I|| at 3.0e-12
        # with OpenBLAS, 1.6e-11 elsewhere, against 2.5e-16 symmetrized
        [[0.125730802, -2.067e-7], [-2.067e-7, 0.125730149]],
    ],
    ids=["gap-4e-15", "gap-8e-7"],
)
def test_near_degenerate_two_by_two_stays_orthonormal(s):
    s = np.array(s)
    w, v = jacobi_eigh(s)
    # tighter than the suite's 1e-11, so that the unsymmetrized S fails here as well
    assert np.linalg.norm(v.T @ v - np.eye(2)) <= 1e-13
    assert np.max(np.linalg.norm(s @ v - v * w[None, :], axis=0)) <= 1e-11 * np.linalg.norm(s)


@pytest.mark.parametrize("s", [np.full((2, 2), 1e308), np.full((3, 3), 6e307)], ids=["2x2", "3x3"])
def test_non_finite_refinement_raises_without_warning(s):
    # finite, symmetric input whose top eigenvalue (2e308, 1.8e308) overflows in V^T H V
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite"):
            jacobi_eigh(s)


def test_zero_and_single_entry():
    w, v = jacobi_eigh(np.zeros((3, 3)))
    assert np.array_equal(w, np.zeros(3))
    w, v = jacobi_eigh(np.array([[4.0]]))
    assert w[0] == 4.0 and v[0, 0] == 1.0


@pytest.mark.parametrize("n", [2, 3, 7, 48, 161])
def test_matches_lapack_on_random_symmetric(n):
    rng = np.random.default_rng(100 + n)
    s = rng.standard_normal((n, n))
    s = s + s.T
    assert_matches_lapack(s, *jacobi_eigh(s))


@pytest.mark.parametrize(
    "coeffs, basis_size", [(QUARTIC_COEFFS, 160), (SEXTIC_COEFFS, 48)], ids=["quartic", "sextic"]
)
def test_matches_lapack_on_potential_hamiltonians(monkeypatch, constants, coeffs, basis_size):
    solves = []

    def recording_eigh(hamiltonian):
        result = jacobi_eigh(hamiltonian)
        solves.append((np.array(hamiltonian), result))
        return result

    monkeypatch.setattr(spectral, "jacobi_eigh", recording_eigh)
    M.build_from_potential(M.PolynomialPotential(coeffs), constants, basis_size, basis_size // 4)
    ((hamiltonian, (w, v)),) = solves
    assert_matches_lapack(hamiltonian, w, v)


def test_repeated_eigenvalues():
    u = np.array([1.0, 2.0, 3.0, 4.0])
    householder = np.eye(4) - 2.0 * np.outer(u, u) / (u @ u)
    s = householder @ np.diag([1.0, 1.0, 2.0, 2.0]) @ householder.T
    s = 0.5 * (s + s.T)
    w, v = jacobi_eigh(s)
    fro = np.linalg.norm(s)
    assert np.max(np.abs(w - [1.0, 1.0, 2.0, 2.0])) <= 1e-13 * fro
    assert np.max(np.linalg.norm(s @ v - v * w[None, :], axis=0)) <= 1e-11 * fro
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-11
