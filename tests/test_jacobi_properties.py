"""Property tests of the eigensolver over generated symmetric matrices and potentials."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import mmlab as M
from mmlab import jacobi, jacobi_eigh, spectral
from test_classical_properties import convex_potentials, double_wells


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # entries straight from hypothesis: zeros, repeats and sign patterns
        half = draw(arrays(float, (n, n), elements=st.floats(-10.0, 10.0)))
        return half + half.T
    # near-degenerate spectrum: a few levels split by tiny gaps, rotated
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.standard_normal(draw(st.integers(1, 3)))
    split = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]))
    spectrum = levels[rng.integers(0, levels.size, n)] + split * rng.standard_normal(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = (q * spectrum) @ q.T
    return 0.5 * (s + s.T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
def test_eigenpairs_orthonormal_sorted_and_repeatable(s):
    n = s.shape[0]
    w, v = jacobi_eigh(s)
    fro = np.linalg.norm(s)
    assert np.all(np.linalg.norm(s @ v - v * w[None, :], axis=0) <= 1e-11 * fro)
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-11
    assert np.all(np.diff(w) >= 0.0)
    w2, v2 = jacobi_eigh(s)
    assert w.tobytes() == w2.tobytes()
    assert v.tobytes() == v2.tobytes()


def _potential_refinement(potential, mass, keep):
    """The refinement step on the Hamiltonian ``build_from_potential`` hands the solver:
    (H, LAPACK's eigenvalues, the refined eigenvalues and vectors, the fallback count)."""
    solves = []

    def recording_eigh(hamiltonian):
        solves.append(np.array(hamiltonian))
        return jacobi_eigh(hamiltonian)

    with mock.patch.object(spectral, "jacobi_eigh", recording_eigh):
        M.build_from_potential(potential, M.PhysicalConstants(mass=mass), 4 * keep, keep)
    (h,) = solves
    w_lapack, v_lapack = np.linalg.eigh(h)
    return (h, w_lapack, *jacobi._refine(h, v_lapack))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(potential=convex_potentials(), keep=st.integers(8, 12), mass=st.floats(0.5, 2.0))
def test_potential_refinement_never_falls_back(potential, keep, mass):
    h, w_lapack, w, v, fallbacks = _potential_refinement(potential, mass, keep)
    # a 1-D bound spectrum is nondegenerate: every pair's gap clears delta
    assert fallbacks == 0
    assert np.max(np.abs(w - w_lapack)) <= 1e-13 * np.linalg.norm(h)
    assert np.linalg.norm(v.T @ v - np.eye(len(w))) <= 1e-13


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(potential=double_wells(), keep=st.integers(8, 12), mass=st.floats(0.5, 2.0))
def test_double_well_refinement_stays_orthonormal(potential, keep, mass):
    # tunnel-split doublets may sit under delta, where the step only re-orthonormalizes
    h, w_lapack, w, v, fallbacks = _potential_refinement(potential, mass, keep)
    event(f"fallback pairs: {fallbacks}")
    assert np.max(np.abs(w - w_lapack)) <= 1e-13 * np.linalg.norm(h)
    assert np.linalg.norm(v.T @ v - np.eye(len(w))) <= 1e-13
