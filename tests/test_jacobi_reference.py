"""Potential builds against an 80-bit reference build.

The reference assembles the same truncated Hamiltonian in ``np.longdouble``,
with the momentum taken from the exact oscillator frequencies (n - n') w_b,
and diagonalizes it with a cold longdouble round-robin Jacobi run to a 1e-19
relative pivot test.  Nothing of the solver under test is shared with it.
"""

import functools
import math

import numpy as np
import pytest

import mmlab as M
from mmlab import spectral

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="longdouble is not an 80-bit or wider type"
)

LD = np.longdouble
QUARTIC_COEFFS = (0.0, 0.0, 0.5, 0.0, 0.05)
SEXTIC_COEFFS = (0.0, 0.1, 0.5, -0.05, 0.1, 0.01, 0.005)
PURE_QUARTIC_COEFFS = (0.0, 0.0, 0.0, 0.0, 0.25)

#: Largest retained |X - X_ref| accepted, also used for the energies.  Measured: X within
#: 5.9e-13 and E within 7.0e-13 on the sextic at basis 160, X within 1.5e-13 and 1.3e-13
#: and E within 1.1e-13 and 1.4e-13 on the quartic and the pure quartic there, all within
#: 3.4e-14 at basis 32 and 48; cold Jacobi under an absolute stop test missed X by up to
#: 2.8e-10.
X_TOL = 2e-12


def _round_robin(n):
    """Brent-Luk rounds of one sweep as disjoint ``(p, q)`` index arrays, ``p < q``.

    Circle method: index 0 stays put while the others rotate one place per
    round, and the k-th index of the order meets the k-th from its end.  For
    odd n a dummy index n is added and its partner sits the round out.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    rounds = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(ring, r)))
        first, second = order[: m // 2], order[::-1][: m // 2]
        p, q = np.minimum(first, second), np.maximum(first, second)
        real = q < n
        rounds.append((p[real], q[real]))
    return rounds


def _reference_jacobi(h, tol=LD(1e-19)):
    a = h.copy()
    n = a.shape[0]
    vt = np.eye(n, dtype=LD)
    rounds = _round_robin(n)
    for _ in range(100):
        root = np.sqrt(np.abs(np.diag(a)))
        off = np.abs(a - np.diag(np.diag(a)))
        if np.all(off <= tol * np.outer(root, root)):
            break
        for p, q in rounds:
            apq, app, aqq = a[p, q], a[p, p], a[q, q]
            act = np.abs(apq) > tol * np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq))
            p, q, apq, app, aqq = p[act], q[act], apq[act], app[act], aqq[act]
            tau = (aqq - app) / (2 * apq)
            t = np.where(tau >= 0, LD(1), LD(-1)) / (np.abs(tau) + np.sqrt(1 + tau * tau))
            c = 1 / np.sqrt(1 + t * t)
            s = t * c
            for m in (a, vt):
                mp, mq = m[p], m[q]
                m[p], m[q] = c[:, None] * mp - s[:, None] * mq, c[:, None] * mq + s[:, None] * mp
            mp, mq = a[:, p], a[:, q]
            a[:, p], a[:, q] = c * mp - s * mq, c * mq + s * mp
            a[p, p], a[q, q] = app - t * apq, aqq + t * apq
            a[p, q] = a[q, p] = 0
    else:
        raise AssertionError("reference Jacobi did not converge")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], vt[order].T


def reference_build(coeffs, basis_size, keep):
    """Energies and X of ``build_from_potential`` (m = hbar = 1) in longdouble."""
    w_basis = max(1.0, math.sqrt(max(0.0, 2.0 * coeffs[2])))
    n = np.arange(basis_size)
    x = np.zeros((basis_size, basis_size), dtype=LD)
    off = np.sqrt((n[:-1] + LD(1)) / (2 * LD(w_basis)))
    x[n[:-1], n[:-1] + 1] = x[n[:-1] + 1, n[:-1]] = off
    b = LD(w_basis) * (n[:, None] - n[None, :]).astype(LD) * x  # P = i B
    v = np.zeros_like(x)
    for c in coeffs[::-1]:
        v = v @ x
        v[n, n] += LD(c)
    energies, vectors = _reference_jacobi(-(b @ b) / 2 + v)
    vectors = vectors[:, :keep]
    for j in range(keep):
        if vectors[np.argmax(np.abs(vectors[:, j])), j] < 0:
            vectors[:, j] = -vectors[:, j]
    return energies[:keep], vectors.T @ x @ vectors


def assert_near_reference(coeffs, basis_size, reference):
    energies, x_ref = reference
    system, pair = M.build_from_potential(
        M.PolynomialPotential(coeffs), M.PhysicalConstants(), basis_size, basis_size // 4
    )
    assert np.max(np.abs(pair.x.real - x_ref.astype(float))) <= X_TOL
    assert np.max(np.abs(system.energies - energies.astype(float))) <= X_TOL


@pytest.fixture(scope="module")
def reference160():
    """The basis-160, keep-40 reference build of a potential, made once per module."""
    return functools.cache(lambda coeffs: reference_build(coeffs, 160, 40))


@pytest.mark.parametrize("basis_size", [32, 48])
@pytest.mark.parametrize(
    "coeffs",
    [QUARTIC_COEFFS, SEXTIC_COEFFS, PURE_QUARTIC_COEFFS],
    ids=["quartic", "sextic", "pure-quartic"],
)
def test_retained_x_matches_reference(coeffs, basis_size):
    assert_near_reference(coeffs, basis_size, reference_build(coeffs, basis_size, basis_size // 4))


@pytest.mark.parametrize(
    "coeffs",
    [QUARTIC_COEFFS, SEXTIC_COEFFS, PURE_QUARTIC_COEFFS],
    ids=["quartic", "sextic", "pure-quartic"],
)
def test_basis160_matches_reference(reference160, coeffs):
    assert_near_reference(coeffs, 160, reference160(coeffs))


def test_sextic_keep40_default_window_is_the_references(constants, reference160):
    system, pair = M.build_from_potential(M.PolynomialPotential(SEXTIC_COEFFS), constants, 160, 40)
    energies, x_ref = reference160(SEXTIC_COEFFS)
    ref_system = M.SpectralSystem(constants, energies.astype(float), kind="potential")
    x = x_ref.astype(float)
    p = spectral.momentum_from_position(x, M.transition_frequencies(ref_system), 1.0)
    # the true X drops below BAND_CUTOFF after band 25; solver noise above the cutoff in
    # the far bands would widen the band and shrink the window (to (0, 0) before)
    assert M.full_report(ref_system, M.MatrixPair(x=x, p=p)).window == (0, 14)
    assert M.full_report(system, pair).window == (0, 14)
