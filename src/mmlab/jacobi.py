"""Preconditioned Jacobi eigensolver for real symmetric matrices.

LAPACK's ``eigh`` gives a first eigenvector basis V, and A = V^T S V is then
nearly diagonal.  Cyclic Jacobi sweeps polish A until no pivot fails
Rutishauser's relative test |a_pq| <= OFFDIAG_TOL * sqrt(|a_pp a_qq|)
(Demmel & Veselic 1992, "Jacobi's method is more accurate than QR"; the
warm start is Drmac & Veselic's preconditioned Jacobi, SIAM J. Matrix Anal.
Appl. 2008).  On the potential Hamiltonians this takes zero or one sweep and
leaves eigenvectors closer to an 80-bit reference than either LAPACK alone or
cold Jacobi under an absolute stop test.  Pairs are visited in Brent-Luk
round-robin order (Brent & Luk 1985; Golub & Van Loan, Matrix Computations,
section 8.5): a sweep of an n x n matrix is n - 1 rounds (n rounds, each with
one index sitting out, when n is odd), and the floor(n/2) rotations of a
round touch disjoint rows and columns, so each round is applied at once as
numpy array operations.  The warm start and V^T S V go through LAPACK and
BLAS, so the last bits of a result depend on the library build; repeat runs
in one process are bit-identical, and the eigenvalues are stable-sorted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

#: Relative pivot tolerance: a pair converged once |a_pq| <= OFFDIAG_TOL * sqrt(|a_pp a_qq|).
OFFDIAG_TOL = 1e-15
#: Pivots at or below this size are never rotated, whatever the diagonal (the smallest
#: normal double: below it the relative test would chase subnormal rounding).
PIVOT_FLOOR = np.finfo(float).tiny
MAX_SWEEPS = 100


def relative_defect(m, mirror) -> float:
    """Frobenius norm of (m - mirror) over max(1, Frobenius norm of m); NaN if m is not finite.

    ``mirror`` holds the entries of m rearranged (a transpose, or the adjoint
    read off stored diagonals), so the largest real or imaginary part of m
    bounds both.  Dividing both by s = max(1, that part) first leaves the
    ratio unchanged and keeps the norms finite for entries near the largest
    double: the result is ||m/s - mirror/s|| / max(1/s, ||m/s||).
    """
    parts = np.ascontiguousarray(m).view(float)  # a complex entry reads as its two parts
    peak = float(np.abs(parts).max()) if parts.size else 0.0
    if not math.isfinite(peak):
        return math.nan
    scale = max(1.0, peak)
    if scale > 1.0:
        m, mirror = m / scale, mirror / scale
    d = m - mirror
    return math.sqrt(np.vdot(d, d).real) / max(1.0 / scale, math.sqrt(np.vdot(m, m).real))


def _round_robin(n: int) -> list:
    """Rounds of one sweep as ``(p, q)`` index arrays, disjoint, ``p < q``.

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


def _pivot_bound(app, aqq):
    # sqrt of each factor, not of the product, which underflows for tiny diagonals
    return np.maximum(OFFDIAG_TOL * np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq)), PIVOT_FLOOR)


def _converged(a) -> bool:
    """No off-diagonal entry of a fails the relative pivot test (NaN fails it)."""
    d = np.diag(a)
    bound = _pivot_bound(d[:, None], d[None, :])
    np.fill_diagonal(bound, np.inf)
    return bool(np.all(np.abs(a) <= bound))


def _rotate_rows(m, p, q, c, s):
    # Rows p, q of m become c*m_p - s*m_q and c*m_q + s*m_p.
    mp, mq = m[p], m[q]
    m[p] = c[:, None] * mp - s[:, None] * mq
    m[q] = c[:, None] * mq + s[:, None] * mp


def _rotate_columns(m, p, q, c, s):
    # Columns p, q of m become c*m_p - s*m_q and c*m_q + s*m_p.  Not
    # _rotate_rows(m.T, ...): fancy indexing through the transposed view
    # took about twice as long at n = 160 (numpy 2.4, 2-vCPU x86 machine).
    mp, mq = m[:, p], m[:, q]
    m[:, p] = c * mp - s * mq
    m[:, q] = c * mq + s * mp


def _rotate_round(a, vt, p, q):
    # Applies the round's rotations whose pivot fails the relative test:
    # a <- J^T a J, v^T <- (v J)^T.
    apq, app, aqq = a[p, q], a[p, p], a[q, q]
    active = np.abs(apq) > _pivot_bound(app, aqq)
    if not active.any():
        return
    if not active.all():
        p, q, apq, app, aqq = p[active], q[active], apq[active], app[active], aqq[active]
    tau = (aqq - app) / (2.0 * apq)
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    _rotate_rows(a, p, q, c, s)
    _rotate_columns(a, p, q, c, s)
    _rotate_rows(vt, p, q, c, s)
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = 0.0
    a[q, p] = 0.0


def jacobi_eigh(matrix):
    """Diagonalize a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  The input must be finite and
    symmetric within ``1e-12`` relative Frobenius defect.  ``np.linalg.eigh``
    gives the starting basis V; round-robin Jacobi sweeps then rotate
    A = V^T S V until every off-diagonal entry passes
    |a_pq| <= ``OFFDIAG_TOL`` sqrt(|a_pp a_qq|) or is at most ``PIVOT_FLOOR``.
    The test runs on the whole matrix before each sweep, at most
    ``MAX_SWEEPS`` times, and within a sweep only failing pivots are rotated.

    Raises
    ------
    ValueError
        Non-square, non-finite or insufficiently symmetric input.
    NumericalError
        ``MAX_SWEEPS`` sweeps ran without convergence.
    """
    s = np.asarray(matrix, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("jacobi_eigh expects a square matrix")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix entries must be finite")
    n = s.shape[0]
    if relative_defect(s, s.T) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
    a = 0.5 * (s + s.T)
    _, v = np.linalg.eigh(a)
    a = v.T @ a @ v
    a = 0.5 * (a + a.T)
    vt = np.ascontiguousarray(v.T)
    rounds = _round_robin(n)
    sweeps = 0
    while not _converged(a):
        if sweeps == MAX_SWEEPS:
            raise NumericalError(f"Jacobi sweeps did not converge within {sweeps} sweeps")
        for p, q in rounds:
            _rotate_round(a, vt, p, q)
        sweeps += 1
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], np.ascontiguousarray(vt[order].T)
