"""Self-contained cyclic Jacobi eigensolver for real symmetric matrices.

The solver sweeps every off-diagonal pair once per sweep and applies Givens
rotations until the off-diagonal Frobenius norm drops below
``1e-13 * ||S||_F``.  Pairs are visited in Brent-Luk round-robin order
(Brent & Luk 1985; Golub & Van Loan, Matrix Computations, section 8.5): a
sweep of an n x n matrix is n - 1 rounds (n rounds, each with one index
sitting out, when n is odd), and the floor(n/2) rotations of a round touch
disjoint rows and columns, so each round is applied at once as numpy array
operations.  The schedule depends only on n and the arithmetic is
elementwise, so results do not depend on the BLAS library or its thread
count; there is no pivot search and the eigenvalues are stable-sorted, so
repeat runs are bit-identical.  It is accurate enough for dense matrices up
to a few hundred rows, which is all the basis-set builders need.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

OFFDIAG_TOL = 1e-13
MAX_SWEEPS = 100


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


def _rotate_round(a, vt, p, q, skip):
    # Applies the round's rotations: a <- J^T a J, v^T <- (v J)^T.
    apq = a[p, q]
    active = np.abs(apq) > skip
    if not active.all():
        p, q, apq = p[active], q[active], apq[active]
    app, aqq = a[p, p], a[q, q]
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


def _offdiag_norm(a) -> float:
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def jacobi_eigh(matrix):
    """Diagonalize a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  The input must be symmetric within
    ``1e-12`` relative Frobenius defect.  Convergence is tested before each
    sweep, at most ``MAX_SWEEPS`` times; rotations whose pivot is at most
    ``1e-13 ||S||_F / n`` are skipped.

    Raises
    ------
    ValueError
        Non-square or insufficiently symmetric input.
    NumericalError
        ``MAX_SWEEPS`` sweeps ran without convergence.
    """
    s = np.asarray(matrix, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("jacobi_eigh expects a square matrix")
    n = s.shape[0]
    fro = float(np.linalg.norm(s))
    if np.linalg.norm(s - s.T) > 1e-12 * max(1.0, fro):
        raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
    a = 0.5 * (s + s.T)
    vt = np.eye(n)
    if n > 1 and fro != 0.0:
        thresh = OFFDIAG_TOL * fro
        skip = thresh / n
        rounds = _round_robin(n)
        sweeps = 0
        while not _offdiag_norm(a) <= thresh:  # NaN never counts as converged
            if sweeps == MAX_SWEEPS:
                raise NumericalError(f"Jacobi sweeps did not converge within {sweeps} sweeps")
            for p, q in rounds:
                _rotate_round(a, vt, p, q, skip)
            sweeps += 1
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], np.ascontiguousarray(vt[order].T)
