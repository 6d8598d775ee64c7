"""Self-contained cyclic Jacobi eigensolver for real symmetric matrices.

The solver sweeps all upper-triangle pairs in a fixed row order and applies
Givens rotations until the off-diagonal Frobenius norm drops below
``1e-13 * ||S||_F``.  It is deterministic (no pivot search, stable sort of
the eigenvalues) and accurate enough for dense matrices up to a few hundred
rows, which is all the basis-set builders need.

A numba-compiled kernel is used when numba is installed; without it the same
sweep function runs as interpreted pure-Python loops, with identical sweep
order and results but much more slowly.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

OFFDIAG_TOL = 1e-13
DEFAULT_MAX_SWEEPS = 100

try:
    from numba import njit

    _HAVE_NUMBA = True
except Exception:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False


def _sweep_loop(a, v, thresh, max_sweeps, skip):
    # Cyclic-by-row Jacobi. Mutates a (towards diagonal) and v (rotations).
    # Returns the number of sweeps used, or -1 if the tolerance was not met.
    n = a.shape[0]
    for sweep in range(max_sweeps):
        off2 = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off2 += 2.0 * a[i, j] * a[i, j]
        if np.sqrt(off2) <= thresh:
            return sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                app = a[p, p]
                aqq = a[q, q]
                for i in range(n):
                    if i != p and i != q:
                        aip = a[i, p]
                        aiq = a[i, q]
                        a[i, p] = c * aip - s * aiq
                        a[p, i] = a[i, p]
                        a[i, q] = c * aiq + s * aip
                        a[q, i] = a[i, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(n):
                    vip = v[i, p]
                    viq = v[i, q]
                    v[i, p] = c * vip - s * viq
                    v[i, q] = c * viq + s * vip
    off2 = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            off2 += 2.0 * a[i, j] * a[i, j]
    if np.sqrt(off2) <= thresh:
        return max_sweeps
    return -1


if _HAVE_NUMBA:
    _sweep_kernel = njit(cache=True)(_sweep_loop)
else:  # pragma: no cover
    _sweep_kernel = _sweep_loop


def jacobi_eigh(matrix, max_sweeps: int = DEFAULT_MAX_SWEEPS):
    """Diagonalize a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  The input must be symmetric within
    ``1e-12`` relative Frobenius defect.

    Raises
    ------
    ValueError
        Non-square or insufficiently symmetric input.
    NumericalError
        The sweep limit was exhausted before convergence.
    """
    s = np.asarray(matrix, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("jacobi_eigh expects a square matrix")
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be nonnegative")
    n = s.shape[0]
    fro = float(np.linalg.norm(s))
    if np.linalg.norm(s - s.T) > 1e-12 * max(1.0, fro):
        raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
    a = 0.5 * (s + s.T)
    v = np.eye(n)
    if n == 1 or fro == 0.0:
        w = np.diag(a).copy()
        order = np.argsort(w, kind="stable")
        return w[order], v[:, order]
    thresh = OFFDIAG_TOL * fro
    skip = thresh / n
    used = _sweep_kernel(a, v, thresh, max_sweeps, skip)
    if used < 0:
        raise NumericalError(
            f"Jacobi sweeps did not converge within {max_sweeps} sweeps"
        )
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], np.ascontiguousarray(v[:, order])
