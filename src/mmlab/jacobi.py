"""Symmetric eigensolver: LAPACK's eigenvectors and one refinement step.

LAPACK's ``eigh`` gives an eigenvector basis V whose residuals are small only
relative to ||H||; on the potential Hamiltonians that leaves the retained X
up to 3.4e-11 from an 80-bit reference build at basis 160.  One step of
Ogita and Aishima's iterative refinement (T. Ogita, K. Aishima, "Iterative
refinement for symmetric eigenvalue decomposition", Japan J. Indust. Appl.
Math. 35 (2018) 1007-1035) corrects V with matrix products alone and brings
X within 5.0e-13 of that reference:

* R = I - V^T V and S = V^T H V, each symmetrized;
* lambda_i = s_ii / (1 - r_ii), the refined eigenvalues;
* E_ij = (s_ij + lambda_j r_ij) / (lambda_j - lambda_i) where the gap
  |lambda_j - lambda_i| exceeds delta, and r_ij / 2 elsewhere;
* V <- V + V E.

The paper's delta, 2 (||S - D|| + ||H|| ||R||), is taken with Frobenius
norms and ||H|| read as max |lambda|, and is floored at sqrt(eps) max |lambda|:
in double precision a gap below that floor is rounding, and dividing by it
left ||V^T V - I|| at 6.2e-6 on a 2 x 2 matrix whose gap is 4.2e-15.  A pair
under delta keeps r_ij / 2, which only re-orthonormalizes it.  Every product goes through BLAS, so the last bits of a result depend on
the library build; repeat runs in one process are bit-identical, and the
eigenvalues are stable-sorted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

#: Smallest refined gap, relative to max |lambda|: sqrt of the double epsilon.
GAP_FLOOR = math.sqrt(np.finfo(float).eps)


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


def _symmetric(m):
    # halves first: the same bits as 0.5 * (m + m.T) above the subnormals, and no overflow
    return 0.5 * m + 0.5 * m.T


def _refine(h, v):
    """One Ogita-Aishima step on the approximate eigenvectors ``v`` of ``h``.

    Returns ``(eigenvalues, eigenvectors, fallbacks)``, unsorted, where
    ``fallbacks`` counts the pairs i < j whose gap was at most delta and so
    were only re-orthonormalized.  Raises NumericalError if a result is not
    finite.
    """
    n = h.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        r = _symmetric(np.eye(n) - v.T @ v)
        s = _symmetric(v.T @ (h @ v))
        w = np.diag(s) / (1.0 - np.diag(r))
        top = float(np.max(np.abs(w), initial=0.0))
        delta = max(
            2.0 * (np.linalg.norm(s - np.diag(w)) + top * np.linalg.norm(r)), GAP_FLOOR * top
        )
        gap = w[None, :] - w[:, None]
        apart = np.abs(gap) > delta
        e = np.where(apart, (s + w[None, :] * r) / np.where(apart, gap, 1.0), 0.5 * r)
        v = v + v @ e
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
            raise NumericalError("eigenvector refinement produced non-finite values")
    return w, v, (n * n - n - np.count_nonzero(apart)) // 2


def jacobi_eigh(matrix):
    """Diagonalize a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  The input must be finite and
    symmetric within ``1e-12`` relative Frobenius defect.  ``np.linalg.eigh``
    gives the eigenvectors, and one Ogita-Aishima refinement step (see the
    module docstring) corrects them and the eigenvalues with matrix products.

    Raises
    ------
    ValueError
        Non-square, non-finite or insufficiently symmetric input.
    NumericalError
        The refinement step overflowed to a non-finite value.
    """
    s = np.asarray(matrix, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("jacobi_eigh expects a square matrix")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix entries must be finite")
    if relative_defect(s, s.T) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
    h = _symmetric(s)
    w, v, _ = _refine(h, np.linalg.eigh(h)[1])
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
