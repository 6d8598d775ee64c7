"""Evaluators for the competing quantum-condition sums and commutator diagnostics.

Several historical formulations of the quantum condition look nearly identical
in print: each is a sum over transition amplitudes weighted by transition
frequencies.  They stop agreeing once one fixes what the symbols mean on a
finite hermitian matrix:

* ``heisenberg_sum`` evaluates the classic frequency-weighted sum in two
  readings.  On a hermitian matrix the conjugated products are squared moduli
  and the sum reproduces hbar.  On an amplitude table forced to obey the
  classical reality condition the amplitudes lose their state dependence and
  the same sum collapses to zero.
* ``born_jordan_sum`` uses plain entry products; ``modified_sum`` uses squared
  moduli.  The two coincide exactly for hermitian input and are reported side
  by side.
* ``nearest_neighbor_rewrite`` is the tempting oscillator-only rearrangement
  that fails quantitatively at small state labels.
* ``commutator_diagonal_sum`` and ``loop_integral_state_difference`` are two
  views of one per-state evaluator of the diagonal of XP - PX.  The paper's
  state difference of the loop integral is -2 pi i [X, P](n, n), so -2 pi i
  times a report's ``comm_diag`` is that state difference, 2 pi hbar away
  from the truncation edge.

``full_report`` bundles all of the above per state, together with off-diagonal
and truncation-edge diagnostics of the commutator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .spectral import (
    AmplitudeTable,
    FrequencyTable,
    MatrixPair,
    SpectralSystem,
    _square,
    matrix_bandwidth,
    to_amplitude_table,
    transition_frequencies,
)

#: Imaginary leakage allowed in nominally real condition values, relative to hbar.
REALNESS_TOL = 1e-10


def commutator(x, p) -> np.ndarray:
    """Matrix commutator XP - PX."""
    xm, pm = _square(x, p)
    return xm @ pm - pm @ xm


def _check_window(n: int, size: int, alpha_max: int) -> None:
    if alpha_max < 0:
        raise ValueError("alpha_max must be nonnegative")
    if not 0 <= n < size:
        raise ValueError(f"state label {n} outside the system")
    if n + alpha_max > size - 1:
        raise ValueError(
            f"state {n} violates the evaluation window n <= {size - 1 - alpha_max}"
        )


def _product(a, b) -> np.ndarray:
    """Elementwise a * b, rounded like a scalar Python complex product.

    numpy's own complex multiply may fuse multiply-adds, which moves the last
    bit; spelling out the real arithmetic keeps every state bit-identical to
    a scalar loop.
    """
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    out = np.asarray(ar * br - ai * bi, dtype=complex)
    out.imag = ar * bi + ai * br
    return out


def _band(source, lo: int, hi: int, row: int, col: int) -> np.ndarray:
    """Entries source(n + row, n + col) for n = lo..hi, read from one diagonal.

    Pairs outside the matrix read as zero.  An :class:`AmplitudeTable` source
    raises ValueError for a pair inside the matrix that it did not record.
    """
    if isinstance(source, AmplitudeTable):
        return source.diagonal(lo, hi, row, col)
    diagonal = np.diagonal(source, col - row)
    start = lo + min(row, col)
    out = np.zeros(hi - lo + 1, dtype=source.dtype)
    first, stop = max(0, -start), min(out.size, diagonal.size - start)
    if stop > first:
        out[first:stop] = diagonal[start + first : start + stop]
    return out


def _frequency_sum(left, right, freq: FrequencyTable, mass, lo, hi, alpha_max) -> np.ndarray:
    """m * sum_a {L(n,n+a) R(n+a,n) w(n+a,n) - L(n,n-a) R(n-a,n) w(n,n-a)} for n = lo..hi.

    Every state is one array lane read along the diagonals; ``left=None``
    reads L(n, n+j) as conj(R(n+j, n)).  Jumps run from -alpha_max to
    alpha_max and each step adds the up term, then subtracts the down term,
    so every state is rounded exactly as a scalar loop in that order would be.
    """

    def term(j, weight):  # L(n, n+j) R(n+j, n) weight(n+j, n)
        r = _band(right, lo, hi, j, 0)
        product = _product(r.conj() if left is None else _band(left, lo, hi, 0, j), r)
        return _product(product, _band(weight, lo, hi, j, 0))

    total = np.zeros(hi - lo + 1, dtype=complex)
    for a in range(-alpha_max, alpha_max + 1):
        total += term(a, freq.omega)
        total -= term(-a, freq.omega.T)
    return _product(mass, total)


def heisenberg_sum(source, freq: FrequencyTable, mass: float, n: int, alpha_max: int) -> float:
    """Frequency-weighted sum m * sum_a {|X(n+a,n)|^2 w(n+a,n) - |X(n-a,n)|^2 w(n,n-a)}.

    ``source`` is either a matrix (entries read literally, conjugation is
    complex conjugation of the stored entry) or an :class:`AmplitudeTable`
    (entries read through the recorded window; pairs outside the truncated
    matrix are zero, pairs inside the matrix but outside the window raise).
    Equals hbar on the oscillator; collapses to zero on reality-constrained
    tables whose amplitudes have lost their state dependence.
    """
    if isinstance(source, AmplitudeTable):
        size = source.size
    else:
        (source,) = _square(source)
        size = source.shape[0]
    _check_window(n, size, alpha_max)
    return float(_frequency_sum(None, source, freq, mass, n, n, alpha_max)[0].real)


def born_jordan_sum(x, freq: FrequencyTable, mass: float, n: int, alpha_max: int) -> float:
    """Sum m * sum_a {X(n,n+a) X(n+a,n) w(n+a,n) - X(n,n-a) X(n-a,n) w(n,n-a)}.

    Plain entry products, no conjugation.  For hermitian X the products are
    squared moduli and this agrees with :func:`modified_sum` exactly; the two
    diverge on non-hermitian input.
    """
    (matrix,) = _square(x)
    _check_window(n, matrix.shape[0], alpha_max)
    return float(_frequency_sum(matrix, matrix, freq, mass, n, n, alpha_max)[0].real)


def modified_sum(x, freq: FrequencyTable, mass: float, n: int, alpha_max: int) -> float:
    """Modified sum-rule form m * sum_a {|X(n+a,n)|^2 w(n+a,n) - |X(n-a,n)|^2 w(n,n-a)}.

    The squared moduli implement X(n +- a, n) = conj(X(n, n +- a)); this is the
    reading under which the sum equals hbar for every interior state.
    """
    return heisenberg_sum(_square(x)[0], freq, mass, n, alpha_max)


def _nearest_neighbor_values(x, mass, omega, lo, hi) -> np.ndarray:
    up = _product(_band(x, lo, hi, 1, 0), _band(x, lo, hi, 1, 2))
    down = _product(_band(x, lo, hi, -1, 0), _band(x, lo, hi, -1, -2))
    return _product(mass * omega, up - down)


def nearest_neighbor_rewrite(x, mass: float, omega: float, n: int) -> float:
    """The invalid oscillator-only rearrangement of the quantum condition.

    Evaluates m * omega * {X(n+1,n) X(n+1,n+2) - X(n-1,n) X(n-1,n-2)} with
    out-of-range entries read as zero.  On the oscillator it yields
    hbar/sqrt(2) at n = 0 and hbar*sqrt(6)/2 at n = 1, approaching hbar only
    for large n, which is the quantitative witness of its invalidity.
    """
    (matrix,) = _square(x)
    if matrix_bandwidth(matrix) > 1:
        raise ValueError(
            "the nearest-neighbor rewrite is only defined for matrices whose "
            "entries beyond the first off-diagonal vanish"
        )
    _check_window(n, matrix.shape[0], 0)
    return float(_nearest_neighbor_values(matrix, mass, omega, n, n)[0].real)


def _ordered_sum(terms: np.ndarray) -> complex:
    # 0 + t0 + t1 + ... left to right, the rounding of a scalar accumulation loop
    return complex(np.add.accumulate(np.concatenate(([0j], terms)))[-1])


def _commutator_diagonal(x, p, n: int, alpha_max: int | None) -> complex:
    """[X, P](n, n) = sum_k {X(n,k) P(k,n) - P(n,k) X(k,n)}, summed left to right.

    k runs over n - alpha_max .. n + alpha_max inside the matrix, or over every
    state when ``alpha_max`` is None.
    """
    xm, pm = _square(x, p)
    size = xm.shape[0]
    _check_window(n, size, alpha_max or 0)
    reach = size if alpha_max is None else alpha_max
    k = slice(max(0, n - reach), max(0, n + reach + 1))
    return _ordered_sum(_product(xm[n, k], pm[k, n]) - _product(pm[n, k], xm[k, n]))


def commutator_diagonal_sum(x, p, n: int, alpha_max: int) -> complex:
    """Banded diagonal element sum_a {P(n+a,n) X(n,n+a) - P(n,n+a) X(n+a,n)}.

    Equals commutator(X, P)[n, n] once alpha_max spans every nonzero band.
    """
    return _commutator_diagonal(x, p, n, alpha_max)


def loop_integral_diagonal(x, p, freq: FrequencyTable, n: int, period: float) -> complex:
    """(n, n) element of the momentum-times-coordinate-differential loop integral.

    Returns ``-T * sum_a i w(n, n-a) P(n, n-a) X(n-a, n)``.  The phases of the
    two time-dependent factors cancel pairwise, so the integrand is constant
    in time and the loop integral over an interval T is just T times the sum.
    For the oscillator over one period this reproduces 2 pi E_n / omega.
    """
    xm, pm = _square(x, p)
    size = xm.shape[0]
    _check_window(n, size, 0)
    if not (math.isfinite(period) and period > 0.0):
        raise ValueError(f"period must be finite and positive, got {period}")
    w = np.zeros(size)
    if n < freq.size:
        w[: freq.size] = freq.omega[n, :size]
    # k = N-1 down to 0, the order of a loop over a = n - k from n - N + 1 to n
    terms = _product(_product(_product(1j, w), pm[n, :]), xm[:, n])[::-1]
    return -period * _ordered_sum(terms)


def loop_integral_state_difference(x, p, n: int) -> complex:
    """Discrete state derivative of the loop integral,
    ``-2 pi i sum_a {P(n+a,n) X(n,n+a) - P(n,n-a) X(n-a,n)}``, which is
    -2 pi i [X, P](n, n) over every jump a.

    For hermitian X, P each term is purely imaginary, so the value is real;
    away from the truncation edge it equals 2 pi hbar.
    """
    return -2j * math.pi * _commutator_diagonal(x, p, n, None)


def impose_heisenberg_reality(table: AmplitudeTable) -> AmplitudeTable:
    """Project an amplitude table onto the joint reality and hermiticity constraints.

    The two constraints close along each +-alpha diagonal pair: every recorded
    A(n, alpha) is averaged with every conj(A(n', -alpha)) and the mean is
    written back, so the result satisfies both constraints and its amplitudes
    are independent of the state label along each diagonal.  That forced state
    independence is exactly what makes the constrained tables collapse the
    frequency-weighted sum to zero.  The input must already be hermitian
    consistent; a table that already satisfies both constraints is a fixed
    point.
    """
    if not table.hermitian_consistent:
        raise ValueError("table must satisfy the hermiticity-derived constraint")
    amax = table.alpha_max
    present = table.present()
    amplitudes = table.amplitudes.copy()
    for band in range(amax + 1):
        plus, minus = present[:, amax + band], present[:, amax - band]
        pool = table.amplitudes[plus, amax + band].tolist()
        if band != 0:
            pool += table.amplitudes[minus, amax - band].conj().tolist()
        if not pool:
            continue
        # Python's sum of the scalars keeps scalar rounding; numpy's pairwise sum would not
        mean = sum(pool) / len(pool)
        if band == 0:
            mean = complex(mean.real, 0.0)
        amplitudes[plus, amax + band] = mean
        amplitudes[minus, amax - band] = mean.conjugate()
    return AmplitudeTable(
        window=table.window, alpha_max=amax, size=table.size, amplitudes=amplitudes
    )


@dataclass(frozen=True)
class ConditionRow:
    """Per-state values of every condition formulation plus signed residuals.

    Real-valued fields are compared against hbar, the commutator diagonal
    against i*hbar.  ``bj_alternative`` is NaN for systems whose position
    matrix is not nearest-neighbor banded.
    """

    n: int
    eq4_hermitian: float
    eq4_constrained: float
    eq14: float
    eq25: float
    bj_alternative: float
    commutator_diag: complex
    residual_eq4_hermitian: float
    residual_eq4_constrained: float
    residual_eq14: float
    residual_eq25: float
    residual_bj_alternative: float
    residual_commutator: complex


@dataclass(frozen=True)
class ConditionReport:
    """Evaluation-window condition rows plus commutator diagnostics."""

    system_kind: str
    mass: float
    omega: float
    hbar: float
    size: int
    window: tuple[int, int]
    alpha_max: int
    rows: tuple
    offdiag_max: float
    trace_commutator: complex
    edge_diag: complex


def _real_or_raise(values: np.ndarray, hbar: float, label: str) -> list[float]:
    leaks = np.flatnonzero(np.abs(values.imag) > REALNESS_TOL * hbar)
    if leaks.size:
        raise NumericalError(
            f"{label} has imaginary part {values.imag[leaks[0]]:.3e} beyond "
            f"{REALNESS_TOL} * hbar"
        )
    return values.real.tolist()


def full_report(
    system: SpectralSystem, pair: MatrixPair, alpha_max: int | None = None
) -> ConditionReport:
    """Evaluate every condition formulation on each window state of a system.

    The evaluation window is 0 <= n <= N - 1 - alpha_max; the default
    alpha_max is the band beyond which all X entries drop below 1e-12 (at
    least 1).  Each formulation is one band pass over the whole window, in a
    fixed order, so identical inputs yield identical reports.
    """
    if pair.size != system.size:
        raise ValueError("matrix pair and system sizes disagree")
    x = pair.x
    p = pair.p
    size = system.size
    mass = system.constants.mass
    hbar = system.constants.hbar
    freq = transition_frequencies(system)
    band = matrix_bandwidth(x)
    if alpha_max is None:
        alpha_max = max(1, band)
    if alpha_max < 1:
        raise ValueError("alpha_max must be at least 1")
    window_hi = size - 1 - alpha_max
    if window_hi < 0:
        raise ValueError("empty evaluation window: system too small for alpha_max")
    # a potential's oscillator scale is its spectral w(1, 0), not the unused constants.omega
    omega = float(freq.omega[1, 0]) if system.kind == "potential" else system.constants.omega

    comm = commutator(x, p)
    table = to_amplitude_table(x, (0, size - 1), alpha_max)
    constrained = impose_heisenberg_reality(table)

    def window_sum(left, right, label):
        values = _frequency_sum(left, right, freq, mass, 0, window_hi, alpha_max)
        return _real_or_raise(values, hbar, label)

    eq4_h = window_sum(None, x, "eq4_hermitian")
    eq4_c = window_sum(None, constrained, "eq4_constrained")
    eq14 = window_sum(x, x, "eq14")
    # eq25 reads the same squared moduli from the matrix as eq4_hermitian
    eq25 = eq4_h
    if band <= 1:
        bj = _real_or_raise(
            _nearest_neighbor_values(x, mass, omega, 0, window_hi), hbar, "bj_alternative"
        )
    else:
        bj = [math.nan] * (window_hi + 1)

    rows = []
    for n in range(window_hi + 1):
        diag = complex(comm[n, n])
        rows.append(
            ConditionRow(
                n=n,
                eq4_hermitian=eq4_h[n],
                eq4_constrained=eq4_c[n],
                eq14=eq14[n],
                eq25=eq25[n],
                bj_alternative=bj[n],
                commutator_diag=diag,
                residual_eq4_hermitian=eq4_h[n] - hbar,
                residual_eq4_constrained=eq4_c[n] - hbar,
                residual_eq14=eq14[n] - hbar,
                residual_eq25=eq25[n] - hbar,
                residual_bj_alternative=bj[n] - hbar,
                residual_commutator=diag - 1j * hbar,
            )
        )

    block = comm[: window_hi + 1, : window_hi + 1]
    offdiag = np.abs(block - np.diag(np.diag(block)))
    return ConditionReport(
        system_kind=system.kind,
        mass=mass,
        omega=omega,
        hbar=hbar,
        size=size,
        window=(0, window_hi),
        alpha_max=alpha_max,
        rows=tuple(rows),
        offdiag_max=float(np.max(offdiag)) if block.size else 0.0,
        trace_commutator=complex(np.trace(comm)),
        edge_diag=complex(comm[size - 1, size - 1]),
    )
