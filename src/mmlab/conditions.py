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

Every evaluator reads X and P as stored diagonals (:class:`BandedMatrix`), a
pair's ``xb`` and ``pb`` as they are and a dense argument converted once; only
``commutator``, the dense oracle, forms matrices.  ``full_report`` bundles all
of the above per state, together with off-diagonal and truncation-edge
diagnostics of the commutator.  It reads the frequencies from the N levels of
a frequency table and never forms XP - PX: one band kernel evaluates the
entries of [X, P] the report needs, within the structural band b of X and P,
at a cost of O(N b^2) plus one probe pass over the stored diagonals.  Each
row's commutator diagonal is the per-state evaluator's value bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalError
from .spectral import (
    BAND_CUTOFF,
    AmplitudeTable,
    BandedMatrix,
    FrequencyTable,
    MatrixPair,
    SpectralSystem,
    _label,
    _square,
    _trimmed,
    _trimmed_pair,
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


def _check_window(
    n: int, size: int, alpha_max: int, freq: FrequencyTable | None = None
) -> tuple[int, int]:
    """The state label and alpha_max as Python ints, checked against the window."""
    if freq is not None and freq.size != size:
        raise ValueError("position matrix and frequency table sizes disagree")
    n, alpha_max = _label("state label", n), _label("alpha_max", alpha_max)
    if alpha_max < 0:
        raise ValueError("alpha_max must be nonnegative")
    if not 0 <= n < size:
        raise ValueError(f"state label {n} outside the system")
    if n + alpha_max > size - 1:
        raise ValueError(
            f"state {n} violates the evaluation window n <= {size - 1 - alpha_max}"
        )
    return n, alpha_max


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


def _frequency_sum(left, right, freq, mass, lo, hi, alpha_max) -> np.ndarray:
    """m * sum_a {L(n,n+a) R(n+a,n) w(n+a,n) - L(n,n-a) R(n-a,n) w(n,n-a)} for n = lo..hi.

    Every state is one array lane read along the diagonals, each source through
    its ``diagonal`` method; ``left=None`` reads L(n, n+j) as conj(R(n+j, n)).
    Jumps run from -alpha_max to alpha_max and each step adds the up term, then
    subtracts the down term, so every state is rounded exactly as a scalar loop
    in that order would be.
    """

    def term(j, up):  # L(n, n+j) R(n+j, n) times w(n+j, n) (up) or w(n, n+j) (down)
        r = right.diagonal(lo, hi, j, 0)
        product = _product(r.conj() if left is None else left.diagonal(lo, hi, 0, j), r)
        w = freq.diagonal(lo, hi, j, 0) if up else freq.diagonal(lo, hi, 0, j)
        return _product(product, w)

    total = np.zeros(hi - lo + 1, dtype=complex)
    for a in range(-alpha_max, alpha_max + 1):
        total += term(a, True)
        total -= term(-a, False)
    return _product(mass, total)


def heisenberg_sum(source, freq: FrequencyTable, mass: float, n: int, alpha_max: int) -> float:
    """Frequency-weighted sum m * sum_a {|X(n+a,n)|^2 w(n+a,n) - |X(n-a,n)|^2 w(n,n-a)}.

    ``source`` is either a matrix, read as its stored diagonals (entries read
    literally, conjugation of the stored entry), or an :class:`AmplitudeTable`
    (entries read through the recorded window; pairs outside the truncated
    matrix are zero, pairs inside the matrix but outside the window raise).
    Equals hbar on the oscillator; collapses to zero on reality-constrained
    tables whose amplitudes have lost their state dependence.
    """
    if not isinstance(source, AmplitudeTable):
        source = _trimmed(source)
    n, alpha_max = _check_window(n, source.size, alpha_max, freq)
    return float(_frequency_sum(None, source, freq, mass, n, n, alpha_max)[0].real)


def born_jordan_sum(x, freq: FrequencyTable, mass: float, n: int, alpha_max: int) -> float:
    """Sum m * sum_a {X(n,n+a) X(n+a,n) w(n+a,n) - X(n,n-a) X(n-a,n) w(n,n-a)}.

    Plain entry products, no conjugation.  For hermitian X the products are
    squared moduli and this agrees with :func:`modified_sum` exactly; the two
    diverge on non-hermitian input.
    """
    xb = _trimmed(x)
    n, alpha_max = _check_window(n, xb.size, alpha_max, freq)
    return float(_frequency_sum(xb, xb, freq, mass, n, n, alpha_max)[0].real)


def modified_sum(x, freq: FrequencyTable, mass: float, n: int, alpha_max: int) -> float:
    """Modified sum-rule form m * sum_a {|X(n+a,n)|^2 w(n+a,n) - |X(n-a,n)|^2 w(n,n-a)}.

    The squared moduli implement X(n +- a, n) = conj(X(n, n +- a)); this is the
    reading under which the sum equals hbar for every interior state.
    """
    return heisenberg_sum(_trimmed(x), freq, mass, n, alpha_max)


def _nearest_neighbor_values(x, mass, omega, lo, hi) -> np.ndarray:
    up = _product(x.diagonal(lo, hi, 1, 0), x.diagonal(lo, hi, 1, 2))
    down = _product(x.diagonal(lo, hi, -1, 0), x.diagonal(lo, hi, -1, -2))
    return _product(mass * omega, up - down)


def nearest_neighbor_rewrite(x, mass: float, omega: float, n: int) -> float:
    """The invalid oscillator-only rearrangement of the quantum condition.

    Evaluates m * omega * {X(n+1,n) X(n+1,n+2) - X(n-1,n) X(n-1,n-2)} with
    out-of-range entries read as zero.  On the oscillator it yields
    hbar/sqrt(2) at n = 0 and hbar*sqrt(6)/2 at n = 1, approaching hbar only
    for large n, which is the quantitative witness of its invalidity.
    """
    xb = _trimmed(x)
    if matrix_bandwidth(xb) > 1:
        raise ValueError(
            "the nearest-neighbor rewrite is only defined for matrices whose "
            "entries beyond the first off-diagonal vanish"
        )
    n, _ = _check_window(n, xb.size, 0)
    return float(_nearest_neighbor_values(xb, mass, omega, n, n)[0].real)


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    # 0 + t0 + t1 + ... along the last axis, left to right: the rounding of a scalar
    # accumulation loop (numpy's own sum is pairwise)
    zero = np.zeros(terms.shape[:-1] + (1,), dtype=complex)
    return np.add.accumulate(np.concatenate((zero, terms), axis=-1), axis=-1)[..., -1]


#: Most (entry, k) terms the commutator kernel forms at once, which bounds its memory.
_KERNEL_BLOCK = 1 << 16


def _commutator_entries(x: BandedMatrix, p: BandedMatrix, reach: int, rows, cols) -> np.ndarray:
    """[X, P](i, j) for the index arrays ``rows`` and ``cols``, with k within ``reach`` of i.

    Each entry is sum_k {X(i,k) P(k,j) - P(i,k) X(k,j)} over k = i - reach .. i + reach,
    summed left to right from 0 with ``_product`` rounding.  Each factor is read from
    the stored diagonals of X and P: X(i, k) and P(i, k) as ``rows(i, reach)``, X(k, j)
    and P(k, j) as the slot (b + j - k, k).  Pairs off the matrix or beyond the stored
    band read as zero.  Once X and P vanish beyond ``reach`` of the diagonal, every
    further k adds an exact zero, which leaves such a sum unchanged bit for bit;
    entries farther than 2 * reach from the diagonal are then exact zeros.
    """
    size = x.size
    shifts = np.arange(-reach, reach + 1)
    out = np.empty(len(rows), dtype=complex)
    step = max(1, _KERNEL_BLOCK // shifts.size)
    for start in range(0, len(rows), step):
        i = rows[start : start + step]
        j = cols[start : start + step, None]
        k = i[:, None] + shifts
        inside = (k >= 0) & (k < size)
        k = np.where(inside, k, 0)

        def column(m):  # M(k, j), zero off the matrix or beyond the band
            offset = j - k
            on = inside & (np.abs(offset) <= m.band)
            return np.where(on, m.diagonals[np.where(on, m.band + offset, 0), k], 0j)

        terms = _product(x.rows(i, reach), column(p)) - _product(p.rows(i, reach), column(x))
        out[start : start + step] = _ordered_sum(terms)
    return out


def commutator_diagonal_sum(x, p, n: int, alpha_max: int | None = None) -> complex:
    """[X, P](n, n) = sum_k {X(n,k) P(k,n) - P(n,k) X(k,n)}, summed left to right.

    k runs over n - alpha_max .. n + alpha_max inside the matrix, or over every
    state when ``alpha_max`` is None.  Over every state this is the report's
    ``comm_diag`` of state n bit for bit, and commutator(X, P)[n, n] up to the
    rounding of the matrix product; a finite alpha_max gives the same value
    once it spans every nonzero band.
    """
    xb, pb = _trimmed_pair(x, p)
    n, jumps = _check_window(n, xb.size, 0 if alpha_max is None else alpha_max)
    # every k farther from n than the stored bands adds an exact zero
    reach = min(max(xb.band, pb.band), xb.size if alpha_max is None else jumps)
    return complex(_commutator_entries(xb, pb, reach, np.array([n]), np.array([n]))[0])


def loop_integral_diagonal(x, p, freq: FrequencyTable, n: int, period: float) -> complex:
    """(n, n) element of the momentum-times-coordinate-differential loop integral.

    Returns ``-T * sum_a i w(n, n-a) P(n, n-a) X(n-a, n)``.  The phases of the
    two time-dependent factors cancel pairwise, so the integrand is constant
    in time and the loop integral over an interval T is just T times the sum.
    For the oscillator over one period this reproduces 2 pi E_n / omega.
    """
    xb, pb = _trimmed_pair(x, p)
    n, _ = _check_window(n, xb.size, 0, freq)
    if not (math.isfinite(period) and period > 0.0):
        raise ValueError(f"period must be finite and positive, got {period}")
    # k downward, the order of a loop over a = n - k upward; every k farther from n
    # than the stored bands adds an exact zero, which leaves the sum bit for bit
    reach = max(xb.band, pb.band)
    k = np.arange(min(n + reach, xb.size - 1), max(n - reach, 0) - 1, -1)
    terms = _product(_product(_product(1j, freq[n, k]), pb[n, k]), xb[k, n])
    return -period * complex(_ordered_sum(terms))


def loop_integral_state_difference(x, p, n: int) -> complex:
    """Discrete state derivative of the loop integral,
    ``-2 pi i sum_a {P(n+a,n) X(n,n+a) - P(n,n-a) X(n-a,n)}``, which is
    -2 pi i [X, P](n, n) over every jump a.

    For hermitian X, P each term is purely imaginary, so the value is real;
    away from the truncation edge it equals 2 pi hbar.
    """
    return -2j * math.pi * commutator_diagonal_sum(x, p, n)


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


_ROW_FIELDS = tuple(field.name for field in fields(ConditionRow))


class ConditionRows(Sequence):
    """The rows of a condition report, stored as one read-only array per field.

    Each :class:`ConditionRow` field is an attribute holding that field's
    column (``n`` an integer array, ``commutator_diag`` and
    ``residual_commutator`` complex arrays, the rest float arrays).  Indexing
    or iterating builds the :class:`ConditionRow` objects on request; they
    hold the column entries bit for bit.  A view equals, and hashes like, the
    tuple of its rows.
    """

    __slots__ = _ROW_FIELDS

    def __init__(self, **columns: np.ndarray) -> None:
        for name in _ROW_FIELDS:
            column = np.asarray(columns[name]).view()
            column.flags.writeable = False
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return ConditionRow(*(getattr(self, name)[index].item() for name in _ROW_FIELDS))

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in _ROW_FIELDS)
        return map(ConditionRow, *columns)

    def __eq__(self, other):
        if isinstance(other, (ConditionRows, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class ConditionReport:
    """Evaluation-window condition rows plus commutator diagnostics.

    ``full_report`` fills ``rows`` with a :class:`ConditionRows` view, which
    keeps the per-state values as columns and builds :class:`ConditionRow`
    objects only when they are read.  Any sequence of ``ConditionRow`` is
    accepted in its place (``dataclasses.replace(report, rows=...)``) and
    serializes to the same bytes as the view it replaces.
    """

    system_kind: str
    mass: float
    omega: float
    hbar: float
    size: int
    window: tuple[int, int]
    alpha_max: int
    rows: Sequence[ConditionRow]
    offdiag_max: float
    trace_commutator: complex
    edge_diag: complex


def _real_or_raise(values: np.ndarray, hbar: float, label: str) -> np.ndarray:
    leaks = np.flatnonzero(np.abs(values.imag) > REALNESS_TOL * hbar)
    if leaks.size:
        raise NumericalError(
            f"{label} has imaginary part {values.imag[leaks[0]]:.3e} beyond "
            f"{REALNESS_TOL} * hbar"
        )
    return values.real


def full_report(
    system: SpectralSystem, pair: MatrixPair, alpha_max: int | None = None
) -> ConditionReport:
    """Evaluate every condition formulation on each window state of a system.

    The evaluation window is 0 <= n <= N - 1 - alpha_max; the default
    alpha_max is the band beyond which all X entries drop below 1e-12 (at
    least 1).  Each formulation is one band pass over the whole window, in a
    fixed order, so identical inputs yield identical reports.  Frequencies are
    read from the levels of ``transition_frequencies(system)``, X and P from
    the pair's stored diagonals.  [X, P] is never formed: one probe pass over
    those diagonals finds the structural band b, beyond which X and P vanish
    exactly, and one band kernel evaluates the diagonal of [X, P] over every
    state and its entries within min(2b, window end) of the diagonal over the
    window, at a cost of O(N b^2).  Each row's ``commutator_diag`` is
    ``commutator_diagonal_sum(X, P, n)`` bit for bit.  The rows come back as
    a :class:`ConditionRows` view over those per-state columns.
    """
    if pair.size != system.size:
        raise ValueError("matrix pair and system sizes disagree")
    x, p = pair.xb, pair.pb
    size = system.size
    mass = system.constants.mass
    hbar = system.constants.hbar
    band, reach = matrix_bandwidth(x, BAND_CUTOFF, p)
    alpha_max = max(1, band) if alpha_max is None else _label("alpha_max", alpha_max)
    if alpha_max < 1:
        raise ValueError("alpha_max must be at least 1")
    window_hi = size - 1 - alpha_max
    if window_hi < 0:
        raise ValueError("empty evaluation window: system too small for alpha_max")
    freq = transition_frequencies(system)
    # a potential's oscillator scale is its spectral w(1, 0), not the unused constants.omega
    omega = float(freq[1, 0]) if system.kind == "potential" else system.constants.omega

    # [X, P] on the diagonal, then off it within the window, where it can be nonzero
    states = np.arange(size)
    near = min(2 * reach, window_hi)
    shifts = np.concatenate((np.arange(-near, 0), np.arange(1, near + 1)))
    first = np.repeat(states[: window_hi + 1], shifts.size)
    second = first + np.tile(shifts, window_hi + 1)
    inside = (second >= 0) & (second <= window_hi)
    comm = _commutator_entries(
        x, p, reach,
        np.concatenate((states, first[inside])), np.concatenate((states, second[inside])),
    )
    diag = comm[:size]
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
        bj = np.full(window_hi + 1, math.nan)

    diag_window = diag[: window_hi + 1]
    rows = ConditionRows(
        n=np.arange(window_hi + 1),
        eq4_hermitian=eq4_h,
        eq4_constrained=eq4_c,
        eq14=eq14,
        eq25=eq25,
        bj_alternative=bj,
        commutator_diag=diag_window,
        residual_eq4_hermitian=eq4_h - hbar,
        residual_eq4_constrained=eq4_c - hbar,
        residual_eq14=eq14 - hbar,
        residual_eq25=eq25 - hbar,
        residual_bj_alternative=bj - hbar,
        residual_commutator=diag_window - 1j * hbar,
    )

    return ConditionReport(
        system_kind=system.kind,
        mass=mass,
        omega=omega,
        hbar=hbar,
        size=size,
        window=(0, window_hi),
        alpha_max=alpha_max,
        rows=rows,
        offdiag_max=float(np.max(np.abs(comm[size:]), initial=0.0)),
        trace_commutator=complex(diag.sum()),
        edge_diag=complex(diag[-1]),
    )
