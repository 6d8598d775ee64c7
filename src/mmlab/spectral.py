"""Spectra and hermitian coordinate/momentum matrices for 1-D bound systems.

The builders produce an energy list together with the position matrix X and
the momentum matrix P in the energy eigenbasis.  For every builder the two
matrices are tied entrywise through the transition frequencies,

    P(n, n') = i * m * w(n, n') * X(n, n'),    w(n, n') = (E_n - E_n') / hbar,

which keeps P hermitian whenever X is.  A matrix pair stores X and P as their
diagonals (:class:`BandedMatrix`): one (2b + 1, N) complex array each, whose
slot (b + d, i) holds the entry (i, i + d) and whose slots past the matrix
edge hold zeros.  b is 1 for the oscillator, which is built, checked and
read in O(N); a dense input keeps the diagonals out to its farthest entry
that is not +0, all N - 1 for a potential.  A frequency table stores only
the N scaled levels e = E / hbar.  Amplitude tables re-index X entries by
(state, jump) pairs, the format the condition evaluators reason about: one
dense complex array, a row per recorded state n and a column per jump
alpha, whose slots are data exactly where 0 <= n - alpha < size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .jacobi import jacobi_eigh, relative_defect

#: Relative Frobenius defect accepted before a matrix stops counting as hermitian.
HERMITICITY_TOL = 1e-12

#: Entries smaller than this are treated as structural zeros when banding is probed,
#: including the nearest-neighbor test of the condition rewrite.
BAND_CUTOFF = 1e-12


@dataclass(frozen=True)
class PhysicalConstants:
    """Mass, reduced action quantum and (for the oscillator builder) frequency."""

    mass: float = 1.0
    hbar: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("mass", "hbar", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SpectralSystem:
    """Retained energy levels of a 1-D bound system, lowest first."""

    constants: PhysicalConstants
    energies: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1 or e.size < 1:
            raise ValueError("energies must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(e)):
            raise ValueError("energies must all be finite")
        if np.any(np.diff(e) < 0.0):
            raise ValueError("energies must be nondecreasing")
        object.__setattr__(self, "energies", _frozen_array(e, float))

    @property
    def size(self) -> int:
        return int(self.energies.size)


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Transition frequencies w(n, n') = e[n] - e[n'] of the scaled levels e = E / hbar.

    Only the levels are stored, checked once: nonempty, 1-D, and with a finite
    spread max - min, the largest |w| (not finite also rejects NaN).
    ``freq[i, j]`` reads e[i] - e[j], a block of the matrix for slices.
    Antisymmetry holds exactly, since a - b is -(b - a) in floating point; the
    combination rule w(n, k) + w(k, n') = w(n, n') only up to rounding.
    """

    levels: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.levels, dtype=float)
        if e.ndim != 1 or e.size < 1:
            raise ValueError("levels must be a nonempty 1-D sequence")
        if not math.isfinite(float(np.max(e)) - float(np.min(e))):
            raise ValueError("transition frequencies must be finite")
        object.__setattr__(self, "levels", _frozen_array(e, float))

    @property
    def size(self) -> int:
        return int(self.levels.size)

    def __getitem__(self, key):
        i, j = key
        return np.subtract.outer(self.levels[i], self.levels[j])

    def diagonal(self, lo: int, hi: int, row: int, col: int) -> np.ndarray:
        """w(n + row, n + col) for n = lo..hi, rounded as ``freq[i, j]``; 0 off the spectrum."""
        e = self.levels
        out = np.zeros(hi - lo + 1)
        # states n0..n1 put both labels inside the spectrum
        n0, n1 = max(lo, -row, -col), min(hi, e.size - 1 - row, e.size - 1 - col)
        if n1 >= n0:
            out[n0 - lo : n1 - lo + 1] = e[n0 + row : n1 + row + 1] - e[n0 + col : n1 + col + 1]
        return out


def transition_frequencies(system: SpectralSystem) -> FrequencyTable:
    """Frequency table w(n, n') = (E_n - E_n') / hbar of a system.

    A level E / hbar that overflows is left infinite without a warning; the
    table then rejects it as ``transition frequencies must be finite``.
    """
    with np.errstate(over="ignore"):
        levels = system.energies / system.constants.hbar
    return FrequencyTable(levels)


def _square(*matrices) -> tuple[np.ndarray, ...]:
    """The matrices as complex arrays; ValueError unless they are square and of one shape."""
    arrays = tuple(np.asarray(m, dtype=complex) for m in matrices)
    shape = arrays[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(a.shape != shape for a in arrays):
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise ValueError(f"expected square matrices of one shape, got {shapes}")
    return arrays


@lru_cache(maxsize=8)
def _offsets(band: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Column i + d of each slot (b + d, i) of a (2b + 1, size) array of diagonals
    (0 where that column lies outside the matrix), and whether it lies inside.

    Read-only and cached: a pair's build, checks and reads ask for the same one
    or two shapes (a potential's auxiliary basis and its retained states).  The
    cache is small so that it does not hold on to large dense layouts.
    """
    cols = np.arange(size) + np.arange(-band, band + 1)[:, None]
    inside = (cols >= 0) & (cols < size)
    cols = np.where(inside, cols, 0)
    cols.setflags(write=False)
    inside.setflags(write=False)
    return cols, inside


@lru_cache(maxsize=8)
def _adjoint_slots(band: int, size: int) -> np.ndarray:
    """Flat slot of M(i + d, i), (b - d) * size + i + d, for each slot (b + d, i) of
    M(i, i + d), so that M^dagger(i, i + d) = conj(M(i + d, i)); slot 0, which is
    past the edge and zero whenever b > 0, where i + d lies outside the matrix."""
    cols, inside = _offsets(band, size)
    rows = np.arange(2 * band, -1, -1)[:, None]
    slots = np.where(inside, rows * size + cols, 0)
    slots.setflags(write=False)
    return slots


@dataclass(frozen=True, eq=False)
class BandedMatrix:
    """Square complex matrix M stored as its diagonals, one (2b + 1, N) array.

    ``diagonals[b + d, i]`` holds M(i, i + d) for -b <= d <= b; every entry
    farther than b from the diagonal is zero.  Slots whose column i + d lies
    outside the matrix are set to zero on construction, so they read as the
    zeros beyond the truncation edge.
    """

    diagonals: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonals, dtype=complex)
        if d.ndim != 2 or d.shape[0] % 2 != 1 or d.shape[1] < 1:
            raise ValueError(f"diagonals must have shape (2b + 1, N) with N >= 1, got {d.shape}")
        _, inside = _offsets(d.shape[0] // 2, d.shape[1])
        d = np.where(inside, d, 0j)
        d.setflags(write=False)
        object.__setattr__(self, "diagonals", d)

    @classmethod
    def from_dense(cls, matrix, band: int | None = None) -> BandedMatrix:
        """Diagonals -b..b of a square matrix; every diagonal, b = N - 1, by default."""
        (m,) = _square(matrix)
        size = m.shape[0]
        cols, inside = _offsets(size - 1 if band is None else band, size)
        return cls(np.where(inside, m[np.arange(size), cols], 0j))

    @property
    def band(self) -> int:
        return self.diagonals.shape[0] // 2

    @property
    def size(self) -> int:
        return self.diagonals.shape[1]

    def dense(self) -> np.ndarray:
        """The N x N matrix, read-only."""
        cols, inside = _offsets(self.band, self.size)
        rows = np.broadcast_to(np.arange(self.size), cols.shape)
        out = np.zeros((self.size, self.size), dtype=complex)
        out[rows[inside], cols[inside]] = self.diagonals[inside]
        out.setflags(write=False)
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    def __getitem__(self, key):
        """M(row, col) for integer indices or index arrays, with rows inside the matrix.

        A column off the matrix, or farther than b from its row, reads 0.
        """
        rows, cols = key
        if isinstance(rows, int) and isinstance(cols, int):
            offset = cols - rows
            return self.diagonals[self.band + offset, rows] if abs(offset) <= self.band else 0j
        offset = np.subtract(cols, rows)
        on = np.abs(offset) <= self.band
        return np.where(on, self.diagonals[np.where(on, offset + self.band, 0), rows], 0j)

    def diagonal(self, lo: int, hi: int, row: int, col: int) -> np.ndarray:
        """Entries M(n + row, n + col) for n = lo..hi; pairs off the matrix read 0."""
        out = np.zeros(hi - lo + 1, dtype=complex)
        # states n0..n1 put both labels inside the matrix
        n0, n1 = max(lo, -row, -col), min(hi, self.size - 1 - row, self.size - 1 - col)
        if abs(col - row) <= self.band and n1 >= n0:
            stored = self.diagonals[self.band + col - row]
            out[n0 - lo : n1 - lo + 1] = stored[n0 + row : n1 + row + 1]
        return out

    def rows(self, index, reach: int) -> np.ndarray:
        """M(i, i + d) at (i, reach + d) for the rows i of ``index``, |d| <= reach; 0 past b."""
        b = min(reach, self.band)
        stored = self.diagonals[self.band - b : self.band + b + 1, index].T
        out = np.zeros((stored.shape[0], 2 * reach + 1), dtype=complex)
        out[:, reach - b : reach + b + 1] = stored
        return out

    def structural_band(self) -> int:
        """Largest |row - column| of a nonzero entry; 0 when M is diagonal or zero."""
        nonzero = np.flatnonzero(np.any(self.diagonals != 0, axis=1))
        return int(np.max(np.abs(nonzero - self.band), initial=0))


def _trimmed(matrix) -> BandedMatrix:
    """A :class:`BandedMatrix` as it is; a dense square matrix as its diagonals out to
    the farthest entry from the diagonal that is not +0, so that a tridiagonal input
    stores three and its dense view comes back bit for bit, signed zeros included."""
    if isinstance(matrix, BandedMatrix):
        return matrix
    (m,) = _square(matrix)
    rows, cols = np.nonzero((m != 0) | np.signbit(m.real) | np.signbit(m.imag))
    return BandedMatrix.from_dense(m, int(np.max(np.abs(cols - rows), initial=0)))


def _trimmed_pair(x, p) -> tuple[BandedMatrix, BandedMatrix]:
    """X and P through :func:`_trimmed`; ValueError unless they are of one size."""
    xb, pb = _trimmed(x), _trimmed(p)
    if xb.size != pb.size:
        raise ValueError(f"position and momentum sizes disagree: {xb.size} and {pb.size}")
    return xb, pb


def hermiticity_defect(matrix) -> float:
    """Frobenius norm of (M - M^dagger) divided by max(1, Frobenius norm of M).

    Read on the stored diagonals in O(N b), scaled so that no norm overflows;
    NaN when M has a NaN or infinite entry.
    """
    m = _trimmed(matrix)
    mirror = m.diagonals.ravel()[_adjoint_slots(m.band, m.size)].conj()
    return relative_defect(m.diagonals, mirror)


@dataclass(frozen=True, eq=False, init=False)
class MatrixPair:
    """Hermitian position and momentum matrices over the same state basis.

    Both are stored as their diagonals, ``xb`` and ``pb``
    (:class:`BandedMatrix`): a banded input as it is (b = 1 for the
    oscillator), a dense input out to its farthest entry from the diagonal
    that is not +0 (N - 1 for a potential's X, 1 for the dense views of the
    oscillator's pair).  ``x`` and ``p`` read the dense matrices, built on
    each call.
    """

    xb: BandedMatrix
    pb: BandedMatrix

    def __init__(self, x, p):
        xb, pb = _trimmed_pair(x, p)
        # not (defect <= tol): a NaN or infinite entry makes the defect NaN and fails
        if not hermiticity_defect(xb) <= HERMITICITY_TOL:
            raise ValueError("position matrix is not hermitian within tolerance")
        if not hermiticity_defect(pb) <= HERMITICITY_TOL:
            raise ValueError("momentum matrix is not hermitian within tolerance")
        object.__setattr__(self, "xb", xb)
        object.__setattr__(self, "pb", pb)

    @property
    def x(self) -> np.ndarray:
        """Dense position matrix, read-only, built from the diagonals on each call."""
        return self.xb.dense()

    @property
    def p(self) -> np.ndarray:
        """Dense momentum matrix, read-only, built from the diagonals on each call."""
        return self.pb.dense()

    @property
    def size(self) -> int:
        return self.xb.size


def momentum_from_position(x, freq: FrequencyTable, mass: float):
    """Entrywise momentum matrix P(n, n') = i * mass * w(n, n') * X(n, n').

    Dense for a dense X, and stored on the same diagonals for a
    :class:`BandedMatrix`; every entry is the same floating-point expression.
    Hermitian input X yields hermitian output because w is real antisymmetric.
    """
    banded = isinstance(x, BandedMatrix)
    xm = x.diagonals if banded else _square(x)[0]
    if xm.shape[1] != freq.size:
        raise ValueError("position matrix and frequency table sizes disagree")
    e = freq.levels
    if banded:
        cols, _ = _offsets(x.band, x.size)
        w = e - e[cols]  # w(i, i + d) in slot (b + d, i)
    else:
        w = e[:, None] - e[None, :]
    p = 1j * mass * w * xm
    return BandedMatrix(p) if banded else p


def matrix_bandwidth(x, cutoff: float = BAND_CUTOFF, p=None):
    """Largest |row - column| carrying an entry of magnitude >= cutoff, on either side
    of the diagonal; 0 when no off-diagonal entry reaches the cutoff.

    x and p are dense matrices or :class:`BandedMatrix`; the scan reads the
    stored diagonals once.  Given ``p`` as well, it also returns the
    structural band of the pair, the largest |row - column| at which x or p has
    a nonzero entry: every entry of either beyond it is an exact zero.
    """
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    xb = _trimmed(x)
    reached = np.flatnonzero(np.any(np.abs(xb.diagonals) >= cutoff, axis=1))
    band = int(np.max(np.abs(reached - xb.band), initial=0))
    if p is None:
        return band
    return band, max(xb.structural_band(), _trimmed(p).structural_band())


@dataclass(frozen=True, eq=False)
class AmplitudeTable:
    """Transition amplitudes A(n, alpha) = X(n, n - alpha) as one dense (state, jump) array.

    ``window`` is the inclusive range (lo, hi) of recorded state labels and
    ``size`` the dimension of the source matrix.  ``amplitudes[n - lo, alpha +
    alpha_max]`` holds A(n, alpha).  No presence mask is stored: a pair is
    present exactly when 0 <= n - alpha < size, and absent slots hold 0.  Two
    constraint flags are computed from the present pairs:

    * ``hermitian_consistent``: A(n, alpha) == conj(A(n - alpha, -alpha)),
      the re-indexed form of X being hermitian;
    * ``heisenberg_real``: A(n, alpha) == conj(A(n, -alpha)), the classical
      reality condition carried over to transition amplitudes.
    """

    window: tuple[int, int]
    alpha_max: int
    size: int
    amplitudes: np.ndarray
    hermitian_consistent: bool = field(init=False)
    heisenberg_real: bool = field(init=False)

    def __post_init__(self):
        lo, hi = self.window
        if not (0 <= lo <= hi <= self.size - 1):
            raise ValueError(f"window {self.window} out of range for size {self.size}")
        if self.alpha_max < 0:
            raise ValueError("alpha_max must be nonnegative")
        amps = np.asarray(self.amplitudes, dtype=complex)
        shape = (hi - lo + 1, 2 * self.alpha_max + 1)
        if amps.shape != shape:
            raise ValueError(f"amplitudes must have shape {shape}, got {amps.shape}")
        present = self.present()
        amps = _frozen_array(np.where(present, amps, 0j), complex)
        object.__setattr__(self, "amplitudes", amps)
        # conj(A(n, -a)) is the mirrored column; conj(A(n - a, -a)) is that column a
        # rows up, recorded (and then both pairs present) while n - a is in the window
        mirror = amps[:, ::-1].conj()
        rows, cols = np.indices(shape)
        up = rows - cols + self.alpha_max
        paired = (up >= 0) & (up < shape[0])
        herm = np.abs(amps - mirror[np.where(paired, up, 0), cols])[paired]
        real = np.abs(amps - mirror)[present & present[:, ::-1]]
        # all(<= tol) so that a NaN or infinite amplitude reads inconsistent
        object.__setattr__(self, "hermitian_consistent", bool(np.all(herm <= 1e-12)))
        object.__setattr__(self, "heisenberg_real", bool(np.all(real <= 1e-12)))

    def present(self) -> np.ndarray:
        """Boolean (state, jump) grid of the pairs inside the matrix."""
        lo, hi = self.window
        # column n - alpha of X(n, n - alpha) on the (state, jump) grid
        cols = np.arange(lo, hi + 1)[:, None] - np.arange(-self.alpha_max, self.alpha_max + 1)
        return (cols >= 0) & (cols < self.size)

    def diagonal(self, lo: int, hi: int, row: int, col: int) -> np.ndarray:
        """Entries X(n + row, n + col) for n = lo..hi, one slice of jump column row - col.

        Pairs outside the truncated matrix are genuine zeros; the first pair inside
        the matrix but outside the recorded window is missing data and raises.
        """
        out = np.zeros(hi - lo + 1, dtype=complex)
        # states n0..n1 put the pair inside the matrix, states first..last are recorded
        n0, n1 = max(lo, -row, -col), min(hi, self.size - 1 - row, self.size - 1 - col)
        if n1 < n0:
            return out
        first, last = self.window[0] - row, self.window[1] - row
        if abs(row - col) > self.alpha_max:
            first, last = n1 + 1, n1  # the table records no state of this jump
        if not first <= n0 <= n1 <= last:
            bad = n0 if not first <= n0 <= last else last + 1
            raise ValueError(
                f"amplitude for pair ({bad + row},{bad + col}) is outside the recorded window"
            )
        column = self.amplitudes[:, row - col + self.alpha_max]
        out[n0 - lo : n1 - lo + 1] = column[n0 - first : n1 - first + 1]
        return out

    def amplitude_for_pair(self, row: int, col: int) -> complex:
        """Entry X(row, col): 0 outside the matrix, ValueError for an unrecorded pair inside it."""
        return complex(self.diagonal(row, row, 0, col - row)[0])


def _label(name: str, value) -> int:
    """A state or jump label as a Python int; ValueError unless it is an integer.

    A numpy integer is converted, so that unsigned arithmetic cannot wrap on it.
    """
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def to_amplitude_table(x, window: tuple[int, int], alpha_max: int) -> AmplitudeTable:
    """Record X entries as transition amplitudes A(n, alpha) = X(n, n - alpha).

    X is a dense matrix or a :class:`BandedMatrix`; jump column alpha slices diagonal -alpha.
    """
    xb = _trimmed(x)
    lo, hi = (_label("window label", label) for label in window)
    alpha_max = _label("alpha_max", alpha_max)
    if not (0 <= lo <= hi <= xb.size - 1):
        raise ValueError(f"window {window} out of range for matrix size {xb.size}")
    if alpha_max < 0:
        raise ValueError("alpha_max must be nonnegative")
    amps = xb.rows(slice(lo, hi + 1), alpha_max)[:, ::-1]
    return AmplitudeTable(window=(lo, hi), alpha_max=alpha_max, size=xb.size, amplitudes=amps)


def build_oscillator(constants: PhysicalConstants, size: int):
    """Closed-form harmonic oscillator truncated to ``size`` states.

    E_n = (n + 1/2) hbar omega and X is real symmetric tridiagonal with
    X(n, n+1) = sqrt((n + 1) hbar / (2 m omega)).  Returns the system and the
    matrix pair in the energy eigenbasis, X and P stored as their three
    diagonals: O(N) time and memory.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    m, w, hb = constants.mass, constants.omega, constants.hbar
    n = np.arange(size)
    energies = (n + 0.5) * hb * w
    off = np.sqrt((n[:-1] + 1.0) * hb / (2.0 * m * w))
    diagonals = np.zeros((3, size), dtype=complex)
    diagonals[0, 1:] = off  # X(n + 1, n)
    diagonals[2, :-1] = off  # X(n, n + 1)
    x = BandedMatrix(diagonals)
    system = SpectralSystem(constants=constants, energies=energies, kind="oscillator")
    p = momentum_from_position(x, transition_frequencies(system), m)
    return system, MatrixPair(x=x, p=p)


def _descending(coefficients: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """Leading coefficient and the rest, highest degree first, as Python floats."""
    desc = coefficients.tolist()[::-1]
    return desc[0], tuple(desc[1:])


def _horner(top: float, rest: tuple[float, ...], x):
    """Horner evaluation from the leading coefficient, of a float or an array.

    For finite x and degree >= 1 these are polyval's IEEE operations in polyval's
    order, so the result is bit-identical to ``np.polynomial.polynomial.polyval``.
    """
    value = top
    for c in rest:
        value = c + value * x
    return value


@dataclass(frozen=True, eq=False)
class PolynomialPotential:
    """Confining polynomial potential V(x) = sum_k c_k x^k, coefficients ascending.

    Trailing zero coefficients are dropped; the retained leading term must have
    even degree >= 2 with a positive coefficient so that V grows on both sides.
    Construction stores the Horner terms (leading coefficient, then the rest)
    of V and V' as ``v_terms`` and ``dv_terms``, and the real critical points
    with their values, (x, V(x)) in ascending x, as ``critical_points``.  As V
    is monotone between critical points, V(x) = E has exactly as many solutions
    as neighbours of strictly opposite sign in (+, V(c_1) - E, ..., V(c_k) - E, +)
    plus critical points at E: a tangency at E counts once.
    """

    coefficients: np.ndarray
    v_terms: tuple = field(init=False, repr=False)
    dv_terms: tuple = field(init=False, repr=False)
    critical_points: tuple = field(init=False, repr=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be a finite 1-D sequence")
        nz = np.nonzero(c)[0]
        if nz.size == 0:
            raise ValueError("potential has no nonzero coefficients")
        c = c[: nz[-1] + 1]
        degree = c.size - 1
        if degree < 2 or degree % 2 != 0 or c[-1] <= 0.0:
            raise ValueError(
                "potential is not confining: leading term must have positive "
                "coefficient and even degree >= 2"
            )
        object.__setattr__(self, "coefficients", _frozen_array(c, float))
        dcoef = np.polynomial.polynomial.polyder(c)
        object.__setattr__(self, "v_terms", _descending(c))
        object.__setattr__(self, "dv_terms", _descending(dcoef))
        # polyroots returns the roots sorted; V' has odd degree, so one is exactly real.
        # A repeated root that comes back as one x twice is one critical point.
        roots = np.polynomial.polynomial.polyroots(dcoef)
        xs = dict.fromkeys(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r)))
        critical = tuple((x, _horner(*self.v_terms, x)) for x in xs)
        object.__setattr__(self, "critical_points", critical)

    @property
    def degree(self) -> int:
        return int(self.coefficients.size - 1)

    def coefficient(self, k: int) -> float:
        return float(self.coefficients[k]) if k < self.coefficients.size else 0.0

    def __call__(self, x):
        return _horner(*self.v_terms, x)

    def slope(self, x):
        return _horner(*self.dv_terms, x)

    def minimum(self) -> tuple[float, float]:
        """Location and value of the global minimum, the leftmost lowest critical point."""
        return min(self.critical_points, key=lambda point: point[1])


def _potential_matrix(potential: PolynomialPotential, x: np.ndarray) -> np.ndarray:
    # Horner evaluation of V at the matrix argument.
    top, rest = potential.v_terms
    n = x.shape[0]
    result = np.zeros((n, n))
    np.fill_diagonal(result, top)
    for c in rest:
        result = result @ x
        result[np.diag_indices(n)] += c
    return result


def build_from_potential(
    potential: PolynomialPotential,
    constants: PhysicalConstants,
    basis_size: int,
    keep: int,
):
    """Diagonalize a confining polynomial potential in an auxiliary oscillator basis.

    The Hamiltonian H = P^2 / 2m + V(X) is assembled with the basis frequency
    w_b = max(1, sqrt(2 c_2 / m)), diagonalized with ``jacobi_eigh`` (LAPACK's
    eigenvectors corrected by one Ogita-Aishima refinement step of matrix
    products, one code path), and the lowest ``keep`` states are retained.
    Eigenvector phases are fixed so that each vector's largest-magnitude
    component is positive, which makes X real symmetric.  The returned momentum
    matrix is rebuilt from the retained spectrum, P = i m w o X entrywise.
    """
    if keep < 1:
        raise ValueError("keep must be at least 1")
    if keep > basis_size / 2:
        raise ValueError("keep must not exceed half the auxiliary basis size")
    m, hb = constants.mass, constants.hbar
    w_basis = max(1.0, math.sqrt(max(0.0, 2.0 * potential.coefficient(2) / m)))
    aux = PhysicalConstants(mass=m, hbar=hb, omega=w_basis)
    _, aux_pair = build_oscillator(aux, basis_size)
    x_aux = aux_pair.x.real
    b = aux_pair.p.imag  # P = i B with B real antisymmetric
    hamiltonian = -(b @ b) / (2.0 * m) + _potential_matrix(potential, x_aux)
    hamiltonian = 0.5 * (hamiltonian + hamiltonian.T)
    evals, evecs = jacobi_eigh(hamiltonian)
    vectors = evecs[:, :keep].copy()
    for j in range(keep):
        lead = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[lead, j] < 0.0:
            vectors[:, j] = -vectors[:, j]
    energies = evals[:keep]
    x_new = vectors.T @ x_aux @ vectors
    x_new = 0.5 * (x_new + x_new.T)
    system = SpectralSystem(constants=constants, energies=energies, kind="potential")
    freq = transition_frequencies(system)
    p_new = momentum_from_position(x_new, freq, m)
    return system, MatrixPair(x=x_new.astype(complex), p=p_new)
