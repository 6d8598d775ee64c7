"""Deterministic JSON and CSV serialization of the report types.

Every report goes through one encoder, ``_encode``: a report type declares its
column names once and hands over one column per name.  A column of integers is
written as integers.  A float column is written through ``_tokens``, the one
formatting route for floats: each distinct value (by bit pattern) is formatted
once with 15 significant digits.  CSV is a header line plus those ``.15g``
cells (NaN is "nan").  JSON is one object per row under the ``"rows"`` key of
the report payload.  Its floats, the payload's included, are the shortest
repr of the value rounded to 15 significant digits (NaN becomes null), so
serialize / parse / serialize is a byte-level fixed point.
"""

from __future__ import annotations

import json
import math
import os
from operator import attrgetter

import numpy as np

from .classical import CorrespondenceReport, QuantizationResult
from .conditions import ConditionReport, ConditionRows

CONDITION_ROW_KEYS = (
    "n",
    "eq4_hermitian",
    "eq4_constrained",
    "eq14",
    "eq25",
    "bj_alternative",
    "comm_diag_re",
    "comm_diag_im",
    "residual_eq4_hermitian",
    "residual_eq4_constrained",
    "residual_eq14",
    "residual_eq25",
    "residual_bj_alternative",
    "residual_comm_re",
    "residual_comm_im",
)

# ConditionRow attribute, or ConditionRows column, behind each key that differs from it.
_CONDITION_COLUMN_ATTRS = {
    "comm_diag_re": "commutator_diag.real",
    "comm_diag_im": "commutator_diag.imag",
    "residual_comm_re": "residual_commutator.real",
    "residual_comm_im": "residual_commutator.imag",
}
_condition_values = attrgetter(
    *(_CONDITION_COLUMN_ATTRS.get(key, key) for key in CONDITION_ROW_KEYS)
)


# Below this magnitude a 15-digit decimal may not come back from float() as a
# value whose repr has the same digits (subnormals, and normal values that
# round into them), so such tokens are parsed and re-written.
_SUBNORMAL_EDGE = 1e-307
_JSON_WORDS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_token(text: str) -> str:
    """JSON spelling of a ``.15g`` string: json.dumps of the value it parses to.

    The digits already are the repr's; only the notation differs.  repr adds
    ".0" to an integer value, and moves to an exponent at 1e16 where ``.15g``
    does at 1e15.  An ``e+308`` string may round up past the largest double
    and parse to inf.
    """
    if "e" in text:
        if text.endswith(("e+15", "e+308")):
            return json.dumps(float(text))
        return text
    if "." in text:
        return text
    return _JSON_WORDS.get(text) or text + ".0"


def _tokens(values, fmt: str) -> np.ndarray:
    """Text of every float in ``values``, as an object array of the same shape.

    Each distinct bit pattern is formatted once, so -0.0 and 0.0 stay apart.
    """
    values = np.asarray(values, dtype=float)
    distinct, inverse = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    numbers = distinct.view(float)
    text = ("%.15g," * numbers.size % tuple(numbers.tolist())).split(",")[:-1]
    if fmt == "json":
        text = [_json_token(t) for t in text]
        for i in np.flatnonzero((numbers != 0.0) & (np.abs(numbers) < _SUBNORMAL_EDGE)):
            text[i] = json.dumps(float(text[i]))
    return np.array(text, dtype=object)[inverse].reshape(values.shape)


def _encode(keys, columns, fmt: str, wrap=('{"rows":', "}")) -> bytes:
    """Encode ``columns``, one per key in ``keys`` order, as JSON or as CSV with a header line.

    JSON writes the rows as a list of objects between the two strings of
    ``wrap``, the report payload around its ``"rows"`` value.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    columns = [np.asarray(column) for column in columns]
    count = len(columns[0]) if columns else 0
    integer = [column.dtype.kind in "iu" for column in columns]
    cells = np.empty((count, len(keys)), dtype=object)
    if count:
        floats = [j for j, flag in enumerate(integer) if not flag]
        cells[:, floats] = _tokens([columns[j] for j in floats], fmt).T
        for j in np.flatnonzero(integer):
            cells[:, j] = columns[j].tolist()
    if fmt == "json":
        row = "{%s}" % ",".join(
            f"{json.dumps(key)}:{'%d' if flag else '%s'}" for key, flag in zip(keys, integer)
        )
        body = ",".join([row] * count) % tuple(cells.reshape(-1).tolist())
        return f"{wrap[0]}[{body}]{wrap[1]}\n".encode("ascii")
    row = ",".join("%.15g" if flag else "%s" for flag in integer)
    body = "\n".join([row] * count) % tuple(cells.reshape(-1).tolist())
    return (",".join(keys) + "\n" + (body + "\n" if count else "")).encode("ascii")


def _columns(rows, values) -> list:
    """Columns of ``rows`` as read by the attrgetter ``values``: a column view's
    arrays directly, or the transpose of a sequence of row objects."""
    if isinstance(rows, ConditionRows):
        return list(values(rows))
    return list(zip(*map(values, rows)))


def serialize_report(report: ConditionReport, fmt: str = "json") -> bytes:
    """Serialize a condition report to JSON or CSV bytes."""
    columns = _columns(report.rows, _condition_values)
    trace, edge = report.trace_commutator, report.edge_diag
    m, omega, hbar, offdiag, trace_re, trace_im, edge_im = _tokens(
        [report.mass, report.omega, report.hbar, report.offdiag_max,
         trace.real, trace.imag, edge.imag],
        "json",
    )
    head = '{"system":{"kind":%s,"constants":{"m":%s,"omega":%s,"hbar":%s},"size":%s},' % (
        json.dumps(report.system_kind), m, omega, hbar, json.dumps(report.size)
    )
    head += '"window":[%s,%s],"rows":' % tuple(map(json.dumps, report.window))
    tail = ',"offdiag_max":%s,"trace_re":%s,"trace_im":%s,"edge_diag_im":%s}' % (
        offdiag, trace_re, trace_im, edge_im
    )
    return _encode(CONDITION_ROW_KEYS, columns, fmt, (head, tail))


CLASSICAL_ROW_KEYS_BASE = (
    "n",
    "energy",
    "action",
    "period",
    "omega",
    "x_minus",
    "x_plus",
)


def serialize_classical(
    levels: list[tuple[QuantizationResult, object]], alpha_max: int, fmt: str = "json"
) -> bytes:
    """Serialize quantized levels with their orbit data.

    Each item pairs a :class:`QuantizationResult` with the matching
    :class:`ClassicalOrbit`, or with None for the degenerate bottom-of-well
    level, whose orbit columns come out as NaN.  ValueError for an orbit with
    fewer than the alpha_max + 1 harmonics of the ``fourier_<a>`` columns.
    """
    keys = CLASSICAL_ROW_KEYS_BASE + tuple(f"fourier_{a}" for a in range(alpha_max + 1))
    rows = []
    for result, orbit in levels:
        if orbit is None:
            orbit_values = (math.nan,) * (len(keys) - 3)
        else:
            if len(orbit.harmonics) <= alpha_max:
                raise ValueError(f"level {result.n}: fewer than {alpha_max + 1} orbit harmonics")
            orbit_values = (orbit.period, orbit.omega, orbit.x_minus, orbit.x_plus)
            orbit_values += orbit.harmonics[: alpha_max + 1]
        rows.append((result.n, result.energy, result.action) + orbit_values)
    return _encode(keys, list(zip(*rows)), fmt)


CORRESPONDENCE_ROW_KEYS = (
    "n",
    "alpha",
    "energy",
    "quantum_amp",
    "classical_amp",
    "amp_rel_dev",
    "quantum_freq",
    "classical_freq",
    "freq_rel_dev",
)
_correspondence_values = attrgetter(*CORRESPONDENCE_ROW_KEYS)


def serialize_correspondence(reports: list[CorrespondenceReport], fmt: str = "json") -> bytes:
    """Serialize correspondence reports as flat rows ordered by (n, alpha)."""
    rows = [row for report in reports for row in report.rows]
    columns = _columns(rows, _correspondence_values)
    return _encode(CORRESPONDENCE_ROW_KEYS, columns, fmt)


def write_atomic(path: str, data: bytes) -> None:
    """Write bytes to a temporary file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
