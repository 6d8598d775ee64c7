"""Deterministic JSON and CSV serialization of the report types.

Every report goes through one encoder, ``_encode``: a report type declares its
column names once and turns each row into one value tuple in that order.  CSV
is a header line plus ``.15g`` cells (NaN is "nan").  JSON is one object per
row, each float rounded once to 15 significant digits (NaN becomes null),
placed under the report payload's ``"rows"`` key; the rounding makes
serialize / parse / serialize a byte-level fixed point.
"""

from __future__ import annotations

import json
import math
import os
from operator import attrgetter

from .classical import CorrespondenceReport, QuantizationResult
from .conditions import ConditionReport

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

# ConditionRow attribute behind each column whose name differs from the field.
_CONDITION_COLUMN_ATTRS = {
    "comm_diag_re": "commutator_diag.real",
    "comm_diag_im": "commutator_diag.imag",
    "residual_comm_re": "residual_commutator.real",
    "residual_comm_im": "residual_commutator.imag",
}
_condition_values = attrgetter(
    *(_CONDITION_COLUMN_ATTRS.get(key, key) for key in CONDITION_ROW_KEYS)
)


def _round15(value: float):
    if isinstance(value, int):
        return value
    if math.isnan(value):
        return None
    return float(f"{value:.15g}")


def _encode(keys, rows, fmt: str, payload: dict | None = None) -> bytes:
    """Encode value tuples in ``keys`` order as JSON or as CSV with a header line.

    JSON puts the rows under ``payload["rows"]``; a ``"rows"`` placeholder in
    ``payload`` fixes where they appear among the other keys.
    """
    if fmt == "json":
        records = [dict(zip(keys, map(_round15, row))) for row in rows]
        body = {**(payload or {}), "rows": records}
        return (json.dumps(body, separators=(",", ":")) + "\n").encode("ascii")
    if fmt == "csv":
        lines = [",".join(keys)]
        lines += [",".join([format(value, ".15g") for value in row]) for row in rows]
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def serialize_report(report: ConditionReport, fmt: str = "json") -> bytes:
    """Serialize a condition report to JSON or CSV bytes."""
    rows = [_condition_values(row) for row in report.rows]
    payload = {
        "system": {
            "kind": report.system_kind,
            "constants": {
                "m": _round15(report.mass),
                "omega": _round15(report.omega),
                "hbar": _round15(report.hbar),
            },
            "size": report.size,
        },
        "window": [report.window[0], report.window[1]],
        "rows": None,
        "offdiag_max": _round15(report.offdiag_max),
        "trace_re": _round15(report.trace_commutator.real),
        "trace_im": _round15(report.trace_commutator.imag),
        "edge_diag_im": _round15(report.edge_diag.imag),
    }
    return _encode(CONDITION_ROW_KEYS, rows, fmt, payload)


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
    level, whose orbit columns come out as NaN.
    """
    keys = CLASSICAL_ROW_KEYS_BASE + tuple(f"fourier_{a}" for a in range(alpha_max + 1))
    rows = []
    for result, orbit in levels:
        if orbit is None:
            orbit_values = (math.nan,) * (len(keys) - 3)
        else:
            orbit_values = (orbit.period, orbit.omega, orbit.x_minus, orbit.x_plus)
            orbit_values += tuple(orbit.fourier[a].real for a in range(alpha_max + 1))
        rows.append((result.n, result.energy, result.action) + orbit_values)
    return _encode(keys, rows, fmt)


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
    rows = [_correspondence_values(row) for report in reports for row in report.rows]
    return _encode(CORRESPONDENCE_ROW_KEYS, rows, fmt)


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
