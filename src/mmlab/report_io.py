"""Deterministic JSON and CSV serialization of the report types.

All floating-point values are rendered with 15 significant digits so that
artifacts from independent implementations can be compared textually.  JSON
payloads round floats to 15 significant digits before encoding, which makes
serialize / parse / serialize a byte-level fixed point.  NaN becomes JSON
null and the CSV cell "nan".
"""

from __future__ import annotations

import json
import math
import os

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


def _round15(value: float):
    if isinstance(value, int):
        return value
    if math.isnan(value):
        return None
    return float(f"{value:.15g}")


def _csv_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{value:.15g}"


def _condition_row_record(row) -> dict:
    return {
        "n": row.n,
        "eq4_hermitian": row.eq4_hermitian,
        "eq4_constrained": row.eq4_constrained,
        "eq14": row.eq14,
        "eq25": row.eq25,
        "bj_alternative": row.bj_alternative,
        "comm_diag_re": row.commutator_diag.real,
        "comm_diag_im": row.commutator_diag.imag,
        "residual_eq4_hermitian": row.residual_eq4_hermitian,
        "residual_eq4_constrained": row.residual_eq4_constrained,
        "residual_eq14": row.residual_eq14,
        "residual_eq25": row.residual_eq25,
        "residual_bj_alternative": row.residual_bj_alternative,
        "residual_comm_re": row.residual_commutator.real,
        "residual_comm_im": row.residual_commutator.imag,
    }


def _rounded_rows(keys, records) -> list[dict]:
    return [{key: _round15(record[key]) for key in keys} for record in records]


def condition_report_payload(report: ConditionReport) -> dict:
    """Plain-dict form of a condition report with floats rounded to 15 digits."""
    records = [_condition_row_record(row) for row in report.rows]
    return {
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
        "rows": _rounded_rows(CONDITION_ROW_KEYS, records),
        "offdiag_max": _round15(report.offdiag_max),
        "trace_re": _round15(report.trace_commutator.real),
        "trace_im": _round15(report.trace_commutator.imag),
        "edge_diag_im": _round15(report.edge_diag.imag),
    }


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")


def _serialize_rows(keys, records, fmt: str) -> bytes:
    """Encode flat row records as JSON ``{"rows": [...]}`` or as CSV with a header line."""
    if fmt == "json":
        return _json_bytes({"rows": _rounded_rows(keys, records)})
    if fmt == "csv":
        lines = [",".join(keys)]
        lines += [",".join(_csv_cell(record[key]) for key in keys) for record in records]
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def serialize_report(report: ConditionReport, fmt: str = "json") -> bytes:
    """Serialize a condition report to JSON or CSV bytes."""
    if fmt == "json":
        return _json_bytes(condition_report_payload(report))
    records = [_condition_row_record(row) for row in report.rows]
    return _serialize_rows(CONDITION_ROW_KEYS, records, fmt)


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
    records = []
    for result, orbit in levels:
        record = {
            "n": result.n,
            "energy": result.energy,
            "action": result.action,
            "period": orbit.period if orbit else math.nan,
            "omega": orbit.omega if orbit else math.nan,
            "x_minus": orbit.x_minus if orbit else math.nan,
            "x_plus": orbit.x_plus if orbit else math.nan,
        }
        for a in range(alpha_max + 1):
            record[f"fourier_{a}"] = orbit.fourier[a].real if orbit else math.nan
        records.append(record)
    return _serialize_rows(keys, records, fmt)


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


def serialize_correspondence(reports: list[CorrespondenceReport], fmt: str = "json") -> bytes:
    """Serialize correspondence reports as flat rows ordered by (n, alpha)."""
    records = []
    for report in reports:
        for row in report.rows:
            records.append({key: getattr(row, key) for key in CORRESPONDENCE_ROW_KEYS})
    return _serialize_rows(CORRESPONDENCE_ROW_KEYS, records, fmt)


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
