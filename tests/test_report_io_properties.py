"""Property tests of the serializers over generated row values.

JSON must be a serialize / parse / serialize byte fixed point, and every CSV
cell must be the value written with 15 significant digits.  The drawn floats
cover the places where ``.15g`` and ``repr`` choose exponents differently.
"""

import json
import math
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mmlab.classical import CorrespondenceReport, CorrespondenceRow, QuantizationResult
from mmlab.conditions import ConditionReport, ConditionRow
from mmlab.report_io import (
    CLASSICAL_ROW_KEYS_BASE,
    CONDITION_ROW_KEYS,
    CORRESPONDENCE_ROW_KEYS,
    serialize_classical,
    serialize_correspondence,
    serialize_report,
)

EDGE_FLOATS = (
    0.0, -0.0, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-5, 9.99999999999999e-6,
    1.00000000000001e-5, 1e-4, 1e15, 999999999999999.9, 1e16, 9999999999999998.0, -1e16,
)
values = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.floats(-1e-300, 1e-300),
    st.floats(5e-6, 5e-5),
    st.floats(-5e-5, -5e-6),
    st.floats(5e14, 5e16),
    st.floats(-5e16, -5e14),
)
indices = st.integers(0, 10**6)
complexes = st.builds(complex, values, values)


def _json_fixed_point(data: bytes) -> None:
    again = (json.dumps(json.loads(data), separators=(",", ":")) + "\n").encode("ascii")
    assert again == data


def _json_rows_match(data: bytes, keys, rows) -> None:
    def rounded(value):
        if isinstance(value, int):
            return value
        return None if math.isnan(value) else float(f"{value:.15g}")

    expected = [dict(zip(keys, map(rounded, row))) for row in rows]
    assert repr(json.loads(data)["rows"]) == repr(expected)  # repr keeps the sign of zero


def _csv_cells_match(data: bytes, keys, rows) -> None:
    lines = data.decode("ascii").split("\n")
    assert lines[0] == ",".join(keys)
    assert lines[-1] == ""
    assert [line.split(",") for line in lines[1:-1]] == [
        [f"{value:.15g}" for value in row] for row in rows
    ]


condition_rows = st.builds(
    ConditionRow, indices, values, values, values, values, values, complexes,
    values, values, values, values, values, complexes,
)


@st.composite
def condition_reports(draw):
    rows = tuple(draw(st.lists(condition_rows, max_size=4)))
    return ConditionReport(
        system_kind=draw(st.sampled_from(["oscillator", "potential"])),
        mass=draw(values), omega=draw(values), hbar=draw(values),
        size=draw(indices), window=(draw(indices), draw(indices)), alpha_max=draw(indices),
        rows=rows, offdiag_max=draw(values), trace_commutator=draw(complexes),
        edge_diag=draw(complexes),
    )


def _condition_values(row):
    return [getattr(row, key) for key in CONDITION_ROW_KEYS[:6]] + [
        row.commutator_diag.real, row.commutator_diag.imag,
        row.residual_eq4_hermitian, row.residual_eq4_constrained, row.residual_eq14,
        row.residual_eq25, row.residual_bj_alternative,
        row.residual_commutator.real, row.residual_commutator.imag,
    ]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(condition_reports())
def test_condition_report_round_trips(report):
    data = serialize_report(report, "json")
    _json_fixed_point(data)
    rows = [_condition_values(row) for row in report.rows]
    _json_rows_match(data, CONDITION_ROW_KEYS, rows)
    _csv_cells_match(serialize_report(report, "csv"), CONDITION_ROW_KEYS, rows)


@st.composite
def classical_levels(draw):
    """Levels as (QuantizationResult, orbit or None); the orbit stand-in holds the serialized fields."""
    alpha_max = draw(st.integers(0, 3))
    levels = []
    for n in range(draw(st.integers(0, 4))):
        result = QuantizationResult(n, draw(values), draw(values), 0.0, True, 1)
        orbit = None
        if draw(st.booleans()):
            orbit = SimpleNamespace(
                period=draw(values), omega=draw(values), x_minus=draw(values),
                x_plus=draw(values),
                fourier={a: complex(draw(values), 0.0) for a in range(alpha_max + 1)},
            )
        levels.append((result, orbit))
    return alpha_max, levels


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(classical_levels())
def test_classical_levels_round_trip(drawn):
    alpha_max, levels = drawn
    keys = CLASSICAL_ROW_KEYS_BASE + tuple(f"fourier_{a}" for a in range(alpha_max + 1))
    data = serialize_classical(levels, alpha_max, "json")
    _json_fixed_point(data)
    rows = []
    for result, orbit in levels:
        head = [result.n, result.energy, result.action]
        if orbit is None:
            rows.append(head + [math.nan] * (4 + alpha_max + 1))
        else:
            fourier = [orbit.fourier[a].real for a in range(alpha_max + 1)]
            rows.append(head + [orbit.period, orbit.omega, orbit.x_minus, orbit.x_plus] + fourier)
    _json_rows_match(data, keys, rows)
    _csv_cells_match(serialize_classical(levels, alpha_max, "csv"), keys, rows)


correspondence_rows = st.builds(
    CorrespondenceRow, indices, indices, values, values, values, values, values, values, values,
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(correspondence_rows, max_size=3), max_size=3))
def test_correspondence_round_trips(row_groups):
    reports = [CorrespondenceReport(n=0, energy_rule="mean", rows=tuple(g)) for g in row_groups]
    data = serialize_correspondence(reports, "json")
    _json_fixed_point(data)
    rows = [[getattr(row, key) for key in CORRESPONDENCE_ROW_KEYS] for g in row_groups for row in g]
    _json_rows_match(data, CORRESPONDENCE_ROW_KEYS, rows)
    _csv_cells_match(serialize_correspondence(reports, "csv"), CORRESPONDENCE_ROW_KEYS, rows)
