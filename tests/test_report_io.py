"""Serializer output against a reference copy of the per-type encoders."""

import dataclasses
import json
import math

import pytest

import mmlab as M
from mmlab import conditions
from mmlab.classical import CorrespondenceReport, CorrespondenceRow
from mmlab.conditions import ConditionReport, ConditionRow, ConditionRows
from mmlab.report_io import (
    CLASSICAL_ROW_KEYS_BASE,
    CONDITION_ROW_KEYS,
    CORRESPONDENCE_ROW_KEYS,
    serialize_classical,
    serialize_correspondence,
    serialize_report,
)

# Reference copy of report_io as it was before every report went through one
# row encoder: a record dict per row, a second rounded dict per row for JSON,
# and a separate JSON path for the condition payload.  Only the names differ.
# The shipped serializers must reproduce its bytes exactly.


def _ref_round15(value: float):
    if isinstance(value, int):
        return value
    if math.isnan(value):
        return None
    return float(f"{value:.15g}")


def _ref_csv_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{value:.15g}"


def _ref_condition_row_record(row) -> dict:
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


def _ref_rounded_rows(keys, records) -> list[dict]:
    return [{key: _ref_round15(record[key]) for key in keys} for record in records]


def _ref_condition_report_payload(report) -> dict:
    records = [_ref_condition_row_record(row) for row in report.rows]
    return {
        "system": {
            "kind": report.system_kind,
            "constants": {
                "m": _ref_round15(report.mass),
                "omega": _ref_round15(report.omega),
                "hbar": _ref_round15(report.hbar),
            },
            "size": report.size,
        },
        "window": [report.window[0], report.window[1]],
        "rows": _ref_rounded_rows(CONDITION_ROW_KEYS, records),
        "offdiag_max": _ref_round15(report.offdiag_max),
        "trace_re": _ref_round15(report.trace_commutator.real),
        "trace_im": _ref_round15(report.trace_commutator.imag),
        "edge_diag_im": _ref_round15(report.edge_diag.imag),
    }


def _ref_json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")


def _ref_serialize_rows(keys, records, fmt: str) -> bytes:
    if fmt == "json":
        return _ref_json_bytes({"rows": _ref_rounded_rows(keys, records)})
    if fmt == "csv":
        lines = [",".join(keys)]
        lines += [",".join(_ref_csv_cell(record[key]) for key in keys) for record in records]
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def _ref_serialize_report(report, fmt: str = "json") -> bytes:
    if fmt == "json":
        return _ref_json_bytes(_ref_condition_report_payload(report))
    records = [_ref_condition_row_record(row) for row in report.rows]
    return _ref_serialize_rows(CONDITION_ROW_KEYS, records, fmt)


def _ref_serialize_classical(levels, alpha_max: int, fmt: str = "json") -> bytes:
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
    return _ref_serialize_rows(keys, records, fmt)


def _ref_serialize_correspondence(reports, fmt: str = "json") -> bytes:
    records = []
    for report in reports:
        for row in report.rows:
            records.append({key: getattr(row, key) for key in CORRESPONDENCE_ROW_KEYS})
    return _ref_serialize_rows(CORRESPONDENCE_ROW_KEYS, records, fmt)


QUARTIC = M.PolynomialPotential((0.0, 0.0, 0.5, 0.0, 0.05))
POTENTIALS = {
    "sho": M.PolynomialPotential((0.0, 0.0, 0.5)),
    "quartic": QUARTIC,
    "sextic": M.PolynomialPotential((0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.01)),
}
FORMATS = ("json", "csv")


def _classical_levels(potential, size, offset, alpha_max):
    """Quantized levels with orbits, built the way the classical CLI mode builds them."""
    _, v_min = potential.minimum()
    levels = []
    for n in range(size):
        result = M.quantize(potential, 1.0, 1.0, offset, n)
        orbit = None
        if result.energy > v_min:
            orbit = M.orbit_fourier(potential, result.energy, 1.0, alpha_max)
        levels.append((result, orbit))
    return levels


class TestBytesMatchReference:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("size, alpha_max", [(2, 1), (8, None), (8, 4), (64, 2), (130, None)])
    @pytest.mark.parametrize("mass, omega, hbar", [(1.0, 1.0, 1.0), (0.7, 1.3, 0.9)])
    def test_oscillator_condition_report(self, fmt, size, alpha_max, mass, omega, hbar):
        constants = M.PhysicalConstants(mass=mass, hbar=hbar, omega=omega)
        report = M.full_report(*M.build_oscillator(constants, size), alpha_max)
        assert serialize_report(report, fmt) == _ref_serialize_report(report, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_quartic_condition_report_with_nan_rewrite(self, quartic40, fmt):
        report = M.full_report(*quartic40, alpha_max=9)
        assert all(math.isnan(row.bj_alternative) for row in report.rows)
        assert serialize_report(report, fmt) == _ref_serialize_report(report, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    @pytest.mark.parametrize("offset", [0.0, math.pi])
    def test_classical_levels(self, fmt, name, offset):
        levels = _classical_levels(POTENTIALS[name], 4, offset, alpha_max=3)
        data = serialize_classical(levels, 3, fmt)
        assert data == _ref_serialize_classical(levels, 3, fmt)
        if offset == 0.0:  # the bottom-of-well level has no orbit
            assert levels[0][1] is None
            assert json.loads(serialize_classical(levels, 3, "json"))["rows"][0]["period"] is None

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("rule", ["state", "mean"])
    def test_quartic_correspondence(self, quartic40, fmt, rule):
        system, pair = quartic40
        reports = [M.correspondence_report(pair, system, QUARTIC, n, 2, rule) for n in (2, 9, 20)]
        data = serialize_correspondence(reports, fmt)
        assert data == _ref_serialize_correspondence(reports, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("alpha_max", [2, 4])
    def test_oscillator_correspondence(self, constants, fmt, alpha_max):
        system, pair = M.build_oscillator(constants, 32)
        reports = [
            M.correspondence_report(pair, system, POTENTIALS["sho"], n, alpha_max, "mean")
            for n in range(alpha_max, 32 - alpha_max)
        ]
        data = serialize_correspondence(reports, fmt)
        assert data == _ref_serialize_correspondence(reports, fmt)

    def test_empty_inputs(self):
        report = ConditionReport(
            system_kind="custom", mass=1.0, omega=1.0, hbar=1.0, size=2,
            window=(0, 0), alpha_max=1, rows=(), offdiag_max=0.0,
            trace_commutator=0j, edge_diag=0j,
        )
        for fmt in FORMATS:
            assert serialize_report(report, fmt) == _ref_serialize_report(report, fmt)
            assert serialize_classical([], 2, fmt) == _ref_serialize_classical([], 2, fmt)
            assert serialize_correspondence([], fmt) == _ref_serialize_correspondence([], fmt)

    def test_unknown_format_rejected_alike(self, osc8):
        report = M.full_report(*osc8)
        for new, ref in (
            (lambda: serialize_report(report, "xml"), lambda: _ref_serialize_report(report, "xml")),
            (lambda: serialize_classical([], 1, "xml"), lambda: _ref_serialize_classical([], 1, "xml")),
            (lambda: serialize_correspondence([], "xml"), lambda: _ref_serialize_correspondence([], "xml")),
        ):
            with pytest.raises(ValueError) as new_exc:
                new()
            with pytest.raises(ValueError) as ref_exc:
                ref()
            assert str(new_exc.value) == str(ref_exc.value)


# (value, JSON token, CSV cell): the places where the 15-digit text and the JSON
# repr of the rounded value part ways.
EDGE_TOKENS = [
    (5e-324, "5e-324", "4.94065645841247e-324"),  # subnormal: digits change
    (-5e-324, "-5e-324", "-4.94065645841247e-324"),
    (2.2250738585072009e-308, "2.2250738585072e-308", "2.2250738585072e-308"),
    (2.2250738585072014e-308, "2.2250738585072e-308", "2.2250738585072e-308"),
    (3.142e-320, "3.142e-320", "3.14176344190449e-320"),
    (0.0, "0.0", "0"),
    (-0.0, "-0.0", "-0"),
    (1e15, "1000000000000000.0", "1e+15"),
    (999999999999999.9, "1000000000000000.0", "1e+15"),
    (-5432109876543210.0, "-5432109876543210.0", "-5.43210987654321e+15"),
    (1e16, "1e+16", "1e+16"),
    (2.0, "2.0", "2"),
    (-3.0, "-3.0", "-3"),
    (1e14, "100000000000000.0", "100000000000000"),
    (99999999999999.99, "100000000000000.0", "100000000000000"),
    (1e-5, "1e-05", "1e-05"),
    (math.nan, "null", "nan"),
    (math.inf, "Infinity", "inf"),
    (-math.inf, "-Infinity", "-inf"),
    (1.7976931348623151e308, "Infinity", "1.79769313486232e+308"),  # rounds past the max
    (-1.7976931348623151e308, "-Infinity", "-1.79769313486232e+308"),
    (1.2e308, "1.2e+308", "1.2e+308"),
]


def _with_columns(report, **changes):
    """``report`` whose rows are a fresh column view with ``changes`` applied column-wise."""
    columns = {f.name: getattr(report.rows, f.name) for f in dataclasses.fields(ConditionRow)}
    for name, (index, value) in changes.items():
        column = columns[name].copy()
        column[index] = value
        columns[name] = column
    return dataclasses.replace(report, rows=ConditionRows(**columns))


@pytest.fixture(scope="module")
def osc_report():
    constants = M.PhysicalConstants(mass=1.3, hbar=0.7, omega=1.7)
    return M.full_report(*M.build_oscillator(constants, 8))


class TestEdgeTokens:
    @pytest.mark.parametrize("value, json_token, csv_cell", EDGE_TOKENS)
    def test_in_rows_and_payload(self, osc_report, value, json_token, csv_cell):
        rows = list(osc_report.rows)
        rows[2] = dataclasses.replace(rows[2], eq14=value)
        rows[3] = dataclasses.replace(rows[3], residual_commutator=complex(1.0, value))
        from_rows = dataclasses.replace(
            osc_report, rows=tuple(rows), mass=value, offdiag_max=value,
            edge_diag=complex(0.0, value),
        )
        from_columns = dataclasses.replace(
            _with_columns(osc_report, eq14=(2, value), residual_commutator=(3, complex(1.0, value))),
            mass=value, offdiag_max=value, edge_diag=complex(0.0, value),
        )
        for report in (from_rows, from_columns):
            for fmt in FORMATS:
                assert serialize_report(report, fmt) == _ref_serialize_report(report, fmt)
            text = serialize_report(report, "json").decode()
            assert f'"m":{json_token},' in text
            assert f'"edge_diag_im":{json_token}}}' in text
            assert f'"eq14":{json_token},' in text.split("},{")[2]
            lines = serialize_report(report, "csv").decode().split("\n")
            assert lines[3].split(",")[3] == csv_cell
            assert lines[4].split(",")[-1] == csv_cell

    @pytest.mark.parametrize("value, json_token, csv_cell", EDGE_TOKENS)
    def test_in_correspondence_rows(self, value, json_token, csv_cell):
        rows = (CorrespondenceRow(3, 1, value, 0.5, value, -0.0, 1.0, value, 2.0),)
        reports = [CorrespondenceReport(n=3, energy_rule="mean", rows=rows)]
        for fmt in FORMATS:
            data = serialize_correspondence(reports, fmt)
            assert data == _ref_serialize_correspondence(reports, fmt)
        assert f'"energy":{json_token},' in serialize_correspondence(reports, "json").decode()

    def test_subnormal_among_ordinary_values(self, osc_report):
        """One subnormal sends only its own token down the parse-and-repr route."""
        report = _with_columns(osc_report, eq4_constrained=(4, 5e-324), residual_eq14=(1, -1e-320))
        for fmt in FORMATS:
            assert serialize_report(report, fmt) == _ref_serialize_report(report, fmt)
        text = serialize_report(report, "json").decode()
        assert '"eq4_constrained":5e-324,' in text and '"residual_eq14":-1e-320,' in text


class TestRowsView:
    @staticmethod
    def _reference_rows(system, pair, report):
        """The rows as built one ConditionRow per state from the public per-state functions."""
        freq = M.transition_frequencies(system)
        mass, omega, hbar = system.constants.mass, report.omega, system.constants.hbar
        amax = report.alpha_max
        table = M.to_amplitude_table(pair.x, (0, system.size - 1), amax)
        constrained = M.impose_heisenberg_reality(table)
        rows = []
        for n in range(report.window[1] + 1):
            try:
                bj = M.nearest_neighbor_rewrite(pair.x, mass, omega, n)
            except ValueError:
                bj = math.nan
            eq4_h = M.heisenberg_sum(pair.x, freq, mass, n, amax)
            eq4_c = M.heisenberg_sum(constrained, freq, mass, n, amax)
            eq14 = M.born_jordan_sum(pair.x, freq, mass, n, amax)
            eq25 = M.modified_sum(pair.x, freq, mass, n, amax)
            diag = M.commutator_diagonal_sum(pair.x, pair.p, n, None)
            rows.append(ConditionRow(
                n, eq4_h, eq4_c, eq14, eq25, bj, diag, eq4_h - hbar, eq4_c - hbar,
                eq14 - hbar, eq25 - hbar, bj - hbar, diag - 1j * hbar,
            ))
        return rows

    @pytest.mark.parametrize("case", ["oscillator", "quartic"])
    def test_rows_match_a_row_tuple(self, case, quartic40):
        if case == "oscillator":
            constants = M.PhysicalConstants(mass=0.7, hbar=1.3, omega=1.9)
            system, pair = M.build_oscillator(constants, 130)
            report = M.full_report(system, pair)
        else:
            system, pair = quartic40
            report = M.full_report(system, pair, alpha_max=9)
        assert isinstance(report.rows, ConditionRows)
        expected = self._reference_rows(system, pair, report)
        assert len(report.rows) == len(expected)
        for i, row in enumerate(expected):
            assert repr(report.rows[i]) == repr(row)  # repr keeps -0.0 and every digit
            assert [type(v) for v in dataclasses.astuple(report.rows[i])] == [
                type(v) for v in dataclasses.astuple(row)
            ]
        assert repr(list(report.rows)) == repr(expected)
        assert repr(report.rows[-3:]) == repr(tuple(expected[-3:]))
        as_tuple = dataclasses.replace(report, rows=tuple(report.rows))
        for fmt in FORMATS:
            assert serialize_report(as_tuple, fmt) == serialize_report(report, fmt)

    def test_rows_are_built_only_when_read(self, osc64, monkeypatch):
        built = []

        def counting(*args):
            built.append(args[0])
            return ConditionRow(*args)

        monkeypatch.setattr(conditions, "ConditionRow", counting)
        report = M.full_report(*osc64)
        for fmt in FORMATS:
            serialize_report(report, fmt)
        assert built == []
        assert report.rows[5].n == 5 and built == [5]

    def test_view_equals_its_rows_and_is_read_only(self, osc8):
        report = M.full_report(*osc8)
        assert report.rows == tuple(report.rows)
        assert report == dataclasses.replace(report, rows=tuple(report.rows))
        assert hash(report.rows) == hash(tuple(report.rows))
        with pytest.raises(ValueError):
            report.rows.eq14[0] = 0.0
