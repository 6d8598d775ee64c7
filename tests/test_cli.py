import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import mmlab as M
from mmlab import cli
from mmlab.conditions import ConditionReport
from mmlab.errors import NumericalError
from mmlab.report_io import CONDITION_ROW_KEYS, serialize_report


def run_cli(argv):
    return cli.main(argv)


class TestExitCodes:
    def test_oscillator_success(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["oscillator", "--m", "1", "--omega", "1", "--hbar", "1",
                        "--size", "64", "--alpha-max", "4", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["window"] == [0, 59]
        assert all(abs(row["residual_eq25"]) <= 1e-10 for row in payload["rows"])

    def test_negative_size_rejected(self, tmp_path):
        code = run_cli(["potential", "--coeffs", "0,0,0.5,0,0.05", "--size", "-3"])
        assert code == 2

    def test_unknown_flag_rejected(self):
        assert run_cli(["oscillator", "--bogus", "1"]) == 2

    def test_missing_mode_rejected(self):
        assert run_cli([]) == 2

    def test_non_confining_potential_rejected(self):
        assert run_cli(["potential", "--coeffs", "0,1", "--size", "4"]) == 2

    def test_overflowing_frequencies_print_only_the_error(self):
        # a fresh interpreter: pytest records numpy's warnings instead of printing them
        argv = ["oscillator", "--omega", "1e308", "--hbar", "0.5", "--size", "3"]
        result = subprocess.run(
            [sys.executable, "-m", "mmlab", *argv], capture_output=True, text=True
        )
        assert result.returncode == 2
        assert result.stderr == "error: transition frequencies must be finite\n"
        assert result.stdout == ""

    def test_start_up_imports_neither_scipy_nor_numba(self):
        # importing scipy.linalg alone takes about 0.28 s, more than a whole CLI start
        code = "import mmlab.cli, sys; print(sorted({'scipy', 'numba'} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_write_failure_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code = run_cli(["oscillator", "--size", "8", "--out", str(out)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_numerical_failure_maps_to_three(self, monkeypatch, tmp_path):
        def boom(config):
            raise NumericalError("synthetic non-convergence")

        monkeypatch.setitem(cli._PIPELINES, "oscillator", boom)
        assert run_cli(["oscillator", "--size", "8"]) == 3

    def test_unconverged_quantization_maps_to_three(self, monkeypatch, tmp_path, capsys):
        real_quantize = cli.quantize

        def stalled(potential, mass, hbar, offset, n):
            result = real_quantize(potential, mass, hbar, offset, n)
            if n < 2:
                return result
            return dataclasses.replace(result, action=result.action + 0.5, converged=False)

        monkeypatch.setattr(cli, "quantize", stalled)
        out = tmp_path / "c.json"
        code = run_cli(["classical", "--coeffs", "0,0,0.5", "--size", "3", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "level n = 2 did not converge" in err
        assert "|J - target| = 5.000e-01" in err
        assert not out.exists()


class TestReportSchema:
    def test_csv_window_row_count(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(["oscillator", "--size", "8", "--alpha-max", "1",
                        "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == ",".join(CONDITION_ROW_KEYS)
        # window rule: n <= N - 1 - alpha_max = 6, so 7 data rows
        assert len([l for l in lines[1:] if l]) == 7
        assert out.read_text().endswith("\n")

    def test_json_top_level_schema(self, osc8):
        system, pair = osc8
        report = M.full_report(system, pair)
        payload = json.loads(serialize_report(report, "json"))
        assert set(payload) == {
            "system", "window", "rows", "offdiag_max", "trace_re", "trace_im",
            "edge_diag_im",
        }
        assert payload["system"]["kind"] == "oscillator"
        assert payload["system"]["size"] == 8
        assert payload["window"] == [0, 6]
        assert set(payload["rows"][0]) == set(CONDITION_ROW_KEYS)

    def test_json_round_trip_is_stable(self, osc8):
        system, pair = osc8
        report = M.full_report(system, pair)
        first = serialize_report(report, "json")
        reparsed = json.loads(first)
        second = (json.dumps(reparsed, separators=(",", ":")) + "\n").encode()
        assert first == second

    def test_empty_report_gives_header_only_csv(self):
        report = ConditionReport(
            system_kind="custom", mass=1.0, omega=1.0, hbar=1.0, size=2,
            window=(0, 0), alpha_max=1, rows=(), offdiag_max=0.0,
            trace_commutator=0j, edge_diag=0j,
        )
        data = serialize_report(report, "csv")
        assert data == (",".join(CONDITION_ROW_KEYS) + "\n").encode()

    def test_quartic_rewrite_serializes_as_null_and_nan(self, quartic40, tmp_path):
        system, pair = quartic40
        report = M.full_report(system, pair, alpha_max=9)
        payload = json.loads(serialize_report(report, "json"))
        assert payload["rows"][0]["bj_alternative"] is None
        csv_text = serialize_report(report, "csv").decode()
        assert ",nan," in csv_text.split("\n")[1]

    def test_fifteen_digit_cells(self, osc8):
        system, pair = osc8
        report = M.full_report(system, pair)
        line = serialize_report(report, "csv").decode().split("\n")[2]
        cells = line.split(",")
        assert cells[0] == "1"
        value = float(cells[5])  # bj_alternative at n = 1
        assert value == pytest.approx(math.sqrt(6.0) / 2.0, abs=1e-12)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["oscillator", "--size", "12", "--alpha-max", "1"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# oscillator run\nsize = 8\nomega = 2.0\nformat = csv\n")
        out = tmp_path / "r.csv"
        code = run_cli(["oscillator", "--config", str(cfg), "--size", "6",
                        "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().split("\n") if l]
        assert len(lines) - 1 == 5  # flag size=6 overrides file size=8

    def test_unreadable_config(self, tmp_path):
        assert run_cli(["oscillator", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sizes = 8\n")
        assert run_cli(["oscillator", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("size = 1.5", "invalid literal for int()"),
            ("coeffs = abc", "cannot parse coefficient list 'abc'"),
            ("hbar = one", "could not convert string to float"),
        ],
    )
    def test_conversion_error_names_its_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# header\nm = 2.0\n{line}\n")
        assert run_cli(["potential", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: ")
        assert message in err

    def test_coeffs_from_file(self, tmp_path):
        cfg = tmp_path / "pot.cfg"
        cfg.write_text("coeffs = 0,0,0.5\nsize = 6\nbasis_size = 32\n")
        out = tmp_path / "r.json"
        assert run_cli(["potential", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["system"]["kind"] == "potential"


class TestOtherModes:
    def test_classical_mode(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(["classical", "--coeffs", "0,0,0.5", "--size", "3",
                        "--alpha-max", "2", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().split("\n") if l]
        assert len(lines) == 4
        # level 1 of the oscillator sits at E = 1 under the bare action rule
        row = lines[2].split(",")
        assert float(row[1]) == pytest.approx(1.0, abs=1e-8)

    def test_classical_bottom_level_is_nan_row(self, tmp_path):
        out = tmp_path / "c.json"
        code = run_cli(["classical", "--coeffs", "0,0,0.5", "--size", "2",
                        "--alpha-max", "1", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows[0]["period"] is None  # NaN serialized as null
        assert rows[1]["period"] == pytest.approx(2 * math.pi, abs=1e-9)

    def test_correspondence_mode(self, tmp_path):
        out = tmp_path / "corr.json"
        code = run_cli(["correspondence", "--coeffs", "0,0,0.5", "--size", "8",
                        "--basis-size", "32", "--alpha-max", "1", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows  # one row per feasible (n, alpha)
        assert all(row["amp_rel_dev"] <= 1e-6 for row in rows)

    def test_stdout_output(self, capsys):
        assert run_cli(["oscillator", "--size", "4", "--format", "csv"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("n,eq4_hermitian")


class TestRunConfigValidation:
    def test_direct_run_with_invalid_rule(self):
        options = {"coeffs": (0, 0, 0.5), "energy_rule": "median"}
        assert cli.run("correspondence", options) == 2

    def test_missing_coeffs(self):
        assert cli.run("classical", {}) == 2

    @pytest.mark.parametrize("option", ["m", "omega", "hbar", "j0"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_number_is_invalid_argument(self, capsys, option, value):
        mode = ["oscillator"] if option == "omega" else ["classical", "--coeffs", "0,0,0.5"]
        code = run_cli([*mode, "--size", "3", f"--{option}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} must be finite")


def test_one_parser_serves_every_call_in_either_order(tmp_path, monkeypatch):
    build = cli.build_parser
    builds = []

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    calls = {
        "classical": ["classical", "--coeffs", "0,0,0.5,0,0.05", "--size", "3", "--j0", "1"],
        "oscillator": ["oscillator", "--size", "6", "--omega", "2", "--format", "csv"],
    }
    written = []
    for order in (["classical", "oscillator"], ["oscillator", "classical"]):
        cli._parser.cache_clear()
        builds.clear()
        outputs = {}
        for mode in order:
            outputs[mode] = tmp_path / f"{mode}-{len(written)}.out"
            assert cli.main(calls[mode] + ["--out", str(outputs[mode])]) == 0
        assert len(builds) == 1
        written.append({mode: path.read_bytes() for mode, path in outputs.items()})
    cli._parser.cache_clear()
    assert written[0] == written[1]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_perturb_is_invalid_argument(capsys, value):
    assert run_cli(["verify", f"--perturb={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: perturb must be finite, got {float(value)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("coeffs, mass", [("0,0,2", "1"), ("0,0,4.5", "2")])
def test_potential_rewrite_reads_the_spectrum_not_omega(capsys, coeffs, mass):
    # a harmonic potential is the oscillator of frequency sqrt(2 c_2 / m)
    code = run_cli(["potential", "--coeffs", coeffs, "--m", mass, "--size", "8"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = report["rows"]
    assert abs(rows[0]["bj_alternative"] - 1.0 / math.sqrt(2.0)) <= 1e-8
    assert abs(rows[1]["bj_alternative"] - math.sqrt(6.0) / 2.0) <= 1e-8
    # the recorded omega is the spectral w(1, 0) as well
    spectral_omega = math.sqrt(2.0 * float(coeffs.split(",")[2]) / float(mass))
    assert abs(report["system"]["constants"]["omega"] - spectral_omega) <= 1e-8


QUARTIC = "0,0,0.5,0,0.05"
MODE_ARGV = {
    "oscillator": ["oscillator", "--size", "6"],
    "potential": ["potential", "--coeffs", QUARTIC, "--size", "6"],
    "classical": ["classical", "--coeffs", QUARTIC, "--size", "2"],
    "correspondence": ["correspondence", "--coeffs", QUARTIC, "--size", "8", "--alpha-max", "1"],
}
#: Two valid values of every pipeline option other than out, format and config.
OPTION_VALUES = {
    "m": ("1", "1.5"),
    "omega": ("1", "2"),
    "hbar": ("1", "0.8"),
    "size": ("3", "4"),
    "basis_size": ("24", "30"),
    "coeffs": (QUARTIC, "0,0,0.5,0,0.1"),
    "alpha_max": ("1", "2"),
    "j0": ("0", "3.14"),
    "energy_rule": ("mean", "state"),
}
#: Options that a mode's pipeline would not read; the parser rejects them.
DEAD_OPTIONS = [
    ("oscillator", "basis_size"), ("oscillator", "coeffs"), ("oscillator", "j0"),
    ("oscillator", "energy_rule"), ("potential", "omega"), ("potential", "j0"),
    ("potential", "energy_rule"), ("classical", "omega"), ("classical", "basis_size"),
    ("classical", "energy_rule"), ("correspondence", "omega"), ("correspondence", "j0"),
]


def _flag(key):
    return "--" + key.replace("_", "-")


def _parser_accepts(mode, key):
    _, unknown = cli.build_parser().parse_known_args([mode, _flag(key), OPTION_VALUES[key][0]])
    return not unknown


ACCEPTED_OPTIONS = [
    (mode, key) for mode in MODE_ARGV for key in OPTION_VALUES if _parser_accepts(mode, key)
]


@pytest.mark.parametrize("mode, key", ACCEPTED_OPTIONS)
def test_every_accepted_option_changes_the_artifact(capsys, mode, key):
    artifacts = []
    for value in OPTION_VALUES[key]:
        assert run_cli([*MODE_ARGV[mode], _flag(key), value]) == 0
        artifacts.append(capsys.readouterr().out)
    assert artifacts[0] != artifacts[1]


def test_options_split_into_accepted_and_dead():
    every = {(mode, key) for mode in MODE_ARGV for key in OPTION_VALUES}
    assert set(ACCEPTED_OPTIONS) == every - set(DEAD_OPTIONS)


@pytest.mark.parametrize("mode, key", DEAD_OPTIONS)
def test_dead_option_is_rejected(tmp_path, capsys, mode, key):
    value = OPTION_VALUES[key][1]
    assert run_cli([*MODE_ARGV[mode], _flag(key), value]) == 2
    assert f"unrecognized arguments: {_flag(key)}" in capsys.readouterr().err
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(f"# header\n{key} = {value}\n")
    assert run_cli([*MODE_ARGV[mode], "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:2: unknown option {key!r} for mode {mode!r}\n"


#: A valid value of every run option, as command-line text.
OPTION_TEXT = {
    "perturb": "1e-3", "m": "1.5", "omega": "2", "hbar": "0.8", "size": "4", "basis_size": "24",
    "coeffs": "0,0,0.5", "alpha_max": "2", "j0": "1", "energy_rule": "state", "format": "csv",
    "out": "artifact.out",
}
EVERY_PAIR = [(mode, key) for mode in cli.MODES for key in OPTION_TEXT]
PARSER_PAIRS = {
    (mode, key) for mode, key in EVERY_PAIR
    if not cli.build_parser().parse_known_args([mode, _flag(key), OPTION_TEXT[key]])[1]
}


def _library_value(key):
    return cli.OPTIONS[key].convert(OPTION_TEXT[key])


def _library_accepts(mode, key):
    try:
        cli.resolve(mode, {key: _library_value(key)})
    except ValueError as exc:  # a missing --coeffs still means the key was accepted
        return "unknown option" not in str(exc)
    return True


def test_library_and_parser_accept_the_same_33_pairs():
    assert set(OPTION_TEXT) == set(cli.OPTIONS)
    assert {pair for pair in EVERY_PAIR if _library_accepts(*pair)} == PARSER_PAIRS
    assert len(PARSER_PAIRS) == 33


@pytest.mark.parametrize("mode, key", [pair for pair in EVERY_PAIR if pair not in PARSER_PAIRS])
def test_library_rejects_a_dead_pair(capsys, mode, key):
    assert cli.run(mode, {key: _library_value(key)}) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown option {key!r} for mode {mode!r}\n"
    assert captured.out == ""


def test_library_rejects_an_unknown_mode(capsys):
    assert cli.run("bogus", {}) == 2
    assert capsys.readouterr().err == "error: unknown mode 'bogus'\n"


@pytest.mark.parametrize(
    "options, message",
    [
        ({"size": "8"}, "size must be at least 1, got '8'"),
        ({"size": 2.5}, "size must be at least 1, got 2.5"),
        ({"size": True}, "size must be at least 1, got True"),
        ({"m": "1"}, "m must be finite and positive, got '1'"),
    ],
)
def test_library_rejects_a_value_of_the_wrong_type(capsys, options, message):
    assert cli.run("oscillator", options) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_library_numbers_run_as_their_flags_do(capsys):
    assert cli.run("oscillator", {"m": 1, "hbar": np.float64(0.5), "size": np.int64(4)}) == 0
    from_library = capsys.readouterr().out
    assert run_cli(["oscillator", "--m", "1", "--hbar", "0.5", "--size", "4"]) == 0
    assert capsys.readouterr().out == from_library
