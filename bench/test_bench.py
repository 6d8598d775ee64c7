"""Self-tests of the benchmark at smoke size, a few seconds in all.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jobs import run_job  # noqa: E402
from mmlab import (  # noqa: E402
    PhysicalConstants,
    born_jordan_sum,
    build_oscillator,
    full_report,
    heisenberg_sum,
    modified_sum,
    transition_frequencies,
)
from mmlab.report_io import serialize_report  # noqa: E402
from tracing import Span  # noqa: E402


def _take(workload: str, seed: int, count: int = 24) -> list:
    return list(islice(workloads.jobs(workload, seed), count))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = _take(workload, 7)
    assert first == _take(workload, 7)
    assert first != _take(workload, 8)
    assert [j.label for j in first] == [j.label for j in _take(workload, 8)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_warmup_job_passes_its_checks(workload, tmp_path):
    job = workloads.warmup(workload)
    out = tmp_path / f"out.{job.fmt}"
    run_job(job, str(out))
    assert checks.check(job, out.read_bytes()) == []


OSC_JOB = workloads.Job(
    kind="oscillator", label="N=16", fmt="json", m=1.3, omega=0.8, hbar=1.7, size=16
)


def _oscillator_report():
    constants = PhysicalConstants(mass=OSC_JOB.m, hbar=OSC_JOB.hbar, omega=OSC_JOB.omega)
    system, pair = build_oscillator(constants, OSC_JOB.size)
    return system, pair, full_report(system, pair)


def test_checker_accepts_a_correct_report():
    _, _, report = _oscillator_report()
    for fmt in ("json", "csv"):
        job = dataclasses.replace(OSC_JOB, fmt=fmt)
        assert checks.check(job, serialize_report(report, fmt)) == []


def test_checker_rejects_one_bumped_eq25():
    _, _, report = _oscillator_report()
    payload = json.loads(serialize_report(report, "json"))
    payload["rows"][5]["eq25"] += 1e-6
    problems = checks.check(OSC_JOB, json.dumps(payload).encode())
    assert problems and all(p.startswith("n=5:") for p in problems)


def test_checker_rejects_a_report_built_from_non_hermitian_x():
    system, pair, report = _oscillator_report()
    x = pair.x.copy()
    x[2, 3] += 1e-3
    freq = transition_frequencies(system)
    m = OSC_JOB.m
    rows = tuple(
        dataclasses.replace(
            row,
            eq4_hermitian=heisenberg_sum(x, freq, m, row.n, 1),
            eq14=born_jordan_sum(x, freq, m, row.n, 1),
            eq25=modified_sum(x, freq, m, row.n, 1),
        )
        for row in report.rows
    )
    data = serialize_report(dataclasses.replace(report, rows=rows), "json")
    assert any("disagree" in p for p in checks.check(OSC_JOB, data))


def test_checker_rejects_an_energy_off_the_action_rule(tmp_path):
    job = dataclasses.replace(workloads.warmup("classical-orbits"), fmt="json")
    out = tmp_path / "out.json"
    run_job(job, str(out))
    payload = json.loads(out.read_bytes())
    payload["rows"][3]["energy"] *= 1.0 + 1e-6
    problems = checks.check(job, json.dumps(payload).encode())
    assert problems and all(p.startswith("n=3:") for p in problems)


def test_self_time_subtracts_the_covered_part_of_direct_children():
    spans = [
        Span("job", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union counts once
        Span("c", 2.0, 3.5, 1, 0),  # grandchild: only a loses it
        Span("d", 8.0, 12.0, 0, 0),  # ends after its parent: clipped to 10
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 3.0, 1.5, 4.0])
    totals = tracing.summarize(spans)
    assert (totals["a"].s, totals["a"].self_s, totals["a"].calls) == pytest.approx((3.0, 1.5, 1))


def test_layer_metrics_are_per_traced_job():
    spans = [
        Span("job", 0.0, 4.0, -1, 0),
        Span("classical.quantize", 0.0, 3.0, 0, 0, {"iterations": 30, "converged": 1}),
        Span("classical.action_direct", 0.5, 1.5, 1, 0),
        Span("job", 5.0, 7.0, -1, 1),
        Span("classical.quantize", 5.0, 6.0, 3, 1, {"iterations": 10, "converged": 0}),
        Span("report_io.write_atomic", 6.0, 6.5, 3, 1, {"bytes": 100}),
    ]
    values = tracing.layer_metrics(spans, traced_s=[4.0, 2.0], untraced_s=[2.0, 4.0])
    assert values["classical.quantize.s"] == pytest.approx(2.0)
    assert values["classical.quantize.calls"] == pytest.approx(1.0)
    assert values["classical.quantize.iterations"] == pytest.approx(20.0)
    assert values["classical.quantize.converged_frac"] == pytest.approx(0.5)
    assert values["classical.action_direct.calls"] == pytest.approx(0.5)
    assert values["report_io.bytes"] == pytest.approx(50.0)
    assert values["jacobi.jacobi_eigh.s"] == 0.0
    assert values["trace.overhead_frac"] == pytest.approx(0.0)
    assert set(values) == {name for name, _ in tracing.PER_LAYER}


def test_tracing_restores_the_lookup_sites():
    import mmlab.spectral
    from jobs import LOOKUP_SITES

    before = mmlab.spectral.jacobi_eigh
    tracer = tracing.Tracer()
    with tracing.installed(tracer, LOOKUP_SITES):
        assert mmlab.spectral.jacobi_eigh is not before
        mmlab.spectral.jacobi_eigh([[2.0, 0.0], [0.0, 1.0]])
    assert mmlab.spectral.jacobi_eigh is before
    assert [s.name for s in tracer.spans] == ["jacobi.jacobi_eigh"]


@pytest.mark.parametrize(
    "n, expected",
    [(5, (100, 5)), (11, (9, 1)), (40, (75, 30)), (57, (82, 47))],
)
def test_tail_percentile_leaves_ten_jobs_beyond(n, expected):
    latencies = [float(i) for i in range(n, 0, -1)]
    percentile, rank, value = run.tail_percentile(latencies)
    assert (percentile, rank) == expected
    assert value == float(rank)
    assert n <= 10 or sum(x > value for x in latencies) >= 10


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
