"""The benchmark's command lines stay valid for the CLI, and its jobs pass their checks.

``bench/run.py`` exits before printing any result when its warm-up job exits
nonzero, so a narrowed parser that drops an option a benchmark job passes
would fail the whole benchmark; it exits 1 when any job raises or writes an
artifact that fails ``bench/checks.py``.  ``bench/workloads.py``,
``bench/jobs.py`` and ``bench/checks.py`` are loaded from their files, unchanged.
"""

import importlib.util
import sys
from itertools import islice
from pathlib import Path

import pytest

from mmlab import cli


def _load(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
bench_jobs = _load("jobs")
checks = _load("checks")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_cli_jobs_parse_and_validate(workload, seed):
    cli_jobs = (job for job in workloads.jobs(workload, seed) if job.kind != "correspondence")
    for job in islice(cli_jobs, 30):
        mode, options = cli.parse_argv(job.argv("artifact.out"))
        values = cli.resolve(mode, options)
        assert (mode, values["size"], values["format"]) == (job.kind, job.size, job.fmt)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_warmup_job_exits_zero(tmp_path, workload):
    job = workloads.warmup(workload)
    assert job.kind != "correspondence"
    assert cli.main(job.argv(str(tmp_path / "warmup.out"))) == 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_first_classical_orbit_jobs_pass_their_checks(tmp_path, seed):
    # 24 jobs cover every family x K x j0 of the classical jobs and both alpha-max
    # values of the correspondence jobs
    for job in islice(workloads.jobs("classical-orbits", seed), 24):
        out = tmp_path / f"job.{job.fmt}"
        bench_jobs.run_job(job, str(out))
        assert checks.check(job, out.read_bytes()) == [], job.label
