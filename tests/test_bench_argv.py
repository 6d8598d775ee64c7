"""The benchmark's command lines stay valid for the CLI.

``bench/run.py`` exits before printing any result when its warm-up job exits
nonzero, so a narrowed parser that drops an option a benchmark job passes
would fail the whole benchmark.  ``bench/workloads.py`` is loaded from its
file, unchanged.
"""

import importlib.util
import sys
from itertools import islice
from pathlib import Path

import pytest

from mmlab import cli


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_cli_jobs_parse_and_validate(workload, seed):
    cli_jobs = (job for job in workloads.jobs(workload, seed) if job.kind != "correspondence")
    parser = cli.build_parser()
    for job in islice(cli_jobs, 30):
        config = cli.config_from_args(parser.parse_args(job.argv("artifact.out")))
        config.validate()
        assert (config.mode, config.size, config.format) == (job.kind, job.size, job.fmt)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_warmup_job_exits_zero(tmp_path, workload):
    job = workloads.warmup(workload)
    assert job.kind != "correspondence"
    assert cli.main(job.argv(str(tmp_path / "warmup.out"))) == 0
