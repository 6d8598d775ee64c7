"""Benchmark of mmlab's three user-level pipelines.

    python3 bench/run.py --workload osc-conditions --seed 1 --seconds 38 --trace 0

Run it once per workload for the full picture, with ``--trace 1`` for the
per-layer split; ``python3 -m pytest -q bench/test_bench.py`` runs the
benchmark's own self-tests.

Workloads (see workloads.py for the input ranges):

* ``osc-conditions``: ``mmlab oscillator`` condition reports.  The conditions
  layer does nearly all the work; no eigensolve and no orbit runs.
* ``potential-spectrum``: ``mmlab potential`` reports.  The cyclic Jacobi
  eigensolver does nearly all the work; X is dense and the band is wide.
* ``classical-orbits``: ``mmlab classical`` quantization interleaved with
  oscillator correspondence reports.  Quadrature, bisection and scalar RK4
  orbits; no eigensolve and no condition report.

Each run starts the workload in a fresh interpreter ``SETUPS`` times.  Set-up
(interpreter start, importing mmlab, generating the inputs and one fixed
warm-up job) is timed each time and reported as the median ``setup_s``.  The
last interpreter then runs the seeded jobs as a closed loop with one caller
until their latencies add up to ``--seconds``, and checks every artifact
outside the timed intervals.  BLAS runs on one thread, so the numbers describe
a plain single-threaded run.

With ``--trace 0`` the last line is the end-to-end result; with ``--trace 1``
each job also runs with spans recorded around the calls into mmlab's layers
and the last line holds the per-layer metrics instead.  The exit code is 0
when every job's output passed its checks, 1 when one failed, and 2 or 3 when
the benchmark could not run at all, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER
from workloads import LOAD_SHAPE, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
#: Scratch directory, relative to the checkout, for artifacts and span files.
WORK_DIR = ".bench_work"

#: Fresh interpreters started per run; the median of their set-up times is reported.
SETUPS = 5
#: Seconds allowed beyond ``--seconds`` for set-up, the last job and the checks.
GRACE_S = 120.0
#: BLAS threads of the workload process.
BLAS_THREADS = 1

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail_percentile(latencies: list[float]) -> tuple[int, int, float]:
    """Highest whole percentile with at least 10 jobs beyond it, by nearest rank.

    Returns ``(percentile, rank, value)``; with 10 jobs or fewer no percentile
    qualifies and the slowest job is returned as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, n, ordered[-1]
    percentile = 100 * (n - 10) // n
    rank = max(1, -(-percentile * n // 100))
    return percentile, rank, ordered[rank - 1]


def _git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _message(proc: subprocess.Popen, deadline: float) -> dict:
    """Next JSON line the worker writes, waiting no later than ``deadline``."""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout=max(0.0, deadline - perf_counter())):
            raise BenchError("workload process timed out")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"workload process ended early (exit code {proc.wait()})")
    return json.loads(line)


def _start(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one workload process; returns its set-up seconds and final result."""
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / WORK_DIR)
    argv = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = _message(proc, deadline)
        setup = perf_counter() - start
        if ready["warmup_problems"]:
            raise BenchError(f"warm-up job failed: {ready['warmup_problems']}")
        result = None if setup_only else _message(proc, deadline)["result"]
        code = proc.wait(timeout=max(0.1, deadline - perf_counter()))
        if code != 0:
            raise BenchError(f"workload process exited with code {code}")
        return setup, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)


def _report(args, setups, result, load_start, load_end) -> tuple[dict, str]:
    """End-to-end or per-layer metrics and the human-readable lines describing them."""
    latencies = result["latencies"]
    percentile, rank, tail = tail_percentile(latencies)
    attempted = result["attempted"]
    env = dict(
        result["env"],
        loadavg_start=[round(x, 2) for x in load_start],
        loadavg_end=[round(x, 2) for x in load_end],
        commit=_git_commit(),
    )
    lines = [
        f"workload {args.workload}: {WORKLOADS[args.workload]}",
        f"load: {LOAD_SHAPE}; seed {args.seed}; {args.seconds:g} s measured",
        f"environment: {json.dumps(env)}",
        f"jobs: {attempted} attempted, {result['failed']} failed, "
        f"failed_frac {result['failed'] / attempted:.4g}",
        f"tail: p{percentile} (rank {rank} of {len(latencies)} jobs)",
        f"set-up runs (s): {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    lines += [f"problem: {p}" for p in result["problems"]]
    if not args.trace:
        values = {
            "jobs_per_s": len(latencies) / math.fsum(latencies),
            "job_s_p50": statistics.median(latencies),
            "job_s_tail": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    else:
        values = result["per_layer"]
        units = dict(PER_LAYER)
        lines += _attribution_lines(result["attribution"])
        lines.append(f"spans written to {result['trace_file']}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines += [f"  {name:<42} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, "\n".join(lines)


def _attribution_lines(attribution: dict) -> list[str]:
    """Share of traced job time per layer and size class, by self time."""
    lines = ["traced job time by layer (self seconds per job, share of job time):"]
    for label, totals in attribution.items():
        job_s, _, jobs = totals["job"]
        lines.append(f"  {label}: {jobs} jobs, {job_s / jobs:.4f} s/job")
        for name, (_, own, calls) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            lines.append(
                f"    {name:<40} {own / jobs:10.5f} s {100 * own / job_s:6.2f} %"
                f" {calls / jobs:10.1f} calls"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mmlab pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "mmlab" / "__init__.py").is_file():
        print(f"error: no mmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + args.seconds + GRACE_S
    load_start = os.getloadavg()
    try:
        setups = []
        for index in range(SETUPS):
            setup, result = _start(args, index < SETUPS - 1, deadline)
            setups.append(setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    metrics, text = _report(args, setups, result, load_start, os.getloadavg())
    print(text)
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
