"""One workload process, started by run.py in a fresh interpreter.

It imports mmlab from the checkout's ``src``, runs the workload's fixed
warm-up job and reports ready; that is the set-up run.py times.  Unless
``--setup-only`` is given it then runs the seeded jobs back to back until
their summed latency reaches ``--seconds``, checks each job's artifact after
its timed interval, and reports one JSON result.  With ``--trace 1`` every job
runs twice, once plain and once with spans recorded, in alternating order, so
the per-layer numbers and the tracing overhead come from the same jobs.

Messages to run.py are JSON lines on stdout; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mmlab  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from jobs import LOOKUP_SITES, run_job  # noqa: E402
from tracing import Tracer, installed, layer_metrics, self_times, summarize  # noqa: E402

#: How many problem strings a result carries at most.
MAX_PROBLEMS = 5


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_checked(job, work: Path, tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """Latency of one job and the problems its artifact shows.

    With a tracer the lookup sites are wrapped for this job only, and the job's
    root span covers exactly the timed interval.
    """
    out = work / f"job.{job.fmt}"
    out.unlink(missing_ok=True)
    error = None
    with installed(tracer, LOOKUP_SITES) if tracer else nullcontext():
        root = tracer.begin("job", label=job.label) if tracer else None
        start = perf_counter()
        try:
            run_job(job, str(out))
        except Exception as exc:  # a failing job is counted, the run goes on
            error = f"{job.label}: raised {exc!r}"
        elapsed = perf_counter() - start
        if tracer:
            tracer.end(root)
    if error is not None:
        return elapsed, [error]
    try:
        data = out.read_bytes()
    except OSError as exc:
        return elapsed, [f"{job.label}: no artifact: {exc}"]
    return elapsed, [f"{job.label}: {p}" for p in checks.check(job, data)]


def _attribution(tracer: Tracer) -> dict:
    """Per size class: inclusive seconds, self seconds and calls of every span name."""
    selves = self_times(tracer.spans)
    label_of = {s.job: s.attrs["label"] for s in tracer.spans if s.parent < 0}
    groups = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        groups[label_of[span.job]].append(index)
    result = {}
    for label, indices in sorted(groups.items()):
        totals = summarize([tracer.spans[i] for i in indices], [selves[i] for i in indices])
        result[label] = {name: [t.s, t.self_s, t.calls] for name, t in sorted(totals.items())}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for artifacts")
    args = parser.parse_args(argv)

    channel = sys.stdout
    sys.stdout = sys.stderr

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    if Path(mmlab.__file__).resolve().parent != ROOT / "src" / "mmlab":
        print(f"mmlab imported from {mmlab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    work = args.work
    _, warmup_problems = run_checked(workloads.warmup(args.workload), work)
    send({"ready": True, "warmup_problems": warmup_problems})
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    plain, traced, problems = [], [], []
    attempted = failed = 0
    measured = 0.0
    for index, job in enumerate(workloads.jobs(args.workload, args.seed)):
        if measured >= args.seconds:
            break
        passes = [None]
        if tracer:
            tracer.job = index
            passes = [None, tracer] if index % 2 == 0 else [tracer, None]
        job_problems = []
        for pass_tracer in passes:
            elapsed, found = run_checked(job, work, pass_tracer)
            (traced if pass_tracer else plain).append(elapsed)
            measured += elapsed
            job_problems += found
        attempted += 1
        failed += bool(job_problems)
        problems += job_problems[: MAX_PROBLEMS - len(problems)]

    result = {
        "latencies": plain,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "warmup_problems": warmup_problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer:
        result["per_layer"] = layer_metrics(tracer.spans, traced, plain)
        result["attribution"] = _attribution(tracer)
        trace_path = work.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(trace_path))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    send({"result": result})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
