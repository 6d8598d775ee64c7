"""Spans recorded around calls into mmlab's layers, and the per-layer metrics.

Wrappers are installed on the names at their lookup sites (the module
attribute a caller reads at call time) and removed again afterwards, so an
untraced job runs the program exactly as shipped.  Each wrapper records one
span: name, start, end, the enclosing span and the job it belongs to.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the part of its interval covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a job's root span
    job: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans of single-threaded code."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = -1

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.job, attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, attrs_of=None):
        """Return ``fn`` recording one span per call; ``attrs_of(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if attrs_of is not None:
                self.spans[index].attrs.update(attrs_of(args, result))
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


@contextmanager
def installed(tracer: Tracer, sites):
    """Wrap every ``(module, attribute, span name, attrs_of)`` site, restoring on exit."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in sites]
    try:
        for (module, attr, name, attrs_of), (_, _, fn) in zip(sites, originals):
            setattr(module, attr, tracer.wrap(fn, name, attrs_of))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end)) for c in children[index]
        ]
        result.append((span.end - span.start) - _covered(clipped))
    return result


@dataclass
class Totals:
    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    attrs: Counter = field(default_factory=Counter)


def summarize(spans: list[Span], selves: list[float] | None = None) -> dict:
    """Inclusive seconds, self seconds, calls and summed attributes per span name."""
    if selves is None:
        selves = self_times(spans)
    totals = defaultdict(Totals)
    for span, own in zip(spans, selves):
        t = totals[span.name]
        t.s += span.end - span.start
        t.self_s += own
        t.calls += 1
        t.attrs.update({k: v for k, v in span.attrs.items() if isinstance(v, (int, float))})
    return totals


#: Per-layer metrics of a traced run, all per traced job unless the unit says otherwise.
PER_LAYER = (
    ("jacobi.jacobi_eigh.s", "s/job"),
    ("jacobi.jacobi_eigh.calls", "calls/job"),
    ("spectral.build_from_potential.self_s", "s/job"),
    ("spectral.build_oscillator.s", "s/job"),
    ("spectral.matrix_bandwidth.s", "s/job"),
    ("spectral.matrix_bandwidth.calls", "calls/job"),
    ("conditions.full_report.self_s", "s/job"),
    ("conditions.commutator.s", "s/job"),
    ("conditions.to_amplitude_table.s", "s/job"),
    ("conditions.impose_heisenberg_reality.s", "s/job"),
    ("classical.quantize.s", "s/job"),
    ("classical.quantize.calls", "calls/job"),
    ("classical.quantize.iterations", "iter/call"),
    ("classical.quantize.converged_frac", "frac"),
    ("classical.action_direct.s", "s/job"),
    ("classical.action_direct.calls", "calls/job"),
    ("classical.orbit_fourier.self_s", "s/job"),
    ("classical.orbit_fourier.calls", "calls/job"),
    ("classical.turning_points.s", "s/job"),
    ("classical.turning_points.calls", "calls/job"),
    ("classical.orbit_period.s", "s/job"),
    ("classical.correspondence_report.self_s", "s/job"),
    ("report_io.serialize.s", "s/job"),
    ("report_io.write_atomic.s", "s/job"),
    ("report_io.bytes", "B/job"),
    ("cli.self_s", "s/job"),
    ("trace.job_s", "s/job"),
    ("trace.overhead_frac", "frac"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Values of every :data:`PER_LAYER` metric.

    ``traced_s`` and ``untraced_s`` are the latencies of the same jobs run with
    and without the wrappers.  A layer that a workload never calls reads 0.
    """
    jobs = len(traced_s)
    totals = summarize(spans)
    quantize = totals["classical.quantize"]
    values = {
        "classical.quantize.iterations": _ratio(quantize.attrs["iterations"], quantize.calls),
        "classical.quantize.converged_frac": _ratio(quantize.attrs["converged"], quantize.calls),
        "report_io.bytes": totals["report_io.write_atomic"].attrs["bytes"] / jobs,
        "trace.job_s": statistics.fmean(traced_s),
        "trace.overhead_frac": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
    }
    for metric, _ in PER_LAYER:
        if metric not in values:
            span, _, stat = metric.rpartition(".")
            values[metric] = getattr(totals[span], stat) / jobs
    return values
