"""Seeded job sequences for the three benchmark workloads.

A job is one user-level pipeline run (build -> evaluate -> serialize -> write).
Each workload is an endless, deterministic sequence of jobs.  Problem sizes
cycle through a fixed interleaved order, so every prefix of a run holds the
same mix of small, medium and large jobs whatever the seed; the seed draws the
physical inputs (mass, frequency, action quantum, potential coefficients).
Keeping the size mix independent of the seed is what lets the median and tail
latency of a run land inside one size class instead of on the edge between
two.

This module uses only the standard library and numpy; mmlab receives nothing
but the generated arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

import numpy as np

#: Input ranges and load shape of each workload, printed with every result.
WORKLOADS = {
    "osc-conditions": (
        "mmlab oscillator; m, omega, hbar in [0.5, 2]; N cycles 512, 128, 256; "
        "alpha-max default or 2; format alternates json/csv"
    ),
    "potential-spectrum": (
        "mmlab potential on confining quartics and sextics; keep cycles 8, 10, 12; "
        "basis 4*keep; alpha-max keep//4; format alternates json/csv"
    ),
    "classical-orbits": (
        "alternating (a) mmlab classical on a convex quartic, sextic or SHO, "
        "K in {6, 10}, j0 in {0, h/2}, and (b) build_oscillator(32) + "
        "correspondence_report for every feasible n, alpha-max in {2, 4}"
    ),
}

#: Closed loop, one caller: the next job starts only after the previous one ends.
LOAD_SHAPE = "closed loop, 1 caller, in-process, jobs back to back"

FORMATS = ("json", "csv")
CORRESPONDENCE_SIZE = 32


@dataclass(frozen=True)
class Job:
    """One pipeline run and everything the output checker needs to know about it."""

    kind: str  # oscillator | potential | classical | correspondence
    label: str  # size class, used to attribute time by problem size
    fmt: str
    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    size: int = 0
    alpha_max: int | None = None
    coeffs: tuple | None = None
    j0: float = 0.0

    def argv(self, out: str) -> list[str]:
        """Command line for ``mmlab.cli.main``; not defined for correspondence jobs."""
        args = [self.kind, "--m", repr(self.m), "--hbar", repr(self.hbar)]
        if self.kind == "oscillator":
            args += ["--omega", repr(self.omega)]
        if self.coeffs is not None:
            args += ["--coeffs", ",".join(repr(c) for c in self.coeffs)]
        args += ["--size", str(self.size)]
        if self.alpha_max is not None:
            args += ["--alpha-max", str(self.alpha_max)]
        if self.kind == "classical":
            args += ["--j0", repr(self.j0)]
        return args + ["--format", self.fmt, "--out", out]


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _convex(coeffs) -> bool:
    """True when V'' > 0 everywhere, so V has one well and two turning points."""
    second = np.polynomial.polynomial.polyder(np.asarray(coeffs, dtype=float), 2)
    critical = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(second))
    points = [r.real for r in np.atleast_1d(critical) if abs(r.imag) < 1e-12] or [0.0]
    return min(np.polynomial.polynomial.polyval(points, second)) > 0.0


def _polynomial(rng: random.Random, family: str, convex: bool) -> tuple:
    """Seeded confining quartic or sextic with ascending coefficients.

    Without ``convex`` the constant term is 0.  With it the draw is repeated
    until V'' > 0 everywhere and the constant term moves the minimum to 0, so
    classical orbits never meet a barrier and only the n = 0, J0 = 0 level
    sits at the bottom of the well.
    """
    while True:
        c = [
            0.0,
            _uniform(rng, -0.5, 0.5),
            _uniform(rng, 0.1, 1.0),
            _uniform(rng, -0.2, 0.2),
            _uniform(rng, 0.02, 0.2),
        ]
        if family == "sextic":
            c += [_uniform(rng, -0.02, 0.02), _uniform(rng, 0.002, 0.02)]
        if not convex:
            return tuple(c)
        if _convex(c):
            break
    slope = np.polynomial.polynomial.polyder(c)
    roots = np.polynomial.polynomial.polyroots(slope)
    x_min = min((r.real for r in np.atleast_1d(roots) if abs(r.imag) < 1e-9),
                key=lambda x: np.polynomial.polynomial.polyval(x, c))
    c[0] = -float(np.polynomial.polynomial.polyval(x_min, c))
    return tuple(c)


def _osc(rng: random.Random, j: int) -> Job:
    size = (512, 128, 256)[j % 3]
    return Job(
        kind="oscillator",
        label=f"N={size}",
        fmt=FORMATS[j % 2],
        m=_uniform(rng, 0.5, 2.0),
        omega=_uniform(rng, 0.5, 2.0),
        hbar=_uniform(rng, 0.5, 2.0),
        size=size,
        alpha_max=(None, 2)[(j // 6) % 2],
    )


def _potential(rng: random.Random, j: int) -> Job:
    keep = (12, 8, 10)[j % 3]
    family = ("quartic", "sextic")[(j // 6) % 2]
    return Job(
        kind="potential",
        label=f"keep={keep}",
        fmt=FORMATS[j % 2],
        size=keep,
        alpha_max=keep // 4,
        coeffs=_polynomial(rng, family, convex=False),
    )


def _classical(rng: random.Random, j: int) -> Job:
    i = j // 2
    if j % 2:
        alpha = (4, 2)[i % 2]
        return Job(
            kind="correspondence",
            label=f"corr alpha={alpha}",
            fmt=FORMATS[(i // 2) % 2],
            m=_uniform(rng, 0.5, 2.0),
            omega=_uniform(rng, 0.5, 2.0),
            hbar=_uniform(rng, 0.5, 2.0),
            size=CORRESPONDENCE_SIZE,
            alpha_max=alpha,
        )
    family = ("quartic", "sextic", "sho")[i % 3]
    levels = (10, 6)[i % 2]
    j0 = (0.0, math.pi)[(i // 6) % 2]  # 0 or h/2 with hbar = 1
    if family == "sho":
        omega = _uniform(rng, 0.5, 2.0)
        coeffs = (0.0, 0.0, 0.5 * omega * omega)
    else:
        omega = 1.0
        coeffs = _polynomial(rng, family, convex=True)
    return Job(
        kind="classical",
        label=f"classical K={levels}",
        fmt=FORMATS[(i // 2) % 2],
        omega=omega,
        size=levels,
        coeffs=coeffs,
        j0=j0,
    )


_MAKERS = {
    "osc-conditions": _osc,
    "potential-spectrum": _potential,
    "classical-orbits": _classical,
}


def jobs(workload: str, seed: int) -> Iterator[Job]:
    """Endless job sequence of a workload; the same seed gives the same sequence."""
    make = _MAKERS[workload]
    rng = random.Random(f"{workload}/{seed}")
    for j in count():
        yield make(rng, j)


def warmup(workload: str) -> Job:
    """Fixed warm-up job of the workload's smallest size class, run during set-up.

    It does not depend on the seed, so set-up time measures the same work on
    every run.
    """
    make = _MAKERS[workload]
    rng = random.Random(f"{workload}/warmup")
    return make(rng, {"osc-conditions": 1, "potential-spectrum": 1, "classical-orbits": 2}[workload])
