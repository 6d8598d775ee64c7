"""Acceptance suite: every published criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criteria 1-9 run through the shared
verification checks (the same ones `mmlab verify` executes); criterion 10
exercises the CLI itself, including the induced-perturbation failure path.
"""

import math
import subprocess
import sys
import types

import numpy as np
import pytest

from mmlab import verify
from mmlab.spectral import PhysicalConstants
from mmlab.verify import run_all

CRITERIA = (
    (1, "truncated-commutator"),
    (2, "sum-rule-values"),
    (3, "constrained-zero"),
    (4, "nearest-neighbor-rewrite"),
    (5, "quartic-system"),
    (6, "classical-identities"),
    (7, "correspondence"),
    (8, "rephasing-invariance"),
    (9, "state-difference-realness"),
)


@pytest.fixture(scope="module")
def results():
    return {result.name: result for result in run_all()}


@pytest.mark.parametrize("number,name", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_criterion(results, number, name):
    result = results[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name:<28} {status}  {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"


def test_criterion_verify_cli():
    clean = subprocess.run(
        [sys.executable, "-m", "mmlab", "verify"], capture_output=True, text=True
    )
    perturbed = subprocess.run(
        [sys.executable, "-m", "mmlab", "verify", "--perturb", "1e-3"],
        capture_output=True,
        text=True,
    )
    passed = clean.returncode == 0 and perturbed.returncode == 4
    status = "PASS" if passed else "FAIL"
    print(
        f"ACCEPTANCE 10 verify-cli                   {status}  "
        f"clean exit={clean.returncode} perturbed exit={perturbed.returncode}"
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "9/9 checks passed" in clean.stdout
    assert perturbed.returncode == 4, perturbed.stdout + perturbed.stderr


def test_state_difference_fails_under_perturbation():
    results = {result.name: result for result in run_all(perturb=1e-3)}
    assert not results["state-difference-realness"].passed


def test_nan_state_difference_fails(monkeypatch):
    eye = np.eye(64, dtype=complex)
    lab = types.SimpleNamespace(
        constants=PhysicalConstants(), osc_x=eye, osc_p=eye, quartic_x=eye, quartic_p=eye
    )
    nan = complex(math.nan, 0.0)
    monkeypatch.setattr(verify, "loop_integral_state_difference", lambda x, p, n: nan)
    assert not verify.check_state_difference_realness(lab).passed
