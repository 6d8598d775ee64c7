"""Property tests of the Jacobi eigensolver over generated symmetric matrices."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mmlab import jacobi_eigh


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # entries straight from hypothesis: zeros, repeats and sign patterns
        half = draw(arrays(float, (n, n), elements=st.floats(-10.0, 10.0)))
        return half + half.T
    # near-degenerate spectrum: a few levels split by tiny gaps, rotated
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.standard_normal(draw(st.integers(1, 3)))
    split = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]))
    spectrum = levels[rng.integers(0, levels.size, n)] + split * rng.standard_normal(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = (q * spectrum) @ q.T
    return 0.5 * (s + s.T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
def test_eigenpairs_orthonormal_sorted_and_repeatable(s):
    n = s.shape[0]
    w, v = jacobi_eigh(s)
    fro = np.linalg.norm(s)
    assert np.all(np.linalg.norm(s @ v - v * w[None, :], axis=0) <= 1e-11 * fro)
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-11
    assert np.all(np.diff(w) >= 0.0)
    w2, v2 = jacobi_eigh(s)
    assert w.tobytes() == w2.tobytes()
    assert v.tobytes() == v2.tobytes()
