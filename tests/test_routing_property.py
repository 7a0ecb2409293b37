"""Property test of the shipped routed 1x1 layer's output-major couplings:

for drawn batch, map counts, spatial size, iteration count and gradient
scope, its final couplings match the full-map reference in f64 within
criterion 1's 1e-9, and every traced coupling tensor is (B, I, J) with
rows that sum to 1 over the outputs (all ones at zero iterations).

Hypothesis runs derandomized with a fixed example count and no example
database, so every run draws the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capsroute.routing import Conv1x1CapsuleParams, conv1x1_capsule_forward, route_conv1x1_naive  # noqa: E402
from capsroute.tensor import Tensor  # noqa: E402


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(
    B=st.integers(1, 3),
    I=st.integers(1, 8),
    J=st.integers(1, 6),
    S=st.integers(1, 24),
    r=st.integers(0, 4),
    grad_mode=st.sampled_from(["none", "last"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_output_major_couplings_match_naive(B, I, J, S, r, grad_mode, seed):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((B, I, S))
    params = Conv1x1CapsuleParams(rng.standard_normal((I, J)), r)
    trace = []
    out = conv1x1_capsule_forward(Tensor(F), params, grad_mode, trace=trace)
    assert out.shape == (B, J, S)
    assert len(trace) == max(r, 1)
    for c in trace:
        assert c.shape == (B, I, J)
        np.testing.assert_allclose(c.sum(axis=-1), J if r == 0 else 1.0, rtol=0, atol=1e-12)
    if r == 0:
        np.testing.assert_array_equal(trace[0], 1.0)
    for b in range(B):
        g_naive, c_naive = route_conv1x1_naive(F[b], params)
        assert np.abs(trace[-1][b] - c_naive).max() <= 1e-9
        assert np.abs(out.data[b] - g_naive).max() <= 1e-9
