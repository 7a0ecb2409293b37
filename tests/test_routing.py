"""Routing tests: scalar oracles, path equivalence, gradient scope."""

import math

import numpy as np
import pytest

from capsroute import routing
from capsroute.conv import conv2d
from capsroute.routing import (
    Conv1x1CapsuleParams,
    FcCapsuleParams,
    RoutingError,
    RoutingNumericalError,
    conv1x1_capsule_forward,
    coupling_softmax,
    frozen_routing,
    route_conv1x1_naive,
    route_fc,
    squash,
)
from capsroute.tensor import Tape, Tensor, backward, einsum2, finite_diff_check, mul, relu, tsum


# ---------------------------------------------------------------------------
# Scalar reference oracles (pure python loops, no shared code with the
# library paths; these are the ground truth the fast paths must match)
# ---------------------------------------------------------------------------


def _softmax_rows(b):
    out = []
    for row in b:
        m = max(row)
        exps = [math.exp(x - m) for x in row]
        tot = sum(exps)
        out.append([e / tot for e in exps])
    return out


def _squash_list(vec):
    n2 = sum(x * x for x in vec)
    scale = math.sqrt(n2) / (1.0 + n2) if n2 > 0 else 0.0
    return [x * scale for x in vec]


def route_scalar_oracle(F, W, r):
    """Element-by-element routing over full feature maps."""
    I, S, J = len(F), len(F[0]), len(W[0])
    b = [[0.0] * J for _ in range(I)]
    g = c = None
    for _ in range(r):
        c = _softmax_rows(b)
        g = [
            [sum(c[i][j] * W[i][j] * F[i][s] for i in range(I)) for s in range(S)]
            for j in range(J)
        ]
        sq = [_squash_list(g[j]) for j in range(J)]
        for i in range(I):
            for j in range(J):
                b[i][j] += W[i][j] * sum(F[i][s] * sq[j][s] for s in range(S))
    return g, c


def route_fc_scalar_oracle(u, W, r):
    """Element-by-element fully connected capsule routing."""
    N, d_in = len(u), len(u[0])
    J, d_out = len(W[0]), len(W[0][0][0])
    u_hat = [
        [
            [sum(u[n][d] * W[n][j][d][e] for d in range(d_in)) for e in range(d_out)]
            for j in range(J)
        ]
        for n in range(N)
    ]
    b = [[0.0] * J for _ in range(N)]
    v = c = None
    for _ in range(r):
        c = _softmax_rows(b)
        s = [
            [sum(c[n][j] * u_hat[n][j][e] for n in range(N)) for e in range(d_out)]
            for j in range(J)
        ]
        v = [_squash_list(s[j]) for j in range(J)]
        for n in range(N):
            for j in range(J):
                b[n][j] += sum(u_hat[n][j][e] * v[j][e] for e in range(d_out))
    return v, c


# ---------------------------------------------------------------------------
# squash
# ---------------------------------------------------------------------------


class TestSquash:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(squash(np.zeros(4)), np.zeros(4))

    def test_unit_vector_halves(self):
        v = np.array([1.0, 0.0, 0.0])
        out = squash(v)
        np.testing.assert_allclose(np.linalg.norm(out), 0.5, rtol=1e-15)
        np.testing.assert_allclose(out / np.linalg.norm(out), v, rtol=1e-15)

    def test_three_four_vector(self):
        out = squash(np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [15.0 / 26.0, 20.0 / 26.0], rtol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(out), 25.0 / 26.0, rtol=1e-14)

    def test_norm_below_one_and_direction_preserved(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((500, 6)) * rng.lognormal(0, 2, size=(500, 1))
        out = squash(v, axis=-1)
        norms = np.linalg.norm(out, axis=-1)
        assert np.all(norms < 1.0)
        cos = np.sum(out * v, axis=-1) / (norms * np.linalg.norm(v, axis=-1))
        assert np.all(cos >= 1.0 - 1e-12)

    def test_norm_strictly_increasing_in_input_norm(self):
        r = np.linspace(0.01, 50, 400)
        out_norm = r * r / (1.0 + r * r)
        got = np.array([np.linalg.norm(squash(np.array([x, 0.0]))) for x in r])
        np.testing.assert_allclose(got, out_norm, rtol=1e-12)
        assert np.all(np.diff(got) > 0)

    def test_tensor_path_matches_numpy_and_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5)) + 0.3
        np.testing.assert_array_equal(squash(Tensor(x)).data, squash(x))
        err = finite_diff_check(lambda t: (squash(t) * squash(t)).sum(), Tensor(x))
        assert err <= 1e-4

    def test_tensor_gradient_zero_at_zero_vector(self):
        x = Tensor(np.zeros((1, 4)), requires_grad=True)
        with Tape() as tape:
            backward(tape, squash(x).sum())
        np.testing.assert_array_equal(x.grad, np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# coupling softmax
# ---------------------------------------------------------------------------


class TestCouplingSoftmax:
    # the softmax runs over the output index, the leading axis
    def test_zero_logits_uniform(self):
        c = coupling_softmax(np.zeros((4, 3)))
        np.testing.assert_allclose(c, 0.25, rtol=0, atol=1e-15)

    def test_log_integer_row(self):
        b = np.log(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(coupling_softmax(b), [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    def test_columns_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((7, 20)) * 10
        c = coupling_softmax(b)
        np.testing.assert_allclose(c.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        assert np.all(c >= 0)
        shifted = coupling_softmax(b + rng.standard_normal((1, 20)))
        np.testing.assert_allclose(shifted, c, rtol=1e-12, atol=1e-14)

    def test_three_dimensional_logits_reduce_the_leading_axis(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((5, 3, 4)) * 4
        want = np.exp(b) / np.exp(b).sum(axis=0)
        np.testing.assert_allclose(coupling_softmax(b), want, rtol=1e-13)
        np.testing.assert_allclose(coupling_softmax(b.astype(np.float32)), want, rtol=1e-5)


# ---------------------------------------------------------------------------
# naive routing path
# ---------------------------------------------------------------------------

# frozen from route_scalar_oracle(F, W, r=3) with F, W below
_FROZEN_F = [[1.0, 0.0], [0.0, 1.0]]
_FROZEN_W = [[1.0, 0.5], [-1.0, 2.0]]
_FROZEN_C = [[0.589980014540, 0.410019985460], [0.128294305971, 0.871705694029]]
_FROZEN_G = [[0.589980014540, -0.128294305971], [0.205009992730, 1.743411388057]]


class TestNaiveRouting:
    def test_single_iteration_is_uniform_combination(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((4, 10))
        W = rng.standard_normal((4, 3))
        g, c = route_conv1x1_naive(F, Conv1x1CapsuleParams(W, iterations=1))
        np.testing.assert_allclose(c, 1.0 / 3.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g, (W / 3.0).T @ F, rtol=1e-12, atol=1e-12)

    def test_single_output_map_has_unit_couplings(self):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((3, 8))
        W = rng.standard_normal((3, 1))
        for r in (1, 2, 4):
            g, c = route_conv1x1_naive(F, Conv1x1CapsuleParams(W, iterations=r))
            np.testing.assert_array_equal(c, np.ones((3, 1)))
            np.testing.assert_allclose(g, W.T @ F, rtol=1e-12)

    def test_frozen_scalar_oracle_instance(self):
        g, c = route_conv1x1_naive(np.array(_FROZEN_F), Conv1x1CapsuleParams(np.array(_FROZEN_W), 3))
        np.testing.assert_allclose(c, _FROZEN_C, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g, _FROZEN_G, rtol=0, atol=1e-12)

    def test_matches_scalar_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            I, J, S = rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 9)
            r = int(rng.integers(1, 5))
            F = rng.standard_normal((I, S))
            W = rng.standard_normal((I, J))
            g, c = route_conv1x1_naive(F, Conv1x1CapsuleParams(W, r))
            g_ref, c_ref = route_scalar_oracle(F.tolist(), W.tolist(), r)
            np.testing.assert_allclose(g, g_ref, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(c, c_ref, rtol=1e-10, atol=1e-12)

    def test_zero_iterations_is_plain_combination(self):
        rng = np.random.default_rng(8)
        F = rng.standard_normal((4, 10))
        W = rng.standard_normal((4, 3))
        g, c = route_conv1x1_naive(F, Conv1x1CapsuleParams(W, iterations=0))
        np.testing.assert_array_equal(c, np.ones((4, 3)))
        np.testing.assert_array_equal(g, W.T @ F)

    def test_negative_iterations_rejected(self):
        with pytest.raises(RoutingError, match="iterations must be an integer >= 0, got -1"):
            Conv1x1CapsuleParams(np.ones((2, 2)), iterations=-1)
        with pytest.raises(RoutingError, match="iterations must be an integer >= 0, got -1"):
            FcCapsuleParams(np.ones((2, 2, 2, 2)), iterations=-1)

    @pytest.mark.parametrize("iterations", [True, False, 2.5, 2.0, np.float64(3), "3", None])
    def test_non_integer_iterations_rejected(self, iterations):
        with pytest.raises(RoutingError, match="iterations must be an integer >= 0"):
            Conv1x1CapsuleParams(np.ones((2, 2)), iterations=iterations)
        with pytest.raises(RoutingError, match="iterations must be an integer >= 0"):
            FcCapsuleParams(np.ones((2, 2, 2, 2)), iterations=iterations)

    def test_numpy_integer_iterations_accepted(self):
        assert Conv1x1CapsuleParams(np.ones((2, 2)), iterations=np.int64(2)).iterations == 2
        assert FcCapsuleParams(np.ones((2, 2, 2, 2)), iterations=np.int32(0)).iterations == 0


# ---------------------------------------------------------------------------
# Gram-matrix routing in the shipped layer
# ---------------------------------------------------------------------------


def _layer_route(F, params, trace=None):
    """Route one (I, S) sample through the shipped layer with grad_mode "none".

    Returns (g, c): its output maps and its final couplings.
    """
    trace = [] if trace is None else trace
    g = conv1x1_capsule_forward(Tensor(F), params, grad_mode="none", trace=trace)
    return g.data, trace[-1][0]


class TestKernelRouting:
    def test_zero_weights_stay_uniform_with_zero_norms(self):
        rng = np.random.default_rng(8)
        F = rng.standard_normal((5, 12))
        params = Conv1x1CapsuleParams(np.zeros((5, 3)), iterations=4)
        g, c = _layer_route(F, params)
        np.testing.assert_allclose(c, 1.0 / 3.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(np.linalg.norm(g, axis=-1), np.zeros(3))

    def test_orthonormal_features_reduce_agreement_to_wsq_c(self):
        # with G = I the expansion collapses to f_hat . g = W_ij^2 c_ij;
        # after one uniform iteration b_ij = W_ij^2/J * scale_j
        W = np.array([[0.5, -2.0], [1.5, 0.25], [-1.0, 1.0]])
        J = 2
        params = Conv1x1CapsuleParams(W, iterations=2)
        trace = []
        _layer_route(np.eye(3), params, trace=trace)
        A = W * W / J
        n2 = (A / J).sum(axis=0)
        b = A * (np.sqrt(n2) / (1 + n2))
        np.testing.assert_allclose(trace[1][0], coupling_softmax(b.T).T, rtol=1e-12)

    def test_frozen_instance_matches_naive(self):
        F = np.array(_FROZEN_F)
        params = Conv1x1CapsuleParams(np.array(_FROZEN_W), 3)
        g_naive, c_naive = route_conv1x1_naive(F, params)
        g, c = _layer_route(F, params)
        np.testing.assert_allclose(c, c_naive, rtol=0, atol=1e-9)
        np.testing.assert_allclose(g, g_naive, rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(g, axis=-1), np.linalg.norm(g_naive, axis=-1), rtol=0, atol=1e-9)

    def test_equivalence_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            I = int(rng.integers(1, 12))
            J = int(rng.integers(1, 8))
            S = int(rng.integers(1, 64))
            r = int(rng.integers(1, 6))
            F = rng.standard_normal((I, S))
            params = Conv1x1CapsuleParams(rng.standard_normal((I, J)), r)
            trace_n, trace_k = [], []
            g_naive, c_naive = route_conv1x1_naive(F, params, trace=trace_n)
            g, c = _layer_route(F, params, trace=trace_k)
            np.testing.assert_allclose(c, c_naive, rtol=0, atol=1e-9)
            np.testing.assert_allclose(g, g_naive, rtol=0, atol=1e-9)
            np.testing.assert_allclose(np.linalg.norm(g, axis=-1), np.linalg.norm(g_naive, axis=-1), rtol=0, atol=1e-9)
            for ck, cn in zip(trace_k, trace_n, strict=True):
                np.testing.assert_allclose(ck.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
                np.testing.assert_allclose(cn.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_negative_norm_band_scales_with_dtype_and_magnitude(self):
        # near-collinear maps scaled by up to 100 and zero-mean weight
        # columns: |g|^2 cancels to rounding noise far below the size of its
        # terms, which an absolute band of 1e-9 took for corruption in f32
        I, J, S = 16, 8, 64
        for seed in range(100):
            rng = np.random.default_rng(seed)
            base = rng.standard_normal(S)
            F = (base + 1e-4 * rng.standard_normal((I, S))) * 10.0 ** rng.uniform(0, 2)
            W = rng.standard_normal((I, J))
            W -= W.mean(axis=0)
            params = Conv1x1CapsuleParams(Tensor(W.astype(np.float32)), 3)
            for mode in ("none", "last"):
                conv1x1_capsule_forward(Tensor(F[None].astype(np.float32)), params, grad_mode=mode)
        # a corrupted Gram matrix still aborts
        for dt in (np.float32, np.float64):
            W, c = np.ones((I, J), dtype=dt), np.full((J, 1, I), 1.0 / J, dtype=dt)  # c output-major
            with pytest.raises(RoutingNumericalError):
                routing._gram_step(Tensor(c), Tensor(-np.eye(I, dtype=dt)[None]), Tensor(W))


# ---------------------------------------------------------------------------
# the fused Gram step against its composition of taped primitives
# ---------------------------------------------------------------------------


def _composed_gram_step(c, G, W):
    """The Gram evidence update written as taped primitives on input-major
    (B, I, J) couplings: A = W * (G^T (c * W)), |g|^2 = sum_i c * A, and
    A times the routing scale of the clamped |g|^2."""
    A = mul(W, einsum2("bli,blj->bij", G, mul(c, W)))
    n2 = tsum(mul(c, A), axis=1)
    B, J = n2.shape
    return mul(A, routing._routing_scale_op(relu(n2)).reshape(B, 1, J))


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _gram_case(B, I, J, seed):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((B, I, 2 * I))
    G = F @ F.transpose(0, 2, 1) + 0.1 * rng.standard_normal((B, I, I))  # not symmetric
    c = rng.random((B, I, J)) + 0.05
    return c / c.sum(axis=-1, keepdims=True), G, rng.standard_normal((I, J))


def _clamped_gram_case():
    # output 0 has a zero weight column, so |g|^2 is exactly 0 for every
    # sample; output 1 reads only input 3, whose Gram entry in sample 1 is
    # a negative of rounding size, so its |g|^2 is negative inside the band
    c, G, W = _gram_case(2, 4, 3, seed=33)
    W[:, 0] = 0.0
    W[:, 1] = [0.0, 0.0, 0.0, 1.0]
    G[1] = np.diag([1.0, 1.0, 1.0, -1e-15])
    return c, G, W


_GRAM_CASES = {"B1": lambda: _gram_case(1, 5, 4, 31), "B3": lambda: _gram_case(3, 6, 4, 32), "clamped": _clamped_gram_case}


class TestFusedGramStep:
    @pytest.mark.parametrize("case", sorted(_GRAM_CASES))
    def test_matches_composed_primitives_in_f64(self, case):
        c, G, W = _GRAM_CASES[case]()
        n2 = np.einsum("bij,bij->bj", c, W * np.einsum("bli,blj->bij", G, c * W))
        if case == "clamped":
            assert np.all(n2[:, 0] == 0.0) and n2[1, 1] < 0.0
        else:
            assert np.all(n2 > 0)
        probe = np.random.default_rng(34).standard_normal(c.shape)
        results = []
        for fused in (False, True):
            cs = c.transpose(2, 0, 1).copy() if fused else c  # the shipped step is output-major
            ts = [Tensor(x.copy(), requires_grad=True) for x in (cs, G, W)]
            upstream = Tensor(probe.transpose(2, 0, 1).copy() if fused else probe)
            with Tape() as tape:
                out = routing._gram_step(*ts) if fused else _composed_gram_step(*ts)
                backward(tape, (out * upstream).sum())
            if fused:
                assert len(tape.records) == 3  # the step, then the loss's product and sum
                out, gc = out.data.transpose(1, 2, 0), ts[0].grad.transpose(1, 2, 0)
            else:
                out, gc = out.data, ts[0].grad
            results.append((out, gc, ts[1].grad, ts[2].grad))
        for name, want, got in zip(("output", "dc", "dG", "dW"), *results):
            assert got.shape == want.shape, name
            assert _rel(got, want) <= 1e-12, (name, _rel(got, want))


# ---------------------------------------------------------------------------
# differentiable routed layer
# ---------------------------------------------------------------------------


class TestConv1x1CapsuleForward:
    def test_r1_output_is_scaled_plain_conv(self):
        rng = np.random.default_rng(10)
        B, I, J, H, Wd = 2, 5, 4, 6, 6
        feats4 = rng.standard_normal((B, I, H, Wd))
        W = rng.standard_normal((I, J))
        params = Conv1x1CapsuleParams(Tensor(W), iterations=1)
        out = conv1x1_capsule_forward(Tensor(feats4.reshape(B, I, -1)), params)
        kernel = Tensor(W.T.reshape(J, I, 1, 1).copy())
        plain = conv2d(Tensor(feats4), kernel)
        np.testing.assert_allclose(
            out.data.reshape(B, J, H, Wd), plain.data / J, rtol=1e-12, atol=1e-12
        )

    def test_r1_weight_gradient_is_scaled_plain_conv_gradient(self):
        rng = np.random.default_rng(11)
        B, I, J, S = 2, 3, 4, 9
        feats = rng.standard_normal((B, I, S))
        W = Tensor(rng.standard_normal((I, J)), requires_grad=True)
        upstream = rng.standard_normal((B, J, S))
        with Tape() as tape:
            out = conv1x1_capsule_forward(Tensor(feats), Conv1x1CapsuleParams(W, 1), grad_mode="none")
            backward(tape, (out * Tensor(upstream)).sum())
        # plain conv gradient: dW[i, j] = sum_{b,s} f[b,i,s] * g[b,j,s]
        plain_grad = np.einsum("bis,bjs->ij", feats, upstream)
        np.testing.assert_allclose(W.grad, plain_grad / J, rtol=1e-12, atol=1e-12)

    def test_forward_identical_across_grad_modes(self):
        rng = np.random.default_rng(12)
        feats = Tensor(rng.standard_normal((3, 6, 20)))
        W = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        for r in (1, 2, 3, 5):
            trace_a, trace_b = [], []
            a = conv1x1_capsule_forward(feats, Conv1x1CapsuleParams(W, r), grad_mode="none", trace=trace_a)
            b = conv1x1_capsule_forward(feats, Conv1x1CapsuleParams(W, r), grad_mode="last", trace=trace_b)
            np.testing.assert_allclose(a.data, b.data, rtol=1e-14, atol=1e-14)
            assert len(trace_a) == len(trace_b) == r
            for ca, cb in zip(trace_a, trace_b):
                np.testing.assert_allclose(ca, cb, rtol=0, atol=1e-12)
            for bi in range(3):
                trace_n = []
                g_naive, _ = route_conv1x1_naive(feats.data[bi], Conv1x1CapsuleParams(W, r), trace=trace_n)
                np.testing.assert_allclose(a.data[bi], g_naive, rtol=1e-12, atol=1e-12)
                for cn, ca in zip(trace_n, trace_a, strict=True):
                    np.testing.assert_allclose(ca[bi], cn, rtol=0, atol=1e-12)

    def test_forward_couplings_match_kernel_path(self):
        rng = np.random.default_rng(13)
        feats = rng.standard_normal((2, 5, 16))
        W = rng.standard_normal((5, 3))
        for r in (1, 2, 4):
            params = Conv1x1CapsuleParams(Tensor(W), r)
            out = conv1x1_capsule_forward(Tensor(feats), params)
            for bi in range(2):
                g_naive, _ = route_conv1x1_naive(feats[bi], params)
                np.testing.assert_allclose(out.data[bi], g_naive, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("grad_mode", ["none", "last"])
    def test_r0_matches_naive_and_plain_conv(self, grad_mode):
        # c1's bound: the shipped layer and the naive path within 1e-9 in f64
        rng = np.random.default_rng(21)
        B, I, J, H, Wd = 3, 6, 4, 5, 5
        feats4 = rng.standard_normal((B, I, H, Wd))
        W = rng.standard_normal((I, J))
        params = Conv1x1CapsuleParams(Tensor(W), iterations=0)
        trace = []
        out = conv1x1_capsule_forward(Tensor(feats4.reshape(B, I, -1)), params, grad_mode, trace=trace)
        assert len(trace) == 1
        np.testing.assert_array_equal(trace[0], np.ones((B, I, J)))
        for bi in range(B):
            g_naive, c_naive = route_conv1x1_naive(feats4[bi].reshape(I, -1), params)
            np.testing.assert_array_equal(c_naive, np.ones((I, J)))
            assert np.abs(out.data[bi] - g_naive).max() <= 1e-9
        plain = conv2d(Tensor(feats4), Tensor(W.T.reshape(J, I, 1, 1).copy()))
        np.testing.assert_allclose(out.data.reshape(B, J, H, Wd), plain.data, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    def test_gradients_match_finite_differences(self, r):
        rng = np.random.default_rng(14)
        feats = Tensor(rng.standard_normal((2, 4, 7)))
        W = Tensor(rng.standard_normal((4, 3)) * 0.7)
        probe = Tensor(rng.standard_normal((2, 3, 7)))

        def loss_wrt_w(t):
            out = conv1x1_capsule_forward(feats, Conv1x1CapsuleParams(t, r), "last", freeze_key="w")
            return (out * probe).sum()

        def loss_wrt_f(t):
            out = conv1x1_capsule_forward(t, Conv1x1CapsuleParams(W, r), "last", freeze_key="f")
            return (out * probe).sum()

        with frozen_routing():
            assert finite_diff_check(loss_wrt_w, W) <= 1e-4
        with frozen_routing():
            assert finite_diff_check(loss_wrt_f, feats) <= 1e-4

    def test_grad_mode_none_gradients(self):
        rng = np.random.default_rng(15)
        feats = Tensor(rng.standard_normal((2, 4, 7)))
        W = Tensor(rng.standard_normal((4, 3)) * 0.7)
        probe = Tensor(rng.standard_normal((2, 3, 7)))

        def loss(t):
            out = conv1x1_capsule_forward(feats, Conv1x1CapsuleParams(t, 3), "none", freeze_key="w")
            return (out * probe).sum()

        with frozen_routing():
            assert finite_diff_check(loss, W) <= 1e-4


# ---------------------------------------------------------------------------
# fully connected capsule layer
# ---------------------------------------------------------------------------


class TestRouteFc:
    def test_single_capsule_identity_weight_is_squash(self):
        rng = np.random.default_rng(16)
        u = rng.standard_normal((1, 4))
        W = np.eye(4).reshape(1, 1, 4, 4)
        v = route_fc(Tensor(u[None]), FcCapsuleParams(Tensor(W), 3))
        np.testing.assert_allclose(v.data[0, 0], squash(u[0]), rtol=1e-12, atol=1e-14)

    def test_zero_predictions_give_zero_capsules(self):
        u = Tensor(np.zeros((2, 3, 4)))
        W = Tensor(np.zeros((3, 2, 4, 5)))
        v = route_fc(u, FcCapsuleParams(W, 3))
        np.testing.assert_array_equal(v.data, np.zeros((2, 2, 5)))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        N, J, d = 3, 2, 2
        u = rng.standard_normal((N, d))
        W = rng.standard_normal((N, J, d, d))
        v = route_fc(Tensor(u[None]), FcCapsuleParams(Tensor(W), 3))
        v_ref, _ = route_fc_scalar_oracle(u.tolist(), W.tolist(), 3)
        np.testing.assert_allclose(v.data[0], v_ref, rtol=1e-10, atol=1e-12)

    def test_forward_identical_across_grad_modes(self):
        rng = np.random.default_rng(18)
        u = Tensor(rng.standard_normal((2, 5, 4)))
        W = Tensor(rng.standard_normal((5, 3, 4, 6)) * 0.3, requires_grad=True)
        for r in (1, 2, 3, 5):
            trace_a, trace_b = [], []
            a = route_fc(u, FcCapsuleParams(W, r), grad_mode="none", trace=trace_a)
            b = route_fc(u, FcCapsuleParams(W, r), grad_mode="last", trace=trace_b)
            np.testing.assert_allclose(a.data, b.data, rtol=1e-14, atol=1e-14)
            assert len(trace_a) == len(trace_b) == r
            for ca, cb in zip(trace_a, trace_b):
                np.testing.assert_allclose(ca, cb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "dtype,B,N,bound",
        [(np.float32, 16, 16, 0.0), (np.float32, 1, 16, 0.0), (np.float32, 16, 256, 1e-6), (np.float64, 4, 64, 1e-14)],
    )
    def test_r0_is_squash_of_summed_predictions(self, dtype, B, N, bound):
        # N = 16 is the desk net's capsule count, N = 256 the 256-px net's;
        # the unit-coupling combine is one matmul over n, bitwise numpy's
        # axis sum only at the desk shape
        rng = np.random.default_rng(22)
        u = Tensor(rng.standard_normal((B, N, 8)).astype(dtype))
        W = Tensor((rng.standard_normal((N, 4, 8, 16)) * 0.05).astype(dtype))
        trace = []
        v = route_fc(u, FcCapsuleParams(W, 0), trace=trace)
        want = squash(tsum(einsum2("bnd,njde->bnje", u, W), axis=1))
        assert v.dtype == dtype and len(trace) == 1
        np.testing.assert_array_equal(trace[0], np.ones((B, N, 4)))
        rel = np.abs(v.data - want.data).max() / np.abs(want.data).max()
        assert rel <= bound

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_gradients_match_finite_differences(self, r):
        rng = np.random.default_rng(19)
        u = Tensor(rng.standard_normal((2, 3, 4)))
        W = Tensor(rng.standard_normal((3, 2, 4, 5)) * 0.5)
        probe = Tensor(rng.standard_normal((2, 2, 5)))

        def loss_wrt_w(t):
            v = route_fc(u, FcCapsuleParams(t, r), "last", freeze_key="w")
            return (v * probe).sum()

        def loss_wrt_u(t):
            v = route_fc(t, FcCapsuleParams(W, r), "last", freeze_key="u")
            return (v * probe).sum()

        with frozen_routing():
            assert finite_diff_check(loss_wrt_w, W) <= 1e-4
        with frozen_routing():
            assert finite_diff_check(loss_wrt_u, u) <= 1e-4


@pytest.mark.parametrize("grad_mode", ["none", "last"])
def test_detached_rounds_leave_no_tape_records(grad_mode):
    # the detached rounds run the layer's one evidence update on
    # gradient-free operands, so the tape is as long at r = 5 as at r = 2
    rng = np.random.default_rng(20)
    feats = Tensor(rng.standard_normal((2, 4, 7)), requires_grad=True)
    W1 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    u = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    W2 = Tensor(rng.standard_normal((3, 2, 4, 5)) * 0.5, requires_grad=True)
    layers = {
        "conv1x1": lambda r: conv1x1_capsule_forward(feats, Conv1x1CapsuleParams(W1, r), grad_mode),
        "fc": lambda r: route_fc(u, FcCapsuleParams(W2, r), grad_mode),
    }
    for name, layer in layers.items():
        counts = []
        for r in range(2, 6):
            with Tape() as tape:
                layer(r)
            counts.append(len(tape.records))
        assert len(set(counts)) == 1, (name, counts)
