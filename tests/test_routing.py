"""Routing tests: scalar oracles, path equivalence, gradient scope."""

import math

import numpy as np
import pytest

from capsroute.conv import conv2d
from capsroute.routing import (
    Conv1x1CapsuleParams,
    FcCapsuleParams,
    RoutingError,
    RoutingNumericalError,
    conv1x1_capsule_forward,
    coupling_softmax,
    frozen_routing,
    gram,
    route_conv1x1_kernel,
    route_conv1x1_naive,
    route_fc,
    squash,
)
from capsroute.tensor import Tape, Tensor, backward, finite_diff_check


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
    def test_zero_logits_uniform(self):
        c = coupling_softmax(np.zeros((3, 4)))
        np.testing.assert_allclose(c, 0.25, rtol=0, atol=1e-15)

    def test_log_integer_row(self):
        b = np.log(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(coupling_softmax(b), [[1 / 6, 2 / 6, 3 / 6]], rtol=1e-14)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((20, 7)) * 10
        c = coupling_softmax(b)
        np.testing.assert_allclose(c.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(c >= 0)
        shifted = coupling_softmax(b + rng.standard_normal((20, 1)))
        np.testing.assert_allclose(shifted, c, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------


class TestGram:
    def test_orthonormal_maps_give_identity(self):
        F = np.eye(4)
        np.testing.assert_allclose(gram(F), np.eye(4), rtol=0, atol=1e-15)

    def test_hand_dot_products(self):
        G = gram(np.array([[1.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(G, [[1.0, 1.0], [1.0, 2.0]])

    def test_matches_pairwise_loop_oracle(self):
        rng = np.random.default_rng(3)
        F = rng.standard_normal((6, 17))
        expect = np.zeros((6, 6))
        for l in range(6):
            for i in range(6):
                expect[l, i] = sum(F[l, s] * F[i, s] for s in range(17))
        np.testing.assert_allclose(gram(F), expect, rtol=1e-12, atol=1e-12)

    def test_exactly_symmetric_and_psd(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((8, 30))
        G = gram(F)
        np.testing.assert_array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-9

    def test_empty_rejected(self):
        with pytest.raises(RoutingError):
            gram(np.zeros((0, 5)))


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

    def test_iterations_below_one_rejected(self):
        with pytest.raises(RoutingError):
            Conv1x1CapsuleParams(np.ones((2, 2)), iterations=0)


# ---------------------------------------------------------------------------
# kernel (Gram) routing path
# ---------------------------------------------------------------------------


class TestKernelRouting:
    def test_zero_weights_stay_uniform_with_zero_norms(self):
        rng = np.random.default_rng(8)
        F = rng.standard_normal((5, 12))
        params = Conv1x1CapsuleParams(np.zeros((5, 3)), iterations=4)
        c, norms = route_conv1x1_kernel(gram(F), params)
        np.testing.assert_allclose(c, 1.0 / 3.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(norms, np.zeros(3))

    def test_orthonormal_features_reduce_agreement_to_wsq_c(self):
        # with G = I the expansion collapses to f_hat . g = W_ij^2 c_ij;
        # after one uniform iteration b_ij = W_ij^2/J * scale_j
        W = np.array([[0.5, -2.0], [1.5, 0.25], [-1.0, 1.0]])
        J = 2
        params = Conv1x1CapsuleParams(W, iterations=2)
        trace = []
        c, _ = route_conv1x1_kernel(np.eye(3), params, trace=trace)
        A = W * W / J
        n2 = (A / J).sum(axis=0)
        b = A * (np.sqrt(n2) / (1 + n2))
        np.testing.assert_allclose(trace[1], coupling_softmax(b), rtol=1e-12)

    def test_frozen_instance_matches_naive(self):
        F = np.array(_FROZEN_F)
        params = Conv1x1CapsuleParams(np.array(_FROZEN_W), 3)
        g, c_naive = route_conv1x1_naive(F, params)
        c_kernel, norms = route_conv1x1_kernel(gram(F), params)
        np.testing.assert_allclose(c_kernel, c_naive, rtol=0, atol=1e-9)
        np.testing.assert_allclose(norms, np.linalg.norm(g, axis=-1), rtol=0, atol=1e-9)

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
            g, c_naive = route_conv1x1_naive(F, params, trace=trace_n)
            c_kernel, norms = route_conv1x1_kernel(gram(F), params, trace=trace_k)
            np.testing.assert_allclose(c_kernel, c_naive, rtol=0, atol=1e-9)
            np.testing.assert_allclose(norms, np.linalg.norm(g, axis=-1), rtol=0, atol=1e-9)
            for ck, cn in zip(trace_k, trace_n):
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
            with pytest.raises(RoutingNumericalError):
                route_conv1x1_kernel(-np.eye(I, dtype=dt), Conv1x1CapsuleParams(np.ones((I, J), dtype=dt), 3))

    def test_non_square_gram_rejected(self):
        with pytest.raises(RoutingError):
            route_conv1x1_kernel(np.zeros((3, 4)), Conv1x1CapsuleParams(np.ones((3, 2))))


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
                trace_k = []
                route_conv1x1_kernel(gram(feats.data[bi]), Conv1x1CapsuleParams(W, r), trace=trace_k)
                for ck, ca in zip(trace_k, trace_a, strict=True):
                    np.testing.assert_allclose(ca[bi], ck, rtol=0, atol=1e-12)

    def test_forward_couplings_match_kernel_path(self):
        rng = np.random.default_rng(13)
        feats = rng.standard_normal((2, 5, 16))
        W = rng.standard_normal((5, 3))
        for r in (1, 2, 4):
            params = Conv1x1CapsuleParams(Tensor(W), r)
            out = conv1x1_capsule_forward(Tensor(feats), params)
            for bi in range(2):
                c, _ = route_conv1x1_kernel(gram(feats[bi]), params)
                expect = np.einsum("ij,is->js", W * c, feats[bi])
                np.testing.assert_allclose(out.data[bi], expect, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
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

    @pytest.mark.parametrize("r", [1, 2, 3])
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
