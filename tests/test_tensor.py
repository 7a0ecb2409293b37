"""Tensor engine tests: forward oracles, gradient checks, determinism."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from capsroute import conv
from capsroute.conv import BatchNormState, batchnorm, conv2d, pool2d
from capsroute.model import NetworkConfig, build_network
from capsroute.tensor import (
    AutodiffError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    einsum2,
    finite_diff_check,
    matmul,
    relu,
    softmax_lastdim,
    vec_norm,
)


# ---------------------------------------------------------------------------
# Reference oracles (straight loops, written before the fast paths)
# ---------------------------------------------------------------------------


def conv2d_loops(x, k, stride=1):
    """Six-nested-loop valid convolution: the trusted slow path."""
    B, C, H, W = x.shape
    O, _, kh, kw = k.shape
    oH = (H - kh) // stride + 1
    oW = (W - kw) // stride + 1
    out = np.zeros((B, O, oH, oW), dtype=x.dtype)
    for b in range(B):
        for o in range(O):
            for i in range(oH):
                for j in range(oW):
                    acc = 0.0
                    for c in range(C):
                        for u in range(kh):
                            for v in range(kw):
                                acc += x[b, c, i * stride + u, j * stride + v] * k[o, c, u, v]
                    out[b, o, i, j] = acc
    return out


def pool2d_loops(x, mode, size, stride):
    B, C, H, W = x.shape
    oH = (H - size) // stride + 1
    oW = (W - size) // stride + 1
    out = np.zeros((B, C, oH, oW), dtype=x.dtype)
    for b in range(B):
        for c in range(C):
            for i in range(oH):
                for j in range(oW):
                    win = x[b, c, i * stride : i * stride + size, j * stride : j * stride + size]
                    out[b, c, i, j] = win.max() if mode == "max" else win.mean()
    return out


def max_pool_loops(x, size, stride, padding, g):
    """Per-window max pool and its gradient for output gradient g.

    Each window's maximum is taken over its in-bounds cells; its gradient
    goes to the first in-bounds cell, in row-major window order, that
    holds the maximum.
    """
    B, C, H, W = x.shape

    def extent(n):
        if padding == "valid":
            return (n - size) // stride + 1, 0
        out = -(-n // stride)
        return out, max(0, (out - 1) * stride + size - n) // 2

    (oH, pt), (oW, pl) = extent(H), extent(W)
    y = np.empty((B, C, oH, oW), dtype=x.dtype)
    dx = np.zeros_like(x)
    for b in range(B):
        for c in range(C):
            for i in range(oH):
                for j in range(oW):
                    cells = [
                        (h, w)
                        for h in range(i * stride - pt, i * stride - pt + size)
                        for w in range(j * stride - pl, j * stride - pl + size)
                        if 0 <= h < H and 0 <= w < W
                    ]
                    top = max(x[b, c, h, w] for h, w in cells)
                    h, w = next(cell for cell in cells if x[b, c][cell] == top)
                    y[b, c, i, j] = top
                    dx[b, c, h, w] += g[b, c, i, j]
    return y, dx


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 5, 5)))
        k = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        y = conv2d(x, k, stride=1, padding="valid")
        np.testing.assert_array_equal(y.data, x.data)

    def test_ones_3x3_on_constant_image(self):
        c = 0.7
        x = Tensor(np.full((1, 1, 6, 6), c))
        k = Tensor(np.ones((1, 1, 3, 3)))
        y = conv2d(x, k, padding="valid")
        np.testing.assert_allclose(y.data, 9 * c, rtol=0, atol=1e-14)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 5, 5))
        k = rng.standard_normal((2, 3, 3, 3))
        got = conv2d(Tensor(x), Tensor(k), stride=1, padding="valid")
        np.testing.assert_allclose(got.data, conv2d_loops(x, k), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_strided_matches_loop_oracle(self, stride):
        rng = np.random.default_rng(stride)
        x = rng.standard_normal((2, 2, 9, 9))
        k = rng.standard_normal((3, 2, 3, 3))
        got = conv2d(Tensor(x), Tensor(k), stride=stride, padding="valid")
        np.testing.assert_allclose(got.data, conv2d_loops(x, k, stride), rtol=1e-12, atol=1e-12)

    def test_same_padding_shape_and_center(self):
        # same padding with stride 1 keeps the spatial extent and agrees
        # with the valid conv on the interior
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 8, 8))
        k = rng.standard_normal((2, 2, 3, 3))
        same = conv2d(Tensor(x), Tensor(k), padding="same")
        valid = conv2d(Tensor(x), Tensor(k), padding="valid")
        assert same.shape == (1, 2, 8, 8)
        np.testing.assert_allclose(same.data[:, :, 1:-1, 1:-1], valid.data, rtol=1e-12, atol=1e-12)

    def test_same_padding_stride2_size(self):
        x = Tensor(np.zeros((1, 1, 7, 7)))
        k = Tensor(np.zeros((1, 1, 3, 3)))
        assert conv2d(x, k, stride=2, padding="same").shape == (1, 1, 4, 4)

    def test_channel_mismatch_raises_with_shapes(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        k = Tensor(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ShapeError, match=r"3.*2"):
            conv2d(x, k)


# ---------------------------------------------------------------------------
# conv2d's two paths: im2col and the FFT correlation
# ---------------------------------------------------------------------------

# (B, C, O, H, W, k, padding): the 9x9 head (48 -> 32 maps) as the desk
# (64 px) and paper (256 px) networks run it in training, predict and Grad-CAM
HEAD_SHAPES = [
    (16, 48, 32, 8, 8, 9, "same"),
    (64, 48, 32, 8, 8, 9, "same"),
    (1, 48, 32, 8, 8, 9, "same"),
    (16, 48, 32, 32, 32, 9, "same"),
    (1, 48, 32, 32, 32, 9, "same"),
]


@contextmanager
def conv_path(fft):
    """Run `conv2d` on the FFT path (True) or on im2col (False)."""
    with mock.patch.object(conv, "_fft_pays", lambda *shapes: fft):
        yield


@contextmanager
def recorded_paths():
    """Record the path `conv2d` picks for each call (True: FFT)."""
    taken = []
    choose = conv._fft_pays

    def spy(*shapes):
        taken.append(choose(*shapes))
        return taken[-1]

    with mock.patch.object(conv, "_fft_pays", spy):
        yield taken


def conv_on_path(fft, x, k, padding, g):
    """(out, gx, gk) of a stride-1 `conv2d` for upstream gradient g."""
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    with conv_path(fft), Tape() as tape:
        out = conv2d(xt, kt, 1, padding)
        backward(tape, (out * Tensor(g)).sum())
    return out.data, xt.grad, kt.grad


def pad_same(x, k):
    lo = (k - 1) // 2
    return np.pad(x, ((0, 0), (0, 0), (lo, k - 1 - lo), (lo, k - 1 - lo)))


def rel_err(got, want):
    """Largest error relative to the largest reference entry."""
    return np.abs(got - want).max() / np.abs(want).max()


def head_case(shape, seed, dtype=np.float64):
    B, C, O, H, W, k, padding = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((B, C, H, W)).astype(dtype)
    kern = rng.standard_normal((O, C, k, k)).astype(dtype)
    oH = H if padding == "same" else H - k + 1
    oW = W if padding == "same" else W - k + 1
    g = rng.standard_normal((B, O, oH, oW)).astype(dtype)
    return x, kern, padding, g


class TestConvPaths:
    @pytest.mark.parametrize(
        "shape",
        [
            (2, 3, 2, 8, 8, 9, "same"),  # the head's kernel, wider than its input
            (1, 1, 1, 32, 32, 9, "same"),  # the paper head's extent
            (1, 2, 2, 1, 3, 9, "same"),  # the FFT grid narrower than the kernel
            (2, 3, 4, 9, 13, 5, "valid"),
            (2, 2, 3, 5, 7, 4, "same"),  # even kernel: the odd pad cell goes low side
            (1, 2, 3, 6, 7, 6, "valid"),
        ],
    )
    def test_both_paths_match_loop_oracle_f64(self, shape):
        x, kern, padding, g = head_case(shape, seed=sum(shape[:6]))
        want = conv2d_loops(pad_same(x, kern.shape[-1]) if padding == "same" else x, kern)
        im2col, fft = (conv_on_path(path, x, kern, padding, g) for path in (False, True))
        assert rel_err(im2col[0], want) <= 1e-12
        assert rel_err(fft[0], want) <= 1e-12
        for got, ref in zip(fft, im2col):
            assert rel_err(got, ref) <= 1e-12

    @pytest.mark.parametrize("shape", HEAD_SHAPES)
    def test_paths_agree_at_head_shapes_f64(self, shape):
        im2col, fft = (conv_on_path(path, *head_case(shape, seed=5)) for path in (False, True))
        for got, ref in zip(fft, im2col):
            assert rel_err(got, ref) <= 1e-12

    @pytest.mark.parametrize("shape", [HEAD_SHAPES[0], HEAD_SHAPES[3]])
    def test_f32_error_relative_to_map_maximum(self, shape):
        # both paths within 2e-6 (about 17 f32 eps) of max|f64 result|, for
        # the output and both gradients; measured: im2col <= 5.6e-7 and
        # FFT <= 2.9e-7 at these shapes
        x, kern, padding, g = head_case(shape, seed=6)
        want = conv_on_path(False, x, kern, padding, g)
        lo = [a.astype(np.float32) for a in (x, kern)]
        for path in (False, True):
            got = conv_on_path(path, *lo, padding, g.astype(np.float32))
            for a, b in zip(got, want):
                assert a.dtype == np.float32
                assert rel_err(a, b) <= 2e-6

    def test_nonfinite_input_spreads_over_the_image_on_the_fft_path(self):
        x, kern, padding, g = head_case((2, 3, 2, 8, 8, 9, "same"), seed=7)
        x[0, 1, 0, 0] = np.nan
        with conv_path(False):
            local = conv2d(Tensor(x), Tensor(kern), 1, padding).data
        with conv_path(True):
            spread = conv2d(Tensor(x), Tensor(kern), 1, padding).data
        # im2col: only the windows over cell (0, 0), rows and columns 0..4
        assert np.isnan(local[0, :, :5, :5]).all() and np.isfinite(local[0, :, 5:]).all()
        assert np.isnan(spread[0]).all()
        assert np.isfinite(local[1]).all() and np.isfinite(spread[1]).all()

    def test_network_convs_take_their_side(self):
        # the desk recipe's network at 64 px and 256 px; stem and 3x3
        # convs stay on im2col, the 9x9 head goes to FFT at training and
        # predict batches, and at batch 1 (Grad-CAM) only at 256 px
        recipe = dict(
            down_channels=(16, 16),
            n_dense_blocks=1,
            layers_per_block=4,
            growth_rate=8,
            bottleneck_width=4,
            head_channels=32,
        )
        for size, batches in ((64, (1, 16, 64)), (256, (1, 16))):
            net = build_network(NetworkConfig(input_size=size, **recipe), seed=0)
            for B in batches:
                calls = []
                original = conv.conv2d
                with recorded_paths() as taken, mock.patch("capsroute.model.conv2d") as spy:
                    spy.side_effect = lambda x, k, *a, **kw: calls.append(k.shape[-1]) or original(x, k, *a, **kw)
                    net.pre_pool(np.zeros((B, 1, size, size), dtype=np.float32), mode="eval")
                assert calls == [7, 1] + [3] * 4 + [9]
                head_fft = B > 1 or size == 256
                assert taken == [False, False] + [False] * 4 + [head_fft], (size, B)


# ---------------------------------------------------------------------------
# pool2d
# ---------------------------------------------------------------------------


class TestPool2d:
    def test_avg_constant_image(self):
        x = Tensor(np.full((1, 1, 4, 4), 2.5))
        y = pool2d(x, "avg", size=2, stride=2)
        np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2), 2.5))

    def test_max_window2(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        y = pool2d(x, "max", size=2, stride=2)
        assert y.data.reshape(()) == 4.0

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_matches_loop_oracle(self, mode):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 8, 8))
        got = pool2d(Tensor(x), mode, size=3, stride=2)
        if mode == "max":
            np.testing.assert_array_equal(got.data, pool2d_loops(x, mode, 3, 2))
        else:
            np.testing.assert_allclose(got.data, pool2d_loops(x, mode, 3, 2), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape, size, stride, padding",
        [
            ((2, 3, 9, 9), 3, 2, "same"),
            ((2, 3, 9, 9), 3, 2, "valid"),
            ((2, 3, 8, 8), 3, 2, "same"),
            ((2, 3, 8, 8), 3, 2, "valid"),
            ((2, 3, 7, 10), 3, 2, "same"),
            ((2, 3, 8, 8), 2, 2, "valid"),
            ((2, 3, 7, 9), 2, 2, "same"),
            ((1, 2, 7, 6), 3, 1, "same"),
            ((1, 2, 11, 10), 2, 3, "valid"),
            ((1, 2, 1, 1), 3, 2, "same"),
        ],
    )
    def test_max_bitwise_matches_window_loop_oracle(self, shape, size, stride, padding, dtype):
        # values rounded to 0.5 make ties common; half-integer output
        # gradients make every sum exact, so any summation order agrees
        rng = np.random.default_rng(sum(shape) + 10 * size + stride)
        x = Tensor((np.round(rng.standard_normal(shape) * 2) / 2).astype(dtype), requires_grad=True)
        with Tape() as tape:
            y = pool2d(x, "max", size, stride, padding)
            g = (rng.integers(-4, 5, y.shape) / 2).astype(dtype)
            backward(tape, (y * Tensor(g)).sum())
        y_ref, dx_ref = max_pool_loops(x.data, size, stride, padding, g)
        np.testing.assert_array_equal(y.data, y_ref)
        np.testing.assert_array_equal(x.grad, dx_ref)
        assert y.dtype == x.grad.dtype == dtype

    def test_window_larger_than_input_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError):
            pool2d(x, "max", size=3, stride=1)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_raises(self, mode, stride):
        with pytest.raises(ValueError, match="stride"):
            pool2d(Tensor(np.zeros((1, 1, 4, 4))), mode, size=2, stride=stride)

    def test_same_padding_avg_keeps_constant(self):
        # padded cells are excluded from the average, so a constant image
        # stays constant even where windows hang over the edge
        x = Tensor(np.full((1, 1, 5, 5), 3.0))
        y = pool2d(x, "avg", size=2, stride=1, padding="same")
        assert y.shape == (1, 1, 5, 5)
        np.testing.assert_allclose(y.data, 3.0, rtol=0, atol=1e-15)

    def test_same_padding_max_ignores_pad(self):
        x = Tensor(np.full((1, 1, 4, 4), -5.0))
        y = pool2d(x, "max", size=3, stride=2, padding="same")
        np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2), -5.0))

    def test_max_tie_gradient_goes_to_first(self):
        x = Tensor(np.array([[[[1.0, 1.0], [1.0, 1.0]]]]), requires_grad=True)
        with Tape() as tape:
            y = pool2d(x, "max", size=2, stride=2)
            backward(tape, y.sum())
        np.testing.assert_array_equal(x.grad, np.array([[[[1.0, 0.0], [0.0, 0.0]]]]))

        # constant image, 3/2 "same": windows overlap and hang over the
        # edge; each window's gradient lands on its first in-bounds cell
        H, W, size, stride = 7, 6, 3, 2
        x = Tensor(np.full((1, 2, H, W), 0.5), requires_grad=True)
        g = np.random.default_rng(3).standard_normal((1, 2, 4, 3))
        with Tape() as tape:
            y = pool2d(x, "max", size=size, stride=stride, padding="same")
            backward(tape, (y * Tensor(g)).sum())
        pt, pl = 1, 0  # low-side padding of each axis
        expect = np.zeros((1, 2, H, W))
        for oh in range(4):
            for ow in range(3):
                expect[:, :, max(oh * stride - pt, 0), max(ow * stride - pl, 0)] += g[:, :, oh, ow]
        np.testing.assert_allclose(x.grad, expect, rtol=0, atol=1e-12)

    def test_avgpool_upsample_replication_preserves_window_mean(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 8, 8))
        pooled = pool2d(Tensor(x), "avg", size=2, stride=2).data
        up = pooled.repeat(2, axis=2).repeat(2, axis=3)
        for i in range(4):
            for j in range(4):
                w_orig = x[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean(axis=(2, 3))
                w_up = up[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean(axis=(2, 3))
                np.testing.assert_array_equal(w_orig, w_up)


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------


class TestBatchNorm:
    def test_already_normalized_passthrough(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3, 4, 4))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        y = batchnorm(Tensor(x), gamma, beta, BatchNormState.fresh(3), mode="train")
        np.testing.assert_allclose(y.data, x, atol=1e-4)

    def test_gamma_zero_beta_five(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)))
        y = batchnorm(x, Tensor(np.zeros(2)), Tensor(np.full(2, 5.0)), BatchNormState.fresh(2))
        np.testing.assert_array_equal(y.data, np.full_like(y.data, 5.0))

    def test_train_mode_statistics(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((16, 4, 8, 8)) * 3 + 1)
        y = batchnorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), BatchNormState.fresh(4), mode="train")
        mean = y.data.mean(axis=(0, 2, 3))
        var = y.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-6)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    def test_running_stats_ema_and_eval_mode(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 2, 4, 4)) + 2.0
        state = BatchNormState.fresh(2)
        batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, mode="train")
        expect_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(state.running_mean, expect_mean, rtol=1e-12)
        y = batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, mode="eval")
        expect = (x - state.running_mean.reshape(1, 2, 1, 1)) / np.sqrt(
            state.running_var.reshape(1, 2, 1, 1) + 1e-5
        )
        np.testing.assert_allclose(y.data, expect, rtol=1e-12)

    def test_empty_batch_raises(self):
        with pytest.raises(ShapeError):
            batchnorm(
                Tensor(np.zeros((0, 2, 3, 3))), Tensor(np.ones(2)), Tensor(np.zeros(2)), BatchNormState.fresh(2)
            )

    def test_no_spatial_cells_raises_and_leaves_state(self):
        state = BatchNormState.fresh(1)
        state.running_mean[:] = 0.25
        mean, var = state.running_mean.copy(), state.running_var.copy()
        with pytest.raises(ShapeError):
            batchnorm(Tensor(np.zeros((2, 1, 0, 0))), Tensor(np.ones(1)), Tensor(np.zeros(1)), state, mode="train")
        np.testing.assert_array_equal(state.running_mean, mean)
        np.testing.assert_array_equal(state.running_var, var)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype, bound", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("shape", [(16, 48, 32, 32), (16, 32, 32, 32), (3, 5, 7, 9), (2, 3, 5, 1), (1, 4, 1, 1)])
    def test_matches_f64_reference(self, shape, dtype, bound, mode):
        # output, all three gradients and the running stats against the
        # textbook formulas in f64, each relative to its largest entry
        B, C, H, W = shape
        rng = np.random.default_rng(B * C + H * W)
        x = Tensor((rng.standard_normal(shape) * 3 + 1).astype(dtype), requires_grad=True)
        gamma = Tensor((rng.standard_normal(C) + 1).astype(dtype), requires_grad=True)
        beta = Tensor(rng.standard_normal(C).astype(dtype), requires_grad=True)
        g = rng.standard_normal(shape).astype(dtype)
        state = BatchNormState.fresh(C, dtype=dtype)
        state.running_mean = rng.standard_normal(C).astype(dtype)
        state.running_var = (rng.random(C) + 0.5).astype(dtype)
        rm0, rv0 = state.running_mean.astype(np.float64), state.running_var.astype(np.float64)
        with Tape() as tape:
            y = batchnorm(x, gamma, beta, state, mode=mode)
            backward(tape, (y * Tensor(g)).sum())

        x64, gam, bet, g64 = (a.astype(np.float64) for a in (x.data, gamma.data, beta.data, g))
        n = B * H * W
        if mode == "train":
            mu, var = x64.mean(axis=(0, 2, 3)), x64.var(axis=(0, 2, 3))
            rm, rv = 0.9 * rm0 + 0.1 * mu, 0.9 * rv0 + 0.1 * var
        else:
            mu, var, rm, rv = rm0, rv0, rm0, rv0
        c = (slice(None), None, None)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x64 - mu[c]) * inv_std[c]
        gbet = g64.sum(axis=(0, 2, 3))
        ggam = (g64 * xhat).sum(axis=(0, 2, 3))
        gx = (gam * inv_std)[c] * g64
        if mode == "train":
            gx = gx - xhat * (gam * inv_std * ggam / n)[c] - (gam * inv_std * gbet / n)[c]
        expect = {
            "out": (y.data, xhat * gam[c] + bet[c]),
            "gx": (x.grad, gx),
            "ggamma": (gamma.grad, ggam),
            "gbeta": (beta.grad, gbet),
            "running_mean": (state.running_mean, rm),
            "running_var": (state.running_var, rv),
        }
        for name, (got, ref) in expect.items():
            assert got.dtype == dtype, name
            scale = np.abs(ref).max() or 1.0
            assert np.abs(got - ref).max() <= bound * scale, name


# ---------------------------------------------------------------------------
# relu / backward basics
# ---------------------------------------------------------------------------


class TestBackwardBasics:
    def test_relu_values(self):
        y = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(y.data, [0.0, 0.0, 2.0])

    def test_relu_gradient_mask(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal(50), requires_grad=True)
        with Tape() as tape:
            backward(tape, relu(x).sum())
        np.testing.assert_array_equal(x.grad, (x.data > 0).astype(float))

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            backward(tape, x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            backward(tape, (x * x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * x
            with pytest.raises(AutodiffError):
                backward(tape, y)

    def test_backward_twice_bitwise_identical(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        k = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        with Tape() as tape:
            loss = pool2d(relu(conv2d(x, k)), "avg", 2, 2).sum()
            backward(tape, loss)
            gx1, gk1 = x.grad.copy(), k.grad.copy()
            backward(tape, loss)
        np.testing.assert_array_equal(x.grad, gx1)
        np.testing.assert_array_equal(k.grad, gk1)

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            backward(tape, (x * x + x).sum())
        np.testing.assert_allclose(x.grad, [7.0])

    def test_view_gradient_is_not_written_by_accumulation(self):
        # the reshape VJP hands x a view of y.grad as x's first gradient;
        # x's second contribution must not write through it into y.grad
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        v, w = rng.standard_normal((2, 6)), rng.standard_normal((3, 4))
        with Tape() as tape:
            z = x * Tensor(v)  # recorded first, so its VJP runs last
            y = x.reshape(3, 4)
            backward(tape, (y * Tensor(w)).sum() + z.sum())
        np.testing.assert_array_equal(y.grad, w)
        np.testing.assert_array_equal(x.grad, w.reshape(2, 6) + v)


# ---------------------------------------------------------------------------
# einsum2 against numpy's einsum
# ---------------------------------------------------------------------------

# every spec the package contracts, at extents that differ per index
EINSUM2_SPECS = [
    "bis,bls->bil",
    "bij,bis->bjs",
    "bli,blj->bij",
    "bnd,njde->bnje",
    "bnj,bnjd->bjd",
    "bnjd,bjd->bnj",
    "bnj,bjd->bnjd",
    "ij,jk->ik",
]
EXTENT = dict(b=3, i=5, j=4, l=6, s=7, n=6, d=3, e=2, k=4)


def _einsum2_case(spec, dtype, seed, a=None, b=None):
    """einsum2's output and both input gradients for the upstream gradient

    G, next to np.einsum's in f64, with a bound of 4 * K * eps(dtype) times
    the same contraction of absolute values (K terms per sum).
    """
    lhs, out_sub = spec.split("->")
    a_sub, b_sub = lhs.split(",")
    rng = np.random.default_rng(seed)
    if a is None:
        a = rng.standard_normal([EXTENT[ch] for ch in a_sub]).astype(dtype)
    if b is None:
        b = rng.standard_normal([EXTENT[ch] for ch in b_sub]).astype(dtype)
    G = rng.standard_normal(np.einsum(spec, a, b).shape).astype(dtype)
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = einsum2(spec, ta, tb)
        backward(tape, (out * Tensor(G)).sum())
    eps = np.finfo(dtype).eps
    checks = []
    for got, sub_spec, x, y in (
        (out.data, spec, a, b),
        (ta.grad, f"{out_sub},{b_sub}->{a_sub}", G, b),
        (tb.grad, f"{a_sub},{out_sub}->{b_sub}", a, G),
    ):
        ins, res = sub_spec.split("->")
        x_sub, y_sub = ins.split(",")
        terms = int(np.prod([EXTENT[ch] for ch in set(x_sub) & set(y_sub) - set(res)]))
        x64, y64 = x.astype(np.float64), y.astype(np.float64)
        want = np.einsum(sub_spec, x64, y64)
        bound = 4 * terms * eps * np.einsum(sub_spec, np.abs(x64), np.abs(y64))
        checks.append((got, want, bound))
    return checks


class TestEinsum2:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec", EINSUM2_SPECS)
    def test_forward_and_vjps_match_numpy(self, spec, dtype):
        for got, want, bound in _einsum2_case(spec, dtype, seed=len(spec)):
            assert got.dtype == dtype and got.shape == want.shape
            assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stride_zero_broadcast_operand(self, dtype):
        # the baseline's plain 1x1 contracts a weight matrix broadcast over the batch
        w = np.random.default_rng(30).standard_normal((5, 4)).astype(dtype)
        wb = np.broadcast_to(w, (3, 5, 4))
        assert wb.strides[0] == 0
        for got, want, bound in _einsum2_case("bij,bis->bjs", dtype, seed=31, a=wb):
            assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_aliased_operand(self, dtype):
        # the Gram build passes one tensor as both operands; its gradient
        # is the sum of both VJPs
        rng = np.random.default_rng(32)
        F = rng.standard_normal((3, 5, 7)).astype(dtype)
        G = rng.standard_normal((3, 5, 5)).astype(dtype)
        t = Tensor(F, requires_grad=True)
        with Tape() as tape:
            out = einsum2("bis,bls->bil", t, t)
            backward(tape, (out * Tensor(G)).sum())
        F64, G64 = F.astype(np.float64), G.astype(np.float64)
        want_out = np.einsum("bis,bls->bil", F64, F64)
        want_grad = np.einsum("bil,bls->bis", G64, F64) + np.einsum("bis,bil->bls", F64, G64)
        eps = np.finfo(dtype).eps
        bound_out = 4 * 7 * eps * np.einsum("bis,bls->bil", np.abs(F64), np.abs(F64))
        bound_grad = 8 * 5 * eps * np.einsum("bil,bls->bis", np.abs(G64) + np.abs(G64).transpose(0, 2, 1), np.abs(F64))
        assert np.all(np.abs(out.data - want_out) <= bound_out)
        assert np.all(np.abs(t.grad - want_grad) <= bound_grad)

    def test_malformed_specs_rejected(self):
        a = Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            einsum2("ij,jk->ik", a, Tensor(np.ones((4, 2))))  # j is 3 and 4
        with pytest.raises(ShapeError):
            einsum2("ij,kl->ik", a, Tensor(np.ones((2, 2))))  # j summed over one operand only
        with pytest.raises(ShapeError):
            einsum2("ijk,jk->ik", a, Tensor(np.ones((3, 2))))  # three subscripts, two axes


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


class TestFiniteDiff:
    def test_linear_function_tight(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]))
        assert finite_diff_check(lambda t: (3.0 * t).sum(), x) <= 1e-10

    def test_quadratic_function(self):
        x = Tensor(np.array([1.0, 2.0, -1.5]))
        assert finite_diff_check(lambda t: (t * t).sum(), x) <= 1e-8

    def test_conv_input_and_kernel(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 2, 6, 6)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        assert finite_diff_check(lambda t: conv2d(t, k, stride=2, padding="same").sum(), x) <= 1e-4
        assert finite_diff_check(lambda t: (conv2d(x, t) * conv2d(x, t)).sum(), k) <= 1e-4

    @pytest.mark.parametrize("mode,padding", [("max", "valid"), ("avg", "valid"), ("max", "same"), ("avg", "same")])
    def test_pool_gradients(self, mode, padding):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 2, 7, 7)))

        def f(t):
            y = pool2d(t, mode, 3, 2, padding)
            return (y * y).sum()

        assert finite_diff_check(f, x) <= 1e-4

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batchnorm_gradients(self, mode):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)))
        gamma = Tensor(rng.standard_normal(3) + 1.0)
        beta = Tensor(rng.standard_normal(3))
        state = BatchNormState.fresh(3)
        state.running_mean = rng.standard_normal(3)
        state.running_var = rng.random(3) + 0.5
        # random weights break normalization invariances that would
        # otherwise make the loss (nearly) constant in x
        w = Tensor(rng.standard_normal(x.shape))

        def loss_of(t, g, b):
            y = batchnorm(t, g, b, state, mode=mode) * w
            return (y * y).sum()

        assert finite_diff_check(lambda t: loss_of(t, gamma, beta), x) <= 1e-4
        assert finite_diff_check(lambda t: loss_of(x, t, beta), gamma) <= 1e-4
        assert finite_diff_check(lambda t: loss_of(x, gamma, t), beta) <= 1e-4

    def test_matmul_einsum_softmax_norm(self):
        rng = np.random.default_rng(14)
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 5)))
        assert finite_diff_check(lambda t: matmul(t, b).sum(), a) <= 1e-4
        assert finite_diff_check(lambda t: einsum2("ij,jk->ik", a, t).sum(), b) <= 1e-4
        c = Tensor(rng.standard_normal((5, 6)))
        assert finite_diff_check(lambda t: (softmax_lastdim(t) * softmax_lastdim(t)).sum(), c) <= 1e-4
        v = Tensor(rng.standard_normal((4, 3)) + 0.5)
        assert finite_diff_check(lambda t: vec_norm(t, axis=-1).sum(), v) <= 1e-4
        # a batched spec, the routed 1x1 combination, under a squared loss
        cw = Tensor(rng.standard_normal((2, 3, 4)))
        f = Tensor(rng.standard_normal((2, 3, 5)))
        for fn, x in (
            (lambda t: einsum2("bij,bis->bjs", t, f), cw),
            (lambda t: einsum2("bij,bis->bjs", cw, t), f),
        ):
            assert finite_diff_check(lambda t: (fn(t) * fn(t)).sum(), x) <= 1e-4

    def test_composed_network_piece(self):
        # conv -> relu -> pool -> sum, checked against central differences
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))

        def f(t):
            return pool2d(relu(conv2d(t, k, padding="same")), "max", 2, 2).sum()

        assert finite_diff_check(f, x) <= 1e-4

    def test_randomized_shapes_sweep(self):
        # randomized-shape gradient checks at stride 1, 100 in total, then
        # fixed shapes for the strided, large-kernel and non-square cases
        rng = np.random.default_rng(16)
        shapes = []
        for trial in range(50):
            B = int(rng.integers(1, 3))
            C = int(rng.integers(1, 4))
            H = int(rng.integers(5, 9))
            O = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            shapes.append((B, C, H, H, O, k, 1, "same" if trial % 2 else "valid"))
        shapes += [
            # (B, C, H, W, O, k, stride, padding)
            (1, 2, 7, 7, 2, 3, 2, "same"),
            (2, 1, 8, 8, 2, 3, 2, "valid"),
            (1, 2, 8, 8, 2, 1, 2, "valid"),  # the strided 1x1 of the stem
            (1, 1, 11, 11, 2, 7, 2, "same"),  # the 7x7/2 stem conv
            (1, 2, 9, 9, 1, 2, 3, "same"),
            (1, 1, 10, 10, 2, 4, 3, "valid"),
            (1, 2, 8, 8, 2, 9, 1, "same"),  # kernel larger than its input, like the 9x9 head
            (1, 1, 5, 5, 2, 7, 2, "same"),
            (1, 2, 5, 7, 2, 3, 2, "same"),  # H != W
            (2, 1, 6, 9, 1, 5, 1, "valid"),
        ]
        for B, C, H, W, O, k, stride, pad in shapes:
            x = Tensor(rng.standard_normal((B, C, H, W)))
            w = Tensor(rng.standard_normal((O, C, k, k)))
            assert finite_diff_check(lambda t: relu(conv2d(t, w, stride, pad)).sum(), x) <= 1e-4
            assert finite_diff_check(lambda t: relu(conv2d(x, t, stride, pad)).sum(), w) <= 1e-4

    def test_fft_path_gradients_at_desk_head(self):
        # the desk head at batch 16, which conv2d runs on the FFT path; a
        # seeded subset of coordinates, at the sweep's bound
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((16, 48, 8, 8)))
        w = Tensor(rng.standard_normal((32, 48, 9, 9)) / 9.0)
        with recorded_paths() as taken:
            conv2d(x, w, 1, "same")
        assert taken == [True]
        assert finite_diff_check(lambda t: relu(conv2d(t, w, 1, "same")).sum(), x, max_coords=40) <= 1e-4
        assert finite_diff_check(lambda t: relu(conv2d(x, t, 1, "same")).sum(), w, max_coords=40) <= 1e-4
