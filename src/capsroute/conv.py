"""Convolution, pooling, and batch normalization on BCHW tensors.

`conv2d` has two paths, and `_fft_pays` picks one from the shapes alone.
The general path runs im2col matrix products over a channel-last patch
matrix (rows batch x output position, columns window cell x channel); the
forward and the kernel gradient share it. Its input gradient is a
transposed convolution run as one GEMM: the output gradient, with
stride - 1 zeros inserted between its rows and columns and padded, is
correlated with the flipped kernel. Stride-1 convolutions whose im2col
flop count is well above the FFT path's (in the network: the 9x9 head at
training and predict batches) run as a correlation in the frequency
domain instead (`_conv2d_fft`, after Mathieu, Henaff & LeCun, arXiv
1312.5851): rfft2 of the input, one batched complex matmul over channels
per frequency, irfft2 and a crop; both VJPs stay in the frequency domain.
"same" padding is symmetric zero padding with the extra cell on the high
side when the deficit is odd; output size is ceil(in / stride). Pooling
with "same" padding excludes the padded cells (max ignores them, average
divides by the in-bounds count). Max pooling reads every window cell as a
unit-stride slice of one of the stride^2 phase planes of its padded input,
and its gradient is gathered per plane and written to the input gradient
once; average pooling sums its taps in row-major window order. Batch
normalization reduces over a (B, C, H*W) view of its input and uses the
closed-form gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft2, next_fast_len, rfft2

from .tensor import ShapeError, Tensor, record

# im2col flops over FFT-path flops above which `conv2d` takes the FFT
# path; measured, see `_fft_pays`
_FFT_CROSSOVER = 3.0


def _out_size(n: int, k: int, stride: int, padding: str) -> tuple[int, int, int]:
    """Return (output size, pad_low, pad_high) for one spatial axis."""
    if padding == "valid":
        if n < k:
            raise ShapeError(f"window {k} larger than input extent {n}")
        return (n - k) // stride + 1, 0, 0
    if padding == "same":
        out = -(-n // stride)  # ceil
        total = max(0, (out - 1) * stride + k - n)
        lo = total // 2
        return out, lo, total - lo
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


def _im2col(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Channel-last (B,Hp,Wp,C) -> patch matrix, rows (b,oh,ow), columns (i,j,c).

    One window row (i fixed) is k*C adjacent input values, so the copy
    moves runs of k*C values rather than of k.
    """
    B, C = xp.shape[0], xp.shape[3]
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    oH, oW = win.shape[1:3]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(B * oH * oW, k * k * C)


def _tap(a: np.ndarray, i: int, j: int, stride: int, oH: int, oW: int) -> np.ndarray:
    """View of window cell (i, j) of every (oh, ow) window: (B,C,oH,oW)."""
    return a[:, :, i : i + stride * oH : stride, j : j + stride * oW : stride]


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: str = "valid") -> Tensor:
    """2D convolution (cross-correlation): kernel is (outC, inC, kH, kW).

    Runs as an FFT correlation (`_conv2d_fft`) when `_fft_pays` says so
    for the shapes, else as im2col GEMMs. The two agree to rounding, but
    the FFT path rounds and fails globally: in f32 its error is relative
    to the largest output of the map (≈3e-7 of max|out| at the network's
    head shapes), not to each output, and a NaN or inf anywhere in an
    input image makes every output of that image non-finite, where im2col
    keeps it to the windows that cover the cell.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4D input and kernel, got {x.shape} and {kernel.shape}")
    B, C, H, W = x.shape
    O, Ck, kh, kw = kernel.shape
    if C != Ck:
        raise ShapeError(f"input has {C} channels but kernel expects {Ck} (input {x.shape}, kernel {kernel.shape})")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if kh != kw:
        raise ShapeError(f"only square kernels supported, got {kh}x{kw}")
    k = kh

    oH, pt, pb = _out_size(H, k, stride, padding)
    oW, pl, pr = _out_size(W, k, stride, padding)
    grid = (next_fast_len(H + max(pt, pb), real=True), next_fast_len(W + max(pl, pr), real=True))
    if _fft_pays(B, C, O, k, (oH, oW), grid, stride):
        return _conv2d_fft(x, kernel, (oH, oW), (pt, pl), grid)

    xp = np.zeros((B, H + pt + pb, W + pl + pr, C), dtype=x.data.dtype)
    xp[:, pt : pt + H, pl : pl + W] = x.data.transpose(0, 2, 3, 1)

    cols = _im2col(xp, k, stride)
    kmat = kernel.data.transpose(0, 2, 3, 1).reshape(O, k * k * C)
    out_data = (cols @ kmat.T).reshape(B, oH, oW, O).transpose(0, 3, 1, 2)
    out = Tensor(np.ascontiguousarray(out_data))

    def vjp(g):
        gk = gx = None
        g_last = g.transpose(0, 2, 3, 1)
        if kernel.requires_grad:
            gk = (g_last.reshape(B * oH * oW, O).T @ cols).reshape(O, k, k, C).transpose(0, 3, 1, 2)
        if x.requires_grad:
            # transposed convolution: correlate the zero-inserted g, padded
            # so that output cell (h, w) lines up with input cell (h, w),
            # with the flipped kernel
            Lh, Lw = (oH - 1) * stride + 1, (oW - 1) * stride + 1
            gz = np.zeros((B, H + k - 1, W + k - 1, O), dtype=g.dtype)
            gz[:, k - 1 - pt : k - 1 - pt + Lh : stride, k - 1 - pl : k - 1 - pl + Lw : stride] = g_last
            kflip = kernel.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * O, C)
            gx = (_im2col(gz, k, 1) @ kflip).reshape(B, H, W, C).transpose(0, 3, 1, 2)
        return (gx, gk)

    return record(out, (x, kernel), vjp)


def _fft_pays(B: int, C: int, O: int, k: int, out_hw: tuple, grid: tuple, stride: int) -> bool:
    """Whether `conv2d` runs these shapes as an FFT correlation: stride 1,
    and the flops of a forward and backward on im2col (three GEMMs) at
    least `_FFT_CROSSOVER` times those on the FFT path (2B(C+O) real FFTs
    at 2.5 N log2 N, three complex matmuls over the half spectrum, and
    the two kernel DFTs).

    The constant 3 is where the two paths cost the same in a sweep of 160
    random shapes (B 1-64, C and O 8-64, H 4-32, k 3-9, "same" and
    "valid"): it lost the least time to wrong picks. Timed ("same", f32,
    one BLAS thread, 2-vCPU Xeon VM, best of 21 calls, ms forward / backward):

        B, C->O, H, k    use                  flops ratio  im2col         FFT
        16, 48->32, 32, 9  paper head, train     18.9   151.2 / 178.1   19.5 / 24.4
        16, 48->32, 8, 9   desk head, train       9.9     4.1 / 8.3      1.8 / 2.4
        64, 48->32, 8, 9   desk head, predict    13.6    42.7 / 58.4     7.8 / 9.7
        4, 48->32, 8, 9    desk head, batch 4     4.8     1.3 / 2.0      1.3 / 1.5
        2, 48->32, 8, 9    desk head, batch 2     2.8     0.65 / 0.92    0.83 / 1.09
        1, 48->32, 8, 9    desk head, Grad-CAM    1.5     0.48 / 0.62    0.87 / 1.29
        1, 48->32, 32, 9   paper head, Grad-CAM   3.7     5.0 / 7.8      3.0 / 6.6
        16, 32->8, 32, 3   paper dense 3x3        2.0     7.0 / 5.7      4.9 / 8.9
        16, 32->8, 8, 3    desk dense 3x3         2.3     0.38 / 0.43    0.74 / 0.84
    """
    if stride != 1:
        return False
    (oH, oW), (nH, nW) = out_hw, grid
    cells = nH * nW
    im2col = 6 * B * C * O * k * k * oH * oW
    fft = 5 * B * (C + O) * cells * math.log2(cells) + 12 * B * C * O * cells + 8 * C * O * k * (k + nH) * nW
    return im2col >= _FFT_CROSSOVER * fft


def _tap_dft(n: int, k: int, lo: int, dtype) -> np.ndarray:
    """(n, k) matrix exp(+2*pi*i * f * (t - lo) / n): the DFT, conjugated,
    of kernel tap t placed at grid cell (t - lo) mod n."""
    phase = np.outer(np.arange(n), np.arange(k) - lo) % n
    return np.exp(2j * np.pi / n * phase).astype(dtype)


def _conv2d_fft(x: Tensor, kernel: Tensor, out_hw: tuple, pad_lo: tuple, grid: tuple) -> Tensor:
    """Stride-1 `conv2d` as a circular correlation on an (nH, nW) grid.

    The input sits at the grid's origin and kernel tap (u, v) at cell
    (u - pt, v - pl) mod the grid, so output (h, w) is grid cell (h, w).
    A grid of H + max(pt, pb) rows (and likewise columns) is enough: the
    wrapped rows a window reads beyond either edge are all zero padding.
    Spectra are kept frequency-major, (nH, nW // 2 + 1, rows, cols), so
    that the sum over channels is one batched matmul per frequency. The
    kernel has only k x k taps, so its spectrum and the kernel gradient
    are DFTs against (nH, k) and (nf, k) phase matrices rather than FFTs
    of a mostly empty grid. Both VJPs reuse the forward's spectra.
    """
    B, C, H, W = x.shape
    O, _, k, _ = kernel.shape
    (oH, oW), (pt, pl), (nH, nW) = out_hw, pad_lo, grid
    nf = nW // 2 + 1
    cdt = np.result_type(x.data.dtype, kernel.data.dtype, np.complex64)
    Eh = _tap_dft(nH, k, pt, cdt)
    Ew = _tap_dft(nW, k, pl, cdt)[:nf]
    X = np.ascontiguousarray(rfft2(x.data, s=grid).transpose(2, 3, 0, 1))  # (nH, nf, B, C)
    ktaps = kernel.data.transpose(2, 3, 1, 0).reshape(k, k, C * O)
    # the kernel spectrum's conjugate: the correlation's spectrum is X @ Kc
    Kc = (Eh @ (Ew @ ktaps).reshape(k, nf * C * O)).reshape(nH, nf, C, O)
    out = irfft2((X @ Kc).transpose(2, 3, 0, 1), s=grid)[:, :, :oH, :oW]
    out = Tensor(np.ascontiguousarray(out))

    def vjp(g):
        G = np.ascontiguousarray(rfft2(g, s=grid).transpose(2, 3, 0, 1))  # (nH, nf, B, O)
        gx = gk = None
        if x.requires_grad:
            gx = irfft2((G @ Kc.conj().swapaxes(-1, -2)).transpose(2, 3, 0, 1), s=grid)[:, :, :H, :W]
        if kernel.requires_grad:
            # inverse real DFT at the k x k taps only; each bin between DC
            # and Nyquist stands for itself and its conjugate
            f = np.arange(nf)
            weight = np.where((f == 0) | (2 * f == nW), 1.0, 2.0) / (nH * nW)
            R = (X.swapaxes(-1, -2) @ G.conj()).reshape(nH, nf * C * O)
            P = (Eh.T @ R).reshape(k, nf, C * O)
            taps = ((Ew.T * weight.astype(Ew.real.dtype)) @ P).real
            gk = taps.reshape(k, k, C, O).transpose(3, 2, 0, 1)
        return (gx, gk)

    return record(out, (x, kernel), vjp)


def _phases(n: int, lo: int, hi: int, stride: int, size: int) -> list[tuple[int, int, int, int]]:
    """One entry per phase a < min(stride, size) of a padded axis, the
    phases some window cell reads. Phase a holds padded cells stride*r + a;
    its entry is (plane extent, first plane index r0 that is in bounds,
    the input index h0 it holds, the number of input cells it holds).
    """
    phases = []
    for a in range(min(stride, size)):
        h0 = (a - lo) % stride
        phases.append((len(range(a, lo + n + hi, stride)), (h0 + lo - a) // stride, h0, len(range(h0, n, stride))))
    return phases


def _phase_planes(x: np.ndarray, stride: int, rows: list, cols: list) -> dict:
    """Contiguous phase planes of x padded with -inf: plane (a, b) holds
    padded cell (stride*r + a, stride*c + b) at (r, c)."""
    B, C = x.shape[:2]
    planes = {}
    for a, (nr, r0, h0, nh) in enumerate(rows):
        for b, (nc, c0, w0, nw) in enumerate(cols):
            p = np.empty((B, C, nr, nc), dtype=x.dtype)
            p[:, :, r0 : r0 + nh, c0 : c0 + nw] = x[:, :, h0::stride, w0::stride]
            for border in (p[:, :, :r0], p[:, :, r0 + nh :], p[:, :, :, :c0], p[:, :, :, c0 + nw :]):
                border[...] = -np.inf
            planes[a, b] = p
    return planes


def _in_bounds(n_out: int, n: int, lo: int, size: int, stride: int, dtype) -> np.ndarray:
    """Number of in-bounds cells of each window along one padded axis."""
    start = np.arange(n_out) * stride - lo
    return (np.minimum(start + size, n) - np.maximum(start, 0)).astype(dtype)


def pool2d(x: Tensor, mode: str, size: int, stride: int, padding: str = "valid") -> Tensor:
    """Max or average pooling.

    Max reads window cell (i, j) of every window as a unit-stride slice of
    one of the stride^2 phase planes of the padded input (`_phase_planes`)
    and reduces tap-wise, one elementwise maximum per cell. Its gradient
    goes to the first cell in row-major window order that equals the
    window's maximum. It is accumulated tap by tap into the planes'
    gradients, and each plane is then written once to its strided cells
    of the input gradient. Average sums the taps in row-major window order
    (the order a per-window loop adds in) and divides by the number of
    in-bounds cells; its gradient spreads uniformly over the cells that
    contributed (padded cells never contribute).
    """
    if x.ndim != 4:
        raise ShapeError(f"pool2d expects 4D input, got {x.shape}")
    if mode not in ("max", "avg"):
        raise ValueError(f"mode must be 'max' or 'avg', got {mode!r}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    B, C, H, W = x.shape
    oH, pt, pb = _out_size(H, size, stride, padding)
    oW, pl, pr = _out_size(W, size, stride, padding)
    taps = [(i, j) for i in range(size) for j in range(size)]

    if mode == "max":
        rows = _phases(H, pt, pb, stride, size)
        cols = _phases(W, pl, pr, stride, size)
        planes = _phase_planes(x.data, stride, rows, cols)

        def tap(p, i, j):
            return p[i % stride, j % stride][:, :, i // stride : i // stride + oH, j // stride : j // stride + oW]

        top = tap(planes, 0, 0).copy()
        for i, j in taps[1:]:
            np.maximum(top, tap(planes, i, j), out=top)
        out = Tensor(top)

        def vjp(g):
            dplanes = {ab: np.zeros(p.shape, dtype=p.dtype) for ab, p in planes.items()}
            unclaimed = np.ones(top.shape, dtype=bool)
            first = np.empty(top.shape, dtype=bool)
            share = np.empty(top.shape, dtype=x.data.dtype)
            for i, j in taps:
                # windows whose maximum sits at this cell and at no earlier one
                np.equal(tap(planes, i, j), top, out=first)
                first &= unclaimed
                unclaimed ^= first
                np.multiply(g, first, out=share)
                dtap = tap(dplanes, i, j)
                dtap += share
            # the planes partition the input, except for the phases no
            # window cell reads when stride > size
            dx = (np.empty if stride <= size else np.zeros)(x.shape, dtype=x.data.dtype)
            for (a, b), dp in dplanes.items():
                (_, r0, h0, nh), (_, c0, w0, nw) = rows[a], cols[b]
                dx[:, :, h0::stride, w0::stride] = dp[:, :, r0 : r0 + nh, c0 : c0 + nw]
            return (dx,)

        return record(out, (x,), vjp)

    padded = pt or pb or pl or pr
    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr))) if padded else x.data
    total = _tap(xp, 0, 0, stride, oH, oW).copy()
    for i, j in taps[1:]:
        total += _tap(xp, i, j, stride, oH, oW)
    if padded:
        dt = x.data.dtype
        count = np.outer(_in_bounds(oH, H, pt, size, stride, dt), _in_bounds(oW, W, pl, size, stride, dt))
    else:
        count = float(size * size)
    total /= count
    out = Tensor(total)

    def vjp(g):
        share = g / count
        dxp = np.zeros((B, C, H + pt + pb, W + pl + pr), dtype=x.data.dtype)
        for i, j in taps:
            dtap = _tap(dxp, i, j, stride, oH, oW)
            dtap += share
        return (dxp[:, :, pt : pt + H, pl : pl + W],)

    return record(out, (x,), vjp)


@dataclass
class BatchNormState:
    """Per-channel running statistics, updated by exponential moving average."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def fresh(cls, channels: int, dtype=np.float64) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mode: str = "train",
    eps: float = 1e-5,
    momentum: float = 0.9,
) -> Tensor:
    """Per-channel batch normalization over (batch, height, width).

    Train mode normalizes with the current batch statistics (biased
    variance) and folds them into the running stats; eval mode uses the
    running stats. Both modes are differentiable. x is viewed as
    (B, C, H*W), and every per-channel sum reduces the contiguous H*W axis
    first, then the batch. The variance comes from row dot products of the
    centred array, which is then scaled in place to x_hat; the output is
    x_hat * gamma + beta. With a = gamma * inv_std and n = B*H*W the
    gradients are the closed forms (Ioffe & Szegedy, arXiv 1502.03167)
    g_beta = sum g, g_gamma = sum g * x_hat (row dot products, no full
    temporary), and g_x = a*g - x_hat*(a*g_gamma/n) - a*g_beta/n in train
    mode, a*g in eval mode.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm expects 4D input, got {x.shape}")
    B, C, H, W = x.shape
    n = B * H * W
    if n == 0:
        raise ShapeError(f"batchnorm over no values per channel, input {x.shape}")
    if gamma.size != C or beta.size != C:
        raise ShapeError(f"gamma/beta must have {C} entries, got {gamma.size}/{beta.size}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")

    xv = x.data.reshape(B, C, H * W)
    if mode == "train":
        mu = xv.sum(axis=2).sum(axis=0) / n
        xhat = xv - mu[:, None]
        var = np.vecdot(xhat, xhat).sum(axis=0) / n
        state.running_mean = momentum * state.running_mean + (1.0 - momentum) * mu
        state.running_var = momentum * state.running_var + (1.0 - momentum) * var
    else:
        xhat = xv - state.running_mean.astype(x.data.dtype)[:, None]
        var = state.running_var.astype(x.data.dtype)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[:, None]
    y = xhat * gamma.data.reshape(C, 1)
    y += beta.data.reshape(C, 1)
    out = Tensor(y.reshape(x.shape))

    def vjp(g):
        g3 = g.reshape(B, C, H * W)
        gbet = g3.sum(axis=2).sum(axis=0)
        ggam = np.vecdot(g3, xhat).sum(axis=0)
        gx = None
        if x.requires_grad:
            a = gamma.data.reshape(C) * inv_std
            gx = g3 * a[:, None]
            if mode == "train":
                gx -= xhat * (a * ggam / n)[:, None]
                gx -= (a * gbet / n)[:, None]
            gx = gx.reshape(x.shape)
        return (
            gx,
            ggam.reshape(gamma.shape) if gamma.requires_grad else None,
            gbet.reshape(beta.shape) if beta.requires_grad else None,
        )

    return record(out, (x, gamma, beta), vjp)
