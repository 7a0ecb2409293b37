"""Convolution, pooling, and batch normalization on BCHW tensors.

`conv2d` has two paths, and `_conv_path` picks one from the shapes
alone. The general path, which every strided convolution takes (and the
stem's 1x1), runs im2col matrix products over a channel-last patch
matrix (rows batch x output position, columns window cell x channel);
the forward and the kernel gradient share it. Its input gradient is a
transposed convolution run as one GEMM: the output gradient, with
stride - 1 zeros inserted between its rows and columns and padded, is
correlated with the flipped kernel. Stride-1 convolutions with many more
input than output channels over large enough maps (in the network: the
dense blocks' 3x3s, except at desk maps below batch 16) run on the
output side (`_conv2d_taps`, kn2row): one GEMM per image on the input's
own layout gives every kernel tap's output plane, and the taps are added
shifted; its backward gathers the output gradient once per tap and runs
two GEMMs on that. Both paths round each output on its own and keep a
NaN or inf input to the windows that cover its cell.
"same" padding is symmetric zero padding with the extra cell on the high
side when the deficit is odd; output size is ceil(in / stride). Pooling
with "same" padding excludes the padded cells (max ignores them, average
divides by the in-bounds count). Both pooling modes read each window cell
as one strided view of the input, padded once, combine those taps in
row-major window order, and add each tap's gradient share into one padded
input gradient. `conv_maxpool` is a "same" convolution followed by a
"same" max pool in one op that computes only the conv cells the pool
reads: one im2col whose windows cover a whole pool window and one GEMM
against the kernel placed once per pool cell. Both max pools take one
rule from `_first_max` (maxima in row-major tap order, a window's
gradient to its first maximal tap), so `conv_maxpool`'s output is
bitwise the pair's. `conv_avgpool` is a "same" convolution followed by a
"valid" average pool whose cells tile the conv's pad: one stride-1 conv
on `conv2d`'s paths over a space-to-depth copy of the input, with the
kernel box-filtered and cut the same way (the inverse of the pixel
shuffle of Shi et al., arXiv 1609.05158). Batch
normalization is split in two ops so that a dense block normalizes each
channel once: `batchnorm` gives x_hat from statistics over a (B, C, H*W)
view of its input, and each reader of x_hat applies its own scale, shift
and ReLU in `affine_relu`; both use closed-form gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import AutodiffError, ShapeError, Tensor, record

# input over output channels, and output cells per map and per batch,
# from which `conv2d` takes the tap path; measured, see `_conv_path`
_TAPS_CHANNEL_RATIO = 4
_TAPS_MIN_MAP = 64
_TAPS_MIN_CELLS = 1024
# batch normalization's variance offset and running-stat decay
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9


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


def _im2col(xp: np.ndarray, k: int, stride: int, oH: int, oW: int) -> np.ndarray:
    """Channel-last (B,Hp,Wp,C) -> patch matrix of the first oH x oW
    windows, rows (b,oh,ow), columns (i,j,c).

    One window row (i fixed) is k*C adjacent input values, so the copy
    moves runs of k*C values rather than of k.
    """
    B, C = xp.shape[0], xp.shape[3]
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, : stride * oH : stride, : stride * oW : stride]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(B * oH * oW, k * k * C)


def _tap(a: np.ndarray, i: int, j: int, stride: int, oH: int, oW: int) -> np.ndarray:
    """View of window cell (i, j) of every (oh, ow) window: (B,C,oH,oW)."""
    return a[:, :, i : i + stride * oH : stride, j : j + stride * oW : stride]


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: str = "valid") -> Tensor:
    """2D convolution (cross-correlation): kernel is (outC, inC, kH, kW).

    Runs as output-side tap GEMMs (`_conv2d_taps`) or as im2col GEMMs, as
    `_conv_path` says for the shapes. The two agree to rounding.
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
    oH, pt, _ = _out_size(H, kh, stride, padding)
    oW, pl, _ = _out_size(W, kh, stride, padding)
    return _conv(x, kernel, stride, (oH, oW), (pt, pl))


def _conv(x: Tensor, kernel: Tensor, stride: int, out_hw: tuple, pad_lo: tuple) -> Tensor:
    """`conv2d` at explicit output extents and low-side pads: output
    (h, w) is the window at input cell (stride*h - pt, stride*w - pl),
    zero past every edge."""
    B, C, H, W = x.shape
    O, _, k, _ = kernel.shape
    (oH, oW), (pt, pl) = out_hw, pad_lo
    if _conv_path(B, C, O, k, out_hw, stride) == "taps":
        return _conv2d_taps(x, kernel, out_hw, pad_lo)

    xp = np.zeros((B, max(H + pt, stride * (oH - 1) + k), max(W + pl, stride * (oW - 1) + k), C), dtype=x.data.dtype)
    xp[:, pt : pt + H, pl : pl + W] = x.data.transpose(0, 2, 3, 1)

    cols = _im2col(xp, k, stride, oH, oW)
    kmat = kernel.data.transpose(0, 2, 3, 1).reshape(O, k * k * C)
    out_data = (cols @ kmat.T).reshape(B, oH, oW, O).transpose(0, 3, 1, 2)
    out = Tensor(np.ascontiguousarray(out_data))

    def vjp(g):
        gk = gx = None
        g_last = g.transpose(0, 2, 3, 1)
        if kernel.requires_grad:
            gk = (g_last.reshape(B * oH * oW, O).T @ cols).reshape(O, k, k, C)
            gk = np.ascontiguousarray(gk.transpose(0, 3, 1, 2))
        if x.requires_grad:
            # transposed convolution: correlate the zero-inserted g, padded
            # so that output cell (h, w) lines up with input cell (h, w),
            # with the flipped kernel
            Lh, Lw = (oH - 1) * stride + 1, (oW - 1) * stride + 1
            gz = np.zeros((B, H + k - 1, W + k - 1, O), dtype=g.dtype)
            gz[:, k - 1 - pt : k - 1 - pt + Lh : stride, k - 1 - pl : k - 1 - pl + Lw : stride] = g_last
            kflip = kernel.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * O, C)
            gx = (_im2col(gz, k, 1, H, W) @ kflip).reshape(B, H, W, C).transpose(0, 3, 1, 2)
        return (gx, gk)

    return record(out, (x, kernel), vjp)


def _conv_path(B: int, C: int, O: int, k: int, out_hw: tuple, stride: int) -> str:
    """The path `conv2d` takes for these shapes: "taps" or "im2col".

    A stride-1 convolution with k > 1 runs on the tap path when C is at
    least `_TAPS_CHANNEL_RATIO` times O, so that its tap planes (O*k*k*H*W
    per image) are a fraction of the im2col patch (C*k*k*oH*oW), and each
    map has at least `_TAPS_MIN_MAP` output cells and the batch at least
    `_TAPS_MIN_CELLS`: below those, the k*k numpy calls per pass over
    short rows cost more than the patch copy they save. Everything else,
    strided convolutions included, runs on im2col.

    The tap constants come from a sweep of 311 shapes (B 1-16; C->O
    16->8, 32->8, 64->8, 64->16, 32->16, 24->16, 48->32; H 4-32; k 3, 5
    and 9; "same"; best of 7 forward plus backward): the rule picks 49 of
    them, and the tap path was faster at 47 and within 4% at the other
    two. It lost at 145 of the 181 shapes with C < 4*O (the 9x9 head's
    48->32 among them) and at 83 of the 84 with 4x4 maps. Timed ("same",
    f32, one BLAS thread, 2-vCPU Xeon VM, best of 21 calls), ms forward /
    backward:

        B, C->O, H, k    use                  im2col          taps
        16, 32->8, 32, 3   paper dense, train   5.89 / 6.07     3.03 / 4.05   taps
        1, 32->8, 32, 3    paper dense, Grad-CAM 0.36 / 0.32    0.22 / 0.21   taps
        64, 32->8, 8, 3    desk dense, predict  1.40 / 1.47     1.06 / 1.07   taps
        16, 32->8, 8, 3    desk dense, train    0.35 / 0.34     0.31 / 0.25   taps
        8, 32->8, 8, 3     desk dense, batch 8  0.17 / 0.18     0.19 / 0.14   im2col
        1, 32->8, 8, 3     desk dense, Grad-CAM 0.05 / 0.05     0.09 / 0.04   im2col
        64, 32->8, 4, 3    4x4 maps             0.34 / 0.35     0.46 / 0.39   im2col
        16, 32->16, 16, 3  C = 2*O              1.31 / 1.74     1.47 / 1.65   im2col
        1, 48->32, 8, 9    desk head, Grad-CAM  0.53 / 0.73     1.20 / 0.90   im2col
        2, 48->32, 8, 9    desk head, batch 2   0.85 / 1.24     1.24 / 1.10   im2col
    """
    oH, oW = out_hw
    wide = stride == 1 and k > 1 and _TAPS_CHANNEL_RATIO * O <= C
    return "taps" if wide and oH * oW >= _TAPS_MIN_MAP and B * oH * oW >= _TAPS_MIN_CELLS else "im2col"


def _shifts(n_out: int, n: int, lo: int, k: int) -> list:
    """(i, output slice, input slice) for each kernel offset i along one
    axis that pairs any cells at stride 1: output cell o reads input cell
    o + i - lo, in range only."""
    spans = ((i, max(0, lo - i), min(n_out, n + lo - i)) for i in range(k))
    return [(i, slice(a, b), slice(a + i - lo, b + i - lo)) for i, a, b in spans if a < b]


def _conv2d_taps(x: Tensor, kernel: Tensor, out_hw: tuple, pad_lo: tuple) -> Tensor:
    """Stride-1 `conv2d` on the output side (kn2row, Anderson et al.,
    arXiv 1709.03395), with no patch matrix.

    The forward is one (k*k*O, C) @ (C, H*W) GEMM per image on x's own
    channel-first layout: a full (O, H, W) plane per kernel tap (i, j),
    each added, over its in-range part, into the output shifted by
    (i - pt, j - pl). The backward gathers the output gradient into
    Gp (B, O*k*k, H*W), row (o, i, j) holding g shifted back onto the
    input cells tap (i, j) reads, zero elsewhere; then gx[b] is
    kernel (C, O*k*k) @ Gp[b], already channel-first, and the kernel
    gradient is the sum over b of Gp[b] @ x[b]^T. Only x, which the tape
    holds anyway, is kept for the backward.
    """
    B, C, H, W = x.shape
    O, _, k, _ = kernel.shape
    (oH, oW), (pt, pl) = out_hw, pad_lo
    taps = [(i, j, ro, ri, co, ci) for i, ro, ri in _shifts(oH, H, pt, k) for j, co, ci in _shifts(oW, W, pl, k)]
    xv = x.data.reshape(B, C, H * W)
    planes = (kernel.data.transpose(2, 3, 0, 1).reshape(k * k * O, C) @ xv).reshape(B, k, k, O, H, W)
    out = np.zeros((B, O, oH, oW), dtype=planes.dtype)
    for i, j, ro, ri, co, ci in taps:
        out[:, :, ro, co] += planes[:, i, j, :, ri, ci]
    out = Tensor(out)

    def vjp(g):
        gp = np.zeros((B, O, k, k, H, W), dtype=g.dtype)
        for i, j, ro, ri, co, ci in taps:
            gp[:, :, i, j, ri, ci] = g[:, :, ro, co]
        gp = gp.reshape(B, O * k * k, H * W)
        gx = gk = None
        if x.requires_grad:
            gx = (kernel.data.transpose(1, 0, 2, 3).reshape(C, O * k * k) @ gp).reshape(B, C, H, W)
        if kernel.requires_grad:
            gk = (gp @ xv.transpose(0, 2, 1)).sum(axis=0).reshape(O, k, k, C)
            gk = np.ascontiguousarray(gk.transpose(0, 3, 1, 2))
        return (gx, gk)

    return record(out, (x, kernel), vjp)


def _in_bounds(n_out: int, n: int, lo: int, size: int, stride: int, dtype) -> np.ndarray:
    """Number of in-bounds cells of each window along one padded axis."""
    start = np.arange(n_out) * stride - lo
    return (np.minimum(start + size, n) - np.maximum(start, 0)).astype(dtype)


def _first_max(taps: list):
    """Elementwise maximum of `taps` in order, and `shares(g, out)`, which
    writes into out[t] g where tap t is the first to equal the maximum and
    0 elsewhere: each window's gradient goes to one tap."""
    acc = taps[0].copy()
    for t in taps[1:]:
        np.maximum(acc, t, out=acc)

    def shares(g, out):
        unclaimed = np.ones(acc.shape, dtype=bool)
        first = np.empty(acc.shape, dtype=bool)
        for t, dest in zip(taps, out):
            # windows whose maximum sits at this tap and at no earlier one
            np.equal(t, acc, out=first)
            first &= unclaimed
            unclaimed ^= first
            np.multiply(g, first, out=dest)

    return acc, shares


def pool2d(x: Tensor, mode: str, size: int, stride: int, padding: str = "valid") -> Tensor:
    """Max or average pooling.

    Both modes read window cell (i, j) of every window as one strided view
    (`_tap`) of the input, padded once when "same" needs it (with -inf for
    max, 0 for average), and combine the taps in row-major window order
    (the order a per-window loop adds in): `_first_max`, or a sum divided
    by the number of in-bounds cells. The backward adds each tap's share
    into one zeroed padded gradient, cropped at the end. Max sends a
    window's gradient to its first cell that equals the maximum; average
    spreads it uniformly over the cells that contributed (padded cells
    never contribute).
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
    dt = x.data.dtype
    taps = [(i, j) for i in range(size) for j in range(size)]
    padded = pt or pb or pl or pr
    if padded:
        xp = np.full((B, C, H + pt + pb, W + pl + pr), -np.inf if mode == "max" else 0, dtype=dt)
        xp[:, :, pt : pt + H, pl : pl + W] = x.data
    else:
        xp = x.data

    views = [_tap(xp, i, j, stride, oH, oW) for i, j in taps]
    if mode == "max":
        acc, first_max_shares = _first_max(views)
    else:
        acc = views[0].copy()
        for v in views[1:]:
            acc += v
        if padded:
            count = np.outer(_in_bounds(oH, H, pt, size, stride, dt), _in_bounds(oW, W, pl, size, stride, dt))
        else:
            count = float(size * size)
        acc /= count
    out = Tensor(acc)

    def vjp(g):
        dxp = np.zeros(xp.shape, dtype=dt)
        if mode == "max":
            shares = np.empty((len(taps),) + acc.shape, dtype=dt)
            first_max_shares(g, shares)
        else:
            shares = [g / count] * len(taps)
        for (i, j), share in zip(taps, shares):
            dtap = _tap(dxp, i, j, stride, oH, oW)
            dtap += share
        return (dxp[:, :, pt : pt + H, pl : pl + W],)

    return record(out, (x,), vjp)


def conv_maxpool(x: Tensor, kernel: Tensor, stride: int, size: int, pool_stride: int) -> Tensor:
    """`conv2d(x, kernel, stride, "same")` then `pool2d(., "max", size,
    pool_stride, "same")`, computing only the conv cells the pool reads.

    Cell (a, b) of pool window (m, n) is conv output (pool_stride*m - pad
    + a, ...), which reads input rows s*m + stride*a + i + const, with
    s = stride * pool_stride. So all cells of a window read one e x e
    input window, e = stride * (size - 1) + k. The op gathers those
    windows at stride s as one im2col copy (columns in `conv2d`'s (i, j, c)
    order) and multiplies it by the kernel placed at the size**2 offsets
    (stride*a, stride*b) of an e x e grid. That gives every window's cells
    as (B, O, pH, pW) blocks; cells outside the conv's output (the pool's
    padding) are set to -inf, and `_first_max` combines the blocks in
    row-major (a, b) order.

    Each cell is the dot product `conv2d` computes, its taps in the same
    order with exact zero products between them, and the maxima are taken
    by `pool2d`'s rule. So the output is bitwise the unfused pair's when
    OpenBLAS runs both GEMMs on its blocked kernels, which it does once a
    GEMM's output has more than about 1200 entries (a stem of 16 or more
    maps at every input size and batch the network accepts); below that
    it rounds on another path, within a few ulp. NaN input gives the
    pair's NaNs (for stride <= k); an inf input gives NaN (inf * 0) in
    every cell of the windows that read it.

    The backward sends g to each window's first maximal cell by the same
    rule, and gets the kernel gradient from one batched GEMM against the
    same patches, summed over the placements: it differs from the pair's
    by summation order only. There is no input gradient, since the
    network never differentiates with respect to its image.
    """
    if x.requires_grad:
        raise AutodiffError("conv_maxpool has no input gradient; the input must not require one")
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv_maxpool expects 4D input and kernel, got {x.shape} and {kernel.shape}")
    B, C, H, W = x.shape
    O, Ck, k, kw = kernel.shape
    if C != Ck or k != kw:
        raise ShapeError(f"conv_maxpool expects a square kernel over {C} channels, got {kernel.shape}")
    if min(stride, size, pool_stride) < 1:
        raise ValueError(f"stride, size and pool_stride must be >= 1, got {stride}, {size}, {pool_stride}")
    oH, pt, _ = _out_size(H, k, stride, "same")
    oW, pl, _ = _out_size(W, k, stride, "same")
    pH, qt, _ = _out_size(oH, size, pool_stride, "same")
    pW, ql, _ = _out_size(oW, size, pool_stride, "same")
    s, e = stride * pool_stride, stride * (size - 1) + k
    # window (m, n) reads padded rows s*m + [0, e) and columns s*n + [0, e)
    top, left = stride * qt + pt, stride * ql + pl
    dt = x.data.dtype
    xp = np.zeros((B, C, max(top + H, s * pH - s + e), max(left + W, s * pW - s + e)), dtype=dt)
    xp[:, :, top : top + H, left : left + W] = x.data
    win = sliding_window_view(xp, (e, e), axis=(2, 3))[:, :, : s * pH : s, : s * pW : s]
    cols = win.transpose(0, 2, 3, 4, 5, 1).reshape(B * pH * pW, e * e * C)

    taps = [(a, b) for a in range(size) for b in range(size)]
    placed = np.zeros((size, size, O, e, e, C), dtype=kernel.data.dtype)
    for a, b in taps:
        placed[a, b, :, stride * a : stride * a + k, stride * b : stride * b + k] = kernel.data.transpose(0, 2, 3, 1)
    # patches on the left as in `conv2d`: with the kernel on the left,
    # OpenBLAS rounds some edge columns differently
    y = (cols @ placed.reshape(size * size * O, e * e * C).T).reshape(B, pH * pW, size * size * O)
    y = np.ascontiguousarray(y.transpose(0, 2, 1)).reshape(B, size, size, O, pH, pW)
    row0 = pool_stride * np.arange(pH) - qt  # conv row of each window's cell a = 0
    col0 = pool_stride * np.arange(pW) - ql
    for a in range(size):
        y[:, a, :, :, (row0 + a < 0) | (row0 + a >= oH)] = -np.inf
        y[:, :, a, :, :, (col0 + a < 0) | (col0 + a >= oW)] = -np.inf
    acc, first_max_shares = _first_max([y[:, a, b] for a, b in taps])
    out = Tensor(acc)

    def vjp(g):
        share = np.empty(y.shape, dtype=g.dtype)
        first_max_shares(np.ascontiguousarray(g), [share[:, a, b] for a, b in taps])
        gp = (share.reshape(B, size * size * O, pH * pW) @ cols.reshape(B, pH * pW, e * e * C)).sum(axis=0)
        gp = gp.reshape(size, size, O, e, e, C)
        gk = sum(gp[a, b, :, stride * a : stride * a + k, stride * b : stride * b + k] for a, b in taps)
        return (None, np.ascontiguousarray(gk.transpose(0, 3, 1, 2)))

    return record(out, (x, kernel), vjp)


def conv_avgpool(x: Tensor, kernel: Tensor, size: int) -> Tensor:
    """`conv2d(x, kernel, 1, "same")` then `pool2d(., "avg", size, size,
    "valid")`, as one stride-1 conv over size x size cells.

    When the kernel's pad p is t whole cells, pooled cell m reads input
    rows size*m - p ... size*m + size - 1 + p: cells m - t ... m + t of
    the copy `_space_to_depth` makes. So the pair is a (2t+1) x (2t+1)
    conv, with the kernel `_fold_kernel` makes, run on `conv2d`'s paths at
    H//size x W//size outputs and t cells of low-side pad. Output and
    gradients are the pair's up to rounding, and a NaN input reaches the
    pooled cells whose windows read it, as in the pair.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv_avgpool expects 4D input and kernel, got {x.shape} and {kernel.shape}")
    B, C, H, W = x.shape
    O, Ck, k, kw = kernel.shape
    p = (k - 1) // 2
    if C != Ck or k != kw or k % 2 == 0 or size < 1 or p % size or min(H, W) < size:
        raise ShapeError(
            f"conv_avgpool needs an odd square kernel over {C} channels whose pad is whole {size}-cells, "
            f"and an input of at least one cell; got kernel {kernel.shape} and input {x.shape}"
        )
    return _conv(_space_to_depth(x, size), _fold_kernel(kernel, size), 1, (H // size, W // size), (p // size,) * 2)


def _space_to_depth(x: Tensor, s: int) -> Tensor:
    """(B, C, H, W) -> (B, s*s*C, ceil(H/s), ceil(W/s)): channel (a, b, c)
    of cell (m, n) is x[:, c, s*m + a, s*n + b], zero past the edge."""
    B, C, H, W = x.shape
    Hc, Wc = -(-H // s), -(-W // s)
    xd = x.data
    if (Hc * s, Wc * s) != (H, W):
        xd = np.zeros((B, C, Hc * s, Wc * s), dtype=x.data.dtype)
        xd[:, :, :H, :W] = x.data
    out = xd.reshape(B, C, Hc, s, Wc, s).transpose(0, 3, 5, 1, 2, 4).reshape(B, s * s * C, Hc, Wc)

    def vjp(g):
        return (g.reshape(B, s, s, C, Hc, Wc).transpose(0, 3, 4, 1, 5, 2).reshape(B, C, Hc * s, Wc * s)[:, :, :H, :W],)

    return record(Tensor(out), (x,), vjp)


def _fold_kernel(kernel: Tensor, s: int) -> Tensor:
    """(O, C, k, k) -> (O, s*s*C, n, n), n = (k - 1)/s + 1: the kernel
    box-filtered over s x s, P K P^T per channel pair with P the (n*s, k)
    band of 1/s where 0 <= u - i < s, in `_space_to_depth`'s channel
    order. Both products, and the backward's, are GEMMs with the O*C
    channel pairs on the last axis. The result views an (n, n, O, s*s*C)
    array, the order both conv paths read, so copies move runs of C."""
    O, C, k, _ = kernel.shape
    n = (k - 1) // s + 1
    u = np.arange(n * s)[:, None] - np.arange(k)
    band = (((u >= 0) & (u < s)) / s).astype(kernel.data.dtype)
    taps = (band @ kernel.data.transpose(2, 3, 0, 1).reshape(k, k * O * C)).reshape(n * s, k, O * C)
    folded = (band @ taps).reshape(n, s, n, s, O, C)  # rows (cell, offset), columns likewise, channel pairs
    out = folded.transpose(0, 2, 4, 1, 3, 5).reshape(n, n, O, s * s * C).transpose(2, 3, 0, 1)

    def vjp(g):
        g = g.reshape(O, s, s, C, n, n).transpose(4, 1, 5, 2, 0, 3).reshape(n * s, n * s, O * C)
        gk = (band.T @ (band.T @ g).reshape(n * s, k * O * C)).reshape(k, k, O, C)
        return (np.ascontiguousarray(gk.transpose(2, 3, 0, 1)),)

    return record(Tensor(out), (kernel,), vjp)


@dataclass
class BatchNormState:
    """Per-channel running statistics, updated in place by exponential
    moving average (so a state may view a slice of a larger one)."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def fresh(cls, channels: int, dtype=np.float64) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


def batchnorm(
    x: Tensor,
    state: BatchNormState,
    mode: str = "train",
    out: np.ndarray | None = None,
) -> Tensor:
    """Per-channel normalization over (batch, height, width): x_hat, with
    no scale or shift; each reader applies its own in `affine_relu`.

    Train mode normalizes with the current batch statistics (biased
    variance) and folds them into the running stats; eval mode uses the
    running stats. Both modes are differentiable. x is viewed as
    (B, C, H*W), and every per-channel sum reduces the contiguous H*W axis
    first, then the batch. The variance comes from row dot products of the
    centred array, which is then scaled in place to x_hat. x_hat is written
    into `out` when given, a (B, C, H, W) array or view such as a channel
    slice of a dense block's buffer. The backward takes G = dL/dx_hat,
    which the tape has summed over every reader, and returns
    inv_std * (G - mean G - x_hat * mean(G * x_hat)) in train mode (means
    over batch and cells; Ioffe & Szegedy, arXiv 1502.03167) and
    inv_std * G in eval mode.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm expects 4D input, got {x.shape}")
    B, C, H, W = x.shape
    n = B * H * W
    if n == 0:
        raise ShapeError(f"batchnorm over no values per channel, input {x.shape}")
    if state.running_mean.shape != (C,) or state.running_var.shape != (C,):
        raise ShapeError(f"running stats must have {C} entries, got {state.running_mean.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")

    xv = x.data.reshape(B, C, H * W)
    if out is None:
        out = np.empty(x.shape, dtype=x.data.dtype)
    xhat = out.reshape(B, C, H * W)
    if mode == "train":
        mu = xv.sum(axis=2).sum(axis=0) / n
        np.subtract(xv, mu[:, None], out=xhat)
        var = np.vecdot(xhat, xhat).sum(axis=0) / n
        np.add(_BN_MOMENTUM * state.running_mean, (1.0 - _BN_MOMENTUM) * mu, out=state.running_mean)
        np.add(_BN_MOMENTUM * state.running_var, (1.0 - _BN_MOMENTUM) * var, out=state.running_var)
    else:
        np.subtract(xv, state.running_mean.astype(x.data.dtype)[:, None], out=xhat)
        var = state.running_var.astype(x.data.dtype)

    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    xhat *= inv_std[:, None]

    def vjp(g):
        g3 = g.reshape(B, C, H * W)
        if mode == "eval":
            return ((g3 * inv_std[:, None]).reshape(x.shape),)
        gx = xhat * (-np.vecdot(g3, xhat).sum(axis=0) / n)[:, None]
        gx += g3
        gx -= (g3.sum(axis=2).sum(axis=0) / n)[:, None]
        gx *= inv_std[:, None]
        return (gx.reshape(x.shape),)

    return record(Tensor(out), (x,), vjp)


def affine_relu(parts, gamma: Tensor, beta: Tensor, joined: np.ndarray | None = None) -> Tensor:
    """relu(x_hat * gamma + beta) per channel: one reader of normalized maps.

    x_hat is `parts`, (B, C_i, H, W) tensors, joined along channels;
    `joined` is that concatenation when the caller holds it already (the
    prefix of a dense block's x_hat buffer), and it is built otherwise. With
    m = g * (y > 0), the backward gives g_beta = sum m and g_gamma =
    sum m * x_hat per channel (row dot products), and each part the slice
    of gamma * m over its channels.
    """
    parts = tuple(parts)
    if joined is None:
        joined = parts[0].data if len(parts) == 1 else np.concatenate([p.data for p in parts], axis=1)
    if joined.ndim != 4:
        raise ShapeError(f"affine_relu expects 4D input, got {joined.shape}")
    B, C, H, W = joined.shape
    if gamma.size != C or beta.size != C:
        raise ShapeError(f"gamma/beta must have {C} entries, got {gamma.size}/{beta.size}")
    y = joined * gamma.data.reshape(C, 1, 1)
    y += beta.data.reshape(C, 1, 1)
    np.maximum(y, 0, out=y)

    def vjp(g):
        m = g * (y > 0)
        m3, x3 = m.reshape(B, C, H * W), joined.reshape(B, C, H * W)
        gbet = m3.sum(axis=2).sum(axis=0)
        ggam = np.vecdot(m3, x3).sum(axis=0)
        m *= gamma.data.reshape(C, 1, 1)
        splits = np.cumsum([p.shape[1] for p in parts])[:-1]
        pieces = [s if p.requires_grad else None for s, p in zip(np.split(m, splits, axis=1), parts)]
        return (
            *pieces,
            ggam.reshape(gamma.shape) if gamma.requires_grad else None,
            gbet.reshape(beta.shape) if beta.requires_grad else None,
        )

    return record(Tensor(y), (*parts, gamma, beta), vjp)
