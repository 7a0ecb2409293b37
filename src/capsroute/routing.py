"""Routing-by-agreement for 1x1 convolutional and fully connected capsules.

The 1x1 convolutional capsule layer comes in two equivalent forms:

* a naive path that rebuilds every output map g_j = sum_i c_ij * W_ij * f_i
  on each routing iteration (per-iteration cost grows with the spatial
  size S), and
* a Gram-matrix path that precomputes the pairwise inner products
  G_li = f_l . f_i once, after which every iteration needs only
  O(I^2 * J) work: the agreement f_hat_ji . g_j expands to
  sum_l W_ij * W_lj * c_lj * G_li, and |g_j|^2 = sum_i c_ij (f_hat_ji . g_j).

Both produce identical couplings; the Gram path never touches the feature
maps during iteration, so the layer materializes its output exactly once.
Routing state is per sample: batch elements never share logits, couplings,
or Gram matrices.

The layers hold routing logits and couplings output-major: (J, B, I) for
the 1x1 layer and (J, B, N) for the FC layer. The coupling softmax over
outputs then reduces the leading axis, J elementwise passes over
contiguous rows, and the agreement sums over inputs run along contiguous
last-axis rows. The output combinations read the final couplings
input-major, (B, I, J) and (B, N, J), and `coupling_trace` entries are
handed out in that layout too.

The 1x1 and FC layers differ only in their evidence update, one taped
step each that serves every round. The Gram step `_gram_step` is one
recorded op with a closed-form VJP; the FC step composes taped
primitives. `_iterate` is the one detached routing loop and `_route` the
one coupling schedule; zero iterations give unit couplings, the unrouted
baseline's layers. The taped squash is v times `_routing_scale_op` of its
squared norm, the scale the Gram step applies too, and the taped softmax
`softmax_firstdim` runs `coupling_softmax`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .tensor import Tensor, einsum2, mul, record, square, tsum

__all__ = [
    "Conv1x1CapsuleParams",
    "FcCapsuleParams",
    "RoutingError",
    "RoutingNumericalError",
    "conv1x1_capsule_forward",
    "coupling_softmax",
    "frozen_routing",
    "route_conv1x1_naive",
    "route_fc",
    "softmax_firstdim",
    "squash",
]


class RoutingError(ValueError):
    """Invalid routing configuration or operands."""


class RoutingNumericalError(FloatingPointError):
    """A recovered squared norm fell below the tolerated rounding band."""


def _check_iterations(n) -> None:
    """An iteration count is an int or numpy integer >= 0; a bool is not one."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise RoutingError(f"iterations must be an integer >= 0, got {n!r}")


@dataclass
class Conv1x1CapsuleParams:
    """Scalar weights W[i, j] from input map i to output map j, plus the

    number of routing iterations; at 0 the layer is the plain 1x1
    convolution with this matrix as its kernel.
    """

    weights: Tensor
    iterations: int = 3

    def __post_init__(self):
        if not isinstance(self.weights, Tensor):
            self.weights = Tensor(self.weights)
        if self.weights.ndim != 2:
            raise RoutingError(f"weights must be 2D (I x J), got shape {self.weights.shape}")
        _check_iterations(self.iterations)
        if not np.all(np.isfinite(self.weights.data)):
            raise RoutingError("weights contain non-finite entries")

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]


@dataclass
class FcCapsuleParams:
    """Per-pair transforms W[i, j]: d_in x d_out between input capsule i

    and output capsule j, stored as one (N, J, d_in, d_out) tensor.
    """

    weights: Tensor
    iterations: int = 3

    def __post_init__(self):
        if not isinstance(self.weights, Tensor):
            self.weights = Tensor(self.weights)
        if self.weights.ndim != 4:
            raise RoutingError(f"weights must be 4D (N x J x d_in x d_out), got {self.weights.shape}")
        _check_iterations(self.iterations)


# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------


def _agreement_scale(n2: np.ndarray) -> np.ndarray:
    """|v| / (1 + |v|^2) from the squared norm, 0 at 0."""
    n = np.sqrt(n2)
    return np.divide(n, 1.0 + n2, out=np.zeros_like(n), where=n2 > 0)


def _agreement_scale_grad(n2: np.ndarray) -> np.ndarray:
    """d/d(n2) of `_agreement_scale`, guarded to 0 where n2 is (nearly) 0."""
    denom = 2.0 * np.sqrt(n2) * (1.0 + n2) ** 2
    return np.divide(1.0 - n2, denom, out=np.zeros_like(n2), where=n2 > 1e-24)


def _squash_np(x: np.ndarray, axis: int) -> np.ndarray:
    return x * _agreement_scale(np.sum(x * x, axis=axis, keepdims=True))


def squash(v: Union[np.ndarray, Tensor, list], axis: int = -1):
    """Norm-bounding nonlinearity: v * |v| / (1 + |v|^2).

    Keeps the direction, maps the norm to |v|^2 / (1 + |v|^2) < 1, and
    sends the zero vector to zero. Accepts plain arrays or taped tensors;
    on a tensor it is v times `_routing_scale_op` of the taped squared
    norm, so the scale and its guarded derivative are written once.
    """
    if isinstance(v, Tensor):
        return mul(v, _routing_scale_op(tsum(square(v), axis=axis, keepdims=True)))
    return _squash_np(np.asarray(v, dtype=np.float64), axis)


def coupling_softmax(b: np.ndarray) -> np.ndarray:
    """Softmax step over the output index, the leading axis:

    c_j... = exp(b_j...) / sum_k exp(b_k...), stabilized by subtracting the
    max over outputs. On output-major logits each reduction is J
    elementwise passes over contiguous rows.
    """
    b = np.asarray(b)
    e = np.subtract(b, b.max(axis=0), dtype=np.result_type(b.dtype, np.float32))
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=0), out=e)


def softmax_firstdim(a: Tensor) -> Tensor:
    """Taped `coupling_softmax` over the leading axis."""
    y = coupling_softmax(a.data)
    return record(Tensor(y), (a,), lambda g: (y * (g - (g * y).sum(axis=0)),))


def _check_norms(n2: np.ndarray, G: np.ndarray, W: np.ndarray) -> None:
    """Abort when a recovered |g_j|^2, (J, B), lies below its rounding band,

    I * eps * (sum_i |W_ij|)^2 * max_i |G_ii| per output map and sample:
    the summed magnitudes of its terms times an I-term sum's rounding.
    """
    if np.any(n2 < 0):
        diag = np.abs(np.diagonal(G, axis1=-2, axis2=-1)).max(axis=-1)
        band = W.shape[0] * np.finfo(G.dtype).eps * np.sum(np.abs(W), axis=0)[:, None] ** 2 * diag
        if np.any(n2 < -band):
            raise RoutingNumericalError(f"recovered |g|^2 = {n2.min():.3e} below the rounding band")


def _trace(trace: Optional[list], c: np.ndarray) -> None:
    """Append output-major couplings to `trace` input-major, as (B, I, J) or (B, N, J)."""
    if trace is not None:
        trace.append(np.moveaxis(c, 0, -1).copy())


def _iterate(step, operands, shape, dtype, n_steps: int, trace: Optional[list] = None):
    """`n_steps` detached {b += step(c, *operands), c = softmax(b)} rounds; returns (b, c).

    Logits start at zero, so the first round's couplings are exactly 1/J
    and need no softmax. `operands` must not require gradients, so the
    rounds leave no tape records.
    """
    b = np.zeros(shape, dtype=dtype)
    c = np.full(shape, 1.0 / shape[0], dtype=dtype)
    for _ in range(n_steps):
        _trace(trace, c)
        b += step(Tensor(c), *operands).data
        c = coupling_softmax(b)
    return b, c


# ---------------------------------------------------------------------------
# Full-map reference path (per sample)
# ---------------------------------------------------------------------------


def route_conv1x1_naive(features, params: Conv1x1CapsuleParams, trace: Optional[list] = None):
    """Full-map routing: every iteration recombines the feature maps.

    Returns (g, c): the J output maps built from the final couplings, and
    those couplings. Zero iterations give unit couplings, the plain 1x1
    conv; logits start at zero, so one iteration reduces to the uniform
    combination g_j = (1/J) sum_i W_ij f_i.
    """
    F = np.asarray(features, dtype=np.float64)
    if F.ndim != 2:
        raise RoutingError(f"expected (I, S) features, got shape {F.shape}")
    W = params.weights.data.astype(np.float64)
    if F.shape[0] != W.shape[0]:
        raise RoutingError(f"features carry {F.shape[0]} maps but weights expect {W.shape[0]}")
    if params.iterations == 0:
        return W.T @ F, np.ones_like(W)
    b = np.zeros(W.shape[::-1])  # (J, I), output-major like the layers
    for it in range(params.iterations):
        c = coupling_softmax(b)
        if trace is not None:
            trace.append(c.T.copy())
        g = (W.T * c) @ F  # (J, S)
        if it + 1 < params.iterations:  # the last update would go unread
            b = b + (_squash_np(g, axis=-1) @ F.T) * W.T
    return g, c.T


# ---------------------------------------------------------------------------
# Differentiable layers
# ---------------------------------------------------------------------------


class frozen_routing:
    """Context that pins the detached routing iterations across repeated forwards.

    The first forward pass stores each layer's detached logits under its
    key; later passes reuse them. This is what makes finite differencing
    well-defined for grad_mode="last": perturbations then flow only
    through the differentiated final update, exactly as the adjoints do.
    """

    _active: Optional["frozen_routing"] = None

    def __init__(self):
        self.cache: dict = {}

    def __enter__(self):
        frozen_routing._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        frozen_routing._active = None


def _routing_scale_op(n2: Tensor) -> Tensor:
    """Taped |g|/(1+|g|^2) from |g|^2, with a guarded derivative at 0."""
    x = n2.data
    return record(Tensor(_agreement_scale(x)), (n2,), lambda g: (g * _agreement_scale_grad(x),))


def _gram_step(c: Tensor, G: Tensor, W: Tensor) -> Tensor:
    """Gram-space evidence update A_jbi * |g_jb| / (1 + |g_jb|^2), one taped op.

    On output-major couplings c (J, B, I), with G (B, I, I) and W (I, J),
    A_jbi = f_hat_ji . g_j expands through the Gram matrix as
    W_ij sum_l c_jbl W_lj G_bli, and |g_jb|^2 = sum_i c_jbi A_jbi. Values
    below the rounding band abort; small negatives clamp to zero, where
    the scale's derivative is 0. The VJP is the closed form of this chain.
    The per-sample products run on (B, J, I) copies that the elementwise
    factors W_ij write anyway.
    """
    cd, Gd = c.data, G.data
    Wt = np.ascontiguousarray(W.data.T)  # (J, I)
    cW = np.multiply(cd.transpose(1, 0, 2), Wt, order="C")  # (B, J, I)
    H = np.matmul(cW, Gd)  # H_bji = sum_l c_jbl W_lj G_bli
    A = np.multiply(H.transpose(1, 0, 2), Wt[:, None], order="C")  # (J, B, I)
    n2 = np.vecdot(cd, A)
    _check_norms(n2, Gd, W.data)
    n2 = np.maximum(n2, 0)
    scale = _agreement_scale(n2)[..., None]

    def vjp(g):
        gn2 = (np.vecdot(g, A) * _agreement_scale_grad(n2))[..., None]
        gA = g * scale + cd * gn2
        gH = np.multiply(gA.transpose(1, 0, 2), Wt, order="C")  # (B, J, I)
        gG = np.matmul(cW.transpose(0, 2, 1), gH) if G.requires_grad else None
        gc = gW = None
        if c.requires_grad or W.requires_grad:
            gcW = np.matmul(gH, Gd.transpose(0, 2, 1))  # (B, J, I)
            if c.requires_grad:
                gc = A * gn2 + np.multiply(gcW.transpose(1, 0, 2), Wt[:, None])
            if W.requires_grad:
                gW = ((gA.transpose(1, 0, 2) * H).sum(axis=0) + (gcW * cd.transpose(1, 0, 2)).sum(axis=0)).T
        return (gc, gG, gW)

    return record(Tensor(A * scale), (c, G, W), vjp)


def _fc_step(c: Tensor, u_hat: Tensor) -> Tensor:
    """FC evidence update u_hat_ij . squash(sum_i c_ij u_hat_ij) on (J, B, N) couplings."""
    return einsum2("bnjd,bjd->jbn", u_hat, squash(einsum2("jbn,bnjd->bjd", c, u_hat)))


def _route(step, operands, shape, dtype, r: int, grad_mode: str, freeze_key, trace) -> Tensor:
    """The coupling schedule of both routed layers; returns the final

    couplings input-major, (B, I, J) for an output-major `shape` (J, B, I):
    the layout the output combinations read.

    r=0 gives unit couplings, so the 1x1 layer is the plain 1x1 conv and
    the FC layer squash(sum_i u_hat_ij); r=1 gives uniform ones. Neither
    calls `operands`, so the 1x1 layer builds no Gram matrix. Otherwise
    `step` runs r-1 detached rounds on gradient-free wrappers of
    `operands()` ("none"), or r-2 of them followed by one round on the
    taped operands ("last"). `frozen_routing` pins the detached logits
    and their couplings.
    """
    if grad_mode not in ("none", "last"):
        raise RoutingError(f"grad_mode must be 'none' or 'last', got {grad_mode!r}")
    if r <= 1:
        c = Tensor(np.full(shape[1:] + shape[:1], 1.0 if r == 0 else 1.0 / shape[0], dtype=dtype))
        if trace is not None:
            trace.append(c.data.copy())
        return c
    taped_ops = operands()
    detached = tuple(Tensor(t.data) for t in taped_ops)
    last = grad_mode == "last"
    ctx = frozen_routing._active
    cache = ctx.cache if ctx is not None and freeze_key is not None else {}
    if freeze_key not in cache:
        cache[freeze_key] = _iterate(step, detached, shape, dtype, r - 2 if last else r - 1, trace)
    b, c = cache[freeze_key]
    c = Tensor(c)
    if last:
        _trace(trace, c.data)
        c = softmax_firstdim(Tensor(b) + step(c, *taped_ops))
    _trace(trace, c.data)
    return c.transpose((1, 2, 0))


def conv1x1_capsule_forward(
    features: Tensor,
    params: Conv1x1CapsuleParams,
    grad_mode: str = "last",
    freeze_key: Optional[str] = None,
    trace: Optional[list] = None,
) -> Tensor:
    """Routed 1x1 convolution over (B, I, S) or (I, S) feature tensors.

    Iterates routing on the Gram matrix to reach the final couplings, then
    materializes g_j = sum_i c_ij W_ij f_i exactly once. grad_mode "none"
    treats every coupling as a constant; "last" also differentiates
    through the final evidence-update/softmax pair (all earlier iterations
    stay detached). `trace`, when given, collects the coupling tensor of
    every softmax step.
    """
    squeeze = features.ndim == 2
    Fm = features.reshape((1,) + features.shape) if squeeze else features
    if Fm.ndim != 3:
        raise RoutingError(f"expected (B, I, S) or (I, S) features, got shape {features.shape}")
    W = params.weights
    if Fm.shape[1] != W.shape[0]:
        raise RoutingError(f"features carry {Fm.shape[1]} maps but weights expect {W.shape[0]}")
    B, I, S = Fm.shape
    J = W.shape[1]

    def operands():
        return einsum2("bis,bls->bil", Fm, Fm), W

    c = _route(_gram_step, operands, (J, B, I), Fm.dtype, params.iterations, grad_mode, freeze_key, trace)
    out = einsum2("bij,bis->bjs", mul(c, W), Fm)
    return out.reshape(J, S) if squeeze else out


def route_fc(
    primary: Tensor,
    params: FcCapsuleParams,
    grad_mode: str = "last",
    freeze_key: Optional[str] = None,
    trace: Optional[list] = None,
) -> Tensor:
    """Fully connected capsule routing from (B, N, d_in) to (B, J, d_out).

    Prediction vectors u_hat_ji = W_ij u_i feed the agreement loop
    {softmax, combine, squash, update}; the returned class capsules are
    squash(s_j) built from the final couplings. Gradient scope follows
    grad_mode exactly as in the convolutional layer.
    """
    squeeze = primary.ndim == 2
    u = primary.reshape((1,) + primary.shape) if squeeze else primary
    if u.ndim != 3:
        raise RoutingError(f"expected (B, N, d_in) or (N, d_in) capsules, got shape {primary.shape}")
    W = params.weights
    N, J, d_in, d_out = W.shape
    if u.shape[1] != N or u.shape[2] != d_in:
        raise RoutingError(f"capsules {u.shape[1]}x{u.shape[2]} do not match weights {N}x..x{d_in}")
    B = u.shape[0]

    u_hat = einsum2("bnd,njde->bnje", u, W)  # (B, N, J, d_out)
    c = _route(_fc_step, lambda: (u_hat,), (J, B, N), u_hat.dtype, params.iterations, grad_mode, freeze_key, trace)
    v = squash(einsum2("bnj,bnjd->bjd", c, u_hat))
    return v.reshape(J, d_out) if squeeze else v
