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

The 1x1 and FC layers differ only in their evidence update, which each
gives as a numpy step and a taped step. `_iterate` is the one detached
routing loop and `_route` the one coupling schedule; the spec-level
`route_conv1x1_kernel` runs the same loop as the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .tensor import Tensor, einsum2, mul, record, relu, softmax_lastdim, tsum

__all__ = [
    "Conv1x1CapsuleParams",
    "FcCapsuleParams",
    "RoutingError",
    "RoutingNumericalError",
    "conv1x1_capsule_forward",
    "coupling_softmax",
    "frozen_routing",
    "gram",
    "route_conv1x1_kernel",
    "route_conv1x1_naive",
    "route_fc",
    "squash",
]


class RoutingError(ValueError):
    """Invalid routing configuration or operands."""


class RoutingNumericalError(FloatingPointError):
    """A recovered squared norm fell below the tolerated rounding band."""


@dataclass
class Conv1x1CapsuleParams:
    """Scalar weights W[i, j] from input map i to output map j, plus the

    number of routing iterations. The same matrix doubles as a plain 1x1
    convolution kernel in the unrouted baseline.
    """

    weights: Tensor
    iterations: int = 3

    def __post_init__(self):
        if not isinstance(self.weights, Tensor):
            self.weights = Tensor(self.weights)
        if self.weights.ndim != 2:
            raise RoutingError(f"weights must be 2D (I x J), got shape {self.weights.shape}")
        if self.iterations < 1:
            raise RoutingError(f"iterations must be >= 1, got {self.iterations}")
        if not np.all(np.isfinite(self.weights.data)):
            raise RoutingError("weights contain non-finite entries")

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

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
        if self.iterations < 1:
            raise RoutingError(f"iterations must be >= 1, got {self.iterations}")


# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------


def _agreement_scale(n2: np.ndarray) -> np.ndarray:
    """|v| / (1 + |v|^2) from the squared norm, 0 at 0."""
    n = np.sqrt(n2)
    return np.divide(n, 1.0 + n2, out=np.zeros_like(n), where=n2 > 0)


def _squash_np(x: np.ndarray, axis: int) -> np.ndarray:
    return x * _agreement_scale(np.sum(x * x, axis=axis, keepdims=True))


def squash(v: Union[np.ndarray, Tensor, list], axis: int = -1):
    """Norm-bounding nonlinearity: v * |v| / (1 + |v|^2).

    Keeps the direction, maps the norm to |v|^2 / (1 + |v|^2) < 1, and
    sends the zero vector to zero. Accepts plain arrays or taped tensors.
    """
    if isinstance(v, Tensor):
        return _squash_tensor(v, axis)
    return _squash_np(np.asarray(v, dtype=np.float64), axis)


def _squash_tensor(v: Tensor, axis: int) -> Tensor:
    x = v.data
    n2 = np.sum(x * x, axis=axis, keepdims=True)
    scale = _agreement_scale(n2)
    out = Tensor(x * scale)

    def vjp(g):
        # d squash / dx = scale * I + ((1 - n2) / ((1 + n2)^2 * n)) * x x^T
        dot = np.sum(g * x, axis=axis, keepdims=True)
        denom = (1.0 + n2) ** 2 * np.sqrt(n2)
        coef = np.divide(1.0 - n2, denom, out=np.zeros_like(n2), where=n2 > 1e-24)
        return (g * scale + coef * dot * x,)

    return record(out, (v,), vjp)


def coupling_softmax(b: np.ndarray) -> np.ndarray:
    """Softmax step: c_ij = exp(b_ij) / sum_k exp(b_ik), rows over the

    output index (last axis), stabilized by row-max subtraction.
    """
    b = np.asarray(b)
    z = b - b.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def gram(features) -> np.ndarray:
    """Pairwise inner products G[l, i] = f_l . f_i of the input maps.

    Computed once per layer per sample; each off-diagonal product is
    shared across the matrix so G is exactly symmetric.
    """
    F = np.asarray(features, dtype=np.float64)
    if F.ndim == 1:
        F = F[None, :]
    if F.ndim != 2 or F.shape[0] == 0:
        raise RoutingError(f"expected a non-empty (I, S) stack of feature maps, got shape {F.shape}")
    upper = np.triu(F @ F.T)
    return upper + np.triu(upper, 1).T


def _check_norms(n2: np.ndarray, G: np.ndarray, W: np.ndarray) -> None:
    """Abort when a recovered |g_j|^2 lies below its rounding band, I * eps *

    (sum_i |W_ij|)^2 * max_i |G_ii| per sample and output map: the summed
    magnitudes of its terms times an I-term sum's rounding.
    """
    if np.any(n2 < 0):
        diag = np.abs(np.diagonal(G, axis1=-2, axis2=-1)).max(axis=-1)
        band = W.shape[0] * np.finfo(G.dtype).eps * np.sum(np.abs(W), axis=0) ** 2 * diag[..., None]
        if np.any(n2 < -band):
            raise RoutingNumericalError(f"recovered |g|^2 = {n2.min():.3e} below the rounding band")


def _agreement_terms(G: np.ndarray, W: np.ndarray, c: np.ndarray):
    """Return (A, n2) where A[.., i, j] = f_hat_ji . g_j and n2[.., j] = |g_j|^2.

    A expands through the Gram matrix: sum_l W_ij W_lj c_lj G_li; the norm
    recovery is n2_j = sum_i c_ij A_ij. Values below the rounding band
    abort; small negatives clamp to zero.
    """
    Wc = W * c
    M = np.einsum("...li,...lj->...ij", G, Wc)
    A = W * M
    n2 = np.sum(c * A, axis=-2)
    _check_norms(n2, G, W)
    return A, np.maximum(n2, 0.0)


def _gram_step(c: np.ndarray, G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Gram-space evidence update A_ij * |g_j| / (1 + |g_j|^2)."""
    A, n2 = _agreement_terms(G, W, c)
    return A * _agreement_scale(n2)[..., None, :]


def _fc_step(c: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    """FC evidence update u_hat_ij . squash(sum_i c_ij u_hat_ij)."""
    s = np.einsum("bnj,bnjd->bjd", c, u_hat)
    return np.einsum("bnjd,bjd->bnj", u_hat, _squash_np(s, axis=-1))


def _iterate(step, operands, shape, dtype, n_steps: int, trace: Optional[list] = None) -> np.ndarray:
    """`n_steps` detached {softmax, b += step(c, *operands)} rounds from zero logits; returns b."""
    b = np.zeros(shape, dtype=dtype)
    for _ in range(n_steps):
        c = coupling_softmax(b)
        if trace is not None:
            trace.append(c.copy())
        b = b + step(c, *operands)
    return b


# ---------------------------------------------------------------------------
# Routing paths (per-sample, spec-level API)
# ---------------------------------------------------------------------------


def route_conv1x1_naive(features, params: Conv1x1CapsuleParams, trace: Optional[list] = None):
    """Full-map routing: every iteration recombines the feature maps.

    Returns (g, c): the J output maps built from the final couplings, and
    those couplings. Logits start at zero, so one iteration reduces to the
    uniform combination g_j = (1/J) sum_i W_ij f_i.
    """
    F = np.asarray(features, dtype=np.float64)
    if F.ndim != 2:
        raise RoutingError(f"expected (I, S) features, got shape {F.shape}")
    W = params.weights.data.astype(np.float64)
    if F.shape[0] != W.shape[0]:
        raise RoutingError(f"features carry {F.shape[0]} maps but weights expect {W.shape[0]}")
    I, J = W.shape
    b = np.zeros((I, J))
    g = None
    c = None
    for it in range(params.iterations):
        c = coupling_softmax(b)
        if trace is not None:
            trace.append(c.copy())
        g = (W * c).T @ F  # (J, S)
        if it + 1 < params.iterations:  # the last update would go unread
            b = b + (F @ _squash_np(g, axis=-1).T) * W
    return g, c


def route_conv1x1_kernel(G, params: Conv1x1CapsuleParams, trace: Optional[list] = None):
    """Gram-matrix routing: iterations never touch the feature maps.

    Returns (c, norms): the final couplings and the recovered output-map
    norms |g_j|. Couplings match the naive path for the same weights and
    iteration count.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise RoutingError(f"Gram matrix must be square, got shape {G.shape}")
    W = params.weights.data.astype(np.float64)
    if G.shape[0] != W.shape[0]:
        raise RoutingError(f"Gram matrix is {G.shape[0]}x{G.shape[0]} but weights expect {W.shape[0]} maps")
    b = _iterate(_gram_step, (G, W), W.shape, G.dtype, params.iterations - 1, trace)
    c = coupling_softmax(b)
    if trace is not None:
        trace.append(c.copy())
    _, n2 = _agreement_terms(G, W, c)
    return c, np.sqrt(n2)


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
    out = Tensor(_agreement_scale(x))

    def vjp(g):
        denom = 2.0 * np.sqrt(x) * (1.0 + x) ** 2
        d = np.divide(1.0 - x, denom, out=np.zeros_like(x), where=x > 1e-24)
        return (g * d,)

    return record(out, (n2,), vjp)


def _gram_step_taped(c: Tensor, G: Tensor, W: Tensor) -> Tensor:
    """`_gram_step` on the tape, for the differentiated final round."""
    A = mul(W, einsum2("bli,blj->bij", G, mul(c, W)))
    n2 = tsum(mul(c, A), axis=1)
    _check_norms(n2.data, G.data, W.data)
    B, J = n2.shape
    return mul(A, _routing_scale_op(relu(n2)).reshape(B, 1, J))


def _fc_step_taped(c: Tensor, u_hat: Tensor) -> Tensor:
    """`_fc_step` on the tape, for the differentiated final round."""
    return einsum2("bnjd,bjd->bnj", u_hat, squash(einsum2("bnj,bnjd->bjd", c, u_hat)))


def _route(step, step_taped, operands, shape, dtype, r: int, grad_mode: str, freeze_key, trace) -> Tensor:
    """The coupling schedule of both routed layers; returns the final couplings.

    r=1 gives uniform couplings without calling `operands`, so the 1x1
    layer builds no Gram matrix. Otherwise `step` runs r-1 detached rounds
    on the arrays of `operands()` ("none"), or r-2 followed by a taped
    `step_taped` round ("last"). `frozen_routing` pins the detached logits.
    """
    if grad_mode not in ("none", "last"):
        raise RoutingError(f"grad_mode must be 'none' or 'last', got {grad_mode!r}")
    if r == 1:
        c = Tensor(np.full(shape, 1.0 / shape[-1], dtype=dtype))
    else:
        taped_ops = operands()
        arrays = tuple(t.data for t in taped_ops)
        last = grad_mode == "last"
        ctx = frozen_routing._active
        cache = ctx.cache if ctx is not None and freeze_key is not None else {}
        if freeze_key not in cache:
            cache[freeze_key] = _iterate(step, arrays, shape, dtype, r - 2 if last else r - 1, trace)
        b = cache[freeze_key]
        c = Tensor(coupling_softmax(b))
        if last:
            if trace is not None:
                trace.append(c.data.copy())
            c = softmax_lastdim(Tensor(b) + step_taped(c, *taped_ops))
    if trace is not None:
        trace.append(c.data.copy())
    return c


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

    c = _route(_gram_step, _gram_step_taped, operands, (B, I, J), Fm.dtype, params.iterations, grad_mode, freeze_key, trace)
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
    c = _route(_fc_step, _fc_step_taped, lambda: (u_hat,), (B, N, J), u_hat.dtype, params.iterations, grad_mode, freeze_key, trace)
    v = squash(einsum2("bnj,bnjd->bjd", c, u_hat))
    return v.reshape(J, d_out) if squeeze else v
