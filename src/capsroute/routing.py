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


_NEG_NORM_TOL = 1e-9


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


def _squash_np(x: np.ndarray, axis: int) -> np.ndarray:
    n2 = np.sum(x * x, axis=axis, keepdims=True)
    n = np.sqrt(n2)
    scale = np.divide(n, 1.0 + n2, out=np.zeros_like(n), where=n2 > 0)
    return x * scale


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
    n = np.sqrt(n2)
    scale = np.divide(n, 1.0 + n2, out=np.zeros_like(n), where=n2 > 0)
    out = Tensor(x * scale)

    def vjp(g):
        # d squash / dx = scale * I + ((1 - n2) / ((1 + n2)^2 * n)) * x x^T
        dot = np.sum(g * x, axis=axis, keepdims=True)
        denom = (1.0 + n2) ** 2 * n
        coef = np.divide(1.0 - n2, denom, out=np.zeros_like(n), where=n2 > 1e-24)
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


def _agreement_scale(n2: np.ndarray) -> np.ndarray:
    """|g| / (1 + |g|^2) from the squared norm, 0 at 0."""
    n = np.sqrt(n2)
    return np.divide(n, 1.0 + n2, out=np.zeros_like(n), where=n2 > 0)


def _agreement_terms(G: np.ndarray, W: np.ndarray, c: np.ndarray):
    """Return (A, n2) where A[.., i, j] = f_hat_ji . g_j and n2[.., j] = |g_j|^2.

    A expands through the Gram matrix: sum_l W_ij W_lj c_lj G_li; the norm
    recovery is n2_j = sum_i c_ij A_ij. Values more negative than the
    rounding band abort; small negatives clamp to zero.
    """
    Wc = W * c
    M = np.einsum("...li,...lj->...ij", G, Wc)
    A = W * M
    n2 = np.sum(c * A, axis=-2)
    if np.any(n2 < -_NEG_NORM_TOL):
        raise RoutingNumericalError(f"recovered |g|^2 = {n2.min():.3e} below -{_NEG_NORM_TOL:g}")
    return A, np.maximum(n2, 0.0)


def _kernel_update_steps(G: np.ndarray, W: np.ndarray, n_steps: int, trace: Optional[list] = None) -> np.ndarray:
    """Run `n_steps` full {softmax, agreement, evidence-update} rounds on

    zero-initialized logits, entirely on the Gram matrix. Returns b.
    """
    shape = G.shape[:-2] + (W.shape[0], W.shape[1])
    b = np.zeros(shape, dtype=G.dtype)
    for _ in range(n_steps):
        c = coupling_softmax(b)
        if trace is not None:
            trace.append(c.copy())
        A, n2 = _agreement_terms(G, W, c)
        b = b + A * _agreement_scale(n2)[..., None, :]
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
    I, J = W.shape
    b = np.zeros((I, J))
    c = None
    n2 = np.zeros(J)
    for it in range(params.iterations):
        c = coupling_softmax(b)
        if trace is not None:
            trace.append(c.copy())
        A, n2 = _agreement_terms(G, W, c)
        if it + 1 < params.iterations:  # the last update would go unread
            b = b + A * _agreement_scale(n2)[None, :]
    return c, np.sqrt(n2)


# ---------------------------------------------------------------------------
# Differentiable layers
# ---------------------------------------------------------------------------


class _FreezeContext:
    """Pins the detached routing iterations across repeated forwards.

    The first forward pass stores each layer's detached logits under its
    key; later passes reuse them. This is what makes finite differencing
    well-defined for grad_mode="last": perturbations then flow only
    through the differentiated final update, exactly as the adjoints do.
    """

    _active: Optional["_FreezeContext"] = None

    def __init__(self):
        self.cache: dict = {}

    def __enter__(self):
        _FreezeContext._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _FreezeContext._active = None


def frozen_routing() -> _FreezeContext:
    return _FreezeContext()


def _frozen(key, compute):
    ctx = _FreezeContext._active
    if ctx is None or key is None:
        return compute()
    if key not in ctx.cache:
        ctx.cache[key] = compute()
    return ctx.cache[key]


def _routing_scale_op(n2: Tensor) -> Tensor:
    """Taped |g|/(1+|g|^2) from |g|^2, with a guarded derivative at 0."""
    x = n2.data
    n = np.sqrt(x)
    y = np.divide(n, 1.0 + x, out=np.zeros_like(x), where=x > 0)
    out = Tensor(y)

    def vjp(g):
        denom = 2.0 * n * (1.0 + x) ** 2
        d = np.divide(1.0 - x, denom, out=np.zeros_like(x), where=x > 1e-24)
        return (g * d,)

    return record(out, (n2,), vjp)


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
    if grad_mode not in ("none", "last"):
        raise RoutingError(f"grad_mode must be 'none' or 'last', got {grad_mode!r}")
    squeeze = features.ndim == 2
    Fm = features.reshape((1,) + features.shape) if squeeze else features
    if Fm.ndim != 3:
        raise RoutingError(f"expected (B, I, S) or (I, S) features, got shape {features.shape}")
    W = params.weights
    if Fm.shape[1] != W.shape[0]:
        raise RoutingError(f"features carry {Fm.shape[1]} maps but weights expect {W.shape[0]}")
    B, I, S = Fm.shape
    J = W.shape[1]
    r = params.iterations

    if r == 1:
        c_fin = Tensor(np.full((B, I, J), 1.0 / J, dtype=Fm.dtype))
    elif grad_mode == "none":
        G = np.einsum("bis,bls->bil", Fm.data, Fm.data)
        b_last = _frozen(freeze_key, lambda: _kernel_update_steps(G, W.data, r - 1, trace))
        c_fin = Tensor(coupling_softmax(b_last))
    else:
        G_t = einsum2("bis,bls->bil", Fm, Fm)
        b_pre = _frozen(freeze_key, lambda: _kernel_update_steps(G_t.data, W.data, r - 2, trace))
        c_prev = Tensor(coupling_softmax(b_pre))
        if trace is not None:
            trace.append(c_prev.data.copy())
        # final evidence update, still in Gram space but on the tape
        Wc = mul(c_prev, W)
        M = einsum2("bli,blj->bij", G_t, Wc)
        A = mul(W, M)
        n2_raw = tsum(mul(c_prev, A), axis=1)
        if np.any(n2_raw.data < -_NEG_NORM_TOL):
            raise RoutingNumericalError(f"recovered |g|^2 = {n2_raw.data.min():.3e} below -{_NEG_NORM_TOL:g}")
        scale = _routing_scale_op(relu(n2_raw))  # (B, J)
        b_used = Tensor(b_pre) + mul(A, scale.reshape(B, 1, J))
        c_fin = softmax_lastdim(b_used)

    if trace is not None:
        trace.append(c_fin.data.copy())
    out = einsum2("bij,bis->bjs", mul(c_fin, W), Fm)
    return out.reshape(J, S) if squeeze else out


def _fc_update_steps(u_hat: np.ndarray, n_steps: int, trace: Optional[list] = None) -> np.ndarray:
    """Detached FC routing rounds on zero logits; returns b (B, N, J)."""
    B, N, J, D = u_hat.shape
    b = np.zeros((B, N, J), dtype=u_hat.dtype)
    for _ in range(n_steps):
        c = coupling_softmax(b)
        if trace is not None:
            trace.append(c.copy())
        s = np.einsum("bnj,bnjd->bjd", c, u_hat)
        v = _squash_np(s, axis=-1)
        b = b + np.einsum("bnjd,bjd->bnj", u_hat, v)
    return b


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
    if grad_mode not in ("none", "last"):
        raise RoutingError(f"grad_mode must be 'none' or 'last', got {grad_mode!r}")
    squeeze = primary.ndim == 2
    u = primary.reshape((1,) + primary.shape) if squeeze else primary
    if u.ndim != 3:
        raise RoutingError(f"expected (B, N, d_in) or (N, d_in) capsules, got shape {primary.shape}")
    W = params.weights
    N, J, d_in, d_out = W.shape
    if u.shape[1] != N or u.shape[2] != d_in:
        raise RoutingError(f"capsules {u.shape[1]}x{u.shape[2]} do not match weights {N}x..x{d_in}")
    B = u.shape[0]
    r = params.iterations

    u_hat = einsum2("bnd,njde->bnje", u, W)  # (B, N, J, d_out)

    if r == 1:
        c_fin = Tensor(np.full((B, N, J), 1.0 / J, dtype=u.dtype))
    elif grad_mode == "none":
        b_last = _frozen(freeze_key, lambda: _fc_update_steps(u_hat.data, r - 1, trace))
        c_fin = Tensor(coupling_softmax(b_last))
    else:
        b_pre = _frozen(freeze_key, lambda: _fc_update_steps(u_hat.data, r - 2, trace))
        c_prev = Tensor(coupling_softmax(b_pre))
        if trace is not None:
            trace.append(c_prev.data.copy())
        s_prev = einsum2("bnj,bnjd->bjd", c_prev, u_hat)
        v_prev = squash(s_prev)
        b_used = Tensor(b_pre) + einsum2("bnjd,bjd->bnj", u_hat, v_prev)
        c_fin = softmax_lastdim(b_used)

    if trace is not None:
        trace.append(c_fin.data.copy())
    s = einsum2("bnj,bnjd->bjd", c_fin, u_hat)
    v = squash(s)
    return v.reshape(J, d_out) if squeeze else v
