"""Dense tensors with tape-based reverse-mode differentiation.

Layout convention is batch x channels x height x width, row-major. All
operations run on plain numpy buffers; when a Tape is active and an input
requires gradients, the op appends a record with its vector-Jacobian
product, and `backward` replays the records in reverse.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

import numpy as np

F32 = np.float32
F64 = np.float64

_DTYPES = {"f32": F32, "f64": F64}


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class AutodiffError(RuntimeError):
    """Raised on invalid tape usage (e.g., non-scalar loss)."""


def resolve_dtype(dtype) -> np.dtype:
    """Map 'f32'/'f64' (or a numpy float dtype) to the numpy dtype."""
    if isinstance(dtype, str):
        try:
            return np.dtype(_DTYPES[dtype])
        except KeyError:
            raise ValueError(f"unknown dtype {dtype!r}, expected 'f32' or 'f64'")
    dt = np.dtype(dtype)
    if dt not in (np.dtype(F32), np.dtype(F64)):
        raise ValueError(f"unsupported dtype {dt}")
    return dt


class Tensor:
    """A dense numeric array plus an optional gradient buffer.

    `data` is always a float32 or float64 ndarray. `grad` is filled in by
    `backward` and has the same shape and dtype as `data`.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(resolve_dtype(dtype), copy=False)
        elif arr.dtype not in (np.dtype(F32), np.dtype(F64)):
            arr = arr.astype(F64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- operator sugar (scalars or Tensors) --------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    __rmul__ = __mul__

    # -- method sugar --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes) -> "Tensor":
        return transpose(self, axes)


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


class Tape:
    """Ordered record of executed ops; replayed in reverse by `backward`.

    Records are appended in execution order, which is already a topological
    order of the computation graph. Entering a Tape as a context manager
    makes it the active tape; ops record onto the innermost active tape.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = Tape._stack.pop()
        assert popped is self


def active_tape() -> Optional[Tape]:
    return Tape._stack[-1] if Tape._stack else None


def record(out: Tensor, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Attach a backward rule for `out` to the active tape, if any.

    `vjp(grad_out)` must return one gradient array (or None) per input,
    in order. Recording happens only when a tape is active and at least
    one input requires gradients; `out.requires_grad` is set accordingly.
    """
    needs = any(t.requires_grad for t in inputs)
    tape = active_tape()
    if tape is not None and needs:
        out.requires_grad = True
        tape.records.append((out, tuple(inputs), vjp))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate adjoints of `loss` onto every tensor the tape touched.

    Deterministic for a fixed tape: grads are reset on entry, so calling
    backward twice yields bitwise-identical results.

    A gradient's first arrival is kept as the VJP returned it, and it is
    copied only when a second contribution arrives (copy-on-accumulate), so
    nothing a VJP returned is ever written in place. A `.grad` may
    therefore share memory with another tensor's `.grad`, or be a
    read-only broadcast view: callers must read it and never write into it.
    """
    if loss.size != 1:
        raise AutodiffError(f"loss must be scalar, got shape {loss.shape}")
    for out, inputs, _ in tape.records:
        out.grad = None
        for t in inputs:
            t.grad = None
    loss.grad = np.ones_like(loss.data)
    owned = set()  # ids of tensors whose .grad backward allocated itself
    for out, inputs, vjp in reversed(tape.records):
        g = out.grad
        if g is None:
            continue
        grads = vjp(g)
        for t, gt in zip(inputs, grads):
            if gt is None:
                continue
            if t.grad is None:
                t.grad = gt.astype(t.data.dtype, copy=False)
            elif id(t) in owned:
                t.grad += gt
            else:
                t.grad = np.add(t.grad, gt, out=np.empty(t.grad.shape, dtype=t.grad.dtype))
                owned.add(id(t))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and reduction ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return record(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return record(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return record(out, (a, b), vjp)


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)
    return record(out, (a,), lambda g: (g * (2.0 * a.data),))


def relu(a: Tensor) -> Tensor:
    """max(0, x); subgradient 0 at exactly 0."""
    out = Tensor(np.maximum(a.data, 0))
    return record(out, (a,), lambda g: (g * (a.data > 0),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape),)

    return record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return record(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))
    return record(out, (a,), lambda g: (g.transpose(inv),))


# ---------------------------------------------------------------------------
# Linear-algebra ops
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _matmul_plan(spec: str, a_shape: tuple, b_shape: tuple):
    """How `_contract` maps `spec` onto one batched matmul (shapes only, no data).

    Indices in both operands and the output are batch axes, those in one
    operand and the output are free (rows from one operand, columns from
    the other), and those in both operands only are summed. Each operand
    is transposed to (batch..., free, summed) or (batch..., summed, free)
    order, its free and its summed axes each reshaped into one. Batch axes
    stay apart: matmul loops over them at any strides, where merging them
    would copy an operand whose batch axes are not adjacent in memory. The
    operands swap sides when that makes the product come out in the
    output's axis order. Returns (swap, a_axes, a_nd, b_axes, b_nd,
    out_nd, out_axes).
    """
    lhs, out_sub = spec.replace(" ", "").split("->")
    a_sub, b_sub = lhs.split(",")
    for sub, shape in ((a_sub, a_shape), (b_sub, b_shape)):
        if len(sub) != len(shape) or len(set(sub)) != len(sub):
            raise ShapeError(f"spec {spec!r} does not fit operand shape {shape} (subscripts {sub!r})")
    if len(set(out_sub)) != len(out_sub) or not set(out_sub) <= set(a_sub) | set(b_sub):
        raise ShapeError(f"spec {spec!r} has a repeated or unknown output index")
    for sub, other in ((a_sub, b_sub), (b_sub, a_sub)):
        if not set(sub) <= set(out_sub) | set(other):
            raise ShapeError(f"spec {spec!r} sums an index over one operand only")
    size = dict(zip(a_sub, a_shape))
    for ch, n in zip(b_sub, b_shape):
        if size.setdefault(ch, n) != n:
            raise ShapeError(f"index {ch!r} of spec {spec!r} has extents {size[ch]} and {n}")

    batch = [ch for ch in out_sub if ch in a_sub and ch in b_sub]
    left = [ch for ch in out_sub if ch not in b_sub]
    right = [ch for ch in out_sub if ch not in a_sub]
    summed = [ch for ch in a_sub if ch not in out_sub]
    nb = tuple(size[ch] for ch in batch)
    nl, nr, ns = (int(np.prod([size[ch] for ch in grp])) for grp in (left, right, summed))
    swap = batch + left + right != list(out_sub) and batch + right + left == list(out_sub)
    if swap:  # (batch, right, summed) @ (batch, summed, left)
        a_order, a_nd = batch + summed + left, nb + (ns, nl)
        b_order, b_nd = batch + right + summed, nb + (nr, ns)
        mid = batch + right + left
    else:  # (batch, left, summed) @ (batch, summed, right)
        a_order, a_nd = batch + left + summed, nb + (nl, ns)
        b_order, b_nd = batch + summed + right, nb + (ns, nr)
        mid = batch + left + right
    return (
        swap,
        tuple(a_sub.index(ch) for ch in a_order),
        a_nd,
        tuple(b_sub.index(ch) for ch in b_order),
        b_nd,
        tuple(size[ch] for ch in mid),
        tuple(mid.index(ch) for ch in out_sub),
    )


def _contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-operand einsum as one batched matmul (a broadcast multiply when
    no index is summed), planned once per spec and shapes."""
    swap, a_axes, a_nd, b_axes, b_nd, out_nd, out_axes = _matmul_plan(spec, a.shape, b.shape)
    x = a.transpose(a_axes).reshape(a_nd)
    y = b.transpose(b_axes).reshape(b_nd)
    lhs, rhs = (y, x) if swap else (x, y)
    # with nothing summed the product is an outer one, which numpy's matmul
    # runs in a slow non-BLAS loop; a broadcast multiply gives the same values
    out = lhs * rhs if lhs.shape[-1] == 1 else np.matmul(lhs, rhs)
    return out.reshape(out_nd).transpose(out_axes)


def einsum2(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum with automatic backward.

    Requires every index of each operand to appear in the output or in the
    other operand, so that each input gradient is itself a two-operand
    einsum of the output gradient and the sibling input. The forward and
    both gradients each run as one batched matmul.
    """
    out = Tensor(_contract(spec, a.data, b.data))
    lhs, out_sub = spec.replace(" ", "").split("->")
    a_sub, b_sub = lhs.split(",")

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _contract(f"{out_sub},{b_sub}->{a_sub}", g, b.data)
        if b.requires_grad:
            gb = _contract(f"{a_sub},{out_sub}->{b_sub}", a.data, g)
        return (ga, gb)

    return record(out, (a, b), vjp)


def vec_norm(a: Tensor, axis: int = -1) -> Tensor:
    """Euclidean norm along `axis`; subgradient 0 for zero vectors."""
    n = np.sqrt(np.sum(a.data * a.data, axis=axis))
    out = Tensor(n)

    def vjp(g):
        ge = np.expand_dims(g, axis)
        ne = np.expand_dims(n, axis)
        safe = np.where(ne > 0, ne, 1.0)
        return (np.where(ne > 0, ge * a.data / safe, 0.0),)

    return record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# Finite-difference harness
# ---------------------------------------------------------------------------


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-5,
    max_coords: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Max relative error between taped gradients and central differences.

    `f` must be a pure scalar function of `x`'s buffer. The relative error
    at each checked coordinate is |analytic - numeric| divided by
    max(1e-12, |analytic| + |numeric|). When `max_coords` is given, a
    seeded subset of coordinates is checked instead of all of them.
    """
    x.requires_grad = True
    with Tape() as tape:
        y = f(x)
        backward(tape, y)
    if x.grad is None:
        raise AutodiffError("f did not propagate gradients to x")
    analytic = x.grad.reshape(-1).copy()

    flat = x.data.reshape(-1)
    coords = np.arange(flat.size)
    if max_coords is not None and flat.size > max_coords:
        coords = np.random.default_rng(seed).choice(flat.size, size=max_coords, replace=False)

    worst = 0.0
    for idx in coords:
        orig = flat[idx]
        flat[idx] = orig + h
        yp = float(f(x).data.reshape(()))
        flat[idx] = orig - h
        ym = float(f(x).data.reshape(()))
        flat[idx] = orig
        numeric = (yp - ym) / (2.0 * h)
        denom = max(1e-12, abs(analytic[idx]) + abs(numeric))
        worst = max(worst, abs(analytic[idx] - numeric) / denom)
    return worst
