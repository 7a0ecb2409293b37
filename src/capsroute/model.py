"""Network assembly: downsampling stem, routed dense blocks, conv head,

primary-capsule grouping, and the fully connected capsule classifier.

The stem is Conv(7x7, stride 2) - MaxPool(3, stride 4, "same") -
Conv(1x1, stride 1) - AvgPool(2, stride 1), a net reduction of 8, so a
256 input reaches the 9x9 head at 32x32 and the 4x4/stride-4 average pool
leaves an 8x8 primary capsule grid. The stride-4 pool builds only the
windows that MaxPool(3, stride 2, "same") followed by Conv(1x1, stride 2)
would read, and gives the same output and gradients bitwise. That holds
unless the conv's output extent ceil(n/2) is 3 mod 4, where the two pools
pad differently; `NetworkConfig.validate` rejects those input sizes. The
7x7 conv and the 3/4 pool run as one op, `conv.conv_maxpool`, which
computes only the conv cells that the pool reads (about 9/16); its
output is bitwise the pair's, and its kernel gradient differs from the
pair's by summation order only. In `forward`, the 9x9 head conv and its
4/4 average pool likewise run as one op, `conv.conv_avgpool`, which
computes only the pooled cells; `pre_pool` and `head_tail` keep the pair
apart, because Grad-CAM reads the full-resolution map between them.
Dense blocks follow BN-ReLU-Conv(1x1)-BN-ReLU-Conv(3x3) composite layers
where the 1x1 step is the routed capsule layer. A channel's batch
statistics are the same in every BN that reads it, so each channel is
normalized once, when it joins, into one x_hat buffer that spans every
block up to the head (Pleiss et al., arXiv 1707.06990), with one running
mean and variance per channel. Each reader (every layer's first BN and
the head BN) applies its own gamma, beta and ReLU to a prefix of that
buffer; the tape adds the readers' gradients in x_hat space. Eval outputs
are bitwise those of a BN per reader. The unrouted baseline is
the same network at zero routing iterations: unit couplings make each 1x1
a plain 1x1 convolution and the FC layer squash(sum_i u_hat_ij).
Class scores are the L2 norms of the output capsules, so they live in
[0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conv import BatchNormState, affine_relu, batchnorm, conv2d, conv_avgpool, conv_maxpool, pool2d
from .routing import (
    Conv1x1CapsuleParams,
    FcCapsuleParams,
    conv1x1_capsule_forward,
    route_fc,
)
from .tensor import (
    Tensor,
    einsum2,  # unused here; kept so tracers that wrap `model.einsum2` still resolve it
    resolve_dtype,
    vec_norm,
)


PRIMARY_CAPS_DIM = 8  # a primary capsule groups this many consecutive head maps


class ConfigError(ValueError):
    """Network configuration that cannot be built."""


def _is_int(value) -> bool:
    """An int or numpy integer; bools are not sizes."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class NetworkConfig:
    input_size: int = 64
    down_channels: tuple[int, int] = (16, 16)  # stem conv7x7 out, conv1x1 out
    n_dense_blocks: int = 1
    layers_per_block: int = 4
    growth_rate: int = 8
    bottleneck_width: int = 4  # routed 1x1 emits bottleneck_width * growth_rate maps
    head_channels: int = 32
    routing_iters: int = 3  # 0: the unrouted baseline
    caps_dim_class: int = 16
    n_classes: int = 4
    grad_mode: str = "last"
    dtype: str = "f32"

    def validate(self) -> None:
        positive = {
            "input_size": self.input_size,
            "n_dense_blocks": self.n_dense_blocks,
            "layers_per_block": self.layers_per_block,
            "growth_rate": self.growth_rate,
            "bottleneck_width": self.bottleneck_width,
            "head_channels": self.head_channels,
            "caps_dim_class": self.caps_dim_class,
            "n_classes": self.n_classes,
        }
        for name, value in positive.items():
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_int(self.routing_iters) or self.routing_iters < 0:
            raise ConfigError(f"routing_iters must be an integer >= 0, got {self.routing_iters!r}")
        if len(self.down_channels) != 2 or not all(_is_int(c) and c >= 1 for c in self.down_channels):
            raise ConfigError(f"down_channels must be two integer extents >= 1, got {self.down_channels!r}")
        if self.head_channels % PRIMARY_CAPS_DIM != 0:
            raise ConfigError(f"head_channels must be a multiple of {PRIMARY_CAPS_DIM}, got {self.head_channels}")
        half = -(-int(self.input_size) // 2)  # extent after the 7x7/2 stem conv
        if half % 4 == 3:
            raise ConfigError(
                f"input_size {self.input_size} is not supported: the stem conv's output extent {half} is 3 mod 4, "
                f"where the stem's 3/4 max pool would pad differently from max pool 3/2 followed by the "
                f"strided 1x1; the nearest sizes the stem accepts are {2 * half - 2} and {2 * half + 1}"
            )
        if self.grad_mode not in ("none", "last"):
            raise ConfigError(f"grad_mode must be 'none' or 'last', got {self.grad_mode!r}")
        resolve_dtype(self.dtype)


@dataclass
class _CompositeLayer:
    name: str
    bn1_gamma: Tensor
    bn1_beta: Tensor
    route: Conv1x1CapsuleParams
    bn2_gamma: Tensor
    bn2_beta: Tensor
    bn2_state: BatchNormState
    conv3: Tensor


def shape_trace(config: NetworkConfig) -> list[tuple[str, tuple[int, int, int]]]:
    """(layer name, (channels, H, W)) after every stage, or raise with the

    partial trace when the arithmetic cannot close.
    """
    config.validate()
    trace: list[tuple[str, tuple[int, int, int]]] = []
    c1, c2 = config.down_channels

    def step(name, c, h, w):
        if h < 1 or w < 1:
            rendered = " -> ".join(f"{n}:{c_}x{h_}x{w_}" for n, (c_, h_, w_) in trace)
            raise ConfigError(f"spatial extent collapsed at {name} (trace: {rendered})")
        trace.append((name, (c, h, w)))
        return h, w

    s = config.input_size
    step("input", 1, s, s)
    s = -(-s // 2)
    step("stem.conv1(7x7/2)", c1, s, s)
    s = -(-s // 4)
    step("stem.maxpool(3/4)", c1, s, s)
    step("stem.conv2(1x1/1)", c2, s, s)
    step("stem.avgpool(2/1)", c2, s, s)
    ch = c2
    for b in range(config.n_dense_blocks):
        for l in range(config.layers_per_block):
            ch += config.growth_rate
        step(f"block{b}", ch, s, s)
    step("head.conv(9x9/1)", config.head_channels, s, s)
    if s < 4:
        rendered = " -> ".join(f"{n}:{c_}x{h_}x{w_}" for n, (c_, h_, w_) in trace)
        raise ConfigError(
            f"pre-pool grid {s}x{s} is smaller than the 4x4 average pool (trace: {rendered})"
        )
    s = (s - 4) // 4 + 1
    step("head.avgpool(4/4)", config.head_channels, s, s)
    n_caps = s * s * (config.head_channels // PRIMARY_CAPS_DIM)
    step("primary_capsules", n_caps, 1, 1)
    step("class_capsules", config.n_classes, 1, 1)
    return trace


class Network:
    """Instantiated parameter set plus forward logic and named taps."""

    def __init__(self, config: NetworkConfig, seed: int):
        config.validate()
        self.config = config
        self.trace = shape_trace(config)
        dt = resolve_dtype(config.dtype)
        rng = np.random.default_rng(seed)

        def param(*shape):
            return Tensor(rng.normal(0.0, 0.05, size=shape).astype(dt), requires_grad=True)

        c1, c2 = config.down_channels
        k = config.growth_rate
        bott = config.bottleneck_width * k
        self.stem_conv1 = param(c1, 1, 7, 7)
        self.stem_conv2 = param(c2, c1, 1, 1)

        n_dense = c2 + config.n_dense_blocks * config.layers_per_block * k
        self.dense_state = BatchNormState.fresh(n_dense, dtype=dt)
        self.blocks: list[list[_CompositeLayer]] = []
        ch = c2
        for b in range(config.n_dense_blocks):
            layers = []
            for l in range(config.layers_per_block):
                name = f"block{b}.layer{l}"
                layers.append(
                    _CompositeLayer(
                        name=name,
                        bn1_gamma=Tensor(np.ones(ch, dtype=dt), requires_grad=True),
                        bn1_beta=Tensor(np.zeros(ch, dtype=dt), requires_grad=True),
                        route=Conv1x1CapsuleParams(param(ch, bott), config.routing_iters),
                        bn2_gamma=Tensor(np.ones(bott, dtype=dt), requires_grad=True),
                        bn2_beta=Tensor(np.zeros(bott, dtype=dt), requires_grad=True),
                        bn2_state=BatchNormState.fresh(bott, dtype=dt),
                        conv3=param(k, bott, 3, 3),
                    )
                )
                ch += k
            self.blocks.append(layers)

        self.head_bn_gamma = Tensor(np.ones(ch, dtype=dt), requires_grad=True)
        self.head_bn_beta = Tensor(np.zeros(ch, dtype=dt), requires_grad=True)
        self.head_conv = param(config.head_channels, ch, 9, 9)

        grid = self.trace[-3][1][1]  # side of the pooled capsule grid
        n_caps = grid * grid * (config.head_channels // PRIMARY_CAPS_DIM)
        fc_w = param(n_caps, config.n_classes, PRIMARY_CAPS_DIM, config.caps_dim_class)
        self.fc = FcCapsuleParams(fc_w, config.routing_iters)

    # -- parameter/state registry -------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        out = {"stem.conv1": self.stem_conv1, "stem.conv2": self.stem_conv2}
        for layers in self.blocks:
            for lay in layers:
                out[f"{lay.name}.bn1.gamma"] = lay.bn1_gamma
                out[f"{lay.name}.bn1.beta"] = lay.bn1_beta
                out[f"{lay.name}.route.w"] = lay.route.weights
                out[f"{lay.name}.bn2.gamma"] = lay.bn2_gamma
                out[f"{lay.name}.bn2.beta"] = lay.bn2_beta
                out[f"{lay.name}.conv3"] = lay.conv3
        out["head.bn.gamma"] = self.head_bn_gamma
        out["head.bn.beta"] = self.head_bn_beta
        out["head.conv"] = self.head_conv
        out["fc.w"] = self.fc.weights
        return out

    def bn_states(self) -> dict[str, BatchNormState]:
        """Running stats: one entry per dense channel ("dense", stem maps
        first, then each layer's in order) and each layer's second BN."""
        out = {"dense": self.dense_state}
        for layers in self.blocks:
            for lay in layers:
                out[f"{lay.name}.bn2"] = lay.bn2_state
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every persistent buffer by name: parameters plus running stats."""
        out = {name: p.data for name, p in self.parameters().items()}
        for name, st in self.bn_states().items():
            out[f"{name}.running_mean"] = st.running_mean
            out[f"{name}.running_var"] = st.running_var
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore buffers saved by `state_arrays`, all or nothing: every

        name and shape is checked before any buffer is written, and missing
        or extra names are an error. Each buffer is overwritten in place.
        """
        expect = self.state_arrays()
        missing = sorted(set(expect) - set(arrays))
        extra = sorted(set(arrays) - set(expect))
        if missing or extra:
            raise ConfigError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, dest in expect.items():
            if arrays[name].shape != dest.shape:
                raise ConfigError(f"{name}: saved shape {arrays[name].shape} != built shape {dest.shape}")
        for name, dest in expect.items():
            dest[...] = arrays[name]

    def predict(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Eval-mode class scores for a stack of prepared (N, 1, H, W) or

        (N, H, W) inputs, processed in batches.
        """
        x = np.asarray(images)
        if x.ndim == 3:
            x = x[:, None]
        chunks = []
        for start in range(0, x.shape[0], batch_size):
            scores, _ = self.forward(Tensor(x[start : start + batch_size], dtype=self.config.dtype), mode="eval")
            chunks.append(scores.data.copy())
        return np.concatenate(chunks, axis=0)

    # -- forward --------------------------------------------------------------

    def forward(self, batch, mode: str = "train", coupling_trace: dict | None = None):
        """Run the network; returns (scores, taps).

        scores is (N, n_classes) with every entry in [0, 1), the scores
        `head_tail(pre_pool(batch))` gives up to rounding, with the head
        conv and its pool fused into one `conv_avgpool`. taps is an empty
        dict, kept for callers that read `forward(...)[1]`.
        `coupling_trace`, when a dict, collects every routed layer's
        per-iteration coupling tensors under the layer's name.
        """
        y = self._head_input(batch, mode, coupling_trace)
        return self._capsule_scores(conv_avgpool(y, self.head_conv, 4), coupling_trace), {}

    def pre_pool(self, batch, mode: str = "train", coupling_trace: dict | None = None) -> Tensor:
        """The head conv's full-resolution output, which `head_tail` maps to

        the scores and Grad-CAM differentiates: stem, dense blocks, head
        BN-ReLU and 9x9 conv.
        """
        return conv2d(self._head_input(batch, mode, coupling_trace), self.head_conv, stride=1, padding="same")

    def _head_input(self, batch, mode: str, coupling_trace: dict | None) -> Tensor:
        """Stem, dense blocks and head BN-ReLU on a checked input batch."""
        x = batch if isinstance(batch, Tensor) else Tensor(batch, dtype=self.config.dtype)
        if x.ndim != 4 or x.shape[2] != self.config.input_size or x.shape[3] != self.config.input_size:
            raise ConfigError(
                f"expected (N, 1, {self.config.input_size}, {self.config.input_size}) input, got {x.shape}"
            )
        return self.dense_head(self.stem(x), mode, coupling_trace)

    def dense_head(self, x: Tensor, mode: str = "train", coupling_trace: dict | None = None) -> Tensor:
        """Dense blocks and the head BN-ReLU on the stem's output x.

        Each channel group (the stem's maps, then each layer's new maps) is
        normalized once into one x_hat buffer, its running stats held in
        `dense_state` at the same channel offsets; every layer reads the
        prefix written so far, and the head reads all of it.
        """
        B, c, H, W = x.shape
        st = self.dense_state
        xhat = np.empty((B, st.running_mean.size, H, W), dtype=x.dtype)

        def join(maps: Tensor, lo: int) -> Tensor:
            hi = lo + maps.shape[1]
            group = BatchNormState(st.running_mean[lo:hi], st.running_var[lo:hi])
            return batchnorm(maps, group, mode, out=xhat[:, lo:hi])

        parts = [join(x, 0)]
        for layers in self.blocks:
            for lay in layers:
                new = self.composite_layer(parts, lay, mode, coupling_trace, xhat[:, :c])
                parts.append(join(new, c))
                c += new.shape[1]
        return affine_relu(parts, self.head_bn_gamma, self.head_bn_beta, xhat)

    def stem(self, x: Tensor) -> Tensor:
        """Conv 7x7/2, max pool 3/4, conv 1x1/1 and avg pool 2/1: the

        stages `shape_trace` names stem.*. The first two run as one
        `conv_maxpool`, which computes only the conv cells the pool reads,
        each as the same dot product `conv2d` takes, so the output is
        bitwise the two ops'. The image gets no gradient.
        """
        x = conv_maxpool(x, self.stem_conv1, 2, 3, 4)
        x = conv2d(x, self.stem_conv2, stride=1, padding="valid")
        return pool2d(x, "avg", 2, 1, padding="same")

    def composite_layer(
        self, xhat, lay: _CompositeLayer, mode: str, coupling_trace: dict | None = None, joined=None
    ) -> Tensor:
        """One dense-block step: BN-ReLU-1x1-BN-ReLU-3x3 conv, where the 1x1

        is routed (plain at zero iterations) and the first BN is this
        layer's gamma and beta over `xhat`, the block's normalized channel
        groups in order (`joined`: their concatenation, if the caller holds
        it). Returns the growth_rate new maps, unnormalized.
        """
        y = affine_relu(xhat, lay.bn1_gamma, lay.bn1_beta, joined)
        B, C, H, W = y.shape
        trace = None if coupling_trace is None else coupling_trace.setdefault(lay.name, [])
        z3 = conv1x1_capsule_forward(
            y.reshape(B, C, H * W), lay.route, self.config.grad_mode, freeze_key=lay.name, trace=trace
        )
        z = z3.reshape(B, z3.shape[1], H, W)
        z = affine_relu([batchnorm(z, lay.bn2_state, mode)], lay.bn2_gamma, lay.bn2_beta)
        return conv2d(z, lay.conv3, stride=1, padding="same")

    def head_tail(self, pre_pool: Tensor, coupling_trace: dict | None = None) -> Tensor:
        """Scores as a function of the pre-pool activations alone (the

        class-score path that weakly supervised localization explains):
        4x4 average pool, primary capsules, FC routing and capsule norms.
        """
        return self._capsule_scores(pool2d(pre_pool, "avg", 4, 4, padding="valid"), coupling_trace)

    def _capsule_scores(self, pooled: Tensor, coupling_trace: dict | None) -> Tensor:
        trace = None if coupling_trace is None else coupling_trace.setdefault("fc", [])
        v = route_fc(primary_capsules(pooled), self.fc, self.config.grad_mode, freeze_key="fc", trace=trace)
        return vec_norm(v, axis=2)


def primary_capsules(head_features: Tensor) -> Tensor:
    """Group 8 consecutive channels at each spatial position into one

    capsule: (B, C, H, W) -> (B, H*W*C/8, 8), position-major order.
    """
    B, C, H, W = head_features.shape
    d = PRIMARY_CAPS_DIM
    if C % d != 0:
        raise ConfigError(f"channel count {C} is not divisible by the capsule width {d}")
    g = head_features.reshape(B, C // d, d, H, W)
    g = g.transpose((0, 3, 4, 1, 2))
    return g.reshape(B, H * W * (C // d), d)


def build_network(config: NetworkConfig, seed: int) -> Network:
    """Instantiate the routed network with seeded normal(0, 0.05) weights."""
    return Network(config, seed)


def baseline_variant(config: NetworkConfig, seed: int) -> Network:
    """The unrouted baseline: the same network at zero routing iterations.

    Unit couplings make every routed 1x1 a plain 1x1 convolution and the
    FC layer squash(sum_i u_hat_ij). Parameter shapes, count, and seeded
    values match the routed model's.
    """
    return Network(replace(config, routing_iters=0), seed)
