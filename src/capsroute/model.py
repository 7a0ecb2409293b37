"""Network assembly: downsampling stem, routed dense blocks, conv head,

primary-capsule grouping, and the fully connected capsule classifier.

The stem is Conv(7x7, stride 2) - MaxPool(3, stride 2) - Conv(1x1, stride 2)
- AvgPool(2, stride 1), three net halvings, so a 256 input reaches the
9x9 head at 32x32 and the 4x4/stride-4 average pool leaves an 8x8 primary
capsule grid. Dense blocks follow BN-ReLU-Conv(1x1)-BN-ReLU-Conv(3x3)
composite layers where the 1x1 step is the routed capsule layer; the
baseline variant swaps it for a plain 1x1 convolution of identical shape.
Class scores are the L2 norms of the output capsules, so they live in
[0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import BatchNormState, batchnorm, conv2d, pool2d
from .routing import (
    Conv1x1CapsuleParams,
    FcCapsuleParams,
    conv1x1_capsule_forward,
    route_fc,
    squash,
)
from .tensor import (
    Tensor,
    broadcast_to,
    concat,
    einsum2,
    relu,
    resolve_dtype,
    tsum,
    vec_norm,
)


class ConfigError(ValueError):
    """Network configuration that cannot be built."""


@dataclass
class NetworkConfig:
    input_size: int = 64
    down_channels: tuple[int, int] = (16, 16)  # stem conv7x7 out, conv1x1 out
    n_dense_blocks: int = 2
    layers_per_block: int = 8
    growth_rate: int = 8
    bottleneck_width: int = 4  # routed 1x1 emits bottleneck_width * growth_rate maps
    head_channels: int = 32
    routing_iters: int = 3
    caps_dim_primary: int = 8
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
            "routing_iters": self.routing_iters,
            "caps_dim_class": self.caps_dim_class,
            "n_classes": self.n_classes,
        }
        for name, value in positive.items():
            if int(value) < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if len(self.down_channels) != 2 or min(self.down_channels) < 1:
            raise ConfigError(f"down_channels must be two extents >= 1, got {self.down_channels}")
        if self.caps_dim_primary != 8:
            raise ConfigError("primary capsules group exactly 8 consecutive feature maps")
        if self.head_channels % 8 != 0:
            raise ConfigError(f"head_channels must be a multiple of 8, got {self.head_channels}")
        if self.grad_mode not in ("none", "last"):
            raise ConfigError(f"grad_mode must be 'none' or 'last', got {self.grad_mode!r}")
        resolve_dtype(self.dtype)


@dataclass
class _CompositeLayer:
    name: str
    bn1_gamma: Tensor
    bn1_beta: Tensor
    bn1_state: BatchNormState
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
    s = -(-s // 2)
    step("stem.maxpool(3/2)", c1, s, s)
    s = -(-s // 2)
    step("stem.conv2(1x1/2)", c2, s, s)
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
    n_caps = s * s * (config.head_channels // 8)
    step("primary_capsules", n_caps, 1, 1)
    step("class_capsules", config.n_classes, 1, 1)
    return trace


class Network:
    """Instantiated parameter set plus forward logic and named taps."""

    def __init__(self, config: NetworkConfig, seed: int, baseline: bool = False):
        config.validate()
        self.config = config
        self.baseline = baseline
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
                        bn1_state=BatchNormState.fresh(ch, dtype=dt),
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
        self.head_bn_state = BatchNormState.fresh(ch, dtype=dt)
        self.head_conv = param(config.head_channels, ch, 9, 9)

        grid = self.trace[-3][1][1]  # side of the pooled capsule grid
        n_caps = grid * grid * (config.head_channels // 8)
        self.fc = FcCapsuleParams(
            param(n_caps, config.n_classes, 8, config.caps_dim_class), config.routing_iters
        )

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
        out = {}
        for layers in self.blocks:
            for lay in layers:
                out[f"{lay.name}.bn1"] = lay.bn1_state
                out[f"{lay.name}.bn2"] = lay.bn2_state
        out["head.bn"] = self.head_bn_state
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every persistent buffer by name: parameters plus running stats."""
        out = {name: p.data for name, p in self.parameters().items()}
        for name, st in self.bn_states().items():
            out[f"{name}.running_mean"] = st.running_mean
            out[f"{name}.running_var"] = st.running_var
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore buffers saved by `state_arrays`; missing or extra names

        are an error so silently-partial restores cannot happen.
        """
        expect = self.state_arrays()
        missing = sorted(set(expect) - set(arrays))
        extra = sorted(set(arrays) - set(expect))
        if missing or extra:
            raise ConfigError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in self.parameters().items():
            src = arrays[name]
            if src.shape != p.data.shape:
                raise ConfigError(f"{name}: saved shape {src.shape} != built shape {p.data.shape}")
            p.data = src.astype(p.data.dtype, copy=True)
        for name, st in self.bn_states().items():
            st.running_mean = arrays[f"{name}.running_mean"].astype(st.running_mean.dtype, copy=True)
            st.running_var = arrays[f"{name}.running_var"].astype(st.running_var.dtype, copy=True)

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

        scores is (N, n_classes) with every entry in [0, 1); taps exposes
        "pre_pool_activations", "primary_capsules", and "class_capsules".
        `coupling_trace`, when a dict, collects every routed layer's
        per-iteration coupling tensors under the layer's name.
        """
        x = batch if isinstance(batch, Tensor) else Tensor(batch, dtype=self.config.dtype)
        if x.ndim != 4 or x.shape[2] != self.config.input_size or x.shape[3] != self.config.input_size:
            raise ConfigError(
                f"expected (N, 1, {self.config.input_size}, {self.config.input_size}) input, got {x.shape}"
            )
        x = conv2d(x, self.stem_conv1, stride=2, padding="same")
        x = pool2d(x, "max", 3, 2, padding="same")
        x = conv2d(x, self.stem_conv2, stride=2, padding="valid")
        x = pool2d(x, "avg", 2, 1, padding="same")

        for layers in self.blocks:
            for lay in layers:
                x = concat([x, self.composite_layer(x, lay, mode, coupling_trace)], axis=1)

        x = relu(batchnorm(x, self.head_bn_gamma, self.head_bn_beta, self.head_bn_state, mode))
        pre_pool = conv2d(x, self.head_conv, stride=1, padding="same")
        scores, caps, v = self._tail(pre_pool, coupling_trace)
        taps = {
            "pre_pool_activations": pre_pool,
            "primary_capsules": caps,
            "class_capsules": v,
        }
        return scores, taps

    def composite_layer(self, feats: Tensor, lay: _CompositeLayer, mode: str, coupling_trace: dict | None = None) -> Tensor:
        """One dense-block step: BN-ReLU-1x1-BN-ReLU-3x3 conv, where the 1x1

        is routed (plain in the baseline). Returns the growth_rate new maps;
        the caller concatenates.
        """
        y = relu(batchnorm(feats, lay.bn1_gamma, lay.bn1_beta, lay.bn1_state, mode))
        B, C, H, W = y.shape
        y3 = y.reshape(B, C, H * W)
        if self.baseline:
            wb = broadcast_to(lay.route.weights, (B,) + lay.route.weights.shape)
            z3 = einsum2("bij,bis->bjs", wb, y3)
        else:
            trace = None if coupling_trace is None else coupling_trace.setdefault(lay.name, [])
            z3 = conv1x1_capsule_forward(y3, lay.route, self.config.grad_mode, freeze_key=lay.name, trace=trace)
        z = z3.reshape(B, z3.shape[1], H, W)
        z = relu(batchnorm(z, lay.bn2_gamma, lay.bn2_beta, lay.bn2_state, mode))
        return conv2d(z, lay.conv3, stride=1, padding="same")

    def _tail(self, pre_pool: Tensor, coupling_trace: dict | None = None):
        pooled = pool2d(pre_pool, "avg", 4, 4, padding="valid")
        caps = primary_capsules(pooled)
        if self.baseline:
            u_hat = einsum2("bnd,njde->bnje", caps, self.fc.weights)
            v = squash(tsum(u_hat, axis=1))
        else:
            v = route_fc(
                caps,
                self.fc,
                self.config.grad_mode,
                freeze_key="fc",
                trace=None if coupling_trace is None else coupling_trace.setdefault("fc", []),
            )
        return vec_norm(v, axis=2), caps, v

    def head_tail(self, pre_pool: Tensor) -> Tensor:
        """Scores as a function of the pre-pool activations alone (the

        class-score path that weakly supervised localization explains).
        """
        return self._tail(pre_pool)[0]


def primary_capsules(head_features: Tensor) -> Tensor:
    """Group 8 consecutive channels at each spatial position into one

    capsule: (B, C, H, W) -> (B, H*W*C/8, 8), position-major order.
    """
    B, C, H, W = head_features.shape
    if C % 8 != 0:
        raise ConfigError(f"channel count {C} is not divisible by the capsule width 8")
    g = head_features.reshape(B, C // 8, 8, H, W)
    g = g.transpose((0, 3, 4, 1, 2))
    return g.reshape(B, H * W * (C // 8), 8)


def build_network(config: NetworkConfig, seed: int) -> Network:
    """Instantiate the routed network with seeded normal(0, 0.05) weights."""
    return Network(config, seed, baseline=False)


def baseline_variant(config: NetworkConfig, seed: int) -> Network:
    """Identical architecture with plain 1x1 convolutions in place of the

    routed layers and a plain linear capsule head (squash retained).
    Parameter shapes, count, and seeded values match the routed model's.
    """
    return Network(config, seed, baseline=True)
