"""Network assembly tests: shape traces, reductions, end-to-end gradients."""

import numpy as np
import pytest

from capsroute.model import (
    ConfigError,
    NetworkConfig,
    baseline_variant,
    build_network,
    primary_capsules,
    shape_trace,
)
from capsroute.routing import frozen_routing
from capsroute.tensor import Tensor, concat, finite_diff_check


def desk_config(**over):
    base = dict(
        input_size=64,
        down_channels=(8, 8),
        n_dense_blocks=1,
        layers_per_block=2,
        growth_rate=4,
        bottleneck_width=2,
        head_channels=16,
        routing_iters=2,
        caps_dim_class=8,
        n_classes=3,
        dtype="f64",
    )
    base.update(over)
    return NetworkConfig(**base)


def tiny_config(**over):
    return desk_config(
        input_size=32,
        down_channels=(4, 8),
        growth_rate=4,
        bottleneck_width=2,
        head_channels=8,
        caps_dim_class=4,
        n_classes=2,
        routing_iters=3,
        **over,
    )


class TestShapeTrace:
    def test_paper_scale_resolutions(self):
        cfg = NetworkConfig(
            input_size=256,
            down_channels=(32, 32),
            n_dense_blocks=2,
            layers_per_block=8,
            growth_rate=16,
            head_channels=64,
            n_classes=14,
        )
        trace = dict(shape_trace(cfg))
        assert trace["head.conv(9x9/1)"] == (64, 32, 32)  # pre-pool tap
        assert trace["head.avgpool(4/4)"] == (64, 8, 8)  # primary capsule grid
        assert trace["primary_capsules"] == (8 * 8 * 8, 1, 1)

    def test_desk_scale_trace_by_hand(self):
        # 64 -> 32 (conv7/2) -> 16 (max3/2) -> 8 (conv1/2) -> 8 (avg2/1)
        # -> 8 (block) -> 8 (head) -> 2 (avg4/4)
        trace = dict(shape_trace(desk_config()))
        assert trace["stem.conv1(7x7/2)"] == (8, 32, 32)
        assert trace["stem.maxpool(3/2)"] == (8, 16, 16)
        assert trace["stem.conv2(1x1/2)"] == (8, 8, 8)
        assert trace["stem.avgpool(2/1)"] == (8, 8, 8)
        assert trace["block0"] == (16, 8, 8)
        assert trace["head.conv(9x9/1)"] == (16, 8, 8)
        assert trace["head.avgpool(4/4)"] == (16, 2, 2)
        assert trace["primary_capsules"] == (2 * 2 * 2, 1, 1)

    def test_too_small_input_rejected_with_trace(self):
        with pytest.raises(ConfigError, match="trace"):
            shape_trace(desk_config(input_size=16))

    def test_head_channels_multiple_of_eight(self):
        with pytest.raises(ConfigError, match="multiple of 8"):
            NetworkConfig(head_channels=12).validate()


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        a = build_network(desk_config(), seed=7)
        b = build_network(desk_config(), seed=7)
        for name, pa in a.parameters().items():
            np.testing.assert_array_equal(pa.data, b.parameters()[name].data)

    def test_different_seed_differs(self):
        a = build_network(desk_config(), seed=7)
        b = build_network(desk_config(), seed=8)
        assert not np.array_equal(a.stem_conv1.data, b.stem_conv1.data)

    def test_baseline_parameter_count_matches_routed(self):
        routed = build_network(desk_config(), seed=1)
        base = baseline_variant(desk_config(), seed=1)
        ns = {n: p.data.shape for n, p in routed.parameters().items()}
        bs = {n: p.data.shape for n, p in base.parameters().items()}
        assert ns == bs
        n_total = sum(np.prod(s) for s in ns.values())
        b_total = sum(np.prod(s) for s in bs.values())
        assert n_total == b_total


class TestPrimaryCapsules:
    def test_64_channels_on_8x8_grid(self):
        x = Tensor(np.zeros((2, 64, 8, 8)))
        caps = primary_capsules(x)
        assert caps.shape == (2, 512, 8)

    def test_8_channels_at_single_position(self):
        vec = np.arange(8.0)
        x = Tensor(vec.reshape(1, 8, 1, 1))
        caps = primary_capsules(x)
        np.testing.assert_array_equal(caps.data, vec.reshape(1, 1, 8))

    def test_reshape_roundtrip_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 3, 3))
        caps = primary_capsules(Tensor(x))
        back = (
            caps.data.reshape(2, 3, 3, 2, 8).transpose(0, 3, 4, 1, 2).reshape(2, 16, 3, 3)
        )
        np.testing.assert_array_equal(back, x)

    def test_non_multiple_of_eight_rejected(self):
        with pytest.raises(ConfigError):
            primary_capsules(Tensor(np.zeros((1, 12, 2, 2))))


class TestForward:
    def test_scores_in_unit_interval(self):
        net = build_network(desk_config(), seed=3)
        rng = np.random.default_rng(4)
        scores, taps = net.forward(rng.standard_normal((4, 1, 64, 64)), mode="train")
        assert scores.shape == (4, 3)
        assert np.all(scores.data >= 0.0)
        assert np.all(scores.data < 1.0)
        assert taps["pre_pool_activations"].shape == (4, 16, 8, 8)
        assert taps["primary_capsules"].shape == (4, 8, 8)
        assert taps["class_capsules"].shape == (4, 3, 8)

    def test_zero_fc_weights_give_zero_scores(self):
        net = build_network(desk_config(), seed=5)
        net.fc.weights.data[:] = 0.0
        rng = np.random.default_rng(6)
        scores, _ = net.forward(rng.standard_normal((2, 1, 64, 64)), mode="eval")
        np.testing.assert_array_equal(scores.data, np.zeros((2, 3)))

    def test_forward_reproducible_bitwise(self):
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((2, 1, 64, 64))
        a = build_network(desk_config(), seed=9).forward(batch, mode="eval")[0]
        b = build_network(desk_config(), seed=9).forward(batch, mode="eval")[0]
        np.testing.assert_array_equal(a.data, b.data)

    def test_wrong_input_size_rejected(self):
        net = build_network(desk_config(), seed=1)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((1, 1, 32, 32)))


class TestCompositeLayer:
    def test_dense_concatenation_width(self):
        cfg = desk_config(layers_per_block=3)
        net = build_network(cfg, seed=11)
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 8, 8, 8)))
        feats = x
        for l, lay in enumerate(net.blocks[0]):
            new = net.composite_layer(feats, lay, mode="train")
            assert new.shape == (2, 4, 8, 8)
            feats = concat([feats, new], axis=1)
            assert feats.shape[1] == 8 + (l + 1) * 4
        _, taps = net.forward(rng.standard_normal((2, 1, 64, 64)))

    def test_baseline_equals_routed_times_j_at_r1(self):
        # uniform couplings at r=1 make the routed 1x1 equal the plain
        # 1x1 conv divided by J; J is a power of two so the scaling is exact
        cfg = desk_config(routing_iters=1, bottleneck_width=2, growth_rate=4)  # J = 8
        routed = build_network(cfg, seed=13)
        base = baseline_variant(cfg, seed=13)
        rng = np.random.default_rng(14)
        batch = rng.standard_normal((2, 1, 64, 64))

        lay_r = routed.blocks[0][0]
        lay_b = base.blocks[0][0]
        x = Tensor(rng.standard_normal((2, 8, 8, 8)))
        from capsroute.routing import conv1x1_capsule_forward
        from capsroute.tensor import broadcast_to, einsum2

        y3 = x.reshape(2, 8, 64)
        g_routed = conv1x1_capsule_forward(y3, lay_r.route, "none")
        wb = broadcast_to(lay_b.route.weights, (2, 8, 8))
        g_plain = einsum2("bij,bis->bjs", wb, y3)
        np.testing.assert_array_equal(g_routed.data * 8, g_plain.data)

    def test_routed_differs_from_baseline_when_routing_active(self):
        cfg = desk_config(routing_iters=3)
        routed = build_network(cfg, seed=15)
        base = baseline_variant(cfg, seed=15)
        rng = np.random.default_rng(16)
        batch = rng.standard_normal((2, 1, 64, 64))
        sr, _ = routed.forward(batch, mode="eval")
        sb, _ = base.forward(batch, mode="eval")
        assert not np.allclose(sr.data, sb.data)

    def test_composite_layer_gradient(self):
        cfg = desk_config(layers_per_block=1)
        net = build_network(cfg, seed=17)
        lay = net.blocks[0][0]
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((2, 8, 6, 6)))
        probe = Tensor(rng.standard_normal((2, 4, 6, 6)))

        def f(t):
            out = net.composite_layer(t, lay, mode="train")
            return (out * probe).sum()

        with frozen_routing():
            assert finite_diff_check(f, x, max_coords=120) <= 1e-3


class TestEndToEndGradient:
    def test_tiny_network_finite_difference(self):
        cfg = tiny_config(layers_per_block=2)
        net = build_network(cfg, seed=19)
        rng = np.random.default_rng(20)
        batch = rng.standard_normal((2, 1, 32, 32))
        probe = Tensor(rng.standard_normal((2, 2)))

        def loss():
            scores, _ = net.forward(batch, mode="train")
            return (scores * probe).sum()

        with frozen_routing():
            for name, p in net.parameters().items():
                err = finite_diff_check(lambda _t: loss(), p, max_coords=20, seed=21)
                assert err <= 1e-3, f"{name}: {err}"
