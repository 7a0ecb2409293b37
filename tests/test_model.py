"""Network assembly tests: shape traces, reductions, end-to-end gradients."""

import numpy as np
import pytest

from capsroute.conv import BatchNormState, batchnorm, conv2d, pool2d
from capsroute.model import (
    ConfigError,
    NetworkConfig,
    baseline_variant,
    build_network,
    primary_capsules,
    shape_trace,
)
from capsroute.routing import frozen_routing
from capsroute.tensor import Tape, Tensor, backward, finite_diff_check


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
        # 64 -> 32 (conv7/2) -> 8 (max3/4) -> 8 (conv1/1) -> 8 (avg2/1)
        # -> 8 (block) -> 8 (head) -> 2 (avg4/4)
        trace = dict(shape_trace(desk_config()))
        assert trace["stem.conv1(7x7/2)"] == (8, 32, 32)
        assert trace["stem.maxpool(3/4)"] == (8, 8, 8)
        assert trace["stem.conv2(1x1/1)"] == (8, 8, 8)
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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("growth_rate", 8.0),
            ("routing_iters", 2.5),
            ("n_classes", True),
            ("input_size", "64"),
            ("down_channels", (16.0, 16)),
            ("down_channels", (16, False)),
        ],
    )
    def test_non_integer_sizes_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=field):
            NetworkConfig(**{field: value}).validate()

    def test_numpy_integer_sizes_accepted(self):
        NetworkConfig(growth_rate=np.int64(8), down_channels=(np.int32(16), 16)).validate()

    def test_routing_iters_counts_from_zero(self):
        NetworkConfig(routing_iters=0).validate()  # the unrouted baseline
        for value in (-1, True, 2.5):
            with pytest.raises(ConfigError, match="routing_iters"):
                NetworkConfig(routing_iters=value).validate()


def reference_stem(net, x):
    """The stem in the four stages it is specified by: conv 7x7/2, max pool
    3/2 "same", conv 1x1/2 "valid", avg pool 2/1."""
    return reference_stem_tail(net, conv2d(x, net.stem_conv1, stride=2, padding="same"))


def reference_stem_tail(net, y):
    y = pool2d(y, "max", 3, 2, padding="same")
    y = conv2d(y, net.stem_conv2, stride=2, padding="valid")
    return pool2d(y, "avg", 2, 1, padding="same")


def conv1_grad_bound(net, x, seed):
    """4 * K * eps(dtype) times the reference stem.conv1 gradient's
    contraction of absolute values (K = B*oH*oW terms per entry), for the
    output gradient `stem_and_kernel_grads` draws from `seed`."""
    leaf = Tensor(conv2d(Tensor(x), Tensor(net.stem_conv1.data), stride=2, padding="same").data, requires_grad=True)
    with Tape() as tape:
        out = reference_stem_tail(net, leaf)
        g = np.random.default_rng(seed).standard_normal(out.shape).astype(x.dtype)
        backward(tape, (out * Tensor(g)).sum())
    k = Tensor(np.zeros(net.stem_conv1.shape), requires_grad=True)
    with Tape() as tape:
        y = conv2d(Tensor(np.abs(x.astype(np.float64))), k, stride=2, padding="same")
        backward(tape, (y * Tensor(np.abs(leaf.grad.astype(np.float64)))).sum())
    return 4 * leaf.grad[:, 0].size * np.finfo(x.dtype).eps * k.grad


def stem_and_kernel_grads(stem, net, x, rng):
    """Output and both stem kernel gradients for seeded output gradients."""
    with Tape() as tape:
        out = stem(Tensor(x))
        g = rng.standard_normal(out.shape).astype(x.dtype)
        backward(tape, (out * Tensor(g)).sum())
    return out.data, net.stem_conv1.grad, net.stem_conv2.grad


def assert_stem_matches_reference(net, x, seed):
    """Output and stem.conv2 gradient bitwise; the stem.conv1 gradient sums
    in another order, so it is held to `conv1_grad_bound`."""
    got = stem_and_kernel_grads(net.stem, net, x, np.random.default_rng(seed))
    want = stem_and_kernel_grads(lambda t: reference_stem(net, t), net, x, np.random.default_rng(seed))
    bound = conv1_grad_bound(net, x, seed)
    for name, a, b in zip(("output", "stem.conv1 grad", "stem.conv2 grad"), got, want):
        assert a.dtype == x.dtype and a.shape == b.shape, name
        if name == "stem.conv1 grad":
            assert np.all(np.abs(a - b) <= bound), f"{name} at input size {x.shape[-1]}"
        else:
            np.testing.assert_array_equal(a, b, err_msg=f"{name} at input size {x.shape[-1]}")


class TestStem:
    def test_bitwise_equal_to_unfused_reference_at_every_size_f64(self):
        # tie-heavy: input and 7x7 kernel rounded to 0.5, so max-pool
        # windows often hold equal cells; the 1x1 kernel and the output
        # gradients are not rounded
        rng = np.random.default_rng(21)
        swept = []
        for n in range(24, 301):
            try:
                net = build_network(desk_config(input_size=n, down_channels=(4, 8)), seed=n)
            except ConfigError:
                continue
            net.stem_conv1.data = np.round(2.0 * rng.standard_normal(net.stem_conv1.shape)) / 2.0
            x = np.round(2.0 * rng.standard_normal((2, 1, n, n))) / 2.0
            assert_stem_matches_reference(net, x, seed=n)
            swept.append(n)
        rejected = [n for n in range(24, 301) if -(-n // 2) % 4 == 3]
        assert sorted(swept + rejected + [24]) == list(range(24, 301))

    @pytest.mark.parametrize("size", [64, 256])
    def test_bitwise_equal_to_unfused_reference_f32(self, size):
        net = build_network(desk_config(input_size=size, down_channels=(16, 16), dtype="f32"), seed=2)
        x = np.random.default_rng(size).standard_normal((4, 1, size, size)).astype(np.float32)
        assert_stem_matches_reference(net, x, seed=size)

    @pytest.mark.parametrize("size,nearest", [(29, "28 and 31"), (30, "28 and 31"), (62, "60 and 63"), (254, "252 and 255")])
    def test_sizes_where_the_pools_pad_differently_are_rejected(self, size, nearest):
        with pytest.raises(ConfigError, match=f"input_size {size} is not supported.* {nearest}$"):
            desk_config(input_size=size).validate()


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

    def test_baseline_layers_route_at_zero_iterations(self):
        cfg = desk_config(routing_iters=3)
        for make, iters in ((build_network, 3), (baseline_variant, 0)):
            net = make(cfg, seed=1)
            assert [lay.route.iterations for lay in net.blocks[0]] == [iters, iters]
            assert net.fc.iterations == net.config.routing_iters == iters


class TestLoadStateArrays:
    def test_load_writes_every_array_in_place(self):
        net = build_network(tiny_config(), seed=1)
        before = net.state_arrays()
        saved = {name: arr + 1.0 for name, arr in before.items()}
        net.load_state_arrays(saved)
        after = net.state_arrays()
        for name, arr in before.items():
            assert after[name] is arr, name
            np.testing.assert_array_equal(arr, saved[name])

    @pytest.mark.parametrize("bad", ["head.conv", "dense.running_var"])
    def test_bad_shape_leaves_every_array_unchanged(self, bad):
        net = build_network(tiny_config(), seed=1)
        before = {name: arr.copy() for name, arr in net.state_arrays().items()}
        saved = {name: arr + 1.0 for name, arr in before.items()}
        saved[bad] = saved[bad][:-1]
        with pytest.raises(ConfigError, match=bad):
            net.load_state_arrays(saved)
        after = net.state_arrays()
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr, err_msg=name)


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
        assert taps == {}
        assert net.pre_pool(rng.standard_normal((4, 1, 64, 64)), mode="eval").shape == (4, 16, 8, 8)

    @pytest.mark.parametrize("size", [64, 80])
    def test_fused_head_equals_pre_pool_then_tail(self, size):
        # `forward` runs the head conv and its pool as one `conv_avgpool`;
        # at 80 px the 10x10 head grid is not a multiple of the pool
        net = build_network(desk_config(input_size=size, dtype="f64"), seed=8)
        x = np.random.default_rng(9).standard_normal((3, 1, size, size))
        fused = net.forward(x, mode="eval")[0].data
        pair = net.head_tail(net.pre_pool(x, mode="eval")).data
        assert np.abs(fused - pair).max() <= 1e-12

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
        # each layer reads every normalized group so far and adds
        # growth_rate maps, whose running stats sit in net.dense_state at
        # the offsets after the earlier groups'
        cfg = desk_config(layers_per_block=3)
        net = build_network(cfg, seed=11)
        assert net.dense_state.running_mean.size == net.head_bn_gamma.size == 8 + 3 * 4
        x = np.random.default_rng(12).standard_normal((2, 1, 64, 64))
        assert net.pre_pool(x).shape == (2, cfg.head_channels, 8, 8)

        # replay the same forward group by group, each group with its own stats
        ref = build_network(cfg, seed=11)
        group = BatchNormState.fresh(8)
        parts = [batchnorm(ref.stem(Tensor(x)), group, "train")]
        groups = [(0, group)]
        for l, lay in enumerate(ref.blocks[0]):
            new = ref.composite_layer(parts, lay, mode="train")
            assert new.shape == (2, 4, 8, 8)
            assert lay.bn1_gamma.size == sum(p.shape[1] for p in parts) == 8 + l * 4
            group = BatchNormState.fresh(4)
            parts.append(batchnorm(new, group, "train"))
            groups.append((8 + l * 4, group))
        for lo, group in groups:
            for stat in ("running_mean", "running_var"):
                want = getattr(group, stat)
                np.testing.assert_array_equal(getattr(net.dense_state, stat)[lo : lo + want.size], want)

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

        y3 = x.reshape(2, 8, 64)
        g_routed = conv1x1_capsule_forward(y3, lay_r.route, "none")
        g_plain = conv1x1_capsule_forward(y3, lay_b.route, "none")
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
            out = net.composite_layer([batchnorm(t, BatchNormState.fresh(8), "train")], lay, mode="train")
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

    @pytest.mark.parametrize("dense_r,fc_r", [(3, 0), (0, 3)])
    def test_mixed_routing_arms_finite_difference(self, dense_r, fc_r):
        # one arm routes only the dense 1x1s, the other only the FC layer;
        # both are set on the built net, with no config key
        net = build_network(tiny_config(layers_per_block=2), seed=25)
        for lay in net.blocks[0]:
            lay.route.iterations = dense_r
        net.fc.iterations = fc_r
        rng = np.random.default_rng(26)
        batch = rng.standard_normal((2, 1, 32, 32))
        probe = Tensor(rng.standard_normal((2, 2)))
        trace = {}
        scores, _ = net.forward(batch, mode="train", coupling_trace=trace)
        assert np.all(np.isfinite(scores.data)) and np.all((scores.data >= 0) & (scores.data < 1))
        assert [len(trace[k]) for k in ("block0.layer0", "block0.layer1", "fc")] == [
            max(dense_r, 1), max(dense_r, 1), max(fc_r, 1)
        ]

        def loss():
            scores, _ = net.forward(batch, mode="train")
            return (scores * probe).sum()

        with frozen_routing():
            for name, p in net.parameters().items():
                err = finite_diff_check(lambda _t: loss(), p, max_coords=12, seed=27)
                assert err <= 1e-3, f"{name}: {err}"


class TestSharedNormalization:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_readers_across_blocks_finite_difference(self, mode):
        # two blocks of two layers: the stem's maps have five readers (every
        # layer's first BN, across the block boundary, and the head BN), each
        # later group fewer; the tape adds their gradients in x_hat space
        net = build_network(tiny_config(n_dense_blocks=2, layers_per_block=2), seed=31)
        rng = np.random.default_rng(32)
        for st in net.bn_states().values():
            st.running_mean[...] = rng.standard_normal(st.running_mean.shape)
            st.running_var[...] = rng.random(st.running_var.shape) + 0.5
        params = net.parameters()
        for name, p in params.items():
            if name.endswith("gamma"):
                p.data = 1.0 + 0.3 * rng.standard_normal(p.shape)
            elif name.endswith("beta"):
                p.data = 0.3 * rng.standard_normal(p.shape)
        x = Tensor(rng.standard_normal((2, 8, 4, 4)))
        probe = Tensor(rng.standard_normal((2, 2)))

        def loss(t):
            return (net.head_tail(conv2d(net.dense_head(t, mode), net.head_conv, 1, "same")) * probe).sum()

        checked = {name: p for name, p in params.items() if not name.startswith("stem.")}
        assert sum(name.endswith("bn1.gamma") for name in checked) == 4
        # the end-to-end bound of criterion 3: in eval mode some coordinates'
        # gradients are ~1e-11 against a loss of ~1e-2, at the noise floor
        with frozen_routing():
            assert finite_diff_check(loss, x, max_coords=40, seed=33) <= 1e-3
            for name, p in checked.items():
                err = finite_diff_check(lambda _t: loss(x), p, max_coords=16, seed=34)
                assert err <= 1e-3, f"{name}: {err}"


class TestNoEinsumFallback:
    @pytest.mark.parametrize("make", [build_network, baseline_variant])
    def test_desk_step_predict_and_cam_avoid_np_einsum(self, make, monkeypatch):
        # every contraction runs as a batched matmul; np.einsum's unblocked
        # loop is what a spec would silently fall back to
        from capsroute.evaluation import grad_cam
        from capsroute.training import AdamState, CurriculumSchedule, LossConfig, train_epoch

        cfg = desk_config(
            down_channels=(16, 16), layers_per_block=4, growth_rate=8, bottleneck_width=4,
            head_channels=32, routing_iters=3, caps_dim_class=16, n_classes=4, dtype="f32",
        )
        net = make(cfg, seed=22)
        rng = np.random.default_rng(23)
        data = [(rng.random((64, 64)), np.eye(4)[i % 4]) for i in range(4)]

        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", refuse)
        sched = CurriculumSchedule.from_labels(np.stack([d[1] for d in data]))
        m = train_epoch(net, data, LossConfig(), sched, AdamState(), 0, 4, np.random.default_rng(24))
        assert np.isfinite(m.mean_loss)
        assert net.predict(np.stack([d[0] for d in data[:2]])).shape == (2, 4)
        assert grad_cam(net, data[0][0], 1).raw.shape == (8, 8)
