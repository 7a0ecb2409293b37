"""AUC properties, Grad-CAM behavior, region geometry, and IoBB."""

import numpy as np
import pytest

from capsroute.data import resize_bilinear
from capsroute.evaluation import (
    BBox,
    EvalError,
    Heatmap,
    auc,
    auc_per_class,
    cam_from_activations,
    grad_cam,
    heatmap_to_box,
    iobb,
    localization_accuracy,
    region_from_threshold,
)
from capsroute.model import NetworkConfig, build_network
from capsroute.routing import frozen_routing
from capsroute.tensor import Tape, Tensor, backward, finite_diff_check, tsum


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_known_single_swap_case(self):
        np.testing.assert_allclose(auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]), 0.75, rtol=0)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        labels = (rng.random(40) < 0.4).astype(float)
        base = auc(scores, labels)
        assert auc(np.exp(5 * scores), labels) == base
        assert auc(scores**3 + 7, labels) == base

    def test_degenerate_class_is_none(self):
        assert auc([0.1, 0.9], [1, 1]) is None
        assert auc([0.1, 0.9], [0, 0]) is None

    def test_per_class_and_macro(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.2], [0.8, 0.3], [0.2, 0.4]])
        labels = np.array([[1, 1], [0, 1], [1, 1], [0, 1]])
        per_class, macro = auc_per_class(scores, labels)
        assert per_class[0] == 1.0
        assert per_class[1] is None  # all positive, excluded
        assert macro == 1.0


def _tiny_net(seed=0, dtype="f64"):
    cfg = NetworkConfig(
        input_size=32,
        down_channels=(4, 8),
        n_dense_blocks=1,
        layers_per_block=1,
        growth_rate=4,
        bottleneck_width=2,
        head_channels=8,
        routing_iters=2,
        caps_dim_class=4,
        n_classes=2,
        dtype=dtype,
    )
    return build_network(cfg, seed=seed)


def _whole_forward_cam(net, image, class_idx):
    """Reference Grad-CAM: tape the whole eval `head_tail(pre_pool(x))`,

    read the pre-pool map's gradient.
    """
    x = Tensor(np.asarray(image)[None, None], dtype=net.config.dtype)
    with Tape() as tape:
        act = net.pre_pool(x, mode="eval")
        scores = net.head_tail(act)
        onehot = np.zeros(scores.shape)
        onehot[0, class_idx] = 1.0
        backward(tape, tsum(scores * Tensor(onehot, dtype=net.config.dtype)))
    grads = act.grad if act.grad is not None else np.zeros_like(act.data)
    return cam_from_activations(act.data[0], grads[0])


class TestGradCam:
    def test_zero_class_column_gives_zero_heatmap(self):
        net = _tiny_net(seed=1)
        net.fc.weights.data[:, 1] = 0.0  # class 1 capsule is exactly zero
        rng = np.random.default_rng(2)
        heat = grad_cam(net, rng.standard_normal((32, 32)), class_idx=1)
        np.testing.assert_array_equal(heat.raw, np.zeros((4, 4)))
        np.testing.assert_array_equal(heat.normalized, np.zeros((4, 4)))

    def test_single_channel_positive_weight(self):
        rng = np.random.default_rng(3)
        acts = np.zeros((4, 5, 5))
        acts[2] = rng.random((5, 5)) + 0.5
        grads = np.zeros((4, 5, 5))
        grads[2] = 0.7  # constant positive gradient on the live channel
        raw, normalized = cam_from_activations(acts, grads)
        np.testing.assert_allclose(raw, 0.7 * acts[2], rtol=1e-14)
        np.testing.assert_allclose(normalized, acts[2] / acts[2].max(), rtol=1e-12)
        assert normalized.max() == 1.0

    def test_position_wise_weight(self):
        # a gradient that lives in one quadrant weights only that quadrant:
        # the map is zero wherever the gradient is zero, even though every
        # channel is active everywhere
        rng = np.random.default_rng(10)
        acts = rng.random((3, 8, 8)) + 0.5
        grads = np.zeros((3, 8, 8))
        grads[:, :4, :4] = rng.random((3, 4, 4)) + 0.1
        raw, normalized = cam_from_activations(acts, grads)
        expect = (grads * acts).sum(axis=0)
        np.testing.assert_allclose(raw, expect, rtol=1e-14)
        assert np.all(raw[:4, :4] > 0)
        zero = np.ones((8, 8), dtype=bool)
        zero[:4, :4] = False
        np.testing.assert_array_equal(raw[zero], 0.0)
        np.testing.assert_array_equal(normalized[zero], 0.0)
        assert normalized.max() == 1.0

    def test_tap_gradient_matches_finite_differences(self):
        # the gradients feeding the channel weights are the adjoints of
        # the class score w.r.t. the tapped activations; check them
        # against central differences through the score tail
        net = _tiny_net(seed=4)
        rng = np.random.default_rng(5)
        a0 = Tensor(net.pre_pool(rng.standard_normal((1, 1, 32, 32)), mode="eval").data.copy())
        onehot = np.zeros((1, net.config.n_classes))
        onehot[0, 0] = 1.0

        def f(t):
            return tsum(net.head_tail(t) * Tensor(onehot))

        with frozen_routing():
            assert finite_diff_check(f, a0, max_coords=120) <= 1e-4

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_tail_only_matches_whole_forward(self, dtype):
        # differentiating the score tail from the pre-pool tap gives the
        # same maps, bit for bit, as taping the whole eval forward
        net = _tiny_net(seed=12, dtype=dtype)
        rng = np.random.default_rng(13)
        for _ in range(3):
            img = rng.standard_normal((32, 32))
            for cls in range(net.config.n_classes):
                heat = grad_cam(net, img, cls)
                raw, normalized = _whole_forward_cam(net, img, cls)
                assert heat.raw.max() > 0
                np.testing.assert_array_equal(heat.raw, raw)
                np.testing.assert_array_equal(heat.normalized, normalized)

    def test_gradient_reaches_only_the_tail(self):
        # fc.w is the one parameter between the pre-pool tap and the scores
        net = _tiny_net(seed=14)
        grad_cam(net, np.random.default_rng(15).standard_normal((32, 32)), class_idx=0)
        params = net.parameters()
        assert params["fc.w"].grad is not None
        assert [name for name, p in params.items() if name != "fc.w" and p.grad is not None] == []

    def test_unknown_tap_and_bad_class_rejected(self):
        net = _tiny_net(seed=6)
        img = np.zeros((32, 32))
        with pytest.raises(EvalError, match="class index"):
            grad_cam(net, img, class_idx=5)

    def test_heatmap_normalization_bounds(self):
        net = _tiny_net(seed=7)
        rng = np.random.default_rng(8)
        heat = grad_cam(net, rng.standard_normal((32, 32)), class_idx=0)
        assert heat.normalized.min() >= 0.0
        assert heat.normalized.max() <= 1.0
        if heat.raw.max() > 0:
            assert heat.normalized.max() == 1.0


class TestUpsample:
    def test_constant_map(self):
        np.testing.assert_allclose(resize_bilinear(np.full((3, 3), 0.6), (12, 12)), 0.6, atol=1e-15)

    def test_idempotent_at_same_size(self):
        rng = np.random.default_rng(9)
        m = rng.random((6, 6))
        np.testing.assert_array_equal(resize_bilinear(m, (6, 6)), m)

    def test_hand_computed_2x(self):
        m = np.array([[0.0, 1.0], [1.0, 2.0]])
        got = resize_bilinear(m, (3, 3))
        expect = np.array([[0.0, 0.5, 1.0], [0.5, 1.0, 1.5], [1.0, 1.5, 2.0]])
        np.testing.assert_allclose(got, expect, rtol=1e-14)


class TestRegionExtraction:
    def test_all_zero_no_detection(self):
        box, mask = region_from_threshold(np.zeros((10, 10)))
        assert box is None
        assert not mask.any()

    def test_single_block_exact_box(self):
        m = np.zeros((32, 32))
        m[5:15, 8:18] = 1.0
        box, _ = region_from_threshold(m, tau=0.1)
        assert box == BBox(x=8, y=5, w=10, h=10)

    def test_largest_of_two_components(self):
        m = np.zeros((20, 20))
        m[2:7, 2:8] = 1.0  # 30 pixels
        m[12:15, 12:16] = 1.0  # 12 pixels
        box, _ = region_from_threshold(m, tau=0.5)
        assert box == BBox(x=2, y=2, w=6, h=5)

    def test_diagonal_touch_is_not_connected(self):
        # 4-connectivity: diagonal neighbors are separate components
        m = np.zeros((6, 6))
        m[0:2, 0:2] = 1.0  # 4 pixels
        m[2, 2] = 1.0  # 1 pixel, diagonal contact only
        box, _ = region_from_threshold(m, tau=0.5)
        assert box == BBox(x=0, y=0, w=2, h=2)

    def test_mask_monotone_in_tau(self):
        rng = np.random.default_rng(10)
        m = rng.random((16, 16))
        _, lo = region_from_threshold(m, tau=0.2)
        _, hi = region_from_threshold(m, tau=0.6)
        assert np.all(lo[hi])  # hi-mask subset of lo-mask


class TestIobb:
    def test_identical_boxes(self):
        b = BBox(3, 4, 10, 12)
        assert iobb(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iobb(BBox(0, 0, 5, 5), BBox(10, 10, 5, 5)) == 0.0

    def test_half_overlap(self):
        det = BBox(0, 0, 10, 10)
        gt = BBox(0, 0, 5, 10)  # covers the left half of det
        assert iobb(det, gt) == 0.5

    def test_detection_inside_gt_is_one(self):
        assert iobb(BBox(2, 2, 3, 3), BBox(0, 0, 10, 10)) == 1.0

    def test_no_detection_scores_zero(self):
        assert iobb(None, BBox(0, 0, 5, 5)) == 0.0

    def test_scale_consistency(self):
        det, gt = BBox(1, 2, 4, 6), BBox(3, 2, 4, 4)
        k = 7
        det2 = BBox(det.x * k, det.y * k, det.w * k, det.h * k)
        gt2 = BBox(gt.x * k, gt.y * k, gt.w * k, gt.h * k)
        assert iobb(det, gt) == iobb(det2, gt2)


class TestLocalizationAccuracy:
    def test_perfect_heatmaps(self):
        cases = []
        for i in range(6):
            m = np.zeros((32, 32))
            gt = BBox(4 + i, 4, 8, 8)
            m[gt.y : gt.y + gt.h, gt.x : gt.x + gt.w] = 1.0
            cases.append((m, gt, i % 2))
        rep = localization_accuracy(cases)
        for cls in (0, 1):
            for t in (0.1, 0.25, 0.5):
                assert rep.accuracies[cls][t] == 1.0
        assert rep.counts == {0: 3, 1: 3}

    def test_cross_checked_against_manual_iobb_list(self):
        rng = np.random.default_rng(11)
        cases = []
        manual = []
        for _ in range(20):
            m = np.zeros((24, 24))
            x, y = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            w, h = int(rng.integers(3, 10)), int(rng.integers(3, 10))
            m[y : y + h, x : x + w] = 1.0
            gt = BBox(int(rng.integers(0, 12)), int(rng.integers(0, 12)), int(rng.integers(3, 10)), int(rng.integers(3, 10)))
            cases.append((m, gt, 0))
            manual.append(iobb(BBox(x, y, w, h), gt))
        rep = localization_accuracy(cases)
        for t in (0.1, 0.25, 0.5):
            want = sum(1 for r in manual if r >= t) / len(manual)
            assert rep.accuracies[0][t] == want

    def test_classes_without_cases_omitted(self):
        m = np.ones((8, 8))
        rep = localization_accuracy([(m, BBox(0, 0, 8, 8), 2)])
        assert list(rep.accuracies) == [2]

    def test_heatmap_to_box_pipeline(self):
        raw = np.zeros((8, 8))
        raw[2:4, 2:4] = 1.0
        heat = Heatmap(raw=raw, normalized=raw, class_idx=0)
        box, up = heatmap_to_box(heat, (64, 64), tau=0.5)
        assert up.shape == (64, 64)
        assert box is not None
        # the bright source block spans rows/cols 2..3 of 8 -> about
        # 9*2..9*3+something at 64; just require containment consistency
        cx, cy = box.x + box.w / 2.0, box.y + box.h / 2.0
        assert 12 <= cx <= 36 and 12 <= cy <= 36
