"""Loss, schedule, optimizer, augmentation, and epoch-loop tests."""

import numpy as np
import pytest

from capsroute.model import NetworkConfig, baseline_variant, build_network
from capsroute.tensor import Tape, Tensor
from capsroute.training import (
    AdamState,
    AugmentConfig,
    CurriculumSchedule,
    LossConfig,
    TrainingError,
    adam_step,
    augment,
    curriculum_lambdas,
    margin_loss,
    standardize,
    train_epoch,
)


def margin_loss_loops(scores, labels, m_plus, m_minus, lam_p, lam_m):
    """Scalar reference: iterate every (sample, class) term explicitly."""
    n, c = scores.shape
    total = 0.0
    for i in range(n):
        for j in range(c):
            if labels[i, j] > 0.5:
                total += lam_p * max(0.0, m_plus - scores[i, j]) ** 2
            else:
                total += lam_m * max(0.0, scores[i, j] - m_minus) ** 2
    return total / n


class TestMarginLoss:
    def test_zero_inside_margins(self):
        scores = Tensor(np.array([[0.95, 0.05], [0.91, 0.02]]))
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss = margin_loss(scores, labels, LossConfig())
        assert float(loss.data) == 0.0

    def test_zero_scores_single_positive(self):
        scores = Tensor(np.zeros((1, 4)))
        labels = np.zeros((1, 4))
        labels[0, 2] = 1.0
        loss = margin_loss(scores, labels, LossConfig(lambda_plus=1.0))
        np.testing.assert_allclose(float(loss.data), 0.81, rtol=1e-14)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        scores = rng.random((6, 5)) * 0.999
        labels = (rng.random((6, 5)) < 0.4).astype(float)
        cfg = LossConfig(lambda_plus=0.7, lambda_minus=0.21)
        got = float(margin_loss(Tensor(scores), labels, cfg).data)
        want = margin_loss_loops(scores, labels, 0.9, 0.1, 0.7, 0.21)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = rng.random((4, 3))
            labels = (rng.random((4, 3)) < 0.5).astype(float)
            assert float(margin_loss(Tensor(scores), labels, LossConfig()).data) >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            margin_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)), LossConfig())

    def test_margin_ordering_enforced(self):
        with pytest.raises(TrainingError):
            LossConfig(m_plus=0.1, m_minus=0.9)


class TestCurriculum:
    def test_early_epochs_fixed(self):
        sched = CurriculumSchedule(n_positive=25, n_negative=75)
        assert curriculum_lambdas(10, sched) == (1.0, 0.05)

    def test_switch_to_class_balance(self):
        sched = CurriculumSchedule(n_positive=25, n_negative=75)
        assert curriculum_lambdas(50, sched) == (0.75, 0.25)

    def test_balanced_labels_give_half_half(self):
        sched = CurriculumSchedule(n_positive=40, n_negative=40)
        assert curriculum_lambdas(99, sched) == (0.5, 0.5)

    def test_piecewise_constant_single_switch(self):
        sched = CurriculumSchedule(n_positive=10, n_negative=30)
        values = [curriculum_lambdas(e, sched) for e in range(120)]
        assert len(set(values[:50])) == 1
        assert len(set(values[50:])) == 1
        assert values[49] != values[50]
        lp, lm = values[60]
        assert lp + lm == 1.0

    def test_empty_counts_rejected(self):
        with pytest.raises(TrainingError):
            CurriculumSchedule(n_positive=0, n_negative=0)

    def test_from_labels_counts_all_slots(self):
        labels = np.array([[1, 0, 0], [1, 1, 0]])
        sched = CurriculumSchedule.from_labels(labels)
        assert (sched.n_positive, sched.n_negative) == (3, 3)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = AdamState()
        adam_step({"p": p}, state)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert state.t == 1

    def test_single_step_hand_formula(self):
        g = np.array([0.3, -1.2, 4.0])
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = g.copy()
        state = AdamState()
        adam_step({"p": p}, state)
        # from zero moments: m_hat = g, v_hat = g^2, so the update is
        # -alpha * g / (|g| + eps), about -alpha * sign(g)
        expect = -0.001 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expect, rtol=1e-12)

    def test_two_runs_identical(self):
        rng = np.random.default_rng(2)
        grads = [rng.standard_normal(4) for _ in range(10)]

        def run():
            p = Tensor(np.ones(4), requires_grad=True)
            state = AdamState()
            for g in grads:
                p.grad = g.copy()
                adam_step({"p": p}, state)
            return p.data

        np.testing.assert_array_equal(run(), run())

    def test_nan_gradient_aborts_with_name(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(TrainingError, match="weights"):
            adam_step({"weights": p}, AdamState())


class TestStandardize:
    def test_constant_image_all_zero(self):
        np.testing.assert_array_equal(standardize(np.full((4, 4), 0.7)), np.zeros((4, 4)))

    def test_two_pixel_image(self):
        np.testing.assert_allclose(standardize(np.array([[0.0, 1.0]])), [[-1.0, 1.0]], rtol=1e-14)

    def test_random_image_statistics(self):
        rng = np.random.default_rng(3)
        out = standardize(rng.random((32, 32)))
        assert abs(out.mean()) <= 1e-10
        np.testing.assert_allclose(out.var(), 1.0, atol=1e-8)


class TestAugment:
    def test_flip_twice_is_original(self):
        rng = np.random.default_rng(4)
        img = rng.random((8, 8))
        cfg = AugmentConfig(flip_p=1.0, brightness=(0.0, 0.0), contrast=(1.0, 1.0))
        once = augment(img, cfg, np.random.default_rng(0))
        twice = augment(once, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(twice, img)

    def test_identity_settings(self):
        rng = np.random.default_rng(5)
        img = rng.random((6, 6))
        cfg = AugmentConfig(flip_p=0.0, brightness=(0.0, 0.0), contrast=(1.0, 1.0))
        np.testing.assert_allclose(augment(img, cfg, np.random.default_rng(1)), img, rtol=1e-15)

    def test_brightness_additive_on_midgray(self):
        img = np.full((5, 5), 0.5)
        cfg = AugmentConfig(flip_p=0.0, brightness=(0.1, 0.1), contrast=(1.0, 1.0))
        out = augment(img, cfg, np.random.default_rng(2))
        np.testing.assert_allclose(out, 0.6, rtol=1e-14)

    def test_output_clamped(self):
        img = np.full((3, 3), 0.95)
        cfg = AugmentConfig(flip_p=0.0, brightness=(0.2, 0.2), contrast=(1.0, 1.0))
        assert augment(img, cfg, np.random.default_rng(3)).max() <= 1.0


def _tiny_net(seed=0, **over):
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
        dtype="f64",
        **over,
    )
    return build_network(cfg, seed=seed)


def _separable_dataset():
    """Eight 32x32 images: class 0 lights the left half, class 1 the right."""
    rng = np.random.default_rng(6)
    data = []
    for i in range(8):
        img = rng.random((32, 32)) * 0.1
        cls = i % 2
        if cls == 0:
            img[:, :16] += 0.8
        else:
            img[:, 16:] += 0.8
        labels = np.zeros(2)
        labels[cls] = 1.0
        data.append((np.clip(img, 0, 1), labels))
    return data


class TestTrainEpoch:
    def test_zero_learning_rate_leaves_parameters_and_loss(self):
        net = _tiny_net(seed=7)
        data = _separable_dataset()
        sched = CurriculumSchedule.from_labels(np.stack([d[1] for d in data]))
        before = {n: p.data.copy() for n, p in net.parameters().items()}
        m1 = train_epoch(net, data, LossConfig(), sched, AdamState(alpha=0.0), 0, 8, np.random.default_rng(8))
        for n, p in net.parameters().items():
            np.testing.assert_array_equal(p.data, before[n])
        m2 = train_epoch(net, data, LossConfig(), sched, AdamState(alpha=0.0), 0, 8, np.random.default_rng(8))
        assert m1.mean_loss == m2.mean_loss

    def test_loss_decreases_on_separable_data(self):
        net = _tiny_net(seed=9)
        data = _separable_dataset()
        sched = CurriculumSchedule.from_labels(np.stack([d[1] for d in data]))
        adam = AdamState()
        rng = np.random.default_rng(10)
        losses = [
            train_epoch(net, data, LossConfig(), sched, adam, e, 8, rng).mean_loss
            for e in range(20)
        ]
        diffs = np.diff(losses)
        assert losses[-1] < losses[0]
        assert np.all(diffs < 0), f"loss not strictly decreasing: {losses}"

    def test_same_seed_identical_trajectory(self):
        def run():
            net = _tiny_net(seed=11)
            data = _separable_dataset()
            sched = CurriculumSchedule.from_labels(np.stack([d[1] for d in data]))
            adam = AdamState()
            rng = np.random.default_rng(12)
            aug = AugmentConfig()
            return [
                train_epoch(net, data, LossConfig(), sched, adam, e, 4, rng, aug).mean_loss
                for e in range(3)
            ]

        assert run() == run()

    def test_empty_dataset_rejected(self):
        net = _tiny_net(seed=13)
        with pytest.raises(TrainingError):
            train_epoch(net, [], LossConfig(), CurriculumSchedule(1, 1), AdamState(), 0, 4, np.random.default_rng(0))

    def test_metrics_carry_lambdas(self):
        net = _tiny_net(seed=14)
        data = _separable_dataset()
        sched = CurriculumSchedule(n_positive=10, n_negative=30, switch_epoch=2)
        m = train_epoch(net, data, LossConfig(), sched, AdamState(), 5, 8, np.random.default_rng(15))
        assert (m.lambda_plus, m.lambda_minus) == (0.75, 0.25)


@pytest.mark.parametrize("make,records", [(build_network, 121), (baseline_variant, 65)])
def test_desk_step_tape_record_count_pinned(make, records):
    # one desk-recipe forward plus margin loss, as a train step tapes it.
    # A change to the count (telemetry, a composed op) must update this
    # pin on purpose: records cost tape time on every step. Each layer
    # tapes four BN records (its reader's affine-ReLU, the second BN's
    # normalization and affine-ReLU, its new maps' normalization), and the
    # stem's normalization and the head's reader add two. The head conv and
    # its pool tape three: the space-to-depth copy, the kernel fold and the
    # cell conv of `conv_avgpool`.
    cfg = NetworkConfig(input_size=64, n_dense_blocks=1, layers_per_block=4)
    net = make(cfg, 0)
    x = np.random.default_rng(0).standard_normal((2, 1, 64, 64))
    with Tape() as tape:
        scores, _ = net.forward(Tensor(x, dtype=cfg.dtype), mode="train")
        margin_loss(scores, np.eye(4)[[0, 2]], LossConfig())
    assert len(tape.records) == records
