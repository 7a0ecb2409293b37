"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 trains ten desk-scale models (5 seeds x routed/baseline) and
dominates the suite's runtime; everything else is seconds.
"""

import time

import numpy as np
import pytest

from capsroute.cli import RunConfig, _checkpoint_from, _restore_network, bench_routing, main
from capsroute.conv import BatchNormState, batchnorm, conv2d, pool2d
from capsroute.data import (
    ManifestEntry,
    generate_synthetic,
    load_checkpoint,
    load_manifest,
    load_pgm,
    save_checkpoint,
    synth_dataset,
    write_manifest,
    write_pgm,
)
from capsroute.evaluation import (
    BBox,
    auc,
    auc_per_class,
    grad_cam,
    heatmap_to_box,
    iobb,
)
from capsroute.model import NetworkConfig, baseline_variant, build_network
from capsroute.routing import (
    Conv1x1CapsuleParams,
    FcCapsuleParams,
    conv1x1_capsule_forward,
    frozen_routing,
    gram,
    route_conv1x1_kernel,
    route_conv1x1_naive,
    route_fc,
    squash,
)
from capsroute.tensor import (
    Tensor,
    broadcast_to,
    concat,
    einsum2,
    exp,
    finite_diff_check,
    matmul,
    relu,
    softmax_lastdim,
    sqrt,
    square,
    tmean,
    tsum,
    vec_norm,
)
from capsroute.training import (
    AdamState,
    AugmentConfig,
    CurriculumSchedule,
    LossConfig,
    standardize,
    train_epoch,
)


def check(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Desk-scale training recipe shared by criteria 6, 8, and the CLI protocol
# ---------------------------------------------------------------------------

DESK_KEYS = {
    "input_size": "64",
    "down_c1": "16",
    "down_c2": "16",
    "n_dense_blocks": "1",
    "layers_per_block": "4",
    "growth_rate": "8",
    "bottleneck_width": "4",
    "head_channels": "32",
    "routing_iters": "3",
    "caps_dim_class": "16",
    "n_classes": "4",
    "grad_mode": "last",
    "dtype": "f32",
    "batch_size": "16",
    "switch_epoch": "2",
}
DESK_EPOCHS = 5
DATA_SEED = 0  # train split seed; test split uses DATA_SEED + 1


@pytest.fixture(scope="session")
def desk_data():
    train_s = generate_synthetic(2000, 64, 4, seed=DATA_SEED)
    test_s = generate_synthetic(500, 64, 4, seed=DATA_SEED + 1)

    def labelize(samples):
        labels = np.zeros((len(samples), 4))
        for i, s in enumerate(samples):
            for c in s.labels:
                labels[i, c] = 1.0
        return labels

    return {
        "train": train_s,
        "test": test_s,
        "train_labels": labelize(train_s),
        "test_labels": labelize(test_s),
        "test_prepared": np.stack([standardize(s.image) for s in test_s])[:, None],
    }


def _train_desk(builder, seed: int, data) -> tuple:
    cfg = RunConfig(DESK_KEYS)
    net = builder(cfg.network_config(), seed)
    dataset = [(s.image, data["train_labels"][i]) for i, s in enumerate(data["train"])]
    sched = CurriculumSchedule.from_labels(data["train_labels"], switch_epoch=cfg["switch_epoch"])
    adam = AdamState()
    rng = np.random.default_rng(seed)
    t0 = time.monotonic()
    for epoch in range(DESK_EPOCHS):
        train_epoch(net, dataset, LossConfig(), sched, adam, epoch, cfg["batch_size"], rng, AugmentConfig())
    elapsed = time.monotonic() - t0
    scores = net.predict(data["test_prepared"], batch_size=64)
    _, macro = auc_per_class(scores, data["test_labels"])
    return net, cfg, adam, rng, macro, elapsed, scores


@pytest.fixture(scope="session")
def trained_routed(desk_data):
    net, cfg, adam, rng, macro, elapsed, scores = _train_desk(build_network, seed=0, data=desk_data)
    return {
        "net": net,
        "cfg": cfg,
        "adam": adam,
        "rng": rng,
        "macro": macro,
        "elapsed": elapsed,
        "scores": scores,
    }


# ---------------------------------------------------------------------------
# 1. Routing equivalence
# ---------------------------------------------------------------------------


def test_c1_routing_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    worst_c = worst_n = 0.0
    n_instances = 200
    for _ in range(n_instances):
        I = int(rng.integers(1, 33))
        J = int(rng.integers(1, 17))
        S = int(rng.integers(1, 257))
        r = int(rng.integers(1, 6))
        F = rng.standard_normal((I, S))
        params = Conv1x1CapsuleParams(rng.standard_normal((I, J)), r)
        g, c_naive = route_conv1x1_naive(F, params)
        c_kernel, norms = route_conv1x1_kernel(gram(F), params)
        worst_c = max(worst_c, float(np.abs(c_kernel - c_naive).max()))
        worst_n = max(worst_n, float(np.abs(norms - np.linalg.norm(g, axis=-1)).max()))
    elapsed = time.monotonic() - t0
    check(
        "criterion 1: kernel-trick routing matches the naive oracle",
        worst_c <= 1e-9 and worst_n <= 1e-9 and elapsed < 60.0,
        f"{n_instances} instances, max coupling diff {worst_c:.2e}, max norm diff {worst_n:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Uniform-coupling reduction
# ---------------------------------------------------------------------------


def test_c2_uniform_coupling_reduction():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(50):
        B = int(rng.integers(1, 4))
        I = int(rng.integers(1, 17))
        J = int(rng.integers(1, 13))
        H = int(rng.integers(2, 9))
        feats = rng.standard_normal((B, I, H, H))
        W = rng.standard_normal((I, J))
        routed = conv1x1_capsule_forward(
            Tensor(feats.reshape(B, I, -1)), Conv1x1CapsuleParams(Tensor(W), iterations=1)
        )
        plain = conv2d(Tensor(feats), Tensor(np.ascontiguousarray(W.T.reshape(J, I, 1, 1))))
        diff = np.abs(routed.data.reshape(B, J, H, H) - plain.data / J).max()
        worst = max(worst, float(diff))
    check(
        "criterion 2: r=1 routed layer equals (1/J) x plain conv",
        worst <= 1e-12,
        f"50 instances, max abs diff {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------


def _op_checks():
    rng = np.random.default_rng(1003)
    x44 = rng.standard_normal((4, 4))
    pos = rng.random((4, 4)) + 0.5
    img = rng.standard_normal((2, 3, 7, 7))
    ker = rng.standard_normal((4, 3, 3, 3))
    gamma = rng.standard_normal(3) + 1.0
    beta = rng.standard_normal(3)
    w = rng.standard_normal(img.shape)
    state = BatchNormState.fresh(3)
    state.running_mean = rng.standard_normal(3)
    state.running_var = rng.random(3) + 0.5
    a34 = rng.standard_normal((3, 4))
    b45 = rng.standard_normal((4, 5))
    feats = rng.standard_normal((2, 4, 9))
    rw = rng.standard_normal((4, 3)) * 0.7
    probe_r = rng.standard_normal((2, 3, 9))
    caps = rng.standard_normal((2, 3, 4))
    fw = rng.standard_normal((3, 2, 4, 5)) * 0.5
    probe_f = rng.standard_normal((2, 2, 5))

    def wsq(t):
        return (t * t).sum()

    yield "add", lambda: finite_diff_check(lambda t: wsq(t + Tensor(x44)), Tensor(rng.standard_normal((4, 4))))
    yield "sub", lambda: finite_diff_check(lambda t: wsq(Tensor(x44) - t), Tensor(rng.standard_normal((4, 4))))
    yield "mul", lambda: finite_diff_check(lambda t: wsq(t * Tensor(x44)), Tensor(rng.standard_normal((4, 4))))
    yield "div", lambda: finite_diff_check(lambda t: wsq(Tensor(x44) / t), Tensor(pos.copy()))
    yield "neg", lambda: finite_diff_check(lambda t: wsq(-t), Tensor(rng.standard_normal((4, 4))))
    yield "square", lambda: finite_diff_check(lambda t: square(t).sum(), Tensor(rng.standard_normal((4, 4))))
    yield "sqrt", lambda: finite_diff_check(lambda t: wsq(sqrt(t)), Tensor(pos.copy()))
    yield "exp", lambda: finite_diff_check(lambda t: wsq(exp(t)), Tensor(rng.standard_normal((4, 4)) * 0.5))
    yield "relu", lambda: finite_diff_check(lambda t: wsq(relu(t)), Tensor(rng.standard_normal((4, 4))))
    yield "sum", lambda: finite_diff_check(lambda t: square(tsum(t, axis=1)).sum(), Tensor(rng.standard_normal((4, 4))))
    yield "mean", lambda: finite_diff_check(lambda t: square(tmean(t, axis=0)).sum(), Tensor(rng.standard_normal((4, 4))))
    w82 = Tensor(rng.standard_normal((8, 2)))
    yield "reshape+transpose", lambda: finite_diff_check(
        lambda t: wsq(t.reshape(2, 8).transpose((1, 0)) * w82),
        Tensor(rng.standard_normal((4, 4))),
    )
    yield "concat", lambda: finite_diff_check(
        lambda t: wsq(concat([t, t * 2.0], axis=1)), Tensor(rng.standard_normal((3, 2)))
    )
    yield "broadcast_to", lambda: finite_diff_check(
        lambda t: wsq(broadcast_to(t, (5, 3, 2))), Tensor(rng.standard_normal((3, 2)))
    )
    yield "matmul", lambda: finite_diff_check(lambda t: wsq(matmul(t, Tensor(b45))), Tensor(a34.copy()))
    yield "einsum2", lambda: finite_diff_check(
        lambda t: wsq(einsum2("ij,jk->ik", Tensor(a34), t)), Tensor(b45.copy())
    )
    yield "softmax", lambda: finite_diff_check(lambda t: wsq(softmax_lastdim(t)), Tensor(rng.standard_normal((5, 6))))
    yield "vec_norm", lambda: finite_diff_check(
        lambda t: vec_norm(t, axis=-1).sum(), Tensor(rng.standard_normal((4, 3)) + 0.4)
    )
    yield "squash", lambda: finite_diff_check(lambda t: wsq(squash(t)), Tensor(rng.standard_normal((3, 5)) + 0.3))
    yield "conv2d/input", lambda: finite_diff_check(
        lambda t: wsq(conv2d(t, Tensor(ker), stride=2, padding="same")), Tensor(img.copy())
    )
    yield "conv2d/kernel", lambda: finite_diff_check(
        lambda t: wsq(conv2d(Tensor(img), t, padding="valid")), Tensor(ker.copy())
    )

    def pool_loss(mode, padding):
        def f(t):
            return wsq(pool2d(t, mode, 3, 2, padding))

        return f

    yield "pool/max/valid", lambda: finite_diff_check(pool_loss("max", "valid"), Tensor(img.copy()))
    yield "pool/avg/valid", lambda: finite_diff_check(pool_loss("avg", "valid"), Tensor(img.copy()))
    yield "pool/max/same", lambda: finite_diff_check(pool_loss("max", "same"), Tensor(img.copy()))
    yield "pool/avg/same", lambda: finite_diff_check(pool_loss("avg", "same"), Tensor(img.copy()))

    w_lin = Tensor(rng.standard_normal(img.shape))

    def bn_loss(mode, which):
        g_t, b_t, x_t = Tensor(gamma.copy()), Tensor(beta.copy()), Tensor(img.copy())

        def f(t):
            args = {"x": x_t, "gamma": g_t, "beta": b_t}
            args[which] = t
            y = batchnorm(args["x"], args["gamma"], args["beta"], state, mode=mode)
            # the linear term keeps every gradient coordinate O(1) so the
            # relative-error metric is not noise-dominated near zeros
            return wsq(y * Tensor(w)) + (y * w_lin).sum()

        return f, {"x": x_t, "gamma": g_t, "beta": b_t}[which]

    for mode in ("train", "eval"):
        for which in ("x", "gamma", "beta"):
            f, target = bn_loss(mode, which)
            yield f"batchnorm/{mode}/{which}", (lambda f=f, target=target: finite_diff_check(f, target))

    def routed_loss(grad_mode, r):
        def run():
            def f(t):
                out = conv1x1_capsule_forward(
                    Tensor(feats), Conv1x1CapsuleParams(t, r), grad_mode, freeze_key="acc"
                )
                return (out * Tensor(probe_r)).sum()

            with frozen_routing():
                return finite_diff_check(f, Tensor(rw.copy()))

        return run

    yield "routed-conv/last/r3", routed_loss("last", 3)
    yield "routed-conv/none/r3", routed_loss("none", 3)
    yield "routed-conv/last/r2", routed_loss("last", 2)

    def routed_feats():
        def f(t):
            out = conv1x1_capsule_forward(t, Conv1x1CapsuleParams(Tensor(rw), 3), "last", freeze_key="af")
            return (out * Tensor(probe_r)).sum()

        with frozen_routing():
            return finite_diff_check(f, Tensor(feats.copy()))

    yield "routed-conv/features", routed_feats

    def fc_w():
        def f(t):
            v = route_fc(Tensor(caps), FcCapsuleParams(t, 3), "last", freeze_key="fw")
            return (v * Tensor(probe_f)).sum()

        with frozen_routing():
            return finite_diff_check(f, Tensor(fw.copy()))

    yield "route-fc/weights", fc_w

    def fc_u():
        def f(t):
            v = route_fc(t, FcCapsuleParams(Tensor(fw), 3), "last", freeze_key="fu")
            return (v * Tensor(probe_f)).sum()

        with frozen_routing():
            return finite_diff_check(f, Tensor(caps.copy()))

    yield "route-fc/capsules", fc_u


def test_c3_gradient_correctness():
    failures = []
    for name, runner in _op_checks():
        err = runner()
        if err > 1e-4:
            failures.append(f"{name}: {err:.2e}")

    # end-to-end: tiny network (input 32, 1 block of 2 layers), default
    # routing depth, every parameter tensor, frozen detached phases
    cfg = NetworkConfig(
        input_size=32,
        down_channels=(4, 8),
        n_dense_blocks=1,
        layers_per_block=2,
        growth_rate=4,
        bottleneck_width=2,
        head_channels=8,
        routing_iters=3,
        caps_dim_class=4,
        n_classes=2,
        dtype="f64",
    )
    net = build_network(cfg, seed=1003)
    rng = np.random.default_rng(1004)
    batch = rng.standard_normal((2, 1, 32, 32))
    probe = Tensor(rng.standard_normal((2, 2)))
    worst_e2e = 0.0

    def loss():
        scores, _ = net.forward(batch, mode="train")
        return (scores * probe).sum()

    with frozen_routing():
        for name, p in net.parameters().items():
            err = finite_diff_check(lambda _t: loss(), p, max_coords=12, seed=1005)
            worst_e2e = max(worst_e2e, err)
            if err > 1e-3:
                failures.append(f"end-to-end {name}: {err:.2e}")

    check(
        "criterion 3: finite-difference gradient checks",
        not failures,
        f"per-op <= 1e-4, end-to-end worst {worst_e2e:.2e} <= 1e-3"
        + (f"; failures: {failures}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 4. Squash and softmax invariants
# ---------------------------------------------------------------------------


def test_c4_squash_softmax_invariants():
    rng = np.random.default_rng(1006)
    v = rng.standard_normal((100_000, 8)) * rng.lognormal(0.0, 3.0, size=(100_000, 1))
    out = squash(v, axis=-1)
    norms = np.linalg.norm(out, axis=-1)
    in_norms = np.linalg.norm(v, axis=-1)
    cos = np.sum(out * v, axis=-1) / np.where(norms * in_norms > 0, norms * in_norms, 1.0)
    squash_ok = bool(np.all(norms < 1.0) and np.all(cos >= 1.0 - 1e-12))

    worst_row = 0.0
    min_c = 0.0
    for _ in range(30):
        I = int(rng.integers(1, 20))
        J = int(rng.integers(1, 10))
        F = rng.standard_normal((I, int(rng.integers(1, 80))))
        params = Conv1x1CapsuleParams(rng.standard_normal((I, J)), int(rng.integers(1, 6)))
        for path, args in (("kernel", gram(F)), ("naive", F)):
            trace = []
            if path == "kernel":
                route_conv1x1_kernel(args, params, trace=trace)
            else:
                route_conv1x1_naive(args, params, trace=trace)
            for c in trace:
                worst_row = max(worst_row, float(np.abs(c.sum(axis=-1) - 1.0).max()))
                min_c = min(min_c, float(c.min()))

    # every routed layer of a full network forward, every iteration
    cfg = NetworkConfig(
        input_size=32,
        down_channels=(4, 8),
        n_dense_blocks=1,
        layers_per_block=2,
        growth_rate=4,
        bottleneck_width=2,
        head_channels=8,
        routing_iters=4,
        caps_dim_class=4,
        n_classes=3,
        dtype="f64",
    )
    net = build_network(cfg, seed=1007)
    traces: dict = {}
    net.forward(rng.standard_normal((3, 1, 32, 32)), mode="eval", coupling_trace=traces)
    layer_count = 0
    for name, trace in traces.items():
        assert len(trace) == 4, f"{name}: expected one coupling tensor per iteration"
        for c in trace:
            worst_row = max(worst_row, float(np.abs(c.sum(axis=-1) - 1.0).max()))
            min_c = min(min_c, float(c.min()))
        layer_count += 1

    check(
        "criterion 4: squash bound/direction and row-stochastic couplings",
        squash_ok and worst_row <= 1e-12 and min_c >= 0.0,
        f"100000 squash vectors; {layer_count} network layers traced; worst row-sum dev {worst_row:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. AUC oracle
# ---------------------------------------------------------------------------


def test_c5_auc_oracle():
    rng = np.random.default_rng(1008)
    mismatches = 0
    for case in range(1000):
        n = int(rng.integers(2, 80))
        if case % 3 == 0:
            scores = rng.random(n)  # continuous
        elif case % 3 == 1:
            scores = np.round(rng.random(n), 1)  # heavy ties
        else:
            scores = rng.integers(0, 3, size=n).astype(float)  # extreme ties
        labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        got = auc(scores, labels)
        pos = scores[labels > 0.5]
        neg = scores[labels <= 0.5]
        if len(pos) == 0 or len(neg) == 0:
            want = None
        else:
            wins = 0.0
            for p in pos:
                wins += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
            want = wins / (len(pos) * len(neg))
        if got != want:
            mismatches += 1
    check(
        "criterion 5: rank-based AUC equals exhaustive pair counting",
        mismatches == 0,
        f"1000 randomized cases incl. heavy ties, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 6. Directional training echo
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c6_training_directional(desk_data, trained_routed):
    headline_ok = trained_routed["macro"] >= 0.90 and trained_routed["elapsed"] <= 600.0
    print(
        f"  routed seed 0: macro AUC {trained_routed['macro']:.4f} "
        f"in {trained_routed['elapsed']:.0f}s (limit 600s)"
    )

    routed_aucs = [trained_routed["macro"]]
    for seed in (1, 2, 3, 4):
        _, _, _, _, macro, _, _ = _train_desk(build_network, seed, desk_data)
        print(f"  routed seed {seed}: macro AUC {macro:.4f}")
        routed_aucs.append(macro)
    baseline_aucs = []
    for seed in (0, 1, 2, 3, 4):
        _, _, _, _, macro, _, _ = _train_desk(baseline_variant, seed, desk_data)
        print(f"  baseline seed {seed}: macro AUC {macro:.4f}")
        baseline_aucs.append(macro)

    med_r = float(np.median(routed_aucs))
    med_b = float(np.median(baseline_aucs))
    check(
        "criterion 6: routed model reaches AUC >= 0.90 and matches baseline medians",
        headline_ok and med_r >= med_b - 0.01,
        f"routed median {med_r:.4f} vs baseline median {med_b:.4f}; "
        f"headline {trained_routed['macro']:.4f} in {trained_routed['elapsed']:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Kernel-trick cost claim
# ---------------------------------------------------------------------------


def test_c7_kernel_cost_claim():
    res = bench_routing(spatial=4096, in_maps=32, out_maps=32, iters=3, repeat=15)
    abs_ok = res["kernel"] <= res["naive"] and res["kernel"] <= 4 * res["plain"]

    # per-iteration increment versus spatial size: (t(r=5) - t(r=2)) / 3;
    # r=2 and r=5 both build the Gram matrix, while r=1 skips it, so this
    # difference counts routing iterations only. Single r=2 and r=5 rounds
    # alternate, so a change in machine speed lands on both sides alike.
    inc = {"naive": {}, "kernel": {}}
    for S in (256, 1024, 4096):
        t2 = {"naive": [], "kernel": []}
        t5 = {"naive": [], "kernel": []}
        for _ in range(15):
            for iters, times in ((2, t2), (5, t5)):
                res_r = bench_routing(spatial=S, in_maps=32, out_maps=32, iters=iters, repeat=1)
                for mode in times:
                    times[mode].append(res_r[mode])
        for mode in ("naive", "kernel"):
            inc[mode][S] = max((np.median(t5[mode]) - np.median(t2[mode])) / 3.0, 1.0)
    naive_growth = inc["naive"][4096] / inc["naive"][256]
    naive_slope = inc["naive"][4096] - inc["naive"][256]
    kernel_slope = inc["kernel"][4096] - inc["kernel"][256]
    scaling_ok = naive_growth >= 4.0 and kernel_slope <= 0.1 * naive_slope
    check(
        "criterion 7: kernel-trick cost is flat in S and beats naive routing",
        abs_ok and scaling_ok,
        f"S=4096: kernel {res['kernel']/1e6:.2f}ms <= naive {res['naive']/1e6:.2f}ms, "
        f"<= 4x plain {res['plain']/1e6:.2f}ms; naive per-iter growth x{naive_growth:.1f} "
        f"(needs >= 4), kernel slope {kernel_slope/1e3:.0f}us vs naive {naive_slope/1e3:.0f}us",
    )


# ---------------------------------------------------------------------------
# 8. Localization pipeline
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c8_localization(desk_data, trained_routed, tmp_path):
    geometry_ok = (
        iobb(BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)) == 1.0
        and iobb(BBox(0, 0, 5, 5), BBox(20, 20, 5, 5)) == 0.0
        and iobb(BBox(0, 0, 10, 10), BBox(0, 0, 5, 10)) == 0.5
    )

    net = trained_routed["net"]
    scores = trained_routed["scores"]
    hits = total = 0
    for i, sample in enumerate(desk_data["test"]):
        for cls, x, y, w, h in sample.boxes:
            if scores[i, cls] <= 0.5:
                continue  # only correctly classified glyphs count
            heat = grad_cam(net, desk_data["test_prepared"][i, 0], cls)
            box, _ = heatmap_to_box(heat, (64, 64), tau=0.1)
            if box is not None:
                cx, cy = box.center()
                gx, gy = x + w / 2.0, y + h / 2.0
                if (cx >= 32) == (gx >= 32) and (cy >= 32) == (gy >= 32):
                    hits += 1
            total += 1
            if total >= 150:
                break
        if total >= 150:
            break
    rate = hits / total if total else 0.0

    # full report protocol through the CLI: synth files + checkpoint ->
    # eval emits the per-class localization CSV at T in {0.1, 0.25, 0.5}
    data_dir = tmp_path / "data"
    synth_dataset(data_dir, n_train=1, n_test=60, image_size=64, seed=DATA_SEED)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(
        ckpt,
        _checkpoint_from(net, trained_routed["cfg"], False, trained_routed["adam"], trained_routed["rng"]),
    )
    report = tmp_path / "report.csv"
    rc = main(
        [
            "eval",
            "--manifest", str(data_dir / "test.csv"),
            "--images-root", str(data_dir),
            "--ckpt", str(ckpt),
            "--report", str(report),
        ]
    )
    loc_path = report.with_suffix(".csv.loc.csv")
    protocol_ok = rc == 0 and loc_path.exists()
    rows = loc_path.read_text().splitlines() if protocol_ok else []
    if protocol_ok:
        assert rows[0] == "class,t_iobb,accuracy,n_cases"
        classes = {r.split(",")[0] for r in rows[1:]}
        thresholds = {r.split(",")[1] for r in rows[1:]}
        protocol_ok = len(rows) == 1 + 3 * len(classes) and thresholds == {"0.1", "0.25", "0.5"}

    check(
        "criterion 8: localization geometry, quadrant hit rate, report protocol",
        geometry_ok and total >= 30 and rate >= 0.60 and protocol_ok,
        f"quadrant hit rate {rate:.2f} over {total} correctly classified glyphs; "
        f"localization CSV rows {max(len(rows) - 1, 0)}",
    )


# ---------------------------------------------------------------------------
# 9. Persistence
# ---------------------------------------------------------------------------


def test_c9_persistence(tmp_path):
    samples = generate_synthetic(12, 32, 4, seed=77)
    labels = np.zeros((12, 4))
    for i, s in enumerate(samples):
        for c in s.labels:
            labels[i, c] = 1.0
    keys = dict(DESK_KEYS)
    keys.update(
        {"input_size": "32", "down_c1": "4", "down_c2": "8", "layers_per_block": "1",
         "growth_rate": "4", "bottleneck_width": "2", "head_channels": "8",
         "caps_dim_class": "4", "batch_size": "4"}
    )
    cfg = RunConfig(keys)
    net = build_network(cfg.network_config(), seed=5)
    sched = CurriculumSchedule.from_labels(labels)
    adam = AdamState()
    rng = np.random.default_rng(5)
    dataset = [(s.image, labels[i]) for i, s in enumerate(samples)]
    train_epoch(net, dataset, LossConfig(), sched, adam, 0, 4, rng, None)

    prepared = np.stack([standardize(s.image) for s in samples])[:, None]
    in_memory = net.predict(prepared)

    ckpt_path = tmp_path / "persist.ckpt"
    save_checkpoint(ckpt_path, _checkpoint_from(net, cfg, False, adam, rng))
    restored, _, _ = _restore_network(load_checkpoint(ckpt_path))
    reloaded = restored.predict(prepared)
    bitwise_ok = np.array_equal(in_memory, reloaded)

    # file-format round-trips
    ck1 = load_checkpoint(ckpt_path)
    second = tmp_path / "persist2.ckpt"
    save_checkpoint(second, ck1)
    ckpt_ok = ckpt_path.read_bytes() == second.read_bytes()

    entries = [ManifestEntry("x.pgm", (0, 2), ((0, 1, 2, 3, 4),)), ManifestEntry("y.pgm", (), ())]
    man_path = tmp_path / "m.csv"
    write_manifest(entries, man_path)
    manifest_ok = load_manifest(man_path) == entries

    img = np.rint(np.random.default_rng(6).random((16, 16)) * 255.0) / 255.0
    pgm_path = tmp_path / "img.pgm"
    write_pgm(img, pgm_path)
    pgm_ok = np.array_equal(load_pgm(pgm_path), img)

    check(
        "criterion 9: checkpoint reload is bitwise and formats round-trip",
        bitwise_ok and ckpt_ok and manifest_ok and pgm_ok,
        f"scores bitwise={bitwise_ok}, checkpoint bytes={ckpt_ok}, manifest={manifest_ok}, pgm={pgm_ok}",
    )
