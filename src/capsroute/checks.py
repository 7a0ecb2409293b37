"""The paper's numerical checks, shared by `capsroute selftest` and the
acceptance tests.

Each suite takes no arguments and returns `(cases, failures)`: how many
cases it ran and one message per failed case, naming the seed, the case
and the measured error. Inputs are fixed by seed, so every run checks the
same cases.
"""

from __future__ import annotations

import numpy as np

from .conv import BatchNormState, affine_relu, batchnorm, conv2d, conv_avgpool, conv_maxpool, pool2d
from .evaluation import BBox, auc, iobb
from .model import NetworkConfig, build_network
from .routing import (
    Conv1x1CapsuleParams, FcCapsuleParams, conv1x1_capsule_forward, frozen_routing, route_conv1x1_naive, route_fc,
    softmax_lastdim, squash,
)
from .tensor import Tensor, einsum2, finite_diff_check, relu, square, tsum, vec_norm


def routing_equivalence():
    """The shipped Gram-routed layer against full-map routing (criterion 1).

    200 random (I, J, S, r) instances from seed 1001, each run under
    grad_mode "none" and "last": final couplings, output maps and output
    norms must all agree with `route_conv1x1_naive` within 1e-9.
    """
    rng = np.random.default_rng(1001)
    cases, failures = 0, []
    for k in range(200):
        I = int(rng.integers(1, 33))
        J = int(rng.integers(1, 17))
        S = int(rng.integers(1, 257))
        r = int(rng.integers(1, 6))
        F = rng.standard_normal((I, S))
        params = Conv1x1CapsuleParams(rng.standard_normal((I, J)), r)
        g_naive, c_naive = route_conv1x1_naive(F, params)
        for mode in ("none", "last"):
            trace = []
            g = conv1x1_capsule_forward(Tensor(F), params, grad_mode=mode, trace=trace).data
            diffs = {
                "coupling": np.abs(trace[-1][0] - c_naive).max(),
                "map": np.abs(g - g_naive).max(),
                "norm": np.abs(np.linalg.norm(g, axis=-1) - np.linalg.norm(g_naive, axis=-1)).max(),
            }
            cases += 1
            bad = [f"{what} diff {d:.2e}" for what, d in diffs.items() if not d <= 1e-9]
            if bad:
                failures.append(
                    f"seed 1001 instance {k} (I={I} J={J} S={S} r={r}) grad_mode {mode}: "
                    + ", ".join(bad) + " > 1e-9"
                )
    return cases, failures


def _op_checks():
    """(name, runner) per taped op; each runner returns the op's worst
    finite-difference relative error. Inputs come from seed 1003."""
    rng = np.random.default_rng(1003)
    x44 = rng.standard_normal((4, 4))
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
    yield "square", lambda: finite_diff_check(lambda t: square(t).sum(), Tensor(rng.standard_normal((4, 4))))
    yield "relu", lambda: finite_diff_check(lambda t: wsq(relu(t)), Tensor(rng.standard_normal((4, 4))))
    yield "sum", lambda: finite_diff_check(lambda t: square(tsum(t, axis=1)).sum(), Tensor(rng.standard_normal((4, 4))))
    w82 = Tensor(rng.standard_normal((8, 2)))
    yield "reshape+transpose", lambda: finite_diff_check(
        lambda t: wsq(t.reshape(2, 8).transpose((1, 0)) * w82),
        Tensor(rng.standard_normal((4, 4))),
    )
    # a reader of two normalized groups: its gradient splits along channels
    xa, g5, b5 = rng.standard_normal((2, 2, 3, 3)), rng.standard_normal(5) + 1.0, rng.standard_normal(5)
    yield "affine_relu/parts", lambda: finite_diff_check(
        lambda t: wsq(affine_relu([Tensor(xa), t], Tensor(g5), Tensor(b5))), Tensor(rng.standard_normal((2, 3, 3, 3)))
    )
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
            y = affine_relu([batchnorm(args["x"], state, mode=mode)], args["gamma"], args["beta"])
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

    # conv extent 5: the stem's 3/4 max pool pads one cell on each side
    stem_img = rng.standard_normal((2, 3, 10, 10))
    yield "conv_maxpool/kernel", lambda: finite_diff_check(
        lambda t: wsq(conv_maxpool(Tensor(stem_img), t, 2, 3, 4)), Tensor(rng.standard_normal((4, 3, 7, 7)))
    )
    # 4 -> 1 maps over 32x32, which `conv2d` runs on its tap path
    tap_img = rng.standard_normal((1, 4, 32, 32))
    yield "conv2d/taps", lambda: finite_diff_check(
        lambda t: wsq(conv2d(Tensor(tap_img), t, padding="same")), Tensor(rng.standard_normal((1, 4, 3, 3)))
    )
    # the head's 9x9 and 4/4 pool on a 6x10 map: the space-to-depth copy's
    # last cells are partly past the edge
    head_img, head_ker = rng.standard_normal((2, 3, 6, 10)), rng.standard_normal((2, 3, 9, 9))
    yield "conv_avgpool/input", lambda: finite_diff_check(
        lambda t: wsq(conv_avgpool(t, Tensor(head_ker), 4)), Tensor(head_img.copy())
    )
    yield "conv_avgpool/kernel", lambda: finite_diff_check(
        lambda t: wsq(conv_avgpool(Tensor(head_img), t, 4)), Tensor(head_ker.copy())
    )


def gradient_checks():
    """Taped gradients against central differences (criterion 3).

    Every op in `_op_checks` within 1e-4, then every parameter tensor of a
    tiny f64 network (seed 1003, batch from seed 1004, 12 coordinates from
    seed 1005) within 1e-3, with routing's detached phases frozen.
    """
    cases, failures = 0, []
    for name, runner in _op_checks():
        err = runner()
        cases += 1
        if not err <= 1e-4:
            failures.append(f"seed 1003 op {name}: error {err:.2e} > 1e-4")

    cfg = NetworkConfig(
        input_size=32, down_channels=(4, 8), n_dense_blocks=1, layers_per_block=2, growth_rate=4,
        bottleneck_width=2, head_channels=8, routing_iters=3, caps_dim_class=4, n_classes=2, dtype="f64",
    )
    net = build_network(cfg, seed=1003)
    rng = np.random.default_rng(1004)
    batch = rng.standard_normal((2, 1, 32, 32))
    probe = Tensor(rng.standard_normal((2, 2)))

    def loss():
        scores, _ = net.forward(batch, mode="train")
        return (scores * probe).sum()

    with frozen_routing():
        for name, p in net.parameters().items():
            err = finite_diff_check(lambda _t: loss(), p, max_coords=12, seed=1005)
            cases += 1
            if not err <= 1e-3:
                failures.append(f"seeds 1003-1005 end-to-end {name}: error {err:.2e} > 1e-3")
    return cases, failures


def auc_oracle():
    """Rank-based AUC equals exhaustive pair counting exactly (criterion 5).

    1000 cases from seed 1008, n in [2, 80), cycling through continuous
    scores, scores rounded to 0.1 and scores in {0, 1, 2}.
    """
    rng = np.random.default_rng(1008)
    failures = []
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
            failures.append(f"seed 1008 case {case} (n={n}): rank AUC {got!r} != pair counting {want!r}")
    return 1000, failures


def iobb_geometry():
    """IoBB on identical, disjoint, half-covering and contained boxes."""
    cases = [
        (BBox(0, 0, 10, 10), BBox(0, 0, 10, 10), 1.0),
        (BBox(0, 0, 5, 5), BBox(20, 20, 5, 5), 0.0),
        (BBox(0, 0, 10, 10), BBox(0, 0, 5, 10), 0.5),
        (BBox(2, 2, 3, 3), BBox(0, 0, 10, 10), 1.0),
    ]
    failures = []
    for i, (det, gt, want) in enumerate(cases):
        got = iobb(det, gt)
        if got != want:
            failures.append(f"case {i} ({det} against {gt}): iobb {got!r} != {want!r}")
    return len(cases), failures


SUITES = {
    "routing-equivalence": routing_equivalence,
    "gradient-checks": gradient_checks,
    "auc-oracle": auc_oracle,
    "iobb-geometry": iobb_geometry,
}
