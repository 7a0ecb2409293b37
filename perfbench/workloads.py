"""The benchmark's workloads: seeded training steps and a Grad-CAM eval pass.

Every workload is a closed loop with one caller, f32, routing_iters=3 and
grad_mode="last", on the dense-block recipe the acceptance tests use (one
block of four composite layers, growth 8, bottleneck 4, batch 16, augment
on). Inputs are synthetic glyph images generated in-process from the seed;
network weights come from a fixed seed, so a seed selects the data only.
The eval workload's model is likewise fixed: the routed desk net after
`EVAL_PRETRAIN_STEPS` steps on the pool of seed `EVAL_MODEL_SEED`; the
seed selects its held-out images.

Operations are train steps (one `train_epoch` call over one batch),
predict batches and CAM cases (`grad_cam` plus `heatmap_to_box`). Each is
checked as it completes and counted as attempted and, on a bad output or
an exception, failed. Checks that are not operations (the naive-routing
oracle, bitwise determinism, the AUC and localization report) go to
`problems`; either kind makes the run incorrect.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from capsroute import data, evaluation, model, routing, training
from capsroute.evaluation import BBox
from capsroute.model import NetworkConfig
from capsroute.tensor import Tensor

BATCH = 16
PREDICT_BATCH = 64
NET_SEED = 0
N_CLASSES = 4
CLASS_PRIOR = 0.35
TAU = 0.1
SWITCH_EPOCH = 2
REPLAY_STEPS = 2  # steps re-run on a fresh copy to check bitwise determinism
EVAL_MODEL_SEED = 0
EVAL_PRETRAIN_STEPS = 20
EVAL_HELD_OUT = 1024  # a multiple of PREDICT_BATCH, predicted every pass; their margin loss is `training.loss`
EVAL_CAM_IMAGES = 64  # every ground-truth box of these is a CAM case, every pass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    input_size: int
    baseline: bool
    pool_images: int  # distinct training images; steps cycle through them
    loss_steps: int  # steps always run, whose mean loss is the `training.loss` metric
    setup_reps: int  # at least 2; see `Setups`


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_desk", "train", 64, False, 512, 64, 15),
        Workload("train_desk_baseline", "train", 64, True, 512, 64, 15),
        Workload("train_paper", "train", 256, False, 128, 6, 9),
        Workload("eval_desk", "eval", 64, False, 256, 0, 4),
    )
}


def network_config(input_size: int) -> NetworkConfig:
    return NetworkConfig(
        input_size=input_size,
        down_channels=(16, 16),
        n_dense_blocks=1,
        layers_per_block=4,
        growth_rate=8,
        bottleneck_width=4,
        head_channels=32,
        routing_iters=3,
        grad_mode="last",
        dtype="f32",
    )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Ops:
    """Runs, times and checks operations. With a tracer, operations of each

    kind alternate between traced and untraced, so one run yields both the
    per-layer spans and the tracing overhead.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list[tuple[float, bool]]] = defaultdict(list)

    def run(self, kind, fn, check, counted=True, warmup=False):
        """Time `fn()`, then check its result; returns it, or None on an

        exception. Warm-up operations are checked but neither traced nor
        timed.
        """
        n = len(self.times[kind])
        traced = self.tracer is not None and not warmup and n % 2 == 0
        if traced:
            self.tracer.install()
            self.tracer.op = f"{kind}-{n}"
            self.tracer.enter("op." + kind)
        problem = None
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # an operation boundary: record the failure and go on
            result = None
            problem = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.exit()
            self.tracer.op = None
            self.tracer.uninstall()
        if problem is None:
            problem = check(result)
        if counted:
            self.attempted += 1
            self.failed += problem is not None
        if problem is not None:
            self.problems.append(f"{kind}: {problem}")
        if not warmup:
            self.times[kind].append((elapsed, traced))
        return result if problem is None else None

    def check(self, what, fn) -> None:
        """Run an out-of-loop check returning problem strings; an exception

        is a problem too.
        """
        try:
            self.problems += [f"{what}: {p}" for p in fn()]
        except Exception as e:  # a check boundary: record the failure and go on
            self.problems.append(f"{what}: {type(e).__name__}: {e}")

    def durations(self, kind, traced=None) -> list[float]:
        return [t for t, tr in self.times[kind] if traced is None or tr == traced]


def check_step(m) -> str | None:
    if not np.isfinite(m.mean_loss) or m.mean_loss < 0:
        return f"non-finite or negative loss {m.mean_loss!r}"
    for what, v in (("positive", m.pos_score_mean), ("negative", m.neg_score_mean)):
        if not np.isnan(v) and not 0.0 <= v < 1.0:
            return f"mean {what} score {v!r} outside [0, 1)"
    return None


def check_scores(scores, n_rows) -> str | None:
    if scores.shape != (n_rows, N_CLASSES):
        return f"scores have shape {scores.shape}, expected {(n_rows, N_CLASSES)}"
    if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() >= 1.0:
        return f"scores outside [0, 1): min {scores.min()!r}, max {scores.max()!r}"
    return None


def check_cam(result, size) -> str | None:
    heat, box, up = result
    for what, m in (("heatmap", heat.normalized), ("upsampled heatmap", up)):
        if not np.all(np.isfinite(m)) or m.min() < 0.0 or m.max() > 1.0:
            return f"{what} outside [0, 1]"
    if up.shape != (size, size):
        return f"upsampled heatmap has shape {up.shape}, expected {(size, size)}"
    if box is not None and not (0 <= box.x and 0 <= box.y and box.x + box.w <= size and box.y + box.h <= size):
        return f"box {box} outside the {size}x{size} image"
    return None


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    net: model.Network
    batches: list  # per step k: batches[k % len(batches)], a list of (image, label vector)
    schedule: training.CurriculumSchedule
    adam: training.AdamState


def labels_of(samples) -> np.ndarray:
    out = np.zeros((len(samples), N_CLASSES))
    for i, s in enumerate(samples):
        out[i, list(s.labels)] = 1.0
    return out


def setup_train(w: Workload, seed: int) -> TrainState:
    pool = data.generate_synthetic(w.pool_images, w.input_size, N_CLASSES, seed=seed, class_prior=CLASS_PRIOR)
    labels = labels_of(pool)
    pairs = [(s.image, labels[i]) for i, s in enumerate(pool)]
    batches = [pairs[i : i + BATCH] for i in range(0, len(pairs), BATCH)]
    make_net = model.baseline_variant if w.baseline else model.build_network
    net = make_net(network_config(w.input_size), NET_SEED)
    schedule = training.CurriculumSchedule.from_labels(labels, switch_epoch=SWITCH_EPOCH)
    return TrainState(net, batches, schedule, training.AdamState())


def train_step(st: TrainState, k: int, rng: np.random.Generator):
    """Step k of the recipe: one `train_epoch` call over batch k; the epoch

    index counts passes over the pool, so the curriculum advances as usual.
    """
    epoch = k // len(st.batches)
    return training.train_epoch(
        st.net,
        st.batches[k % len(st.batches)],
        training.LossConfig(),
        st.schedule,
        st.adam,
        epoch,
        BATCH,
        rng,
        training.AugmentConfig(),
    )


@dataclass
class EvalState:
    net: model.Network
    pretrain_losses: list
    images: np.ndarray  # (N, 1, H, W), standardized
    labels: np.ndarray
    cases: list  # (image index, class, ground-truth BBox)


def setup_eval(w: Workload, seed: int) -> EvalState:
    st = setup_train(w, EVAL_MODEL_SEED)
    rng = np.random.default_rng(EVAL_MODEL_SEED)
    losses = [train_step(st, k, rng).mean_loss for k in range(EVAL_PRETRAIN_STEPS)]
    # seed + 1 keeps the held-out stream apart from the model's pool (seed 0) for every seed >= 0
    held = data.generate_synthetic(EVAL_HELD_OUT, w.input_size, N_CLASSES, seed=seed + 1, class_prior=CLASS_PRIOR)
    images = np.stack([training.standardize(s.image) for s in held])[:, None]
    cases = [
        (i, cls, BBox(x, y, bw, bh)) for i, s in enumerate(held[:EVAL_CAM_IMAGES]) for cls, x, y, bw, bh in s.boxes
    ]
    return EvalState(st.net, losses, images, labels_of(held), cases)


class Setups:
    """Times `w.setup_reps` set-ups of a workload; `times` holds every

    duration in seconds. The first two run before the timed loop and their
    states are used: `st` by the loop, `spare` by the out-of-loop checks.
    With a tracer they are traced as operations `setup-<rep>` and the layer
    totals are cleared afterwards, so the totals cover timed operations
    only. The other repetitions run untraced at even intervals of the timed
    loop (`during`) and are discarded, so their median samples the same
    stretch of machine time as the operations do.
    """

    def __init__(self, w: Workload, seed: int, setup, tracer=None):
        self.w, self.seed, self.setup = w, seed, setup
        self.times: list[float] = []
        states = []
        for rep in range(2):
            if tracer is not None:
                tracer.install()
                tracer.op = f"setup-{rep}"
            states.append(self._timed())
            if tracer is not None:
                tracer.uninstall()
                tracer.op = None
        if tracer is not None:
            tracer.clear_totals()
        self.st, self.spare = states

    def _timed(self):
        start = time.perf_counter()
        st = self.setup(self.w, self.seed)
        self.times.append(time.perf_counter() - start)
        return st

    def during(self, elapsed: float, seconds: float) -> None:
        """Run the next in-loop set-up once `elapsed` reaches its slot."""
        spread = self.w.setup_reps - 2
        done = len(self.times) - 2
        if done < spread and elapsed >= seconds * (done + 1) / (spread + 1):
            self._timed()

    def finish(self) -> None:
        while len(self.times) < self.w.setup_reps:
            self._timed()


# ---------------------------------------------------------------------------
# Out-of-loop checks
# ---------------------------------------------------------------------------


def routed_calls(net: model.Network, images: np.ndarray, mode: str) -> list:
    """(features, params, output) of every routed 1x1 call of one real forward."""
    seen = []
    shipped = model.conv1x1_capsule_forward

    def capture(features, params, *args, **kwargs):
        out = shipped(features, params, *args, **kwargs)
        seen.append((features, params, out))
        return out

    model.conv1x1_capsule_forward = capture
    try:
        net.forward(Tensor(images, dtype=net.config.dtype), mode=mode)
    finally:
        model.conv1x1_capsule_forward = shipped
    return seen


def oracle_problems(net: model.Network, images: np.ndarray, mode: str) -> list[str]:
    """Compare the routed outputs the network used with the naive-routing oracle.

    The shipped layer routes in Gram space at the network's dtype; the
    oracle rebuilds every map in f64. Errors are taken relative to the
    largest sum of absolute contributions |c_ij W_ij f_is|, and the
    tolerance is the summation bound I * eps of the dtype, with 8x headroom
    for the rounding the routing iterations add to the couplings. A forward
    that routes through no `conv1x1_capsule_forward` call is a problem too:
    the check would have compared nothing.
    """
    calls = routed_calls(net, images, mode)
    expected = sum(len(layers) for layers in net.blocks)
    if len(calls) != expected:
        return [f"saw {len(calls)} routed 1x1 calls in one forward, expected {expected}"]
    out = []
    for features, params, got in calls:
        B, I, _ = features.shape
        tol = 8.0 * I * np.finfo(features.data.dtype).eps
        for b in range(B):
            g, c = routing.route_conv1x1_naive(features.data[b], params)
            scale = (np.abs(c * params.weights.data).T @ np.abs(features.data[b].astype(np.float64))).max()
            err = float(np.abs(got.data[b] - g).max() / max(scale, np.finfo(np.float64).tiny))
            if not err <= tol:
                out.append(f"routed layer I={I} sample {b}: relative error {err:.3e} exceeds {tol:.3e}")
                break
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ops: Ops
    setup_times: list
    batch_images: int
    batch_s: list  # timed train steps or predict batches, each of `batch_images` images, in s
    op_ms: list  # timed primary operations, in ms
    loss: float
    primary: str  # operation kind that per-layer figures are normalized by
    macro_auc: float = 0.0


def run_train(w: Workload, seed: int, seconds: float, tracer=None) -> Outcome:
    ops = Ops(tracer)
    setups = Setups(w, seed, setup_train, tracer)
    st, spare = setups.st, setups.spare

    rng = np.random.default_rng(seed)
    losses = []

    def step(k):
        m = ops.run("train_step", lambda: train_step(st, k, rng), check_step, warmup=k == 0)
        losses.append(float("nan") if m is None else m.mean_loss)

    step(0)
    k, start = 1, time.perf_counter()
    while k < w.loss_steps or time.perf_counter() - start < seconds:
        step(k)
        k += 1
        setups.during(time.perf_counter() - start, seconds)
    setups.finish()

    def replay():
        rng = np.random.default_rng(seed)
        replayed = [train_step(spare, j, rng).mean_loss for j in range(REPLAY_STEPS)]
        if replayed != losses[:REPLAY_STEPS]:
            return [f"replayed losses {replayed} != timed-run losses {losses[:REPLAY_STEPS]}"]
        return []

    ops.check("determinism", replay)
    if not w.baseline:
        images = np.stack([training.standardize(img) for img, _ in spare.batches[0]])[:, None]
        ops.check("oracle", lambda: oracle_problems(spare.net, images, "train"))

    steps = ops.durations("train_step")
    return Outcome(
        ops=ops,
        setup_times=setups.times,
        batch_images=BATCH,
        batch_s=steps,
        op_ms=[1e3 * t for t in steps],
        loss=float(np.mean(losses[: w.loss_steps])),
        primary="train_step",
    )


def _cam(net, image, cls, size):
    heat = evaluation.grad_cam(net, image, cls)
    box, up = evaluation.heatmap_to_box(heat, (size, size), tau=TAU)
    return heat, box, up


def _report(scores, labels, loc_cases):
    _, macro = evaluation.auc_per_class(scores, labels)
    return macro, evaluation.localization_accuracy(loc_cases, tau=TAU)


def _check_report(result, n_cases) -> str | None:
    macro, rep = result
    if macro is None or not 0.0 <= macro <= 1.0:
        return f"macro AUC {macro!r} undefined or outside [0, 1]"
    if sum(rep.counts.values()) != n_cases:
        return f"localization report counts {sum(rep.counts.values())} cases, expected {n_cases}"
    if any(not 0.0 <= a <= 1.0 for per_t in rep.accuracies.values() for a in per_t.values()):
        return "localization accuracy outside [0, 1]"
    return None


def run_eval(w: Workload, seed: int, seconds: float, tracer=None) -> Outcome:
    ops = Ops(tracer)
    setups = Setups(w, seed, setup_eval, tracer)
    st, spare = setups.st, setups.spare
    if spare.pretrain_losses != st.pretrain_losses:
        ops.problems.append("determinism: set-up training losses differ between repetitions")

    net, size = st.net, w.input_size
    chunks = [slice(i, i + PREDICT_BATCH) for i in range(0, len(st.images), PREDICT_BATCH)]

    def predict(sl, warmup=False):
        n = len(st.images[sl])
        return ops.run(
            "predict_batch",
            lambda: net.predict(st.images[sl], batch_size=PREDICT_BATCH),
            lambda s: check_scores(s, n),
            warmup=warmup,
        )

    def cam(i, cls, warmup=False):
        return ops.run("cam_case", lambda: _cam(net, st.images[i, 0], cls, size), lambda r: check_cam(r, size), warmup=warmup)

    predict(chunks[0], warmup=True)
    cam(st.cases[0][0], st.cases[0][1], warmup=True)

    loss_cfg = training.LossConfig(lambda_plus=1.0, lambda_minus=0.05)
    first_scores = first_loss = macro = None
    passes, start = 0, time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        parts = [predict(sl) for sl in chunks]
        scores = None if any(p is None for p in parts) else np.concatenate(parts)
        loc_cases = []
        for i, cls, gt in st.cases:
            r = cam(i, cls)
            if r is not None:
                loc_cases.append((r[2], gt, cls))
        if scores is not None:
            rep = ops.run(
                "report",
                lambda: _report(scores, st.labels, loc_cases),
                lambda r: _check_report(r, len(loc_cases)),
                counted=False,
            )
            loss = float(training.margin_loss(Tensor(scores), st.labels, loss_cfg).data)
            if first_scores is None:
                first_scores, first_loss = scores, loss
                macro = rep[0] if rep is not None else 0.0
            elif not np.array_equal(scores, first_scores):
                ops.problems.append(f"determinism: predict scores of pass {passes} differ from pass 0")
        passes += 1
        setups.during(time.perf_counter() - start, seconds)
    setups.finish()

    ops.check("oracle", lambda: oracle_problems(spare.net, st.images[:BATCH], "eval"))
    return Outcome(
        ops=ops,
        setup_times=setups.times,
        batch_images=PREDICT_BATCH,
        batch_s=ops.durations("predict_batch"),
        op_ms=[1e3 * t for t in ops.durations("cam_case")],
        loss=first_loss if first_loss is not None else float("nan"),
        primary="cam_case",
        macro_auc=macro if macro is not None else 0.0,
    )


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> Outcome:
    w = WORKLOADS[name]
    return (run_train if w.kind == "train" else run_eval)(w, seed, seconds, tracer)
