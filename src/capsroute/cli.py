"""Command-line entry point: train, eval, gradcam, bench, synth, selftest.

`selftest` runs the suites of `capsroute.checks`, the same checks and
inputs as acceptance criteria 1, 3 and 5 plus the IoBB geometry cases.

Configuration is flat `key = value` text with `#` comments; precedence is
command-line flags over config file over defaults. Exit codes: 0 success,
1 usage error, 2 validation or data error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .checks import SUITES
from .data import (
    Checkpoint,
    DataError,
    load_checkpoint,
    load_manifest,
    load_pgm,
    resize_bilinear,
    rng_state_token,
    save_checkpoint,
    synth_dataset,
    write_pgm,
)
from .evaluation import (
    BBox,
    EvalError,
    auc_per_class,
    grad_cam,
    heatmap_to_box,
    localization_accuracy,
)
from .model import ConfigError, Network, NetworkConfig, build_network
from .routing import (
    Conv1x1CapsuleParams,
    RoutingError,
    conv1x1_capsule_forward,
    route_conv1x1_naive,
)
from .tensor import Tensor
from .training import (
    AdamState,
    AugmentConfig,
    CurriculumSchedule,
    LossConfig,
    TrainingError,
    standardize,
    train_epoch,
)

# ---------------------------------------------------------------------------
# Flat key=value configuration
# ---------------------------------------------------------------------------


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _choice(*options):
    def parse(text):
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text

    return parse


def _ranged(kind, lo, hi=float("inf")):
    def parse(text):
        v = kind(text)
        if not (lo <= v <= hi):
            raise ValueError(f"value {v} outside [{lo}, {hi}]")
        return v

    parse.__name__ = f"{kind.__name__} in [{lo}, {hi}]"  # argparse's error names the range
    return parse


# key -> (parser, default); the registry is the single source of truth for
# what may appear in config files, --set overrides, and checkpoint echoes
CONFIG_REGISTRY: dict = {
    # architecture
    "input_size": (_ranged(int, 24, 4096), 64),
    "down_c1": (_ranged(int, 1, 1024), 16),
    "down_c2": (_ranged(int, 1, 1024), 16),
    "n_dense_blocks": (_ranged(int, 1, 16), 1),
    "layers_per_block": (_ranged(int, 1, 64), 4),
    "growth_rate": (_ranged(int, 1, 256), 8),
    "bottleneck_width": (_ranged(int, 1, 16), 4),
    "head_channels": (_ranged(int, 8, 1024), 32),
    "routing_iters": (_ranged(int, 0, 16), 3),  # 0: the unrouted baseline
    "caps_dim_class": (_ranged(int, 1, 64), 16),
    "n_classes": (_ranged(int, 1, 64), 4),
    "grad_mode": (_choice("none", "last"), "last"),
    "dtype": (_choice("f32", "f64"), "f32"),
    # optimization
    "alpha": (_ranged(float, 0.0, 1.0), 0.001),
    "beta1": (_ranged(float, 0.0, 1.0), 0.9),
    "beta2": (_ranged(float, 0.0, 1.0), 0.999),
    "eps": (_ranged(float, 0.0, 1.0), 1e-8),
    "batch_size": (_ranged(int, 1, 4096), 16),
    # loss and curriculum
    "m_plus": (_ranged(float, 0.0, 1.0), 0.9),
    "m_minus": (_ranged(float, 0.0, 1.0), 0.1),
    "switch_epoch": (_ranged(int, 0, 10**6), 50),
    # augmentation
    "augment": (_bool, True),
    "flip_p": (_ranged(float, 0.0, 1.0), 0.5),
    "brightness_lo": (_ranged(float, -1.0, 1.0), -0.2),
    "brightness_hi": (_ranged(float, -1.0, 1.0), 0.2),
    "contrast_lo": (_ranged(float, 0.0, 10.0), 0.8),
    "contrast_hi": (_ranged(float, 0.0, 10.0), 1.25),
}


class RunConfig:
    """Validated key=value configuration over CONFIG_REGISTRY."""

    def __init__(self, values: dict | None = None):
        self.values = {k: default for k, (_, default) in CONFIG_REGISTRY.items()}
        for k, v in (values or {}).items():
            self.set(k, v)

    def set(self, key: str, text: str) -> None:
        if key not in CONFIG_REGISTRY:
            raise DataError(f"unknown config key {key!r}")
        parser, _ = CONFIG_REGISTRY[key]
        try:
            self.values[key] = parser(str(text))
        except ValueError as e:
            raise DataError(f"config key {key}: {e}")

    def __getitem__(self, key: str):
        return self.values[key]

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        cfg, first = cls(), {}
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: cannot be read as text: {e}")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in first:
                raise DataError(f"{path}:{lineno}: config key {key!r} already set at line {first[key]}")
            first[key] = lineno
            cfg.set(key, value)
        return cfg

    def network_config(self) -> NetworkConfig:
        v = self.values
        return NetworkConfig(
            input_size=v["input_size"],
            down_channels=(v["down_c1"], v["down_c2"]),
            n_dense_blocks=v["n_dense_blocks"],
            layers_per_block=v["layers_per_block"],
            growth_rate=v["growth_rate"],
            bottleneck_width=v["bottleneck_width"],
            head_channels=v["head_channels"],
            routing_iters=v["routing_iters"],
            caps_dim_class=v["caps_dim_class"],
            n_classes=v["n_classes"],
            grad_mode=v["grad_mode"],
            dtype=v["dtype"],
        )

    def echo(self) -> dict[str, str]:
        return {k: str(v) for k, v in self.values.items()}


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _num(x) -> str:
    """Full-precision, numpy-free decimal rendering for CSV cells."""
    return repr(float(x))


def _load_split(manifest_path, images_root, input_size: int, n_classes: int):
    """Images in [0, 1] at network size, (N, C) labels, manifest entries."""
    entries = load_manifest(manifest_path)
    if not entries:
        raise DataError(f"{manifest_path}: the manifest lists no images")
    root = Path(images_root)
    images, labels = [], np.zeros((len(entries), n_classes))
    resized = 0
    for i, e in enumerate(entries):
        img = load_pgm(root / e.path)
        if img.shape != (input_size, input_size):
            img = np.clip(resize_bilinear(img, (input_size, input_size)), 0.0, 1.0)
            resized += 1
        images.append(img)
        for c in (*e.labels, *(box[0] for box in e.boxes)):
            if not 0 <= c < n_classes:
                raise DataError(f"{e.path}: label {c} out of range for {n_classes} classes")
        labels[i, list(e.labels)] = 1.0
    if resized:
        print(f"note: resized {resized} image(s) to {input_size}x{input_size}", file=sys.stderr)
    return images, labels, entries


def _checkpoint_from(net: Network, cfg: RunConfig, adam: AdamState, rng) -> Checkpoint:
    """`net`'s state and `adam`'s moments under `cfg`'s echo, which must
    describe `net`: `_restore_network` rebuilds the net from the echo alone,
    so a layer routed at other than `routing_iters` (a mixed arm) is refused."""
    if cfg.network_config() != net.config:
        raise ConfigError(f"config echo {cfg.network_config()} does not describe the network {net.config}")
    iters = {lay.name: lay.route.iterations for layers in net.blocks for lay in layers}
    iters["fc"] = net.fc.iterations
    mixed = sorted(name for name, r in iters.items() if r != net.config.routing_iters)
    if mixed:
        raise ConfigError(
            f"layer(s) {', '.join(mixed)} route at other than routing_iters={net.config.routing_iters}, "
            "which the checkpoint cannot record"
        )
    tensors = dict(net.state_arrays())
    for name, m in adam.m.items():
        tensors[f"adam.m.{name}"] = m
        tensors[f"adam.v.{name}"] = adam.v[name]
    tensors["adam.t"] = np.array(float(adam.t))
    return Checkpoint(config=cfg.echo(), tensors=tensors, rng_state=rng_state_token(rng))


def _restore_network(ckpt: Checkpoint):
    """Rebuild the architecture from the config echo and load its state.

    `train` echoes every registry key, so a missing key rejects the
    checkpoint instead of loading a default model. So does a key the
    registry lacks: older checkpoints carry a `baseline` line, and
    skipping it would load an unrouted net as routed. The state must name
    exactly the arrays of `Network.state_arrays`, dense running stats as
    one `dense.running_*` per channel; anything else raises `ConfigError`
    before the network is written. Adam state is not read.
    """
    missing = [k for k in CONFIG_REGISTRY if k not in ckpt.config]
    if missing:
        raise DataError(f"checkpoint config echo lacks key(s) {', '.join(missing)}")
    try:
        cfg = RunConfig(ckpt.config)
    except DataError as e:
        raise DataError(f"checkpoint config echo rejected: {e}")
    net = build_network(cfg.network_config(), seed=0)
    net.load_state_arrays({k: v for k, v in ckpt.tensors.items() if not k.startswith("adam.")})
    return net, cfg


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for item in args.set or []:
        key, _, value = item.partition("=")
        cfg.set(key.strip(), value.strip())
    net = build_network(cfg.network_config(), args.seed)
    images, labels, _ = _load_split(args.manifest, args.images_root, cfg["input_size"], cfg["n_classes"])
    dataset = list(zip(images, labels))

    schedule = CurriculumSchedule.from_labels(labels, switch_epoch=cfg["switch_epoch"])
    loss_cfg = LossConfig(m_plus=cfg["m_plus"], m_minus=cfg["m_minus"])
    adam = AdamState(alpha=cfg["alpha"], beta1=cfg["beta1"], beta2=cfg["beta2"], eps=cfg["eps"])
    aug = (
        AugmentConfig(
            flip_p=cfg["flip_p"],
            brightness=(cfg["brightness_lo"], cfg["brightness_hi"]),
            contrast=(cfg["contrast_lo"], cfg["contrast_hi"]),
        )
        if cfg["augment"]
        else None
    )
    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    if out.is_dir():
        raise IsADirectoryError(f"--out {out} is a directory; give the checkpoint's file name")
    out.parent.mkdir(parents=True, exist_ok=True)

    rows = ["epoch,lambda_plus,lambda_minus,mean_loss"]
    for epoch in range(args.epochs):
        m = train_epoch(net, dataset, loss_cfg, schedule, adam, epoch, cfg["batch_size"], rng, aug)
        rows.append(f"{m.epoch},{_num(m.lambda_plus)},{_num(m.lambda_minus)},{_num(m.mean_loss)}")
        print(
            f"epoch {epoch}: loss {m.mean_loss:.5f} "
            f"(pos {m.pos_score_mean:.3f}, neg {m.neg_score_mean:.3f})"
        )

    save_checkpoint(out, _checkpoint_from(net, cfg, adam, rng))
    metrics_path = out.with_suffix(out.suffix + ".metrics.csv")
    metrics_path.write_text("\n".join(rows) + "\n")
    print(f"wrote {out} and {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    net, cfg = _restore_network(load_checkpoint(args.ckpt))
    images, labels, entries = _load_split(args.manifest, args.images_root, cfg["input_size"], cfg["n_classes"])
    prepared = np.stack([standardize(img) for img in images])[:, None]
    scores = net.predict(prepared, batch_size=cfg["batch_size"])

    per_class, macro = auc_per_class(scores, labels)
    rows = ["class,auc,n_pos,n_neg"]
    for c, a in enumerate(per_class):
        n_pos = int(labels[:, c].sum())
        rows.append(f"{c},{'' if a is None else _num(a)},{n_pos},{labels.shape[0] - n_pos}")
    rows.append(f"macro,{'' if macro is None else _num(macro)},,")
    report = Path(args.report)
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text("\n".join(rows) + "\n")
    print(f"macro AUC: {'n/a' if macro is None else f'{macro:.4f}'} -> {report}")

    boxed = [(i, e) for i, e in enumerate(entries) if e.boxes]
    if boxed:
        cases = []
        size = cfg["input_size"]
        for i, e in boxed:
            src_h, src_w = images[i].shape
            sy, sx = size / src_h, size / src_w
            for cls, x, y, w, h in e.boxes:
                heat = grad_cam(net, prepared[i, 0], cls)
                _, up = heatmap_to_box(heat, (size, size), tau=args.tau)
                gt = BBox(
                    x=int(round(x * sx)),
                    y=int(round(y * sy)),
                    w=max(1, int(round(w * sx))),
                    h=max(1, int(round(h * sy))),
                )
                cases.append((up, gt, cls))
        rep = localization_accuracy(cases, tau=args.tau)
        loc_rows = ["class,t_iobb,accuracy,n_cases"]
        for cls, t, acc, n in rep.rows():
            loc_rows.append(f"{cls},{_num(t)},{_num(acc)},{n}")
        loc_path = report.with_suffix(report.suffix + ".loc.csv")
        loc_path.write_text("\n".join(loc_rows) + "\n")
        print(f"localization report ({len(cases)} cases) -> {loc_path}")
    return 0


def cmd_gradcam(args) -> int:
    net, cfg = _restore_network(load_checkpoint(args.ckpt))
    img = load_pgm(args.image)
    size = cfg["input_size"]
    if img.shape != (size, size):
        print(f"note: resizing {img.shape[1]}x{img.shape[0]} image to {size}x{size}", file=sys.stderr)
        img = np.clip(resize_bilinear(img, (size, size)), 0.0, 1.0)
    heat = grad_cam(net, standardize(img), args.class_idx)
    box, up = heatmap_to_box(heat, (size, size), tau=args.tau)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(up, out)
    box_path = out.with_suffix(out.suffix + ".box.txt")
    if box is None:
        box_path.write_text("no detection\n")
        print("no detection")
    else:
        box_path.write_text(f"{box.x} {box.y} {box.w} {box.h}\n")
        print(f"detected box: {box.x} {box.y} {box.w} {box.h}")
    print(f"wrote {out} and {box_path}")
    return 0


def bench_routing(spatial: int, in_maps: int, out_maps: int, iters: int, repeat: int, seed: int = 0):
    """Median wall time (ns) per mode for one routed-layer forward.

    plain: one unrouted 1x1 combination. naive: full-map routing. kernel:
    the shipped routed layer, `conv1x1_capsule_forward` with grad_mode
    "none": Gram build + iterations + a single final combination; at r=1
    the couplings are uniform and it builds no Gram matrix.
    Feature maps are scaled to unit norm like the batch-normalized inputs
    the layer sees in practice; unnormalized maps at large S saturate the
    coupling softmax into subnormal territory and time the FPU's slow path
    instead of the algorithm.

    The modes are timed in `repeat` interleaved rounds, each timed call
    preceded by an untimed one, so every mode runs warm and all three see
    the same stretch of machine state.
    """
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((in_maps, spatial)) / np.sqrt(spatial)
    W = rng.standard_normal((in_maps, out_maps))
    params = Conv1x1CapsuleParams(W, iterations=iters)

    def run_plain():
        W.T @ F

    def run_naive():
        route_conv1x1_naive(F, params)

    def run_kernel():
        conv1x1_capsule_forward(Tensor(F), params, grad_mode="none")

    modes = (("plain", run_plain), ("naive", run_naive), ("kernel", run_kernel))
    times = {mode: [] for mode, _ in modes}
    for _ in range(repeat):
        for mode, fn in modes:
            fn()  # untimed warm-up call
            t0 = time.perf_counter_ns()
            fn()
            times[mode].append(time.perf_counter_ns() - t0)
    return {mode: int(np.median(t)) for mode, t in times.items()}


def cmd_bench(args) -> int:
    results = bench_routing(args.spatial, args.in_maps, args.out_maps, args.iters, args.repeat)
    lines = ["mode,S,I,J,r,median_ns"]
    for mode in ("plain", "naive", "kernel"):
        lines.append(f"{mode},{args.spatial},{args.in_maps},{args.out_maps},{args.iters},{results[mode]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_synth(args) -> int:
    train_m, test_m = synth_dataset(
        args.out_dir, args.n_train, args.n_test, args.size, n_classes=args.n_classes, seed=args.seed
    )
    print(f"wrote {args.n_train + args.n_test} images, manifests {train_m} and {test_m}")
    return 0


def cmd_selftest(args) -> int:
    failed = False
    for name, suite in SUITES.items():
        cases, failures = suite()
        print(f"{name}: {cases - len(failures)}/{cases} passed")
        for f in failures:
            print(f"FAIL {name}: {f}", file=sys.stderr)
        failed = failed or bool(failures)
    if failed:
        return 2
    print("selftest: all suites passed")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="capsroute", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and write checkpoint + metrics CSV")
    t.add_argument("--manifest", required=True)
    t.add_argument("--images-root", required=True)
    t.add_argument("--config", default=None, help="flat key=value config file")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--seed", type=_ranged(int, 0), default=0)
    t.add_argument("--epochs", type=_ranged(int, 0), default=10)
    t.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="report per-class AUC (and localization when boxes exist)")
    e.add_argument("--manifest", required=True)
    e.add_argument("--images-root", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--report", required=True, help="output CSV path")
    e.add_argument("--tau", type=_ranged(float, 0.0, 1.0), default=0.1)
    e.set_defaults(fn=cmd_eval)

    g = sub.add_parser("gradcam", help="write a heatmap PGM and detected box for one image")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--image", required=True)
    g.add_argument("--class", dest="class_idx", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--tau", type=_ranged(float, 0.0, 1.0), default=0.1)
    g.set_defaults(fn=cmd_gradcam)

    b = sub.add_parser("bench", help="time plain vs naive vs kernel routing")
    b.add_argument("--spatial", type=_ranged(int, 1), default=4096, help="feature map length S")
    b.add_argument("--in-maps", type=_ranged(int, 1), default=32)
    b.add_argument("--out-maps", type=_ranged(int, 1), default=32)
    b.add_argument("--iters", type=_ranged(int, 1), default=3)
    b.add_argument("--repeat", type=_ranged(int, 1), default=9)
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bench)

    s = sub.add_parser("synth", help="generate the synthetic multi-label glyph dataset")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--n-train", type=_ranged(int, 0), default=2000)
    s.add_argument("--n-test", type=_ranged(int, 0), default=500)
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--n-classes", type=int, default=4)
    s.add_argument("--seed", type=_ranged(int, 0), default=0)
    s.set_defaults(fn=cmd_synth)

    st = sub.add_parser("selftest", help="run the routing-equivalence, gradient, AUC and IoBB checks")
    st.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (DataError, ConfigError, TrainingError, EvalError, RoutingError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
