"""capsroute benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train_desk --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/` next
to this directory, never from an installed copy. BLAS runs on one thread.
With `--trace 0` the result carries the end-to-end metrics, measured with
no wrapper in place. With `--trace 1` every other operation runs under the
span tracer of `tracer.py`, and the result carries the per-layer metrics:
self times and computed operation counts per traced train step (train
workloads) or per traced CAM case (eval_desk, where the traced predict
batches and reports are included in the totals), the share of operation
time the spans cover, and the tracing overhead. A layer the workload never
calls reads 0. Spans are written to `.perfbench/` at the root.

The last line of standard output is the result:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
Lines before it list the machine, every metric with its unit, and any
failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1

CONV_KERNELS = (7, 1, 3, 9)
ROUTED_WIDTHS = (16, 24, 32, 40)
TIMED_LAYERS = (
    *[f"conv.conv2d.k{k}" for k in CONV_KERNELS],
    "conv.pool2d.max",
    "conv.pool2d.avg",
    "conv.batchnorm",
    *[f"routing.conv1x1.i{i}" for i in ROUTED_WIDTHS],
    "routing.route_fc",
    "tensor.einsum2",
)
CONV_COUNTS = (("fwd_mflop", "Mflop_computed"), ("bwd_mflop", "Mflop_computed"), ("fwd_mb", "MB_computed"))
ROUTED_COUNTS = (
    ("gram_mflop", "Mflop_computed"),
    ("gram_mb", "MB_computed"),
    ("combine_mflop", "Mflop_computed"),
    ("combine_mb", "MB_computed"),
)


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "loadavg_at_start": os.getloadavg(),
    }


def end_to_end_metrics(out) -> dict[str, tuple[float, str]]:
    """Operation times are run means. Every operation of a workload does the

    same work, and other tenants of a shared machine slow all of them in
    phases of tens of seconds. On a 2-vCPU Xeon VM the spread (interquartile
    range over median) across seeds of the run mean was 0.09-0.20. The run
    median and low percentiles were steadier on some workloads and less
    steady on others, up to 0.31.
    """
    return {
        "setup_s": (statistics.median(out.setup_times), "s"),
        "img_per_s": (out.batch_images / statistics.fmean(out.batch_s), "images/s"),
        "op_ms.mean": (statistics.fmean(out.op_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer_metrics(out, tracer) -> dict[str, tuple[float, str]]:
    traced = out.ops.durations(out.primary, traced=True)
    untraced = out.ops.durations(out.primary, traced=False)
    n = max(1, len(traced))

    def ms(*spans):
        return sum(tracer.self_ns.get(s, 0) for s in spans) / 1e6 / n, "ms"

    m = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.fwd_ms"] = ms(f"{layer}.fwd")
        m[f"{layer}.bwd_ms"] = ms(f"{layer}.bwd")
    m["tensor.backward.self_ms"] = ms("tensor.backward")
    m["tensor.tape_records"] = (tracer.counts.get("tensor.tape_records", 0.0) / n, "count")
    m["model.forward.self_ms"] = ms("model.forward")
    m["training.batch_prep_ms"] = ms("training.batch_prep")
    m["training.margin_loss_ms"] = ms("training.margin_loss.fwd", "training.margin_loss.bwd")
    m["training.adam_step_ms"] = ms("training.adam_step")
    m["training.loss"] = (out.loss, "margin_loss")
    for fn in ("grad_cam", "heatmap_to_box", "auc_per_class", "localization_accuracy"):
        m[f"evaluation.{fn}_ms"] = ms(f"evaluation.{fn}")
    m["evaluation.grad_cam.bwd_wasted_share"] = (
        tracer.cam_wasted_ns / tracer.cam_backward_ns if tracer.cam_backward_ns else 0.0,
        "fraction",
    )
    m["evaluation.macro_auc"] = (out.macro_auc, "AUC")

    gen = {}
    op_ns = 0
    for _, _, op, name, start, end in tracer.spans:
        if name == "data.generate_synthetic":
            gen[op] = gen.get(op, 0) + end - start
        elif name.startswith("op."):
            op_ns += end - start
    op_self = sum(v for k, v in tracer.self_ns.items() if k.startswith("op."))
    m["data.generate_synthetic_s"] = (statistics.median(gen.values()) / 1e9 if gen else 0.0, "s")
    m["trace.coverage_share"] = (1.0 - op_self / op_ns if op_ns else 0.0, "fraction")
    m["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0 if traced and untraced else 0.0,
        "fraction",
    )
    computed = [(f"conv.conv2d.k{k}.{c}", u) for k in CONV_KERNELS for c, u in CONV_COUNTS]
    computed += [(f"routing.conv1x1.i{i}.{c}", u) for i in ROUTED_WIDTHS for c, u in ROUTED_COUNTS]
    for name, unit in computed:
        m[name] = (tracer.counts.get(name, 0.0) / n, unit)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "capsroute" / "__init__.py").is_file():
        print(f"perfbench: no capsroute sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))

    import capsroute

    if Path(capsroute.__file__).resolve().parent != SRC / "capsroute":
        print(f"perfbench: imported capsroute from {capsroute.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = machine_record()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    out = workloads.run_workload(args.workload, args.seed, args.seconds, tracer)

    if tracer is None:
        values = end_to_end_metrics(out)
    else:
        values = per_layer_metrics(out, tracer)
        tracer.write_spans(ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.spans.jsonl")
    metrics = {name: {"value": float(value), "unit": unit} for name, (value, unit) in values.items()}
    non_finite = [name for name, m in metrics.items() if m["value"] != m["value"] or abs(m["value"]) == float("inf")]
    problems = out.ops.problems + [f"metric {name} is not finite" for name in non_finite]
    for name in non_finite:
        metrics[name]["value"] = -1.0  # JSON has no NaN; the run is marked incorrect

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine))
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"operations attempted {out.ops.attempted}, failed {out.ops.failed}")
    for p in problems[:20]:
        print(f"FAILED CHECK {p}")
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks")
    result = {
        "correct": not problems,
        "attempted": out.ops.attempted,
        "failed": out.ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
