"""Span tracing of capsroute from outside the package.

`Tracer.install()` replaces the public functions that `model`, `training`,
`evaluation` and `data` look up at call time with thin wrappers. Each
wrapper opens a span named after its layer (conv2d by kernel size, pool2d
by mode, routed 1x1 layers by input width I) and re-wraps the
vector-Jacobian products its call appended to the active `Tape`, so the
backward pass is attributed to the layer that recorded it. `uninstall()`
restores the originals, which lets the benchmark alternate traced and
untraced operations and measure the tracing overhead.

Spans stay in memory as (id, parent, op, name, start_ns, end_ns) and are
written out once, by `write_spans`, when the run ends. Self time (span
duration minus the time its child spans cover) is accumulated per name.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from capsroute import data, evaluation, model, tensor, training

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None  # identifier shared by every span of one operation
        self.cam_wasted_ns = 0
        self.cam_backward_ns = 0
        self._stack: list[list] = []  # [span id, name, start, child ns]
        self._next_id = 0
        self._saved: list[tuple] = []
        self._patches: list[tuple] = []
        self._last_taps: dict = {}
        self._in_cam = False

    def clear_totals(self) -> None:
        """Forget self times and counts; recorded spans are kept."""
        self.self_ns.clear()
        self.counts.clear()
        self.cam_wasted_ns = 0
        self.cam_backward_ns = 0

    # -- spans ------------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _now(), 0])

    def exit(self) -> None:
        end = _now()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self.self_ns[name] += dur - child
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, self.op, name, start, end))

    def _span(self, name, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def _timed_vjp(self, vjp, name):
        def run(g):
            self.enter(name)
            try:
                return vjp(g)
            finally:
                self.exit()

        return run

    def _layer_call(self, label, fn, *args, **kwargs):
        """Span `label.fwd` around the call; the VJPs it records become

        `label.bwd` spans when the tape is replayed.
        """
        tape = tensor.active_tape()
        first = len(tape.records) if tape is not None else 0
        out = self._span(label + ".fwd", fn, *args, **kwargs)
        if tape is not None:
            bwd = label + ".bwd"
            for i in range(first, len(tape.records)):
                rec_out, inputs, vjp = tape.records[i]
                tape.records[i] = (rec_out, inputs, self._timed_vjp(vjp, bwd))
        return out

    # -- computed operation counts ------------------------------------------------

    def _count_conv(self, x, kernel, out) -> None:
        B, C, H, W = x.shape
        O, _, k, _ = kernel.shape
        _, _, oH, oW = out.shape
        item = x.data.itemsize
        gemm = 2.0 * B * oH * oW * O * C * k * k
        pre = f"conv.conv2d.k{k}."
        self.counts[pre + "fwd_mflop"] += gemm / 1e6
        self.counts[pre + "fwd_mb"] += item * (B * C * H * W + O * C * k * k + B * O * oH * oW) / 1e6
        if tensor.active_tape() is not None:
            n_grads = int(kernel.requires_grad) + int(x.requires_grad)
            self.counts[pre + "bwd_mflop"] += n_grads * gemm / 1e6

    def _count_routed(self, features, params) -> None:
        B, I, S = features.shape
        J = params.n_out
        item = features.data.itemsize
        pre = f"routing.conv1x1.i{I}."
        if params.iterations > 1:  # r == 1 routes with uniform couplings, no Gram matrix
            self.counts[pre + "gram_mflop"] += 2.0 * B * I * I * S / 1e6
            self.counts[pre + "gram_mb"] += item * (B * I * S + B * I * I) / 1e6
        self.counts[pre + "combine_mflop"] += 2.0 * B * I * J * S / 1e6
        self.counts[pre + "combine_mb"] += item * (B * I * J + B * I * S + B * J * S) / 1e6

    # -- wrappers -------------------------------------------------------------------

    def _wrappers(self):
        orig_conv2d = model.conv2d
        orig_pool2d = model.pool2d
        orig_batchnorm = model.batchnorm
        orig_routed = model.conv1x1_capsule_forward
        orig_route_fc = model.route_fc
        orig_einsum2 = model.einsum2
        orig_forward = model.Network.forward
        orig_augment = training.augment
        orig_standardize = training.standardize
        orig_margin_loss = training.margin_loss
        orig_adam_step = training.adam_step
        orig_backward = tensor.backward
        orig_grad_cam = evaluation.grad_cam

        def conv2d(x, kernel, *args, **kwargs):
            out = self._layer_call(f"conv.conv2d.k{kernel.shape[-1]}", orig_conv2d, x, kernel, *args, **kwargs)
            self._count_conv(x, kernel, out)
            return out

        def pool2d(x, mode, *args, **kwargs):
            return self._layer_call(f"conv.pool2d.{mode}", orig_pool2d, x, mode, *args, **kwargs)

        def batchnorm(*args, **kwargs):
            return self._layer_call("conv.batchnorm", orig_batchnorm, *args, **kwargs)

        def conv1x1_capsule_forward(features, params, *args, **kwargs):
            self._count_routed(features, params)
            return self._layer_call(f"routing.conv1x1.i{features.shape[1]}", orig_routed, features, params, *args, **kwargs)

        def route_fc(*args, **kwargs):
            return self._layer_call("routing.route_fc", orig_route_fc, *args, **kwargs)

        def einsum2(*args, **kwargs):
            return self._layer_call("tensor.einsum2", orig_einsum2, *args, **kwargs)

        def forward(net, *args, **kwargs):
            out = self._span("model.forward", orig_forward, net, *args, **kwargs)
            self._last_taps = out[1]
            return out

        def augment(*args, **kwargs):
            return self._span("training.batch_prep", orig_augment, *args, **kwargs)

        def standardize(*args, **kwargs):
            return self._span("training.batch_prep", orig_standardize, *args, **kwargs)

        def margin_loss(*args, **kwargs):
            return self._layer_call("training.margin_loss", orig_margin_loss, *args, **kwargs)

        def adam_step(*args, **kwargs):
            return self._span("training.adam_step", orig_adam_step, *args, **kwargs)

        def backward(tape, loss):
            self.counts["tensor.tape_records"] += len(tape.records)
            tap = self._last_taps.get("pre_pool_activations") if self._in_cam else None
            if tap is not None:
                self._mark_cam_waste(tape, tap)
            start = _now()
            self._span("tensor.backward", orig_backward, tape, loss)
            if tap is not None:
                self.cam_backward_ns += _now() - start

        def grad_cam(*args, **kwargs):
            self._in_cam = True
            try:
                return self._span("evaluation.grad_cam", orig_grad_cam, *args, **kwargs)
            finally:
                self._in_cam = False

        def spanned(name, fn):
            def call(*args, **kwargs):
                return self._span(name, fn, *args, **kwargs)

            return call

        return [
            (model, "conv2d", conv2d),
            (model, "pool2d", pool2d),
            (model, "batchnorm", batchnorm),
            (model, "conv1x1_capsule_forward", conv1x1_capsule_forward),
            (model, "route_fc", route_fc),
            (model, "einsum2", einsum2),
            (model.Network, "forward", forward),
            (training, "augment", augment),
            (training, "standardize", standardize),
            (training, "margin_loss", margin_loss),
            (training, "adam_step", adam_step),
            (training, "backward", backward),
            (evaluation, "backward", backward),
            (evaluation, "grad_cam", grad_cam),
            (evaluation, "heatmap_to_box", spanned("evaluation.heatmap_to_box", evaluation.heatmap_to_box)),
            (evaluation, "auc_per_class", spanned("evaluation.auc_per_class", evaluation.auc_per_class)),
            (
                evaluation,
                "localization_accuracy",
                spanned("evaluation.localization_accuracy", evaluation.localization_accuracy),
            ),
            (data, "generate_synthetic", spanned("data.generate_synthetic", data.generate_synthetic)),
        ]

    def _mark_cam_waste(self, tape, tap) -> None:
        """Time the VJPs of records at or before the tapped activation:

        Grad-CAM reads only the tap's gradient, so their work is discarded.
        """
        tap_index = next((i for i, rec in enumerate(tape.records) if rec[0] is tap), -1)

        def wasted(vjp):
            def run(g):
                start = _now()
                try:
                    return vjp(g)
                finally:
                    self.cam_wasted_ns += _now() - start

            return run

        for i in range(tap_index + 1):
            out, inputs, vjp = tape.records[i]
            tape.records[i] = (out, inputs, wasted(vjp))

    def install(self) -> None:
        if self._saved:
            return
        if not self._patches:
            self._patches = self._wrappers()
        for owner, name, wrapper in self._patches:
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    # -- output -------------------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span_id, parent, op, name, start, end in self.spans:
                f.write(
                    json.dumps({"id": span_id, "parent": parent, "op": op, "name": name, "start_ns": start, "end_ns": end})
                    + "\n"
                )
