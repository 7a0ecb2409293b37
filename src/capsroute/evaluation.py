"""Multi-label AUC, Grad-CAM heatmaps, thresholded regions, and IoBB

localization scoring.

Grad-CAM here targets a class score (an output-capsule norm) and comes
from the score tail only: an untaped eval pass up to the head conv
(`Network.pre_pool`) gives the pre-pool activations, and only the tail
from there to the scores (pool, primary capsules, FC routing, norm) is
taped and differentiated. Each pre-pool activation is weighted by the
score's gradient at its own position, and the map is the ReLU of the
weighted channel sum, max-normalized to [0, 1]. Where the gradient is
spatially constant this is Grad-CAM's spatial-mean channel weighting;
the routed head has no global pooling, so its gradient differs per
primary-capsule cell, and averaging it would add each channel's spatial
mean as a constant floor under the map (the position-wise form is
HiResCAM's). "Important region" extraction keeps pixels above tau on the
normalized map and boxes the largest 4-connected component. IoBB
divides the intersection area by the detected box's area.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.stats import rankdata

from .data import resize_bilinear
from .tensor import Tape, Tensor, backward, tsum

__all__ = [
    "BBox",
    "EvalError",
    "Heatmap",
    "LocalizationReport",
    "auc",
    "auc_per_class",
    "grad_cam",
    "heatmap_to_box",
    "iobb",
    "localization_accuracy",
    "region_from_threshold",
]

IOBB_THRESHOLDS = (0.1, 0.25, 0.5)


class EvalError(ValueError):
    """Invalid evaluation request (bad class index, malformed scores, ...)."""


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def auc(scores, labels):
    """Probability a random positive outscores a random negative, ties 0.5.

    Computed by rank summation (average ranks), which matches exhaustive
    pair counting exactly. Returns None when either class is absent.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise EvalError(f"scores {scores.shape} and labels {labels.shape} must be matching vectors")
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = rankdata(scores)
    wins = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return wins / (n_pos * n_neg)


def auc_per_class(scores: np.ndarray, labels: np.ndarray):
    """Per-class AUC over (N, C) score/label matrices plus the macro mean.

    Degenerate classes (all-positive or all-negative) report None and are
    excluded from the macro average.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise EvalError(f"scores {scores.shape} and labels {labels.shape} must be matching (N, C)")
    per_class = [auc(scores[:, c], labels[:, c]) for c in range(scores.shape[1])]
    defined = [a for a in per_class if a is not None]
    macro = float(np.mean(defined)) if defined else None
    return per_class, macro


# ---------------------------------------------------------------------------
# Grad-CAM
# ---------------------------------------------------------------------------


@dataclass
class Heatmap:
    raw: np.ndarray  # non-negative activations at the pre-pool resolution
    normalized: np.ndarray  # raw / max, all zeros when raw is all zero
    class_idx: int


def grad_cam(net, image: np.ndarray, class_idx: int) -> Heatmap:
    """Gradient-weighted class activation map for one prepared image.

    `image` is a single network-ready (H, W) or (1, H, W) input (already
    standardized). An untaped eval `net.pre_pool` yields the pre-pool
    activations, so the tail runs once; they become the leaf of a tape
    that runs only `net.head_tail` and back-propagates the one-hot class
    score, so no gradient reaches the stem, dense blocks or head conv. The
    target is the class score itself, so a class whose capsule is exactly
    zero yields an all-zero map.
    """
    img = np.asarray(image)
    if img.ndim == 2:
        img = img[None]
    x = img[None]  # (1, 1, H, W)
    if class_idx < 0 or class_idx >= net.config.n_classes:
        raise EvalError(f"class index {class_idx} out of range for {net.config.n_classes} classes")
    act = Tensor(net.pre_pool(Tensor(x, dtype=net.config.dtype), mode="eval").data, requires_grad=True)
    with Tape() as tape:
        scores = net.head_tail(act)
        onehot = np.zeros(scores.shape)
        onehot[0, class_idx] = 1.0
        target = tsum(scores * Tensor(onehot, dtype=net.config.dtype))
        backward(tape, target)
    grads = act.grad if act.grad is not None else np.zeros_like(act.data)
    raw, normalized = cam_from_activations(act.data[0], grads[0])
    return Heatmap(raw=raw, normalized=normalized, class_idx=class_idx)


def cam_from_activations(acts: np.ndarray, grads: np.ndarray):
    """ReLU of the gradient-weighted channel sum, plus its max-normalized

    copy. Each activation A_k(p) is weighted by its own gradient g_k(p), so
    the map is ReLU(sum_k g_k(p) A_k(p)); a spatially constant gradient
    gives the spatial-mean (Grad-CAM) weighting, and a position with zero
    gradient stays zero.
    """
    raw = np.maximum((grads * acts).sum(axis=0), 0.0).astype(np.float64)
    peak = raw.max()
    normalized = raw / peak if peak > 0 else np.zeros_like(raw)
    return raw, normalized


# ---------------------------------------------------------------------------
# Regions and boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BBox:
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise EvalError(f"box extents must be >= 1, got {self.w}x{self.h}")

    @property
    def area(self) -> int:
        return self.w * self.h


def region_from_threshold(normalized: np.ndarray, tau: float = 0.1):
    """Mask pixels above tau and box the largest 4-connected component.

    Returns (BBox or None, mask); an empty mask means no detection.
    """
    heat = np.asarray(normalized)
    mask = heat > tau
    if not mask.any():
        return None, mask
    labeled, n = ndimage.label(mask)  # default structure = 4-connectivity
    sizes = ndimage.sum_labels(np.ones_like(labeled), labeled, index=range(1, n + 1))
    ys, xs = np.nonzero(labeled == (int(np.argmax(sizes)) + 1))
    box = BBox(x=int(xs.min()), y=int(ys.min()), w=int(xs.max() - xs.min() + 1), h=int(ys.max() - ys.min() + 1))
    return box, mask


def iobb(detected, gt: BBox) -> float:
    """Intersection area over the detected box's area; 0 for no detection."""
    if detected is None:
        return 0.0
    ix = max(0, min(detected.x + detected.w, gt.x + gt.w) - max(detected.x, gt.x))
    iy = max(0, min(detected.y + detected.h, gt.y + gt.h) - max(detected.y, gt.y))
    return (ix * iy) / detected.area


def heatmap_to_box(heat: Heatmap, target: tuple[int, int], tau: float = 0.1):
    """Upsample to image coordinates, re-normalize, extract the region box."""
    up = resize_bilinear(heat.normalized, target)
    peak = up.max()
    if peak > 0:
        up = up / peak
    box, _ = region_from_threshold(up, tau=tau)
    return box, up


# ---------------------------------------------------------------------------
# Localization accuracy report
# ---------------------------------------------------------------------------


@dataclass
class LocalizationReport:
    thresholds: tuple[float, ...]
    accuracies: dict[int, dict[float, float]] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)

    def rows(self):
        """(class, threshold, accuracy, n_cases) rows in class order."""
        for cls in sorted(self.accuracies):
            for t in self.thresholds:
                yield cls, t, self.accuracies[cls][t], self.counts[cls]


def localization_accuracy(cases, thresholds=IOBB_THRESHOLDS, tau: float = 0.1) -> LocalizationReport:
    """Score (normalized image-resolution heatmap, gt BBox, class) cases.

    Accuracy per class per threshold T is the fraction of cases with
    IoBB >= T (boundary inclusive); no-detection cases score 0.
    """
    hits: dict[int, dict[float, int]] = {}
    counts: dict[int, int] = {}
    for heat, gt, cls in cases:
        box, _ = region_from_threshold(np.asarray(heat), tau=tau)
        ratio = iobb(box, gt)
        counts[cls] = counts.get(cls, 0) + 1
        per_t = hits.setdefault(cls, {t: 0 for t in thresholds})
        for t in thresholds:
            if ratio >= t:
                per_t[t] += 1
    report = LocalizationReport(thresholds=tuple(thresholds))
    for cls, n in counts.items():
        report.counts[cls] = n
        report.accuracies[cls] = {t: hits[cls][t] / n for t in thresholds}
    return report
