"""Segmentation evaluation: confusion-matrix accumulation, the four
whole-image metrics (acc, cl_acc, miu, fwiu), binary positive-class stats,
and 11-point interpolated average precision.

All values are fractions in [0, 1]; rendering as percentages is the
caller's business. Classes absent from both truth and prediction are
skipped when averaging, not counted as zeros.

Average precision sorts the positive and the negative pixels' scores apart
(float32 stays float32) and evaluates precision and recall only at the
distinct positive scores, counting the pixels at or above each one through
a stable merge of the two sorted runs. Each precision is the same float64
division of the same two counts as in a sweep over every threshold, so the
result is exact. NaN scores rank below every number, one threshold per NaN
pixel in pixel order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError


class ConfusionMatrix:
    """counts[i, j] = pixels with ground truth i predicted j.

    Accumulation is order-independent and matrices merge by elementwise sum,
    so frame shards can be counted in parallel and combined.
    """

    def __init__(self, num_classes: int, counts: Optional[np.ndarray] = None):
        if num_classes < 2:
            raise ShapeError(f"need at least 2 classes, got {num_classes}")
        self.num_classes = num_classes
        if counts is None:
            self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        else:
            c = np.asarray(counts, dtype=np.int64)
            if c.shape != (num_classes, num_classes):
                raise ShapeError(
                    f"counts shape {c.shape} does not match "
                    f"{num_classes} classes"
                )
            if (c < 0).any():
                raise ValueError("confusion matrix counts must be nonnegative")
            self.counts = c.copy()

    def add(self, truth: np.ndarray, pred: np.ndarray) -> "ConfusionMatrix":
        """Accumulate one truth/prediction mask pair in place."""
        t = np.asarray(truth).ravel()
        p = np.asarray(pred).ravel()
        if t.shape != p.shape:
            raise ShapeError(
                f"truth shape {np.asarray(truth).shape} != "
                f"pred shape {np.asarray(pred).shape}"
            )
        n = self.num_classes
        for name, a in (("truth", t), ("pred", p)):
            if a.size and (a.min() < 0 or a.max() >= n):
                raise ValueError(
                    f"{name} labels must lie in [0, {n}), got range "
                    f"[{a.min()}, {a.max()}]"
                )
        self.counts += np.bincount(
            t.astype(np.int64) * n + p.astype(np.int64), minlength=n * n
        ).reshape(n, n)
        return self

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.num_classes != self.num_classes:
            raise ShapeError(
                f"cannot merge {self.num_classes}-class and "
                f"{other.num_classes}-class matrices"
            )
        return ConfusionMatrix(self.num_classes, self.counts + other.counts)

    def total(self) -> int:
        return int(self.counts.sum())

    def _require_pixels(self) -> None:
        if self.total() == 0:
            raise ValueError("metrics are undefined on an empty confusion matrix")

    def pixel_accuracy(self) -> float:
        self._require_pixels()
        return float(np.trace(self.counts) / self.counts.sum())

    def mean_class_accuracy(self) -> float:
        """Mean of per-class diagonal/row, skipping classes with empty rows."""
        self._require_pixels()
        rows = self.counts.sum(axis=1)
        present = rows > 0
        accs = np.diag(self.counts)[present] / rows[present]
        return float(accs.mean())

    def per_class_iou(self) -> list[Optional[float]]:
        """IU per class: diag / (row + col - diag). None for classes absent
        from both truth and prediction."""
        rows = self.counts.sum(axis=1)
        cols = self.counts.sum(axis=0)
        diag = np.diag(self.counts)
        out: list[Optional[float]] = []
        for i in range(self.num_classes):
            denom = rows[i] + cols[i] - diag[i]
            out.append(float(diag[i] / denom) if denom > 0 else None)
        return out

    def mean_iou(self) -> float:
        self._require_pixels()
        ius = [iu for iu in self.per_class_iou() if iu is not None]
        return float(np.mean(ius))

    def freq_weighted_iou(self) -> float:
        """Sum over classes of (class frequency in truth) * class IU."""
        self._require_pixels()
        rows = self.counts.sum(axis=1)
        total = rows.sum()
        ius = self.per_class_iou()
        acc = 0.0
        for i in range(self.num_classes):
            if rows[i] > 0:
                acc += (rows[i] / total) * ius[i]
        return float(acc)

    def binary_stats(self, positive_class: int) -> "BinaryStats":
        """Collapse to one-vs-rest around ``positive_class``.

        Empty denominators yield 0.0 and the stat's name in ``degenerate``.
        """
        if not 0 <= positive_class < self.num_classes:
            raise ValueError(
                f"positive_class {positive_class} out of range "
                f"[0, {self.num_classes})"
            )
        p = positive_class
        tp = int(self.counts[p, p])
        fn = int(self.counts[p].sum()) - tp
        fp = int(self.counts[:, p].sum()) - tp
        tn = self.total() - tp - fn - fp
        degenerate: list[str] = []

        def ratio(num: int, denom: int, name: str) -> float:
            if denom == 0:
                degenerate.append(name)
                return 0.0
            return num / denom

        precision = ratio(tp, tp + fp, "precision")
        recall = ratio(tp, tp + fn, "recall")
        f1 = ratio(2 * tp, 2 * tp + fp + fn, "f1")
        fpr = ratio(fp, fp + tn, "fpr")
        fnr = ratio(fn, fn + tp, "fnr")
        return BinaryStats(precision, recall, f1, fpr, fnr, tuple(degenerate))


@dataclass(frozen=True)
class BinaryStats:
    precision: float
    recall: float
    f1: float
    fpr: float
    fnr: float
    degenerate: tuple[str, ...] = ()


def average_precision(scores: np.ndarray, truth: np.ndarray,
                      positive_class: int = 1) -> float:
    """11-point interpolated average precision of the positive class.

    ``scores`` are per-pixel scores for the positive class, ``truth`` the
    label mask of the same shape. For each recall level r in {0, 0.1, ...,
    1.0}, take the maximum precision over all score thresholds achieving
    recall >= r (thresholding as score >= t), and average the 11 values.

    Every distinct score is a threshold. A NaN score ranks below every
    number, and each NaN pixel is a threshold of its own, taken in pixel
    order: the j-th NaN pixel adds itself and the j - 1 NaN pixels before it.

    Float32 scores are sorted as float32, which orders and ties them as
    float64 would; any other dtype is converted to float64. The positive and
    the negative scores are sorted apart, and precision and recall are
    computed only at the distinct positive scores and the positive NaN
    pixels: a threshold whose tie group holds only negatives has the recall
    of the group above it and no higher precision, so it is never a recall
    level's maximum. At a positive score u, tp counts the positives >= u and
    k all pixels >= u, read off a stable merge of the two sorted runs with
    positives first on ties; precision is tp / k in float64, as in a sweep
    over every threshold, so the result is exact.
    """
    s = np.asarray(scores)
    if s.dtype != np.float32:
        s = np.asarray(scores, dtype=np.float64)
    s = s.ravel()
    t = np.asarray(truth).ravel()
    if s.shape != t.shape:
        raise ShapeError(
            f"scores shape {np.asarray(scores).shape} != "
            f"truth shape {np.asarray(truth).shape}"
        )
    positive = (t == positive_class)
    n_pos = int(np.count_nonzero(positive))
    if n_pos == 0:
        raise ValueError(
            "average precision is undefined: no positive pixels in truth"
        )
    nan_pixels = np.flatnonzero(np.isnan(s))
    nan_positive = positive[nan_pixels]
    # np.sort places NaNs last; p and n count the numbers each run keeps.
    nan_pos = int(np.count_nonzero(nan_positive))
    p = n_pos - nan_pos
    n = s.size - n_pos - (nan_pixels.size - nan_pos)
    pos = np.compress(positive, s)
    pos.sort()
    pos = pos[:p]
    neg = np.compress(~positive, s)
    neg.sort()
    neg = neg[:n]
    # Rank of each positive in the merged ascending order; from the first
    # positive of a tie group on, every pixel is >= its score.
    rank = np.flatnonzero(
        np.argsort(np.concatenate((pos, neg)), kind="stable") < p)
    group_start = np.ones(p, dtype=bool)
    group_start[1:] = pos[1:] != pos[:-1]
    first = np.flatnonzero(group_start)[::-1]
    # Thresholds in order of rising tp: positive tie groups from the
    # highest score down, then each positive NaN pixel.
    nan_rank = np.flatnonzero(nan_positive) + 1
    tp = np.concatenate((p - first, p + np.arange(1, nan_rank.size + 1)),
                        dtype=np.float64)
    k = np.concatenate((p + n - rank[first], p + n + nan_rank),
                       dtype=np.float64)
    precisions = tp / k
    recalls = tp / n_pos
    # Recall rises along the thresholds and the last one reaches 1.0, so
    # the thresholds with recall >= r are a nonempty suffix.
    total = 0.0
    for i in range(11):
        level = i / 10.0
        total += float(precisions[np.searchsorted(recalls, level):].max())
    return total / 11.0


@dataclass(frozen=True)
class MetricsReport:
    """Every reported column; avg_precision is None when no scores exist."""

    acc: float
    cl_acc: float
    miu: float
    fwiu: float
    per_class_iu: tuple[Optional[float], ...]
    precision: float
    recall: float
    f1: float
    fpr: float
    fnr: float
    avg_precision: Optional[float]

    def to_dict(self) -> dict:
        return {
            "acc": self.acc,
            "cl_acc": self.cl_acc,
            "miu": self.miu,
            "fwiu": self.fwiu,
            "per_class_iu": list(self.per_class_iu),
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "fpr": self.fpr,
            "fnr": self.fnr,
            "avg_precision": self.avg_precision,
        }


def build_report(cm: ConfusionMatrix, positive_class: int = 1,
                 scores: Optional[np.ndarray] = None,
                 truth: Optional[np.ndarray] = None) -> MetricsReport:
    """Assemble the full report from an accumulated confusion matrix.

    ``scores``/``truth`` (pooled positive-class scores and labels over the
    evaluated pixels) enable the avg_precision column; both or neither.
    """
    if (scores is None) != (truth is None):
        raise ValueError("scores and truth must be supplied together")
    stats = cm.binary_stats(positive_class)
    ap = None
    if scores is not None:
        ap = average_precision(scores, truth, positive_class)
    return MetricsReport(
        acc=cm.pixel_accuracy(),
        cl_acc=cm.mean_class_accuracy(),
        miu=cm.mean_iou(),
        fwiu=cm.freq_weighted_iou(),
        per_class_iu=tuple(cm.per_class_iou()),
        precision=stats.precision,
        recall=stats.recall,
        f1=stats.f1,
        fpr=stats.fpr,
        fnr=stats.fnr,
        avg_precision=ap,
    )
