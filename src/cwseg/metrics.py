"""Segmentation evaluation: confusion-matrix accumulation, the four
whole-image metrics (acc, cl_acc, miu, fwiu), binary positive-class stats,
and 11-point interpolated average precision.

All values are fractions in [0, 1]; rendering as percentages is the
caller's business. Classes absent from both truth and prediction are
skipped when averaging, not counted as zeros.

Average precision is computed from shards of pixels, such as frames:
``split_scores`` splits each shard, which a worker pool can do, and
``pooled_average_precision`` combines the shards on every worker of that
pool, with the same bits as a sweep over every threshold.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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


class ScoreSplit(NamedTuple):
    """One shard of pixels (a frame, say) split for average precision.

    ``positive`` and ``negative`` hold the scores of the shard's positive and
    negative pixels, NaN scores included; ``nan_positive`` flags which of the
    shard's NaN pixels are positive, in pixel order.
    """

    positive: np.ndarray
    negative: np.ndarray
    nan_positive: np.ndarray


def split_scores(scores: np.ndarray, positive: np.ndarray,
                 out: tuple = (None, None)) -> ScoreSplit:
    """Split flat ``scores`` by the flat boolean mask ``positive``.

    ``out`` may hold the two score buffers, sized to the positive and the
    negative pixel counts, so that a caller can allocate them before it
    reads the scores.
    """
    return ScoreSplit(np.compress(positive, scores, out=out[0]),
                      np.compress(~positive, scores, out=out[1]),
                      positive[np.isnan(scores)])


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

    Float32 scores are kept as float32, which orders and ties them as
    float64 would; any other dtype is converted to float64. This is
    ``pooled_average_precision`` of the one shard ``split_scores`` makes.
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
    return pooled_average_precision([split_scores(s, t == positive_class)])


# Pixels per merge range: a range's sort indices stay in cache, and ranges
# run on every worker of the caller's pool.
_MERGE_RANGE = 1 << 18

_RECALL_LEVELS = np.arange(11) / 10.0


def pooled_average_precision(splits: list, pool_map=map) -> float:
    """Average precision (see :func:`average_precision`) of the pixels of
    every ``ScoreSplit`` in ``splits``, pooled in order.

    ``splits`` is emptied, so each shard's arrays are freed once they are
    pooled. ``pool_map`` runs the independent tasks: the two sorts, then one
    task per merge range; a thread pool's ``map`` runs them on its workers.
    Every count is an exact integer and every precision the same float64
    division, so the result is the same bits whatever the shards, the ranges
    and the map.

    The positive and the negative scores are sorted apart and merged,
    stably with positives first on ties. Every positive gives a point: tp,
    the positives from it up, and k, all pixels from it up. At the first
    positive of a tie group these are the counts of the threshold at its
    score, and each positive NaN pixel gives its threshold's counts, in
    pixel order below every number. The other points never raise a recall
    level's maximum: a later positive of a tie group has tp and k smaller by
    the same d, so a lower recall and a precision (tp - d) / (k - d) <=
    tp / k, and a threshold whose tie group holds only negatives has the
    recall of the group above it and no higher precision. The merge is cut
    into ranges of the merged order; each range gives its maximum precision
    per recall level, and the largest over the ranges is the level's value.
    """
    n_pos = sum(s.positive.size for s in splits)
    if n_pos == 0:
        raise ValueError(
            "average precision is undefined: no positive pixels in truth"
        )
    n_neg = sum(s.negative.size for s in splits)
    nan_positive = np.concatenate([s.nan_positive for s in splits])
    runs = ([s.positive for s in splits], [s.negative for s in splits])
    splits.clear()
    pos, neg = pool_map(_sorted_run, runs)
    # np.sort places NaNs last; p and n count the numbers each run keeps.
    nan_pos = int(np.count_nonzero(nan_positive))
    p = n_pos - nan_pos
    n = n_neg - (nan_positive.size - nan_pos)
    pos, neg = pos[:p], neg[:n]
    cuts = [_merge_cut(pos, neg, t) for t in range(0, p + n, _MERGE_RANGE)]
    cuts.append((p, n))

    def range_maxima(j):
        (m0, c0), (m1, c1) = cuts[j], cuts[j + 1]
        # Rank of each positive in the range's merged ascending order.
        rank = np.flatnonzero(np.argsort(
            np.concatenate((pos[m0:m1], neg[c0:c1])), kind="stable") < m1 - m0)
        return _level_maxima(np.arange(p - m0, p - m1, -1),
                             p + n - m0 - c0 - rank, n_pos)

    maxima = list(pool_map(range_maxima, range(len(cuts) - 1)))
    # Each positive NaN pixel is a threshold below every number.
    nan_rank = np.flatnonzero(nan_positive)[::-1] + 1
    maxima.append(_level_maxima(np.arange(p + nan_rank.size, p, -1),
                                p + n + nan_rank, n_pos))
    total = 0.0
    for level_max in np.max(maxima, axis=0):
        total += float(level_max)
    return total / 11.0


def _sorted_run(parts: list) -> np.ndarray:
    """Concatenate ``parts``, empty the list and sort the run in place."""
    run = np.concatenate(parts)
    parts.clear()
    run.sort()
    return run


def _merge_cut(pos: np.ndarray, neg: np.ndarray, t: int) -> tuple[int, int]:
    """(m, t - m): the first t pixels of the stable merge of the sorted runs
    ``pos`` and ``neg``, positives first on ties, are pos[:m] and neg[:t - m].
    """
    lo, hi = max(0, t - neg.size), min(t, pos.size)
    while lo < hi:
        m = (lo + hi + 1) // 2
        # pos[m - 1] precedes neg[t - m] exactly when it is not greater.
        if pos[m - 1] <= neg[t - m]:
            lo = m
        else:
            hi = m - 1
    return lo, t - lo


def _level_maxima(tp: np.ndarray, k: np.ndarray, n_pos: int) -> np.ndarray:
    """Per recall level, the maximum precision tp / k over the points whose
    recall tp / n_pos reaches it, or -inf where none does; tp falls along
    the arrays, and every ratio is one float64 division of integer counts."""
    precision = tp / k
    reached = tp.size - np.searchsorted(tp[::-1] / n_pos, _RECALL_LEVELS)
    return np.array([precision[:r].max() if r else -np.inf for r in reached])


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
