"""Segmentation evaluation: confusion-matrix accumulation, the four
whole-image metrics (acc, cl_acc, miu, fwiu), binary positive-class stats,
and 11-point interpolated average precision.

A confusion matrix accumulates either label maps (``add``) or two
(K, H, W) boolean blocks of one mask per class (``add_hits``), which is
how ``eval`` counts the blocks that ``palette_hits`` makes; up to 6
classes no label map is built.

All values are fractions in [0, 1]; rendering as percentages is the
caller's business. Classes absent from both truth and prediction are
skipped when averaging, not counted as zeros.

Average precision: ``split_scores`` splits pixels (of a frame, say, into
slices of one pooled buffer) into positive and negative scores, and
``pooled_average_precision`` sorts the two runs in place as two tasks of a
worker pool, then computes precision only in the blocks of positives where
it can set a recall level's maximum, with the same bits as a sweep over
every threshold. Every distinct score is a threshold, and a NaN score is
refused, so the result does not depend on pixel order.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import NumericError, ShapeError

# Largest class count whose hit masks ``ConfusionMatrix.add_hits`` counts
# pair by pair: at 256x512 the n² passes beat ``add`` of the two index maps
# up to 6 classes, tie at 7 and lose above.
_PAIRWISE_CLASSES = 6


def index_map(hits: np.ndarray) -> np.ndarray:
    """The map holding ``i`` at the pixels of ``hits[i]``, in the narrowest
    unsigned dtype that holds it.

    ``hits`` is a (K, H, W) boolean block, as ``media_io.palette_hits``
    returns it, and every pixel is in exactly one of its K masks.
    """
    dtype = np.min_scalar_type(len(hits) - 1)
    out = np.zeros(hits.shape[1:], dtype=dtype)
    term = np.empty_like(out)
    for i, mask in enumerate(hits[1:], 1):
        # A boolean mask read as 0/1 bytes needs no cast loop.
        np.multiply(mask.view(np.uint8), dtype.type(i), out=term)
        out += term
    return out


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
                raise NumericError(
                    "confusion matrix counts must be nonnegative")
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
            if not a.size:
                break
            if a.dtype.kind == "f":
                fractional = a[np.floor(a) != a]  # NaN included
                if fractional.size:
                    raise NumericError(
                        f"{name} labels must be integers, got {fractional[0]}")
            if a.min() < 0 or a.max() >= n:
                raise NumericError(
                    f"{name} labels must lie in [0, {n}), got range "
                    f"[{a.min()}, {a.max()}]"
                )
        bins = t.astype(np.int64, copy=False) * n
        np.add(bins, p.astype(np.int64, copy=False), out=bins)
        self.counts += np.bincount(bins, minlength=n * n).reshape(n, n)
        return self

    def add_hits(self, truth_hits: np.ndarray,
                 pred_hits: np.ndarray) -> "ConfusionMatrix":
        """Accumulate one mask pair given as two (K, H, W) boolean blocks,
        one mask per class, as ``media_io.palette_hits`` returns them, in
        place.

        Every pixel must be in exactly one mask of each block, as
        ``palette_hits`` guarantees. Up to ``_PAIRWISE_CLASSES`` classes,
        each count is one ``count_nonzero(t_i & p_j)``; above that, ``add``
        of the two ``index_map``s beats the n² passes.
        """
        n = self.num_classes
        t, p = np.asarray(truth_hits), np.asarray(pred_hits)
        if (t.ndim != 3 or t.shape != p.shape or len(t) != n
                or t.dtype != bool or p.dtype != bool):
            raise ShapeError(
                f"need two boolean ({n}, H, W) hit blocks of one shape, got "
                f"truth {t.dtype} {t.shape} and pred {p.dtype} {p.shape}"
            )
        if n <= _PAIRWISE_CLASSES:
            both = np.empty(t.shape[1:], dtype=bool)
            for i, t_i in enumerate(t):
                for j, p_j in enumerate(p):
                    self.counts[i, j] += np.count_nonzero(
                        np.logical_and(t_i, p_j, out=both))
            return self
        return self.add(index_map(t), index_map(p))

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
            raise NumericError(
                "metrics are undefined on an empty confusion matrix")

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
            raise NumericError(
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


def split_scores(scores: np.ndarray, positive: np.ndarray,
                 out: tuple = (None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Split pixels (a frame, say) for average precision: the flat
    ``scores`` of the flat boolean mask ``positive``, then the others.

    ``out`` may hold the two score buffers, sized to the positive and the
    negative pixel counts, so that a caller can split every frame into
    slices of one pooled buffer.
    """
    return (np.compress(positive, scores, out=out[0]),
            np.compress(~positive, scores, out=out[1]))


def average_precision(scores: np.ndarray, truth: np.ndarray,
                      positive_class: int = 1) -> float:
    """11-point interpolated average precision of the positive class.

    ``scores`` are per-pixel scores for the positive class, ``truth`` the
    label mask of the same shape. For each recall level r in {0, 0.1, ...,
    1.0}, take the maximum precision over all score thresholds achieving
    recall >= r (thresholding as score >= t), and average the 11 values.
    Every distinct score is a threshold; a NaN score raises NumericError.

    Float32 scores are kept as float32, which orders and ties them as
    float64 would; any other dtype is converted to float64. This is
    ``pooled_average_precision`` of the pair ``split_scores`` makes.
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
    return pooled_average_precision(*split_scores(s, t == positive_class))


# Positives per block: a block evaluated point by point searches a slice of
# the negatives that stays in cache.
_AP_BLOCK = 1 << 12

_RECALL_LEVELS = np.arange(11) / 10.0


def pooled_average_precision(pos: np.ndarray, neg: np.ndarray,
                             pool_map=map) -> float:
    """Average precision (see :func:`average_precision`) of the pixels whose
    scores are ``pos`` (positive pixels) and ``neg`` (the others), as
    ``split_scores`` splits them.

    Both arrays are sorted in place, so they must be writable. ``pool_map``
    runs the two sorts as independent tasks; a thread pool's ``map`` runs
    them on two workers. Every count is an exact integer and every
    precision the same float64 division, so the result is the same bits
    whatever the order of the scores and the map.

    Every positive gives a point: tp, the positives from it up, and k, all
    pixels from it up, counting the negatives that tie with it. At the
    first positive of a tie group these are the counts of the threshold at
    its score. The other points never raise a recall level's maximum: a
    later positive of a tie group has tp and k smaller by the same d, so a
    lower recall and a precision (tp - d) / (k - d) <= tp / k, and a
    threshold whose tie group holds only negatives has the recall of the
    group above it and no higher precision.

    The positives, in ascending order, are cut into blocks of at most
    ``_AP_BLOCK`` whose edges include every recall level's cut point, and
    each block's two end points are evaluated. Along a block tp falls and
    the count of negatives not below shrinks, so no point in it has a
    precision above its bound: its first point's tp over that tp plus its
    last point's negatives. Float64 division of integer counts is
    monotone, so a block whose bound is no greater than the best end point
    of the smallest level holding it cannot change any level's maximum;
    every other block is evaluated point by point.
    """
    if not pos.size:
        raise NumericError(
            "average precision is undefined: no positive pixels in truth"
        )
    list(pool_map(np.ndarray.sort, (pos, neg)))  # builtin map is lazy
    # np.sort places NaNs last, so a run holds one only if it ends in one.
    nans = sum(run.size - int(np.searchsorted(run, run[-1]))
               for run in (pos, neg) if run.size and np.isnan(run[-1]))
    if nans:
        raise NumericError(
            f"average precision is undefined on NaN scores ({nans} found)")
    # Left to right: from Python 3.12 on, sum() of floats is compensated.
    total = 0.0
    for level_max in _block_maxima(pos, neg):
        total += float(level_max)
    return total / 11.0


def _block_maxima(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Per recall level, the maximum precision over the points of the sorted
    runs ``pos`` and ``neg``.

    The positive at index i has tp = p - i and k = tp + c_i, where c_i
    counts the negatives not below it. Level j holds the points i < r_j, and
    each block of positives either has its maximum computed point by point
    or is skipped by the bound rule of :func:`pooled_average_precision`.
    """
    p, n = pos.size, neg.size
    reach = _reach_counts(p)
    edges = np.union1d(np.arange(0, p, _AP_BLOCK), reach)
    first, stop = edges[:-1], edges[1:]
    c_first, c_last = np.split(
        n - np.searchsorted(neg, pos[np.concatenate((first, stop - 1))]), 2)
    tp_first, tp_last = p - first, p - stop + 1
    best = np.maximum(tp_first / (tp_first + c_first),
                      tp_last / (tp_last + c_last))
    bound = tp_first / (tp_first + c_last)
    # Level j holds blocks [0, blocks[j]), so the smallest level holding
    # block t ends at the least of those counts above t.
    blocks = np.searchsorted(first, reach)
    ends = np.unique(blocks)
    level_end = ends[np.searchsorted(ends, np.arange(first.size), "right")]
    floor = np.maximum.accumulate(best)[level_end - 1]
    for t in np.flatnonzero(bound > floor):
        # Below each of the block's positives lie all of neg[:lo] and
        # some of neg[lo:hi].
        lo, hi = n - c_first[t], n - c_last[t]
        tp = np.arange(tp_first[t], tp_last[t] - 1, -1)
        k = tp + (c_first[t] - np.searchsorted(neg[lo:hi],
                                               pos[first[t]:stop[t]]))
        best[t] = (tp / k).max()
    return np.maximum.accumulate(best)[blocks - 1]


def _reach_counts(p: int) -> np.ndarray:
    """Per recall level, how many of tp = p, p - 1, ..., 1 have a recall
    tp / p, one float64 division, that reaches it; tp = p reaches every
    level, so each count is at least one."""
    counts = []
    for level in _RECALL_LEVELS:
        # The least tp that reaches the level, from an estimate within one.
        tp = max(1, math.ceil(level * p))
        while tp > 1 and (tp - 1) / p >= level:
            tp -= 1
        while tp / p < level:
            tp += 1
        counts.append(p - tp + 1)
    return np.array(counts)


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
        return {**asdict(self), "per_class_iu": list(self.per_class_iu)}


def build_report(cm: ConfusionMatrix, positive_class: int = 1,
                 scores: Optional[np.ndarray] = None,
                 truth: Optional[np.ndarray] = None) -> MetricsReport:
    """Assemble the full report from an accumulated confusion matrix.

    ``scores``/``truth`` (pooled positive-class scores and labels over the
    evaluated pixels) enable the avg_precision column; both or neither.
    """
    if (scores is None) != (truth is None):
        raise NumericError("scores and truth must be supplied together")
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
