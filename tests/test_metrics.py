import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwseg.metrics as metrics
from cwseg import (
    ConfusionMatrix,
    NumericError,
    ShapeError,
    average_precision,
    build_report,
    palette_hits,
)
from cwseg.metrics import pooled_average_precision, split_scores
from oracles import (
    average_precision_argsort,
    average_precision_oracle,
    confusion_add_astype,
    decode_gt_mask_int64,
    segmentation_metrics_oracle,
)


def cm_from(counts):
    counts = np.asarray(counts)
    return ConfusionMatrix(counts.shape[0], counts)


def random_mask_pair(rng, max_side=16):
    n_classes = int(rng.integers(2, 5))
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    truth = rng.integers(0, n_classes, (h, w))
    pred = rng.integers(0, n_classes, (h, w))
    return truth, pred, n_classes


# ---------------------------------------------------------------------------
# hand-derived examples


def test_hand_worked_two_class_matrix():
    cm = cm_from([[3, 1], [2, 4]])
    assert cm.pixel_accuracy() == pytest.approx(0.7, abs=1e-12)
    assert cm.mean_class_accuracy() == pytest.approx((3 / 4 + 4 / 6) / 2, abs=1e-12)
    assert cm.mean_iou() == pytest.approx((3 / 6 + 4 / 7) / 2, abs=1e-12)
    assert cm.freq_weighted_iou() == pytest.approx(
        0.4 * 0.5 + 0.6 * (4 / 7), abs=1e-12
    )


def test_perfect_and_all_wrong_matrices():
    perfect = cm_from([[5, 0], [0, 7]])
    assert perfect.pixel_accuracy() == 1.0
    assert perfect.mean_class_accuracy() == 1.0
    assert perfect.mean_iou() == 1.0
    assert perfect.freq_weighted_iou() == 1.0
    wrong = cm_from([[0, 3], [4, 0]])
    assert wrong.pixel_accuracy() == 0.0
    assert wrong.mean_iou() == 0.0


def test_hand_worked_binary_stats():
    cm = cm_from([[6, 1], [2, 3]])
    stats = cm.binary_stats(positive_class=1)
    assert stats.precision == pytest.approx(0.75, abs=1e-12)
    assert stats.recall == pytest.approx(0.6, abs=1e-12)
    assert stats.f1 == pytest.approx(2 / 3, abs=1e-12)
    assert stats.fpr == pytest.approx(1 / 7, abs=1e-12)
    assert stats.fnr == pytest.approx(0.4, abs=1e-12)
    assert stats.degenerate == ()

    perfect = cm_from([[6, 0], [0, 4]]).binary_stats(1)
    assert (perfect.precision, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0)
    assert (perfect.fpr, perfect.fnr) == (0.0, 0.0)


def test_degenerate_denominators_are_flagged():
    # nothing predicted positive, nothing truly positive
    cm = cm_from([[9, 0], [0, 0]])
    stats = cm.binary_stats(1)
    assert stats.precision == 0.0 and "precision" in stats.degenerate
    assert stats.recall == 0.0 and "recall" in stats.degenerate
    assert stats.f1 == 0.0 and "f1" in stats.degenerate
    assert stats.fnr == 0.0 and "fnr" in stats.degenerate
    assert "fpr" not in stats.degenerate


def test_empty_matrix_rejected():
    cm = ConfusionMatrix(2)
    for metric in (cm.pixel_accuracy, cm.mean_class_accuracy, cm.mean_iou,
                   cm.freq_weighted_iou):
        with pytest.raises(ValueError, match="empty"):
            metric()


def test_skips_classes_absent_everywhere():
    # class 2 never appears in truth or prediction
    cm = cm_from([[3, 1, 0], [2, 4, 0], [0, 0, 0]])
    two_class = cm_from([[3, 1], [2, 4]])
    assert cm.mean_iou() == pytest.approx(two_class.mean_iou(), abs=1e-12)
    assert cm.per_class_iou()[2] is None
    assert cm.mean_class_accuracy() == pytest.approx(
        two_class.mean_class_accuracy(), abs=1e-12
    )


# ---------------------------------------------------------------------------
# accumulation


def test_accumulate_simple_cases():
    cm = ConfusionMatrix(2)
    cm.add(np.zeros((2, 2), int), np.zeros((2, 2), int))
    assert cm.counts.tolist() == [[4, 0], [0, 0]]
    cm2 = ConfusionMatrix(2).add(np.zeros(5, int), np.ones(5, int))
    assert cm2.counts.tolist() == [[0, 5], [0, 0]]


def test_accumulate_additivity():
    rng = np.random.default_rng(5)
    t1, p1 = rng.integers(0, 3, 40), rng.integers(0, 3, 40)
    t2, p2 = rng.integers(0, 3, 25), rng.integers(0, 3, 25)
    split = ConfusionMatrix(3).add(t1, p1).add(t2, p2)
    joined = ConfusionMatrix(3).add(
        np.concatenate([t1, t2]), np.concatenate([p1, p2])
    )
    assert np.array_equal(split.counts, joined.counts)


def test_accumulate_validation():
    cm = ConfusionMatrix(2)
    with pytest.raises(ShapeError):
        cm.add(np.zeros((2, 2), int), np.zeros((2, 3), int))
    with pytest.raises(ValueError, match="labels"):
        cm.add(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError, match="labels"):
        cm.add(np.array([0, 1]), np.array([-1, 1]))


@pytest.mark.parametrize("n, truth, message", [
    (2, [0.0, np.nan], "truth labels must be integers, got nan"),
    (2, [0.5, 1.5], "truth labels must be integers, got 0.5"),
    (3, [0.0, np.nan], "truth labels must be integers, got nan"),
])
def test_add_refuses_nonintegral_labels(n, truth, message):
    cm = ConfusionMatrix(n)
    with pytest.raises(NumericError) as exc:
        cm.add(np.array(truth), np.array([0, 1]))
    assert str(exc.value) == message
    assert cm.total() == 0
    with pytest.raises(NumericError, match="pred labels must be integers"):
        cm.add(np.array([0, 1]), np.array(truth))


def _outcome(add):
    try:
        return add(), None
    except ValueError as exc:
        return None, exc


@settings(max_examples=300)
@given(data=st.data())
def test_add_equals_astype_version(data):
    """Counts and error messages equal the frozen int64-copy version for
    labels of several integer widths, bools and integral floats, in range
    and out of it on either side, in either array. A NaN or fractional
    label is refused instead, unless an earlier array is out of range."""
    n = data.draw(st.integers(2, 5))
    size = data.draw(st.integers(0, 30))

    def labels():
        dtype = data.draw(st.sampled_from(
            [np.int64, np.int32, np.int8, np.uint8, np.bool_, np.float64]))
        if dtype is np.float64:
            values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, n - 0.5, n, np.nan])
        elif dtype is np.bool_:
            values = st.booleans()
        else:
            values = st.integers(max(-2, int(np.iinfo(dtype).min)), n + 1)
        return np.array(data.draw(st.lists(values, min_size=size,
                                           max_size=size)), dtype=dtype)

    truth, pred = labels(), labels()
    with np.errstate(invalid="ignore"):  # NaN cast to int64
        want, want_exc = _outcome(lambda: confusion_add_astype(
            np.zeros((n, n), np.int64), truth, pred))
        got, got_exc = _outcome(lambda: ConfusionMatrix(n).add(truth,
                                                                pred).counts)
    for name, a in (("truth", truth), ("pred", pred)):
        bad = [v for v in a.tolist() if not float(v).is_integer()]
        if bad:
            assert isinstance(got_exc, NumericError)
            assert str(got_exc) == f"{name} labels must be integers, got {bad[0]}"
            return
        if a.size and (a.min() < 0 or a.max() >= n):
            break
    if want_exc is None:
        assert got_exc is None and np.array_equal(got, want)
    else:
        assert str(got_exc) == str(want_exc)


# Both sides of add_hits' rule: pairwise counts up to 6 classes, ``add``
# of the two index maps above.
_CLASSES = st.integers(2, 8)


@settings(max_examples=300)
@given(data=st.data())
def test_add_hits_equals_add_of_labels(data):
    """One hit mask per class, each pixel in exactly one, counts as
    ``add`` of the labels the masks came from."""
    n = data.draw(_CLASSES)
    h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    labels = st.lists(st.integers(0, n - 1), min_size=h * w, max_size=h * w)
    truth = np.array(data.draw(labels)).reshape(h, w)
    pred = np.array(data.draw(labels)).reshape(h, w)
    want = ConfusionMatrix(n).add(truth, pred).counts
    got = ConfusionMatrix(n).add_hits([truth == i for i in range(n)],
                                      [pred == j for j in range(n)]).counts
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


@st.composite
def _palette_mask_pair(draw):
    """A palette of 2 to 8 colours and two (3, H, W) images of its colours,
    scaled as ``read_image`` scales them."""
    byte = st.integers(0, 255)
    palette = draw(st.lists(st.tuples(byte, byte, byte), min_size=2,
                            max_size=8, unique=True))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lut = np.array(palette, dtype=np.float32) / np.float32(255.0)
    images = []
    for _ in range(2):
        labels = draw(st.lists(st.integers(0, len(palette) - 1),
                               min_size=h * w, max_size=h * w))
        images.append(np.ascontiguousarray(
            lut[np.array(labels).reshape(h, w)].transpose(2, 0, 1)))
    return tuple(palette), images


@settings(max_examples=200)
@given(case=_palette_mask_pair())
def test_add_hits_of_palette_hits_equals_add_of_int64_decode(case):
    palette, (a, b) = case
    n = len(palette)
    want = ConfusionMatrix(n).add(decode_gt_mask_int64(a, palette),
                                  decode_gt_mask_int64(b, palette)).counts
    got = ConfusionMatrix(n).add_hits(palette_hits(a, palette),
                                      palette_hits(b, palette)).counts
    assert got.tolist() == want.tolist()


def test_add_hits_validation():
    masks = [np.zeros((2, 2), bool), np.ones((2, 2), bool)]
    with pytest.raises(ShapeError, match="need 2 masks per side"):
        ConfusionMatrix(2).add_hits(masks, masks[:1])
    with pytest.raises(ShapeError, match="differ in shape"):
        ConfusionMatrix(2).add_hits(masks, [np.zeros((2, 3), bool)] * 2)
    with pytest.raises(ShapeError, match="differ in shape"):
        ConfusionMatrix(2).add_hits([masks[0], np.ones(4, bool)], masks)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_merge_is_associative_and_commutative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a, b, c = (ConfusionMatrix(n, rng.integers(0, 50, (n, n))) for _ in range(3))
    assert np.array_equal((a + b).counts, (b + a).counts)
    assert np.array_equal(((a + b) + c).counts, (a + (b + c)).counts)
    # merging never mutates the operands
    assert a.counts.sum() < (a + b).counts.sum() or b.total() == 0


def test_merge_equals_serial_accumulation():
    rng = np.random.default_rng(8)
    pairs = [(rng.integers(0, 3, 30), rng.integers(0, 3, 30)) for _ in range(4)]
    serial = ConfusionMatrix(3)
    for t, p in pairs:
        serial.add(t, p)
    shards = [ConfusionMatrix(3).add(t, p) for t, p in pairs]
    merged = shards[0]
    for s in shards[1:]:
        merged = merged + s
    assert np.array_equal(serial.counts, merged.counts)


def test_pixel_order_invariance():
    rng = np.random.default_rng(13)
    truth = rng.integers(0, 3, 100)
    pred = rng.integers(0, 3, 100)
    perm = rng.permutation(100)
    a = ConfusionMatrix(3).add(truth, pred)
    b = ConfusionMatrix(3).add(truth[perm], pred[perm])
    assert np.array_equal(a.counts, b.counts)


# ---------------------------------------------------------------------------
# oracle agreement


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_metrics_match_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    truth, pred, n_classes = random_mask_pair(rng)
    cm = ConfusionMatrix(n_classes).add(truth, pred)
    want = segmentation_metrics_oracle(truth, pred, n_classes, positive_class=1)
    assert cm.pixel_accuracy() == pytest.approx(want["acc"], abs=1e-9)
    assert cm.mean_class_accuracy() == pytest.approx(want["cl_acc"], abs=1e-9)
    assert cm.mean_iou() == pytest.approx(want["miu"], abs=1e-9)
    assert cm.freq_weighted_iou() == pytest.approx(want["fwiu"], abs=1e-9)
    stats = cm.binary_stats(1)
    for name in ("precision", "recall", "f1", "fpr", "fnr"):
        if want[name] is None:
            assert name in stats.degenerate
            assert getattr(stats, name) == 0.0
        else:
            assert name not in stats.degenerate
            assert getattr(stats, name) == pytest.approx(want[name], abs=1e-9)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_binary_identities(seed):
    rng = np.random.default_rng(seed)
    cm = ConfusionMatrix(2, rng.integers(0, 100, (2, 2)))
    if cm.total() == 0:
        return
    stats = cm.binary_stats(1)
    tp, fn = cm.counts[1, 1], cm.counts[1, 0]
    fp, tn = cm.counts[0, 1], cm.counts[0, 0]
    if tp + fn > 0:
        assert stats.recall + stats.fnr == pytest.approx(1.0, abs=1e-12)
    if fp + tn > 0:
        specificity = tn / (fp + tn)
        assert stats.fpr == pytest.approx(1.0 - specificity, abs=1e-12)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_fwiu_is_convex_combination(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    cm = ConfusionMatrix(n, rng.integers(0, 30, (n, n)))
    if cm.total() == 0:
        return
    ius = [iu for iu, row in zip(cm.per_class_iou(), cm.counts.sum(axis=1))
           if row > 0]
    assert all(iu is not None and 0.0 <= iu <= 1.0 for iu in ius)
    fw = cm.freq_weighted_iou()
    assert min(ius) - 1e-12 <= fw <= max(ius) + 1e-12


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    truth = np.array([1, 1, 0, 0])
    assert average_precision(scores, truth) == pytest.approx(1.0, abs=1e-12)


def test_ap_no_positives_rejected():
    with pytest.raises(ValueError, match="no positive"):
        average_precision(np.array([0.5, 0.4]), np.array([0, 0]))


def test_ap_anti_separation_matches_oracle():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    truth = np.array([1, 1, 0, 0])
    got = average_precision(scores, truth)
    want = average_precision_oracle(scores, truth)
    assert got == pytest.approx(want, abs=1e-12)
    assert got < 1.0


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), tie_heavy=st.booleans())
def test_ap_matches_exhaustive_oracle(seed, tie_heavy):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    truth = rng.integers(0, 2, n)
    if truth.sum() == 0:
        truth[int(rng.integers(0, n))] = 1
    scores = rng.random(n)
    if tie_heavy:
        scores = np.round(scores * 4) / 4  # force repeated values
    got = average_precision(scores, truth)
    want = average_precision_oracle(scores, truth)
    assert got == pytest.approx(want, abs=1e-9)


# Tie-heavy values, both zeros and both infinities.
_AP_SPECIAL = [0.0, -0.0, 0.25, -0.25, 1.0, np.inf, -np.inf]


@st.composite
def _ap_cases(draw, max_size=40):
    n = draw(st.integers(1, max_size))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int64]))
    if dtype is np.int64:
        values = st.integers(-3, 3)
    else:
        width = 32 if dtype is np.float32 else 64
        values = st.one_of(st.sampled_from(_AP_SPECIAL),
                           st.floats(width=width, allow_nan=False))
    scores = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
    positive_class = draw(st.integers(0, 2))
    if draw(st.booleans()):
        truth = np.full(n, positive_class)
    else:
        truth = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        truth[draw(st.integers(0, n - 1))] = positive_class
    return scores, truth, positive_class


@settings(max_examples=300)
@given(case=_ap_cases())
def test_ap_equals_stable_argsort_version(case):
    scores, truth, positive_class = case
    assert (average_precision(scores, truth, positive_class)
            == average_precision_argsort(scores, truth, positive_class))


@pytest.fixture(scope="module")
def pool_maps():
    with ThreadPoolExecutor(2) as two, ThreadPoolExecutor(4) as four:
        yield {"builtin": map, "2 workers": two.map, "4 workers": four.map}


@settings(max_examples=300, deadline=None)
@given(case=_ap_cases(max_size=300), data=st.data())
def test_sharded_ap_equals_stable_argsort_version(pool_maps, case, data):
    """Shards at random cuts (empty, without positives, infinite in several),
    split with and without preallocated buffers and combined with blocks
    of 1 to 8 positives, so that block edges fall inside tie groups and
    blocks are both skipped and evaluated; every map gives the oracle's
    result on the concatenation."""
    scores, truth, positive_class = case
    want = average_precision_argsort(scores, truth, positive_class)
    s = scores if scores.dtype == np.float32 else scores.astype(np.float64)
    bounds = [0, *sorted(data.draw(st.lists(st.integers(0, s.size),
                                            max_size=4))), s.size]
    preallocate = data.draw(st.booleans())
    block = data.draw(st.integers(1, 8))

    def split(shard):
        a, b = shard
        positive = truth[a:b] == positive_class
        n_pos = int(np.count_nonzero(positive))
        out = (np.empty(n_pos, s.dtype), np.empty(b - a - n_pos, s.dtype))
        return split_scores(s[a:b], positive, out if preallocate else
                            (None, None))

    old_interval, old_block = sys.getswitchinterval(), metrics._AP_BLOCK
    sys.setswitchinterval(1e-5)
    metrics._AP_BLOCK = block
    try:
        for pool_map in pool_maps.values():
            splits = list(pool_map(split, zip(bounds, bounds[1:])))
            assert pooled_average_precision(splits, pool_map) == want
            assert splits == []
    finally:
        metrics._AP_BLOCK = old_block
        sys.setswitchinterval(old_interval)


def test_lone_shard_is_sorted_where_it_lies():
    """A lone shard's runs are sorted in place, not copied: the pooled AP
    of 2**20 float32 scores raises the traced peak by less than a tenth of
    their bytes."""
    rng = np.random.default_rng(20)
    n = 1 << 20
    truth = (rng.random(n) < 0.4).astype(np.uint8)
    scores = rng.standard_normal(n, dtype=np.float32) + np.float32(0.5) * truth
    want = average_precision_argsort(scores, truth)
    pos, neg = split_scores(scores, truth == 1)
    average_precision(scores[:100], truth[:100])  # numpy's lazy imports
    tracemalloc.start()
    try:
        assert pooled_average_precision([(pos, neg)]) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (pos.nbytes + neg.nbytes) / 10, peak
    assert (np.diff(pos) >= 0).all() and (np.diff(neg) >= 0).all()


def _no_prune_case():
    """Every positive ties one negative, so every point has precision
    exactly 1/2 and no block of two or more points can be skipped."""
    m = 3 * metrics._AP_BLOCK + 5
    v = np.arange(m, dtype=np.float64)
    return np.concatenate([v, v]), (np.arange(2 * m) < m).astype(np.int64)


def _max_inside_block_case():
    """Recall level 0 has its maximum strictly inside the last block: a
    cluster of negatives sits half a block below the top positive, so the
    first positive above it has precision 2048/2049 (at 4096-positive
    blocks), while no end point of any block reaches 0.9."""
    b = metrics._AP_BLOCK
    p = 20 * b  # level 0.1 cuts 2b - 1 positives below the top
    pos = np.arange(p, dtype=np.float64)
    neg = np.concatenate([np.full(10_000, p - b // 2 - 0.5), [p + 1.0]])
    return (np.concatenate([pos, neg]),
            np.concatenate([np.ones(p, np.int64), np.zeros(neg.size, np.int64)]))


def _level_cut_in_tie_group_case():
    """Recall level 0.5 cuts a tie group of 200 positives and 50
    negatives."""
    p = 3 * metrics._AP_BLOCK
    pos = np.arange(p, dtype=np.float64)
    pos[p // 2 - 100:p // 2 + 100] = p // 2
    neg = np.concatenate([np.arange(0, p, 3) + 0.5, np.full(50, p // 2)])
    return (np.concatenate([pos, neg]),
            np.concatenate([np.ones(p, np.int64), np.zeros(neg.size, np.int64)]))


def _inf_with_skipped_blocks_case():
    """Well separated float32 scores, so that most blocks are skipped, with
    tie groups of +inf and of -inf on positive and negative pixels."""
    rng = np.random.default_rng(1613)
    m = 64 * metrics._AP_BLOCK
    truth = (rng.random(m) < 0.45).astype(np.uint8)
    scores = (rng.standard_normal(m, dtype=np.float32)
              + np.float32(1.5) * truth)
    scores[rng.integers(0, m, 300)] = np.float32(np.inf)
    scores[rng.integers(0, m, 300)] = np.float32(-np.inf)
    return scores, truth


@pytest.mark.parametrize("make", [
    _no_prune_case, _max_inside_block_case, _level_cut_in_tie_group_case,
    _inf_with_skipped_blocks_case,
], ids=["no-prune", "max-inside-block", "level-cut-in-tie-group",
        "inf-with-skipped-blocks"])
def test_ap_blocks_equal_stable_argsort_version(make):
    scores, truth = make()
    assert average_precision(scores, truth) == average_precision_argsort(
        scores, truth)


@pytest.mark.parametrize("scores", [
    np.array([v], dtype=dtype)
    for dtype in (np.float32, np.float64)
    for v in (0.5, -0.0, np.inf, -np.inf)
] + [np.array([-3]), np.array([0])], ids=repr)
def test_ap_single_pixel(scores):
    assert average_precision(scores, np.array([1])) == 1.0
    assert average_precision_argsort(scores, np.array([1])) == 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ap_single_nan_pixel_is_refused(dtype):
    with pytest.raises(NumericError, match=r"^average precision is undefined "
                                           r"on NaN scores \(1 found\)$"):
        average_precision(np.array([np.nan], dtype=dtype), np.array([1]))


@pytest.mark.parametrize("truth", [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
def test_ap_refuses_nan_scores_whatever_their_pixel_order(truth):
    """A NaN score is no threshold: two NaN pixels are refused whichever
    labels they carry, where ranking them in pixel order gave 1.0 for
    truth [1, 1, 0] and 0.848 for [1, 0, 1]."""
    scores = np.array([0.9, np.nan, np.nan])
    with pytest.raises(NumericError, match=r"\(2 found\)"):
        average_precision(scores, np.array(truth))
    cm = ConfusionMatrix(2).add(np.array(truth), np.array([1, 0, 0]))
    with pytest.raises(NumericError, match=r"\(2 found\)"):
        build_report(cm, scores=scores, truth=np.array(truth))


@settings(max_examples=200, deadline=None)
@given(case=_ap_cases(max_size=200), data=st.data())
def test_any_nan_score_in_any_shard_is_refused(case, data):
    """NaN scores at any pixels, positive or negative, in any shard of any
    cut: both entry points raise NumericError counting them."""
    scores, truth, positive_class = case
    dtype = np.float32 if scores.dtype == np.float32 else np.float64
    s = scores.astype(dtype)
    at = data.draw(st.lists(st.integers(0, s.size - 1), min_size=1,
                            unique=True))
    s[at] = np.nan
    message = rf"^average precision is undefined on NaN scores \({len(at)} found\)$"
    with pytest.raises(NumericError, match=message):
        average_precision(s, truth, positive_class)
    bounds = [0, *sorted(data.draw(st.lists(st.integers(0, s.size),
                                            max_size=4))), s.size]
    splits = [split_scores(s[a:b], truth[a:b] == positive_class)
              for a, b in zip(bounds, bounds[1:])]
    with pytest.raises(NumericError, match=message):
        pooled_average_precision(splits)


def test_ap_full_size_eval_case():
    """One pooled 24 x 256 x 512 case shaped like the eval benchmark:
    float32 scores with ties, one-byte labels."""
    rng = np.random.default_rng(24256512)
    n = 24 * 256 * 512
    truth = (rng.random(n) < 0.45).astype(np.uint8)
    scores = (rng.standard_normal(n, dtype=np.float32)
              + np.float32(0.8) * truth)
    scores[rng.integers(0, n, 4096)] = np.float32(0.0)
    want = average_precision_argsort(scores, truth)
    assert average_precision(scores, truth) == want
    assert 0.5 < want < 1.0
    # As eval pools it: 24 frame shards on two workers.
    with ThreadPoolExecutor(2) as pool:
        splits = [split_scores(s, t == 1) for s, t in
                  zip(np.split(scores, 24), np.split(truth, 24))]
        assert pooled_average_precision(splits, pool.map) == want


def test_ap_shape_mismatch():
    with pytest.raises(ShapeError):
        average_precision(np.zeros(3), np.zeros(4, int))


# ---------------------------------------------------------------------------
# report assembly


def test_report_keys_and_values():
    cm = cm_from([[3, 1], [2, 4]])
    report = build_report(cm)
    d = report.to_dict()
    assert list(d) == [
        "acc", "cl_acc", "miu", "fwiu", "per_class_iu", "precision",
        "recall", "f1", "fpr", "fnr", "avg_precision",
    ]
    assert isinstance(d["per_class_iu"], list)
    assert d["acc"] == pytest.approx(0.7, abs=1e-12)
    assert d["avg_precision"] is None
    assert len(d["per_class_iu"]) == 2


def test_report_with_scores():
    cm = ConfusionMatrix(2).add(np.array([1, 1, 0, 0]), np.array([1, 1, 0, 0]))
    report = build_report(
        cm, scores=np.array([0.9, 0.8, 0.1, 0.2]),
        truth=np.array([1, 1, 0, 0]),
    )
    assert report.avg_precision == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="together"):
        build_report(cm, scores=np.array([0.5]))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_f1_is_harmonic_mean_of_its_own_fields(seed):
    rng = np.random.default_rng(seed)
    cm = ConfusionMatrix(2, rng.integers(0, 40, (2, 2)))
    if cm.total() == 0:
        return
    stats = cm.binary_stats(1)
    if stats.precision + stats.recall > 0:
        harmonic = (2 * stats.precision * stats.recall
                    / (stats.precision + stats.recall))
        assert stats.f1 == pytest.approx(harmonic, abs=1e-12)
