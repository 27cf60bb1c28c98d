"""Brute-force reference implementations used to cross-check the library.

Everything in this file is deliberately written as plain loops over Python
scalars: slow, obvious, and sharing no code with the vectorized
implementations under test. The exceptions are ``average_precision_argsort``
and ``decode_gt_mask_int64``, frozen copies of earlier vectorized
implementations that their faster replacements must match bit for bit.
"""
import numpy as np

from cwseg.errors import FileFormatError


def conv2d_oracle(x, weights, bias, stride=1, pad=0):
    """Direct cross-correlation, float64 accumulation, float32 result."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    c, h, w = x.shape
    oc, ic, kh, kw = weights.shape
    assert ic == c
    if pad:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad))
        padded[:, pad:pad + h, pad:pad + w] = x
        x = padded
        h, w = h + 2 * pad, w + 2 * pad
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((oc, oh, ow), dtype=np.float64)
    for o in range(oc):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for i in range(ic):
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += (weights[o, i, ky, kx]
                                    * x[i, oy * stride + ky, ox * stride + kx])
                out[o, oy, ox] = acc + bias[o]
    return out.astype(np.float32)


def maxpool2d_oracle(x, window, stride):
    x = np.asarray(x)
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((c, oh, ow), dtype=x.dtype)
    for i in range(c):
        for oy in range(oh):
            for ox in range(ow):
                best = x[i, oy * stride, ox * stride]
                for ky in range(window):
                    for kx in range(window):
                        v = x[i, oy * stride + ky, ox * stride + kx]
                        if v > best:
                            best = v
                out[i, oy, ox] = best
    return out


def upsample_bilinear_oracle(x, factor):
    """Per-sample evaluation of the align-corners=false formula in float64."""
    x = np.asarray(x, dtype=np.float64)
    c, h, w = x.shape
    out = np.zeros((c, h * factor, w * factor), dtype=np.float64)

    def sample(n, o):
        src = (o + 0.5) / factor - 0.5
        src = min(max(src, 0.0), n - 1.0)
        lo = int(np.floor(src))
        hi = min(lo + 1, n - 1)
        return lo, hi, src - lo

    for i in range(c):
        for oy in range(h * factor):
            ylo, yhi, ty = sample(h, oy)
            for ox in range(w * factor):
                xlo, xhi, tx = sample(w, ox)
                top = x[i, ylo, xlo] + tx * (x[i, ylo, xhi] - x[i, ylo, xlo])
                bot = x[i, yhi, xlo] + tx * (x[i, yhi, xhi] - x[i, yhi, xlo])
                out[i, oy, ox] = top + ty * (bot - top)
    return out


def segmentation_metrics_oracle(truth, pred, num_classes, positive_class=1):
    """Every whole-image and binary metric by direct per-pixel counting.

    Returns a dict; binary stats that have an empty denominator are None.
    No confusion matrix is built anywhere in here.
    """
    truth = np.asarray(truth).ravel()
    pred = np.asarray(pred).ravel()
    assert truth.shape == pred.shape and truth.size > 0
    total = truth.size

    correct = 0
    truth_count = [0] * num_classes
    pred_count = [0] * num_classes
    agree = [0] * num_classes
    for t, p in zip(truth.tolist(), pred.tolist()):
        truth_count[t] += 1
        pred_count[p] += 1
        if t == p:
            correct += 1
            agree[t] += 1

    acc = correct / total

    class_accs = []
    for c in range(num_classes):
        if truth_count[c] > 0:
            class_accs.append(agree[c] / truth_count[c])
    cl_acc = sum(class_accs) / len(class_accs)

    ius = {}
    for c in range(num_classes):
        union = truth_count[c] + pred_count[c] - agree[c]
        if union > 0:
            ius[c] = agree[c] / union
    miu = sum(ius.values()) / len(ius)

    fwiu = 0.0
    for c, iu in ius.items():
        fwiu += (truth_count[c] / total) * iu

    pc = positive_class
    tp = agree[pc]
    fp = pred_count[pc] - tp
    fn = truth_count[pc] - tp
    tn = total - tp - fp - fn

    def safe(num, denom):
        return num / denom if denom > 0 else None

    return {
        "acc": acc,
        "cl_acc": cl_acc,
        "miu": miu,
        "fwiu": fwiu,
        "precision": safe(tp, tp + fp),
        "recall": safe(tp, tp + fn),
        "f1": safe(2 * tp, 2 * tp + fp + fn),
        "fpr": safe(fp, fp + tn),
        "fnr": safe(fn, fn + tp),
    }


def average_precision_oracle(scores, truth, positive_class=1):
    """11-point AP via exhaustive enumeration of every distinct threshold."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel()
    n_pos = int((truth == positive_class).sum())
    assert n_pos > 0
    points = []
    for t in sorted(set(scores.tolist())):
        tp = fp = 0
        for s, label in zip(scores.tolist(), truth.tolist()):
            if s >= t:
                if label == positive_class:
                    tp += 1
                else:
                    fp += 1
        points.append((tp / (tp + fp), tp / n_pos))
    total = 0.0
    for i in range(11):
        level = i / 10.0
        candidates = [p for p, r in points if r >= level]
        if candidates:
            total += max(candidates)
    return total / 11.0


def splitmix64_oracle(seed, count):
    """The scalar splitmix64 stream as unit floats, all in Python ints."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append((z >> 11) * 2.0 ** -53)
    return out


def average_precision_argsort(scores, truth, positive_class=1):
    """11-point AP from one stable argsort of every pixel by descending
    score, cumulative true positives, and a precision at the end of every
    tie group. Unlike the exhaustive oracle above it also defines NaN scores
    (each NaN pixel ranks below every number and is a tie group of its own,
    in pixel order), so tests can ask for bit-identical results on every
    input."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    t = np.asarray(truth).ravel()
    positive = (t == positive_class)
    n_pos = int(positive.sum())
    assert n_pos > 0
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    pos_sorted = positive[order].astype(np.int64)
    cum_tp = np.cumsum(pos_sorted)
    is_group_end = np.ones(s.size, dtype=bool)
    is_group_end[:-1] = s_sorted[:-1] != s_sorted[1:]
    ends = np.flatnonzero(is_group_end)
    tp = cum_tp[ends].astype(np.float64)
    k = (ends + 1).astype(np.float64)
    precisions = tp / k
    recalls = tp / n_pos
    total = 0.0
    for i in range(11):
        level = i / 10.0
        ok = recalls >= level
        total += float(precisions[ok].max()) if ok.any() else 0.0
    return total / 11.0


def decode_gt_mask_int64(image, palette):
    """Palette decode through an int64 copy of the rounded channels. The
    error names the first unknown pixel in row-major order and its colour;
    colours outside the int64 range are undefined here."""
    img = np.asarray(image, dtype=np.float32)
    rgb = np.rint(img * np.float32(255.0)).astype(np.int64)
    h, w = rgb.shape[1], rgb.shape[2]
    labels = np.full((h, w), -1, dtype=np.int64)
    for idx, (r, g, b) in enumerate(palette):
        hit = (rgb[0] == r) & (rgb[1] == g) & (rgb[2] == b)
        labels[hit] = idx
    if (labels < 0).any():
        row, col = map(int, np.argwhere(labels < 0)[0])
        color = (int(rgb[0, row, col]), int(rgb[1, row, col]), int(rgb[2, row, col]))
        raise FileFormatError(
            f"mask pixel at row {row}, col {col} has color {color} "
            f"which is not in the palette"
        )
    return labels
