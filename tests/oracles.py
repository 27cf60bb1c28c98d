"""Brute-force reference implementations used to cross-check the library.

Everything in this file is deliberately written as plain loops over Python
scalars: slow, obvious, and sharing no code with the vectorized
implementations under test. The exceptions are ``full_forward``, which
runs the library's own stages once each with no schedule (the reference
every scheduled run must match bit for bit), and
``average_precision_argsort``, ``confusion_add_astype``,
``decode_gt_mask_int64``, ``upsample_bilinear_fancy`` and the ``*_joined``
writers, frozen copies of earlier implementations that their faster
replacements must match bit for bit (or byte for byte).
"""
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cwseg import fuse_and_upsample, run_stage1, run_stage2, run_stage3
from cwseg.errors import FileFormatError, ShapeError


@dataclass(frozen=True)
class StageOutputs:
    """Everything a full forward pass produces, including the intermediates
    the scheduler persists across frames."""

    pool3_features: np.ndarray
    score_pool3: np.ndarray
    pool4_features: np.ndarray
    score_pool4: np.ndarray
    score_fr: np.ndarray
    final_scores: np.ndarray


def full_forward(net, frame, work=None):
    """Run all three stages plus fusion; returns every intermediate."""
    pool3, score3 = run_stage1(net, frame, work)
    pool4, score4 = run_stage2(net, pool3, work)
    score_fr = run_stage3(net, pool4, work)
    final = fuse_and_upsample(net, score_fr, score4, score3)
    return StageOutputs(
        pool3_features=pool3,
        score_pool3=score3,
        pool4_features=pool4,
        score_pool4=score4,
        score_fr=score_fr,
        final_scores=final,
    )


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


def maxpool2d_oracle(x, window, stride, keep_last=False):
    """Sliding max over windows scanned in (dy, dx) order. Of several equal
    values it keeps the first, or with ``keep_last`` the last: a window
    holding both +0.0 and -0.0 differs only in the bits of its result."""
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
                        if v > best or (keep_last and v == best):
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
    tie group. Tests ask for bit-identical results from it on every input
    without a NaN score, which ``average_precision`` refuses; on NaN scores
    it keeps its frozen pixel-order rule (each NaN pixel ranks below every
    number and is a tie group of its own)."""
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


def confusion_add_astype(counts, truth, pred):
    """``ConfusionMatrix.add`` through int64 copies of both label arrays and
    a range test per array; adds into ``counts`` in place."""
    t = np.asarray(truth).ravel()
    p = np.asarray(pred).ravel()
    if t.shape != p.shape:
        raise ShapeError(
            f"truth shape {np.asarray(truth).shape} != "
            f"pred shape {np.asarray(pred).shape}"
        )
    n = counts.shape[0]
    for name, a in (("truth", t), ("pred", p)):
        if a.size and (a.min() < 0 or a.max() >= n):
            raise ValueError(
                f"{name} labels must lie in [0, {n}), got range "
                f"[{a.min()}, {a.max()}]"
            )
    counts += np.bincount(
        t.astype(np.int64) * n + p.astype(np.int64), minlength=n * n
    ).reshape(n, n)
    return counts


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


def write_pnm_joined(path, pixels):
    """PGM/PPM writer that concatenates the header and ``tobytes()``."""
    px = np.asarray(pixels)
    if px.dtype != np.uint8:
        raise ShapeError(f"pixels must be uint8, got {px.dtype}")
    if px.ndim == 2:
        magic = b"P5"
    elif px.ndim == 3 and px.shape[2] == 3:
        magic = b"P6"
    else:
        raise ShapeError(f"pixels must be (H, W) or (H, W, 3), got {px.shape}")
    h, w = px.shape[0], px.shape[1]
    header = magic + b"\n%d %d\n255\n" % (w, h)
    Path(path).write_bytes(header + px.tobytes())


def write_mask_joined(mask, palette, path):
    """Palette mask writer through fancy indexing ``lut[m]``."""
    m = np.asarray(mask)
    if m.ndim != 2 or not np.issubdtype(m.dtype, np.integer):
        raise ShapeError(f"mask must be a 2-D integer array, got {m.dtype} {m.shape}")
    if m.size and (m.min() < 0 or m.max() >= len(palette)):
        raise ShapeError(
            f"mask labels must lie in [0, {len(palette)}), got range "
            f"[{m.min()}, {m.max()}]"
        )
    lut = np.asarray(palette, dtype=np.uint8)
    write_pnm_joined(path, lut[m])


def write_weights_joined(store, path):
    """CWFCN1 writer that joins every header and ``tobytes()`` payload."""
    parts = [b"CWFCN1", len(store).to_bytes(4, "little")]
    for name, arr in store.items():
        a = np.asarray(arr, dtype="<f4", order="C")
        nb = name.encode("utf-8")
        parts.append(len(nb).to_bytes(4, "little"))
        parts.append(nb)
        parts.append(a.ndim.to_bytes(4, "little"))
        for d in a.shape:
            parts.append(int(d).to_bytes(4, "little"))
        parts.append(a.tobytes())
    Path(path).write_bytes(b"".join(parts))


def upsample_bilinear_fancy(x, factor):
    """``upsample_bilinear`` with each axis's coordinates computed on every
    call, rows and columns gathered by fancy indexing and each lerp
    a + t*(b - a) evaluated into fresh temporaries."""
    if factor == 1:
        return x.copy()

    def axis_coords(n_in):
        out = np.arange(n_in * factor, dtype=np.float64)
        src = np.clip((out + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        t = (src - lo).astype(np.float32)
        return lo, hi, t

    _, h, w = x.shape
    y_lo, y_hi, ty = axis_coords(h)
    x_lo, x_hi, tx = axis_coords(w)
    r0 = x[:, y_lo, :]
    r1 = x[:, y_hi, :]
    rows = r0 + ty[None, :, None] * (r1 - r0)
    c0 = rows[:, :, x_lo]
    c1 = rows[:, :, x_hi]
    return c0 + tx[None, None, :] * (c1 - c0)
