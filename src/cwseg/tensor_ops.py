"""Dense tensor kernels for the staged segmentation network.

All feature and score maps are numpy arrays of shape (channels, height,
width) with dtype float32, referred to as "tensors" throughout the package.
Every kernel here is a pure function, except that ``relu`` writes into an
``out`` array when given one: inputs are otherwise never mutated and
identical inputs produce bit-identical outputs, so tensors can be shared
freely across threads. Tensors are checked where they enter the package
(frames, weight stores, ``conv2d`` and ``maxpool2d``); the elementwise
kernels check only that their shapes agree.

``conv2d`` lowers each convolution to a float64 im2col matrix times the
float64 weights. It builds that matrix one band of output rows at a time, so
the column buffer stays near ``IM2COL_BAND_BYTES`` and in cache, instead of
holding every output pixel at once; layers with large weights get bands of
up to half their float64 weight bytes. Each band pads only the input rows it
reads, in a small zeroed buffer. Banding splits only the output pixels;
each output value is still one dot product over the full kernel volume, so
results are bit-identical to the unbanded product. ``maxpool2d`` folds the
window's strided slices together with elementwise maximum, which is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError

# Type alias for readability; a tensor is a float32 ndarray shaped (C, H, W).
Tensor = np.ndarray

# Size of one band's float64 im2col buffer in conv2d: half of a 2 MB L2 cache,
# leaving room for the weights and the band's GEMM result.
IM2COL_BAND_BYTES = 1 << 20


def as_chw(data) -> Tensor:
    """Coerce array-like data to a float32 tensor of shape (C, H, W)."""
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 3:
        raise ShapeError(
            f"expected a (channels, height, width) array, got shape {arr.shape}"
        )
    if min(arr.shape) < 1:
        raise ShapeError(f"tensor dimensions must be positive, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class ConvParams:
    """Parameters of one convolution layer.

    ``weights`` is stored as (out_channels, in_channels, kernel_h, kernel_w)
    and ``bias`` as (out_channels,). Both arrays are copied and marked
    read-only so a built network can be shared across threads.
    """

    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int
    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        for name in ("out_channels", "in_channels", "kernel_h", "kernel_w", "stride"):
            if getattr(self, name) < 1:
                raise ShapeError(f"ConvParams.{name} must be positive")
        if self.pad < 0:
            raise ShapeError("ConvParams.pad must be nonnegative")
        w = np.array(self.weights, dtype=np.float32)
        expected = (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        if w.size != np.prod(expected):
            raise ShapeError(
                f"weight data has {w.size} elements, expected "
                f"{int(np.prod(expected))} for shape {expected}"
            )
        w = w.reshape(expected)
        b = np.array(self.bias, dtype=np.float32).reshape(-1)
        if b.shape != (self.out_channels,):
            raise ShapeError(
                f"bias has {b.size} elements, expected {self.out_channels}"
            )
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """Cross-correlate ``x`` with ``p`` (zero padding, no kernel flip).

    Output spatial dims follow floor((dim + 2*pad - kernel) / stride) + 1.
    Accumulation runs in float64 so results track the straightforward
    summation oracle; the result is cast back to float32.

    The im2col matrix is built and multiplied in bands of whole output rows
    (at least one row per band). A band's float64 column buffer holds at most
    ``IM2COL_BAND_BYTES``, or half the layer's float64 weight bytes when that
    is larger. Each band first copies just the input rows it reads into a
    small zeroed float64 buffer, which supplies the padding, so the whole
    input is never padded at once. Each band's result is written straight
    into the float32 output. Only the output-pixel dimension is split, so
    every output value is the same full-length dot product as in a single
    unbanded GEMM, and the result is bit-identical to it.
    """
    x = as_chw(x)
    c, h, w = x.shape
    if c != p.in_channels:
        raise ShapeError(
            f"conv2d: expected {p.in_channels} input channels, got {c}"
        )
    oh = (h + 2 * p.pad - p.kernel_h) // p.stride + 1
    ow = (w + 2 * p.pad - p.kernel_w) // p.stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv2d: kernel {p.kernel_h}x{p.kernel_w} (stride {p.stride}, "
            f"pad {p.pad}) does not fit input {h}x{w}"
        )
    k = c * p.kernel_h * p.kernel_w
    # Each band's GEMM re-packs the whole weight matrix; bands of at least
    # half its size keep that re-packing small next to the band's own work.
    band_bytes = max(IM2COL_BAND_BYTES, 4 * p.out_channels * k)
    band_rows = min(oh, max(1, band_bytes // (8 * k * ow)))
    # Padded input rows of one band; the pad columns are never written.
    band_in = np.zeros((c, (band_rows - 1) * p.stride + p.kernel_h,
                        w + 2 * p.pad), dtype=np.float64)
    cols_buf = np.empty(k * band_rows * ow, dtype=np.float64)
    # One GEMM result buffer serves every band; a fresh one per band leaves
    # the heap more fragmented and raised peak memory.
    acc_buf = np.empty(p.out_channels * band_rows * ow, dtype=np.float64)
    w64 = p.weights.reshape(p.out_channels, k).astype(np.float64)
    b64 = p.bias.astype(np.float64)[:, None]
    out = np.empty((p.out_channels, oh, ow), dtype=np.float32)
    for r0 in range(0, oh, band_rows):
        rows = min(band_rows, oh - r0)
        n = rows * ow
        # Padded rows [lo, lo + span) feed this band: `top` rows of padding,
        # input rows [y0, y1), then padding to the end of the span.
        lo = r0 * p.stride
        span = (rows - 1) * p.stride + p.kernel_h
        top = max(0, p.pad - lo)
        y0, y1 = max(0, lo - p.pad), min(h, lo + span - p.pad)
        band = band_in[:, :span]
        band[:, :top] = 0.0
        band[:, top : top + y1 - y0, p.pad : p.pad + w] = x[:, y0:y1]
        band[:, top + y1 - y0 :] = 0.0
        sc, sh, sw = band.strides
        patches = as_strided(
            band,
            shape=(c, p.kernel_h, p.kernel_w, rows, ow),
            strides=(sc, sh, sw, p.stride * sh, p.stride * sw),
        )
        cols = cols_buf[: k * n].reshape(k, n)
        np.copyto(cols.reshape(patches.shape), patches)
        acc = np.matmul(w64, cols, out=acc_buf[: p.out_channels * n]
                        .reshape(p.out_channels, n))
        acc += b64
        out[:, r0 : r0 + rows] = acc.reshape(p.out_channels, rows, ow)
    if not np.isfinite(out).all():
        raise ValueError("conv2d produced non-finite values")
    return out


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Per-channel sliding max over square windows.

    Folds the ``window * window`` strided slices of ``x`` (one per offset
    inside the window) into a copy of the first with elementwise maximum.
    Max is exact, so the fold order cannot change the result. The output
    owns its memory.
    """
    x = as_chw(x)
    if window < 1 or stride < 1:
        raise ShapeError("maxpool2d: window and stride must be positive")
    _, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(
            f"maxpool2d: window {window} larger than input {h}x{w}"
        )
    span_h = (h - window) // stride * stride + 1
    span_w = (w - window) // stride * stride + 1
    slices = [
        x[:, dy : dy + span_h : stride, dx : dx + span_w : stride]
        for dy in range(window)
        for dx in range(window)
    ]
    out = slices[0].copy()
    for v in slices[1:]:
        np.maximum(out, v, out=out)
    return out


def relu(x: Tensor, out: Tensor | None = None) -> Tensor:
    """Elementwise max(0, x), written to ``out`` when given; ``out`` may be
    ``x`` itself, which applies relu in place."""
    return np.maximum(x, np.float32(0.0), out=out)


def _axis_coords(n_in: int, factor: int):
    # Sample centers at (i + 0.5)/factor - 0.5, clamped to the border
    # (align-corners=false convention).
    out = np.arange(n_in * factor, dtype=np.float64)
    src = np.clip((out + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    t = (src - lo).astype(np.float32)
    return lo, hi, t


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling by an integer factor >= 1.

    Uses the lerp form a + t*(b - a) so constant inputs are reproduced
    exactly and factor 1 is the identity.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"upsample factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return x.copy()
    _, h, w = x.shape
    y_lo, y_hi, ty = _axis_coords(h, factor)
    x_lo, x_hi, tx = _axis_coords(w, factor)
    r0 = x[:, y_lo, :]
    r1 = x[:, y_hi, :]
    rows = r0 + ty[None, :, None] * (r1 - r0)
    c0 = rows[:, :, x_lo]
    c1 = rows[:, :, x_hi]
    return c0 + tx[None, None, :] * (c1 - c0)


def crop_center(x: Tensor, target_h: int, target_w: int) -> Tensor:
    """Spatially centered crop; channels are preserved."""
    _, h, w = x.shape
    if target_h < 1 or target_w < 1:
        raise ShapeError("crop_center: target dims must be positive")
    if target_h > h or target_w > w:
        raise ShapeError(
            f"crop_center: target {target_h}x{target_w} exceeds input {h}x{w}"
        )
    oy = (h - target_h) // 2
    ox = (w - target_w) // 2
    return x[:, oy : oy + target_h, ox : ox + target_w].copy()


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors with identical shapes."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = a + b
    if not np.isfinite(out).all():
        raise ValueError("add produced non-finite values")
    return out


def mean_abs_diff(a: Tensor, b: Tensor) -> float:
    """Mean absolute elementwise difference, (1/N) * sum |a_i - b_i|.

    Nonnegative, symmetric, exactly zero on identical inputs; this is the
    change signal the adaptive schedule thresholds against.
    """
    if a.shape != b.shape:
        raise ShapeError(f"mean_abs_diff: shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a.astype(np.float64) - b.astype(np.float64))))
