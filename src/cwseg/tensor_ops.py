"""Dense tensor kernels for the staged segmentation network.

All feature and score maps are numpy arrays of shape (channels, height,
width) with dtype float32, referred to as "tensors" throughout the package.
Each kernel's result depends only on its inputs, which it never mutates
(``relu`` writes into an ``out`` array when given one): identical inputs
give bit-identical outputs whichever thread runs a ``conv2d`` band posted on
the module's board, so tensors can be shared freely across threads.
Tensors are checked where they enter the package (frames, weight stores,
``conv2d`` and ``maxpool2d``); the elementwise kernels check only that
their shapes agree.

``conv2d``'s docstring gives the banding and thread-sharing rules, and
``net._conv`` the layers whose calls are served first.

What limits ``segment``'s two threads depends on the frame size. At 64x64
most calls here are small, so much of a frame is interpreter work, which
holds the GIL: the threads queue on it, and each thread's wall time exceeds
its CPU time. A call's fixed cost therefore counts on both threads, and the
kernels keep it small: ``conv2d`` builds its patch view directly, zeroes only
the padding a band reads and does not touch the board for a call of one
band, and ``upsample_bilinear`` computes each axis's coordinates once per
shape. At 256x512 the time goes to matrix products and copies that release
the GIL, and the helper thread's stage 1 is the floor on frames that skip
stage 3.
"""
from __future__ import annotations

import functools
import itertools
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

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
    and ``bias`` as (out_channels,). Both are rounded to float32 and held as
    float64 (``float64(float32(value))``), the operands of ``conv2d``'s
    float64 GEMM, in arrays of their own marked read-only, so a built
    network can be shared across threads and no call casts its weights.
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
        w = np.asarray(self.weights, dtype=np.float32)
        expected = (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        if w.size != np.prod(expected):
            raise ShapeError(
                f"weight data has {w.size} elements, expected "
                f"{int(np.prod(expected))} for shape {expected}"
            )
        # astype copies, so the held arrays own their data.
        w = w.reshape(expected).astype(np.float64)
        b = np.asarray(self.bias, dtype=np.float32).reshape(-1)
        if b.shape != (self.out_channels,):
            raise ShapeError(
                f"bias has {b.size} elements, expected {self.out_channels}"
            )
        b = b.astype(np.float64)
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


def conv2d(x: Tensor, p: ConvParams, priority: bool = False) -> Tensor:
    """Cross-correlate ``x`` with ``p`` (zero padding, no kernel flip).

    Output spatial dims follow floor((dim + 2*pad - kernel) / stride) + 1.
    Accumulation runs in float64 so results track the straightforward
    summation oracle; the result is cast back to float32.

    The im2col matrix is built and multiplied in bands of whole output rows
    (at least one row per band). A band's float64 column buffer holds at most
    ``IM2COL_BAND_BYTES``, or half the layer's float64 weight bytes when that
    is larger. Each band first copies just the input rows it reads into a
    small float64 buffer, whose pad columns are zero, and zeroes any padding
    rows it reads, so the whole input is never padded at once. Each band's result is written straight
    into the float32 output. Only the output-pixel dimension is split, so
    every output value is the same full-length dot product as in a single
    unbanded GEMM, and the result is bit-identical to it.

    The call posts its bands on a board (unless it has only one) and runs
    them itself, one claim at a time; a thread blocked in
    :func:`help_until` may claim some of them. A call with ``priority``
    (``net._conv`` says which) is served first: any call without it, before
    each band of its own, runs the unclaimed bands of open priority calls.
    Each thread runs its bands in buffers of its own, and the band layout is
    fixed by the layer and the input shape alone, so a band's GEMM has the
    same shape and operands whichever thread runs it: the bits cannot
    depend on who helped. The call returns once every band has finished,
    and raises the first exception any band raised.
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
    call = _ConvCall(x, p, oh, ow, priority)
    if call.posted:
        with _board:
            call.queue.append(call)
            _board.notify_all()
    call.run_bands(owner=True)
    if call.error is not None:
        raise call.error
    out = call.out
    if not np.isfinite(out).all():
        raise NumericError("conv2d produced non-finite values")
    return out


def help_until(future: Future) -> None:
    """Run bands of open ``conv2d`` calls until ``future`` is done.

    For a thread that would otherwise block on ``future`` while the thread
    computing it runs convolutions (in ``segment``, the main thread waiting
    for the helper's stage 1). Wakes when a call is posted or the future
    completes. It takes no priority call: in ``segment`` only the waiting
    thread makes them, and all of its calls have finished. A band's
    exception goes to the ``conv2d`` call that owns the band, never to this
    thread.
    """
    def wake(_):
        with _board:
            _board.notify_all()

    future.add_done_callback(wake)
    while True:
        with _board:
            _board.wait_for(lambda: future.done() or _open_calls)
            if future.done():
                return
            call = _open_calls[0]
        call.run_bands()
        # Keep no finished call's input and output alive while waiting.
        del call


def _serve_priority_calls() -> None:
    """Run the unclaimed bands of open priority calls, oldest first, until
    none is open."""
    while True:
        with _board:
            if not _priority_calls:
                return
            call = _priority_calls[0]
        call.run_bands()


# conv2d calls with bands not yet claimed, oldest first: those with
# ``priority`` in ``_priority_calls``, the others in ``_open_calls``.
# ``_board`` guards both and each call's finished-band count; it is notified
# when a call is posted, when a helping thread finishes a call's last band
# and when a future that ``help_until`` waits on completes.
_priority_calls: deque = deque()
_open_calls: deque = deque()
_board = threading.Condition()


class _ConvCall:
    """One ``conv2d`` call cut into bands of whole output rows.

    Any thread may run bands; each claims them one at a time from a shared
    counter (``next`` on an ``itertools.count`` is atomic under the GIL), so
    whoever is free takes the next band.
    """

    def __init__(self, x: Tensor, p: ConvParams, oh: int, ow: int,
                 priority: bool):
        self.x, self.p, self.oh, self.ow = x, p, oh, ow
        self.k = x.shape[0] * p.kernel_h * p.kernel_w
        # Each band's GEMM re-packs the whole weight matrix; bands of at
        # least half its size keep that re-packing small next to the band's
        # own work.
        band_bytes = max(IM2COL_BAND_BYTES, 4 * p.out_channels * self.k)
        self.band_rows = min(oh, max(1, band_bytes // (8 * self.k * ow)))
        self.starts = range(0, oh, self.band_rows)
        # A call of one band is not posted: no other thread could share it,
        # and waking one costs more than the band.
        self.posted = len(self.starts) > 1
        self.queue = _priority_calls if priority else _open_calls
        # Views of the float64 arrays ConvParams holds: no per-call cast.
        self.w64 = p.weights.reshape(p.out_channels, self.k)
        self.b64 = p.bias[:, None]
        self.out = np.empty((p.out_channels, oh, ow), dtype=np.float32)
        self.claims = itertools.count()
        # The first other thread to run bands of a priority call uses
        # buffers its owner allocated here. A thread that serves the call
        # between bands of its own would allocate them at its heap's high
        # point and grow it: peak RSS rose by 3 MB at 256x512. Where no
        # other thread exists (a serial run, or segment's frame 0), none
        # is allocated.
        self.spares = ([self._buffers()] if self.posted and priority
                       and threading.active_count() > 1 else [])
        self.finished = 0
        self.error: BaseException | None = None

    def run_bands(self, owner: bool = False) -> None:
        """Claim and run bands until none is left unclaimed; the owner then
        also waits for the bands other threads are still running.

        The calling thread allocates its buffers on its first band (or takes
        the owner's spare ones) and drops them on return. A band's exception
        is kept for the owning ``conv2d`` call to raise. The owner of a call
        without ``priority`` first serves the open priority calls before
        each claim.
        """
        bufs = full = error = None
        done, n = 0, len(self.starts)
        serve = owner and self.queue is _open_calls
        while True:
            # An unlocked peek: a call posted just after it waits one band.
            if serve and _priority_calls:
                _serve_priority_calls()
            if (i := next(self.claims)) >= n:
                break
            try:
                if bufs is None:
                    bufs = self._buffers() if owner else self._spare()
                    full = self._views(self.band_rows, bufs)
                r0 = self.starts[i]
                rows = min(self.band_rows, self.oh - r0)
                _conv_band(self, r0, full if rows == self.band_rows
                           else self._views(rows, bufs))
            except BaseException as exc:  # re-raised by the owning conv2d
                error = error or exc
            done += 1
        if not self.posted:
            # Only the owner ever sees this call: no lock, nothing to find.
            self.error = error
            return
        with _board:
            if self in self.queue:
                self.queue.remove(self)
            self.error = self.error or error
            self.finished += done
            if owner:
                _board.wait_for(lambda: self.finished == n)
            elif self.finished == n:
                _board.notify_all()

    def _spare(self):
        """The owner's spare buffers, or new ones once they are taken."""
        try:
            return self.spares.pop()
        except IndexError:
            return self._buffers()

    def _buffers(self):
        """One thread's band buffers: padded input rows, im2col columns and
        the GEMM result, each sized for a full band."""
        p, (c, _, w) = self.p, self.x.shape
        n = self.band_rows * self.ow
        band_in = np.empty((c, (self.band_rows - 1) * p.stride + p.kernel_h,
                            w + 2 * p.pad), dtype=np.float64)
        # No band writes the pad columns; every band writes every row of its
        # span between them (_conv_band).
        band_in[:, :, : p.pad] = 0.0
        band_in[:, :, p.pad + w :] = 0.0
        return (band_in, np.empty(self.k * n, dtype=np.float64),
                np.empty(p.out_channels * n, dtype=np.float64))

    def _views(self, rows: int, bufs):
        """Views into ``bufs`` for a band of ``rows`` output rows: its padded
        input rows, their patches, the columns (shaped like the patches and
        as a matrix) and the GEMM result (as a matrix and as rows)."""
        band_in, cols_buf, acc_buf = bufs
        p, n = self.p, rows * self.ow
        band = band_in[:, : (rows - 1) * p.stride + p.kernel_h]
        sc, sh, sw = band.strides
        # The same view as numpy's as_strided, without its round trip
        # through __array_interface__.
        patches = np.ndarray(
            (band.shape[0], p.kernel_h, p.kernel_w, rows, self.ow),
            np.float64, buffer=band_in,
            strides=(sc, sh, sw, p.stride * sh, p.stride * sw),
        )
        cols = cols_buf[: self.k * n].reshape(self.k, n)
        acc = acc_buf[: p.out_channels * n].reshape(p.out_channels, n)
        return (band, patches, cols.reshape(patches.shape), cols, acc,
                acc.reshape(p.out_channels, rows, self.ow))


def _conv_band(call: _ConvCall, r0: int, views) -> None:
    """Output rows from ``r0`` of ``call``, in the views of one thread."""
    band, patches, cols_nd, cols, acc, acc_rows = views
    p, h, w = call.p, call.x.shape[1], call.x.shape[2]
    # Padded rows [lo, lo + span) feed this band: `top` rows of padding,
    # input rows [y0, y1), then padding to the end of the span.
    lo, span = r0 * p.stride, band.shape[1]
    top = max(0, p.pad - lo)
    y0, y1 = max(0, lo - p.pad), min(h, lo + span - p.pad)
    # Padding rows are written only where the span has them, which no
    # interior band does.
    if top:
        band[:, :top] = 0.0
    band[:, top : top + y1 - y0, p.pad : p.pad + w] = call.x[:, y0:y1]
    if top + y1 - y0 < span:
        band[:, top + y1 - y0 :] = 0.0
    np.copyto(cols_nd, patches)
    np.matmul(call.w64, cols, out=acc)
    acc += call.b64
    call.out[:, r0 : r0 + acc_rows.shape[1]] = acc_rows


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Per-channel sliding max over square windows.

    Folds the ``window * window`` strided slices of ``x`` (one per offset
    inside the window), in (dy, dx) order, into a copy of the first with
    ``np.maximum(out, v)``, which returns its second operand on a tie. So
    the result is the window's maximum value and, where several entries
    equal it (+0.0 and -0.0 compare equal), the bits of the last of them
    in (dy, dx) order. Any split of the output into bands keeps this rule.
    The output owns its memory.
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


@functools.lru_cache(maxsize=64)
def _axis_coords(n_in: int, factor: int):
    """Source rows (or columns) and weights of one upsampled axis, computed
    once per (n_in, factor) and shared read-only by every call."""
    # Sample centers at (i + 0.5)/factor - 0.5, clamped to the border
    # (align-corners=false convention).
    out = np.arange(n_in * factor, dtype=np.float64)
    src = np.clip((out + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    t = (src - lo).astype(np.float32)
    for a in (lo, hi, t):
        a.setflags(write=False)
    return lo, hi, t


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling by an integer factor >= 1.

    Uses the lerp form a + t*(b - a) so constant inputs are reproduced
    exactly and factor 1 is the identity.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise NumericError(f"upsample factor must be a positive integer, got {factor!r}")
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
        raise NumericError("add produced non-finite values")
    return out


def mean_abs_diff(a: Tensor, b: Tensor) -> float:
    """Mean absolute elementwise difference, (1/N) * sum |a_i - b_i|.

    Nonnegative, symmetric, exactly zero on identical inputs; this is the
    change signal the adaptive schedule thresholds against.
    """
    if a.shape != b.shape:
        raise ShapeError(f"mean_abs_diff: shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a.astype(np.float64) - b.astype(np.float64))))
