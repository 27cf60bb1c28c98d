import sys
import threading
from concurrent.futures import Future
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cwseg import (
    ConvParams,
    ShapeError,
    add,
    conv2d,
    crop_center,
    maxpool2d,
    mean_abs_diff,
    relu,
    upsample_bilinear,
)
from cwseg import tensor_ops
from cwseg.tensor_ops import IM2COL_BAND_BYTES, help_until
from oracles import (
    conv2d_oracle,
    maxpool2d_oracle,
    upsample_bilinear_fancy,
    upsample_bilinear_oracle,
)


def t(data):
    return np.asarray(data, dtype=np.float32)


def tensors(max_c=3, max_hw=8, lo=-1.0, hi=1.0):
    return st.integers(1, max_c).flatmap(
        lambda c: st.integers(1, max_hw).flatmap(
            lambda h: st.integers(1, max_hw).flatmap(
                lambda w: arrays(
                    np.float32, (c, h, w),
                    elements=st.floats(lo, hi, width=32),
                )
            )
        )
    )


# ---------------------------------------------------------------------------
# conv2d


def test_conv_all_ones_kernel_sums():
    x = t(np.ones((1, 3, 3)))
    p = ConvParams(1, 1, 3, 3, np.ones((1, 1, 3, 3)), [0.0])
    out = conv2d(x, p)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == np.float32(9.0)


def test_conv_diag_kernel_with_bias():
    x = t([[[1, 2], [3, 4]]])
    p = ConvParams(1, 1, 2, 2, [[[[1, 0], [0, 1]]]], [0.5])
    out = conv2d(x, p)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == np.float32(5.5)


def test_conv_channel_mismatch_names_counts():
    p = ConvParams(1, 2, 1, 1, np.ones((1, 2, 1, 1)), [0.0])
    with pytest.raises(ShapeError, match="expected 2 input channels, got 3"):
        conv2d(t(np.zeros((3, 4, 4))), p)


def test_conv_kernel_does_not_fit():
    p = ConvParams(1, 1, 5, 5, np.ones((1, 1, 5, 5)), [0.0])
    with pytest.raises(ShapeError, match="does not fit"):
        conv2d(t(np.zeros((1, 3, 3))), p)


def test_conv_rejects_nonfinite_result():
    x = np.full((1, 2, 2), np.finfo(np.float32).max, dtype=np.float32)
    big = ConvParams(1, 1, 2, 2, np.full((1, 1, 2, 2), 4.0), [0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        conv2d(x, big)


def test_conv_params_validation():
    with pytest.raises(ShapeError):
        ConvParams(0, 1, 1, 1, [1.0], [0.0])
    with pytest.raises(ShapeError):
        ConvParams(1, 1, 2, 2, [1.0, 2.0], [0.0])  # wrong weight count
    with pytest.raises(ShapeError):
        ConvParams(1, 1, 1, 1, [1.0], [0.0, 0.0])  # wrong bias count
    with pytest.raises(ShapeError):
        ConvParams(1, 1, 1, 1, [1.0], [0.0], pad=-1)


def test_conv_params_arrays_are_frozen():
    p = ConvParams(1, 1, 1, 1, [1.0], [0.0])
    with pytest.raises(ValueError):
        p.weights[0, 0, 0, 0] = 2.0


@settings(max_examples=50)
@given(values=arrays(st.sampled_from([np.float32, np.float64]),
                     st.integers(1, 12),
                     elements=st.floats(-1e30, 1e30, allow_nan=False)))
def test_conv_params_hold_float64_rounded_through_float32(values):
    n = values.size
    p = ConvParams(n, 1, 1, 1, values, values)
    want = values.astype(np.float32).astype(np.float64)
    for held in (p.weights, p.bias):
        assert held.dtype == np.float64
        assert not held.flags.writeable
        assert held.flags.owndata
        assert not np.shares_memory(held, values)
        assert held.ravel().tobytes() == want.tobytes()


def test_conv_gemm_operands_are_views_of_the_held_weights(monkeypatch):
    """No per-call cast: every band multiplies by views of ``p.weights`` and
    ``p.bias`` themselves."""
    seen = []
    band = tensor_ops._conv_band

    def spy(call, r0, views):
        seen.append((call.w64, call.b64))
        return band(call, r0, views)

    monkeypatch.setattr(tensor_ops, "_conv_band", spy)
    rng = np.random.default_rng(3)
    p = ConvParams(4, 2, 3, 3, rng.standard_normal(72), rng.standard_normal(4),
                   pad=1)
    conv2d(rng.random((2, 5, 7), dtype=np.float32), p)
    assert seen
    for w64, b64 in seen:
        assert w64.dtype == b64.dtype == np.float64
        assert np.shares_memory(w64, p.weights)
        assert np.shares_memory(b64, p.bias)


@settings(max_examples=100)
@given(
    x=tensors(),
    seed=st.integers(0, 2**32 - 1),
    out_channels=st.integers(1, 3),
    kh=st.integers(1, 3),
    kw=st.integers(1, 3),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
)
def test_conv_shape_law(x, seed, out_channels, kh, kw, stride, pad):
    c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    rng = np.random.default_rng(seed)
    p = ConvParams(
        out_channels, c, kh, kw,
        rng.uniform(-1, 1, (out_channels, c, kh, kw)).astype(np.float32),
        rng.uniform(-1, 1, out_channels).astype(np.float32),
        stride=stride, pad=pad,
    )
    if oh < 1 or ow < 1:
        with pytest.raises(ShapeError):
            conv2d(x, p)
    else:
        assert conv2d(x, p).shape == (out_channels, oh, ow)


@settings(max_examples=100)
@given(x=tensors())
def test_conv_identity_1x1(x):
    c = x.shape[0]
    eye = np.zeros((c, c, 1, 1), dtype=np.float32)
    for i in range(c):
        eye[i, i, 0, 0] = 1.0
    p = ConvParams(c, c, 1, 1, eye, np.zeros(c, dtype=np.float32))
    out = conv2d(x, p)
    # array_equal, not byte equality: summation turns -0.0 into +0.0
    assert out.shape == x.shape and out.dtype == x.dtype
    assert np.array_equal(out, x)


@settings(max_examples=100)
@given(
    x=tensors(max_c=2, max_hw=6),
    seed=st.integers(0, 2**32 - 1),
    stride=st.integers(1, 2),
    pad=st.integers(0, 1),
)
def test_conv_matches_loop_oracle(x, seed, stride, pad):
    c, h, w = x.shape
    rng = np.random.default_rng(seed)
    kh = int(rng.integers(1, min(3, h + 2 * pad) + 1))
    kw = int(rng.integers(1, min(3, w + 2 * pad) + 1))
    weights = rng.uniform(-1, 1, (2, c, kh, kw)).astype(np.float32)
    bias = rng.uniform(-1, 1, 2).astype(np.float32)
    p = ConvParams(2, c, kh, kw, weights, bias, stride=stride, pad=pad)
    got = conv2d(x, p)
    want = conv2d_oracle(x, weights, bias, stride=stride, pad=pad)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


@settings(max_examples=100)
@given(x=tensors(), seed=st.integers(0, 2**32 - 1))
def test_conv_is_pure(x, seed):
    rng = np.random.default_rng(seed)
    c = x.shape[0]
    p = ConvParams(2, c, 1, 1, rng.uniform(-1, 1, (2, c, 1, 1)).astype(np.float32),
                   rng.uniform(-1, 1, 2).astype(np.float32))
    before = x.tobytes()
    one = conv2d(x, p)
    two = conv2d(x, p)
    assert one.tobytes() == two.tobytes()
    assert x.tobytes() == before


def untiled_conv2d(x, p):
    """One float64 GEMM over every output pixel, im2col built by slicing."""
    c, h, w = x.shape
    s = p.stride
    xp = np.pad(x, ((0, 0), (p.pad, p.pad), (p.pad, p.pad)))
    oh = (h + 2 * p.pad - p.kernel_h) // s + 1
    ow = (w + 2 * p.pad - p.kernel_w) // s + 1
    cols = np.empty((c, p.kernel_h, p.kernel_w, oh * ow), dtype=np.float64)
    for ci in range(c):
        for ky in range(p.kernel_h):
            for kx in range(p.kernel_w):
                cols[ci, ky, kx] = xp[ci, ky : ky + s * (oh - 1) + 1 : s,
                                      kx : kx + s * (ow - 1) + 1 : s].ravel()
    w64 = p.weights.reshape(p.out_channels, -1).astype(np.float64)
    acc = w64 @ cols.reshape(-1, oh * ow)
    acc += p.bias.astype(np.float64)[:, None]
    return acc.astype(np.float32).reshape(p.out_channels, oh, ow)


# (channels, height, width, kernel, stride, pad, out_channels) -> rows per
# band. The test restates conv2d's band rule and checks that each case gets
# the layout listed here.
BAND_CASES = {
    (3, 10, 1200, 3, 1, 1, 4): (4, 4, 2),
    (4, 23, 1500, 3, 2, 0, 5): (4, 4, 3),
    (2, 30, 2000, 3, 1, 0, 3): (3,) * 9 + (1,),
    # one output row is wider than a band: one row per band
    (3, 9, 9800, 3, 2, 1, 2): (1,) * 5,
    # weights exceed the budget, yet the layer is still banded
    (64, 6, 40, 7, 1, 3, 48): (1,) * 6,
    # conv5_2-like 7x7 pad 3: half the weight bytes set the band size
    (64, 14, 32, 7, 1, 3, 256): (4, 4, 4, 2),
    # stride 2 pad 1: the first and the last band both reach into padding
    (4, 15, 1999, 3, 2, 1, 3): (3, 3, 2),
}


def band_layout(c, k, oh, ow, oc):
    """Rows per band: a float64 column buffer of at most IM2COL_BAND_BYTES
    or half the float64 weight bytes, whichever is larger, and at least one
    row."""
    budget = max(IM2COL_BAND_BYTES, 8 * oc * c * k * k // 2)
    rows = min(oh, max(1, budget // (8 * c * k * k * ow)))
    return tuple(min(rows, oh - r0) for r0 in range(0, oh, rows))


def band_case(c, h, w, k, stride, pad, oc):
    """A seeded input and layer for one BAND_CASES shape."""
    rng = np.random.default_rng(c * 1000 + w)
    x = rng.uniform(-1, 1, (c, h, w)).astype(np.float32)
    p = ConvParams(
        oc, c, k, k,
        rng.uniform(-1, 1, (oc, c, k, k)).astype(np.float32),
        rng.uniform(-1, 1, oc).astype(np.float32),
        stride=stride, pad=pad,
    )
    return x, p


@pytest.mark.parametrize("c,h,w,k,stride,pad,oc", list(BAND_CASES))
def test_conv_bands_match_untiled_gemm_bytes(c, h, w, k, stride, pad, oc):
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    bands = band_layout(c, k, oh, ow, oc)
    assert bands == BAND_CASES[c, h, w, k, stride, pad, oc]
    if pad:
        # The first band always reads top padding; the last band reads
        # bottom padding as well as input rows.
        assert (oh - 1) * stride + k > h + pad
    x, p = band_case(c, h, w, k, stride, pad, oc)
    got = conv2d(x, p)
    want = untiled_conv2d(x, p)
    assert got.shape == (oc, oh, ow) and got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# conv2d bands run by threads blocked in help_until


@contextmanager
def helping_threads(count=1):
    """``count`` threads in ``help_until`` on one pending future; on exit
    the future completes and every thread must have returned."""
    threads_before = threading.active_count()
    pending = Future()
    # Daemon threads, so a helper that never returns fails the test
    # instead of hanging the interpreter at exit.
    threads = [threading.Thread(target=help_until, args=(pending,),
                                daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    try:
        yield threads
    finally:
        pending.set_result(None)
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert threading.active_count() == threads_before


def wrap_bands(monkeypatch, before=None, after=None):
    """Wrap ``tensor_ops._conv_band`` to call ``before()`` and ``after()``
    around each band, on the thread that runs it."""
    band = tensor_ops._conv_band

    def wrapped(*args):
        if before:
            before()
        band(*args)
        if after:
            after()

    monkeypatch.setattr(tensor_ops, "_conv_band", wrapped)


@pytest.mark.parametrize("c,h,w,k,stride,pad,oc", list(BAND_CASES))
def test_conv_bands_shared_with_a_helping_thread_match_untiled_bytes(
        monkeypatch, c, h, w, k, stride, pad, oc):
    x, p = band_case(c, h, w, k, stride, pad, oc)
    helped = []
    helper_ran = threading.Event()
    with helping_threads() as (helper,):
        def before():
            # The owner's first band waits until the helper has finished
            # one, so every case really is shared.
            if threading.current_thread() is not helper:
                assert helper_ran.wait(timeout=10)

        def after():
            if threading.current_thread() is helper:
                helped.append(1)
                helper_ran.set()

        wrap_bands(monkeypatch, before, after)
        got = conv2d(x, p)
    assert helped
    assert got.tobytes() == untiled_conv2d(x, p).tobytes()


def test_band_error_on_helping_thread_raises_from_conv2d(monkeypatch):
    x, p = band_case(*next(iter(BAND_CASES)))
    failed = threading.Event()
    with helping_threads() as (helper,):
        def before():
            if threading.current_thread() is helper:
                failed.set()
                raise RuntimeError("band failed on the helper")
            assert failed.wait(timeout=10)

        wrap_bands(monkeypatch, before)
        with pytest.raises(RuntimeError, match="band failed on the helper"):
            conv2d(x, p)
    # The helper survived its band's error and still helps.
    monkeypatch.undo()
    with helping_threads():
        assert conv2d(x, p).tobytes() == untiled_conv2d(x, p).tobytes()


@pytest.mark.parametrize("outcome", ["result", "exception", "done-before"])
def test_help_until_returns_when_its_future_is_done(outcome):
    threads_before = threading.active_count()
    future = Future()
    if outcome == "done-before":
        future.set_result(None)
        help_until(future)
        return
    thread = threading.Thread(target=help_until, args=(future,), daemon=True)
    thread.start()
    if outcome == "result":
        future.set_result(1)
    else:
        future.set_exception(RuntimeError("stage 1 failed"))
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert threading.active_count() == threads_before


def test_shared_bands_under_fast_thread_switching(monkeypatch):
    """More helpers than cores and a tiny switch interval: every band runs
    exactly once and the bytes stay those of the unbanded GEMM."""
    cases = [band_case(*case) for case in BAND_CASES]
    want = [untiled_conv2d(x, p).tobytes() for x, p in cases]
    lock = threading.Lock()
    ran = []

    def count():
        with lock:
            ran.append(1)

    wrap_bands(monkeypatch, after=count)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with helping_threads(3):
            # The owner runs on a thread of its own, so a lost wake-up
            # fails the join below instead of hanging the suite.
            owner = threading.Thread(target=lambda: results.extend(
                conv2d(x, p).tobytes() for _ in range(5) for x, p in cases),
                daemon=True)
            owner.start()
            owner.join(timeout=60)
            assert not owner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == want * 5
    assert len(ran) == 5 * sum(len(bands) for bands in BAND_CASES.values())


@pytest.mark.parametrize("fail", [False, True], ids=["bytes", "band-error"])
def test_priority_call_is_served_between_another_calls_own_bands(
        monkeypatch, fail):
    """A thread running a conv2d call of its own runs the unclaimed bands of
    a call made inside ``priority`` before its next own band, in buffers
    the priority call's owner allocated. Events fix
    the order: the other thread stops after its first own band until the
    priority call is posted, and the priority call's owner runs its first
    band only once the other thread has served one."""
    xo, po = band_case(*list(BAND_CASES)[0])   # 3 bands, the other's own
    xp, pp = band_case(*list(BAND_CASES)[2])   # 10 bands, the priority call
    first_own_done, posted, served = (threading.Event() for _ in range(3))
    log, results = [], {}
    band = tensor_ops._conv_band

    def logged_band(call, r0, views):
        on_other = threading.current_thread() is other
        if call.x is xp and not on_other:
            posted.set()
            assert served.wait(timeout=10)
        try:
            if fail and call.x is xp and on_other:
                raise RuntimeError("band failed while served")
            band(call, r0, views)
        finally:
            if on_other:
                log.append("own" if call.x is xo else "served")
                if call.x is xp:
                    served.set()
        if on_other and call.x is xo and not first_own_done.is_set():
            first_own_done.set()
            assert posted.wait(timeout=10)

    monkeypatch.setattr(tensor_ops, "_conv_band", logged_band)
    buffers = tensor_ops._ConvCall._buffers
    allocated = []

    def logged_buffers(call):
        allocated.append((threading.current_thread() is other, call.x is xp))
        return buffers(call)

    monkeypatch.setattr(tensor_ops._ConvCall, "_buffers", logged_buffers)
    threads_before = threading.active_count()
    other = threading.Thread(
        target=lambda: results.setdefault("own", conv2d(xo, po)), daemon=True)
    other.start()
    try:
        assert first_own_done.wait(timeout=10)
        with tensor_ops.priority():
            if fail:
                with pytest.raises(RuntimeError,
                                   match="band failed while served"):
                    conv2d(xp, pp)
            else:
                assert conv2d(xp, pp).tobytes() == \
                    untiled_conv2d(xp, pp).tobytes()
    finally:
        other.join(timeout=10)
    assert not other.is_alive()
    assert threading.active_count() == threads_before
    served_count = log.count("served")
    assert served_count >= 1
    assert log == ["own"] + ["served"] * served_count + ["own", "own"]
    assert results["own"].tobytes() == untiled_conv2d(xo, po).tobytes()
    assert not tensor_ops._priority_calls and not tensor_ops._open_calls
    # The priority call's owner allocated the serving thread's buffers.
    assert sorted(allocated) == [(False, True), (False, True), (True, False)]


class CountingBoard(threading.Condition):
    """The band board, counting how often a thread takes its lock."""

    def __init__(self):
        super().__init__()
        self.entered = 0

    def __enter__(self):
        self.entered += 1
        return super().__enter__()


def test_one_band_call_is_not_posted_and_raises_its_band_error(monkeypatch):
    x = np.random.default_rng(3).uniform(-1, 1, (2, 5, 6)).astype(np.float32)
    p = ConvParams(3, 2, 3, 3, np.ones((3, 2, 3, 3)), np.zeros(3), pad=1)
    board = CountingBoard()
    monkeypatch.setattr(tensor_ops, "_board", board)
    # A call of several bands is posted, which takes the lock.
    conv2d(*band_case(*next(iter(BAND_CASES))))
    assert board.entered > 0 and not tensor_ops._open_calls
    board.entered = 0
    assert conv2d(x, p).tobytes() == untiled_conv2d(x, p).tobytes()
    assert board.entered == 0 and not tensor_ops._open_calls

    seen = []

    def before():
        seen.append(list(tensor_ops._open_calls))
        raise RuntimeError("the only band failed")

    wrap_bands(monkeypatch, before)
    with pytest.raises(RuntimeError, match="the only band failed"):
        conv2d(x, p)
    assert seen == [[]]
    assert board.entered == 0 and not tensor_ops._open_calls


# ---------------------------------------------------------------------------
# maxpool2d / relu


def test_maxpool_single_window():
    out = maxpool2d(t([[[1, 2], [3, 4]]]), 2, 2)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == np.float32(4.0)


def test_maxpool_ramp():
    x = t(np.arange(16, dtype=np.float32).reshape(1, 4, 4))
    out = maxpool2d(x, 2, 2)
    np.testing.assert_array_equal(out, t([[[5, 7], [13, 15]]]))


def test_maxpool_constant():
    x = t(np.full((2, 4, 4), 3.25))
    out = maxpool2d(x, 2, 2)
    np.testing.assert_array_equal(out, np.full((2, 2, 2), np.float32(3.25)))


def test_maxpool_window_too_large():
    with pytest.raises(ShapeError, match="window"):
        maxpool2d(t(np.zeros((1, 2, 2))), 3, 1)


@settings(max_examples=100)
@given(x=tensors(max_hw=7), window=st.integers(1, 3), stride=st.integers(1, 3))
def test_maxpool_matches_loop_oracle(x, window, stride):
    _, h, w = x.shape
    if window > h or window > w:
        with pytest.raises(ShapeError):
            maxpool2d(x, window, stride)
        return
    got = maxpool2d(x, window, stride)
    np.testing.assert_array_equal(got, maxpool2d_oracle(x, window, stride))


@pytest.mark.parametrize("window,stride", [(3, 2), (1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("shape", [(2, 13, 17), (1, 16, 16), (3, 9, 24)])
def test_maxpool_matches_loop_oracle_on_larger_maps(shape, window, stride):
    x = np.random.default_rng(sum(shape)).uniform(-1, 1, shape).astype(np.float32)
    got = maxpool2d(x, window, stride)
    want = maxpool2d_oracle(x, window, stride)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("window,stride", [(2, 2), (2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("shape", [(3, 9, 11), (4, 32, 64)])
def test_maxpool_keeps_the_last_of_equal_values(shape, window, stride):
    """Windows mixing +0.0 and -0.0: the fold keeps the last zero in
    (dy, dx) order, which shows in the bytes."""
    rng = np.random.default_rng(window * 10 + stride + shape[1])
    x = np.where(rng.random(shape) < 0.5, np.float32(-0.0), np.float32(0.0))
    x[rng.random(shape) < 0.2] = -1.0
    got = maxpool2d(x, window, stride)
    want = maxpool2d_oracle(x, window, stride, keep_last=True)
    assert got.tobytes() == want.tobytes()
    # Kept by value alone (the first zero), some window would differ.
    assert got.tobytes() != maxpool2d_oracle(x, window, stride).tobytes()


@pytest.mark.parametrize("window,stride", [(1, 1), (2, 2), (3, 2)])
def test_maxpool_output_owns_its_memory(window, stride):
    x = np.random.default_rng(5).uniform(-1, 1, (2, 8, 9)).astype(np.float32)
    before = x.copy()
    out = maxpool2d(x, window, stride)
    assert not np.shares_memory(out, x)
    out[...] = 7.0
    assert x.tobytes() == before.tobytes()


def test_relu_examples():
    np.testing.assert_array_equal(
        relu(t([[[-1, 0, 2]]])), t([[[0, 0, 2]]])
    )
    x = t(np.abs(np.arange(-4, 4, dtype=np.float32)).reshape(1, 2, 4))
    np.testing.assert_array_equal(relu(x), x)
    y = t([[[-1, 0, 2]]])
    assert relu(y, out=y) is y
    np.testing.assert_array_equal(y, t([[[0, 0, 2]]]))


# ---------------------------------------------------------------------------
# upsample_bilinear


def test_upsample_factor_one_is_identity():
    x = t(np.arange(12, dtype=np.float32).reshape(3, 2, 2))
    out = upsample_bilinear(x, 1)
    assert out.tobytes() == x.tobytes()
    assert out is not x


def test_upsample_constant_cell():
    out = upsample_bilinear(t([[[5.0]]]), 4)
    np.testing.assert_array_equal(out, np.full((1, 4, 4), np.float32(5.0)))


def test_upsample_two_point_row():
    out = upsample_bilinear(t([[[0.0, 2.0]]]), 2)
    assert out.shape == (1, 2, 4)
    np.testing.assert_array_equal(
        out, t([[[0.0, 0.5, 1.5, 2.0], [0.0, 0.5, 1.5, 2.0]]])
    )


def test_upsample_bad_factor():
    with pytest.raises(ValueError):
        upsample_bilinear(t([[[1.0]]]), 0)
    with pytest.raises(ValueError):
        upsample_bilinear(t([[[1.0]]]), 2.0)


@settings(max_examples=100)
@given(
    fill=st.floats(-100, 100, width=32),
    c=st.integers(1, 3),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    factor=st.integers(1, 4),
)
def test_upsample_constant_stays_constant(fill, c, h, w, factor):
    x = np.full((c, h, w), fill, dtype=np.float32)
    out = upsample_bilinear(x, factor)
    assert out.shape == (c, h * factor, w * factor)
    assert (out == np.float32(fill)).all()


@settings(max_examples=100)
@given(x=tensors(max_c=2, max_hw=5), factor=st.integers(2, 4))
def test_upsample_matches_formula_oracle(x, factor):
    got = upsample_bilinear(x, factor)
    want = upsample_bilinear_oracle(x, factor)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


# Any float32, with NaN, both infinities and both zeros drawn often.
SPECIAL_FLOATS = st.floats(width=32) | st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(1, 3).flatmap(lambda c: st.integers(1, 9).flatmap(
        lambda h: st.integers(1, 9).flatmap(lambda w: arrays(
            np.float32, (c, h, w), elements=SPECIAL_FLOATS)))),
    factor=st.integers(1, 8),
)
def test_upsample_matches_frozen_fancy_index_copy_bytes(x, factor):
    with np.errstate(all="ignore"):
        got = upsample_bilinear(x, factor)
        want = upsample_bilinear_fancy(x, factor)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_upsample_coordinates_are_cached_and_read_only():
    upsample_bilinear(t(np.zeros((1, 3, 5))), 4)
    coords = tensor_ops._axis_coords(3, 4) + tensor_ops._axis_coords(5, 4)
    for a in coords:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    # Later calls share the same arrays.
    assert all(a is b for a, b in zip(
        coords, tensor_ops._axis_coords(3, 4) + tensor_ops._axis_coords(5, 4)))


# ---------------------------------------------------------------------------
# crop_center / add / mean_abs_diff


def test_crop_identity():
    x = t(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
    assert crop_center(x, 2, 2).tobytes() == x.tobytes()


def test_crop_center_of_odd_ramp():
    x = t(np.arange(9, dtype=np.float32).reshape(1, 3, 3))
    out = crop_center(x, 1, 1)
    assert out[0, 0, 0] == np.float32(4.0)


def test_crop_offset_formula():
    x = t(np.arange(16, dtype=np.float32).reshape(1, 4, 4))
    np.testing.assert_array_equal(crop_center(x, 2, 2), t([[[5, 6], [9, 10]]]))


def test_crop_too_large():
    with pytest.raises(ShapeError, match="exceeds"):
        crop_center(t(np.zeros((1, 2, 2))), 3, 1)


def test_add_examples():
    a = t([[[1, 2]]])
    np.testing.assert_array_equal(add(a, t([[[3, 4]]])), t([[[4, 6]]]))
    np.testing.assert_array_equal(add(a, np.zeros_like(a)), a)
    np.testing.assert_array_equal(add(a, -a), np.zeros_like(a))
    with pytest.raises(ShapeError):
        add(a, t([[[1.0]]]))


@settings(max_examples=100)
@given(
    abc=st.integers(1, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).uniform(
            -1e3, 1e3, (3, 2, 3, 3)
        ).astype(np.float32)
    )
)
def test_add_commutes_and_associates(abc):
    a, b, c = abc[0], abc[1], abc[2]
    assert np.array_equal(add(a, b), add(b, a))
    # relative 1e-6; the absolute floor covers cancellation near zero,
    # where one reassociation step can move the result by an ulp of the
    # largest intermediate (about 1e-3 for values bounded by 1e3)
    np.testing.assert_allclose(
        add(add(a, b), c), add(a, add(b, c)), rtol=1e-6, atol=1e-3
    )


def test_mean_abs_diff_examples():
    x = t([[[1, 2], [3, 4]]])
    assert mean_abs_diff(x, x) == 0.0
    assert mean_abs_diff(t([[[0.0, 0.0]]]), t([[[1.0, 3.0]]])) == 2.0
    with pytest.raises(ShapeError):
        mean_abs_diff(x, t([[[1.0]]]))


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 3),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
)
def test_mean_abs_diff_pseudometric(seed, c, h, w):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, (c, h, w)).astype(np.float32)
    b = rng.uniform(-10, 10, (c, h, w)).astype(np.float32)
    cc = rng.uniform(-10, 10, (c, h, w)).astype(np.float32)
    assert mean_abs_diff(a, b) >= 0.0
    assert mean_abs_diff(a, b) == mean_abs_diff(b, a)
    assert mean_abs_diff(a, a.copy()) == 0.0
    assert mean_abs_diff(a, cc) <= mean_abs_diff(a, b) + mean_abs_diff(b, cc) + 1e-6
