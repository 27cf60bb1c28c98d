import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cwseg import (
    DEFAULT_PALETTE,
    FileFormatError,
    NetConfig,
    ShapeError,
    build_net,
    decode_gt_mask,
    gen_weights,
    layer_specs,
    palette_hits,
    parse_palette,
    read_image,
    read_manifest,
    read_pnm,
    read_weights,
    write_image,
    write_mask,
    write_pnm,
    write_weights,
)
from cwseg.media_io import _splitmix64_unit
from oracles import (
    decode_gt_mask_int64,
    splitmix64_oracle,
    write_mask_joined,
    write_pnm_joined,
    write_weights_joined,
)


# ---------------------------------------------------------------------------
# PNM decode/encode


def test_p5_scaling_example(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
    img = read_image(path)
    assert img.shape == (1, 2, 2)
    np.testing.assert_array_equal(
        img, np.array([[[0, 1], [0, 1]]], dtype=np.float32)
    )


def test_p6_channel_unpack(tmp_path):
    path = tmp_path / "a.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = read_image(path)
    assert img.shape == (3, 1, 1)
    np.testing.assert_array_equal(img.ravel(), [1.0, 0.0, 0.0])


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5 # comment\n# another line\n 2\t1 # w h\n255\n" + bytes([7, 9]))
    px = read_pnm(path)
    assert px.tolist() == [[7, 9]]


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(FileFormatError, match="byte"):
        read_pnm(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2")
    with pytest.raises(FileFormatError, match="truncated"):
        read_pnm(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "a.pnm"
    path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(FileFormatError, match="magic"):
        read_pnm(path)


def test_wrong_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FileFormatError, match="maxval"):
        read_pnm(path)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), rgb=st.booleans())
def test_pnm_round_trip_random_payloads(seed, rgb, tmp_path_factory):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
    shape = (h, w, 3) if rgb else (h, w)
    px = rng.integers(0, 256, shape).astype(np.uint8)
    path = tmp_path_factory.mktemp("pnm") / "x.pnm"
    write_pnm(path, px)
    got = read_pnm(path)
    np.testing.assert_array_equal(got, px)
    # The payload is parsed from a read-only view of the file's bytes; the
    # caller still gets its own array.
    assert got.flags.writeable and got.flags.owndata


@pytest.mark.parametrize("shape", [(1, 1), (5, 9), (1, 1, 3), (6, 11, 3),
                                   (64, 128, 3)])
def test_read_image_matches_widen_then_divide(shape, tmp_path):
    rng = np.random.default_rng(sum(shape))
    px = rng.integers(0, 256, shape).astype(np.uint8)
    px.flat[:2] = (0, 255)
    path = tmp_path / "x.pnm"
    write_pnm(path, px)
    chw = px[np.newaxis] if px.ndim == 2 else np.transpose(px, (2, 0, 1))
    want = np.ascontiguousarray(chw.astype(np.float32) / np.float32(255.0))
    got = read_image(path)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.flags.c_contiguous and got.flags.owndata
    assert got.tobytes() == want.tobytes()


def test_image_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    px = rng.integers(0, 256, (9, 7, 3)).astype(np.uint8)
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    write_pnm(p1, px)
    write_image(p2, read_image(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_write_pnm_validation(tmp_path):
    with pytest.raises(ShapeError):
        write_pnm(tmp_path / "x", np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        write_pnm(tmp_path / "x", np.zeros((2, 2, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# ground-truth masks, matched on their uint8 planes


def rgb_planes(colors):
    """(H, W, 3) nested list of byte colours -> uint8 planes (3, H, W), as
    ``read_image(path, scaled=False)`` returns them."""
    arr = np.asarray(colors, dtype=np.uint8)
    return np.ascontiguousarray(np.transpose(arr, (2, 0, 1)))


def test_all_magenta_is_all_road():
    img = rgb_planes([[(255, 0, 255)] * 3] * 2)
    np.testing.assert_array_equal(
        decode_gt_mask(img, DEFAULT_PALETTE), np.ones((2, 3), dtype=np.int64)
    )


def test_checkerboard_alternates():
    img = rgb_planes([
        [(255, 0, 255), (0, 0, 0)],
        [(0, 0, 0), (255, 0, 255)],
    ])
    np.testing.assert_array_equal(
        decode_gt_mask(img, DEFAULT_PALETTE), [[1, 0], [0, 1]]
    )


def test_unknown_color_names_pixel():
    img = rgb_planes([[(255, 0, 255), (12, 34, 56)]])
    with pytest.raises(FileFormatError, match=r"row 0, col 1.*\(12, 34, 56\)"):
        decode_gt_mask(img, DEFAULT_PALETTE)


_BYTE = st.integers(0, 255)
_COLOURS = st.tuples(_BYTE, _BYTE, _BYTE)
_OFF_RANGE = st.sampled_from([(256, 0, 0), (-1, 0, 255), (0, 300, 0)])


def _mask_file(data, tmp_path_factory):
    """A P6 mask file and a palette of 1 to 19 colours, which may repeat a
    colour and hold an entry outside 0..255. Each pixel is a palette colour
    or any byte colour."""
    palette = data.draw(st.lists(_COLOURS, min_size=1, max_size=19))
    if data.draw(st.booleans()):
        palette.insert(data.draw(st.integers(0, len(palette))),
                       palette[data.draw(st.integers(0, len(palette) - 1))])
    if data.draw(st.booleans()):
        palette[data.draw(st.integers(0, len(palette) - 1))] = \
            data.draw(_OFF_RANGE)
    h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    in_range = [c for c in palette if max(c) <= 255 and min(c) >= 0]
    pixel = st.one_of(st.sampled_from(in_range), _COLOURS) if in_range else _COLOURS
    pixels = data.draw(st.lists(pixel, min_size=h * w, max_size=h * w))
    path = tmp_path_factory.mktemp("mask") / "m.ppm"
    write_pnm(path, np.array(pixels, dtype=np.uint8).reshape(h, w, 3))
    return path, tuple(palette)


def _or_error(fn, image, palette):
    try:
        return fn(image, palette)
    except FileFormatError as exc:
        return str(exc)


def _hits_of(labels, count):
    """The (count, H, W) block of ``labels == i``, or an error text as is."""
    if isinstance(labels, str):
        return labels
    return np.stack([labels == i for i in range(count)])


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decode_gt_mask_matches_int64_decode(tmp_path_factory, data):
    """The labels of a P6 file's planes, or the error, are those of the
    int64 decode of its [0, 1] image."""
    path, palette = _mask_file(data, tmp_path_factory)
    got = _or_error(decode_gt_mask, read_image(path, scaled=False), palette)
    _assert_same(got, _or_error(decode_gt_mask_int64, read_image(path), palette))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_palette_hits_errors_and_labels_match_decode_gt_mask(tmp_path_factory,
                                                             data):
    path, palette = _mask_file(data, tmp_path_factory)
    planes = read_image(path, scaled=False)
    got = _or_error(palette_hits, planes, palette)
    want = _hits_of(_or_error(decode_gt_mask, planes, palette), len(palette))
    _assert_same(got, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_palette_hits_of_planes_match_the_scaled_image(tmp_path_factory, data):
    """A P6 mask file's planes give the hits, or the error, of the int64
    decode of its [0, 1] image."""
    path, palette = _mask_file(data, tmp_path_factory)
    got = _or_error(palette_hits, read_image(path, scaled=False), palette)
    want = _or_error(decode_gt_mask_int64, read_image(path), palette)
    _assert_same(got, _hits_of(want, len(palette)))


@pytest.mark.parametrize("channels", [1, 2, 4])
def test_palette_hits_non_rgb_error_matches_decode_gt_mask(channels):
    image = np.zeros((channels, 2, 3), dtype=np.uint8)
    with pytest.raises(ShapeError) as want:
        decode_gt_mask(image, DEFAULT_PALETTE)
    with pytest.raises(ShapeError) as got:
        palette_hits(image, DEFAULT_PALETTE)
    assert str(got.value) == str(want.value) == (
        f"mask image must be RGB (3 channels), got {channels}")


def test_repeated_palette_colour_takes_its_last_index():
    img = rgb_planes([[(255, 0, 255), (0, 0, 0), (255, 0, 255)]])
    palette = ((255, 0, 255), (0, 0, 0), (255, 0, 255))
    hits = palette_hits(img, palette)
    assert [h.tolist() for h in hits] == [[[False] * 3],
                                          [[False, True, False]],
                                          [[True, False, True]]]
    assert decode_gt_mask(img, palette).tolist() == [[2, 1, 2]]
    assert decode_gt_mask(img, palette).tolist() == \
        decode_gt_mask_int64(img / np.float32(255.0), palette).tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_images_other_than_uint8_planes_are_refused(dtype):
    """A [0, 1] float image, or integer planes wider than bytes, is not a
    mask's planes: it is refused before any pixel is read."""
    image = rgb_planes([[(255, 0, 255), (0, 0, 0)]]).astype(dtype)
    for fn in (palette_hits, decode_gt_mask):
        with pytest.raises(ShapeError, match="uint8 planes"):
            fn(image, DEFAULT_PALETTE)
        with pytest.raises(ShapeError, match="uint8 planes"):
            fn(image / 255.0, DEFAULT_PALETTE)


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    palette = ((0, 0, 0), (255, 0, 255), (0, 128, 255))
    mask = rng.integers(0, 3, (11, 5))
    path = tmp_path / "m.ppm"
    write_mask(mask, palette, path)
    np.testing.assert_array_equal(
        decode_gt_mask(read_image(path, scaled=False), palette), mask)


def test_write_mask_validation(tmp_path):
    with pytest.raises(ShapeError):
        write_mask(np.array([[2]]), DEFAULT_PALETTE, tmp_path / "m.ppm")
    with pytest.raises(ShapeError):
        write_mask(np.array([[0.5]]), DEFAULT_PALETTE, tmp_path / "m.ppm")


def test_parse_palette():
    assert parse_palette("0,0,0:255,0,255") == ((0, 0, 0), (255, 0, 255))
    with pytest.raises(FileFormatError):
        parse_palette("0,0:255,0,255")
    with pytest.raises(FileFormatError):
        parse_palette("0,0,0:255,0,300")
    with pytest.raises(FileFormatError):
        parse_palette("0,0,0")
    with pytest.raises(FileFormatError):
        parse_palette("1,2,3:1,2,3")


@pytest.mark.parametrize("shape", [(1, 1), (5, 9), (1, 1, 3), (6, 11, 3)])
def test_unscaled_planes_are_the_rounded_scaled_image(shape, tmp_path):
    rng = np.random.default_rng(sum(shape) + 1)
    px = rng.integers(0, 256, shape).astype(np.uint8)
    px.flat[:2] = (0, 255)
    path = tmp_path / "x.pnm"
    write_pnm(path, px)
    planes = read_image(path, scaled=False)
    want = np.rint(read_image(path) * np.float32(255.0)).astype(np.uint8)
    assert planes.dtype == np.uint8 and planes.shape == want.shape
    assert planes.tobytes() == want.tobytes()


def test_p5_mask_planes_are_refused_as_not_rgb(tmp_path):
    path = tmp_path / "gray.pgm"
    write_pnm(path, np.zeros((2, 3), dtype=np.uint8))
    planes = read_image(path, scaled=False)
    with pytest.raises(ShapeError) as want:
        decode_gt_mask(planes, DEFAULT_PALETTE)
    with pytest.raises(ShapeError) as got:
        palette_hits(planes, DEFAULT_PALETTE)
    assert str(got.value) == str(want.value) == (
        "mask image must be RGB (3 channels), got 1")


@pytest.mark.parametrize("shape", [(3, 4), (3, 0, 2), (3, 2, 2, 1)])
def test_planes_of_the_wrong_shape_are_refused(shape):
    with pytest.raises(ShapeError, match="uint8 planes"):
        palette_hits(np.zeros(shape, dtype=np.uint8), DEFAULT_PALETTE)


def test_palette_entry_outside_bytes_matches_no_pixel(tmp_path):
    path = tmp_path / "m.ppm"
    write_mask(np.array([[0, 1, 1]]), DEFAULT_PALETTE, path)
    palette = DEFAULT_PALETTE + ((256, 0, 255), (-1, 0, 0), (255, 0, 1000),
                                 (2**70, 0, 0))
    hits = palette_hits(read_image(path, scaled=False), palette)
    assert [h.tolist() for h in hits] == [[[True, False, False]],
                                          [[False, True, True]]] + \
        [[[False] * 3]] * 4


# ---------------------------------------------------------------------------
# weight store


def test_weight_store_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    store = {
        "conv": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
        "conv.bias": rng.standard_normal(2).astype(np.float32),
        "empty_name_ok": np.zeros((1,), dtype=np.float32),
    }
    path = tmp_path / "w.cwf"
    write_weights(store, path)
    back = read_weights(path)
    assert list(back.keys()) == list(store.keys())
    for name in store:
        assert back[name].shape == store[name].shape
        assert back[name].tobytes() == store[name].tobytes()


def test_weight_store_preserves_arbitrary_bit_patterns(tmp_path):
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    arr = np.frombuffer(raw, dtype="<f4").reshape(4, 4).copy()
    path = tmp_path / "w.cwf"
    write_weights({"blob": arr}, path)
    assert read_weights(path)["blob"].tobytes() == arr.tobytes()


def test_weight_store_entries_are_read_only_views(tmp_path):
    rng = np.random.default_rng(6)
    store = {"a": rng.standard_normal((3, 2)).astype(np.float32),
             "b": np.float32(2.5), "c": np.zeros((0, 4), dtype=np.float32)}
    path = tmp_path / "w.cwf"
    write_weights(store, path)
    first_bytes = path.read_bytes()
    back = read_weights(path)
    for name, arr in back.items():
        assert arr.dtype == np.float32
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        back["a"][0, 0] = 1.0
    write_weights(back, path)
    assert path.read_bytes() == first_bytes


def _read_weights_error(path, body):
    path.write_bytes(body)
    with pytest.raises(FileFormatError) as info:
        read_weights(path)
    return str(info.value)


def test_weight_store_bad_magic(tmp_path):
    path = tmp_path / "w.cwf"
    assert _read_weights_error(path, b"CWFCN2" + bytes(8)) == (
        f"{path}: bad magic b'CWFCN2', expected b'CWFCN1' "
        f"(unsupported or wrong format version)"
    )


def test_weight_store_truncated_payload_names_entry(tmp_path):
    path = tmp_path / "w.cwf"
    body = (b"CWFCN1" + (1).to_bytes(4, "little")
            + (4).to_bytes(4, "little") + b"conv"
            + (2).to_bytes(4, "little")
            + (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
            + bytes(8))  # needs 16 payload bytes, has 8
    assert _read_weights_error(path, body) == (
        f"{path}: truncated at byte offset 30 while reading entry 'conv' "
        f"payload (16 bytes needed, 8 remain)"
    )


def test_weight_store_name_not_utf8(tmp_path):
    path = tmp_path / "w.cwf"
    body = (b"CWFCN1" + (1).to_bytes(4, "little")
            + (2).to_bytes(4, "little") + b"\xff\xfe")
    assert _read_weights_error(path, body) == f"{path}: entry 0 name is not UTF-8"


def test_weight_store_duplicate_entry(tmp_path):
    entry = ((1).to_bytes(4, "little") + b"x"
             + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
             + bytes(4))
    path = tmp_path / "w.cwf"
    path.write_bytes(b"CWFCN1" + (2).to_bytes(4, "little") + entry + entry)
    with pytest.raises(FileFormatError, match="duplicate"):
        read_weights(path)


def test_weight_store_truncated_count(tmp_path):
    path = tmp_path / "w.cwf"
    path.write_bytes(b"CWFCN1\x01")
    with pytest.raises(FileFormatError, match="count"):
        read_weights(path)


# ---------------------------------------------------------------------------
# writers, byte-equal to frozen copies of the joined-bytes writers


def _layout(arr, how):
    """``arr`` as is, as a non-contiguous view of a larger array, or as a
    Fortran-ordered copy."""
    if how == "strided":
        big = np.zeros((2 * arr.shape[0],) + arr.shape[1:], dtype=arr.dtype)
        big[::2] = arr
        return big[::2]
    if how == "fortran":
        return np.asfortranarray(arr)
    return arr


_LAYOUTS = st.sampled_from(["c", "strided", "fortran"])


@settings(max_examples=60)
@given(px=st.integers(1, 6).flatmap(lambda h: st.integers(1, 6).flatmap(
           lambda w: st.sampled_from([(h, w), (h, w, 3)]).flatmap(
               lambda shape: arrays(np.uint8, shape)))),
       how=_LAYOUTS)
def test_write_pnm_matches_joined_writer(tmp_path_factory, px, how):
    d = tmp_path_factory.mktemp("pnm")
    write_pnm(d / "new", _layout(px, how))
    write_pnm_joined(d / "old", _layout(px, how))
    assert (d / "new").read_bytes() == (d / "old").read_bytes()


@settings(max_examples=60)
@given(n=st.integers(1, 5), h=st.integers(1, 6), w=st.integers(1, 6),
       dtype=st.sampled_from([np.int8, np.uint8, np.int32, np.int64,
                              np.uint64, np.intp]),
       seed=st.integers(0, 2**32 - 1), how=_LAYOUTS)
def test_write_mask_matches_joined_writer(tmp_path_factory, n, h, w, dtype,
                                          seed, how):
    rng = np.random.default_rng(seed)
    palette = tuple(tuple(int(v) for v in c)
                    for c in rng.integers(0, 256, (n, 3)))
    mask = _layout(rng.integers(0, n, (h, w)).astype(dtype), how)
    d = tmp_path_factory.mktemp("mask")
    write_mask(mask, palette, d / "new.ppm")
    write_mask_joined(mask, palette, d / "old.ppm")
    assert (d / "new.ppm").read_bytes() == (d / "old.ppm").read_bytes()


_ENTRY = st.integers(0, 4).flatmap(
    lambda rank: arrays(st.sampled_from([np.float32, np.float64]),
                        st.tuples(*[st.integers(0, 3)] * rank),
                        elements=st.floats(allow_nan=False, width=32)))


@settings(max_examples=60)
@given(entries=st.lists(st.tuples(st.text(max_size=5), _ENTRY, _LAYOUTS),
                        max_size=4, unique_by=lambda e: e[0]))
def test_write_weights_matches_joined_writer(tmp_path_factory, entries):
    store = {name: (_layout(a, how) if a.ndim else a)
             for name, a, how in entries}
    d = tmp_path_factory.mktemp("cwf")
    write_weights(store, d / "new.cwf")
    write_weights_joined(store, d / "old.cwf")
    assert (d / "new.cwf").read_bytes() == (d / "old.cwf").read_bytes()


def test_writers_leave_no_file_on_a_bad_array(tmp_path):
    good = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        write_weights({"good": good, "bad": np.array(["x"])}, tmp_path / "w.cwf")
    with pytest.raises(ShapeError):
        write_pnm(tmp_path / "p.pgm", np.zeros((2, 2, 4), dtype=np.uint8))
    with pytest.raises(ShapeError):
        write_mask(np.array([[0, 2]]), DEFAULT_PALETTE, tmp_path / "m.ppm")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", [
    ("x" * 5000, np.zeros(1, np.float32)),
    ("\u00e9" * 2049, np.zeros(1, np.float32)),  # 4098 UTF-8 bytes
    ("a", np.zeros((1,) * 33, np.float32)),
    ("\udc80", np.zeros(1, np.float32)),
    ("z", np.empty((0, 1 << 32), np.float32)),
], ids=["5000-char-name", "4098-byte-name", "rank-33", "lone-surrogate",
        "dim-over-u32"])
def test_write_weights_refuses_entries_read_weights_refuses(tmp_path, entry):
    """Refused with a FileFormatError naming the entry, before the file is
    opened: no file is left, as read_weights would refuse it."""
    name, arr = entry
    store = {"good": np.ones(2, np.float32), name: arr}
    with pytest.raises(FileFormatError, match=f"^{tmp_path / 'w.cwf'}: entry 1 "):
        write_weights(store, tmp_path / "w.cwf")
    assert list(tmp_path.iterdir()) == []


def _readable(name, shape):
    """Whether read_weights accepts an entry of this name and shape."""
    try:
        size = len(name.encode("utf-8"))
    except UnicodeEncodeError:
        return False
    return size <= 4096 and len(shape) <= 32 and max(shape, default=0) < 1 << 32


@st.composite
def _stores(draw):
    """Stores with names about the 4096-byte limit or holding a lone
    surrogate, ranks up to 34, and zero-size entries with a dim over u32."""
    store = {}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.text(max_size=4)) + draw(st.sampled_from(
            ["", "\udc80", "x" * 4092, "\u00e9" * 2047, "\U0001f600" * 1023]))
        shape = [1] * draw(st.integers(0, 34))
        for _ in range(min(3, len(shape))):
            shape[draw(st.integers(0, len(shape) - 1))] = draw(
                st.sampled_from([0, 2, 3]))
        if 0 in shape and draw(st.booleans()):
            shape.insert(0, 1 << 32)  # still zero-size
        store[name] = (np.empty(shape, np.float32) if 0 in shape else draw(
            arrays(np.float32, tuple(shape), elements=st.floats(width=32))))
    return store


@settings(max_examples=100, deadline=None)
@given(store=_stores())
def test_write_weights_round_trips_every_store_it_accepts(tmp_path_factory,
                                                          store):
    """write_weights accepts exactly the stores read_weights reads back,
    and those come back with the same names, shapes and bits, a 0-d entry
    included."""
    path = tmp_path_factory.mktemp("cwf") / "w.cwf"
    readable = all(_readable(n, a.shape) for n, a in store.items())
    if not readable:
        with pytest.raises(FileFormatError):
            write_weights(store, path)
        assert not path.exists()
        return
    write_weights(store, path)
    back = read_weights(path)
    assert list(back) == list(store)
    for name, arr in store.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


# ---------------------------------------------------------------------------
# generated weights


def test_gen_weights_deterministic_and_seed_sensitive():
    cfg = NetConfig(base_width=2, height=32, width=32)
    a = gen_weights(cfg, 42)
    b = gen_weights(cfg, 42)
    c = gen_weights(cfg, 43)
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)
    assert any(a[k].tobytes() != c[k].tobytes() for k in a)


def test_gen_weights_satisfies_build_net():
    cfg = NetConfig(base_width=2, height=32, width=32)
    store = gen_weights(cfg, 9)
    build_net(cfg, store)  # must not raise
    for spec in layer_specs(cfg):
        assert spec.name in store
        assert spec.name + ".bias" in store
        assert not store[spec.name + ".bias"].any()
        fan_in = spec.in_channels * spec.kernel ** 2
        fan_out = spec.out_channels * spec.kernel ** 2
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = store[spec.name]
        assert w.dtype == np.float32
        assert float(np.abs(w).max()) <= bound


def test_generator_matches_scalar_oracle():
    for seed in (0, 42, 2**63):
        got = _splitmix64_unit(seed, 0, 8)
        want = splitmix64_oracle(seed, 8)
        np.testing.assert_array_equal(got, np.array(want))
    # stream segmentation: reading in two chunks equals one read
    whole = _splitmix64_unit(7, 0, 10)
    parts = np.concatenate([_splitmix64_unit(7, 0, 4), _splitmix64_unit(7, 4, 6)])
    np.testing.assert_array_equal(whole, parts)


# ---------------------------------------------------------------------------
# manifests


def test_manifest_with_ground_truth(tmp_path):
    (tmp_path / "list.txt").write_text(
        "# a comment\nf0.ppm gt0.ppm\n\nf1.ppm gt1.ppm\n"
    )
    m = read_manifest(tmp_path / "list.txt")
    assert [p.name for p in m.frames] == ["f0.ppm", "f1.ppm"]
    assert [p.name for p in m.truths] == ["gt0.ppm", "gt1.ppm"]
    assert m.frames[0].parent == tmp_path


def test_manifest_frames_only(tmp_path):
    (tmp_path / "list.txt").write_text("f0.ppm\nf1.ppm\nf2.ppm\n")
    m = read_manifest(tmp_path / "list.txt")
    assert len(m.frames) == 3
    assert m.truths is None


def test_manifest_mixed_columns_rejected(tmp_path):
    (tmp_path / "list.txt").write_text("f0.ppm gt0.ppm\nf1.ppm\n")
    with pytest.raises(FileFormatError, match="all or none"):
        read_manifest(tmp_path / "list.txt")


def test_manifest_too_many_columns(tmp_path):
    (tmp_path / "list.txt").write_text("a b c\n")
    with pytest.raises(FileFormatError, match="columns"):
        read_manifest(tmp_path / "list.txt")


def test_manifest_nul_byte_names_its_line(tmp_path):
    """A path cannot hold a NUL byte; the manifest line is refused before
    any file is opened by it."""
    path = tmp_path / "list.txt"
    path.write_bytes(b"f0.ppm\nf\x001.ppm\n")
    with pytest.raises(FileFormatError) as exc:
        read_manifest(path)
    assert str(exc.value) == f"{path}:2: holds a NUL byte"


def test_empty_manifest_rejected(tmp_path):
    (tmp_path / "list.txt").write_text("# nothing\n\n")
    with pytest.raises(FileFormatError, match="no frames"):
        read_manifest(tmp_path / "list.txt")
