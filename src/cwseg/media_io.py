"""File interfaces: PPM/PGM frames, color ground-truth masks, weight stores,
and sequence manifests. Everything here is bit-exact and dependency-free on
purpose so golden files stay stable across platforms.

PNM payloads are parsed from a read-only view of the file's bytes;
``read_pnm`` returns a copy the caller owns, and ``read_image`` scales the
pixels into its float32 tensor from that view. A ground-truth mask is
matched on its bytes: ``read_image(path, scaled=False)`` returns its
de-interleaved uint8 planes, and ``palette_hits`` compares them with the
palette into one (K, H, W) boolean block, one mask per colour, which is
what ``eval`` counts. ``decode_gt_mask`` builds int64 labels from that
block, with the same checks and errors. No float image is built for a mask.

Weight store format (magic ``CWFCN1``), all integers little-endian:

    magic       6 bytes  b"CWFCN1"
    count       u32      number of entries
    per entry:
      name_len  u32
      name      name_len bytes, UTF-8
      rank      u32
      dims      rank x u32
      payload   prod(dims) x f32

Synthetic weights come from a counter-based splitmix64 stream so the same
(config, seed) pair always yields bit-identical stores; the exact recipe is
documented on :func:`gen_weights`.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import FileFormatError, ShapeError
from .metrics import index_map
from .tensor_ops import Tensor, as_chw
from .net import NetConfig, layer_specs

Color = tuple[int, int, int]

# index 0 = background (black), index 1 = road (magenta)
DEFAULT_PALETTE: tuple[Color, ...] = ((0, 0, 0), (255, 0, 255))

_WHITESPACE = b" \t\r\n\x0b\x0c"


# ---------------------------------------------------------------------------
# PPM (P6) / PGM (P5), binary, 8-bit only


def _next_token(data: bytes, pos: int, path, what: str) -> tuple[bytes, int]:
    """Return (token, end_pos), skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord('#'):
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != ord('#'):
        pos += 1
    if start == pos:
        raise FileFormatError(
            f"{path}: header truncated at byte offset {pos} while reading {what}"
        )
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, path, what: str) -> tuple[int, int]:
    tok, pos = _next_token(data, pos, path, what)
    try:
        value = int(tok)
    except ValueError:
        raise FileFormatError(f"{path}: bad {what} token {tok!r}") from None
    return value, pos


def _pnm_pixels(path) -> np.ndarray:
    """Parse a binary PGM (P5) or PPM (P6) file into a read-only uint8 view
    of its pixel payload: (H, W) for P5, (H, W, 3) for P6. Only maxval 255
    is accepted."""
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0, path, "magic")
    if magic not in (b"P5", b"P6"):
        raise FileFormatError(
            f"{path}: unsupported magic {magic!r}, expected P5 or P6"
        )
    width, pos = _header_int(data, pos, path, "width")
    height, pos = _header_int(data, pos, path, "height")
    maxval, pos = _header_int(data, pos, path, "maxval")
    if width < 1 or height < 1:
        raise FileFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FileFormatError(f"{path}: maxval {maxval} not supported, need 255")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FileFormatError(
            f"{path}: missing whitespace after maxval at byte offset {pos}"
        )
    pos += 1
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    needed = math.prod(shape)
    avail = len(data) - pos
    if avail < needed:
        raise FileFormatError(
            f"{path}: truncated pixel payload, need {needed} bytes at byte "
            f"offset {pos} but file ends at byte {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8, count=needed,
                         offset=pos).reshape(shape)


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file.

    Returns writable uint8 arrays that own their data: (H, W) for P5,
    (H, W, 3) for P6. Only maxval 255 is accepted.
    """
    return _pnm_pixels(path).copy()


def write_pnm(path, pixels: np.ndarray) -> None:
    """Write uint8 pixels as binary PGM (H, W) or PPM (H, W, 3)."""
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
    px = np.ascontiguousarray(px)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(memoryview(px))


def read_image(path, scaled: bool = True) -> Tensor:
    """Read a PNM file as a float32 (C, H, W) tensor scaled to [0, 1].

    The pixels are read from a view of the file's bytes; a P6 file's
    channels are de-interleaved into one contiguous uint8 copy, so the one
    division that scales them reads contiguous planes. With
    ``scaled=False`` those uint8 (C, H, W) planes are returned as they are,
    unscaled; a P5 file's one plane is then a read-only view of its bytes.
    """
    px = _pnm_pixels(path)
    if px.ndim == 2:
        planes = px[np.newaxis, :, :]
    else:
        planes = np.empty((3,) + px.shape[:2], dtype=np.uint8)
        np.copyto(planes, np.transpose(px, (2, 0, 1)))
    if not scaled:
        return planes
    out = np.empty(planes.shape, dtype=np.float32)
    return np.divide(planes, np.float32(255.0), out=out)


def write_image(path, image: Tensor) -> None:
    """Write a [0, 1]-scaled (1|3, H, W) tensor as PGM or PPM."""
    chw = as_chw(image)
    if chw.shape[0] not in (1, 3):
        raise ShapeError(f"image must have 1 or 3 channels, got {chw.shape[0]}")
    px = np.rint(np.clip(chw, 0.0, 1.0) * 255.0).astype(np.uint8)
    if px.shape[0] == 1:
        write_pnm(path, px[0])
    else:
        write_pnm(path, np.transpose(px, (1, 2, 0)).copy())


# ---------------------------------------------------------------------------
# Color-coded ground truth masks


def palette_hits(image: np.ndarray,
                 palette: Sequence[Color] = DEFAULT_PALETTE) -> np.ndarray:
    """One boolean (H, W) mask per palette colour, as a (K, H, W) block: the
    pixels of an RGB mask that have that colour.

    The image is the uint8 (3, H, W) planes that ``read_image(path,
    scaled=False)`` returns, compared with the palette as they are; any
    other dtype or shape is a ShapeError. A colour listed twice marks its
    pixels in its last entry only, so no pixel is in two masks, and an
    entry outside 0..255 matches no pixel. Any pixel whose colour is not in
    the palette is an error naming the colour and location.
    """
    img = np.asarray(image)
    if img.dtype != np.uint8 or img.ndim != 3 or min(img.shape) < 1:
        raise ShapeError(f"expected (channels, height, width) uint8 planes, "
                         f"got {img.dtype} of shape {img.shape}")
    if img.shape[0] != 3:
        raise ShapeError(f"mask image must be RGB (3 channels), got {img.shape[0]}")
    shape = img.shape[1:]
    last = {tuple(color): i for i, color in enumerate(palette)}
    # An entry outside 0..255 is left out and its mask stays empty: not
    # every numpy compares uint8 with a Python int that uint8 cannot hold.
    live = [i for i in last.values() if all(0 <= v <= 255 for v in palette[i])]
    # One block for every mask: a block freed whole is reused by the next
    # call, where as many separate masks come back as fresh pages.
    hits = np.zeros((len(palette),) + shape, dtype=bool)
    equal = np.empty(shape, dtype=bool)
    for c, channel in enumerate(img):
        for i in live:
            if c == 0:
                np.equal(channel, palette[i][0], out=hits[i])
            else:
                hits[i] &= np.equal(channel, palette[i][c], out=equal)
    known = np.logical_or.reduce(hits, axis=0)
    if not known.all():
        row, col = divmod(int(np.argmin(known)), shape[1])
        color = tuple(int(v) for v in img[:, row, col])
        raise FileFormatError(
            f"mask pixel at row {row}, col {col} has color {color} "
            f"which is not in the palette"
        )
    return hits


def decode_gt_mask(image: np.ndarray,
                   palette: Sequence[Color] = DEFAULT_PALETTE) -> np.ndarray:
    """Map the uint8 planes of an RGB mask to int64 class labels via the
    palette, with the checks and errors of :func:`palette_hits`; a colour
    listed twice takes its last index."""
    return index_map(palette_hits(image, palette)).astype(np.int64)


def write_mask(mask: np.ndarray, palette: Sequence[Color], path) -> None:
    """Write integer class labels as an RGB palette image (inverse of
    decode); the palette must pass :func:`parse_palette`'s rule."""
    m = np.asarray(mask)
    if m.ndim != 2 or not np.issubdtype(m.dtype, np.integer):
        raise ShapeError(f"mask must be a 2-D integer array, got {m.dtype} {m.shape}")
    colors = _checked_palette((c, c) for c in palette)
    if m.size and (m.min() < 0 or m.max() >= len(colors)):
        raise ShapeError(
            f"mask labels must lie in [0, {len(colors)}), got range "
            f"[{m.min()}, {m.max()}]"
        )
    lut = np.asarray(colors, dtype=np.uint8)
    # take() gathers whole rows several times faster than lut[m].
    write_pnm(path, lut.take(m, axis=0))


def parse_palette(text: str) -> tuple[Color, ...]:
    """Parse "R,G,B:R,G,B:..." into a palette tuple, class index = position."""
    return _checked_palette((part, part.split(",")) for part in text.split(":"))


def _checked_palette(entries) -> tuple[Color, ...]:
    """The palette of (name, values) entries: three integers (or decimal
    strings) in 0..255 each, at least 2, all distinct, or FileFormatError."""
    colors: list[Color] = []
    for name, values in entries:
        try:  # a count other than 3 fails the unpacking with ValueError
            r, g, b = (int(v) if isinstance(v, str) else operator.index(v)
                       for v in values)
        except (TypeError, ValueError):
            raise FileFormatError(f"palette entry {name!r} is not R,G,B") from None
        if not 0 <= min(r, g, b) <= max(r, g, b) <= 255:
            raise FileFormatError(f"palette entry {name!r} out of range 0..255")
        colors.append((r, g, b))
    if len(colors) < 2:
        raise FileFormatError("palette needs at least 2 colors")
    if len(set(colors)) != len(colors):
        raise FileFormatError("palette colors must be distinct")
    return tuple(colors)


# ---------------------------------------------------------------------------
# Weight store (CWFCN1)

_MAGIC = b"CWFCN1"
# The longest entry name, in UTF-8 bytes, and the highest rank of a store.
_MAX_NAME_BYTES, _MAX_RANK = 4096, 32


class _Cursor:
    """Reads a weight store front to back; ``take`` returns zero-copy slices
    of the file's one buffer."""

    def __init__(self, data: bytes, path):
        self.data = memoryview(data)
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.data):
            raise FileFormatError(
                f"{self.path}: truncated at byte offset {self.pos} while "
                f"reading {what} ({n} bytes needed, "
                f"{len(self.data) - self.pos} remain)"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")


def write_weights(store: dict[str, np.ndarray], path) -> None:
    """Serialize a name -> float32 array map in CWFCN1 format.

    Entries are converted and checked before the file is opened, so a bad
    entry leaves no file; payloads are then written straight from arrays.
    """
    entries = []
    for i, (name, arr) in enumerate(store.items()):
        try:
            nb = name.encode("utf-8")
        except UnicodeEncodeError:
            raise FileFormatError(f"{path}: entry {i} name is not UTF-8") from None
        a = np.asarray(arr, dtype="<f4", order="C")
        if (len(nb) > _MAX_NAME_BYTES or a.ndim > _MAX_RANK
                or max(a.shape, default=0) >> 32):
            raise FileFormatError(
                f"{path}: entry {i} {name[:40]!r}: a {len(nb)}-byte name or shape "
                f"{a.shape} is over {_MAX_NAME_BYTES} bytes, rank {_MAX_RANK} or u32 dims")
        head = [len(nb).to_bytes(4, "little"), nb, a.ndim.to_bytes(4, "little")]
        head += [int(d).to_bytes(4, "little") for d in a.shape]
        entries.append((b"".join(head), a))
    with open(path, "wb") as fh:
        fh.write(_MAGIC + len(store).to_bytes(4, "little"))
        for head, a in entries:
            fh.write(head)
            fh.write(memoryview(a))


def read_weights(path) -> dict[str, np.ndarray]:
    """Read a CWFCN1 weight store; strict about magic, sizes and duplicates.

    Entries are read-only float32 views of the file's bytes, read once; copy
    an entry to change it.
    """
    cur = _Cursor(Path(path).read_bytes(), path)
    magic = bytes(cur.take(len(_MAGIC), "magic"))
    if magic != _MAGIC:
        raise FileFormatError(
            f"{path}: bad magic {magic!r}, expected {_MAGIC!r} "
            f"(unsupported or wrong format version)"
        )
    count = cur.u32("entry count")
    store: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = cur.u32(f"entry {i} name length")
        if name_len > _MAX_NAME_BYTES:
            raise FileFormatError(f"{path}: entry {i} name length {name_len} is absurd")
        try:
            name = str(cur.take(name_len, f"entry {i} name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: entry {i} name is not UTF-8") from exc
        if name in store:
            raise FileFormatError(f"{path}: duplicate entry '{name}'")
        rank = cur.u32(f"entry '{name}' rank")
        if rank > _MAX_RANK:
            raise FileFormatError(f"{path}: entry '{name}' rank {rank} is absurd")
        dims = tuple(cur.u32(f"entry '{name}' dim {d}") for d in range(rank))
        n_elems = math.prod(dims)
        payload = cur.take(4 * n_elems, f"entry '{name}' payload")
        store[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
    return store


# ---------------------------------------------------------------------------
# Deterministic synthetic weights

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_unit(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start..start+count-1 of the splitmix64 stream for ``seed``,
    mapped to float64 in [0, 1).

    Output i is mix(seed + (i + 1) * GAMMA) with the standard splitmix64
    finalizer; the unit float takes the top 53 bits: (z >> 11) * 2**-53.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def gen_weights(cfg: NetConfig, seed: int) -> dict[str, np.ndarray]:
    """Deterministic pseudorandom weights for every layer of the topology.

    Weights are uniform in [-s, s) with s = sqrt(6 / (fan_in + fan_out)),
    fan_in = in_channels * kh * kw and fan_out = out_channels * kh * kw.
    Biases are zero. Values are drawn from one splitmix64 stream (see
    :func:`_splitmix64_unit`), consumed in layer-list order, so the store is
    a pure function of (cfg, seed).
    """
    store: dict[str, np.ndarray] = {}
    counter = 0
    for spec in layer_specs(cfg):
        fan_in = spec.in_channels * spec.kernel * spec.kernel
        fan_out = spec.out_channels * spec.kernel * spec.kernel
        s = math.sqrt(6.0 / (fan_in + fan_out))
        n = spec.out_channels * spec.in_channels * spec.kernel * spec.kernel
        unit = _splitmix64_unit(seed, counter, n)
        counter += n
        w = ((unit * 2.0 - 1.0) * s).astype(np.float32)
        store[spec.name] = w.reshape(
            spec.out_channels, spec.in_channels, spec.kernel, spec.kernel
        )
        store[spec.name + ".bias"] = np.zeros(spec.out_channels, dtype=np.float32)
    return store


# ---------------------------------------------------------------------------
# Sequence manifests


@dataclass(frozen=True)
class SequenceManifest:
    """Ordered frame paths and optional parallel ground-truth paths."""

    frames: tuple[Path, ...]
    truths: Optional[tuple[Path, ...]]


def read_manifest(path) -> SequenceManifest:
    """Read a plain-text manifest: one frame path per line, optional second
    whitespace-separated column for the ground-truth path.

    Blank lines and lines starting with # are skipped. Relative paths are
    resolved against the manifest's directory. Either every line has a
    ground-truth column or none does.
    """
    base = Path(path).parent
    frames: list[Path] = []
    truths: list[Path] = []
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise FileFormatError(
                f"{path}:{lineno}: not valid UTF-8 at byte {exc.start}"
            ) from None
        if not line or line.startswith("#"):
            continue
        if "\0" in line:
            raise FileFormatError(f"{path}:{lineno}: holds a NUL byte")
        cols = line.split()
        if len(cols) > 2:
            raise FileFormatError(
                f"{path}:{lineno}: expected 1 or 2 columns, got {len(cols)}"
            )
        frames.append(base / cols[0])
        if len(cols) == 2:
            truths.append(base / cols[1])
    if not frames:
        raise FileFormatError(f"{path}: manifest lists no frames")
    if truths and len(truths) != len(frames):
        raise FileFormatError(
            f"{path}: {len(truths)} of {len(frames)} lines have a "
            f"ground-truth column; it must be all or none"
        )
    return SequenceManifest(
        frames=tuple(frames),
        truths=tuple(truths) if truths else None,
    )
