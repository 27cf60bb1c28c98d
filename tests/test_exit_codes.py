"""The CLI exit-code contract as a property: whatever bytes the input files
hold and whatever the argv, ``cli.main`` exits 0 on success, 2 on a usage
error, 3 on a file error and 4 on a contract error, and no exception
escapes. A ``segment`` that fails leaves no ``trace.jsonl``.

Every example corrupts one file of a 3-frame 32x32 fixture (a frame, a
truth mask, a prediction, a score store, the manifest or the weight store)
by truncating it, flipping a header byte or inserting bytes, then runs
``segment``, ``eval --scores-dir`` and ``bench`` in process. NaN bits
written into the score store's positive-class channel make ``eval`` exit 4.
"""
import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cwseg.cli as cli
from cwseg import (
    DEFAULT_PALETTE,
    NetConfig,
    gen_weights,
    write_image,
    write_mask,
    write_weights,
)
from testutil import random_frames

FRAMES = 3

# The files a corruption can hit, relative to the fixture directory.
TARGETS = (
    [f"frame{i}.ppm" for i in range(FRAMES)]
    + ["gt1.ppm", "pred/frame1.ppm", "pred/frame2.scores.cwf",
       "manifest.txt", "weights.cwf"]
)

# Header bytes a flip may hit: a PNM header is 13 bytes here, and a weight
# store's first entry header ends by byte 41.
HEADER_BYTES = 48


def _call(argv, parse_only=False):
    """``cli.main(argv)`` with its output swallowed; argparse's exits are
    returned as codes. Any other exception propagates. With ``parse_only``,
    only argv is parsed, and None means argparse accepted it."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            if parse_only:
                cli.build_parser().parse_args(argv)
                return None
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Frames, truth masks, a manifest with a truth column, weights, and
    the predictions and score stores ``segment`` made of them."""
    root = tmp_path_factory.mktemp("exit_codes")
    lines = []
    for i, frame in enumerate(random_frames(17, FRAMES)):
        write_image(root / f"frame{i}.ppm", frame)
        write_mask((frame[0] > 0.5).astype(np.uint8), DEFAULT_PALETTE,
                   root / f"gt{i}.ppm")
        lines.append(f"frame{i}.ppm gt{i}.ppm")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")
    cfg = NetConfig(in_channels=3, num_classes=2, base_width=2)
    write_weights(gen_weights(cfg, 7), root / "weights.cwf")
    assert _call(["segment", str(root / "manifest.txt"), "--weights",
                  str(root / "weights.cwf"), "--out", str(root / "pred"),
                  "--save-scores"]) == 0
    (root / "pred" / "trace.jsonl").unlink()
    return root


@st.composite
def corruptions(draw):
    """(target, how, position, payload): how the bytes of one file change."""
    target = draw(st.sampled_from(TARGETS))
    kinds = ["truncate", "flip", "insert"]
    if target.endswith(".cwf"):
        kinds += ["rank", "name_len", "name_utf8"]
    if target.endswith(".scores.cwf"):
        kinds.append("nan")
    how = draw(st.sampled_from(kinds))
    position = draw(st.integers(0, 1 << 16))
    payload = draw(st.binary(min_size=1, max_size=8))
    return target, how, position, payload


def _corrupt(data: bytes, how: str, position: int, payload: bytes) -> bytes:
    if how == "truncate":
        return data[:position % len(data)]
    if how == "flip":
        at = position % min(len(data), HEADER_BYTES)
        flipped = data[at] ^ (payload[0] | 1)
        return data[:at] + bytes([flipped]) + data[at + 1:]
    if how == "insert":
        at = position % (len(data) + 1)
        return data[:at] + payload + data[at:]
    # The first weight-store entry: name length at byte 10, name after it,
    # then the rank.
    name_len = int.from_bytes(data[10:14], "little")
    if how == "name_len":
        value = 4097 + position
        return data[:10] + value.to_bytes(4, "little") + data[14:]
    if how == "name_utf8":
        return data[:14] + b"\xff" + data[15:]
    rank_at = 14 + name_len
    if how == "nan":
        # One float of the second half of the entry's payload (channel 1 of
        # a 2-channel score map): a NaN with either sign and a payload.
        rank = int.from_bytes(data[rank_at:rank_at + 4], "little")
        start = rank_at + 4 + 4 * rank
        half = (len(data) - start) // 8
        at = start + 4 * (half + position % half)
        bits = 0x7F800000 | 1 + int.from_bytes(payload[:2], "little")
        bits |= (payload[0] & 1) << 31
        return data[:at] + bits.to_bytes(4, "little") + data[at + 4:]
    value = min(33 + position * 65536, (1 << 32) - 1)
    return data[:rank_at] + value.to_bytes(4, "little") + data[rank_at + 4:]


@settings(max_examples=60, deadline=None)
@given(case=corruptions())
@example(case=("pred/frame2.scores.cwf", "nan", 5, b"\x01"))
def test_corrupt_inputs_exit_3_or_4(fixture_dir, case):
    target, how, position, payload = case
    work = Path(tempfile.mkdtemp(dir=fixture_dir.parent))
    try:
        shutil.copytree(fixture_dir, work, dirs_exist_ok=True)
        path = work / target
        path.write_bytes(_corrupt(path.read_bytes(), how, position, payload))
        manifest, weights = str(work / "manifest.txt"), str(work / "weights.cwf")
        out = work / "out"

        code = _call(["segment", manifest, "--weights", weights,
                      "--out", str(out), "--save-scores"])
        assert code in (0, 3, 4)
        if code != 0:
            assert not (out / "trace.jsonl").exists()
        pred = str(work / "pred")
        code = _call(["eval", pred, manifest, "--scores-dir", pred])
        assert code == 4 if how == "nan" else code in (0, 3, 4)
        assert _call(["bench", manifest, "--weights", weights]) in (0, 3, 4)
    finally:
        shutil.rmtree(work)


_ARGV_WORDS = st.sampled_from([
    "segment", "eval", "bench", "gen-weights", "--weights", "--out",
    "--save-scores", "--schedule", "always", "fixed", "adaptive", "--period2",
    "--period3", "--theta", "nan", "--skip-policy", "reuse-final",
    "fuse-cached-deep", "--palette", "0,0,0:255,0,255", "--repeat",
    "--positive-class", "--scores-dir", "--seed", "--base-width", "--classes",
    "--in-channels", "-h", "--help", ".", "",
])
# Text that can reach a process's argv: no NUL, no lone surrogate.
_ARGV_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\x00"), max_size=8)


@settings(max_examples=60, deadline=None)
@given(argv=st.lists(st.one_of(_ARGV_WORDS, _ARGV_TEXT,
                               st.integers(-3, 9).map(str)), max_size=8))
def test_random_argv_exits_by_contract(tmp_path_factory, argv):
    """An argv argparse refuses exits 2, help exits 0, and one it accepts
    runs its command to 0, 3 or 4. Each example runs in a fresh working
    directory, where no input file exists."""
    old = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("argv"))
    try:
        parsed = _call(argv, parse_only=True)
        code = _call(argv)
    finally:
        os.chdir(old)
    if parsed is None:
        assert code in (0, 3, 4)
    else:
        assert code == parsed and code in (0, 2)
