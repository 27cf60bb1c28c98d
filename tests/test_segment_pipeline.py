"""The segment command runs stage 1 of frame k+1 on a helper thread while the
main thread finishes frame k. These tests hold it to the serial
``run_sequence`` reference and check its failure and thread behaviour."""
import json
import threading
import time

import numpy as np
import pytest

import cwseg.cli as cli
from cwseg import (
    DEFAULT_PALETTE,
    Adaptive,
    Always,
    Fixed,
    NetConfig,
    SkipPolicy,
    build_net,
    full_forward,
    gen_weights,
    mean_abs_diff,
    read_image,
    read_weights,
    run_sequence,
    write_image,
    write_mask,
    write_weights,
)
from testutil import make_frame, random_frames

CFG = NetConfig(in_channels=3, num_classes=2, base_width=2, height=32, width=32)


@pytest.fixture(scope="module")
def weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "tiny.cwf"
    write_weights(gen_weights(CFG, 7), path)
    return path


def write_sequence(dirpath, frames):
    names = []
    for i, frame in enumerate(frames):
        names.append(f"frame{i:03d}.ppm")
        write_image(dirpath / names[-1], frame)
    manifest = dirpath / "manifest.txt"
    manifest.write_text("\n".join(names) + "\n")
    return manifest, [dirpath / n for n in names]


def drift_then_cut(count=8, cut=4):
    """Frames drifting slightly around one scene, then around another."""
    rng = np.random.default_rng(17)
    a, b = random_frames(400, 2)
    frames = []
    for i in range(count):
        base = a if i < cut else b
        noise = 0.02 * rng.standard_normal(base.shape).astype(np.float32)
        frames.append(np.clip(base + noise, 0.0, 1.0))
    return frames


def segment(argv):
    """Run ``segment`` in process; returns its exit code."""
    return cli.main(["segment", *map(str, argv)])


SCHEDULES = [
    (["--schedule", "always"], Always()),
    (["--schedule", "fixed", "--period2", "2", "--period3", "3"], Fixed(2, 3)),
    (["--schedule", "adaptive"], None),  # theta placed at the cut below
]


@pytest.mark.parametrize("policy", list(SkipPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("flags,schedule", SCHEDULES,
                         ids=["always", "fixed", "adaptive"])
def test_segment_matches_serial_run_sequence(tmp_path, capsys, weights,
                                             flags, schedule, policy):
    manifest, paths = write_sequence(tmp_path, drift_then_cut())
    frames = [read_image(p) for p in paths]
    net = build_net(CFG, read_weights(weights))
    if schedule is None:
        # Halfway between the largest drift change and the cut's change.
        sp4 = [full_forward(net, f).score_pool4 for f in frames]
        drift = max(mean_abs_diff(s, sp4[0]) for s in sp4[1:4])
        theta = (drift + mean_abs_diff(sp4[4], sp4[0])) / 2
        flags = flags + ["--theta", repr(theta)]
        schedule = Adaptive(theta)
    masks, traces = run_sequence(net, schedule, policy, frames)
    if isinstance(schedule, Adaptive):
        assert [t.frame_index for t in traces if 3 in t.fired] == [0, 4]

    out = tmp_path / "out"
    assert segment([manifest, "--weights", weights, "--out", out,
                    "--skip-policy", policy.value, "--save-scores",
                    *flags]) == 0
    capsys.readouterr()

    records = [json.loads(line) for line in
               (out / "trace.jsonl").read_text().splitlines()]
    assert len(records) == len(frames)
    for path, mask, trace, rec in zip(paths, masks, traces, records):
        want = tmp_path / f"want-{path.name}"
        write_mask(mask, DEFAULT_PALETTE, want)
        assert (out / path.name).read_bytes() == want.read_bytes()
        scores = read_weights(out / f"{path.stem}.scores.cwf")["scores"]
        assert np.array_equal(np.argmax(scores, axis=0), mask)
        assert rec["fired"] == sorted(int(s) for s in trace.fired)
        assert rec["macs"] == trace.macs


def test_segment_reads_at_most_one_frame_ahead(tmp_path, capsys, weights,
                                               monkeypatch):
    manifest, paths = write_sequence(tmp_path, random_frames(401, 6))
    events = []
    read_image_, step_, write_mask_ = cli.read_image, cli.step, cli.write_mask

    def read_logged(path):
        events.append(("read", path.name))  # logged as the read starts
        return read_image_(path)

    def step_logged(*args):
        out = step_(*args)
        events.append(("step", args[3].frames_seen if args[3] else 0))
        return out

    def write_logged(mask, palette, path):
        write_mask_(mask, palette, path)
        # Leave a queued helper job time to start before the write counts
        # as done.
        time.sleep(0.02)
        events.append(("write", path.name))

    monkeypatch.setattr(cli, "read_image", read_logged)
    monkeypatch.setattr(cli, "step", step_logged)
    monkeypatch.setattr(cli, "write_mask", write_logged)
    assert segment([manifest, "--weights", weights, "--out",
                    tmp_path / "out"]) == 0
    capsys.readouterr()

    def at(kind, name):
        return events.index((kind, name))

    # Frame 1 is read only after frame 0's step, and frame j >= 2 only after
    # the mask of frame j - 2 is written.
    assert at("read", paths[1].name) > at("step", 0)
    for j in range(2, len(paths)):
        assert at("read", paths[j].name) > at("write", paths[j - 2].name)
    assert [e for e in events if e[0] == "write"] == [
        ("write", p.name) for p in paths]


@pytest.mark.parametrize("bad", [2, 5])
def test_corrupt_frame_exits_3_with_earlier_masks_only(tmp_path, capsys,
                                                       weights, bad):
    manifest, paths = write_sequence(tmp_path, random_frames(402, 6))
    paths[bad].write_bytes(b"P6\n32 32\n255\n" + b"\x00" * 10)
    threads = threading.active_count()
    assert segment([manifest, "--weights", weights, "--out",
                    tmp_path / "out"]) == 3
    assert "error:" in capsys.readouterr().err
    assert threading.active_count() == threads
    written = sorted(p.name for p in (tmp_path / "out").glob("*.ppm"))
    assert written == [p.name for p in paths[:bad]]


@pytest.mark.parametrize("bad", [1, 3])
def test_frame_of_another_size_exits_4(tmp_path, capsys, weights, bad):
    frames = random_frames(403, 5)
    frames[bad] = make_frame(3, 64, 64)
    manifest, paths = write_sequence(tmp_path, frames)
    threads = threading.active_count()
    assert segment([manifest, "--weights", weights, "--out",
                    tmp_path / "out"]) == 4
    assert "expected shape" in capsys.readouterr().err
    assert threading.active_count() == threads
    written = sorted(p.name for p in (tmp_path / "out").glob("*.ppm"))
    assert written == [p.name for p in paths[:bad]]


def test_segment_leaves_no_thread_behind(tmp_path, capsys, weights):
    manifest, _ = write_sequence(tmp_path, random_frames(404, 4))
    threads = threading.active_count()
    assert segment([manifest, "--weights", weights, "--out",
                    tmp_path / "out"]) == 0
    capsys.readouterr()
    assert threading.active_count() == threads
