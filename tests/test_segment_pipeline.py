"""The segment and bench commands share one frame loop, which runs stage 1 of
frame k+1 on a helper thread while the main thread finishes frame k. These
tests hold it to the serial ``run_sequence`` reference and check its failure
and thread behaviour."""
import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import cwseg.cli as cli
import cwseg.net as net_module
from cwseg import tensor_ops
from cwseg import (
    DEFAULT_PALETTE,
    Adaptive,
    Always,
    Fixed,
    NetConfig,
    SkipPolicy,
    StageId,
    build_net,
    gen_weights,
    mean_abs_diff,
    read_image,
    read_weights,
    run_sequence,
    step,
    write_image,
    write_mask,
    write_weights,
)
from oracles import full_forward
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


def drift_then_cut(count=8, cut=4, shape=(3, 32, 32)):
    """Frames drifting slightly around one scene, then around another."""
    rng = np.random.default_rng(17)
    a, b = random_frames(400, 2, shape)
    frames = []
    for i in range(count):
        base = a if i < cut else b
        noise = 0.02 * rng.standard_normal(base.shape).astype(np.float32)
        frames.append(np.clip(base + noise, 0.0, 1.0))
    return frames


def segment(argv):
    """Run ``segment`` in process; returns its exit code."""
    return cli.main(["segment", *map(str, argv)])


def loop_argv(command, manifest, weights, tmp_path):
    """Arguments that run ``command`` over ``manifest`` with default flags."""
    argv = [command, manifest, "--weights", weights]
    if command == "segment":
        argv += ["--out", tmp_path / "out"]
    return [str(a) for a in argv]


SCHEDULES = [
    (["--schedule", "always"], Always()),
    (["--schedule", "fixed", "--period2", "2", "--period3", "3"], Fixed(2, 3)),
    (["--schedule", "adaptive"], None),  # theta placed at the cut below
]


def adaptive_at_cut(net, frames):
    """Adaptive theta halfway between the largest drift change of
    ``drift_then_cut`` and the change at its cut."""
    sp4 = [full_forward(net, f).score_pool4 for f in frames]
    drift = max(mean_abs_diff(s, sp4[0]) for s in sp4[1:4])
    return Adaptive((drift + mean_abs_diff(sp4[4], sp4[0])) / 2)


def run_segment_against_serial(tmp_path, capsys, weights, frames_in,
                               flags, schedule, policy):
    """Run ``segment`` with score maps over ``frames_in`` and compare its
    masks, score files and trace records byte for byte with the serial
    ``run_sequence`` (score maps from folding ``step`` as it does). A None
    ``schedule`` is adaptive with theta at the cut. Returns the traces."""
    manifest, paths = write_sequence(tmp_path, frames_in)
    frames = [read_image(p) for p in paths]
    net = build_net(replace(CFG, height=frames[0].shape[1],
                            width=frames[0].shape[2]), read_weights(weights))
    if schedule is None:
        schedule = adaptive_at_cut(net, frames)
        flags = flags + ["--theta", repr(schedule.theta)]
    masks, traces = run_sequence(net, schedule, policy, frames)
    state, scores = None, []
    for frame in frames:
        _, state, _, final = step(net, schedule, policy, state, frame)
        scores.append(final)

    out = tmp_path / "out"
    assert segment([manifest, "--weights", weights, "--out", out,
                    "--skip-policy", policy.value, "--save-scores",
                    *flags]) == 0
    capsys.readouterr()

    records = [json.loads(line) for line in
               (out / "trace.jsonl").read_text().splitlines()]
    assert len(records) == len(frames)
    for path, mask, final, trace, rec in zip(paths, masks, scores, traces,
                                             records):
        want = tmp_path / f"want-{path.name}"
        write_mask(mask, DEFAULT_PALETTE, want)
        assert (out / path.name).read_bytes() == want.read_bytes()
        want_scores = tmp_path / f"want-{path.stem}.scores.cwf"
        write_weights({"scores": final}, want_scores)
        got_scores = out / f"{path.stem}.scores.cwf"
        assert got_scores.read_bytes() == want_scores.read_bytes()
        assert np.array_equal(np.argmax(final, axis=0), mask)
        assert rec["frame"] == str(path)
        assert rec["fired"] == sorted(int(s) for s in trace.fired)
        assert rec["change"] == trace.change
        assert rec["convs"] == trace.convs
        assert rec["macs"] == trace.macs
    return traces


@pytest.mark.parametrize("policy", list(SkipPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("flags,schedule", SCHEDULES,
                         ids=["always", "fixed", "adaptive"])
def test_segment_matches_serial_run_sequence(tmp_path, capsys, weights,
                                             flags, schedule, policy):
    traces = run_segment_against_serial(tmp_path, capsys, weights,
                                        drift_then_cut(), flags, schedule,
                                        policy)
    if schedule is None:
        assert [t.frame_index for t in traces if 3 in t.fired] == [0, 4]


# Frames wide enough that conv4_2 and conv5_2 have two bands each, so the
# helper's stage 1 can serve the main thread's stage-3 bands.
WIDE = (3, 64, 1024)


@pytest.mark.parametrize("flags,schedule", [SCHEDULES[0], SCHEDULES[2]],
                         ids=["always", "adaptive"])
def test_segment_with_multi_band_deep_convs_matches_serial_bytes(
        tmp_path, capsys, weights, flags, schedule):
    traces = run_segment_against_serial(
        tmp_path, capsys, weights, drift_then_cut(shape=WIDE), flags,
        schedule, SkipPolicy.FUSE_CACHED_DEEP)
    if schedule is None:
        assert [t.frame_index for t in traces if 3 in t.fired] == [0, 4]


@pytest.mark.parametrize("schedule", [Always(), None],
                         ids=["always", "adaptive"])
def test_stage3_convs_alone_are_served_first(weights, monkeypatch, schedule):
    """Every call of conv5_1, conv5_2 and score_fr, and no other layer's,
    is made with ``priority``, on frames where conv4_2 and conv5_2 run in
    several bands; None is adaptive with theta at the cut."""
    frames = drift_then_cut(shape=WIDE)
    net = build_net(replace(CFG, height=WIDE[1], width=WIDE[2]),
                    read_weights(weights))
    if schedule is None:
        schedule = adaptive_at_cut(net, frames)
    layer_of = {id(p): name for name, p in net.layers.items()}
    flags = {}
    conv2d = net_module.conv2d

    def recorded(x, p, priority=False):
        flags.setdefault(layer_of[id(p)], set()).add(priority)
        return conv2d(x, p, priority=priority)

    monkeypatch.setattr(net_module, "conv2d", recorded)
    _, traces = run_sequence(net, schedule, SkipPolicy.FUSE_CACHED_DEEP,
                             frames)
    fired = [t.frame_index for t in traces if 3 in t.fired]
    assert fired == ([0, 4] if isinstance(schedule, Adaptive) else
                     list(range(len(frames))))
    assert flags == {name: {name in ("conv5_1", "conv5_2", "score_fr")}
                     for name in net.layers}


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


# The segment cases keep their original ids.
@pytest.mark.parametrize(
    "command,bad", [("segment", 2), ("segment", 5), ("bench", 2), ("bench", 5)],
    ids=["2", "5", "bench-2", "bench-5"])
def test_corrupt_frame_exits_3_with_earlier_masks_only(tmp_path, capsys,
                                                       weights, command, bad):
    manifest, paths = write_sequence(tmp_path, random_frames(402, 6))
    paths[bad].write_bytes(b"P6\n32 32\n255\n" + b"\x00" * 10)
    # A complete-looking trace from an earlier run must not survive.
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "trace.jsonl").write_text('{"frame_index": 0}\n')
    threads = threading.active_count()
    assert cli.main(loop_argv(command, manifest, weights, tmp_path)) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert threading.active_count() == threads
    if command == "segment":
        written = sorted(p.name for p in (tmp_path / "out").glob("*.ppm"))
        assert written == [p.name for p in paths[:bad]]
        assert not (tmp_path / "out" / "trace.jsonl").exists()


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
    assert not (tmp_path / "out" / "trace.jsonl").exists()


@pytest.mark.parametrize("bad", [1, 4])
def test_stage1_overflow_exits_4_with_earlier_masks_only(tmp_path, capsys,
                                                         monkeypatch, bad):
    # conv1_1 weights near the float32 limit: black frames give finite
    # scores, the white frame overflows conv1_1 in its stage 1. Frames are
    # wide, so conv1_1 has 8 bands.
    store = gen_weights(CFG, 7)
    store["conv1_1"] = np.full_like(store["conv1_1"], 1e38)
    weights = tmp_path / "overflow.cwf"
    write_weights(store, weights)
    frames = [np.zeros((3, 32, 1024), dtype=np.float32) for _ in range(6)]
    frames[bad] = np.ones((3, 32, 1024), dtype=np.float32)
    manifest, paths = write_sequence(tmp_path, frames)

    # The helper's bands of the white frame's conv1_1 wait until the main
    # thread has run one of them, so the failure goes through shared bands.
    main_ran = threading.Event()
    band = tensor_ops._conv_band

    def band_shared_on_white_frame(call, r0, views):
        white = call.x.shape[0] == 3 and call.x[0, 0, 0] == 1.0
        on_main = threading.current_thread() is threading.main_thread()
        if white and not on_main:
            assert main_ran.wait(timeout=10)
        band(call, r0, views)
        if white and on_main:
            main_ran.set()

    monkeypatch.setattr(tensor_ops, "_conv_band", band_shared_on_white_frame)
    threads = threading.active_count()
    assert segment([manifest, "--weights", weights, "--out",
                    tmp_path / "out"]) == 4
    assert capsys.readouterr().err == (
        "error: conv2d produced non-finite values\n")
    assert main_ran.is_set()
    assert threading.active_count() == threads
    written = sorted(p.name for p in (tmp_path / "out").glob("*.ppm"))
    assert written == [p.name for p in paths[:bad]]
    assert not (tmp_path / "out" / "trace.jsonl").exists()


def test_fusion_overflow_exits_4_with_earlier_masks_only(tmp_path, capsys):
    # Stage 1 carries input channel 0, doubled, to pool3's channel 0, and
    # score_pool3 maps its 0 and 2 to -1.8e38 and +1.8e38; the other layers
    # are zero. The black frame fuses to a constant map, while the frame
    # of 8-pixel column stripes gives score_pool3 columns that alternate
    # between the two, so the x8 upsampling's lerp overflows.
    store = {k: np.zeros_like(v) for k, v in gen_weights(CFG, 7).items()}
    for name in ("conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1",
                 "conv3_2"):
        store[name][0, 0, 1, 1] = 2.0 if name == "conv1_1" else 1.0
    store["score_pool3"][0, 0] = 1.8e38
    store["score_pool3.bias"][0] = -1.8e38
    weights = tmp_path / "fusion.cwf"
    write_weights(store, weights)
    black = np.zeros((3, 32, 32), dtype=np.float32)
    stripes = black.copy()
    stripes[:, :, np.arange(32) // 8 % 2 == 0] = 1.0
    manifest, paths = write_sequence(tmp_path, [black, stripes, black])

    assert segment([manifest, "--weights", weights, "--out",
                    tmp_path / "out"]) == 4
    assert capsys.readouterr().err == (
        "error: fusion produced non-finite values\n")
    written = sorted(p.name for p in (tmp_path / "out").glob("*.ppm"))
    assert written == [paths[0].name]
    assert not (tmp_path / "out" / "trace.jsonl").exists()


@pytest.mark.parametrize("bad", [1, 4])
def test_stage3_overflow_served_by_helper_exits_4_with_earlier_masks_only(
        tmp_path, capsys, monkeypatch, bad):
    # conv5_1 weights made nonnegative and conv5_2 weights near the float32
    # limit, with gen_weights' zero biases: black frames keep every map at
    # zero, and the white frame overflows conv5_2 in its stage 3. Frame
    # bad + 1 is gray, so the helper runs its stage 1 meanwhile.
    store = gen_weights(CFG, 7)
    store["conv5_1"] = np.abs(store["conv5_1"])
    store["conv5_2"] = np.full_like(store["conv5_2"], 1e38)
    weights = tmp_path / "overflow.cwf"
    write_weights(store, weights)
    frames = [np.zeros(WIDE, dtype=np.float32) for _ in range(6)]
    frames[bad] = np.ones(WIDE, dtype=np.float32)
    frames[bad + 1] = np.full(WIDE, 0.5, dtype=np.float32)
    manifest, paths = write_sequence(tmp_path, frames)

    # The helper's first band of the gray frame's stage 1 waits until the
    # white frame's conv5_2 is posted, and the main thread's first band of
    # that conv waits until the helper has run one, so the overflowing band
    # the helper runs is one it serves.
    posted, served = threading.Event(), threading.Event()
    band = tensor_ops._conv_band

    def band_served_on_white_frame(call, r0, views):
        on_main = threading.current_thread() is threading.main_thread()
        white_conv5_2 = call.p.kernel_h == 7 and call.x.any()
        gray_conv1_1 = call.x.shape[0] == 3 and 0 < call.x[0, 0, 0] < 1
        if white_conv5_2 and on_main:
            posted.set()
            assert served.wait(timeout=10)
        band(call, r0, views)
        if white_conv5_2 and not on_main:
            served.set()
        if gray_conv1_1 and not on_main:
            assert posted.wait(timeout=10)

    monkeypatch.setattr(tensor_ops, "_conv_band", band_served_on_white_frame)
    threads = threading.active_count()
    assert segment([manifest, "--weights", weights, "--out",
                    tmp_path / "out"]) == 4
    assert capsys.readouterr().err == (
        "error: conv2d produced non-finite values\n")
    assert served.is_set()
    assert threading.active_count() == threads
    written = sorted(p.name for p in (tmp_path / "out").glob("*.ppm"))
    assert written == [p.name for p in paths[:bad]]
    assert not (tmp_path / "out" / "trace.jsonl").exists()


@pytest.mark.parametrize("command", ["segment", "bench"])
def test_leaves_no_thread_behind(tmp_path, capsys, weights, command):
    manifest, _ = write_sequence(tmp_path, random_frames(404, 4))
    threads = threading.active_count()
    assert cli.main(loop_argv(command, manifest, weights, tmp_path)) == 0
    capsys.readouterr()
    assert threading.active_count() == threads


@pytest.mark.parametrize("flags,schedule", SCHEDULES,
                         ids=["always", "fixed", "adaptive"])
def test_bench_counts_match_run_sequence(tmp_path, capsys, weights,
                                         monkeypatch, flags, schedule):
    manifest, paths = write_sequence(tmp_path, drift_then_cut())
    frames = [read_image(p) for p in paths]
    net = build_net(CFG, read_weights(weights))
    if schedule is None:
        schedule = adaptive_at_cut(net, frames)
        flags = flags + ["--theta", repr(schedule.theta)]
    events = []
    read_image_, step_ = cli.read_image, cli.step

    def read_logged(path):
        events.append(("read", path.name))  # logged as the read starts
        return read_image_(path)

    def step_logged(*args):
        out = step_(*args)
        events.append(("step", args[3].frames_seen if args[3] else 0))
        return out

    monkeypatch.setattr(cli, "read_image", read_logged)
    monkeypatch.setattr(cli, "step", step_logged)
    assert cli.main(loop_argv("bench", manifest, weights, tmp_path)
                    + flags) == 0
    report = json.loads(capsys.readouterr().out)

    for arm, arm_schedule in (("full", Always()), ("clockwork", schedule)):
        _, traces = run_sequence(net, arm_schedule,
                                 SkipPolicy.FUSE_CACHED_DEEP, frames)
        assert report[arm]["firings"] == {
            s.label: sum(s in t.fired for t in traces) for s in StageId}
        assert report[arm]["macs"] == sum(sum(t.macs.values())
                                          for t in traces)

    # One pass per arm, each starting with a read of frame 0. Frame j >= 1
    # is read only after the step of frame j - 2 (frame 0's for j = 1).
    starts = [i for i, e in enumerate(events) if e == ("read", paths[0].name)]
    assert len(starts) == 2
    for lo, hi in zip(starts, starts[1:] + [len(events)]):
        one_pass = events[lo:hi]
        assert [e for e in one_pass if e[0] == "step"] == [
            ("step", k) for k in range(len(paths))]
        for j in range(1, len(paths)):
            assert one_pass.index(("read", paths[j].name)) > one_pass.index(
                ("step", max(0, j - 2)))
