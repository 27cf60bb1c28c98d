"""End-to-end acceptance checks, one test per shipped claim.

conftest.py turns each test_criterion_N result into an ACCEPTANCE banner
line, so this file is the single place to look for a pass/fail verdict on
the package's headline behaviors.
"""

import json
import time
from pathlib import Path

import numpy as np

import test_cli
import test_metrics
import test_scheduler
import test_tensor_ops
import testutil
from cwseg import (
    Adaptive,
    Always,
    ConfusionMatrix,
    Fixed,
    SkipPolicy,
    argmax_mask,
    average_precision,
    decode_gt_mask,
    mean_abs_diff,
    read_image,
    read_pnm,
    read_weights,
    run_sequence,
    write_mask,
    write_pnm,
    write_weights,
)
from oracles import (
    average_precision_oracle,
    full_forward,
    segmentation_metrics_oracle,
)

BOTH_POLICIES = (SkipPolicy.FUSE_CACHED_DEEP, SkipPolicy.REUSE_FINAL)


def test_criterion_1():
    """Every all-fire schedule reproduces per-frame full inference exactly."""
    start = time.perf_counter()
    net = testutil.seed42_net()
    rng = np.random.default_rng(42)
    frames = [rng.random((3, 64, 64), dtype=np.float32) for _ in range(12)]
    full_masks = [argmax_mask(full_forward(net, f).final_scores)
                  for f in frames]
    schedules = (Always(), Fixed(period2=1, period3=1), Adaptive(theta=-1.0))
    for schedule in schedules:
        for policy in BOTH_POLICIES:
            masks, traces = run_sequence(net, schedule, policy, frames)
            assert all(3 in t.fired for t in traces)
            for got, want in zip(masks, full_masks):
                assert got.tobytes() == want.tobytes()
    assert time.perf_counter() - start < 30.0


def test_criterion_2():
    """A scene-cut sequence runs the deep stage only at the cuts.

    Four static scenes of eight frames each, theta set below the smallest
    scene-to-scene change: stage 3 must fire exactly on the first frame of
    each scene, counted conv work must drop to <= 0.60 of full inference,
    every mask must still match full per-frame inference bit for bit, and
    the wall-clock ratio must land under a loose 0.9 sanity bound.
    """
    start = time.perf_counter()
    net = testutil.seed42_net()
    rng = np.random.default_rng(1000)
    scenes = [rng.random((3, 64, 64), dtype=np.float32) for _ in range(4)]
    frames = [scene for scene in scenes for _ in range(8)]

    sp4 = [full_forward(net, scene).score_pool4 for scene in scenes]
    cut_changes = [mean_abs_diff(b, a) for a, b in zip(sp4, sp4[1:])]
    assert min(cut_changes) > 0.0
    theta = min(cut_changes) / 2.0

    full_masks = [argmax_mask(full_forward(net, f).final_scores)
                  for f in frames]
    _, full_traces = run_sequence(net, Always(),
                                  SkipPolicy.FUSE_CACHED_DEEP, frames)
    full_macs = sum(sum(t.macs.values()) for t in full_traces)

    for policy in BOTH_POLICIES:
        masks, traces = run_sequence(net, Adaptive(theta=theta), policy,
                                     frames)
        fires = [t.frame_index for t in traces if 3 in t.fired]
        assert fires == [0, 8, 16, 24]
        clk_macs = sum(sum(t.macs.values()) for t in traces)
        assert clk_macs / full_macs <= 0.60
        for got, want in zip(masks, full_masks):
            assert got.tobytes() == want.tobytes()

    # The arms alternate, so a slow phase of the host falls on both.
    walls = {"adaptive": [], "always": []}
    for _ in range(3):
        for arm, schedule in (("adaptive", Adaptive(theta=theta)),
                              ("always", Always())):
            t0 = time.perf_counter()
            run_sequence(net, schedule, SkipPolicy.FUSE_CACHED_DEEP, frames)
            walls[arm].append(time.perf_counter() - t0)
    wall_ratio = min(walls["adaptive"]) / min(walls["always"])
    assert wall_ratio < 0.9
    assert time.perf_counter() - start < 60.0


def test_criterion_3(tmp_path):
    """The CLI trace shows the fixed(2,4) firing pattern over 8 frames."""
    weights = tmp_path / "w.cwf"
    proc = test_cli.run_cli("gen-weights", "--seed", 7, "--base-width", 2,
                            "--out", weights)
    assert proc.returncode == 0, proc.stderr
    manifest = test_cli.write_frames(tmp_path, testutil.random_frames(5, 8))
    out = tmp_path / "out"
    proc = test_cli.run_cli("segment", manifest, "--weights", weights,
                            "--schedule", "fixed", "--period2", 2,
                            "--period3", 4, "--out", out)
    assert proc.returncode == 0, proc.stderr
    trace = test_cli.read_trace(out)
    assert [t["frame_index"] for t in trace] == list(range(8))
    assert [t["frame_index"] for t in trace if 1 in t["fired"]] == \
        list(range(8))
    assert [t["frame_index"] for t in trace if 2 in t["fired"]] == [0, 2, 4, 6]
    assert [t["frame_index"] for t in trace if 3 in t["fired"]] == [0, 4]


def test_criterion_4():
    """Metric values agree with per-pixel counting oracles to 1e-9."""
    rng = np.random.default_rng(2024)
    whole = ("acc", "cl_acc", "miu", "fwiu")
    binary = ("precision", "recall", "f1", "fpr", "fnr")
    for _ in range(200):
        num_classes = int(rng.integers(2, 5))
        h, w = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        truth = rng.integers(0, num_classes, size=(h, w))
        pred = rng.integers(0, num_classes, size=(h, w))
        want = segmentation_metrics_oracle(truth, pred, num_classes)
        cm = ConfusionMatrix(num_classes).add(truth, pred)
        got = {
            "acc": cm.pixel_accuracy(),
            "cl_acc": cm.mean_class_accuracy(),
            "miu": cm.mean_iou(),
            "fwiu": cm.freq_weighted_iou(),
        }
        for name in whole:
            assert abs(got[name] - want[name]) <= 1e-9, name
        stats = cm.binary_stats(1)
        for name in binary:
            if want[name] is None:
                assert name in stats.degenerate
                assert getattr(stats, name) == 0.0
            else:
                assert name not in stats.degenerate
                assert abs(getattr(stats, name) - want[name]) <= 1e-9, name

    for i in range(60):
        n = int(rng.integers(1, 21))
        scores = rng.random(n)
        if i % 2 == 1:
            scores = np.round(scores * 4.0) / 4.0
        truth = rng.integers(0, 2, size=n)
        if truth.sum() == 0:
            truth[int(rng.integers(0, n))] = 1
        got_ap = average_precision(scores, truth)
        want_ap = average_precision_oracle(scores, truth)
        assert abs(got_ap - want_ap) <= 1e-9


def test_criterion_5():
    """The invariant property suites hold, 100 generated cases apiece."""
    test_tensor_ops.test_conv_shape_law()
    test_tensor_ops.test_conv_identity_1x1()
    test_tensor_ops.test_mean_abs_diff_pseudometric()
    test_scheduler.test_prefix_rule()
    test_scheduler.test_static_input_idempotence()
    test_scheduler.test_monotone_work_in_theta()
    test_metrics.test_merge_is_associative_and_commutative()


def test_criterion_6(tmp_path):
    """Images, palette masks, and weight stores round-trip bit-exactly."""
    rng = np.random.default_rng(99)

    for i in range(30):
        h, w = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        shape = (h, w) if i % 2 == 0 else (h, w, 3)
        pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = tmp_path / f"img{i}.pnm"
        write_pnm(path, pixels)
        back = read_pnm(path)
        assert back.shape == pixels.shape and back.dtype == np.uint8
        assert back.tobytes() == pixels.tobytes()
        first_bytes = path.read_bytes()
        write_pnm(path, back)
        assert path.read_bytes() == first_bytes

    for i in range(20):
        num_colors = int(rng.integers(2, 6))
        colors = set()
        while len(colors) < num_colors:
            colors.add(tuple(int(v) for v in rng.integers(0, 256, size=3)))
        palette = tuple(sorted(colors))
        h, w = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        mask = rng.integers(0, num_colors, size=(h, w))
        path = tmp_path / f"mask{i}.ppm"
        write_mask(mask, palette, path)
        back = decode_gt_mask(read_image(path), palette)
        assert back.tobytes() == mask.astype(np.int64).tobytes()

    for i in range(15):
        store = {}
        for j in range(int(rng.integers(1, 6))):
            name = f"layer{i}_{j}" + (".bias" if j % 2 else "")
            rank = int(rng.integers(1, 5))
            dims = tuple(int(rng.integers(1, 7)) for _ in range(rank))
            bits = rng.integers(0, 2 ** 32, size=dims, dtype=np.uint32)
            store[name] = bits.view(np.float32)
        path = tmp_path / f"store{i}.cwf"
        write_weights(store, path)
        back = read_weights(path)
        assert list(back) == list(store)
        for name, arr in store.items():
            assert back[name].shape == arr.shape
            assert back[name].dtype == np.float32
            assert back[name].tobytes() == arr.tobytes()
        first_bytes = path.read_bytes()
        write_weights(back, path)
        assert path.read_bytes() == first_bytes


def test_criterion_7(tmp_path):
    """The README scopes the claims and eval emits every report column."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "not reproducible at desk scale" in readme

    weights = tmp_path / "w.cwf"
    proc = test_cli.run_cli("gen-weights", "--seed", 7, "--base-width", 2,
                            "--out", weights)
    assert proc.returncode == 0, proc.stderr
    frames = testutil.random_frames(21, 4)
    gt = [test_cli.checkerboard(32, 32) for _ in frames]
    manifest = test_cli.write_frames(tmp_path, frames, gt_masks=gt)
    out = tmp_path / "out"
    proc = test_cli.run_cli("segment", manifest, "--weights", weights,
                            "--schedule", "always", "--out", out,
                            "--save-scores")
    assert proc.returncode == 0, proc.stderr
    proc = test_cli.run_cli("eval", out, manifest, "--scores-dir", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    expected = {"acc", "cl_acc", "miu", "fwiu", "per_class_iu", "precision",
                "recall", "f1", "fpr", "fnr", "avg_precision"}
    assert set(report) == expected
    for key in expected - {"per_class_iu"}:
        assert report[key] is not None
    assert len(report["per_class_iu"]) == 2
    assert all(v is not None for v in report["per_class_iu"])
