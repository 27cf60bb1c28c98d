import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwseg.cli as cli
from cwseg import (
    ConfusionMatrix,
    DEFAULT_PALETTE,
    NumericError,
    build_report,
    decode_gt_mask,
    read_image,
    read_weights,
    write_image,
    write_mask,
    write_pnm,
    write_weights,
)
from oracles import average_precision_argsort, decode_gt_mask_int64
from testutil import assert_elapsed_rule, fixed_sequence, make_frame, random_frames

CMD = [sys.executable, "-m", "cwseg"]


def run_cli(*args):
    return subprocess.run(
        CMD + [str(a) for a in args], capture_output=True, text=True
    )


def write_frames(dirpath, frames, gt_masks=None):
    """Write frames (and optional GT color masks) plus a manifest."""
    lines = []
    for i, frame in enumerate(frames):
        name = f"frame{i:03d}.ppm"
        write_image(dirpath / name, frame)
        if gt_masks is None:
            lines.append(name)
        else:
            gt_name = f"gt{i:03d}.ppm"
            write_mask(gt_masks[i], DEFAULT_PALETTE, dirpath / gt_name)
            lines.append(f"{name} {gt_name}")
    manifest = dirpath / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "tiny.cwf"
    proc = run_cli("gen-weights", "--seed", 7, "--base-width", 2,
                   "--classes", 2, "--out", path)
    assert proc.returncode == 0, proc.stderr
    return path


def read_trace(out_dir):
    lines = (out_dir / "trace.jsonl").read_text().strip().splitlines()
    return [json.loads(line) for line in lines]


def test_gen_weights_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.cwf", tmp_path / "b.cwf"
    assert run_cli("gen-weights", "--seed", 3, "--out", p1).returncode == 0
    assert run_cli("gen-weights", "--seed", 3, "--out", p2).returncode == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_segment_always_three_frames(tmp_path, weights_file):
    manifest = write_frames(tmp_path, random_frames(1, 3))
    out = tmp_path / "out"
    proc = run_cli("segment", manifest, "--weights", weights_file,
                   "--schedule", "always", "--out", out)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["frames"] == 3
    assert summary["firings"] == {"stage1": 3, "stage2": 3, "stage3": 3}
    assert summary["fps"] > 0
    assert 0 < summary["frame_ms_p50"] <= summary["frame_ms_p90"]
    assert summary["minor_faults_per_frame"] >= 0
    for i in range(3):
        assert (out / f"frame{i:03d}.ppm").exists()
    trace = read_trace(out)
    assert [t["fired"] for t in trace] == [[1, 2, 3]] * 3


@pytest.mark.parametrize("has_resource", [True, False])
def test_segment_summary_rates_from_emit_marks(tmp_path, capsys, monkeypatch,
                                              weights_file, has_resource):
    """fps and the interval percentiles come from the frame loop's marks:
    frame 0's step start, then each emit's end (a scripted clock here);
    faults per frame are null without ``resource``."""
    manifest = write_frames(tmp_path, random_frames(5, 3))
    clock = iter([0.0, 0.010, 0.030, 0.060])
    monkeypatch.setattr(cli, "time",
                        SimpleNamespace(perf_counter=lambda: next(clock)))
    if not has_resource:
        monkeypatch.setattr(cli, "resource", None)
    assert cli.main(["segment", str(manifest), "--weights", str(weights_file),
                     "--out", str(tmp_path / "out")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert next(clock, None) is None
    assert summary["fps"] == pytest.approx(3 / 0.060)
    # Intervals 10, 20 and 30 ms, percentiles interpolated as numpy does.
    assert summary["frame_ms_p50"] == pytest.approx(20.0)
    assert summary["frame_ms_p90"] == pytest.approx(28.0)
    faults = summary["minor_faults_per_frame"]
    if has_resource:
        assert isinstance(faults, float) and faults >= 0
    else:
        assert faults is None


def test_adaptive_negative_theta_matches_always(tmp_path, weights_file):
    manifest = write_frames(tmp_path, random_frames(2, 4))
    out_a = tmp_path / "always"
    out_b = tmp_path / "adaptive"
    assert run_cli("segment", manifest, "--weights", weights_file,
                   "--schedule", "always", "--out", out_a).returncode == 0
    assert run_cli("segment", manifest, "--weights", weights_file,
                   "--schedule", "adaptive", "--theta", -1, "--out",
                   out_b).returncode == 0
    for i in range(4):
        name = f"frame{i:03d}.ppm"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_fixed_schedule_trace_pattern(tmp_path, weights_file):
    manifest = write_frames(tmp_path, random_frames(3, 8))
    out = tmp_path / "out"
    proc = run_cli("segment", manifest, "--weights", weights_file,
                   "--schedule", "fixed", "--period2", 2, "--period3", 4,
                   "--out", out)
    assert proc.returncode == 0, proc.stderr
    trace = read_trace(out)
    assert [t["frame_index"] for t in trace] == list(range(8))
    assert [t["frame_index"] for t in trace if 2 in t["fired"]] == [0, 2, 4, 6]
    assert [t["frame_index"] for t in trace if 3 in t["fired"]] == [0, 4]


@pytest.mark.parametrize("policy", ["reuse-final", "fuse-cached-deep"])
def test_trace_elapsed_names_exactly_the_parts_that_ran(tmp_path, weights_file,
                                                        policy):
    manifest = write_frames(tmp_path, fixed_sequence())
    fired3 = {}
    for schedule, extra in (("always", ()),
                            ("fixed", ("--period2", 2, "--period3", 4)),
                            ("adaptive", ("--theta", 0.002))):
        out = tmp_path / schedule
        proc = run_cli("segment", manifest, "--weights", weights_file,
                       "--schedule", schedule, *extra,
                       "--skip-policy", policy, "--out", out)
        assert proc.returncode == 0, proc.stderr
        trace = read_trace(out)
        for t in trace:
            assert_elapsed_rule(t["fired"], policy, t["elapsed"])
        fired3[schedule] = [t["frame_index"] for t in trace if 3 in t["fired"]]
    assert fired3["fixed"] == [0, 4]
    assert 0 < len(fired3["adaptive"]) < len(fixed_sequence())


def checkerboard(h, w):
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return ((yy + xx) % 2).astype(np.int64)


def test_eval_perfect_predictions(tmp_path, weights_file):
    """Predictions identical to GT, scores that rank positives first."""
    frames = random_frames(4, 3)
    masks = [checkerboard(32, 32) for _ in frames]
    manifest = write_frames(tmp_path, frames, gt_masks=masks)
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    for i, mask in enumerate(masks):
        write_mask(mask, DEFAULT_PALETTE, pred_dir / f"frame{i:03d}.ppm")
        scores = np.stack([1.0 - mask, mask]).astype(np.float32)
        write_weights({"scores": scores},
                      pred_dir / f"frame{i:03d}.scores.cwf")
    proc = run_cli("eval", pred_dir, manifest, "--scores-dir", pred_dir)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["acc"] == 1.0
    assert report["cl_acc"] == 1.0
    assert report["miu"] == 1.0
    assert report["fwiu"] == 1.0
    assert report["precision"] == 1.0
    assert report["recall"] == 1.0
    assert report["avg_precision"] == 1.0
    assert sorted(report.keys()) == sorted([
        "acc", "cl_acc", "miu", "fwiu", "per_class_iu", "precision",
        "recall", "f1", "fpr", "fnr", "avg_precision",
    ])


def test_segment_scores_feed_eval(tmp_path, weights_file):
    """The segment --save-scores output is consumable by eval --scores-dir."""
    frames = random_frames(4, 3)
    masks = [checkerboard(32, 32) for _ in frames]
    manifest = write_frames(tmp_path, frames, gt_masks=masks)
    out = tmp_path / "out"
    assert run_cli("segment", manifest, "--weights", weights_file,
                   "--out", out, "--save-scores").returncode == 0
    proc = run_cli("eval", out, manifest, "--scores-dir", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["avg_precision"] is not None
    assert 0.0 <= report["avg_precision"] <= 1.0
    assert 0.0 <= report["acc"] <= 1.0


def test_eval_thread_count_does_not_change_result(tmp_path, capsys,
                                                  monkeypatch, weights_file):
    frames = random_frames(5, 4)
    manifest = write_frames(tmp_path, frames)
    out = tmp_path / "out"
    assert cli.main(["segment", str(manifest), "--weights", str(weights_file),
                     "--out", str(out), "--save-scores"]) == 0
    masks = [decode_gt_mask(read_image(out / f"frame{i:03d}.ppm",
                                       scaled=False), DEFAULT_PALETTE)
             for i in range(4)]
    # perturb one mask so the metrics are not all trivially 1.0
    masks[1] = 1 - masks[1]
    manifest2 = write_frames(tmp_path, frames, gt_masks=masks)
    # Infinite scores in two frames: frame 1 is mostly positive, frame 2
    # mostly negative.
    rng = np.random.default_rng(5)
    pooled = []
    for i in range(4):
        path = out / f"frame{i:03d}.scores.cwf"
        scores = read_weights(path)["scores"].copy()
        if i in (1, 2):
            at = rng.choice(scores[1].size, 40, replace=False)
            scores[1].flat[at] = rng.choice([np.inf, -np.inf], 40)
            write_weights({"scores": scores}, path)
        pooled.append(scores[1].ravel())
    pooled_truth = np.concatenate([m.ravel() for m in masks])
    want = average_precision_argsort(np.concatenate(pooled), pooled_truth)
    reports = []
    for workers in (1, 4):
        monkeypatch.setattr(cli, "_eval_worker_count", lambda: workers)
        capsys.readouterr()
        assert cli.main(["eval", str(out), str(manifest2),
                         "--scores-dir", str(out)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["avg_precision"] == want


def _write_scores(pred_dir, chws):
    for i, chw in enumerate(chws):
        write_weights({"scores": chw}, pred_dir / f"frame{i:03d}.scores.cwf")


@pytest.fixture(scope="module")
def shuffled_eval_dir(tmp_path_factory):
    """Five frames' truth and predicted masks and score stores whose
    positive channel is tie-heavy and holds both infinities."""
    root = tmp_path_factory.mktemp("shuffled_eval")
    rng = np.random.default_rng(21)
    truths = [rng.integers(0, 2, (8, 12)) for _ in range(5)]
    preds = [np.where(rng.random(t.shape) < 0.8, t, 1 - t) for t in truths]
    _, pred_dir = write_eval_inputs(root, truths, preds)
    values = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 0.5, 2.0, np.inf],
                      dtype=np.float32)
    _write_scores(pred_dir, [rng.choice(values, (2, 8, 12)) for _ in truths])
    return root


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(5)))
def test_eval_report_is_the_same_bytes_in_any_frame_order(shuffled_eval_dir,
                                                         order):
    root, pred = shuffled_eval_dir, str(shuffled_eval_dir / "pred")
    reports = []
    for name, lines in (("in_order.txt", range(5)), ("shuffled.txt", order)):
        (root / name).write_text("".join(f"frame{i:03d}.ppm gt{i:03d}.ppm\n"
                                         for i in lines))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["eval", pred, str(root / name),
                             "--scores-dir", pred]) == 0
        reports.append(out.getvalue())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["avg_precision"] is not None


@pytest.fixture(scope="module")
def mixed_size_eval_dir(tmp_path_factory):
    """Six frames of three sizes: truth and predicted masks, score stores
    with ties, and the pooled positive scores and int64 truth labels."""
    root = tmp_path_factory.mktemp("mixed_size_eval")
    rng = np.random.default_rng(812)
    shapes = [(8, 12), (16, 20), (8, 12), (16, 20), (5, 7), (16, 20)]
    truths = [rng.integers(0, 2, shape) for shape in shapes]
    preds = [np.where(rng.random(t.shape) < 0.7, t, 1 - t) for t in truths]
    _, pred_dir = write_eval_inputs(root, truths, preds)
    chws = [rng.integers(-4, 5, (2, *t.shape)).astype(np.float32) / 4
            for t in truths]
    _write_scores(pred_dir, chws)
    return root, truths, chws


@pytest.mark.parametrize("workers", [1, 4])
def test_eval_pools_frames_of_different_sizes(mixed_size_eval_dir, capsys,
                                              monkeypatch, workers):
    """Frames of three sizes, in manifest order and reversed: the same
    report bytes, with avg_precision of the pooled scores and every other
    field from build_report of the pooled labels. The switch interval is
    short, so workers interleave as they take slots of the pooled buffer."""
    root, truths, chws = mixed_size_eval_dir
    pred = root / "pred"
    monkeypatch.setattr(cli, "_eval_worker_count", lambda: workers)
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for name, order in (("forward.txt", range(6)),
                            ("reversed.txt", reversed(range(6)))):
            (root / name).write_text("".join(
                f"frame{i:03d}.ppm gt{i:03d}.ppm\n" for i in order))
            capsys.readouterr()
            assert cli.main(["eval", str(pred), str(root / name),
                             "--scores-dir", str(pred)]) == 0
            reports.append(capsys.readouterr().out)
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1]
    cm = ConfusionMatrix(2)
    for i in range(6):
        cm.add(truths[i], decode_gt_mask_int64(
            read_image(pred / f"frame{i:03d}.ppm"), DEFAULT_PALETTE))
    labels = np.concatenate([t.ravel() for t in truths])
    scores = np.concatenate([chw[1].ravel() for chw in chws])
    want = build_report(cm).to_dict()
    del want["avg_precision"]
    got = json.loads(reports[0])
    assert got.pop("avg_precision") == average_precision_argsort(scores, labels)
    assert got == want


@pytest.mark.parametrize("slack", [0, -1], ids=["exact", "one-short"])
def test_eval_refuses_a_truth_larger_than_its_stat_bound(
        mixed_size_eval_dir, capsys, monkeypatch, slack, tmp_path):
    """A truth mask whose pixels outnumber the bound eval sized its pooled
    scores by (as when it grows after eval stat'ed it) exits 3 naming it,
    with no report; a bound of exactly its pixels is enough."""
    root, truths, _ = mixed_size_eval_dir
    pred, grown = root / "pred", root / "gt003.ppm"
    pixel_bound = cli._pixel_bound
    monkeypatch.setattr(cli, "_pixel_bound", lambda path: (
        truths[3].size + slack if Path(path) == grown else pixel_bound(path)))
    manifest = root / "forward.txt"
    manifest.write_text("".join(f"frame{i:03d}.ppm gt{i:03d}.ppm\n"
                                for i in range(6)))
    report = tmp_path / "report.json"
    code = cli.main(["eval", str(pred), str(manifest), "--scores-dir",
                     str(pred), "--out", str(report)])
    out, err = capsys.readouterr()
    if slack == 0:
        assert code == 0, err
        assert report.read_text() == out
        return
    assert code == 3
    assert out == "" and not report.exists()
    assert err == (f"error: {grown}: mask has 320 pixels, more than its file "
                   f"size allowed (319) when eval started; it changed while "
                   f"eval ran\n")


def test_eval_refuses_a_nan_score_with_exit_4_and_no_report(tmp_path):
    masks = [checkerboard(4, 6)] * 2
    manifest, pred = write_eval_inputs(tmp_path, masks, masks)
    chws = [np.ones((2, 4, 6), np.float32) for _ in masks]
    chws[1][1, 2, 3] = np.nan
    _write_scores(pred, chws)
    report = tmp_path / "r.json"
    proc = run_cli("eval", pred, manifest, "--scores-dir", pred,
                   "--out", report)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == ("error: average precision is undefined on "
                           "NaN scores (1 found)\n")
    assert proc.stdout == ""
    assert not report.exists()


def test_eval_prints_nothing_when_its_report_cannot_be_written(
        tmp_path, capsys):
    """The report file is written before the report is printed: an --out
    in a missing directory exits 3 with an empty stdout."""
    masks = [checkerboard(4, 6)] * 2
    manifest, pred = write_eval_inputs(tmp_path, masks, masks)
    report = tmp_path / "nodir" / "r.json"
    assert cli.main(["eval", str(pred), str(manifest), "--out",
                     str(report)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(report) in err
    assert not report.parent.exists()


def test_eval_without_positive_pixels_exits_4(tmp_path):
    frames = random_frames(8, 2)
    masks = [np.zeros((32, 32), dtype=np.int64)] * 2
    manifest = write_frames(tmp_path, frames, gt_masks=masks)
    pred = tmp_path / "pred"
    pred.mkdir()
    for i, mask in enumerate(masks):
        write_mask(mask, DEFAULT_PALETTE, pred / f"frame{i:03d}.ppm")
        write_weights({"scores": np.zeros((2, 32, 32), np.float32)},
                      pred / f"frame{i:03d}.scores.cwf")
    proc = run_cli("eval", pred, manifest, "--scores-dir", pred)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == ("error: average precision is undefined: "
                           "no positive pixels in truth\n")


@pytest.mark.parametrize("cpus, workers", [(1, 1), (8, 4)])
def test_eval_pool_size_is_min_of_4_and_usable_cpus(monkeypatch, cpus,
                                                    workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._eval_worker_count() == workers


def test_eval_pool_size_without_affinity_counts_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli._eval_worker_count() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._eval_worker_count() == 1


def test_eval_missing_prediction_names_frame(tmp_path, weights_file):
    frames = random_frames(6, 2)
    gt = [np.zeros((32, 32), dtype=np.int64)] * 2
    manifest = write_frames(tmp_path, frames, gt_masks=gt)
    empty = tmp_path / "empty"
    empty.mkdir()
    proc = run_cli("eval", empty, manifest)
    assert proc.returncode == 3
    assert "frame000" in proc.stderr


def write_eval_inputs(dirpath, truths, preds, palette=DEFAULT_PALETTE):
    """Truth masks, a manifest naming them and a ``pred`` directory of
    predicted masks; no frame image is written, as eval reads none."""
    pred_dir = dirpath / "pred"
    pred_dir.mkdir()
    lines = []
    for i, (truth, pred) in enumerate(zip(truths, preds)):
        write_mask(truth, palette, dirpath / f"gt{i:03d}.ppm")
        write_mask(pred, palette, pred_dir / f"frame{i:03d}.ppm")
        lines.append(f"frame{i:03d}.ppm gt{i:03d}.ppm")
    manifest = dirpath / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest, pred_dir


def test_eval_refuses_frames_sharing_a_stem(tmp_path):
    masks = [np.zeros((4, 4), dtype=np.int64)] * 2
    _, pred = write_eval_inputs(tmp_path, masks, masks)
    manifest = tmp_path / "dup.txt"
    manifest.write_text("a/frame000.ppm gt000.ppm\nb/frame000.ppm gt001.ppm\n")
    proc = run_cli("eval", pred, manifest)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("error: manifest has multiple frames with stem "
                           "'frame000'; per-frame file names would collide\n")


def test_eval_unknown_prediction_colour_names_the_file(tmp_path):
    masks = [checkerboard(4, 6)] * 3
    manifest, pred = write_eval_inputs(tmp_path, masks, masks)
    bad = np.zeros((4, 6, 3), dtype=np.uint8)
    bad[3, 5] = (12, 34, 56)
    write_pnm(pred / "frame002.ppm", bad)
    proc = run_cli("eval", pred, manifest)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        f"error: {pred / 'frame002.ppm'}: mask pixel at row 3, col 5 has "
        f"color (12, 34, 56) which is not in the palette\n")


def test_eval_gray_truth_mask_names_the_file(tmp_path):
    masks = [checkerboard(4, 6)] * 2
    manifest, pred = write_eval_inputs(tmp_path, masks, masks)
    write_pnm(tmp_path / "gt000.ppm", np.zeros((4, 6), dtype=np.uint8))
    proc = run_cli("eval", pred, manifest)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == (
        f"error: {tmp_path / 'gt000.ppm'}: mask image must be RGB "
        f"(3 channels), got 1\n")


def test_eval_refuses_a_transposed_prediction(tmp_path):
    """A prediction with the truth's pixel count but not its shape is an
    error naming both files, not a raster-order pairing."""
    manifest, pred = write_eval_inputs(tmp_path, [checkerboard(4, 6)] * 2,
                                       [checkerboard(4, 6)] * 2)
    write_mask(checkerboard(6, 4), DEFAULT_PALETTE, pred / "frame001.ppm")
    proc = run_cli("eval", pred, manifest)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == (
        f"error: {pred / 'frame001.ppm'}: pred shape (6, 4) != truth shape "
        f"(4, 6) of {tmp_path / 'gt001.ppm'}\n")


_SIX_COLOURS = ((0, 0, 0), (255, 0, 255), (0, 128, 255), (255, 255, 0),
                (9, 9, 9), (200, 100, 50))


_EIGHT_COLOURS = _SIX_COLOURS + ((1, 2, 3), (250, 250, 250))
_NINETEEN_COLOURS = _EIGHT_COLOURS + tuple(
    (20 * k, 255 - 20 * k, 7 * k) for k in range(1, 12))


# Both sides of add_hits' rule: pairwise up to 6 classes, index maps above.
@pytest.mark.parametrize("palette", [
    DEFAULT_PALETTE,
    _SIX_COLOURS[:3],
    _SIX_COLOURS,
    _EIGHT_COLOURS,
    _NINETEEN_COLOURS,
])
def test_eval_report_equals_build_report_of_int64_labels(tmp_path, capsys,
                                                        palette):
    """eval, matching the mask files on their bytes, prints the report that
    ``build_report`` makes from int64 labels of the same files, and the
    oracle's average precision."""
    n = len(palette)
    rng = np.random.default_rng(n)
    truths = [rng.integers(0, n, (16, 24)) for _ in range(3)]
    preds = [np.where(rng.random((16, 24)) < 0.7, t, rng.integers(0, n, t.shape))
             for t in truths]
    manifest, pred = write_eval_inputs(tmp_path, truths, preds, palette)
    scores = []
    for i in range(3):
        chw = rng.standard_normal((2, 16, 24)).astype(np.float32)
        write_weights({"scores": chw}, pred / f"frame{i:03d}.scores.cwf")
        scores.append(chw[1].ravel())
    cm, labels = ConfusionMatrix(n), []
    for i in range(3):
        truth = decode_gt_mask_int64(read_image(tmp_path / f"gt{i:03d}.ppm"),
                                     palette)
        cm.add(truth, decode_gt_mask_int64(
            read_image(pred / f"frame{i:03d}.ppm"), palette))
        labels.append(truth.ravel())
    want = build_report(cm, positive_class=1, scores=np.concatenate(scores),
                        truth=np.concatenate(labels))
    text = ":".join(",".join(str(v) for v in c) for c in palette)
    assert cli.main(["eval", str(pred), str(manifest), "--scores-dir",
                     str(pred), "--palette", text]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(want.to_dict(), indent=2) + "\n"
    assert json.loads(out)["avg_precision"] == average_precision_argsort(
        np.concatenate(scores), np.concatenate(labels))


def _file_bytes(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("how", ["same-dir", "symlinked-dir", "dot-from-cwd"])
def test_segment_refuses_to_write_masks_over_its_frames(
        tmp_path, monkeypatch, capsys, weights_file, how):
    """Masks are named by frame stem, so an --out holding the .ppm frames
    would replace them; the run is refused before any write, and an old
    trace.jsonl there is left alone."""
    frames = tmp_path / "frames"
    frames.mkdir()
    write_frames(frames, random_frames(9, 3))
    (frames / "trace.jsonl").write_text("an older run's trace\n")
    before = _file_bytes(frames)
    manifest, out = frames / "manifest.txt", frames
    if how == "symlinked-dir":
        out = tmp_path / "link"
        out.symlink_to(frames)
    elif how == "dot-from-cwd":
        monkeypatch.chdir(frames)
        manifest, out = "manifest.txt", "."
    assert cli.main(["segment", str(manifest), "--weights", str(weights_file),
                     "--out", str(out)]) == 4
    clash = os.path.join(str(out), "frame000.ppm")
    assert capsys.readouterr().err == (
        f"error: output {clash} would overwrite input "
        f"{Path(manifest).parent / 'frame000.ppm'}\n")
    assert _file_bytes(frames) == before


@pytest.mark.parametrize("victim", ["manifest", "weights"])
def test_segment_refuses_to_write_over_its_manifest_or_weights(
        tmp_path, capsys, weights_file, victim):
    """The manifest named as the trace, or the weight store named as a
    frame's score file, in the output directory."""
    write_frames(tmp_path, random_frames(9, 2))
    out = tmp_path / "out"
    out.mkdir()
    manifest = tmp_path / "manifest.txt"
    weights = out / "frame001.scores.cwf"
    weights.write_bytes(weights_file.read_bytes())
    if victim == "manifest":
        manifest = out / "trace.jsonl"
        manifest.write_text("".join(f"{tmp_path / f'frame{i:03d}.ppm'}\n"
                                    for i in range(2)))
        weights = weights_file
    before = _file_bytes(tmp_path)
    assert cli.main(["segment", str(manifest), "--weights", str(weights),
                     "--out", str(out), "--save-scores"]) == 4
    target = manifest if victim == "manifest" else weights
    assert capsys.readouterr().err == (
        f"error: output {target} would overwrite input {target}\n")
    assert _file_bytes(tmp_path) == before


def _link(path, target, how):
    """Make ``path`` a symbolic or a hard link to ``target``."""
    if how == "symlink":
        path.symlink_to(target)
    else:
        os.link(target, path)


@pytest.mark.parametrize("how", ["symlink", "hardlink"])
@pytest.mark.parametrize("output", ["frame001.ppm", "frame001.scores.cwf"],
                         ids=["mask", "scores"])
def test_segment_refuses_to_write_through_a_link_to_a_frame(
        tmp_path, capsys, weights_file, how, output):
    """An output in --out that is a link to frame 0 is frame 0, whatever
    its name: the run is refused before any write."""
    frames, out = tmp_path / "frames", tmp_path / "out"
    frames.mkdir()
    out.mkdir()
    manifest = write_frames(frames, random_frames(9, 2))
    _link(out / output, frames / "frame000.ppm", how)
    before = _file_bytes(tmp_path)
    assert cli.main(["segment", str(manifest), "--weights", str(weights_file),
                     "--out", str(out), "--save-scores"]) == 4
    assert capsys.readouterr().err == (
        f"error: output {out / output} would overwrite input "
        f"{frames / 'frame000.ppm'}\n")
    assert _file_bytes(tmp_path) == before


def test_segment_over_old_outputs_fails_at_a_missing_frame(
        tmp_path, capsys, weights_file):
    """A frame that cannot be stat'ed is not compared with the outputs
    already in --out: it fails at its own turn, after frame 0's mask."""
    out = tmp_path / "out"
    out.mkdir()
    manifest = write_frames(tmp_path, random_frames(9, 3))
    (out / "frame000.ppm").write_bytes(b"an older run's mask")
    (tmp_path / "frame001.ppm").unlink()
    assert cli.main(["segment", str(manifest), "--weights", str(weights_file),
                     "--out", str(out)]) == 3
    assert "frame001.ppm" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["frame000.ppm"]
    assert read_image(out / "frame000.ppm").shape == (3, 32, 32)


@pytest.mark.parametrize("how", ["symlink", "hardlink"])
def test_eval_refuses_to_write_its_report_through_a_link_to_the_manifest(
        tmp_path, capsys, how):
    masks = [checkerboard(4, 6)] * 2
    manifest, pred = write_eval_inputs(tmp_path, masks, masks)
    report = tmp_path / "reports" / "r.json"
    report.parent.mkdir()
    _link(report, manifest, how)
    before = _file_bytes(tmp_path)
    assert cli.main(["eval", str(pred), str(manifest), "--out",
                     str(report)]) == 4
    assert capsys.readouterr().err == (
        f"error: output {report} would overwrite input {manifest}\n")
    assert _file_bytes(tmp_path) == before


@pytest.mark.parametrize("victim", ["manifest.txt", "gt001.ppm",
                                    "pred/frame001.ppm",
                                    "pred/frame001.scores.cwf"])
def test_eval_refuses_to_write_its_report_over_an_input(tmp_path, victim):
    masks = [checkerboard(4, 6)] * 2
    manifest, pred = write_eval_inputs(tmp_path, masks, masks)
    _write_scores(pred, [np.stack([1 - m, m]).astype(np.float32)
                         for m in masks])
    before = _file_bytes(tmp_path)
    proc = run_cli("eval", pred, manifest, "--scores-dir", pred,
                   "--out", tmp_path / victim)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == (f"error: output {tmp_path / victim} would "
                           f"overwrite input {tmp_path / victim}\n")
    assert _file_bytes(tmp_path) == before
    # A report beside the inputs is written, the same bytes as stdout.
    proc = run_cli("eval", pred, manifest, "--scores-dir", pred,
                   "--out", pred / "report.json")
    assert proc.returncode == 0, proc.stderr
    assert (pred / "report.json").read_text() == proc.stdout


def test_usage_errors_exit_2(tmp_path):
    assert run_cli().returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("segment", "m.txt", "--out", "x").returncode == 2  # no --weights


def test_io_errors_exit_3(tmp_path, weights_file):
    proc = run_cli("segment", tmp_path / "missing.txt",
                   "--weights", weights_file, "--out", tmp_path / "o")
    assert proc.returncode == 3

    manifest = write_frames(tmp_path, random_frames(7, 1))
    bad = tmp_path / "bad.cwf"
    bad.write_bytes(b"NOTAWEIGHTFILE")
    proc = run_cli("segment", manifest, "--weights", bad,
                   "--out", tmp_path / "o")
    assert proc.returncode == 3
    assert "magic" in proc.stderr


def test_only_package_errors_exit_4(tmp_path, monkeypatch, capsys):
    """A NumericError exits 4; a plain ValueError, such as one of numpy's,
    is a defect and escapes main with its traceback."""
    argv = ["gen-weights", "--out", str(tmp_path / "w.cwf")]

    def fail(exc):
        def command(args):
            raise exc
        return command

    monkeypatch.setattr(cli, "cmd_gen_weights",
                        fail(NumericError("factor out of range")))
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "error: factor out of range\n"
    monkeypatch.setattr(cli, "cmd_gen_weights", fail(ValueError("numpy")))
    with pytest.raises(ValueError, match="numpy"):
        cli.main(argv)


def test_contract_errors_exit_4(tmp_path, weights_file):
    # 48 is not divisible by 32
    frames = [make_frame(3, 48, 48)]
    manifest = write_frames(tmp_path, frames)
    proc = run_cli("segment", manifest, "--weights", weights_file,
                   "--out", tmp_path / "o")
    assert proc.returncode == 4


@pytest.mark.parametrize("command", ["segment", "bench"])
@pytest.mark.parametrize("entry, value", [
    ("conv1_1", np.zeros(3, dtype=np.float32)),  # rank 1
    ("score_fr", np.float32(1.0)),                # rank 0
])
def test_weight_entry_of_wrong_rank_exits_4(tmp_path, weights_file, command,
                                            entry, value):
    store = read_weights(weights_file)
    store[entry] = value
    bad = tmp_path / "bad.cwf"
    write_weights(store, bad)
    manifest = write_frames(tmp_path, random_frames(12, 1))
    extra = ("--out", tmp_path / "o") if command == "segment" else ()
    proc = run_cli(command, manifest, "--weights", bad, *extra)
    assert proc.returncode == 4, proc.stderr
    assert "error:" in proc.stderr and entry in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["segment", "eval", "bench"])
def test_manifest_not_utf8_exits_3(tmp_path, weights_file, command):
    manifest = tmp_path / "m.txt"
    manifest.write_bytes(b"# frames\nf\xff.ppm\n")
    args = {"segment": ("segment", manifest, "--weights", weights_file,
                        "--out", tmp_path / "o"),
            "eval": ("eval", tmp_path, manifest),
            "bench": ("bench", manifest, "--weights", weights_file)}[command]
    proc = run_cli(*args)
    assert proc.returncode == 3, proc.stderr
    assert f"{manifest}:2: not valid UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_always_work_ratio_is_one(tmp_path, weights_file):
    manifest = write_frames(tmp_path, random_frames(9, 3))
    proc = run_cli("bench", manifest, "--weights", weights_file,
                   "--schedule", "always")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["work_ratio"] == 1.0
    assert report["full"]["macs"] == report["clockwork"]["macs"]
    assert report["full"]["firings"]["stage3"] == 3


def test_bench_repeat_sums_every_pass(tmp_path, weights_file):
    manifest = write_frames(tmp_path, random_frames(12, 10))
    reports = []
    for repeat in (1, 3):
        proc = run_cli("bench", manifest, "--weights", weights_file,
                       "--schedule", "fixed", "--repeat", repeat)
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout))
    once, thrice = reports
    assert thrice["repeat"] == 3
    for arm in ("full", "clockwork"):
        assert thrice[arm]["firings"]["stage1"] == 30
        assert thrice[arm]["macs"] == 3 * once[arm]["macs"]
        assert thrice[arm]["firings"] == {
            k: 3 * v for k, v in once[arm]["firings"].items()}
    assert thrice["work_ratio"] == once["work_ratio"] < 1.0


def test_bench_repeat_below_one_is_usage_error(tmp_path, weights_file):
    manifest = write_frames(tmp_path, random_frames(9, 1))
    for bad in ("0", "-1", "two"):
        proc = run_cli("bench", manifest, "--weights", weights_file,
                       "--repeat", bad)
        assert proc.returncode == 2, proc.stderr
        assert "--repeat" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_bench_static_adaptive_fires_once(tmp_path, weights_file):
    frames = [random_frames(10, 1)[0]] * 16
    manifest = write_frames(tmp_path, frames)
    proc = run_cli("bench", manifest, "--weights", weights_file,
                   "--schedule", "adaptive", "--theta", "1e-6")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["clockwork"]["firings"]["stage3"] == 1
    assert report["clockwork"]["firings"]["stage1"] == 16
    assert report["work_ratio"] < 1.0
    assert report["speedup_work"] > 1.0
    full, cw = report["full"], report["clockwork"]
    arm_keys = {"total_elapsed", "per_stage_elapsed", "macs", "firings"}
    assert set(full) == arm_keys
    assert set(cw) == arm_keys | {"schedule"}
    assert report["wall_ratio"] == cw["total_elapsed"] / full["total_elapsed"]
    assert report["speedup_wall"] == full["total_elapsed"] / cw["total_elapsed"]
