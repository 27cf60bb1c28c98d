import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cwseg.cli as cli
from cwseg import NumericError, read_weights, write_image, write_weights
from oracles import average_precision_argsort
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
            from cwseg import DEFAULT_PALETTE, write_mask

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
    for i in range(3):
        assert (out / f"frame{i:03d}.ppm").exists()
    trace = read_trace(out)
    assert [t["fired"] for t in trace] == [[1, 2, 3]] * 3


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
    from cwseg import DEFAULT_PALETTE, write_mask, write_weights

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
    from cwseg import DEFAULT_PALETTE, decode_gt_mask, read_image

    masks = [decode_gt_mask(read_image(out / f"frame{i:03d}.ppm"),
                            DEFAULT_PALETTE) for i in range(4)]
    # perturb one mask so the metrics are not all trivially 1.0
    masks[1] = 1 - masks[1]
    manifest2 = write_frames(tmp_path, frames, gt_masks=masks)
    # NaN scores in two frames: frame 1 is mostly positive, frame 2 mostly
    # negative.
    rng = np.random.default_rng(5)
    pooled = []
    for i in range(4):
        path = out / f"frame{i:03d}.scores.cwf"
        scores = read_weights(path)["scores"].copy()
        if i in (1, 2):
            scores[1].flat[rng.choice(scores[1].size, 40, replace=False)] = np.nan
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


def test_eval_without_positive_pixels_exits_4(tmp_path):
    from cwseg import DEFAULT_PALETTE, write_mask

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
