"""Workload definitions and seeded input generation for the cwseg benchmark.

Every input file is a pure function of (workload, seed, size). Frames and
ground-truth masks are written with the small PPM encoder below rather than
the package's own writer, so the inputs stay the same while the package
changes. Weights always come from ``gen_weights(seed=42)``.

``prepare`` runs in a child process of the benchmark (see ``prepare.py``):
it also computes the reference outputs that every timed pass is checked
against, so the measuring process never holds them at its memory peak.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WEIGHTS_SEED = 42
# The CLI's default palette: class 0 black, class 1 magenta.
PALETTE = np.array([(0, 0, 0), (255, 0, 255)], dtype=np.uint8)
# Required ratio of the smallest scene-cut change to the largest
# within-scene change before theta is placed between them.
FIRE_MARGIN = 1.5
MAX_DRAWS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "segment" or "eval"
    height: int
    width: int
    frames: int           # frames in one pass over the sequence
    schedule: str         # segment schedule; "-" for eval
    save_scores: bool
    min_frames: int       # timed frames per run, at least (p90 needs 100)


FULL = {
    w.name: w for w in (
        Workload("segment-hd-drift", "segment", 256, 512, 32, "adaptive", True, 100),
        Workload("segment-small-always", "segment", 64, 64, 120, "always", False, 100),
        Workload("eval-hd", "eval", 256, 512, 24, "-", True, 100),
    )
}

# Smallest sizes that still exercise every code path, for the smoke mode.
SMOKE = {
    w.name: w for w in (
        Workload("segment-hd-drift", "segment", 64, 64, 12, "adaptive", True, 1),
        Workload("segment-small-always", "segment", 32, 32, 6, "always", False, 1),
        Workload("eval-hd", "eval", 32, 32, 4, "-", True, 1),
    )
}


def ppm_bytes(pixels: np.ndarray) -> bytes:
    """Binary P6 encoding of (H, W, 3) uint8 pixels."""
    h, w = pixels.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(pixels).tobytes()


def mask_ppm_bytes(labels: np.ndarray) -> bytes:
    """The PPM bytes of a class-label mask drawn in the default palette."""
    return ppm_bytes(PALETTE[labels])


# ---------------------------------------------------------------------------
# Drifting textured scenes


def _scene(rng: np.random.Generator) -> dict:
    k = 5
    return {
        "freq": rng.uniform(0.004, 0.04, (3, k, 2)),
        "phase": rng.uniform(0.0, 2.0 * math.pi, (3, k)),
        "amp": rng.uniform(0.3, 1.0, (3, k)),
        "vel": rng.uniform(-0.3, 0.3, 2),       # pixels per frame
        "mean": rng.uniform(0.25, 0.75, 3),
        "contrast": rng.uniform(0.15, 0.25, 3),
    }


def _render(scene: dict, t: int, h: int, w: int) -> np.ndarray:
    """Sum-of-sinusoids texture translated by ``t`` frames of drift."""
    yy = np.arange(h, dtype=np.float64)[:, None] + scene["vel"][0] * t
    xx = np.arange(w, dtype=np.float64)[None, :] + scene["vel"][1] * t
    img = np.empty((h, w, 3), dtype=np.float64)
    for c in range(3):
        acc = np.zeros((h, w))
        for j in range(scene["freq"].shape[1]):
            fy, fx = scene["freq"][c, j]
            acc += scene["amp"][c, j] * np.sin(
                2.0 * math.pi * (fy * yy + fx * xx) + scene["phase"][c, j])
        img[:, :, c] = (acc * (scene["contrast"][c] / scene["amp"][c].sum())
                        + scene["mean"][c])
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def drift_sequence(rng: np.random.Generator, n: int, h: int, w: int):
    """``n`` frames of slowly drifting scenes, n // 4 scenes of 3 to 5 frames
    in a seeded order, so every seed asks for the same amount of work.

    Returns (frames as (H, W, 3) uint8, scene start indices).
    """
    lengths = [4] * (n // 4)
    for i in range(0, len(lengths) - 1, 4):
        lengths[i] -= 1
        lengths[i + 1] += 1
    lengths[-1] += n - sum(lengths)
    frames, starts = [], []
    for length in rng.permutation(lengths):
        scene = _scene(rng)
        starts.append(len(frames))
        frames += [_render(scene, t, h, w) for t in range(length)]
    return frames, starts


# ---------------------------------------------------------------------------
# Input preparation


def _net(w: Workload):
    from cwseg import NetConfig, build_net, gen_weights

    cfg = NetConfig(height=w.height, width=w.width)
    store = gen_weights(cfg, WEIGHTS_SEED)
    return build_net(cfg, store), store


def _write_frames(workdir: Path, frames) -> list[str]:
    names = []
    for i, px in enumerate(frames):
        name = f"f{i:04d}.ppm"
        (workdir / name).write_bytes(ppm_bytes(px))
        names.append(name)
    (workdir / "manifest.txt").write_text("\n".join(names) + "\n")
    return names


def _calibrate_theta(net, frames, starts):
    """Place theta between the largest within-scene change and the smallest
    cut change of the adaptive signal, so stage 3 fires exactly at the cuts.

    Returns (theta, margin) or None when the draw lacks the margin.
    """
    from cwseg import mean_abs_diff, run_stage1, run_stage2

    sp4 = [run_stage2(net, run_stage1(net, f)[0])[1] for f in frames]
    within, cuts = [], []
    for s, start in enumerate(starts):
        end = starts[s + 1] if s + 1 < len(starts) else len(frames)
        within += [mean_abs_diff(sp4[k], sp4[start]) for k in range(start + 1, end)]
        if s > 0:
            cuts.append(mean_abs_diff(sp4[start], sp4[starts[s - 1]]))
    lo, hi = max(within), min(cuts)
    if hi <= FIRE_MARGIN * lo:
        return None
    return math.sqrt(lo * hi), hi / lo


def prepare(w: Workload, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs and expected outputs into ``workdir``."""
    from cwseg import write_weights

    workdir.mkdir(parents=True, exist_ok=True)
    net, store = _net(w)
    write_weights(store, workdir / "weights.cwf")
    if w.command == "eval":
        return _prepare_eval(w, seed, workdir)
    return _prepare_segment(w, seed, workdir, net)


def _prepare_segment(w: Workload, seed: int, workdir: Path, net) -> dict:
    from cwseg import Adaptive, Always, SkipPolicy, read_image, run_sequence

    info = {"theta": None, "margin": None, "fires": None, "draws": 1}
    for draw in range(MAX_DRAWS):
        rng = np.random.default_rng([seed, draw])
        pixels, starts = drift_sequence(rng, w.frames, w.height, w.width)
        names = _write_frames(workdir, pixels)
        frames = [read_image(workdir / n) for n in names]
        if w.schedule == "always":
            schedule = Always()
            break
        found = _calibrate_theta(net, frames, starts)
        if found is not None:
            theta, margin = found
            schedule = Adaptive(theta=theta)
            info.update(theta=theta, margin=margin, fires=starts, draws=draw + 1)
            break
    else:
        raise RuntimeError(
            f"no draw of {MAX_DRAWS} separates cuts from drift by {FIRE_MARGIN}x")

    masks, traces = run_sequence(net, schedule, SkipPolicy.FUSE_CACHED_DEEP, frames)
    fired = [t.frame_index for t in traces if 3 in t.fired]
    if info["fires"] is not None and fired != info["fires"]:
        raise RuntimeError(f"reference fired stage 3 at {fired}, designed {info['fires']}")
    info["stems"] = [Path(n).stem for n in names]
    np.save(workdir / "expected_masks.npy", np.stack(masks).astype(np.uint8))
    return info


def _smooth_field(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """A zero-mean smooth random field (a few random plane waves)."""
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    out = np.zeros((h, w))
    for _ in range(6):
        fy, fx = rng.uniform(-0.05, 0.05, 2)
        out += np.sin(2.0 * math.pi * (fy * yy + fx * xx) + rng.uniform(0, 2 * math.pi))
    return out


def _prepare_eval(w: Workload, seed: int, workdir: Path) -> dict:
    """Ground truth, a noisy prediction and its score maps per frame; the
    expected report comes from ConfusionMatrix / build_report applied to
    the generated arrays, never to files."""
    from cwseg import ConfusionMatrix, build_report, write_weights

    rng = np.random.default_rng([seed, 0])
    pred_dir = workdir / "pred"
    pred_dir.mkdir()
    lines = []
    cm = ConfusionMatrix(len(PALETTE))
    pooled_scores, pooled_truth = [], []
    for i in range(w.frames):
        stem = f"f{i:04d}"
        truth_field = _smooth_field(rng, w.height, w.width)
        truth = (truth_field > 0.0).astype(np.int64)
        logit = truth_field + 0.8 * _smooth_field(rng, w.height, w.width) \
            + 0.3 * rng.standard_normal((w.height, w.width))
        pred = (logit > 0.0).astype(np.int64)
        scores = np.stack([-logit, logit]).astype(np.float32)
        (workdir / f"gt{i:04d}.ppm").write_bytes(mask_ppm_bytes(truth))
        (pred_dir / f"{stem}.ppm").write_bytes(mask_ppm_bytes(pred))
        write_weights({"scores": scores}, pred_dir / f"{stem}.scores.cwf")
        lines.append(f"{stem}.ppm gt{i:04d}.ppm")
        cm.add(truth, pred)
        pooled_scores.append(scores[1].ravel())
        pooled_truth.append(truth.ravel())
    (workdir / "manifest.txt").write_text("\n".join(lines) + "\n")
    report = build_report(cm, positive_class=1,
                          scores=np.concatenate(pooled_scores),
                          truth=np.concatenate(pooled_truth))
    (workdir / "expected_report.json").write_text(json.dumps(report.to_dict()))
    return {"stems": [f"f{i:04d}" for i in range(w.frames)]}
