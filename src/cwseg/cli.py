"""Command-line surface: segment a sequence under a clockwork schedule,
evaluate predictions against ground truth, benchmark schedules, and generate
deterministic test weights.

Exit codes: 0 success, 2 usage errors, 3 file/format errors, 4 contract,
shape or numeric errors (every other ``CwsegError``); any other exception is
a defect and escapes with its traceback. Reports are plain JSON on stdout;
the segment command also writes one palette mask per frame plus a
line-delimited JSON trace file.
segment and bench share one frame loop, ``_run_frames``; eval shards frames
across a thread pool (``_eval_worker_count``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ContractError, CwsegError, FileFormatError, ShapeError
from .media_io import (
    DEFAULT_PALETTE,
    decode_gt_mask,  # unused; perfbench/tracer.py patches cli.decode_gt_mask
    gen_weights,
    palette_hits,
    parse_palette,
    read_image,
    read_manifest,
    read_weights,
    write_mask,
    write_weights,
)
from .metrics import (
    ConfusionMatrix,
    build_report,
    pooled_average_precision,
    split_scores,
)
from .net import NetConfig, StagedNet, StageId, build_net
from .scheduler import (
    Adaptive,
    Always,
    ClockSchedule,
    Fixed,
    SkipPolicy,
    StageTrace,
    _Stage1Result,
    _time_stage1,
    step,
)
from .tensor_ops import help_until

try:
    import resource
except ImportError:  # platforms without getrusage
    resource = None

_STAGE_LABELS = tuple(s.label for s in StageId)


def _schedule_from_args(args) -> ClockSchedule:
    if args.schedule == "always":
        return Always()
    if args.schedule == "fixed":
        return Fixed(period2=args.period2, period3=args.period3)
    return Adaptive(theta=args.theta)


def _load_net(weights_path, first_frame_shape) -> StagedNet:
    """Build the network, inferring the config from the weight store and the
    first frame's dimensions."""
    store = read_weights(weights_path)
    for need in ("conv1_1", "score_fr"):
        if need not in store:
            raise ContractError(f"weight store is missing entry '{need}'")
        if store[need].ndim != 4:
            raise ShapeError(f"weight store entry '{need}' has shape "
                             f"{store[need].shape}, expected rank 4")
    base_width = int(store["conv1_1"].shape[0])
    in_channels = int(store["conv1_1"].shape[1])
    num_classes = int(store["score_fr"].shape[0])
    c, h, w = first_frame_shape
    if c != in_channels:
        raise ShapeError(
            f"frames have {c} channels but weights expect {in_channels}"
        )
    cfg = NetConfig(
        in_channels=in_channels,
        num_classes=num_classes,
        base_width=base_width,
        height=int(h),
        width=int(w),
    )
    return build_net(cfg, store)


def _open_sequence(args) -> tuple[tuple[Path, ...], list, StagedNet]:
    """The set-up of segment and bench: the manifest, then frame 0, then the
    net. Frame 0 comes back as a one-element list for ``_run_frames`` to
    take, so the caller holds no frame."""
    frames = read_manifest(args.manifest).frames
    first = [read_image(frames[0])]
    return frames, first, _load_net(args.weights, first[0].shape)


def _unique_stems(frames) -> list[str]:
    """The frames' stems, which name their per-frame files, so two frames
    with one stem would share their masks and score files."""
    stems = [p.stem for p in frames]
    if len(set(stems)) != len(stems):
        dup = next(s for s in stems if stems.count(s) > 1)
        raise FileFormatError(
            f"manifest has multiple frames with stem '{dup}'; "
            f"per-frame file names would collide"
        )
    return stems


def _file_id(path) -> Optional[tuple[int, int]]:
    """The (device, inode) of the file ``path`` names, through links, or
    None when it cannot be stat'ed."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def _refuse_overwrite(out_dir, names, inputs) -> None:
    """Refuse writing ``names`` in ``out_dir`` where one already is the file
    of one of ``inputs``, by name or through a link. A missing directory
    holds none; an input that cannot be stat'ed fails where it is read."""
    try:
        with os.scandir(out_dir) as entries:
            outputs = {_file_id(e.path): e.path for e in entries
                       if e.name in names}
    except (FileNotFoundError, NotADirectoryError):
        return
    outputs.pop(None, None)  # dangling links
    for path in inputs if outputs else ():
        if (out := outputs.get(_file_id(path))) is not None:
            raise ContractError(f"output {out} would overwrite input {path}")


def _trace_record(trace: StageTrace, frame_path) -> dict:
    return {
        "frame_index": trace.frame_index,
        "frame": str(frame_path),
        "fired": sorted(int(s) for s in trace.fired),
        "change": trace.change,
        "elapsed": trace.elapsed,
        "convs": trace.convs,
        "macs": trace.macs,
    }


def _firing_counts(traces) -> dict[str, int]:
    counts = {label: 0 for label in _STAGE_LABELS}
    for t in traces:
        for s in t.fired:
            counts[s.label] += 1
    return counts


def _read_stage1(net: StagedNet, frame_path) -> _Stage1Result:
    """Decode a frame and run its stage 1; the frame loop's helper-thread
    job. numpy's overflow and invalid-value warnings are off here as in
    ``main``: ``errstate`` is per thread, this job also serves stage-3
    bands, and every result is checked for finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _time_stage1(net, read_image(frame_path))


def _run_frames(net: StagedNet, schedule: ClockSchedule, policy: SkipPolicy,
                frame_paths, first: list, emit) -> list[float]:
    """Run every frame through ``step`` and call ``emit(index, mask, trace,
    scores)`` once per frame, in order. Returns ``perf_counter`` marks: the
    start of frame 0's ``step``, then the end of each ``emit``.

    ``first`` is a one-element list holding frame 0, decoded; the loop pops
    it. One helper thread decodes frame k+1 and runs its stage 1 while this
    thread runs the rest of frame k and its ``emit``. The two threads share
    conv bands both ways: this thread, once done with frame k, runs the
    stage-1 bands still open (``tensor_ops.help_until``) instead of idling,
    and the helper, between bands of its own, runs the open bands of frame
    k's stage-3 convolutions (served first, see ``net._conv``), so a frame
    that fires stage 3 is not left to one thread. The helper is never more
    than one frame ahead, and it is joined before this returns or raises.
    Masks and score maps are the same bytes as in the serial
    ``run_sequence``, and a frame that fails raises at its own turn, after
    every earlier frame's ``emit``.
    """
    state = None
    marks = [time.perf_counter()]
    with ThreadPoolExecutor(max_workers=1) as helper:
        for index in range(len(frame_paths)):
            if index == 0:
                frame = first.pop()
            else:
                # Run the helper's stage-1 bands instead of idling.
                help_until(ahead)
                frame = ahead.result()
            # Frame 1 goes to the helper only after frame 0's step, so
            # starting the thread never delays frame 0.
            if 0 < index < len(frame_paths) - 1:
                ahead = helper.submit(_read_stage1, net, frame_paths[index + 1])
            mask, state, trace, scores = step(net, schedule, policy, state,
                                              frame)
            if index == 0 and len(frame_paths) > 1:
                ahead = helper.submit(_read_stage1, net, frame_paths[1])
            emit(index, mask, trace, scores)
            marks.append(time.perf_counter())
            # Hold no frame-sized array into the next frame's step.
            del frame, mask, scores
    return marks


def _percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values``, interpolated linearly between
    the two nearest ranks as ``np.percentile`` does by default. Not
    ``np.percentile`` itself: its first call in a process raised
    ``segment``'s peak RSS by 1.1 MB at 64x64."""
    ranked = sorted(values)
    pos = (len(ranked) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ranked) - 1)
    return ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo)


def _minor_faults() -> Optional[int]:
    """This process's minor page faults so far, or None without
    ``resource``."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cmd_segment(args) -> int:
    palette = parse_palette(args.palette)
    schedule = _schedule_from_args(args)
    policy = SkipPolicy(args.skip_policy)
    frames, first, net = _open_sequence(args)
    stems = _unique_stems(frames)
    if net.cfg.num_classes > len(palette):
        raise ContractError(
            f"network predicts {net.cfg.num_classes} classes but the "
            f"palette has only {len(palette)} colors"
        )
    out_dir = Path(args.out)
    names = {"trace.jsonl", *(s + ".ppm" for s in stems),
             *(s + ".scores.cwf" for s in stems if args.save_scores)}
    _refuse_overwrite(out_dir, names, [*frames, args.manifest, args.weights])
    out_dir.mkdir(parents=True, exist_ok=True)

    # Written after the last frame: a run that stops partway leaves no trace.
    trace_path = out_dir / "trace.jsonl"
    trace_path.unlink(missing_ok=True)
    traces = []

    def emit(index, mask, trace, scores):
        stem = stems[index]
        write_mask(mask, palette, out_dir / f"{stem}.ppm")
        if args.save_scores:
            write_weights({"scores": scores}, out_dir / f"{stem}.scores.cwf")
        traces.append(trace)

    faults = _minor_faults()
    marks = _run_frames(net, schedule, policy, frames, first, emit)
    if faults is not None:
        faults = (_minor_faults() - faults) / len(frames)
    trace_path.write_text(
        "".join(json.dumps(_trace_record(t, frames[t.frame_index])) + "\n"
                for t in traces),
        encoding="utf-8")

    # The frame rate and the intervals between emits, as perfbench derives
    # them: from the start of frame 0's step to the end of the last emit.
    intervals_ms = [1e3 * (b - a) for a, b in zip(marks, marks[1:])]
    summary = {
        "frames": len(frames),
        "out_dir": str(out_dir),
        "trace": str(trace_path),
        "firings": _firing_counts(traces),
        "fps": len(frames) / (marks[-1] - marks[0]),
        "frame_ms_p50": _percentile(intervals_ms, 50),
        "frame_ms_p90": _percentile(intervals_ms, 90),
        "minor_faults_per_frame": faults,
    }
    print(json.dumps(summary, indent=2))
    return 0


def _eval_worker_count() -> int:
    """eval's pool size: min(4, the CPUs this process may run on). Confusion
    matrices merge exactly, so the result is the same at any size."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(4, cpus)


def _mask_hits(path, palette) -> np.ndarray:
    """``palette_hits`` of the mask file at ``path``, matched on the file's
    uint8 planes; its palette and RGB errors name the file."""
    image = read_image(path, scaled=False)
    try:
        return palette_hits(image, palette)
    except (FileFormatError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _pixel_bound(truth_path) -> int:
    """At least the pixel count of the truth mask at ``truth_path`` if it is
    a valid one: a P6 file holds 3 bytes per pixel. 0 when it cannot be
    stat'ed, as it then fails where it is read."""
    try:
        return os.stat(truth_path).st_size // 3
    except OSError:
        return 0


def cmd_eval(args) -> int:
    """Score the predictions against the truth masks, one frame per pool
    task. Each mask file is matched against the palette on its uint8 planes
    (``_mask_hits``), truth first, with no float image. With
    ``--scores-dir`` each frame splits its positive-class scores
    into one float32 buffer sized by ``_pixel_bound``: its positive pixels'
    from the front, its negative pixels' from the back. Average precision
    sorts the two runs where they lie, so the scores are held once."""
    palette = parse_palette(args.palette)
    manifest = read_manifest(args.manifest)
    if manifest.truths is None:
        raise FileFormatError(
            f"{args.manifest}: manifest has no ground-truth column"
        )
    stems = _unique_stems(manifest.frames)
    num_classes = len(palette)
    if not 0 <= args.positive_class < num_classes:
        raise ContractError(
            f"--positive-class {args.positive_class} out of range "
            f"[0, {num_classes})"
        )
    pred_paths = [os.path.join(args.pred_dir, s + ".ppm") for s in stems]
    score_paths = [os.path.join(args.scores_dir, s + ".scores.cwf")
                   for s in stems if args.scores_dir]
    if args.out:
        out = Path(args.out)
        _refuse_overwrite(out.parent, {out.name}, [args.manifest, *manifest.truths,
                                                   *pred_paths, *score_paths])

    if score_paths:
        bounds = [_pixel_bound(p) for p in manifest.truths]
        # Allocated here, not in a worker: each pass's pool threads may
        # allocate in malloc arenas of their own.
        pooled = np.empty(sum(bounds), "<f4")
        free = [0, pooled.size]  # the unreserved slots, [front, back)
        reserve_lock = threading.Lock()

    def reserve(i, positive):
        """Slices of ``pooled`` for frame ``i``'s scores of the pixels in
        and out of the flat mask ``positive``."""
        if positive.size > bounds[i]:
            raise FileFormatError(
                f"{manifest.truths[i]}: mask has {positive.size} pixels, more "
                f"than its file size allowed ({bounds[i]}) when eval "
                f"started; it changed while eval ran"
            )
        n_pos = int(np.count_nonzero(positive))
        n_neg = positive.size - n_pos
        with reserve_lock:
            front, back = free
            free[:] = front + n_pos, back - n_neg
        return pooled[front:front + n_pos], pooled[back - n_neg:back]

    def eval_frame(i):
        stem, truth_path, pred_path = stems[i], manifest.truths[i], pred_paths[i]
        if not os.path.exists(pred_path):
            raise FileFormatError(
                f"missing prediction for frame '{stem}': {pred_path}"
            )
        truth_hits = _mask_hits(truth_path, palette)
        pred_hits = _mask_hits(pred_path, palette)
        if pred_hits.shape != truth_hits.shape:
            raise ShapeError(
                f"{pred_path}: pred shape {pred_hits.shape[1:]} != truth "
                f"shape {truth_hits.shape[1:]} of {truth_path}"
            )
        cm = ConfusionMatrix(num_classes).add_hits(truth_hits, pred_hits)
        if not score_paths:
            return cm
        scores_path = score_paths[i]
        if not os.path.exists(scores_path):
            raise FileFormatError(
                f"missing scores for frame '{stem}': {scores_path}"
            )
        store = read_weights(scores_path)
        if "scores" not in store:
            raise FileFormatError(f"{scores_path}: no 'scores' entry")
        chw = store["scores"]
        if chw.ndim != 3 or chw.shape[0] <= args.positive_class:
            raise ShapeError(
                f"{scores_path}: scores shape {chw.shape} lacks positive "
                f"class channel {args.positive_class}"
            )
        truth_positive = truth_hits[args.positive_class]
        if chw.shape[1:] != truth_positive.shape:
            raise ShapeError(
                f"{scores_path}: scores spatial shape {chw.shape[1:]} != "
                f"truth shape {truth_positive.shape}"
            )
        positive = truth_positive.ravel()
        split_scores(chw[args.positive_class].ravel(), positive,
                     reserve(i, positive))
        return cm

    avg_precision = None
    with ThreadPoolExecutor(max_workers=_eval_worker_count()) as pool:
        total_cm = sum(pool.map(eval_frame, range(len(stems))),
                       ConfusionMatrix(num_classes))
        if score_paths:
            front, back = free
            avg_precision = pooled_average_precision(
                pooled[:front], pooled[back:], pool.map)

    report = replace(build_report(total_cm, positive_class=args.positive_class),
                     avg_precision=avg_precision)
    text = json.dumps(report.to_dict(), indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _arm_report(wall: float, traces) -> dict:
    """One bench arm: its wall seconds, and the per-part seconds, MACs and
    firings summed over ``traces``; both cover every ``--repeat`` pass.
    Stage-1 seconds are busy time on the helper thread, so
    ``per_stage_elapsed`` can sum to more than ``wall``."""
    per_stage: dict[str, float] = {}
    for t in traces:
        for part, dt in t.elapsed.items():
            per_stage[part] = per_stage.get(part, 0.0) + dt
    return {
        "total_elapsed": wall,
        "per_stage_elapsed": per_stage,
        "macs": sum(sum(t.macs.values()) for t in traces),
        "firings": _firing_counts(traces),
    }


def cmd_bench(args) -> int:
    schedule = _schedule_from_args(args)
    policy = SkipPolicy(args.skip_policy)
    frames, first, net = _open_sequence(args)

    def run_arm(arm_schedule):
        # Each pass is timed from frame 0's step, as segment's frame rate
        # is: frame 0 is decoded before the clock starts.
        wall, traces = 0.0, []
        for _ in range(args.repeat):
            if not first:
                first.append(read_image(frames[0]))
            marks = _run_frames(
                net, arm_schedule, policy, frames, first,
                lambda index, mask, trace, scores: traces.append(trace))
            wall += marks[-1] - marks[0]
        return _arm_report(wall, traces)

    full = run_arm(Always())
    cw = run_arm(schedule)
    report = {
        "frames": len(frames),
        "repeat": args.repeat,
        "full": full,
        "clockwork": {"schedule": args.schedule, **cw},
        "wall_ratio": cw["total_elapsed"] / full["total_elapsed"],
        "speedup_wall": full["total_elapsed"] / cw["total_elapsed"],
        "work_ratio": cw["macs"] / full["macs"],
        "speedup_work": full["macs"] / cw["macs"],
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_gen_weights(args) -> int:
    cfg = NetConfig(
        in_channels=args.in_channels,
        num_classes=args.classes,
        base_width=args.base_width,
    )
    store = gen_weights(cfg, args.seed)
    write_weights(store, args.out)
    print(json.dumps({"out": str(args.out), "entries": len(store),
                      "seed": args.seed}))
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_schedule_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--schedule", choices=("always", "fixed", "adaptive"),
                     default="always", help="stage firing rule")
    sub.add_argument("--period2", type=int, default=2,
                     help="fixed schedule: stage-2 period")
    sub.add_argument("--period3", type=int, default=4,
                     help="fixed schedule: stage-3 period")
    sub.add_argument("--theta", type=float, default=0.05,
                     help="adaptive schedule: change threshold")
    sub.add_argument("--skip-policy", choices=[p.value for p in SkipPolicy],
                     default=SkipPolicy.FUSE_CACHED_DEEP.value,
                     help="output rule on frames where stage 3 is skipped")


def _add_palette_flag(sub: argparse.ArgumentParser) -> None:
    default = ":".join(",".join(str(v) for v in c) for c in DEFAULT_PALETTE)
    sub.add_argument("--palette", default=default,
                     help="class colors, 'R,G,B:R,G,B:...' (index = class)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwseg",
        description="Clockwork-scheduled fully convolutional video segmentation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    seg = subs.add_parser("segment", help="segment a frame sequence")
    seg.add_argument("manifest", help="frame list file")
    seg.add_argument("--weights", required=True, help="CWFCN1 weight store")
    seg.add_argument("--out", required=True, help="output directory")
    seg.add_argument("--save-scores", action="store_true",
                     help="also save per-frame final score maps")
    _add_schedule_flags(seg)
    _add_palette_flag(seg)
    seg.set_defaults(func=cmd_segment)

    ev = subs.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("pred_dir", help="directory of predicted masks")
    ev.add_argument("manifest", help="frame list with ground-truth column")
    ev.add_argument("--positive-class", type=int, default=1,
                    help="class index for the binary columns")
    ev.add_argument("--scores-dir", default=None,
                    help="directory of saved score maps (enables avg_precision)")
    ev.add_argument("--out", default=None, help="also write the report here")
    _add_palette_flag(ev)
    ev.set_defaults(func=cmd_eval)

    be = subs.add_parser("bench", help="time a schedule against full inference")
    be.add_argument("manifest", help="frame list file")
    be.add_argument("--weights", required=True, help="CWFCN1 weight store")
    be.add_argument("--repeat", type=_positive_int, default=1,
                    help="passes over the sequence per arm")
    _add_schedule_flags(be)
    be.set_defaults(func=cmd_bench)

    gw = subs.add_parser("gen-weights", help="write deterministic test weights")
    gw.add_argument("--seed", type=int, default=0)
    gw.add_argument("--base-width", type=int, default=8)
    gw.add_argument("--classes", type=int, default=2)
    gw.add_argument("--in-channels", type=int, default=3)
    gw.add_argument("--out", required=True)
    gw.set_defaults(func=cmd_gen_weights)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A numeric fault surfaces as one error line: the results that can
        # overflow are checked for finiteness, so numpy's warnings are off.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CwsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
