"""Timed passes through the shipping CLI, output checks, and the metrics
derived from them.

A pass is one in-process ``cwseg.cli.main`` call over the workload's whole
sequence. Frame boundaries come from a probe: two wrappers that only read
the clock, one on the call that starts frame 0 (``cli.step`` for segment,
``cli.read_image`` for eval) and one on the call that completes a frame
(the last write of a segment frame, ``cli.read_weights`` for eval). The
end-to-end runs use the probe alone; tracing is off.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import threading
import time
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np

import cwseg.cli as cli
from cwseg import (Always, NetConfig, SkipPolicy, build_net, layer_specs,
                   read_image, read_weights, run_sequence)

import tracer as tr
from workloads import Workload, mask_ppm_bytes

SETUP_ONLY_PASSES = 20

END_TO_END = (
    ("fps", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = tuple(s.name for s in layer_specs(NetConfig()))
SMALL_OPS = ("maxpool2d", "relu", "upsample_bilinear", "add", "crop_center",
             "mean_abs_diff")
STAGES = ("stage1", "stage2", "stage3", "fusion", "argmax")
MEDIA = ("read_image", "write_mask", "write_weights", "read_weights",
         "decode_gt_mask", "read_manifest")
READS = ("read_image", "read_weights", "read_manifest")
WRITES = ("write_mask", "write_weights")

# (name, unit) of every per-layer metric the traced run emits.
PER_LAYER = (
    [(f"tensor_ops.conv2d.{l}.ms", "ms") for l in LAYERS]
    + [(f"tensor_ops.conv2d.{l}.gmac_s", "GMAC/s") for l in LAYERS]
    + [("tensor_ops.conv2d.im2col_mb", "MB_computed")]
    + [(f"tensor_ops.{op}.ms_per_frame", "ms/frame") for op in SMALL_OPS]
    + [(f"net.{s}.ms", "ms") for s in STAGES]
    + [(f"net.{s}.calls", "calls/pass") for s in STAGES]
    + [("net.stage1.self_ms", "ms"), ("net.build_net.ms", "ms")]
    + [("scheduler.step.ms", "ms"), ("scheduler.step.self_ms", "ms"),
       ("scheduler.stage3_fire_frac", "ratio"), ("scheduler.work_ratio", "ratio"),
       ("scheduler.wall_ratio", "ratio")]
    + [(f"media_io.{fn}.ms", "ms") for fn in MEDIA]
    + [("media_io.bytes_read_per_frame", "B/frame"),
       ("media_io.bytes_written_per_frame", "B/frame")]
    + [(f"metrics.{fn}.ms", "ms")
       for fn in ("confusion_add", "average_precision", "build_report")]
    + [("metrics.average_precision.mpix_s", "Mpix/s")]
    + [("cli.frame.io_share", "ratio"), ("cli.frame.self_ms", "ms"),
       ("cli.eval.pool_parallelism", "ratio"), ("cli.eval.serial_ms", "ms")]
    + [("trace.fps", "1/s"), ("trace.overhead_frac", "ratio")]
)


class _SetupDone(BaseException):
    """Raised by the probe to stop a set-up-only pass at frame 0."""


@dataclass
class Pass:
    setup: float = math.nan            # command entry -> frame 0 start, s
    started: Optional[float] = None    # perf_counter at frame 0 start
    done: list = field(default_factory=list)   # (thread, completion time)
    exit: float = math.nan
    rc: Optional[int] = None
    stdout: str = ""
    bad: set = field(default_factory=set)     # frames with a wrong output
    macs: int = 0                      # conv MACs reported in trace.jsonl

    @property
    def measured(self) -> float:
        return self.exit - self.started

    def intervals(self) -> list[float]:
        """Per-frame completion intervals, per thread: each worker of eval's
        pool completes its frames one after another, as segment's loop does."""
        out = []
        for thread in {t for t, _ in self.done}:
            marks = [self.started] + sorted(d for t, d in self.done if t == thread)
            out += [b - a for a, b in zip(marks, marks[1:])]
        return out


class Runner:
    """Runs CLI passes of one workload over inputs prepared in ``workdir``."""

    def __init__(self, w: Workload, workdir: Path, info: dict):
        self.w, self.workdir, self.info = w, workdir, info
        self.stems = info["stems"]
        self.out = workdir / "out"
        if w.command == "segment":
            self.expected = np.load(workdir / "expected_masks.npy")
            self.argv = ["segment", str(workdir / "manifest.txt"),
                         "--weights", str(workdir / "weights.cwf"),
                         "--out", str(self.out), "--schedule", w.schedule,
                         "--skip-policy", SkipPolicy.FUSE_CACHED_DEEP.value]
            if info["theta"] is not None:
                self.argv += ["--theta", repr(info["theta"])]
            if w.save_scores:
                self.argv.append("--save-scores")
            self.start_fn = "step"
            self.done_fn = "write_weights" if w.save_scores else "write_mask"
        else:
            self.expected = json.loads((workdir / "expected_report.json").read_text())
            pred = str(workdir / "pred")
            self.argv = ["eval", pred, str(workdir / "manifest.txt"),
                         "--scores-dir", pred]
            self.start_fn = "read_image"
            self.done_fn = "read_weights"

    # -- one pass ----------------------------------------------------------

    def run_pass(self, tracer: Optional[tr.Tracer] = None,
                 setup_only: bool = False) -> Pass:
        p = Pass()
        shutil.rmtree(self.out, ignore_errors=True)
        starts: list[float] = []
        start_fn = getattr(cli, self.start_fn)
        done_fn = getattr(cli, self.done_fn)

        def on_start(*args, **kwargs):
            starts.append(time.perf_counter())
            if setup_only:
                raise _SetupDone
            if tracer is not None and tracer.frame < 0:
                tracer.frame = 0
            return start_fn(*args, **kwargs)

        def on_done(*args, **kwargs):
            out = done_fn(*args, **kwargs)
            p.done.append((threading.get_ident(), time.perf_counter()))
            if tracer is not None:
                tracer.frame = len(p.done)
            return out

        buf = io.StringIO()
        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(cli, self.start_fn, on_start))
            stack.enter_context(mock.patch.object(cli, self.done_fn, on_done))
            stack.enter_context(contextlib.redirect_stdout(buf))
            entry = time.perf_counter()
            try:
                p.rc = cli.main(self.argv)
            except _SetupDone:
                pass
            p.exit = time.perf_counter()
        if starts:
            p.started = min(starts)
            p.setup = p.started - entry
        p.stdout = buf.getvalue()
        if not setup_only:
            self._check(p)
        return p

    # -- output checks -----------------------------------------------------

    def _check(self, p: Pass) -> None:
        n = len(self.stems)
        if p.rc != 0 or p.started is None or len(p.done) != n:
            p.bad = set(range(n))
            return
        if self.w.command == "eval":
            if not _reports_equal(json.loads(p.stdout), self.expected):
                p.bad = set(range(n))
            return
        for i, stem in enumerate(self.stems):
            try:
                got = (self.out / f"{stem}.ppm").read_bytes()
                if got != mask_ppm_bytes(self.expected[i]):
                    p.bad.add(i)
                elif self.w.save_scores:
                    scores = read_weights(self.out / f"{stem}.scores.cwf")["scores"]
                    if mask_ppm_bytes(np.argmax(scores, axis=0)) != got:
                        p.bad.add(i)
            except (OSError, KeyError):
                p.bad.add(i)
        records = [json.loads(line) for line in
                   (self.out / "trace.jsonl").read_text().splitlines()]
        if [r["frame_index"] for r in records] != list(range(n)):
            p.bad = set(range(n))
            return
        p.macs = sum(sum(r["macs"].values()) for r in records)
        if self.info["fires"] is not None:
            fired = {r["frame_index"] for r in records if 3 in r["fired"]}
            p.bad |= fired ^ set(self.info["fires"])

    # -- whole runs --------------------------------------------------------

    def timed_passes(self, seconds: float, min_frames: int) -> list[Pass]:
        passes: list[Pass] = []
        measured, frames = 0.0, 0
        while not passes or measured < seconds or frames < min_frames:
            p = self.run_pass()
            passes.append(p)
            if p.started is None:
                break      # the command failed before frame 0
            measured += p.measured
            frames += len(p.done)
        return passes


def _reports_equal(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)


def _close(a, b, tol: float = 1e-12) -> bool:
    if isinstance(b, list):
        return (isinstance(a, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def _counts(passes: list[Pass], n: int) -> tuple[int, int]:
    return n * len(passes), sum(len(p.bad) for p in passes)


def _fps(passes: list[Pass]) -> float:
    ok = [p for p in passes if p.started is not None]
    return sum(len(p.done) for p in ok) / sum(p.measured for p in ok)


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)


def end_to_end(r: Runner, seconds: float) -> tuple[dict, int, int]:
    setups = [r.run_pass(setup_only=True).setup for _ in range(SETUP_ONLY_PASSES)]
    passes = r.timed_passes(seconds, min_frames=r.w.min_frames)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups += [p.setup for p in passes]
    intervals = [dt for p in passes if p.started is not None for dt in p.intervals()]
    metrics = {
        "fps": _fps(passes),
        "frame_ms_p50": 1e3 * float(np.percentile(intervals, 50)),
        "frame_ms_p90": 1e3 * float(np.percentile(intervals, 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    attempted, failed = _counts(passes, len(r.stems))
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Traced run


def traced(r: Runner, seconds: float, spans_path: Path) -> tuple[dict, int, int, dict]:
    """Per-layer metrics from a traced run, plus the baseline facts it shows.

    Untraced and traced passes alternate until the traced ones add up to
    half of ``seconds``, so the tracing overhead compares passes made under
    the same machine load. Segment workloads end with one traced
    ``run_sequence(Always())`` pass, the base of the work and wall ratios.
    """
    n = len(r.stems)
    t = tr.Tracer()
    untraced: list[Pass] = []
    passes: list[Pass] = []
    while not passes or sum(p.measured for p in passes) < seconds / 2:
        untraced.append(r.run_pass())
        t.pass_id, t.frame = len(passes), -1
        with tr.install(t):
            passes.append(r.run_pass(t))
        if passes[-1].started is None:
            break      # the command failed before frame 0
    t.write(spans_path, "cli")
    m = _layer_metrics(t, passes, r)
    m["trace.fps"] = _fps(passes)
    m["trace.overhead_frac"] = _fps(untraced) / m["trace.fps"] - 1.0
    m["scheduler.work_ratio"] = m["scheduler.wall_ratio"] = 0.0
    checked = untraced + passes
    if r.w.command == "segment":
        # The conv spans must measure the MACs the program reports.
        span_macs = _macs_by_pass(t.spans)
        for i, p in enumerate(passes):
            if span_macs[i] != p.macs:
                p.bad = set(range(n))
        ta = tr.Tracer()
        always = _always_pass(r, ta)
        ta.write(spans_path, "always")
        checked.append(always)
        always_step = [s.dur for s in ta.spans if s.name == "scheduler.step"]
        m["scheduler.work_ratio"] = passes[0].macs / always.macs
        m["scheduler.wall_ratio"] = m["scheduler.step.ms"] / (1e3 * statistics.fmean(always_step))
    attempted, failed = _counts(checked, n)
    frame_time = sum(sum(p.intervals()) for p in passes)
    notes = {
        "frames_per_pass": n,
        "traced_passes": len(passes),
        "stage1_share_of_frame_time": sum(
            s.dur for s in t.spans if s.name == "net.stage1") / frame_time,
        "fusion_calls_per_frame": m["net.fusion.calls"] / n,
        "io_share": m["cli.frame.io_share"],
        "untraced_fps": _fps(untraced),
        "traced_fps": m["trace.fps"],
        "tracing_overhead_frac": m["trace.overhead_frac"],
    }
    return m, attempted, failed, notes


def _always_pass(r: Runner, t: tr.Tracer) -> Pass:
    """One traced run_sequence(Always()) pass over the workload's frames.

    Its ``macs`` are the program's StageTrace MACs; every frame counts as
    bad when the conv spans measured different MACs.
    """
    w = r.w
    cfg = NetConfig(height=w.height, width=w.width)
    net = build_net(cfg, read_weights(r.workdir / "weights.cwf"))
    t.register_net(net)
    frames = [read_image(r.workdir / f"{stem}.ppm") for stem in r.stems]
    with tr.install(t):
        t.frame = 0
        _, traces = run_sequence(net, Always(), SkipPolicy.FUSE_CACHED_DEEP, frames)
    p = Pass(macs=sum(sum(x.macs.values()) for x in traces))
    if _macs_by_pass(t.spans)[0] != p.macs:
        p.bad = set(range(len(frames)))
    return p


def _macs_by_pass(spans) -> dict[int, int]:
    out: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name == "tensor_ops.conv2d":
            out[s.pass_id] += s.attrs["macs"]
    return out


# Spans of the calls cmd_eval makes per frame, in its thread pool.
_EVAL_SHARDED = ("media_io.read_image", "media_io.decode_gt_mask",
                 "metrics.confusion_add", "media_io.read_weights")


def _layer_metrics(t: tr.Tracer, passes: list[Pass], r: Runner) -> dict:
    n, npass = len(r.stems), len(passes)
    frames = n * npass
    selfs = tr.self_times(t.spans)
    by = defaultdict(list)
    for s in t.spans:
        by[s.name].append(s)

    def mean_ms(spans, of=lambda s: s.dur):
        return 1e3 * statistics.fmean(of(s) for s in spans) if spans else 0.0

    m = {}
    conv = by["tensor_ops.conv2d"]
    for layer in LAYERS:
        spans = [s for s in conv if s.attrs["layer"] == layer]
        secs = total_dur(spans)
        m[f"tensor_ops.conv2d.{layer}.ms"] = mean_ms(spans)
        m[f"tensor_ops.conv2d.{layer}.gmac_s"] = (
            sum(s.attrs["macs"] for s in spans) / secs / 1e9 if secs else 0.0)
    m["tensor_ops.conv2d.im2col_mb"] = max(
        (s.attrs["im2col_bytes"] for s in conv), default=0) / 1e6
    for op in SMALL_OPS:
        m[f"tensor_ops.{op}.ms_per_frame"] = 1e3 * total_dur(by[f"tensor_ops.{op}"]) / frames
    for stage in STAGES:
        m[f"net.{stage}.ms"] = mean_ms(by[f"net.{stage}"])
        m[f"net.{stage}.calls"] = len(by[f"net.{stage}"]) / npass
    m["net.stage1.self_ms"] = mean_ms(by["net.stage1"], lambda s: selfs[s.id])
    m["net.build_net.ms"] = mean_ms(by["net.build_net"])
    steps = by["scheduler.step"]
    m["scheduler.step.ms"] = mean_ms(steps)
    m["scheduler.step.self_ms"] = mean_ms(steps, lambda s: selfs[s.id])
    m["scheduler.stage3_fire_frac"] = len(by["net.stage3"]) / len(steps) if steps else 0.0
    for fn in MEDIA:
        m[f"media_io.{fn}.ms"] = mean_ms(by[f"media_io.{fn}"])
    for key, fns in (("read", READS), ("written", WRITES)):
        m[f"media_io.bytes_{key}_per_frame"] = sum(
            s.attrs["bytes"] for fn in fns for s in by[f"media_io.{fn}"]) / frames
    for fn in ("confusion_add", "average_precision", "build_report"):
        m[f"metrics.{fn}.ms"] = mean_ms(by[f"metrics.{fn}"])
    ap = by["metrics.average_precision"]
    m["metrics.average_precision.mpix_s"] = (
        sum(s.attrs["pixels"] for s in ap) / total_dur(ap) / 1e6 if ap else 0.0)
    m.update(_cli_metrics(t.spans, passes, r))
    return m


def _cli_metrics(spans, passes: list[Pass], r: Runner) -> dict:
    """Frame-loop metrics (segment) and thread-pool metrics (eval).

    Each pair is reported as 0 on the command it does not describe.
    """
    n = len(r.stems)
    top = [s for s in spans if s.parent is None]
    m = dict.fromkeys(("cli.frame.io_share", "cli.frame.self_ms",
                       "cli.eval.pool_parallelism", "cli.eval.serial_ms"), 0.0)
    if r.w.command == "eval":
        busy = io_time = wall = 0.0
        serial = []
        for i, p in enumerate(passes):
            sharded = [s for s in top if s.pass_id == i and s.name in _EVAL_SHARDED]
            busy += total_dur(sharded)
            io_time += total_dur(s for s in sharded if s.name.startswith("media_io."))
            last = max(s.end for s in sharded)
            wall += last - min(s.start for s in sharded)
            serial.append(p.exit - last)
        m["cli.frame.io_share"] = io_time / busy
        m["cli.eval.pool_parallelism"] = busy / wall
        m["cli.eval.serial_ms"] = 1e3 * statistics.fmean(serial)
        return m
    # Segment: each frame's interval minus the step and media_io calls in it.
    blocked: dict = defaultdict(float)
    io_time = 0.0
    for s in top:
        if not 0 <= s.frame < n:
            continue
        if s.name.startswith("media_io."):
            io_time += s.dur
            blocked[s.pass_id, s.frame] += s.dur
        elif s.name == "scheduler.step":
            blocked[s.pass_id, s.frame] += s.dur
    selfs = [dt - blocked[i, k] for i, p in enumerate(passes)
             for k, dt in enumerate(p.intervals())]
    frame_time = sum(sum(p.intervals()) for p in passes)
    m["cli.frame.io_share"] = io_time / frame_time
    m["cli.frame.self_ms"] = 1e3 * statistics.fmean(selfs)
    return m


def total_dur(spans) -> float:
    return sum(s.dur for s in spans)
