"""Spans recorded from outside the program, around its calls into each layer.

Each wrapper replaces a public function in the namespace that calls it (for
example ``cwseg.net.conv2d`` or ``cwseg.cli.write_mask``), so ``src/`` is
never edited. Spans stay in memory and are written out once, at the end.

Span schema (one JSON object per line in the written file):

    name    layer-qualified name, e.g. "tensor_ops.conv2d", "net.stage1"
    start   seconds since the tracer was created (perf_counter clock)
    end     same clock
    id      unique per tracer
    parent  id of the innermost span open on the same thread, or null
    frame   frame in progress when the span started: -1 during set-up, k
            from the start of frame k to its completion, and the frame
            count after the last frame (eval's report phase). Eval's pool
            threads complete frames out of order, so there it is the count
            of frames completed so far, not the frame the span works on.
    thread  threading.get_ident() of the calling thread
    pass    index of the CLI pass (or run) the span belongs to
    attrs   optional facts measured at the call: layer, macs, bytes, ...

Self time of a span is its duration minus the summed durations of its
direct children. Children run on the span's own thread and nest strictly
inside it, so they never overlap one another and the sum is their union.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import ExitStack
from typing import Callable, NamedTuple, Optional
from unittest import mock


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    frame: int
    thread: int
    pass_id: int
    attrs: Optional[dict]

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.frame = -1
        self.pass_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._layer_of: dict[int, str] = {}
        self._nets: list = []   # keeps registered ConvParams ids valid

    def register_net(self, net) -> None:
        self._nets.append(net)
        for name, params in net.layers.items():
            self._layer_of[id(params)] = name

    def layer_of(self, params) -> str:
        return self._layer_of.get(id(params), "?")

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``attrs(args, result)`` adds facts."""
        local = self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            frame = self.frame
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, frame,
                                   threading.get_ident(), self.pass_id,
                                   attrs(args, out) if attrs else None))
            return out

        return traced

    def write(self, path, phase: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"phase": phase, "name": s.name, "start": s.start - self.t0,
                       "end": s.end - self.t0, "id": s.id, "parent": s.parent,
                       "frame": s.frame, "thread": s.thread, "pass": s.pass_id}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s.id: s.dur for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.dur
    return out


# ---------------------------------------------------------------------------
# What gets wrapped, and where


def _file_bytes(path) -> int:
    return os.stat(path).st_size


def _conv_attrs(tracer: Tracer):
    def attrs(args, out):
        x, p = args[0], args[1]
        oh, ow = out.shape[1], out.shape[2]
        return {
            "layer": tracer.layer_of(p),
            "macs": int(out.size) * p.in_channels * p.kernel_h * p.kernel_w,
            # float64 column buffer the im2col formulation materializes
            "im2col_bytes": x.shape[0] * p.kernel_h * p.kernel_w * oh * ow * 8,
        }
    return attrs


def install(tracer: Tracer) -> ExitStack:
    """Patch every traced name; closing the returned stack restores them."""
    import cwseg.cli as cli
    import cwseg.metrics as metrics
    import cwseg.net as net
    import cwseg.scheduler as scheduler

    def build_attrs(args, out):
        tracer.register_net(out)
        return None

    file_arg = {
        "read_image": 0, "read_weights": 0, "read_manifest": 0,
        "write_mask": 2, "write_weights": 1,
    }
    targets = [
        # tensor_ops, as the net calls them
        (net, "conv2d", "tensor_ops.conv2d", _conv_attrs(tracer)),
        (net, "relu", "tensor_ops.relu", None),
        (net, "maxpool2d", "tensor_ops.maxpool2d", None),
        (net, "upsample_bilinear", "tensor_ops.upsample_bilinear", None),
        (net, "add", "tensor_ops.add", None),
        (net, "crop_center", "tensor_ops.crop_center", None),
        (scheduler, "mean_abs_diff", "tensor_ops.mean_abs_diff", None),
        # net, as the scheduler (and the CLI's score re-fusion) calls it
        (scheduler, "run_stage1", "net.stage1", None),
        (scheduler, "run_stage2", "net.stage2", None),
        (scheduler, "run_stage3", "net.stage3", None),
        (scheduler, "fuse_and_upsample", "net.fusion", None),
        (net, "fuse_and_upsample", "net.fusion", None),
        (scheduler, "argmax_mask", "net.argmax", None),
        (cli, "build_net", "net.build_net", build_attrs),
        # scheduler, as the CLI and run_sequence call it
        (cli, "step", "scheduler.step", None),
        (scheduler, "step", "scheduler.step", None),
        # media_io, as the CLI calls it
        (cli, "decode_gt_mask", "media_io.decode_gt_mask", None),
        # metrics
        (metrics.ConfusionMatrix, "add", "metrics.confusion_add", None),
        (metrics, "average_precision", "metrics.average_precision",
         lambda args, out: {"pixels": int(args[0].size)}),
        (cli, "build_report", "metrics.build_report", None),
    ]
    for fn, pos in file_arg.items():
        targets.append((cli, fn, f"media_io.{fn}",
                        lambda args, out, pos=pos: {"bytes": _file_bytes(args[pos])}))
    stack = ExitStack()
    for owner, attr, name, attrs in targets:
        wrapped = tracer.wrap(name, getattr(owner, attr), attrs)
        stack.enter_context(mock.patch.object(owner, attr, wrapped))
    return stack
