"""Three-stage fully convolutional segmentation network with skip heads.

The topology is fixed. Stage 1 runs three conv-conv-pool blocks down to
stride 8 and ends in the 1x1 head ``score_pool3``; stage 2 is one more block
to stride 16 ending in ``score_pool4``; stage 3 is a final block to stride
32 whose second conv is a wide 7x7 classifier layer, ending in the 1x1 head
``score_fr``. Score maps are fused skip-style: upsample the deepest map by
2, add the cropped stride-16 map, upsample by 2, add the cropped stride-8
map, then upsample by 8 back to input resolution.

Stage 3 deliberately carries roughly half of the per-frame multiply
-accumulates (the 7x7 classifier conv), which is what makes gating it
worthwhile for the clockwork scheduler.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractError, ShapeError
from .tensor_ops import (
    ConvParams,
    Tensor,
    add,
    as_chw,
    conv2d,
    crop_center,
    maxpool2d,
    relu,
    upsample_bilinear,
)


class StageId(enum.IntEnum):
    """The three schedulable stages, ordered shallow to deep."""

    STAGE1 = 1
    STAGE2 = 2
    STAGE3 = 3

    @property
    def label(self) -> str:
        return f"stage{int(self)}"


@dataclass(frozen=True)
class NetConfig:
    """Structural parameters of the toy network.

    Input height/width must be divisible by 32 (five 2x2 pools); the network
    built for a config only accepts frames of exactly that size.
    """

    in_channels: int = 3
    num_classes: int = 2
    base_width: int = 8
    height: int = 64
    width: int = 64

    def __post_init__(self):
        if self.in_channels < 1:
            raise ShapeError("in_channels must be positive")
        if self.num_classes < 2:
            raise ShapeError("num_classes must be at least 2")
        if self.base_width < 1:
            raise ShapeError("base_width must be positive")
        for name, v in (("height", self.height), ("width", self.width)):
            if v < 32 or v % 32 != 0:
                raise ShapeError(f"{name} must be a positive multiple of 32, got {v}")


class LayerSpec(NamedTuple):
    name: str
    in_channels: int
    out_channels: int
    kernel: int
    pad: int


def layer_specs(cfg: NetConfig) -> tuple[LayerSpec, ...]:
    """The fixed layer list, widths derived from ``cfg.base_width``."""
    w, c = cfg.base_width, cfg.num_classes
    return (
        LayerSpec("conv1_1", cfg.in_channels, w, 3, 1),
        LayerSpec("conv1_2", w, w, 3, 1),
        LayerSpec("conv2_1", w, 2 * w, 3, 1),
        LayerSpec("conv2_2", 2 * w, 2 * w, 3, 1),
        LayerSpec("conv3_1", 2 * w, 4 * w, 3, 1),
        LayerSpec("conv3_2", 4 * w, 4 * w, 3, 1),
        LayerSpec("score_pool3", 4 * w, c, 1, 0),
        LayerSpec("conv4_1", 4 * w, 8 * w, 3, 1),
        LayerSpec("conv4_2", 8 * w, 8 * w, 3, 1),
        LayerSpec("score_pool4", 8 * w, c, 1, 0),
        LayerSpec("conv5_1", 8 * w, 8 * w, 3, 1),
        # fc6-like wide classifier conv; the bulk of stage-3 compute
        LayerSpec("conv5_2", 8 * w, 32 * w, 7, 3),
        LayerSpec("score_fr", 32 * w, c, 1, 0),
    )


@dataclass(frozen=True)
class StagedNet:
    """Validated, immutable network: config plus per-layer parameters."""

    cfg: NetConfig
    layers: dict[str, ConvParams]


class WorkCounter:
    """The record of one frame's work: convolution invocations and
    multiply-accumulate counts per layer, and wall seconds per stage part.

    Conv keys are layer names; aggregate per stage via ``stage_convs`` /
    ``stage_macs``. Counting happens at the conv2d call sites, which also
    name each layer's stage, so totals reflect work actually executed.
    ``seconds`` has a key only for each part run through :meth:`timed`
    ("stage1", "stage2", "stage3", "fusion").
    """

    def __init__(self):
        self.convs: dict[str, int] = {}
        self.macs: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self._stage: dict[str, str] = {}

    def record(self, layer: str, stage: StageId, macs: int) -> None:
        self._stage[layer] = stage.label
        self.convs[layer] = self.convs.get(layer, 0) + 1
        self.macs[layer] = self.macs.get(layer, 0) + macs

    def timed(self, part: str, fn, *args):
        """Return ``fn(*args)``, keeping its wall seconds under ``part``."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.seconds[part] = time.perf_counter() - t0
        return out

    def _by_stage(self, per_layer: dict[str, int]) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, n in per_layer.items():
            label = self._stage[name]
            out[label] = out.get(label, 0) + n
        return out

    def stage_convs(self) -> dict[str, int]:
        return self._by_stage(self.convs)

    def stage_macs(self) -> dict[str, int]:
        return self._by_stage(self.macs)


def build_net(cfg: NetConfig, weights: dict[str, np.ndarray]) -> StagedNet:
    """Assemble and validate a network from a weight store.

    The store must hold, for every topology layer, a weight entry under the
    layer name and a bias entry under ``<name>.bias``, with shapes matching
    the fixed layer list.
    """
    layers: dict[str, ConvParams] = {}
    for spec in layer_specs(cfg):
        for key in (spec.name, spec.name + ".bias"):
            if key not in weights:
                raise ContractError(f"weight store is missing entry '{key}'")
        w = np.asarray(weights[spec.name], dtype=np.float32)
        expected = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        if w.shape != expected:
            raise ShapeError(
                f"layer '{spec.name}': weight shape {w.shape}, expected {expected}"
            )
        b = np.asarray(weights[spec.name + ".bias"], dtype=np.float32)
        if b.shape != (spec.out_channels,):
            raise ShapeError(
                f"layer '{spec.name}': bias shape {b.shape}, expected "
                f"({spec.out_channels},)"
            )
        layers[spec.name] = ConvParams(
            out_channels=spec.out_channels,
            in_channels=spec.in_channels,
            kernel_h=spec.kernel,
            kernel_w=spec.kernel,
            weights=w,
            bias=b,
            stride=1,
            pad=spec.pad,
        )
    return StagedNet(cfg=cfg, layers=layers)


def _conv(net: StagedNet, stage: StageId, name: str, x: Tensor,
          work: Optional[WorkCounter]) -> Tensor:
    p = net.layers[name]
    # Stage 3 is most of a frame that fires it: in segment, the helper's
    # stage-1 convolutions serve its bands first. Only stage 3's: stage 1
    # is the floor on frames that skip it.
    out = conv2d(x, p, priority=stage is StageId.STAGE3)
    if work is not None:
        work.record(name, stage,
                    out.size * p.in_channels * p.kernel_h * p.kernel_w)
    return out


def _conv_relu(net: StagedNet, stage: StageId, name: str, x: Tensor,
               work: Optional[WorkCounter]) -> Tensor:
    """Conv, then relu in place on its fresh output (no second map)."""
    out = _conv(net, stage, name, x, work)
    return relu(out, out=out)


def _check_input(x: Tensor, channels: int, h: int, w: int, what: str) -> Tensor:
    x = as_chw(x)
    expected = (channels, h, w)
    if x.shape != expected:
        raise ShapeError(f"{what}: expected shape {expected}, got {x.shape}")
    return x


def run_stage1(net, frame: Tensor, work: WorkCounter | None = None):
    """Run the shallow stage: three blocks to stride 8 plus score_pool3.

    Returns (pool3_features, score_pool3).
    """
    cfg = net.cfg
    x = _check_input(frame, cfg.in_channels, cfg.height, cfg.width, "frame")
    for pair in (("conv1_1", "conv1_2"), ("conv2_1", "conv2_2"), ("conv3_1", "conv3_2")):
        for name in pair:
            x = _conv_relu(net, StageId.STAGE1, name, x, work)
        x = maxpool2d(x, 2, 2)
    return x, _conv(net, StageId.STAGE1, "score_pool3", x, work)


def run_stage2(net, pool3_features: Tensor, work: WorkCounter | None = None):
    """Run the middle stage to stride 16; returns (pool4_features, score_pool4)."""
    cfg = net.cfg
    x = _check_input(
        pool3_features, 4 * cfg.base_width, cfg.height // 8, cfg.width // 8,
        "pool3_features",
    )
    for name in ("conv4_1", "conv4_2"):
        x = _conv_relu(net, StageId.STAGE2, name, x, work)
    x = maxpool2d(x, 2, 2)
    return x, _conv(net, StageId.STAGE2, "score_pool4", x, work)


def run_stage3(net, pool4_features: Tensor, work: WorkCounter | None = None) -> Tensor:
    """Run the deep stage to stride 32; returns score_fr."""
    cfg = net.cfg
    x = _check_input(
        pool4_features, 8 * cfg.base_width, cfg.height // 16, cfg.width // 16,
        "pool4_features",
    )
    x = _conv_relu(net, StageId.STAGE3, "conv5_1", x, work)
    x = _conv_relu(net, StageId.STAGE3, "conv5_2", x, work)
    x = maxpool2d(x, 2, 2)
    return _conv(net, StageId.STAGE3, "score_fr", x, work)


def fuse_and_upsample(net, score_fr: Tensor, score_pool4: Tensor,
                      score_pool3: Tensor) -> Tensor:
    """Skip-fuse the three score maps up to full input resolution."""
    c = net.cfg.num_classes
    for name, t in (("score_fr", score_fr), ("score_pool4", score_pool4),
                    ("score_pool3", score_pool3)):
        t = as_chw(t)
        if t.shape[0] != c:
            raise ShapeError(f"{name}: expected {c} class channels, got {t.shape[0]}")
    u = upsample_bilinear(score_fr, 2)
    u = add(u, crop_center(score_pool4, u.shape[1], u.shape[2]))
    u = upsample_bilinear(u, 2)
    u = add(u, crop_center(score_pool3, u.shape[1], u.shape[2]))
    return upsample_bilinear(u, 8)


def argmax_mask(final_scores: Tensor) -> np.ndarray:
    """Per-pixel index of the max-scoring class, equal to
    ``np.argmax(final_scores, axis=0)`` on every input: ties go to the
    lowest index and the first NaN wins.

    One compare-and-keep pass per class, with no masked writes, is several
    times faster than ``np.argmax`` over the class axis.
    """
    scores = as_chw(final_scores)
    best = scores[0]
    index = np.zeros(best.shape, dtype=np.intp)
    for c in range(1, len(scores)):
        v = scores[c]
        # v wins where it beats the best so far or is NaN, unless a NaN
        # came first. c exceeds every earlier index, so max records it.
        wins = ~(v <= best) & (best == best)
        np.maximum(index, wins * c, out=index)
        best = np.maximum(best, v)  # NaN propagates
    return index
