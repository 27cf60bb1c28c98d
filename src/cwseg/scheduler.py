"""Clockwork scheduling: per-frame decisions about which network stages run,
persistence of deep scores across frames, and execution traces.

Firing rules. Frame 0 always runs everything. Afterwards:

* ``Always``     - all three stages, every frame (the oracle arm).
* ``Fixed``      - stage 2 fires when ``index % period2 == 0``; stage 3 when
                   ``index % period3 == 0`` and stage 2 fired (prefix rule).
* ``Adaptive``   - stage 2 always fires (its output is the change signal);
                   stage 3 fires when ``change > theta``, where change is the
                   mean absolute difference between the fresh score_pool4 and
                   ``prev_score``, the copy saved at the last stage-3 firing.

The comparison is strict, so a huge theta means "never refire" and a negative
theta means "fire every frame" exactly. Stage 1 is never gated.

When stage 3 is skipped the skip policy decides the output: ``ReuseFinal``
returns the mask of the cached final scores unchanged; ``FuseCachedDeep``
re-runs the fusion chain with the cached score_fr and the freshest available
score_pool4/score_pool3 (score_pool3 is always fresh). ``prev_score`` and the
cached final scores are only refreshed when stage 3 actually fires, so the
change signal always measures drift since the last deep computation.

Stage 1 holds no state across frames, so it can run ahead of the frame
loop: :func:`step` accepts stage 1 already run (``_time_stage1``) in place
of the frame. The CLI's frame loop, which ``segment`` and ``bench`` share,
runs it for frame k+1 on a helper thread while ``step`` finishes frame k.
:func:`run_sequence` stays serial; it is the reference.

Each frame's :class:`WorkCounter` is its record: ``_time_stage1`` creates
it and ``step`` runs every later part through it, so it holds the frame's
convolutions, MACs and per-part seconds, and the trace is read from it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ContractError
from .net import (
    StagedNet,
    StageId,
    WorkCounter,
    argmax_mask,
    fuse_and_upsample,
    run_stage1,
    run_stage2,
    run_stage3,
)
from .tensor_ops import Tensor, mean_abs_diff


@dataclass(frozen=True)
class Always:
    """Every stage, every frame."""


@dataclass(frozen=True)
class Fixed:
    """Fixed periods for stages 2 and 3 (stage 1 is implicitly period 1)."""

    period2: int
    period3: int

    def __post_init__(self):
        for name, v in (("period2", self.period2), ("period3", self.period3)):
            if not isinstance(v, int) or v < 1:
                raise ContractError(f"{name} must be an integer >= 1, got {v!r}")


@dataclass(frozen=True)
class Adaptive:
    """Data-driven stage-3 gating with threshold ``theta``.

    Negative theta is allowed and makes stage 3 fire on every frame, which
    is the exact-oracle switch used in tests.
    """

    theta: float

    def __post_init__(self):
        if math.isnan(self.theta):
            raise ContractError("theta must not be NaN")


ClockSchedule = Union[Always, Fixed, Adaptive]


class SkipPolicy(enum.Enum):
    """What to output on frames where stage 3 is skipped."""

    REUSE_FINAL = "reuse-final"
    FUSE_CACHED_DEEP = "fuse-cached-deep"


@dataclass(frozen=True)
class PersistedState:
    """Everything carried across frames. ``prev_score`` is the score_pool4
    captured at the last stage-3 firing (the change reference);
    ``cached_score_pool4`` is the freshest score_pool4, while cached_final
    and cached_score_fr only refresh on stage-3 firings."""

    prev_score: Tensor
    cached_score_pool4: Tensor
    cached_score_fr: Tensor
    cached_final: Tensor
    frames_seen: int


@dataclass(frozen=True)
class _Stage1Result:
    """Stage 1 of one frame, run ahead of :func:`step`: its two outputs and
    the frame's :class:`WorkCounter`, which holds stage 1's convolutions and
    seconds. ``step`` goes on recording the frame's later parts into ``work``."""

    pool3: Tensor
    score_pool3: Tensor
    work: WorkCounter


def _time_stage1(net: StagedNet, frame: Tensor) -> _Stage1Result:
    """Run and time stage 1 of ``frame`` into a fresh WorkCounter.

    Stage 1 holds no state across frames, so this may run on another thread
    than the :func:`step` that consumes the result.
    """
    work = WorkCounter()
    pool3, score_pool3 = work.timed("stage1", run_stage1, net, frame, work)
    return _Stage1Result(pool3, score_pool3, work)


@dataclass(frozen=True)
class StageTrace:
    """Per-frame execution record.

    ``elapsed`` is the frame's ``WorkCounter.seconds``, with keys only for
    the parts that ran; ``convs``/``macs`` count convolution work per stage
    label. ``change`` is None except in adaptive mode past frame 0.
    """

    frame_index: int
    fired: frozenset[StageId]
    change: Optional[float]
    elapsed: dict[str, float]
    convs: dict[str, int]
    macs: dict[str, int]


def should_fire(schedule: ClockSchedule, frame_index: int,
                change: Optional[float] = None) -> frozenset[StageId]:
    """The set of stages that fire on ``frame_index`` under ``schedule``.

    ``change`` is required exactly when the schedule is adaptive and
    frame_index > 0.
    """
    if frame_index < 0:
        raise ContractError(f"frame_index must be >= 0, got {frame_index}")
    all_stages = frozenset((StageId.STAGE1, StageId.STAGE2, StageId.STAGE3))
    if frame_index == 0 or isinstance(schedule, Always):
        return all_stages
    if isinstance(schedule, Fixed):
        fired = {StageId.STAGE1}
        if frame_index % schedule.period2 == 0:
            fired.add(StageId.STAGE2)
            if frame_index % schedule.period3 == 0:
                fired.add(StageId.STAGE3)
        return frozenset(fired)
    if isinstance(schedule, Adaptive):
        if change is None:
            raise ContractError(
                "adaptive scheduling needs a change value past frame 0"
            )
        fired = {StageId.STAGE1, StageId.STAGE2}
        if change > schedule.theta:
            fired.add(StageId.STAGE3)
        return frozenset(fired)
    raise ContractError(f"unknown schedule {schedule!r}")


def step(net: StagedNet, schedule: ClockSchedule, policy: SkipPolicy,
         state: Optional[PersistedState], frame: Union[Tensor, _Stage1Result],
         ) -> tuple[np.ndarray, PersistedState, StageTrace, Tensor]:
    """Process one frame: run the fired stages, produce a mask, advance state.

    ``frame`` is the frame itself, or the ``_time_stage1`` result of it
    when stage 1 already ran. Returns the mask, the new state, the trace and
    the final score map the mask is the argmax of.

    ``state`` must be None exactly on the first frame of a sequence. Frames
    must keep the resolution the net was built for; drift is an error, never
    a silent re-initialization.
    """
    index = 0 if state is None else state.frames_seen
    if not isinstance(frame, _Stage1Result):
        frame = _time_stage1(net, frame)
    pool3, score_pool3, work = frame.pool3, frame.score_pool3, frame.work

    # Firing only grows with the change, so at infinite change should_fire
    # names every stage that can fire on this frame. Stage 2 runs before the
    # decision: its score_pool4 is the adaptive change signal.
    if StageId.STAGE2 in should_fire(schedule, index, math.inf):
        pool4, score_pool4 = work.timed("stage2", run_stage2, net, pool3, work)
    else:
        pool4, score_pool4 = None, state.cached_score_pool4
    change: Optional[float] = None
    if isinstance(schedule, Adaptive) and index > 0:
        change = mean_abs_diff(score_pool4, state.prev_score)
    fired = should_fire(schedule, index, change)

    deep = StageId.STAGE3 in fired
    if deep:
        score_fr = work.timed("stage3", run_stage3, net, pool4, work)
    else:
        score_fr = state.cached_score_fr
    if deep or policy is SkipPolicy.FUSE_CACHED_DEEP:
        final = work.timed("fusion", fuse_and_upsample, net, score_fr,
                           score_pool4, score_pool3)
    else:
        final = state.cached_final
    new_state = PersistedState(
        prev_score=score_pool4 if deep else state.prev_score,
        cached_score_pool4=score_pool4,
        cached_score_fr=score_fr,
        cached_final=final if deep else state.cached_final,
        frames_seen=index + 1,
    )
    mask = argmax_mask(final)

    trace = StageTrace(
        frame_index=index,
        fired=fired,
        change=change,
        elapsed=work.seconds,
        convs=work.stage_convs(),
        macs=work.stage_macs(),
    )
    return mask, new_state, trace, final


def run_sequence(net: StagedNet, schedule: ClockSchedule, policy: SkipPolicy,
                 frames: Sequence[Tensor],
                 ) -> tuple[list[np.ndarray], list[StageTrace]]:
    """Fold :func:`step` over a frame sequence from empty state."""
    if len(frames) == 0:
        raise ContractError("cannot run an empty sequence")
    masks: list[np.ndarray] = []
    traces: list[StageTrace] = []
    state: Optional[PersistedState] = None
    for frame in frames:
        mask, state, trace, _ = step(net, schedule, policy, state, frame)
        masks.append(mask)
        traces.append(trace)
    return masks, traces
