"""Clockwork scheduling: per-frame decisions about which network stages run,
persistence of deep scores across frames, and execution traces.

Each schedule states its own firing rule for the frames after frame 0,
which always runs everything; stage 1 is never gated. Stage 3 reads stage 2's
pool4 features, so a schedule fires stage 3 only where stage 2 fires (the
prefix rule). ``Adaptive`` runs stage 2 on every frame because its
score_pool4 is the change signal: the mean absolute difference from
``prev_score``, the copy saved at the last stage-3 firing. That comparison
is strict, so a huge theta means "never refire" and a negative theta means
"fire every frame" exactly.

When stage 3 is skipped the skip policy decides the output: ``ReuseFinal``
returns the mask of the cached final scores unchanged; ``FuseCachedDeep``
re-runs the fusion chain with the cached score_fr and the freshest available
score_pool4/score_pool3 (score_pool3 is always fresh). ``prev_score`` and the
cached final scores are only refreshed when stage 3 actually fires, so the
change signal always measures drift since the last deep computation.

``_time_stage1`` and ``step`` give how stage 1 runs ahead and is recorded.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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
from .tensor_ops import Tensor, mean_abs_diff, priority


@dataclass(frozen=True)
class Fixed:
    """Fixed periods for stages 2 and 3 (stage 1 is implicitly period 1)."""

    period2: int
    period3: int

    def __post_init__(self):
        for name, v in (("period2", self.period2), ("period3", self.period3)):
            if not isinstance(v, int) or v < 1:
                raise ContractError(f"{name} must be an integer >= 1, got {v!r}")

    def stage2(self, index: int) -> bool:
        return index % self.period2 == 0

    def stage3(self, index: int, change: Optional[float]) -> bool:
        return self.stage2(index) and index % self.period3 == 0


@dataclass(frozen=True)
class Always(Fixed):
    """Every stage, every frame: ``Fixed`` with both periods 1."""

    period2: int = field(default=1, init=False)
    period3: int = field(default=1, init=False)


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

    def stage2(self, index: int) -> bool:
        return True

    def stage3(self, index: int, change: float) -> bool:
        return change > self.theta


# Past frame 0, ``step`` runs stage 2 where ``stage2(index)`` holds and
# stage 3 where ``stage3(index, change)`` does; ``change`` is None except
# under ``Adaptive``.
ClockSchedule = Union[Fixed, Adaptive]


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
    the parts that ran, and ``fired`` is the stages among them;
    ``convs``/``macs`` count convolution work per stage label. ``change``
    is None except in adaptive mode past frame 0.
    """

    frame_index: int
    fired: frozenset[StageId]
    change: Optional[float]
    elapsed: dict[str, float]
    convs: dict[str, int]
    macs: dict[str, int]


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

    if state is None or schedule.stage2(index):
        pool4, score_pool4 = work.timed("stage2", run_stage2, net, pool3, work)
    else:
        pool4, score_pool4 = None, state.cached_score_pool4
    change: Optional[float] = None
    if isinstance(schedule, Adaptive) and state is not None:
        change = mean_abs_diff(score_pool4, state.prev_score)

    deep = state is None or schedule.stage3(index, change)
    if deep:
        # Stage 3 is most of a frame that fires it: in segment, the helper's
        # stage-1 convolutions serve its bands first.
        with priority():
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
        fired=frozenset(s for s in StageId if s.label in work.seconds),
        change=change,
        elapsed=work.seconds,
        convs=work.stage_convs(),
        macs=work.stage_macs(),
    )
    return mask, new_state, trace, final


def run_sequence(net: StagedNet, schedule: ClockSchedule, policy: SkipPolicy,
                 frames: Sequence[Tensor],
                 ) -> tuple[list[np.ndarray], list[StageTrace]]:
    """Fold :func:`step` over a frame sequence from empty state, serially:
    the reference for the CLI's pipelined frame loop."""
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
