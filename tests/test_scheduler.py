from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwseg import (
    Adaptive,
    Always,
    ContractError,
    Fixed,
    ShapeError,
    SkipPolicy,
    StageId,
    argmax_mask,
    layer_specs,
    mean_abs_diff,
    run_sequence,
    step,
)
from cwseg.scheduler import _time_stage1
from oracles import full_forward
from testutil import (
    assert_elapsed_rule,
    fixed_sequence,
    make_frame,
    random_frames,
    tiny_net,
)

S1, S2, S3 = StageId.STAGE1, StageId.STAGE2, StageId.STAGE3
ALL = frozenset((S1, S2, S3))


# ---------------------------------------------------------------------------
# firing rules: each schedule's stage2/stage3, for frames after frame 0


def test_frame_zero_fires_everything():
    frames = random_frames(5, 2)
    for schedule in (Always(), Fixed(3, 5), Adaptive(1e9)):
        for policy in SkipPolicy:
            _, traces = run_sequence(tiny_net(), schedule, policy, frames)
            assert traces[0].fired == ALL
            assert traces[0].change is None


def test_fixed_2_4_pattern_over_8_frames():
    fixed = Fixed(2, 4)
    assert [i for i in range(1, 8) if fixed.stage2(i)] == [2, 4, 6]
    assert [i for i in range(1, 8) if fixed.stage3(i, None)] == [4]


def test_adaptive_rules():
    adaptive = Adaptive(0.5)
    assert adaptive.stage2(3)
    assert not adaptive.stage3(3, 0.1)
    assert adaptive.stage3(3, 0.6)
    # strict comparison: change equal to theta does not fire
    assert not adaptive.stage3(3, 0.5)


def test_schedule_validation():
    with pytest.raises(ContractError):
        Fixed(0, 4)
    with pytest.raises(ContractError):
        Fixed(2, 0)
    with pytest.raises(ContractError):
        Adaptive(float("nan"))
    Adaptive(-1.0)  # negative theta is the always-fire switch


@settings(max_examples=100)
@given(
    kind=st.sampled_from(["always", "fixed", "adaptive"]),
    p2=st.integers(1, 6),
    p3=st.integers(1, 6),
    theta=st.floats(-1, 1, allow_nan=False),
    index=st.integers(1, 50),
    change=st.floats(0, 2, allow_nan=False),
)
def test_prefix_rule(kind, p2, p3, theta, index, change):
    """Stage 3 reads stage 2's features: ``stage3`` implies ``stage2``."""
    schedule = {"always": Always(), "fixed": Fixed(p2, p3),
                "adaptive": Adaptive(theta)}[kind]
    if schedule.stage3(index, change):
        assert schedule.stage2(index)


# Each layer's stage and the stride of its output, stated apart from the
# net's code so that the expected MACs below do not come from it.
_LAYER_STAGE_STRIDE = {
    "conv1_1": (1, 1), "conv1_2": (1, 1), "conv2_1": (1, 2), "conv2_2": (1, 2),
    "conv3_1": (1, 4), "conv3_2": (1, 4), "score_pool3": (1, 8),
    "conv4_1": (2, 8), "conv4_2": (2, 8), "score_pool4": (2, 16),
    "conv5_1": (3, 16), "conv5_2": (3, 16), "score_fr": (3, 32),
}


def _expected_table(net, schedule, frames):
    """(fired, change) of each frame: frame 0 fires all; past it, index
    arithmetic for Always and Fixed, and for Adaptive ``change > theta`` on
    the change from full_forward's score_pool4 at the last stage-3 firing."""
    pool4 = [full_forward(net, f).score_pool4 for f in frames]
    rows, ref = [], None
    for i, score_pool4 in enumerate(pool4):
        change = None
        if i == 0 or isinstance(schedule, Always):
            fired = {1, 2, 3}
        elif isinstance(schedule, Fixed):
            fired = {1}
            if i % schedule.period2 == 0:
                fired.add(2)
                if i % schedule.period3 == 0:
                    fired.add(3)
        else:
            change = mean_abs_diff(score_pool4, ref)
            fired = {1, 2, 3} if change > schedule.theta else {1, 2}
        if 3 in fired:
            ref = score_pool4
        rows.append((fired, change))
    return rows


@pytest.mark.parametrize("schedule", [
    Always(), Fixed(2, 4), Fixed(2, 3), Fixed(3, 1),
    Adaptive(-1.0), Adaptive(0.002), Adaptive(1e9),
])
@pytest.mark.parametrize("policy", list(SkipPolicy))
def test_traces_equal_independent_firing_table(schedule, policy):
    net = tiny_net()
    cfg = net.cfg
    frames = fixed_sequence()
    stage_convs = {s: 0 for s in (1, 2, 3)}
    stage_macs = {s: 0 for s in (1, 2, 3)}
    for spec in layer_specs(cfg):
        stage, stride = _LAYER_STAGE_STRIDE[spec.name]
        stage_convs[stage] += 1
        stage_macs[stage] += ((cfg.height // stride) * (cfg.width // stride)
                              * spec.out_channels * spec.in_channels
                              * spec.kernel ** 2)
    _, traces = run_sequence(net, schedule, policy, frames)
    table = _expected_table(net, schedule, frames)
    assert [t.frame_index for t in traces] == list(range(len(frames)))
    for t, (fired, change) in zip(traces, table):
        assert {int(s) for s in t.fired} == fired, t.frame_index
        assert t.change == change
        assert t.convs == {f"stage{s}": stage_convs[s] for s in sorted(fired)}
        assert t.macs == {f"stage{s}": stage_macs[s] for s in sorted(fired)}
    if isinstance(schedule, Adaptive) and schedule.theta == 0.002:
        # the sequence exercises both outcomes of the comparison
        assert 1 < sum(3 in fired for fired, _ in table) < len(frames)


# ---------------------------------------------------------------------------
# step / run_sequence


def full_masks(net, frames):
    return [argmax_mask(full_forward(net, f).final_scores) for f in frames]


@pytest.mark.parametrize("schedule", [Always(), Fixed(1, 1), Adaptive(-1.0)])
@pytest.mark.parametrize("policy", list(SkipPolicy))
def test_all_fire_schedules_match_full_forward(schedule, policy):
    net = tiny_net()
    frames = random_frames(21, 8)
    masks, traces = run_sequence(net, schedule, policy, frames)
    want = full_masks(net, frames)
    for got, exp in zip(masks, want):
        assert got.tobytes() == exp.tobytes()
    assert all(t.fired == ALL for t in traces)


def test_always_is_fixed_with_both_periods_one():
    assert isinstance(Always(), Fixed)
    assert Always() == Always()
    assert (Always().period2, Always().period3) == (1, 1)
    with pytest.raises(TypeError):
        Always(2, 4)
    with pytest.raises(TypeError):
        Always(period2=2)


@pytest.mark.parametrize("policy", list(SkipPolicy))
def test_always_runs_as_fixed_1_1(policy):
    net = tiny_net()
    frames = random_frames(22, 5)
    runs = [run_sequence(net, s, policy, frames) for s in (Always(), Fixed(1, 1))]
    (masks_a, traces_a), (masks_f, traces_f) = runs
    assert [m.tobytes() for m in masks_a] == [m.tobytes() for m in masks_f]
    for a, f in zip(traces_a, traces_f):
        assert (a.fired, a.change, a.convs, a.macs) == (f.fired, f.change,
                                                        f.convs, f.macs)


def test_single_frame_runs_everything():
    net = tiny_net()
    masks, traces = run_sequence(
        net, Adaptive(99.0), SkipPolicy.FUSE_CACHED_DEEP, random_frames(4, 1)
    )
    assert len(masks) == len(traces) == 1
    assert traces[0].fired == ALL
    assert traces[0].change is None


def test_empty_sequence_rejected():
    with pytest.raises(ContractError, match="empty"):
        run_sequence(tiny_net(), Always(), SkipPolicy.FUSE_CACHED_DEEP, [])


def test_fixed_2_4_runs_stage3_twice_on_8_frames():
    net = tiny_net()
    frames = [make_frame(3, 32, 32)] * 8
    _, traces = run_sequence(net, Fixed(2, 4), SkipPolicy.FUSE_CACHED_DEEP, frames)
    assert [t.frame_index for t in traces] == list(range(8))
    assert [i for i, t in enumerate(traces) if S2 in t.fired] == [0, 2, 4, 6]
    assert [i for i, t in enumerate(traces) if S3 in t.fired] == [0, 4]


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    policy=st.sampled_from(list(SkipPolicy)),
)
def test_static_input_idempotence(seed, n, policy):
    net = tiny_net()
    frame = random_frames(seed, 1)[0]
    masks, traces = run_sequence(net, Adaptive(1e-6), policy, [frame] * n)
    for t in traces[1:]:
        assert t.change == 0.0
        assert S3 not in t.fired
    for m in masks[1:]:
        assert m.tobytes() == masks[0].tobytes()


@settings(max_examples=100)
@given(
    thetas=st.tuples(
        st.floats(-0.01, 0.3, allow_nan=False),
        st.floats(-0.01, 0.3, allow_nan=False),
    )
)
def test_monotone_work_in_theta(thetas):
    """Raising theta never increases stage-3 firings on a fixed sequence."""
    lo, hi = sorted(thetas)
    net = tiny_net()
    frames = fixed_sequence()

    def firings(theta):
        _, traces = run_sequence(
            net, Adaptive(theta), SkipPolicy.FUSE_CACHED_DEEP, frames
        )
        return sum(1 for t in traces if S3 in t.fired)

    assert firings(hi) <= firings(lo)


def test_state_causality_replay():
    net = tiny_net()
    frames = random_frames(90, 6)
    state = None
    mid_states = []
    for f in frames:
        _, state, _, _ = step(net, Adaptive(0.01),
                              SkipPolicy.FUSE_CACHED_DEEP, state, f)
        mid_states.append(state)

    replay = None
    for f in frames[:4]:
        _, replay, _, _ = step(net, Adaptive(0.01),
                               SkipPolicy.FUSE_CACHED_DEEP, replay, f)
    orig = mid_states[3]
    assert replay.frames_seen == orig.frames_seen
    for field in ("prev_score", "cached_score_pool4", "cached_score_fr",
                  "cached_final"):
        assert getattr(replay, field).tobytes() == getattr(orig, field).tobytes()


def test_work_accounting_matches_firings():
    net = tiny_net()
    frames = random_frames(37, 8)
    _, traces = run_sequence(net, Fixed(2, 4), SkipPolicy.FUSE_CACHED_DEEP, frames)
    s3_firings = sum(1 for t in traces if S3 in t.fired)
    s3_convs = sum(t.convs.get("stage3", 0) for t in traces)
    assert s3_convs == 3 * s3_firings
    s1_convs = sum(t.convs.get("stage1", 0) for t in traces)
    assert s1_convs == 7 * len(frames)
    s2_firings = sum(1 for t in traces if S2 in t.fired)
    s2_convs = sum(t.convs.get("stage2", 0) for t in traces)
    assert s2_convs == 3 * s2_firings


@pytest.mark.parametrize("policy", list(SkipPolicy))
def test_elapsed_names_exactly_the_parts_that_ran(policy):
    schedules = (Always(), Fixed(2, 4), Adaptive(0.002))
    skipped = set()
    for schedule in schedules:
        _, traces = run_sequence(tiny_net(), schedule, policy, fixed_sequence())
        for t in traces:
            assert_elapsed_rule(t.fired, policy, t.elapsed)
            skipped |= ALL - t.fired
    assert skipped == {S2, S3}


def test_step_takes_stage1_run_on_another_thread():
    net = tiny_net()
    frames = random_frames(56, 4)
    for schedule in (Always(), Fixed(2, 3), Adaptive(0.01)):
        for policy in SkipPolicy:
            serial = ahead = None
            with ThreadPoolExecutor(max_workers=1) as pool:
                for f in frames:
                    one = step(net, schedule, policy, serial, f)
                    done = pool.submit(_time_stage1, net, f).result()
                    two = step(net, schedule, policy, ahead, done)
                    serial, ahead = one[1], two[1]
                    assert one[0].tobytes() == two[0].tobytes()
                    assert one[3].tobytes() == two[3].tobytes()
                    assert np.array_equal(argmax_mask(one[3]), one[0])
                    assert (one[2].fired, one[2].convs, one[2].macs) == (
                        two[2].fired, two[2].convs, two[2].macs)


def test_shape_drift_is_an_error():
    net = tiny_net()
    mask, state, _, _ = step(net, Always(), SkipPolicy.FUSE_CACHED_DEEP, None,
                             make_frame(3, 32, 32))
    with pytest.raises(ShapeError, match="expected shape"):
        step(net, Always(), SkipPolicy.FUSE_CACHED_DEEP, state,
             make_frame(3, 64, 64))


def test_static_then_cut_fires_at_the_cut_only():
    net = tiny_net()
    a = random_frames(100, 1)[0]
    b = random_frames(200, 1)[0]
    ref_a = full_forward(net, a).score_pool4
    ref_b = full_forward(net, b).score_pool4
    cut_change = mean_abs_diff(ref_b, ref_a)
    assert cut_change > 0.0
    theta = cut_change / 2.0

    frames = [a] * 10 + [b] * 10
    for policy in SkipPolicy:
        masks, traces = run_sequence(net, Adaptive(theta), policy, frames)
        fire_frames = [i for i, t in enumerate(traces) if S3 in t.fired]
        assert fire_frames == [0, 10]
        # after the refire, outputs match full inference on frame b
        want_b = argmax_mask(full_forward(net, b).final_scores)
        for m in masks[10:]:
            assert m.tobytes() == want_b.tobytes()


def test_reuse_final_reports_last_deep_mask():
    net = tiny_net()
    a = random_frames(300, 1)[0]
    b = random_frames(301, 1)[0]
    # huge theta: stage 3 never refires after frame 0
    masks, traces = run_sequence(
        net, Adaptive(1e9), SkipPolicy.REUSE_FINAL, [a, b]
    )
    assert S3 not in traces[1].fired
    want_a = argmax_mask(full_forward(net, a).final_scores)
    assert masks[1].tobytes() == want_a.tobytes()


def test_fuse_cached_deep_uses_fresh_shallow_scores():
    net = tiny_net()
    a = random_frames(302, 1)[0]
    b = random_frames(303, 1)[0]
    masks, traces = run_sequence(
        net, Adaptive(1e9), SkipPolicy.FUSE_CACHED_DEEP, [a, b]
    )
    assert S3 not in traces[1].fired
    out_a = full_forward(net, a)
    out_b = full_forward(net, b)
    from cwseg import fuse_and_upsample

    want = argmax_mask(fuse_and_upsample(
        net, out_a.score_fr, out_b.score_pool4, out_b.score_pool3
    ))
    assert masks[1].tobytes() == want.tobytes()


def test_trace_change_only_in_adaptive_mode():
    net = tiny_net()
    frames = random_frames(55, 3)
    _, always_traces = run_sequence(net, Always(), SkipPolicy.FUSE_CACHED_DEEP,
                                    frames)
    assert all(t.change is None for t in always_traces)
    _, fixed_traces = run_sequence(net, Fixed(2, 2), SkipPolicy.FUSE_CACHED_DEEP,
                                   frames)
    assert all(t.change is None for t in fixed_traces)
    _, ad_traces = run_sequence(net, Adaptive(0.5), SkipPolicy.FUSE_CACHED_DEEP,
                                frames)
    assert ad_traces[0].change is None
    assert all(t.change is not None and t.change >= 0 for t in ad_traces[1:])
