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
    mean_abs_diff,
    run_sequence,
    should_fire,
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
# should_fire


def test_frame_zero_fires_everything():
    for schedule in (Always(), Fixed(3, 5), Adaptive(0.5)):
        assert should_fire(schedule, 0) == ALL


def test_fixed_2_4_pattern_over_8_frames():
    fired2 = [i for i in range(8) if S2 in should_fire(Fixed(2, 4), i)]
    fired3 = [i for i in range(8) if S3 in should_fire(Fixed(2, 4), i)]
    assert fired2 == [0, 2, 4, 6]
    assert fired3 == [0, 4]


def test_adaptive_rules():
    assert should_fire(Adaptive(0.5), 3, change=0.1) == frozenset((S1, S2))
    assert should_fire(Adaptive(0.5), 3, change=0.6) == ALL
    # strict comparison: change equal to theta does not fire
    assert should_fire(Adaptive(0.5), 3, change=0.5) == frozenset((S1, S2))
    with pytest.raises(ContractError, match="change"):
        should_fire(Adaptive(0.5), 1)


def test_schedule_validation():
    with pytest.raises(ContractError):
        Fixed(0, 4)
    with pytest.raises(ContractError):
        Fixed(2, 0)
    with pytest.raises(ContractError):
        Adaptive(float("nan"))
    with pytest.raises(ContractError):
        should_fire(Always(), -1)
    Adaptive(-1.0)  # negative theta is the always-fire switch


@settings(max_examples=100)
@given(
    kind=st.sampled_from(["always", "fixed", "adaptive"]),
    p2=st.integers(1, 6),
    p3=st.integers(1, 6),
    theta=st.floats(-1, 1, allow_nan=False),
    index=st.integers(0, 50),
    change=st.floats(0, 2, allow_nan=False),
)
def test_prefix_rule(kind, p2, p3, theta, index, change):
    if kind == "always":
        schedule = Always()
        fired = should_fire(schedule, index)
    elif kind == "fixed":
        schedule = Fixed(p2, p3)
        fired = should_fire(schedule, index)
    else:
        schedule = Adaptive(theta)
        fired = should_fire(schedule, index, change=change)
    assert S1 in fired
    if S3 in fired:
        assert S2 in fired


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
