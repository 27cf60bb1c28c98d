"""Shared helpers for the test suite.

Network construction is cached at module level (not via pytest fixtures) so
property-test functions stay plain callables; the acceptance suite invokes
them directly.
"""
import functools

import numpy as np

from cwseg import NetConfig, SkipPolicy, build_net, gen_weights


@functools.cache
def tiny_net():
    """Cheap 32x32 net (base width 2) for property tests."""
    cfg = NetConfig(in_channels=3, num_classes=2, base_width=2,
                    height=32, width=32)
    return build_net(cfg, gen_weights(cfg, 7))


@functools.cache
def seed42_net():
    """The full-size default config with seed-42 weights."""
    cfg = NetConfig()
    return build_net(cfg, gen_weights(cfg, 42))


def make_frame(c, h, w, salt=0):
    """Deterministic structured frame, no RNG involved."""
    ch, y, x = np.meshgrid(
        np.arange(c), np.arange(h), np.arange(w), indexing="ij"
    )
    return (((3 * x + 7 * y + 11 * ch + salt) % 29) / 28.0).astype(np.float32)


def random_frames(seed, count, shape=(3, 32, 32)):
    rng = np.random.default_rng(seed)
    return [rng.random(shape, dtype=np.float32) for _ in range(count)]


@functools.cache
def fixed_sequence():
    """A fixed 6-frame sequence with varied inter-frame change, used by the
    monotone-threshold property."""
    rng = np.random.default_rng(11)
    base = rng.random((3, 32, 32), dtype=np.float32)
    frames = [base]
    for k in range(5):
        # alternate small and large perturbations
        scale = np.float32(0.02 if k % 2 == 0 else 0.5)
        frames.append(np.clip(
            frames[-1] + scale * rng.standard_normal((3, 32, 32)).astype(np.float32),
            0.0, 1.0,
        ).astype(np.float32))
    return frames


def assert_elapsed_rule(fired, policy, elapsed):
    """A frame's ``elapsed`` names stage 1 always, stages 2 and 3 exactly
    when they fired, and fusion exactly when stage 3 fired or the skip policy
    fuses the cached deep scores; every value is >= 0. ``fired`` holds stage
    numbers and ``policy`` is a SkipPolicy or its value."""
    fired = {int(s) for s in fired}
    expected = {"stage1"} | {f"stage{s}" for s in fired & {2, 3}}
    if 3 in fired or SkipPolicy(policy) is SkipPolicy.FUSE_CACHED_DEEP:
        expected.add("fusion")
    assert set(elapsed) == expected, (fired, policy, elapsed)
    assert all(dt >= 0 for dt in elapsed.values()), elapsed
