import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cwseg.net as net_module
from cwseg import (
    ContractError,
    NetConfig,
    NumericError,
    ShapeError,
    WorkCounter,
    argmax_mask,
    build_net,
    fuse_and_upsample,
    gen_weights,
    layer_specs,
    run_stage1,
    run_stage2,
    run_stage3,
    upsample_bilinear,
)
from oracles import full_forward
from testutil import make_frame, seed42_net, tiny_net

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_seed42.json"


def zero_store(cfg):
    store = {}
    for spec in layer_specs(cfg):
        store[spec.name] = np.zeros(
            (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel),
            dtype=np.float32,
        )
        store[spec.name + ".bias"] = np.zeros(spec.out_channels, dtype=np.float32)
    return store


def test_config_validation():
    with pytest.raises(ShapeError):
        NetConfig(height=48)
    with pytest.raises(ShapeError):
        NetConfig(width=0)
    with pytest.raises(ShapeError):
        NetConfig(num_classes=1)
    with pytest.raises(ShapeError):
        NetConfig(base_width=0)
    NetConfig(height=96, width=32)  # fine


def test_score_map_shapes():
    net = seed42_net()
    out = full_forward(net, make_frame(3, 64, 64))
    assert out.score_pool3.shape == (2, 8, 8)
    assert out.score_pool4.shape == (2, 4, 4)
    assert out.score_fr.shape == (2, 2, 2)
    assert out.final_scores.shape == (2, 64, 64)


def test_zero_weights_give_zero_scores_and_tie_mask():
    cfg = NetConfig(base_width=2, height=32, width=32)
    net = build_net(cfg, zero_store(cfg))
    out = full_forward(net, make_frame(3, 32, 32))
    assert not out.score_pool3.any()
    assert not out.score_pool4.any()
    assert not out.score_fr.any()
    assert not out.final_scores.any()
    assert not argmax_mask(out.final_scores).any()


def test_stage_purity_matches_full_forward():
    net = tiny_net()
    frame = make_frame(3, 32, 32, salt=5)
    out = full_forward(net, frame)
    pool3, score3 = run_stage1(net, frame)
    pool4, score4 = run_stage2(net, pool3)
    score_fr = run_stage3(net, pool4)
    final = fuse_and_upsample(net, score_fr, score4, score3)
    assert score3.tobytes() == out.score_pool3.tobytes()
    assert score4.tobytes() == out.score_pool4.tobytes()
    assert score_fr.tobytes() == out.score_fr.tobytes()
    assert final.tobytes() == out.final_scores.tobytes()


def test_forward_is_deterministic():
    net = tiny_net()
    frame = make_frame(3, 32, 32, salt=9)
    a = full_forward(net, frame)
    b = full_forward(net, frame)
    assert a.final_scores.tobytes() == b.final_scores.tobytes()


def test_fusion_zero_inputs_and_chain():
    net = tiny_net()
    c = net.cfg.num_classes
    z32 = np.zeros((c, 1, 1), dtype=np.float32)
    z16 = np.zeros((c, 2, 2), dtype=np.float32)
    z8 = np.zeros((c, 4, 4), dtype=np.float32)
    assert not fuse_and_upsample(net, z32, z16, z8).any()

    rng = np.random.default_rng(3)
    fr = rng.random((c, 1, 1), dtype=np.float32)
    got = fuse_and_upsample(net, fr, z16, z8)
    want = upsample_bilinear(upsample_bilinear(upsample_bilinear(fr, 2), 2), 8)
    assert got.shape == (c, 32, 32)
    np.testing.assert_array_equal(got, want)


def test_fusion_refuses_non_finite_output():
    """Finite maps whose neighbouring score_pool3 columns differ by more
    than float32's maximum overflow the x8 upsampling's lerp."""
    net = tiny_net()
    c = net.cfg.num_classes
    z32 = np.zeros((c, 1, 1), dtype=np.float32)
    z16 = np.zeros((c, 2, 2), dtype=np.float32)
    s8 = np.zeros((c, 4, 4), dtype=np.float32)
    s8[0, :, 0::2], s8[0, :, 1::2] = 3e38, -3e38
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError,
                          match="^fusion produced non-finite values$"):
        fuse_and_upsample(net, z32, z16, s8)


def test_fusion_overflow_in_the_first_add_is_caught_at_the_end():
    """score_fr upsampled plus score_pool4 overflows float32; the x2 and x8
    lerps carry the non-finite cells to the fused result."""
    net = tiny_net()
    c = net.cfg.num_classes
    s32 = np.zeros((c, 1, 1), dtype=np.float32)
    s16 = np.zeros((c, 2, 2), dtype=np.float32)
    s32[0], s16[0] = 3e38, 3e38
    z8 = np.zeros((c, 4, 4), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError,
                          match="^fusion produced non-finite values$"):
        fuse_and_upsample(net, s32, s16, z8)


def test_fusion_rejects_wrong_class_channels():
    """Fusion takes the maps as they are: ``add`` refuses a class count that
    differs from the others'."""
    net = tiny_net()

    def z(c, n):
        return np.zeros((c, n, n), dtype=np.float32)

    for maps in ((z(5, 1), z(2, 2), z(2, 4)), (z(2, 1), z(2, 2), z(5, 4))):
        with pytest.raises(ShapeError, match="^add: shape mismatch"):
            fuse_and_upsample(net, *maps)


@pytest.mark.parametrize("h,w", [(32, 32), (64, 64), (32, 96), (96, 32),
                                 (64, 128), (96, 160)])
def test_fusion_crops_get_maps_already_at_their_target_size(monkeypatch, h, w):
    """Every size is a multiple of 32, so score_fr upsampled by 2 has
    score_pool4's size, and that sum upsampled by 2 has score_pool3's: both
    crops are identity copies."""
    seen = []
    crop = net_module.crop_center

    def recorded(x, target_h, target_w):
        seen.append((x.shape[1:], (target_h, target_w)))
        return crop(x, target_h, target_w)

    monkeypatch.setattr(net_module, "crop_center", recorded)
    cfg = NetConfig(base_width=2, height=h, width=w)
    full_forward(build_net(cfg, gen_weights(cfg, 7)), make_frame(3, h, w))
    assert seen == [((h // 16, w // 16),) * 2, ((h // 8, w // 8),) * 2]


def test_resolution_contract_multiple_sizes():
    for h, w in ((32, 32), (32, 64), (96, 32)):
        cfg = NetConfig(base_width=2, height=h, width=w)
        net = build_net(cfg, gen_weights(cfg, 7))
        out = full_forward(net, make_frame(3, h, w))
        assert out.final_scores.shape == (2, h, w)


def test_net_rejects_wrong_frame_size():
    net = tiny_net()
    with pytest.raises(ShapeError, match="expected shape"):
        run_stage1(net, make_frame(3, 64, 64))


@pytest.mark.parametrize("stage,channels", [(run_stage2, 8), (run_stage3, 16)])
def test_deeper_stages_refuse_wrong_channels_at_their_first_conv(stage,
                                                                 channels):
    """Stages 2 and 3 take their input as it is; a wrong channel count is
    the ShapeError of their first conv2d."""
    net = tiny_net()
    x = np.zeros((channels + 1, 4, 4), dtype=np.float32)
    with pytest.raises(ShapeError, match=f"^conv2d: expected {channels} "
                                         f"input channels, got {channels + 1}$"):
        stage(net, x)


def test_build_net_missing_entry_names_it():
    cfg = NetConfig(base_width=2, height=32, width=32)
    store = gen_weights(cfg, 0)
    del store["score_pool4"]
    with pytest.raises(ContractError, match="score_pool4"):
        build_net(cfg, store)


def test_build_net_missing_bias_names_it():
    cfg = NetConfig(base_width=2, height=32, width=32)
    store = gen_weights(cfg, 0)
    del store["conv3_1.bias"]
    with pytest.raises(ContractError, match="conv3_1.bias"):
        build_net(cfg, store)


def test_build_net_shape_mismatch():
    cfg = NetConfig(base_width=2, height=32, width=32)
    store = gen_weights(cfg, 0)
    store["score_fr"] = np.zeros((3, 64, 1, 1), dtype=np.float32)
    with pytest.raises(ShapeError, match="score_fr"):
        build_net(cfg, store)
    store = gen_weights(cfg, 0)
    store["conv1_1.bias"] = np.zeros(5, dtype=np.float32)
    with pytest.raises(ShapeError, match="conv1_1"):
        build_net(cfg, store)


def test_layer_list_is_the_fixed_topology():
    cfg = NetConfig()
    names = [s.name for s in layer_specs(cfg)]
    assert names == [
        "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2",
        "score_pool3", "conv4_1", "conv4_2", "score_pool4", "conv5_1",
        "conv5_2", "score_fr",
    ]
    heads = {s.name: s for s in layer_specs(cfg)}
    assert heads["score_pool3"].out_channels == cfg.num_classes
    assert heads["score_pool4"].out_channels == cfg.num_classes
    assert heads["score_fr"].out_channels == cfg.num_classes


def test_argmax_mask_rules():
    always_one = np.stack([np.zeros((2, 2)), np.ones((2, 2))]).astype(np.float32)
    assert argmax_mask(always_one).tolist() == [[1, 1], [1, 1]]
    tie = np.full((3, 2, 2), 0.5, dtype=np.float32)
    assert not argmax_mask(tie).any()
    pixel = np.array([[[0.2]], [[0.9]]], dtype=np.float32)
    assert argmax_mask(pixel)[0, 0] == 1


# Few distinct values, so ties, NaNs, infinities and signed zeros meet often.
SPECIAL_SCORES = st.sampled_from(
    [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
     float(np.finfo(np.float32).max)]) | st.floats(width=32)


@settings(max_examples=300)
@given(scores=st.tuples(st.integers(2, 5), st.integers(1, 4),
                        st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float32, shape, elements=SPECIAL_SCORES)))
def test_argmax_mask_equals_numpy_argmax(scores):
    got = argmax_mask(scores)
    want = np.argmax(scores, axis=0)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_work_counter_full_forward():
    net = seed42_net()
    work = WorkCounter()
    full_forward(net, make_frame(3, 64, 64), work)
    assert work.stage_convs() == {"stage1": 7, "stage2": 3, "stage3": 3}
    # spot-check two layers against the closed-form count
    assert work.macs["conv1_1"] == 8 * 64 * 64 * 3 * 3 * 3
    assert work.macs["score_fr"] == 2 * 2 * 2 * 256 * 1 * 1


def test_golden_seed42_outputs():
    """Self-oracle: checksums recorded by the first reference run, pinned
    thereafter. Delete the data file to re-record."""
    net = seed42_net()
    out = full_forward(net, make_frame(3, 64, 64, salt=1))
    mask = argmax_mask(out.final_scores)
    got = {
        "final_scores_sha256": hashlib.sha256(out.final_scores.tobytes()).hexdigest(),
        "mask_sha256": hashlib.sha256(mask.astype(np.uint8).tobytes()).hexdigest(),
    }
    if not GOLDEN_PATH.exists():
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(got, indent=2) + "\n")
        pytest.skip("golden file created; rerun to verify")
    want = json.loads(GOLDEN_PATH.read_text())
    assert got == want
