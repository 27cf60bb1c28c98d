"""perfbench's tracer wraps functions of the program by name, from outside
``src/``. This runs it on one small frame, so that a renamed function or
attribute it reads fails here, not only in the benchmark's smoke run."""
import importlib.util
from pathlib import Path

import cwseg.cli as cli
from cwseg import Always, NetConfig, SkipPolicy, gen_weights, layer_specs, run_sequence
from testutil import make_frame

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py as a module of its own, outside sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_one_conv_span_per_layer_with_the_traced_macs():
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    cfg = NetConfig(height=32, width=32)
    with tracer_mod.install(tracer):
        # Through cli.build_net, as the CLI builds it: the tracer learns the
        # layer names from that span.
        net = cli.build_net(cfg, gen_weights(cfg, 42))
        masks, traces = run_sequence(net, Always(), SkipPolicy.FUSE_CACHED_DEEP,
                                     [make_frame(3, 32, 32)])
    assert len(masks) == len(traces) == 1
    spans = {s.id: s for s in tracer.spans}
    convs = [s for s in tracer.spans if s.name == "tensor_ops.conv2d"]
    assert sorted(s.attrs["layer"] for s in convs) == sorted(
        spec.name for spec in layer_specs(cfg))
    # Each conv span sits inside its stage's span; their MACs per stage are
    # the frame trace's.
    macs: dict[str, int] = {}
    for s in convs:
        stage = spans[s.parent].name
        assert stage in ("net.stage1", "net.stage2", "net.stage3")
        label = stage.removeprefix("net.")
        macs[label] = macs.get(label, 0) + s.attrs["macs"]
    assert macs == traces[0].macs
    names = {s.name for s in tracer.spans}
    for name in ("net.build_net", "scheduler.step", "net.fusion", "net.argmax",
                 "tensor_ops.maxpool2d", "tensor_ops.crop_center"):
        assert name in names, name
    assert sum(s.name == "tensor_ops.maxpool2d" for s in tracer.spans) == 5
    # Closing the stack put every wrapped name back.
    assert cli.build_net.__module__ == "cwseg.net"
