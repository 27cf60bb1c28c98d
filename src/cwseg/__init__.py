"""Clockwork-scheduled fully convolutional video segmentation."""

from .errors import ContractError, CwsegError, FileFormatError, ShapeError
from .tensor_ops import (
    ConvParams,
    Tensor,
    add,
    as_chw,
    conv2d,
    crop_center,
    maxpool2d,
    mean_abs_diff,
    relu,
    upsample_bilinear,
)
from .net import (
    NetConfig,
    StagedNet,
    StageId,
    StageOutputs,
    WorkCounter,
    argmax_mask,
    build_net,
    full_forward,
    fuse_and_upsample,
    layer_specs,
    run_stage1,
    run_stage2,
    run_stage3,
)
from .scheduler import (
    Adaptive,
    Always,
    ClockSchedule,
    Fixed,
    PersistedState,
    SkipPolicy,
    Stage1Result,
    StageTrace,
    run_sequence,
    should_fire,
    step,
    time_stage1,
)
from .metrics import (
    BinaryStats,
    ConfusionMatrix,
    MetricsReport,
    accumulate,
    average_precision,
    build_report,
)
from .media_io import (
    DEFAULT_PALETTE,
    SequenceManifest,
    decode_gt_mask,
    gen_weights,
    parse_palette,
    read_image,
    read_manifest,
    read_pnm,
    read_weights,
    write_image,
    write_mask,
    write_pnm,
    write_weights,
)

__version__ = "0.1.0"
