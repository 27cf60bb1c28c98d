"""Clockwork-scheduled fully convolutional video segmentation."""

from .errors import (
    ContractError,
    CwsegError,
    FileFormatError,
    NumericError,
    ShapeError,
)
from .tensor_ops import (
    ConvParams,
    add,
    conv2d,
    crop_center,
    maxpool2d,
    mean_abs_diff,
    relu,
    upsample_bilinear,
)
from .net import (
    NetConfig,
    StageId,
    WorkCounter,
    argmax_mask,
    build_net,
    fuse_and_upsample,
    layer_specs,
    run_stage1,
    run_stage2,
    run_stage3,
)
from .scheduler import (
    Adaptive,
    Always,
    Fixed,
    SkipPolicy,
    StageTrace,
    run_sequence,
    step,
)
from .metrics import (
    ConfusionMatrix,
    average_precision,
    build_report,
)
from .media_io import (
    DEFAULT_PALETTE,
    decode_gt_mask,
    gen_weights,
    palette_hits,
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
