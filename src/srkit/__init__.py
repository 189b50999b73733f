"""srkit: CPU inference, operator fusion, and challenge scoring for x4 SR."""

from .archive import ArchiveError, load_archive, save_archive
from .fusion import (
    BranchGroup,
    LoraFactors,
    TrafficCounter,
    collapse_branches,
    compose_convs,
    fused_attention,
    lora_merge,
    reference_attention,
)
from .graph import FusionGroup, ModelGraph, Node, run_graph
from .metrics import bench_runtime, count_flops, count_params, psnr
from .models import (
    BlockSpec,
    build_span_baseline,
    build_spanv2,
    near_pixel_init,
)
from .scoring import ScoreTable, TeamMetrics, rank_table, score_final, score_metric
from .tensor import (
    ConvSpec,
    ShapeError,
    Tensor,
    add,
    concat_channels,
    conv2d,
    mul,
    pixel_shuffle,
    relu,
    space_to_depth,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "ArchiveError",
    "BlockSpec",
    "BranchGroup",
    "ConvSpec",
    "FusionGroup",
    "LoraFactors",
    "ModelGraph",
    "Node",
    "ScoreTable",
    "ShapeError",
    "TeamMetrics",
    "Tensor",
    "TrafficCounter",
    "add",
    "bench_runtime",
    "build_span_baseline",
    "build_spanv2",
    "collapse_branches",
    "compose_convs",
    "concat_channels",
    "conv2d",
    "count_flops",
    "count_params",
    "fused_attention",
    "load_archive",
    "lora_merge",
    "mul",
    "near_pixel_init",
    "pixel_shuffle",
    "psnr",
    "rank_table",
    "reference_attention",
    "relu",
    "run_graph",
    "save_archive",
    "score_final",
    "score_metric",
    "space_to_depth",
    "tensor",
]
