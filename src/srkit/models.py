"""SPANV2 and SPAN-baseline model construction.

SPANV2 (x4): a near-pixel depthwise branch (3 -> 3*s^2 channels, initialized
as an exact nearest-neighbor upsampler), five attention blocks (block 1
projects 3 -> C, the rest keep C), channel concat of the two paths, a
depthwise + pointwise fusion head, and a final depth-to-space rearrangement.

Each block computes
    f1 = relu(conv3x3(x)); f2 = relu(conv3x3(f1)); f3 = conv3x3(f2)
    y  = (res + f3) * conv1x1(f3)
with res = x when widths agree and res = f1 for the width-changing first
block (the sum has to be well-typed; f1 is the first same-width feature).

The SPAN baseline keeps the same three-conv body but gates with the
parameter-free product y = f1 * f3 and uses the original head/tail wiring;
its default configuration (28 channels, 6 blocks) is the published
0.151 M-parameter, 9.83 GFLOP reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import FusionGroup, ModelGraph, Node
from .tensor import ConvSpec, ShapeError, Tensor, mul


@dataclass(frozen=True)
class BlockSpec:
    """Weights of one attention block: three 3x3 convs and the 1x1 gate."""

    conv_a: ConvSpec
    conv_b: ConvSpec
    conv_c: ConvSpec
    attn: ConvSpec


def random_conv(
    rng: np.random.Generator,
    cin: int,
    cout: int,
    k: int = 3,
    groups: int = 1,
    bias: bool = True,
    gain: float = 2.0,
) -> ConvSpec:
    """Kaiming-style random conv weights; deterministic for a seeded rng."""
    fan_in = (cin // groups) * k * k
    weight = rng.normal(0.0, np.sqrt(gain / fan_in), (cout, cin // groups, k, k))
    b = rng.uniform(-1.0, 1.0, cout) / np.sqrt(fan_in) if bias else None
    return ConvSpec(
        in_channels=cin,
        out_channels=cout,
        kernel=(k, k),
        padding=(k // 2, k // 2),
        weight=weight.astype(np.float32),
        bias=None if b is None else b.astype(np.float32),
        groups=groups,
    )


def random_block(rng: np.random.Generator, cin: int, c: int) -> BlockSpec:
    # The gate starts near pass-through (m ~= 1): a gate whose magnitude
    # tracks f3 would square activations per block and blow up untrained
    # demo runs double-exponentially. Unit-gain convs keep the stack stable.
    attn = random_conv(rng, c, c, k=1)
    attn = replace(
        attn,
        weight=attn.weight * np.float32(0.15),
        bias=(1.0 + rng.uniform(-0.05, 0.05, c)).astype(np.float32),
    )
    return BlockSpec(
        conv_a=random_conv(rng, cin, c, gain=1.0),
        conv_b=random_conv(rng, c, c, gain=1.0),
        conv_c=random_conv(rng, c, c, gain=1.0),
        attn=attn,
    )


def span_baseline_attention(f1: Tensor, f3: Tensor) -> Tensor:
    """The original parameter-free gate: plain elementwise product."""
    if f1.shape != f3.shape:
        raise ShapeError(f"baseline attention: shapes {f1.shape} vs {f3.shape} differ")
    return mul(f1, f3)


def near_pixel_init(spec: ConvSpec, s: int = 4) -> ConvSpec:
    """Re-initialize a depthwise 3 -> 3*s^2 conv as a pixel-repeat operator.

    Only the kernel center of each sub-channel is set (to 1), so the conv
    followed by pixel_shuffle(s) reproduces nearest-neighbor x s upsampling
    exactly; all other taps and the bias start at zero but stay trainable.
    """
    if (
        spec.in_channels != 3
        or spec.groups != 3
        or spec.out_channels != 3 * s * s
        or spec.kernel != (3, 3)
    ):
        raise ShapeError(
            f"near-pixel conv must be depthwise 3->{3 * s * s} with 3x3 kernel, got "
            f"{spec.in_channels}->{spec.out_channels} k={spec.kernel} groups={spec.groups}"
        )
    weight = np.zeros_like(spec.weight)
    for c in range(3):
        for k in range(s * s):
            weight[c * s * s + k, 0, 1, 1] = 1.0
    bias = None if spec.bias is None else np.zeros_like(spec.bias)
    return ConvSpec(
        in_channels=spec.in_channels,
        out_channels=spec.out_channels,
        kernel=spec.kernel,
        padding=spec.padding,
        weight=weight,
        bias=bias,
        groups=spec.groups,
    )


def nearest_upsample(x: Tensor, s: int) -> Tensor:
    """Nearest-neighbor x s upsampling (the near-pixel branch's reference)."""
    return Tensor(x.data.repeat(s, axis=2).repeat(s, axis=3))


def _block_nodes(
    prefix: str, block: BlockSpec, src: str
) -> tuple[list[Node], FusionGroup, str]:
    a, ra = f"{prefix}.conv_a", f"{prefix}.relu_a"
    b, rb = f"{prefix}.conv_b", f"{prefix}.relu_b"
    c, at = f"{prefix}.conv_c", f"{prefix}.attn"
    sm, out = f"{prefix}.sum", f"{prefix}.out"
    res = src if block.conv_a.in_channels == block.conv_c.out_channels else ra
    nodes = [
        Node(a, "conv", (src,), spec=block.conv_a),
        Node(ra, "relu", (a,)),
        Node(b, "conv", (ra,), spec=block.conv_b),
        Node(rb, "relu", (b,)),
        Node(c, "conv", (rb,), spec=block.conv_c),
        Node(at, "conv", (c,), spec=block.attn),
        Node(sm, "add", (res, c)),
        Node(out, "mul", (sm, at)),
    ]
    return nodes, FusionGroup(conv=at, add=sm, mul=out), out


def _check_sizes(c: int, s: int, blocks: int) -> None:
    for name, value in (("c (width)", c), ("s (upscale)", s), ("blocks", blocks)):
        if value < 1:
            raise ShapeError(f"{name} must be >= 1, got {value}")


def build_spanv2(
    c: int = 32, s: int = 4, blocks: int = 5, seed: int | None = 0
) -> ModelGraph:
    """Seeded SPANV2 graph; output is always (n, 3, s*h, s*w)."""
    _check_sizes(c, s, blocks)
    rng = np.random.default_rng(seed)
    near = near_pixel_init(random_conv(rng, 3, 3 * s * s, k=3, groups=3), s)
    nodes = [
        Node("input", "input", (), channels=3),
        Node("near", "conv", ("input",), spec=near),
    ]
    groups: list[FusionGroup] = []
    src = "input"
    for i in range(1, blocks + 1):
        block = random_block(rng, 3 if i == 1 else c, c)
        block_nodes, fg, src = _block_nodes(f"b{i}", block, src)
        nodes.extend(block_nodes)
        groups.append(fg)
    # The fusion head starts as an approximate pass-through of the near-pixel
    # channels (identity center taps plus small mixing noise), so an
    # untrained seeded model already behaves like a nearest-neighbor
    # upsampler with mild texture from the block stack.
    fused_c = 3 * s * s + c
    dw = random_conv(rng, fused_c, fused_c, k=3, groups=fused_c)
    dw_w = dw.weight * np.float32(0.05)
    dw_w[:, 0, 1, 1] += 1.0
    dw = replace(dw, weight=dw_w, bias=dw.bias * np.float32(0.1))
    pw = random_conv(rng, fused_c, 3 * s * s, k=1)
    pw_w = pw.weight * np.float32(0.05)
    for j in range(3 * s * s):
        pw_w[j, j, 0, 0] += 1.0
    pw = replace(pw, weight=pw_w, bias=pw.bias * np.float32(0.1))
    nodes += [
        Node("fuse.cat", "concat", ("near", src)),
        Node("fuse.dw", "conv", ("fuse.cat",), spec=dw),
        Node("fuse.pw", "conv", ("fuse.dw",), spec=pw),
        Node("up", "pixel_shuffle", ("fuse.pw",), upscale=s),
    ]
    g = ModelGraph(
        name="spanv2",
        nodes=nodes,
        output="up",
        meta={"model": "spanv2", "width": c, "upscale": s, "blocks": blocks, "seed": seed},
        fusion_groups=groups,
    )
    g.validate()
    return g


def _baseline_block_nodes(prefix: str, block: "BaselineBlockSpec", src: str):
    a, ra = f"{prefix}.conv_a", f"{prefix}.relu_a"
    b, rb = f"{prefix}.conv_b", f"{prefix}.relu_b"
    c, out = f"{prefix}.conv_c", f"{prefix}.out"
    nodes = [
        Node(a, "conv", (src,), spec=block.conv_a),
        Node(ra, "relu", (a,)),
        Node(b, "conv", (ra,), spec=block.conv_b),
        Node(rb, "relu", (b,)),
        Node(c, "conv", (rb,), spec=block.conv_c),
        Node(out, "mul", (ra, c)),
    ]
    return nodes, out


@dataclass(frozen=True)
class BaselineBlockSpec:
    conv_a: ConvSpec
    conv_b: ConvSpec
    conv_c: ConvSpec


def build_span_baseline(
    c: int = 28, s: int = 4, blocks: int = 6, seed: int | None = 0
) -> ModelGraph:
    """The challenge's SPAN reference configuration (0.151 M params at c=28).

    Head conv, `blocks` parameter-free-attention blocks, a tail conv on the
    last block, concat of head/tail/first/fifth block outputs, 1x1 fuse conv,
    and the upsampling conv feeding depth-to-space.
    """
    _check_sizes(c, s, blocks)
    if blocks < 2:
        raise ShapeError("baseline needs at least two blocks for its skip wiring")
    rng = np.random.default_rng(seed)
    nodes = [
        Node("input", "input", (), channels=3),
        Node("head", "conv", ("input",), spec=random_conv(rng, 3, c)),
    ]
    src = "head"
    outs = []
    for i in range(1, blocks + 1):
        block = BaselineBlockSpec(
            conv_a=random_conv(rng, c, c),
            conv_b=random_conv(rng, c, c),
            conv_c=random_conv(rng, c, c),
        )
        block_nodes, src = _baseline_block_nodes(f"b{i}", block, src)
        nodes.extend(block_nodes)
        outs.append(src)
    skips = ["head", "tail", outs[0], outs[-2]]
    nodes += [
        Node("tail", "conv", (outs[-1],), spec=random_conv(rng, c, c)),
        Node("cat", "concat", tuple(skips)),
        Node("cat_conv", "conv", ("cat",), spec=random_conv(rng, 4 * c, c, k=1)),
        Node("up_conv", "conv", ("cat_conv",), spec=random_conv(rng, c, 3 * s * s)),
        Node("up", "pixel_shuffle", ("up_conv",), upscale=s),
    ]
    g = ModelGraph(
        name="span",
        nodes=nodes,
        output="up",
        meta={"model": "span", "width": c, "upscale": s, "blocks": blocks, "seed": seed},
        fusion_groups=[],
    )
    g.validate()
    return g


def build_model(model: str, seed: int | None = 0, **overrides) -> ModelGraph:
    """Build a named model; overrides pass width/upscale/blocks through."""
    builders = {"spanv2": build_spanv2, "span": build_span_baseline}
    if model not in builders:
        raise ValueError(f"unknown model {model!r}; known: {sorted(builders)}")
    kwargs = {"seed": seed}
    for key, val in overrides.items():
        if val is not None:
            kwargs[{"width": "c", "upscale": "s", "blocks": "blocks"}[key]] = val
    return builders[model](**kwargs)
